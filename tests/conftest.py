import pytest

from wernerlab import discrimination


def _grid_rows(cols):
    # one DiscriminationBounds (d = 2) per entry of a column grid, by (zeta, n, eta)
    return [
        discrimination.DiscriminationBounds(
            eta=eta,
            zeta=zeta,
            d=2,
            n=n,
            **{k: getattr(cols, k)[i, j, m].item() for k in cols._fields[3:]},
        )
        for i, zeta in enumerate(cols.zetas.tolist())
        for j, n in enumerate(cols.n.tolist())
        for m, eta in enumerate(cols.etas.tolist())
    ]


@pytest.fixture
def grid_rows():
    """The rows of a column grid of bound sandwiches, as DiscriminationBounds."""
    return _grid_rows
