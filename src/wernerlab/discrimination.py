"""Error-probability bounds for n-use discrimination of two channels drawn
from the transpose-depolarizing family.

For a pair of flip expectations (eta, zeta) and n channel uses, the optimal
error probability is sandwiched by single-letter quantities:

    (1 - sqrt(min{1 - F^2n, n S})) / 2  <=  p_opt  <=  Q^n / 2  <=  F^n / 2,

with F the fidelity, Q the minimum s-overlap and S the rescaled directed
relative entropy.  The exact error of the best block (non-adaptive)
strategy sits between the lower bound and Q^n/2 and is carried along as
the sharpest internal consistency check.

All four numbers are dimension-free, so grids are generated at a fixed
nominal d.  The depolarizing family's one entry point is metrics.qcb_isotropic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DimensionOverflowError, InvalidParameterError
from .metrics import (
    _check_copies,
    _fidelity,
    _helstrom_rows,
    _one_minus_f2,
    _qcb_werner,
    _s_quantity,
)
from .states import _check_dim, _check_eta

__all__ = [
    "CURVE_ROW_CAP",
    "ETA_GRID_CAP",
    "DiscriminationBounds",
    "Sandwiches",
    "bounds",
    "curve_grid",
    "eta_grid",
]

# Most intervals an eta grid may have: 1e-300 passes the divides-[-1, 1]
# test but asks for a 2e300-element list.
ETA_GRID_CAP = 100_000
# Most rows a curve grid may have: the finest grid at one copy count (72 MB peak RSS as CSV).
CURVE_ROW_CAP = ETA_GRID_CAP + 1


@dataclass(frozen=True)
class DiscriminationBounds:
    """Bound sandwich for one parameter pair and copy count.

    Invariant: lower <= helstrom_block <= qcb_upper <= fid_upper, all in
    [0, 1/2].
    """

    eta: float
    zeta: float
    d: int
    n: int
    lower: float
    qcb_upper: float
    fid_upper: float
    helstrom_block: float


# Bound sandwiches as columns: zetas, n, etas, then DiscriminationBounds' four bounds as (zeta, n, eta)
Sandwiches = namedtuple("Sandwiches", "zetas n etas lower qcb_upper fid_upper helstrom_block")


def bounds(eta: float, zeta: float, d: int, n: int) -> DiscriminationBounds:
    """Assemble the full bound sandwich for one (eta, zeta, d, n): the
    one-entry case of :func:`curve_grid`."""
    eta = _check_eta(eta)
    zeta = _check_eta(zeta)
    d = _check_dim(d)
    n = _check_copies(n)
    cols = _sandwiches([eta], [zeta], [n])
    return DiscriminationBounds(eta, zeta, d, n, *(bound.item() for bound in cols[3:]))


def _libm(func, *args) -> np.ndarray:
    # func from libm entry by entry over the broadcast arguments, mapped over flat lists of
    # Python numbers: numpy's SIMD pow, log1p and expm1 round some entries an ulp apart by
    # memory layout, unlike a one-entry bounds()
    args = np.broadcast_arrays(*args)
    flat = map(func, *(a.ravel().tolist() for a in args))
    return np.fromiter(flat, float, args[0].size).reshape(args[0].shape)


def _sandwiches(etas, zetas, n_list) -> Sandwiches:
    # The columns of every (zeta, n, eta), with one Helstrom table per copy count; a caller
    # with many zetas cuts them into blocks.  The etas and zetas are validated Python
    # floats, so F, S, 1 - F^2 and Q come from the unvalidated cores in metrics, once per
    # pair, and no validator runs here.
    etas, ns = list(etas), np.array(n_list)
    n_col = ns[:, None]
    singles = [
        (_fidelity(eta, zeta), _s_quantity(eta, zeta), _qcb_werner(eta, zeta)[0],
         _one_minus_f2(eta, zeta))
        for zeta in zetas for eta in etas
    ]
    f, s, q, gap = np.array(singles).T.reshape(4, len(zetas), 1, len(etas))
    # log F^2 = log1p(-(1 - F^2)) from the stable 1 - F^2, once per pair (-inf where
    # F = 0), and 1 - F^2n = -expm1(n log F^2) per entry: it keeps the lower bound
    # comparable to the exact block error when F rounds to 1; minimum() picks the
    # finite branch when S is the +inf sentinel; the 1 - F^2n branch never exceeds 1,
    # so the root is real
    log_f2 = np.array([-math.inf if g >= 1.0 else math.log1p(-g) for g in gap.ravel().tolist()])
    m = np.minimum(-_libm(math.expm1, n_col * log_f2.reshape(gap.shape)), n_col * s)
    helstrom = np.stack([_helstrom_rows(etas, zetas, n) for n in ns.tolist()], axis=1)
    return Sandwiches(np.array(zetas), ns, np.array(etas), 0.5 * (1.0 - np.sqrt(m)),
                      0.5 * _libm(pow, q, n_col), 0.5 * _libm(pow, f, n_col), helstrom)


def eta_grid(step: float) -> list[float]:
    """The grid eta = -1, -1 + step, ..., 1 (slice ``[1:-1]`` for its interior).

    The step must be finite, positive and divide [-1, 1]; grids of more than
    ``ETA_GRID_CAP`` intervals are rejected before any point is built."""
    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidParameterError(f"grid step must be finite and positive, got {step}")
    intervals = 2.0 / step
    if intervals > ETA_GRID_CAP + 0.5:
        raise DimensionOverflowError(
            f"grid step {step} gives {intervals:.3g} intervals, above the cap of {ETA_GRID_CAP}"
        )
    count = round(intervals)
    if count < 1 or abs(count * step - 2.0) > 1e-9:
        raise InvalidParameterError(f"grid step {step} does not divide [-1, 1]")
    return [(2 * i - count) / count for i in range(count + 1)]


def curve_grid(zeta: float, n_list: list[int], eta_step: float) -> Sandwiches:
    """Bound sandwiches over an eta grid, as columns shaped (1, n, eta).

    The grid runs over eta = -1, -1 + step, ..., 1 and the copy counts are
    sorted, so rows read in (n, eta) order; rows stand for nominal d = 2.
    Every input is validated, and the row count held to ``CURVE_ROW_CAP``,
    before any row is computed.
    """
    zeta = _check_eta(zeta)
    if not n_list:
        raise InvalidParameterError("need at least one copy count")
    n_values = sorted({_check_copies(n) for n in n_list})
    etas = eta_grid(eta_step)
    if len(etas) * len(n_values) > CURVE_ROW_CAP:
        raise DimensionOverflowError(
            f"{len(etas)} grid points x {len(n_values)} copy counts exceed the cap of "
            f"{CURVE_ROW_CAP} rows"
        )
    return _sandwiches(etas, [zeta], n_values)
