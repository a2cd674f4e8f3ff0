"""Error-probability bounds for n-use discrimination of two channels drawn
from the transpose-depolarizing family.

For a pair of flip expectations (eta, zeta) and n channel uses, the optimal
error probability is sandwiched by single-letter quantities:

    (1 - sqrt(min{1 - F^2n, n S})) / 2  <=  p_opt  <=  Q^n / 2  <=  F^n / 2,

with F the fidelity, Q the minimum s-overlap and S the rescaled directed
relative entropy.  The exact error of the best block (non-adaptive)
strategy, :func:`helstrom_multicopy_werner`, sits between the lower bound
and Q^n/2 and is carried along as the sharpest internal consistency check.

All four numbers are dimension-free, so grids are generated at a fixed
nominal d.  The depolarizing family's one entry point is metrics.qcb_isotropic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DimensionOverflowError, InvalidParameterError
from .metrics import _fidelity, _one_minus_f2, _qcb_werner, _s_quantity
from .validate import _check_dim, _check_eta, _check_positive_int

__all__ = [
    "CURVE_ROW_CAP",
    "ETA_GRID_CAP",
    "DiscriminationBounds",
    "Sandwiches",
    "bounds",
    "curve_grid",
    "eta_grid",
    "helstrom_multicopy_werner",
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


HELSTROM_COPY_CAP = 1000
# Entries of one (zeta, eta, k) block of _helstrom_rows; sizes the working buffers each call
# allocates once and reuses for every block, so it bounds the call's working memory.
_HELSTROM_BLOCK = 1 << 15
# A class minimum logged at or below max(its row's peak - _WINDOW, _EXP_FLOOR) is set to
# +0.0 without calling exp.  Each such term is at most e^-60 of the row's peak, which is at
# most the row's sum, so all of them together are under (n + 1) e^-60 <= 2^-74 of the sum
# for every n up to 5000, far below half an ulp of it.  At n = 1000 on the 0.01 grid only
# about 16 % of the terms lie above the cut.
_WINDOW = 60.0
# exp is exactly +0.0 below -745.1332 in float64, so terms at or below this floor are 0
# whatever their row: the floor binds only on rows whose peak lies below -690, which
# still get their subnormal sum, and on -inf rows.  numpy's SIMD exp takes a slow path on
# every vector that holds an underflowing lane, so no such lane reaches it.
_EXP_FLOOR = -750.0


def _check_copies(n: int) -> int:
    """Validate a copy count for the exact block error: a positive integer
    no larger than ``HELSTROM_COPY_CAP``."""
    return _check_positive_int(n, "copy count", HELSTROM_COPY_CAP)


def _log_binomials(n: int) -> np.ndarray:
    # log C(n, k), k = 0..n, each from the exact integer, so the table is right to an ulp
    # (a float cumulative sum drifts by 1e-12 at n = 1000, lgamma differences by 2e-12);
    # the integers are built up to k = n/2 and mirrored, C(n, k) = C(n, n - k)
    binom, logs = 1, [0.0]
    for i in range(1, n // 2 + 1):
        binom = binom * (n + 1 - i) // i
        logs.append(math.log(binom))
    return np.array(logs + logs[(n - 1) // 2 :: -1])


def _helstrom_rows(etas, zetas, n: int) -> np.ndarray:
    # helstrom_multicopy_werner for every eta against every zeta at one
    # validated copy count, in log space, shape (len(zetas), len(etas)).  k log 0 is
    # 0 at k = 0, as is (n - k) log 0 at k = n.  Each row exponentiates only the class
    # minima above its cut (see _WINDOW); the rest are +0.0.
    log_base = _log_binomials(n) - n * math.log(2.0)
    k = np.arange(n + 1.0)
    rest = n - k

    def log_weights(column, up=None, down=None):
        # log[C(n,k) ((1+eta)/2)^k ((1-eta)/2)^(n-k)], one row per eta, into ``up``
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.multiply(k, np.log1p(column), out=up)
            down = np.multiply(rest, np.log1p(-column), out=down)
        up[..., 0] = down[..., -1] = 0.0
        return np.add(np.add(log_base, up, out=up), down, out=up)

    def lead(buf, *shape):
        # the leading entries of a flat buffer, shaped as one block: a contiguous view
        return buf[: math.prod(shape)].reshape(shape)

    etas, zetas = np.asarray(etas, dtype=float), np.asarray(zetas, dtype=float)
    log_zetas = log_weights(zetas[:, None])[:, None, :]
    rows = np.empty((len(zetas), len(etas)))
    # an eta block holds at most ``step`` etas and a (zeta, eta) block at most ``step``
    # pairs: the buffers are allocated once, for the largest block, and every block is a
    # view of them
    step = max(1, _HELSTROM_BLOCK // (n + 1))
    up, down = np.empty((2, min(step, len(etas)), n + 1))
    minima = np.empty(min(step, len(zetas) * len(etas)) * (n + 1))
    under, keep = np.empty((2, minima.size), dtype=bool)
    for at in (slice(j, j + step) for j in range(0, len(etas), step)):
        # each eta block's weights are logged once and set against every zeta,
        # as many zetas at a time as keep the minima within the block bound
        column = etas[at, None]
        block = log_weights(column, up[: len(column)], down[: len(column)])
        z_step = max(1, _HELSTROM_BLOCK // block.size)
        for z in (slice(j, j + z_step) for j in range(0, len(zetas), z_step)):
            shape = (len(zetas[z]), *block.shape)
            terms = np.minimum(block, log_zetas[z], out=lead(minima, *shape))
            # a NaN row has a NaN cut: nothing is at or below it, so the NaN goes through exp
            cut = np.maximum(terms.max(-1, keepdims=True) - _WINDOW, _EXP_FLOOR)
            floor = np.less_equal(terms, cut, out=lead(under, *shape))
            np.exp(terms, out=terms, where=np.logical_not(floor, out=lead(keep, *shape)))
            np.copyto(terms, 0.0, where=floor)
            rows[z, at] = 0.5 * terms.sum(axis=-1)
    # The true sum of minima is at most 1, and exactly 1 for equal parameters;
    # rounded weights can miss either by a few ulps per term.
    rows = np.minimum(rows, 0.5)
    rows[zetas[:, None] == etas] = 0.5
    return rows


def helstrom_multicopy_werner(eta: float, zeta: float, d: int, n: int) -> float:
    """Exact minimum error probability for discriminating two equiprobable
    n-fold tensor powers of flip-expectation states.

    Both spectra live in one eigenbasis, so the error reduces to a sum over
    the shared multiplicity classes k = 0..n (Audenaert et al., PRL 98,
    160501 (2007)):

        p = 1/2 sum_k min(w_k(eta), w_k(zeta)),
        w_k(eta) = C(n,k) ((1+eta)/2)^k ((1-eta)/2)^(n-k).

    Unlike 1 - 1/2 sum_k |w_k(eta) - w_k(zeta)|, this sum cannot cancel, so
    p is never negative and stays accurate in relative terms when tiny.  Terms
    at most e^-60 of the largest are summed as 0: together they are under
    (n + 1) e^-60 <= 2^-74 of p, far below half an ulp of it.  The value does
    not depend on d; eta == zeta gives exactly 1/2, and n beyond 1000 is
    rejected.
    """
    eta = _check_eta(eta)
    zeta = _check_eta(zeta)
    d = _check_dim(d)
    n = _check_copies(n)
    return float(_helstrom_rows([eta], [zeta], n)[0, 0])


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
