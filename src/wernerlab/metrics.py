"""Closed-form distinguishability metrics for the two-class spectral families.

All quantities in this module are parameter-in/number-out: they depend on
the flip expectations (eta, zeta) or entangled-operator expectations
(alpha, beta) alone, never on explicit matrices.  The matrix-level
counterparts in :mod:`wernerlab.linalg` serve as independent cross-checks.
Each public closed form validates its parameters and then calls a private
core, which callers holding validated floats call directly.

Infinity is a first-class sentinel here (``math.inf``): it propagates
through min/comparisons instead of raising, so downstream bound assembly
stays total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import SupportMismatchError
from .states import _check_alpha, _check_dim, _check_eta, _check_in, _check_positive_int

__all__ = [
    "QcbResult",
    "fidelity_werner",
    "one_minus_fidelity_squared",
    "relative_entropy_werner",
    "delta_s",
    "s_quantity",
    "werner_qs",
    "qcb_werner",
    "qcb_isotropic",
    "helstrom_multicopy_werner",
]

LN_SQRT2 = 0.5 * math.log(2.0)

# Parameters closer than this are treated as equal: the interior critical
# point formula is 0/0 on the diagonal.
DEGENERATE_TOL = 1e-14

SKind = Literal["interior", "left_limit", "right_limit", "degenerate_half"]


@dataclass(frozen=True)
class QcbResult:
    """Chernoff overlap minimum: value q, minimiser s_star, and how the
    minimiser was reached (interior critical point, an endpoint limit, or
    the degenerate equal-parameter case pinned at 1/2)."""

    q: float
    s_star: float
    s_kind: SKind


def fidelity_werner(eta: float, zeta: float) -> float:
    """sqrt((1+eta)(1+zeta))/2 + sqrt((1-eta)(1-zeta))/2, clamped to [0, 1]."""
    return _fidelity(_check_eta(eta), _check_eta(zeta))


def _fidelity(eta: float, zeta: float) -> float:
    f = 0.5 * math.sqrt((1.0 + eta) * (1.0 + zeta)) + 0.5 * math.sqrt(
        (1.0 - eta) * (1.0 - zeta)
    )
    return min(1.0, max(0.0, f))


def one_minus_fidelity_squared(eta: float, zeta: float) -> float:
    """1 - F^2 in a cancellation-free form:

        (eta - zeta)^2 / (2 [1 - eta zeta + sqrt((1-eta^2)(1-zeta^2))]).

    Going through the fidelity directly loses everything below machine
    epsilon once F rounds to 1; this stays accurate for arbitrarily close
    parameters.
    """
    return _one_minus_f2(_check_eta(eta), _check_eta(zeta))


def _one_minus_f2(eta: float, zeta: float) -> float:
    if eta == zeta:
        return 0.0
    gap = eta - zeta
    denom = 1.0 - eta * zeta + math.sqrt((1.0 - eta * eta) * (1.0 - zeta * zeta))
    return gap * gap / (2.0 * denom)


def relative_entropy_werner(eta: float, zeta: float) -> float:
    """Base-2 relative entropy between the size-two eigenvalue distributions:

        (1+eta)/2 log2[(1+eta)/(1+zeta)] + (1-eta)/2 log2[(1-eta)/(1-zeta)].

    Returns ``math.inf`` when zeta = +/-1 and eta differs.  Each logarithm
    is taken of the exact parameter difference (see ``_log_ratio``): the
    rounded ratio carries an absolute error of one ulp, far above the
    O((eta-zeta)^2) result for nearby parameters, and can turn the sum
    negative.  For gaps of a few ulps the two first-order terms still cancel
    below rounding, so the sum is clamped at 0 (Gibbs' inequality).
    """
    return _relative_entropy(_check_eta(eta), _check_eta(zeta))


def _relative_entropy(eta: float, zeta: float) -> float:
    gap = eta - zeta
    total = 0.0
    for num, den, diff in ((1.0 + eta, 1.0 + zeta, gap), (1.0 - eta, 1.0 - zeta, -gap)):
        # 0 log 0 := 0; support mismatch -> inf
        if num <= 0.0:
            continue
        if den <= 0.0:
            return math.inf
        total += 0.5 * num * _log_ratio(diff, num, den)
    return max(total, 0.0) / math.log(2.0)


def delta_s(eta: float, zeta: float) -> float:
    """Antisymmetric entropy difference S(eta||zeta) - S(zeta||eta),

        (1 + (eta+zeta)/2) log2[(1+eta)/(1+zeta)]
      + (1 - (eta+zeta)/2) log2[(1-eta)/(1-zeta)],

    summed per class (a, b) = (1 +/- eta, 1 +/- zeta) as (a+b)(atanh x - x),
    x = (a-b)/(a+b), whose -(a-b) terms cancel exactly between the classes: the
    O(gap^3) difference of nearby parameters keeps its sign and relative accuracy.

    Both parameters must lie strictly inside (-1, 1); at the endpoints one
    of the directed entropies diverges and the difference is undefined.
    """
    eta = _check_eta(eta)
    zeta = _check_eta(zeta)
    if abs(eta) == 1.0 or abs(zeta) == 1.0:
        raise SupportMismatchError(
            "entropy difference is undefined at the rank-deficient extremes"
        )
    gap = eta - zeta
    skews = _entropy_skew(1.0 + eta, 1.0 + zeta, gap) + _entropy_skew(1.0 - eta, 1.0 - zeta, -gap)
    return skews / math.log(2.0)


def _entropy_skew(a: float, b: float, gap: float) -> float:
    # (a+b)/2 ln(a/b) - gap, gap = a - b exactly; below |x| = 0.1 the series of atanh x - x,
    # at and above it the log form, which loses at most three digits there (atanh itself
    # is ill-conditioned as x nears +/-1)
    x = gap / (a + b)
    if abs(x) >= 0.1:
        return 0.5 * (a + b) * math.log(a / b) - gap
    x2 = x * x  # x^3 (1/3 + x^2/5 + ... + x^16/19) in Horner form; the next term is < 1e-18
    series = 1 / 3 + x2 * (1 / 5 + x2 * (1 / 7 + x2 * (1 / 9 + x2 * (1 / 11 + x2 * (
        1 / 13 + x2 * (1 / 15 + x2 * (1 / 17 + x2 / 19)))))))
    return (a + b) * x * x2 * series


def s_quantity(eta: float, zeta: float) -> float:
    """ln(sqrt 2) times the smaller of the two directed relative entropies.

    The branch with the larger |parameter| in the first slot is the smaller
    one, so this is computed piecewise on |eta| >= |zeta|.
    """
    return _s_quantity(_check_eta(eta), _check_eta(zeta))


def _s_quantity(eta: float, zeta: float) -> float:
    if abs(eta) >= abs(zeta):
        return LN_SQRT2 * _relative_entropy(eta, zeta)
    return LN_SQRT2 * _relative_entropy(zeta, eta)


def _log_ratio(gap: float, num: float, den: float) -> float:
    # ln(num/den) where num = den + gap.  log1p of the exact difference
    # keeps full relative accuracy for nearby parameters (the plain ratio
    # loses it); for well-separated ones the direct log is exact enough
    # and avoids the division rounding to -1 near a vanishing numerator.
    x = gap / den
    if abs(x) < 0.5:
        return math.log1p(x)
    return math.log(num / den)


def _power_term(weight: float, num: float, den: float, s: float) -> float:
    # weight * (num/den)^s with the convention that a zero weight kills the
    # term before the ratio is formed (the ratio may be 0/0 there).
    if weight == 0.0:
        return 0.0
    return weight * (num / den) ** s


def werner_qs(eta: float, zeta: float, s: float) -> float:
    """s-overlap of two flip-expectation spectra, for s in [0, 1]:

        Q_s = (1+zeta)/2 * [(1+eta)/(1+zeta)]^s + (1-zeta)/2 * [(1-eta)/(1-zeta)]^s.
    """
    eta = _check_eta(eta)
    zeta = _check_eta(zeta)
    s = _check_in(s, 0, 1, "overlap exponent s")
    return _qs(1.0 + eta, 1.0 - eta, 1.0 + zeta, 1.0 - zeta, 2.0, s)


def qcb_werner(eta: float, zeta: float) -> QcbResult:
    """Minimum s-overlap of two flip-expectation spectra over s in [0, 1].

    Case dispatch (exact comparisons; the interior formula is 0/0 at the
    boundaries of its validity):
      * eta == zeta (within 1e-14): Q_s is identically 1, s pinned at 1/2;
      * eta = +/-1: infimum is the right-continuous limit at s -> 0+;
      * zeta = +/-1: infimum is the left-continuous limit at s -> 1-;
      * otherwise: interior critical point.

    Accuracy degrades gracefully within a few ulp of the singular
    parameter values (the limits above converge only like 1/|log eps|
    there); everywhere else the result is correct to near machine
    precision.
    """
    return QcbResult(*_qcb_werner(_check_eta(eta), _check_eta(zeta)))


def _qcb_werner(eta: float, zeta: float) -> tuple:
    return _qcb(1.0 + eta, 1.0 - eta, 1.0 + zeta, 1.0 - zeta, 2.0, eta - zeta)


def qcb_isotropic(alpha: float, beta: float, d: int) -> QcbResult:
    """Minimum s-overlap of two entangled-expectation spectra over s in [0, 1].

    Same case structure as :func:`qcb_werner`, with the singular parameter
    values at 0 and d instead of -1 and 1.
    """
    d = _check_dim(d)
    alpha = _check_alpha(alpha, d)
    beta = _check_alpha(beta, d)
    return QcbResult(*_qcb(alpha, d - alpha, beta, d - beta, d, alpha - beta))


# Both families are one two-class minimisation over a shared eigenbasis.
# The core below takes the unnormalised class weights (a1, a2) of the first
# state and (b1, b2) of the second, their common total t, and the exact gap
# a1 - b1 (= b2 - a2).  The flip family passes (1+eta, 1-eta, 1+zeta,
# 1-zeta, 2, eta-zeta), the entangled family (alpha, d-alpha, beta, d-beta,
# d, alpha-beta).  Forming the weights from each family's own parameters,
# rather than mapping alpha onto eta = 2 alpha/d - 1 first, keeps d - beta
# exact near the endpoints.


def _qs(a1: float, a2: float, b1: float, b2: float, t: float, s: float) -> float:
    return _power_term(b1 / t, a1, b1, s) + _power_term(b2 / t, a2, b2, s)


def _critical_s(a1: float, a2: float, b1: float, b2: float, gap: float) -> float:
    log_p = _log_ratio(gap, a1, b1)
    log_m = _log_ratio(-gap, a2, b2)
    return math.log(-b2 / b1 * log_m / log_p) / (log_p - log_m)


def _qcb(a1: float, a2: float, b1: float, b2: float, t: float, gap: float) -> tuple:
    # QcbResult's fields (q, s_star, s_kind) as a plain tuple
    if abs(gap) <= DEGENERATE_TOL * t / 2.0:
        return 1.0, 0.5, "degenerate_half"
    if a2 == 0.0:
        return b1 / t, 0.0, "left_limit"
    if a1 == 0.0:
        return b2 / t, 0.0, "left_limit"
    if b2 == 0.0:
        return a1 / t, 1.0, "right_limit"
    if b1 == 0.0:
        return a2 / t, 1.0, "right_limit"
    s = _critical_s(a1, a2, b1, b2, gap)
    return _qs(a1, a2, b1, b2, t, s), s, "interior"


HELSTROM_COPY_CAP = 1000
# Entries of one (zeta, eta, k) block of _helstrom_rows; sizes the working buffers each call
# allocates once and reuses for every block, so it bounds the call's working memory.
_HELSTROM_BLOCK = 1 << 15
# exp is exactly +0.0 below -745.1332 in float64, so class weights logged at or below this
# floor are set to 0 without calling exp: numpy's SIMD exp takes a slow path on every
# vector that holds an underflowing lane, and at n = 1000 up to three quarters do.
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
    # 0 at k = 0, as is (n - k) log 0 at k = n.
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
            # a NaN is not below the floor, so it goes through exp
            floor = np.less_equal(terms, _EXP_FLOOR, out=lead(under, *shape))
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
    p is never negative and stays accurate in relative terms when tiny.  The
    value does not depend on d; eta == zeta gives exactly 1/2, and n beyond
    1000 is rejected.
    """
    eta = _check_eta(eta)
    zeta = _check_eta(zeta)
    d = _check_dim(d)
    n = _check_copies(n)
    return float(_helstrom_rows([eta], [zeta], n)[0, 0])
