"""Estimation limits for the flip-expectation parameter, plus a Monte-Carlo
experiment that saturates them.

The variance floor for n independent probings is (1 - eta^2)/n, free of the
local dimension.  The simulated strategy measures the symmetric-subspace
projector on each probe output, a two-outcome measurement whose success
probability is (1 + eta)/2; the resulting rescaled-binomial estimator is
unbiased and attains the floor exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .states import _check_eta, _check_positive_int, _check_seed

__all__ = [
    "TRIAL_CAP",
    "EstimationReport",
    "qfi_werner",
    "qcrb_variance",
    "simulate_estimation",
]


# Largest Monte-Carlo trial count; the float64 estimates (80 MB at the cap)
# are allocated before the first draw.
TRIAL_CAP = 10_000_000

# Trials drawn per binomial call, so the draw's temporaries are a few 32 kB
# arrays; blocks of 2**16 raised the peak RSS at the cap by about 1 MB.
_DRAW_BLOCK = 1 << 12


def qfi_werner(eta: float, n: int = 1) -> float:
    """Fisher information n / (1 - eta^2) for n probings; additive in n.

    Returns ``math.inf`` at eta = +/-1 (the parameter becomes noiseless
    there) rather than raising.
    """
    eta = _check_eta(eta)
    n = _check_positive_int(n, "probe count")
    if abs(eta) == 1.0:
        return math.inf
    # per-copy value first, so additivity in n holds exactly in floats
    return n * (1.0 / (1.0 - eta * eta))


def qcrb_variance(eta: float, n: int = 1) -> float:
    """Variance floor (1 - eta^2)/n, the inverse Fisher information."""
    eta = _check_eta(eta)
    n = _check_positive_int(n, "probe count")
    return (1.0 - eta * eta) / n


@dataclass(frozen=True)
class EstimationReport:
    """Outcome of a Monte-Carlo estimation run against the variance floor."""

    eta_true: float
    n: int
    qfi: float
    qcrb_variance: float
    trials: int
    empirical_mean: float
    empirical_variance: float
    seed: int


def simulate_estimation(eta: float, n: int, trials: int, seed: int) -> EstimationReport:
    """Monte-Carlo estimation of eta from n symmetric-projector measurements.

    Each trial draws the number of symmetric outcomes k ~ Binomial(n, p)
    with p = (1 + eta)/2 and forms the unbiased estimator 2k/n - 1.  The
    report aggregates the mean and sample variance across trials.

    Randomness comes from one generator, ``np.random.default_rng(seed)``:
    trial i is the i-th binomial draw of its stream, so the estimates equal
    ``2.0 * default_rng(seed).binomial(n, p, size=trials) / n - 1.0``.  They
    are drawn in blocks of ``_DRAW_BLOCK`` trials, which gives the same
    values as one draw (the sampler reads the stream in order) without a
    full-length integer array.  The seed must be a non-negative integer,
    ``trials`` at most ``TRIAL_CAP`` and ``n`` at most 2**63 - 1.
    """
    eta = _check_eta(eta)
    if abs(eta) == 1.0:
        raise InvalidParameterError("simulation requires |eta| < 1")
    n = _check_positive_int(n, "probe count", np.iinfo(np.int64).max)  # binomial takes a C long
    trials = _check_positive_int(trials, "trial count", TRIAL_CAP)
    seed = _check_seed(seed)

    p = (1.0 + eta) / 2.0
    estimates = np.empty(trials)
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _DRAW_BLOCK):
        k = rng.binomial(n, p, size=min(_DRAW_BLOCK, trials - start))
        estimates[start : start + len(k)] = 2.0 * k / n - 1.0

    mean = float(estimates.mean())
    variance = float(estimates.var(ddof=1)) if trials > 1 else 0.0
    return EstimationReport(
        eta_true=eta,
        n=n,
        qfi=qfi_werner(eta, n),
        qcrb_variance=qcrb_variance(eta, n),
        trials=trials,
        empirical_mean=mean,
        empirical_variance=variance,
        seed=seed,
    )
