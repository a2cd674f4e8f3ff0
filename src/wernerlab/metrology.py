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

from .errors import DimensionOverflowError, InvalidParameterError
from .metrics import fidelity_werner
from .states import _check_eta, _check_positive_int, _check_seed

__all__ = [
    "TRIAL_CAP",
    "EstimationReport",
    "qfi_werner",
    "qcrb_variance",
    "qfi_finite_difference",
    "simulate_estimation",
]


# Largest Monte-Carlo trial count; it also keeps every trial index to one
# uint32 word of the seed entropy.
TRIAL_CAP = 10_000_000

# Trials seeded per batch, which bounds the seeder's working memory.
_SEED_BLOCK = 512

# numpy's SeedSequence constants (pool of four uint32 words), documented as
# stable across numpy versions, and the PCG64 multiplier.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def qfi_finite_difference(eta: float, delta: float) -> float:
    """Single-probe Fisher information from the fidelity drop at offset delta:

        8 [1 - F(eta, eta + delta)] / delta^2.

    Converges to 1/(1 - eta^2) with O(delta) relative error.
    """
    eta = _check_eta(eta)
    delta = float(delta)
    if delta <= 0.0:
        raise InvalidParameterError(f"probe offset must be positive, got {delta}")
    if abs(eta) == 1.0 or abs(eta + delta) > 1.0:
        raise InvalidParameterError(
            f"eta and eta + delta must stay inside [-1, 1], got {eta} and {eta + delta}"
        )
    return 8.0 * (1.0 - fidelity_werner(eta, eta + delta)) / (delta * delta)


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 arrays; each call advances the constant."""

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _uint32_words(value: int) -> list[int]:
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _substream_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Row i - start is SeedSequence((seed, i)).generate_state(4, np.uint64),
    for start <= i < stop <= 2**32, computed for all i at once.

    The entropy is the little-endian uint32 words of seed, then the one word
    of i; an entropy longer than the pool (seed >= 2**96) is mixed in by
    SeedSequence's extra loop.
    """
    index = np.arange(start, stop, dtype=np.uint32)
    entropy = [np.full_like(index, word) for word in _uint32_words(seed)] + [index]
    entropy += [np.zeros_like(index)] * (_POOL_SIZE - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    hash_state = _hasher(_INIT_B, _MULT_B)
    halves = [hash_state(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    return np.stack(
        [halves[2 * k] | (halves[2 * k + 1] << np.uint64(32)) for k in range(4)], axis=1
    )


def _pcg64_state(words: list[int]) -> dict:
    """The ``state`` of PCG64 seeded with four SeedSequence uint64 words,
    given as Python ints: inc = (initseq << 1) | 1, then step, add
    initstate, step."""
    initstate = (words[0] << 64) | words[1]
    inc = (((words[2] << 64) | words[3]) << 1 | 1) & _MASK128
    state = ((inc + initstate) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


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

    Randomness comes from numpy's PCG64 generator; trial i uses the
    substream seeded by SeedSequence((seed, i)), so results are
    reproducible and independent of evaluation order.  The substream states
    are computed in batch (``_substream_words``, ``_pcg64_state``) and loaded
    into one reused generator, drawing exactly what
    ``default_rng(SeedSequence((seed, i))).binomial(n, p)`` draws.  The seed
    must be a non-negative integer, ``trials`` at most ``TRIAL_CAP`` and
    ``n`` at most 2**63 - 1.
    """
    eta = _check_eta(eta)
    if abs(eta) == 1.0:
        raise InvalidParameterError("simulation requires |eta| < 1")
    n = _check_positive_int(n, "probe count")
    trials = _check_positive_int(trials, "trial count")
    if trials > TRIAL_CAP:
        raise DimensionOverflowError(f"trial count {trials} exceeds cap {TRIAL_CAP}")
    if n > np.iinfo(np.int64).max:  # numpy's binomial takes a C long
        raise DimensionOverflowError(f"probe count {n} exceeds cap {np.iinfo(np.int64).max}")
    seed = _check_seed(seed)

    p = (1.0 + eta) / 2.0
    estimates = np.empty(trials)
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    for start in range(0, trials, _SEED_BLOCK):
        stop = min(start + _SEED_BLOCK, trials)
        for i, words in enumerate(_substream_words(seed, start, stop).tolist(), start):
            bit_generator.state = _pcg64_state(words)
            k = rng.binomial(n, p)
            estimates[i] = 2.0 * k / n - 1.0

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
