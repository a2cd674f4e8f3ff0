"""Two-qudit exchange-symmetric states and the matching channels.

Basis convention: the computational product basis is ordered |ij> = i*d + j
throughout the package.  The flip and maximally entangled operators, the
partial transpose, and the teleportation simulator all rely on it.  The
flip and maximally entangled operators and the Werner and isotropic states
are real (float64) arrays.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidDimensionError,
    InvalidParameterError,
)
from .linalg import TENSOR_DIM_CAP

__all__ = [
    "flip_operator",
    "max_entangled_ket",
    "max_entangled_operator",
    "werner_state",
    "isotropic_state",
    "HWChannel",
    "DepolarizingChannel",
    "choi_matrix",
]


def _check_double_range(value: int, what: str) -> None:
    # Closed forms turn integers into floats; beyond a double that overflows.
    if value > sys.float_info.max:
        raise DimensionOverflowError(
            f"{what} exceeds the range of a double ({sys.float_info.max:.6g})"
        )


def _check_dim(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise InvalidDimensionError(f"local dimension must be an integer >= 2, got {d!r}")
    _check_double_range(d, "local dimension")
    return int(d)


def _check_pair_dim(d: int) -> int:
    # Two-qudit operators are d^2 x d^2: reject oversized ones before building.
    d = _check_dim(d)
    if d * d > TENSOR_DIM_CAP:
        raise DimensionOverflowError(f"two-qudit dimension {d * d} exceeds cap {TENSOR_DIM_CAP}")
    return d


def _check_positive_int(value: int, what: str, cap: int | None = None) -> int:
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidParameterError(f"{what} must be a positive integer, got {value!r}")
    _check_double_range(value, what)
    if cap is not None and value > cap:
        raise DimensionOverflowError(f"{what} {value} exceeds cap {cap}")
    return int(value)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _check_in(value, lo: int, hi: int, what: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(f"{what} must be a number, got {value!r}") from None
    if not lo <= value <= hi:
        raise InvalidParameterError(f"{what} must lie in [{lo}, {hi}], got {value}")
    return value


def _check_eta(eta: float) -> float:
    return _check_in(eta, -1, 1, "flip expectation")


def _check_alpha(alpha: float, d: int) -> float:
    return _check_in(alpha, 0, d, "entangled-operator expectation")


def _permuted_identity(d: int, axes: tuple[int, ...]) -> np.ndarray:
    # the two-qudit identity sum |ij><ij| as a (d, d, d, d) table over (i, j, k, l) of
    # |ij><kl|, its axes permuted: an exact 0/1 matrix
    return np.eye(d * d).reshape(d, d, d, d).transpose(axes).reshape(d * d, d * d)


def flip_operator(d: int) -> np.ndarray:
    """Flip (swap) operator F = sum_ij |ij><ji| on two qudits."""
    return _permuted_identity(_check_pair_dim(d), (0, 1, 3, 2))


def max_entangled_ket(d: int) -> np.ndarray:
    """Normalised maximally entangled vector d^(-1/2) sum_i |ii>."""
    d = _check_dim(d)
    phi = np.zeros(d * d)
    phi[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return phi


def max_entangled_operator(d: int) -> np.ndarray:
    """Unnormalised projector M = sum_ij |ii><jj| (= d |Phi><Phi|), exactly 0/1."""
    return _permuted_identity(_check_pair_dim(d), (0, 2, 1, 3))


def werner_state(eta: float, d: int) -> np.ndarray:
    """Two-qudit state with flip expectation eta, invariant under U (x) U.

    W = [(d - eta) I + (d eta - 1) F] / (d^3 - d).
    """
    eta = _check_eta(eta)
    d = _check_pair_dim(d)
    # times 1 / (d^3 - d), not divided by it: numpy divides a complex array by a real
    # number so, and the entries equal those of the formula in complex arithmetic
    return ((d - eta) * np.eye(d * d) + (d * eta - 1.0) * flip_operator(d)) * (1.0 / (d**3 - d))


def isotropic_state(alpha: float, d: int) -> np.ndarray:
    """Two-qudit state with entangled-operator expectation alpha.

    Omega = [(d - alpha) I + (d alpha - 1) M] / (d^3 - d).
    """
    d = _check_pair_dim(d)
    alpha = _check_alpha(alpha, d)
    m = max_entangled_operator(d)
    return ((d - alpha) * np.eye(d * d) + (d * alpha - 1.0) * m) * (1.0 / (d**3 - d))


def _check_input_dim(x: np.ndarray, d: int) -> np.ndarray:
    # d x d inputs, with any leading stack axes
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (d, d):
        raise DimensionMismatchError(
            f"channel acts on {d} x {d} inputs, got shape {x.shape}"
        )
    return x


def _trace_identity(x: np.ndarray, weight: float) -> np.ndarray:
    # weight Tr(X) I per matrix of a stack
    trace = np.trace(x, axis1=-2, axis2=-1)[..., None, None]
    return weight * trace * np.eye(x.shape[-1], dtype=complex)


@dataclass(frozen=True)
class HWChannel:
    """Transpose-depolarizing channel with flip expectation eta.

    apply() is the linear extension
        X -> [(d - eta) Tr(X) I + (d eta - 1) X^T] / (d^2 - 1),
    which reduces to the usual channel action on unit-trace input; it maps
    each matrix of a stack along leading axes.
    """

    eta: float
    d: int

    def __post_init__(self):
        _check_eta(self.eta)
        _check_dim(self.d)

    def apply(self, x) -> np.ndarray:
        x = _check_input_dim(x, self.d)
        d, eta = self.d, self.eta
        return (_trace_identity(x, d - eta) + (d * eta - 1.0) * np.swapaxes(x, -1, -2)) / (
            d * d - 1.0
        )


@dataclass(frozen=True)
class DepolarizingChannel:
    """Depolarizing channel with entangled-operator expectation alpha.

    apply() is the linear extension
        X -> [(d - alpha) Tr(X) I + (d alpha - 1) X] / (d^2 - 1),
    per matrix of a stack along leading axes.
    """

    alpha: float
    d: int

    def __post_init__(self):
        _check_dim(self.d)
        _check_alpha(self.alpha, self.d)

    def apply(self, x) -> np.ndarray:
        x = _check_input_dim(x, self.d)
        d, alpha = self.d, self.alpha
        return (_trace_identity(x, d - alpha) + (d * alpha - 1.0) * x) / (d * d - 1.0)


def choi_matrix(channel) -> np.ndarray:
    """State obtained by sending the second half of |Phi><Phi| through a channel.

    ``channel`` needs a local dimension attribute ``d`` and a linear
    ``apply(X)`` accepting stacks of arbitrary d x d matrices along leading
    axes: it is applied once, to the d^2 matrix units |i><j|.
    """
    d = _check_pair_dim(channel.d)
    out = channel.apply(np.eye(d * d, dtype=complex).reshape(d, d, d, d))  # out[i, j] = E(|i><j|)
    return out.transpose(0, 2, 1, 3).reshape(d * d, d * d) / d
