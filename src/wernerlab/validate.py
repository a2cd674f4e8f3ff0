"""Parameter validators shared by the closed forms, the oracles and the CLI.

Pure Python: importing this module loads no numpy, so the scalar commands of
the CLI start without it.  A numpy integer counts as an integer, and since one
can only exist once numpy is loaded, numpy is looked up here, never imported.
"""

from __future__ import annotations

import sys

from .errors import DimensionOverflowError, InvalidDimensionError, InvalidParameterError

# the seed of every seeded run (verify, teleport-check, estimate sim) unless one is given
DEFAULT_SEED = 20260808


def _check_double_range(value: int, what: str) -> None:
    # Closed forms turn integers into floats; beyond a double that overflows.
    if value > sys.float_info.max:
        raise DimensionOverflowError(
            f"{what} exceeds the range of a double ({sys.float_info.max:.6g})"
        )


def _is_int(value) -> bool:
    # an int or numpy integer, but not a bool (which Python counts as an int); numpy's
    # bool is no numpy integer, and a 0-d array is neither
    if isinstance(value, int):
        return not isinstance(value, bool)
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.integer)


def _check_dim(d: int) -> int:
    if not _is_int(d) or d < 2:
        raise InvalidDimensionError(f"local dimension must be an integer >= 2, got {d!r}")
    _check_double_range(d, "local dimension")
    return int(d)


def _check_positive_int(value: int, what: str, cap: int | None = None) -> int:
    if not _is_int(value) or value < 1:
        raise InvalidParameterError(f"{what} must be a positive integer, got {value!r}")
    _check_double_range(value, what)
    if cap is not None and value > cap:
        raise DimensionOverflowError(f"{what} {value} exceeds cap {cap}")
    return int(value)


def _check_seed(seed: int) -> int:
    if not _is_int(seed) or seed < 0:
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
