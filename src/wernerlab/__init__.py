"""Closed-form metrology and discrimination limits for the flip-expectation
channel family, cross-validated against dense-matrix numerics.

Each public name is imported from its module on first access (PEP 562), so
``import wernerlab`` loads no module, and no numpy, until a name is used.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names the package resolves from it
_EXPORTS = {
    "discrimination": ("DiscriminationBounds", "bounds", "curve_grid", "helstrom_multicopy_werner"),
    "linalg": (
        "EigenDecomposition",
        "bures_fidelity_numeric",
        "eigh",
        "qcb_numeric",
        "relative_entropy_numeric",
        "tensor_product",
        "trace_distance_numeric",
    ),
    "metrics": (
        "QcbResult",
        "delta_s",
        "fidelity_werner",
        "qcb_isotropic",
        "qcb_werner",
        "relative_entropy_werner",
        "s_quantity",
    ),
    "metrology": ("EstimationReport", "qcrb_variance", "qfi_werner", "simulate_estimation"),
    "states": (
        "DepolarizingChannel",
        "HWChannel",
        "choi_matrix",
        "flip_operator",
        "isotropic_state",
        "max_entangled_operator",
        "werner_state",
    ),
    "teleport": ("covariance_check", "teleport_channel", "weyl_unitary"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value
