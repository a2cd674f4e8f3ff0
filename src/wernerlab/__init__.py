"""Closed-form metrology and discrimination limits for the flip-expectation
channel family, cross-validated against dense-matrix numerics."""

__version__ = "0.1.0"

from .discrimination import DiscriminationBounds, bounds, curve_grid
from .linalg import (
    EigenDecomposition,
    bures_fidelity_numeric,
    eigh,
    qcb_numeric,
    relative_entropy_numeric,
    tensor_product,
    trace_distance_numeric,
)
from .metrics import (
    QcbResult,
    delta_s,
    fidelity_werner,
    helstrom_multicopy_werner,
    qcb_isotropic,
    qcb_werner,
    relative_entropy_werner,
    s_quantity,
)
from .metrology import (
    EstimationReport,
    qcrb_variance,
    qfi_werner,
    simulate_estimation,
)
from .states import (
    DepolarizingChannel,
    HWChannel,
    choi_matrix,
    flip_operator,
    isotropic_state,
    max_entangled_operator,
    werner_state,
)
from .teleport import covariance_check, teleport_channel, weyl_unitary

__all__ = [
    "__version__",
    "DiscriminationBounds",
    "bounds",
    "curve_grid",
    "EigenDecomposition",
    "bures_fidelity_numeric",
    "eigh",
    "qcb_numeric",
    "relative_entropy_numeric",
    "tensor_product",
    "trace_distance_numeric",
    "QcbResult",
    "delta_s",
    "fidelity_werner",
    "helstrom_multicopy_werner",
    "qcb_isotropic",
    "qcb_werner",
    "relative_entropy_werner",
    "s_quantity",
    "EstimationReport",
    "qcrb_variance",
    "qfi_werner",
    "simulate_estimation",
    "DepolarizingChannel",
    "HWChannel",
    "choi_matrix",
    "flip_operator",
    "isotropic_state",
    "max_entangled_operator",
    "werner_state",
    "covariance_check",
    "teleport_channel",
    "weyl_unitary",
]
