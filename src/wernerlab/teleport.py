"""Qudit teleportation over a two-qudit resource state.

The protocol measures the input together with the first half of the
resource in the generalized Bell basis |Phi_ab> = (U_ab (x) I)|Phi>, where
U_ab = X^a Z^b are the shift/phase unitaries, then applies an outcome
conditioned correction to the second half.

Correction convention: the default correction is the complex conjugate
U_ab* of the measured label.  Under this choice, teleporting over the
state whose flip expectation is eta reproduces the transpose-depolarizing
channel of the same eta exactly, for every dimension.  The non-conjugated
corrections U_ab (``conjugate_corrections=False``) instead reproduce
textbook teleportation (identity channel over |Phi><Phi|) and the
depolarizing channel over an entangled-expectation resource.  For d = 2
the two families coincide because the qubit shift/phase unitaries are
real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotUnitaryError
from .linalg import tensor_product, trace_distance_numeric
from .states import HWChannel, _check_dim

__all__ = [
    "TeleportationOutcome",
    "weyl_unitary",
    "bell_basis",
    "teleport_outcomes",
    "teleport_channel",
    "covariance_check",
]

UNITARY_TOL = 1e-10


def weyl_unitary(a: int, b: int, d: int) -> np.ndarray:
    """Shift/phase unitary X^a Z^b with X|j> = |j+1 mod d>, Z|j> = w^j |j>."""
    d = _check_dim(d)
    a, b = int(a) % d, int(b) % d
    omega = np.exp(2j * np.pi / d)
    u = np.zeros((d, d), dtype=complex)
    for j in range(d):
        u[(j + a) % d, j] = omega ** (b * j)
    return u


def bell_basis(d: int) -> np.ndarray:
    """Orthonormal maximally entangled basis, one column per label (a, b).

    Column a*d + b holds (U_ab (x) I)|Phi>.
    """
    d = _check_dim(d)
    basis = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            basis[:, a * d + b] = weyl_unitary(a, b, d).reshape(-1) / np.sqrt(d)
    return basis


@dataclass(frozen=True)
class TeleportationOutcome:
    """One Bell-measurement branch: label, its probability, and the
    normalised corrected output state."""

    label: tuple[int, int]
    probability: float
    post_state: np.ndarray


def teleport_outcomes(
    resource, rho, *, conjugate_corrections: bool = True
) -> list[TeleportationOutcome]:
    """All d^2 measurement branches of the teleportation protocol.

    ``resource`` is a state on two qudits (d^2 x d^2), ``rho`` the input
    on one qudit (d x d).  Measurement branches are explicit projector
    sandwiches followed by a partial trace; nothing is sampled.
    """
    resource = np.asarray(resource, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if rho.shape != (d, d) or resource.shape != (d * d, d * d):
        raise DimensionMismatchError(
            f"input {rho.shape} and resource {resource.shape} are incompatible"
        )
    # axes: (A, B, C | A', B', C') with A the input and (B, C) the resource
    joint = tensor_product(rho, resource).reshape(d, d, d, d, d, d)
    outcomes = []
    for a in range(d):
        for b in range(d):
            u = weyl_unitary(a, b, d)
            v = u / np.sqrt(d)  # Bell vector reshaped to (A, B)
            branch = np.einsum("ij,ijcklx,kl->cx", v.conj(), joint, v)
            correction = u.conj() if conjugate_corrections else u
            corrected = correction @ branch @ correction.conj().T
            p = float(np.trace(corrected).real)
            post = corrected / p if p > 1e-15 else np.eye(d, dtype=complex) / d
            outcomes.append(
                TeleportationOutcome(label=(a, b), probability=p, post_state=post)
            )
    return outcomes


def teleport_channel(resource, rho, *, conjugate_corrections: bool = True) -> np.ndarray:
    """Probability-weighted average output over all measurement branches."""
    outcomes = teleport_outcomes(
        resource, rho, conjugate_corrections=conjugate_corrections
    )
    return sum(o.probability * o.post_state for o in outcomes)


def covariance_check(channel: HWChannel, unitary, rho) -> float:
    """Trace-distance defect of the conjugation covariance

        E(U rho U^dag)  vs  U* E(rho) (U*)^dag.

    Zero (up to round-off) for every unitary when E is a
    transpose-depolarizing channel.
    """
    u = np.asarray(unitary, dtype=complex)
    d = channel.d
    if u.shape != (d, d):
        raise DimensionMismatchError(f"unitary must be {d} x {d}, got {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(d)).max() > UNITARY_TOL:
        raise NotUnitaryError(f"matrix is not unitary within {UNITARY_TOL:g}")
    rho = np.asarray(rho, dtype=complex)
    lhs = channel.apply(u @ rho @ u.conj().T)
    rhs = u.conj() @ channel.apply(rho) @ u.T
    return trace_distance_numeric(lhs, rhs)
