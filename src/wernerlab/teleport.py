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

import numpy as np

from .errors import DimensionMismatchError, DimensionOverflowError, NotUnitaryError
from .linalg import TENSOR_DIM_CAP, _blocks, _dagger, _first, trace_distance_numeric
from .states import HWChannel, _check_dim

__all__ = [
    "weyl_unitary",
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


def _check_teleport_dim(d: int) -> int:
    # nothing of size d^3 is built: the cap bounds the d^6 work per call
    if d**3 > TENSOR_DIM_CAP:
        raise DimensionOverflowError(f"teleportation dimension {d**3} exceeds cap {TENSOR_DIM_CAP}")
    return d


def teleport_channel(resource, rho, *, conjugate_corrections: bool = True) -> np.ndarray:
    """Output state summed over all d^2 measurement branches.

    ``resource`` is a state on two qudits (d^2 x d^2), ``rho`` the input
    on one qudit (d x d), or a stack of inputs along leading axes.
    Projecting the input and the first resource half onto |Phi_ab> leaves
    the second half in the unnormalised state Tr_1[(M (x) I) resource] with
    M = U_ab^dag rho U_ab / d; each branch is corrected and the branches are
    summed.  The d^2 unitaries are built once per call.  Nothing is sampled.
    """
    resource = np.asarray(resource, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[-1]
    if rho.shape[-2:] != (d, d) or resource.shape != (d * d, d * d):
        raise DimensionMismatchError(
            f"input {rho.shape} and resource {resource.shape} are incompatible"
        )
    _check_teleport_dim(d)
    # (B, C | B', C') as (B B') x (C C'), B measured: a block's branches are Ms as rows times r
    r = resource.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    us = np.array([weyl_unitary(a, b, d) for a in range(d) for b in range(d)])
    fix = us.conj() if conjugate_corrections else us
    out = rho.reshape(-1, d, d).copy()
    for at in _blocks(len(out), d, tables=d * d):
        m = _dagger(us) @ out[at, None] @ us / d  # (inputs, branches, d, d)
        out[at] = (fix @ (m.reshape(-1, d * d) @ r).reshape(m.shape) @ _dagger(fix)).sum(axis=1)
    return out.reshape(rho.shape)


def covariance_check(channel: HWChannel, unitary, rho) -> float | list[float]:
    """Trace-distance defect of the conjugation covariance

        E(U rho U^dag)  vs  U* E(rho) (U*)^dag.

    Zero (up to round-off) for every unitary when E is a
    transpose-depolarizing channel.  Stacks of unitaries and inputs along
    leading axes give one defect per member, as a list; every unitary is
    validated, and the error names the first non-unitary member.
    """
    u = np.asarray(unitary, dtype=complex)
    d = channel.d
    if u.shape[-2:] != (d, d):
        raise DimensionMismatchError(f"unitary must be {d} x {d}, got {u.shape}")
    bad = np.abs(_dagger(u) @ u - np.eye(d)).max(axis=(-2, -1)) > UNITARY_TOL
    if np.any(bad):
        raise NotUnitaryError(
            f"matrix{list(_first(bad)) or ''} is not unitary within {UNITARY_TOL:g}"
        )
    rho = np.asarray(rho, dtype=complex)
    u_star = u.conj()
    return trace_distance_numeric(
        channel.apply(u @ rho @ _dagger(u)), u_star @ channel.apply(rho) @ _dagger(u_star)
    )
