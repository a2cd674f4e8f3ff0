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

from collections.abc import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidParameterError,
    NotUnitaryError,
)
from .linalg import TENSOR_DIM_CAP, _blocks, _dagger, _first, trace_distance_numeric
from .states import HWChannel
from .validate import _check_dim, _is_int

__all__ = [
    "weyl_unitary",
    "teleport_channel",
    "covariance_check",
]

UNITARY_TOL = 1e-10


def weyl_unitary(a: int, b: int, d: int) -> np.ndarray:
    """Shift/phase unitary X^a Z^b with X|j> = |j+1 mod d>, Z|j> = w^j |j>.

    The labels a and b are integers (numpy integers too), taken mod d."""
    d = _check_dim(d)
    for label in (a, b):
        if not _is_int(label):
            raise InvalidParameterError(f"Weyl label must be an integer, got {label!r}")
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
    """Output state summed over all d^2 measurement branches, per resource.

    ``resource`` is a state on two qudits (d^2 x d^2), or a stack of them
    along leading axes, ``rho`` the input on one qudit (d x d), or a stack of
    inputs along leading axes; the output has the resource stack's leading
    axes, then the input's shape.  Projecting the input and the first
    resource half onto |Phi_ab> leaves the second half in the unnormalised
    state Tr_1[(M (x) I) resource] with M = U_ab^dag rho U_ab / d; each branch
    is corrected and the branches are summed.  The d^2 unitaries and every
    M are built once per call, whatever the number of resources, and each
    resource's output equals its one-resource call bit for bit.  Nothing is
    sampled.
    """
    resource = np.asarray(resource, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[-1]
    if rho.shape[-2:] != (d, d) or resource.ndim < 2 or resource.shape[-2:] != (d * d, d * d):
        raise DimensionMismatchError(
            f"input {rho.shape} and resource {resource.shape} are incompatible"
        )
    _check_teleport_dim(d)
    # (B, C | B', C') as (B B') x (C C'), B measured: a block's branches are Ms as rows times r
    rs = resource.reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(-1, d * d, d * d)
    us = np.array([weyl_unitary(a, b, d) for a in range(d) for b in range(d)])
    fix = us.conj() if conjugate_corrections else us
    inputs = rho.reshape(-1, d, d)
    out = np.empty((len(rs), *inputs.shape), dtype=complex)
    for at in _blocks(len(inputs), d, tables=d * d):
        m = _dagger(us) @ inputs[at, None] @ us / d  # (inputs, branches, d, d)
        rows = m.reshape(-1, d * d)
        for r, kept in zip(rs, out):
            kept[at] = (fix @ (rows @ r).reshape(m.shape) @ _dagger(fix)).sum(axis=1)
    return out.reshape(resource.shape[:-2] + rho.shape)


def covariance_check(channels: Sequence[HWChannel], unitary, rho) -> list[list[float]]:
    """Trace-distance defects of the conjugation covariance, one list per channel E

        E(U rho U^dag)  vs  U* E(rho) (U*)^dag,

    zero (up to round-off) for every unitary when E is a transpose-depolarizing
    channel.  ``channels`` is a sequence of HWChannels of one d.  Stacks of
    unitaries and inputs along leading axes broadcast against each other, and
    each list holds one defect per member, in C order (one unitary and one
    input give one defect); inputs that are not d x d, or stacks that do not
    broadcast, are rejected naming both shapes.  U rho U^dag, U* and the
    unitarity check are formed once and all the defects come from one
    trace-distance stack, so each list equals its one-channel call bit for bit.
    Every unitary is validated, and the error names the first non-unitary
    member.
    """
    dims = sorted({c.d for c in channels})
    if len(dims) != 1:
        raise DimensionMismatchError(f"channels of dimensions {dims} need one dimension")
    [d] = dims
    u, rho = np.asarray(unitary, dtype=complex), np.asarray(rho, dtype=complex)
    if u.shape[-2:] != (d, d):
        raise DimensionMismatchError(f"unitary must be {d} x {d}, got {u.shape}")
    try:
        np.broadcast_shapes(u.shape, rho.shape)
        fits = rho.shape[-2:] == (d, d)
    except ValueError:
        fits = False
    if not fits:
        raise DimensionMismatchError(
            f"input {rho.shape} and unitary {u.shape} are incompatible: the inputs must be "
            f"{d} x {d} and their stack must broadcast with the unitaries'"
        )
    bad = np.abs(_dagger(u) @ u - np.eye(d)).max(axis=(-2, -1)) > UNITARY_TOL
    if np.any(bad):
        raise NotUnitaryError(
            f"matrix{list(_first(bad)) or ''} is not unitary within {UNITARY_TOL:g}"
        )
    u, rho = (x.reshape(-1, d, d) for x in np.broadcast_arrays(u, rho))
    u_star = u.conj()
    moved = u @ rho @ _dagger(u)
    return trace_distance_numeric(
        np.stack([c.apply(moved) for c in channels]),
        np.stack([u_star @ c.apply(rho) @ _dagger(u_star) for c in channels]),
    )
