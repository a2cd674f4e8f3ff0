"""Dense Hermitian matrix numerics and matrix-level reference metrics.

Everything here works on explicit ``numpy`` arrays.  The matrix-level
metrics (fidelity, trace distance, relative entropy, Chernoff overlap)
are deliberately computed straight from eigendecompositions so that the
closed-form formulas elsewhere in the package can be validated against
an independent route.  They also take stacks of matrices along leading axes,
two stacks matched member against member, one float per member then coming
back as a list (the Chernoff search returns arrays); ``_blocks`` bounds a stack.
Real input stays real, so real symmetric states run in real arithmetic; a
stack's dtype picks its one LAPACK driver.
The fidelity and trace distance take eigenvalues alone (``eigvalsh``); the
Chernoff search is a bracketed Newton iteration on the overlap curve's slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    NonHermitianError,
    NotDensityMatrixError,
)

HERMITIAN_TOL = 1e-12
PSD_FLOOR = -1e-10
SUPPORT_TOL = 1e-12
ZERO_SNAP = 1e-13
TENSOR_DIM_CAP = 4096

# Matrix entries (members x dim^2) of one stack handed to the kernels below,
# so that a sweep's memory does not grow with its pair count.
_STACK_ENTRIES = 2**16


def _blocks(n: int, dim: int, tables: int = 1) -> list[slice]:
    # consecutive slices of n members of ``tables`` dim x dim matrices each, within the bound
    step = max(1, _STACK_ENTRIES // (tables * dim * dim))
    return [slice(j, j + step) for j in range(0, n, step)]


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition A = V diag(w) V† with ascending eigenvalues, per stack member."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __getitem__(self, at) -> "EigenDecomposition":
        return EigenDecomposition(self.eigenvalues[at], self.eigenvectors[at])


def _as_square(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    # real input stays real (float64), anything complex becomes complex128
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    return a


def _dagger(a: np.ndarray) -> np.ndarray:
    # conjugate transpose of each matrix of a stack (``.T`` reverses every axis)
    return np.swapaxes(a.conj(), -1, -2)


def _first(bad: np.ndarray) -> tuple[int, ...]:
    # index of the first stack member where ``bad`` holds, () for one matrix
    return tuple(int(k) for k in np.unravel_index(np.argmax(bad), np.shape(bad)))


def hermiticity_defect(a: np.ndarray):
    """Largest entrywise deviation of ``a`` from its conjugate transpose, per matrix of a stack."""
    return np.abs(a - _dagger(a)).max(axis=(-2, -1))


def _hermitian_spectrum(a, vectors: bool) -> tuple[np.ndarray, ...]:
    # eigh's checks and its one LAPACK call, with eigenvectors or (vectors=False) without
    a = _as_square(a, stack=True)
    defect = hermiticity_defect(a)
    if np.any(defect > HERMITIAN_TOL):
        i = _first(defect > HERMITIAN_TOL)
        raise NonHermitianError(
            f"matrix{list(i) or ''} is not Hermitian within {HERMITIAN_TOL:g} "
            f"(defect {defect[i]:.3e})"
        )
    h = (a + _dagger(a)) / 2.0
    return np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h),)


def eigh(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of a stack in one LAPACK call.

    Raises NonHermitianError, naming the first offending stack member, if
    any deviates from Hermiticity by more than ``HERMITIAN_TOL``.  Output is
    deterministic for identical input (LAPACK on the symmetrised matrix),
    eigenvalues ascending.  The dtype picks the driver: a real (float64)
    input goes to the real symmetric one and has real eigenvectors, a
    complex input to the complex Hermitian one, even where its imaginary
    parts are all zero.  A stack member's output equals its own call at the
    stack's dtype.
    """
    return EigenDecomposition(*_hermitian_spectrum(a, vectors=True))


def eigvalsh(a) -> np.ndarray:
    """Ascending eigenvalues alone (``np.linalg.eigvalsh``), with ``eigh``'s checks and driver."""
    return _hermitian_spectrum(a, vectors=False)[0]


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the subsystem-major index convention.

    (a ⊗ b)[i*db + k, j*db + l] = a[i, j] * b[k, l].
    """
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    dim = a.shape[0] * b.shape[0]
    if dim > TENSOR_DIM_CAP:
        raise DimensionOverflowError(
            f"tensor product dimension {dim} exceeds cap {TENSOR_DIM_CAP}"
        )
    return np.kron(a, b)


def partial_transpose(a, d: int) -> np.ndarray:
    """Transpose the second factor of an operator on a d x d bipartite space."""
    a = _as_square(a)
    if a.shape[0] != d * d:
        raise DimensionMismatchError(
            f"expected a {d * d} x {d * d} matrix for local dimension {d}, "
            f"got {a.shape[0]} x {a.shape[0]}"
        )
    return (
        a.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d).copy()
    )


def clamped_spectrum(rho, name: str = "rho") -> EigenDecomposition:
    """Eigendecomposition of a state with round-off zeros snapped to 0.0.

    This is the validate-and-decompose half of the matrix-level fidelity,
    relative entropy and Chernoff overlap below; their spectra-level
    ``*_kernel`` functions take its output, so a sweep can decompose each
    state once and reuse it for every pair; errors name the first failing member.
    """
    dec = eigh(rho)
    return EigenDecomposition(_clamp(dec.eigenvalues, name), dec.eigenvectors)


def _clamp(w: np.ndarray, name: str) -> np.ndarray:
    # Round-off near rank-deficient states gives tiny eigenvalues of either sign
    # where the true value is 0.  Those below ZERO_SNAP become exact zeros before
    # powers or logs are taken (a +1e-17 one would add ~3e-9 under a square
    # root); negatives beyond PSD_FLOOR are rejected.
    low = w.min(-1)
    if np.any(low < PSD_FLOOR):
        i = _first(low < PSD_FLOOR)
        raise NotDensityMatrixError(
            f"{name}{list(i) or ''}: minimum eigenvalue {low[i]:.3e} below {PSD_FLOOR:g}"
        )
    return np.where(w < ZERO_SNAP, 0.0, w)


def _square_pair(rho, sigma, stack: bool = False) -> tuple[np.ndarray, np.ndarray]:
    rho = _as_square(rho, "rho", stack)
    sigma = _as_square(sigma, "sigma", stack)
    if rho.shape[-1] != sigma.shape[-1]:
        raise DimensionMismatchError(
            f"operands have different shapes {rho.shape} and {sigma.shape}"
        )
    return rho, sigma


def spectral_sqrt(dec: EigenDecomposition) -> np.ndarray:
    """Matrix square root V diag(sqrt(w)) V† of a clamped decomposition."""
    v = dec.eigenvectors
    return (v * np.sqrt(dec.eigenvalues)[..., None, :]) @ _dagger(v)


def bures_fidelity_kernel(rho: np.ndarray, sqrt_sigma: np.ndarray) -> float | list[float]:
    """Tr sqrt(sqrt_sigma rho sqrt_sigma), given sqrt(sigma) from ``spectral_sqrt``."""
    w = _clamp(eigvalsh(sqrt_sigma @ rho @ sqrt_sigma), "sqrt(sigma) rho sqrt(sigma)")
    return np.sqrt(w).sum(-1).tolist()


def bures_fidelity_numeric(rho, sigma) -> float:
    """F(rho, sigma) = Tr sqrt(sqrt(sigma) rho sqrt(sigma)), from matrices."""
    rho, sigma = _square_pair(rho, sigma)
    return bures_fidelity_kernel(rho, spectral_sqrt(clamped_spectrum(sigma, "sigma")))


def trace_distance_numeric(rho, sigma) -> float | list[float]:
    """D(rho, sigma) = half the sum of |eigenvalues| of rho - sigma."""
    rho, sigma = _square_pair(rho, sigma, stack=True)
    w = eigvalsh(rho - sigma)
    return (0.5 * np.abs(w).sum(-1)).tolist()


def _overlap(dr: EigenDecomposition, ds: EigenDecomposition) -> np.ndarray:
    # |<r_i|s_j>|^2 between the eigenvectors of rho and of sigma; one below dim eps^2
    # is round-off between orthogonal eigenvectors, and is set to exactly 0
    o = np.abs(_dagger(dr.eigenvectors) @ ds.eigenvectors) ** 2
    o *= o >= o.shape[-1] * np.finfo(float).eps ** 2
    return o


def _relative_entropy(p, q, overlap) -> np.ndarray:
    # the kernel from the spectra p of rho and q of sigma and overlap[..., j, i] =
    # |<s_j|r_i>|^2; sums over the live eigenvalues by where=: zero-filling would move
    # the sums' last bits
    p_live, q_live = p > SUPPORT_TOL, q > SUPPORT_TOL
    plogp = np.sum(p * np.log2(np.where(p_live, p, 1.0)), axis=-1, where=p_live)

    # weight of rho on each eigenvector of sigma
    weights = (overlap @ p[..., None])[..., 0]
    escapes = np.any((weights > SUPPORT_TOL) & ~q_live, axis=-1)
    cross = np.sum(weights * np.log2(np.where(q_live, q, 1.0)), axis=-1, where=q_live)
    return np.where(escapes, math.inf, plogp - cross)


def _relative_entropies(
    dr: EigenDecomposition, ds: EigenDecomposition
) -> tuple[np.ndarray, np.ndarray]:
    # the kernel both ways, (rho || sigma) and (sigma || rho), from one overlap: the
    # reversed overlap is its transpose
    o = _overlap(ds, dr)
    return (_relative_entropy(dr.eigenvalues, ds.eigenvalues, o),
            _relative_entropy(ds.eigenvalues, dr.eigenvalues, np.swapaxes(o, -1, -2)))


def relative_entropy_numeric(rho, sigma) -> float:
    """Base-2 relative entropy Tr(rho log2 rho - rho log2 sigma).

    Returns ``math.inf`` when the support of rho is not contained in the
    support of sigma (eigenvalues below SUPPORT_TOL count as zero).
    """
    rho, sigma = _square_pair(rho, sigma)
    dr, ds = clamped_spectrum(rho, "rho"), clamped_spectrum(sigma, "sigma")
    return _relative_entropy(dr.eigenvalues, ds.eigenvalues, _overlap(ds, dr)).tolist()


class QcbNumeric(NamedTuple):
    q: float
    s_star: float


# The Chernoff search's bracket, its Newton stopping step and its iteration guard
_QCB_LO, _QCB_HI, _QCB_STEP_TOL, _QCB_ITERATIONS = 1e-9, 1.0 - 1e-9, 1e-12, 100


def qcb_curve_kernel(dr: EigenDecomposition, ds: EigenDecomposition, s_values) -> np.ndarray:
    """Tr(rho^s sigma^(1-s)) per s (last axis) from clamped decompositions; 0^s := 0, s > 0.

    Two stacks are matched, member k of one against member k of the other."""
    s = np.asarray(s_values, dtype=float)[:, None]
    curve = np.matmul(dr.eigenvalues[..., None, :] ** s, _overlap(dr, ds))
    curve *= ds.eigenvalues[..., None, :] ** (1.0 - s)
    return curve.sum(-1)


def _overlap_derivatives(p, q, tables, s) -> np.ndarray:
    # (f, f', f'') of f(s) = Tr(rho^s sigma^(1-s)) at the points s (pairs,
    # points), from each pair's tables O, O*D and O*D^2 (pairs, 3, dim, dim)
    ps = (p[:, None, :] ** s[..., None])[:, :, None, None, :]
    qs = (q[:, None, :] ** (1.0 - s[..., None]))[:, :, None, :, None]
    return np.moveaxis(np.matmul(np.matmul(ps, tables[:, None]), qs)[..., 0, 0], -1, 0)


def qcb_kernels(drs: EigenDecomposition, dss: EigenDecomposition) -> QcbNumeric:
    """Minimise Tr(rho^s sigma^(1-s)) over (0, 1) for each matched pair of two stacks.

    ``drs`` and ``dss`` are equal-length stacks of clamped decompositions of
    one dimension; member k of one is compared with member k of the other.
    f(s) = sum_ij O_ij p_i^s q_j^(1-s) is convex; with D_ij = ln p_i - ln q_j
    (0 where p_i or q_j is 0), a pair's tables O, O*D and O*D^2 give f, f'
    and f'' in one batched matmul.  An end of [1e-9, 1 - 1e-9] where f' keeps
    its sign is returned as is; otherwise Newton's method on f' starts at 1/2,
    narrows the bracket by the sign of f' and bisects where a step would leave
    it, until a step is at most 1e-12 (and is taken) or f' is within its
    round-off eps max|D| f (a flat curve, such as a state against itself,
    stops at once); ``_QCB_ITERATIONS`` caps the steps.  The pairs step in
    lockstep, a stopped pair held, so each member equals its one-pair call.
    Memory is three dim x dim tables a pair, linear in the stacks (a caller
    bounds them with ``_blocks(n, dim, tables=3)``).  Returns 1-D q and s_star.
    """
    (m, dim), (m_s, dim_s) = drs.eigenvalues.shape, dss.eigenvalues.shape
    if (m_s, dim_s) != (m, dim):
        raise DimensionMismatchError(f"{m} rho of dimension {dim} against {m_s} sigma of {dim_s}")
    p, q = drs.eigenvalues, dss.eigenvalues
    lp, lq = (np.log(np.where(x > 0.0, x, 1.0)) for x in (p, q))
    tables = np.empty((m, 3, dim, dim))
    o, od, odd = tables[:, 0], tables[:, 1], tables[:, 2]
    o[...] = _overlap(drs, dss)
    # the O*D^2 slot holds D until the products below
    np.subtract(lp[:, :, None], lq[:, None, :], out=odd)
    odd[~((p > 0.0)[:, :, None] & (q > 0.0)[:, None, :])] = 0.0
    # |f'| <= max|D| f bounds its terms, so its round-off is below eps max|D| f
    noise = np.finfo(float).eps * np.abs(odd).max((-2, -1))
    np.multiply(o, odd, out=od)
    np.multiply(od, odd, out=odd)
    # f, f', f'' at both ends and at 1/2; an end where f' does not change
    # sign inside the bracket is the minimiser
    lo, hi = np.full(m, _QCB_LO), np.full(m, _QCB_HI)
    f, g, h = _overlap_derivatives(p, q, tables, np.stack([lo, hi, np.full(m, 0.5)], -1))
    k = np.where(g[:, 0] >= 0.0, 0, np.where(g[:, 1] <= 0.0, 1, 2))
    s = np.choose(k, (lo, hi, 0.5))
    f, g, h = (x[np.arange(m), k] for x in (f, g, h))
    held = k < 2
    for _ in range(_QCB_ITERATIONS):
        with np.errstate(divide="ignore", invalid="ignore"):
            x = s - g / h
        # a Newton step of at most 1e-12 is the last: s takes it, and f,
        # which it moves by far less than an ulp, is kept; an f' within
        # its round-off counts as 0, and s stays
        newton, flat = np.abs(g) <= _QCB_STEP_TOL * h, np.abs(g) <= noise * f
        s, held = np.where(~held & newton & ~flat, x, s), held | newton | flat
        if held.all():
            break
        lo, hi = np.where(g < 0.0, s, lo), np.where(g > 0.0, s, hi)
        s = np.where(held, s, np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi)))
        step = _overlap_derivatives(p, q, tables, s[:, None])[..., 0]
        f, g, h = (np.where(held, old, new) for old, new in zip((f, g, h), step))
    return QcbNumeric(q=f, s_star=s)


def qcb_numeric(rho, sigma) -> QcbNumeric:
    """Minimise Tr(rho^s sigma^(1-s)) over s in the open interval (0, 1).

    The Newton search of :func:`qcb_kernels` on one-member stacks of the
    clamped decompositions.  Endpoint limits for states with mismatched
    support are out of scope here: where the infimum is such a limit, the
    search stops at exactly 1e-9 or 1 - 1e-9.
    """
    rho, sigma = _square_pair(rho, sigma)
    r = qcb_kernels(clamped_spectrum(rho, "rho")[None], clamped_spectrum(sigma, "sigma")[None])
    return QcbNumeric(q=float(r.q[0]), s_star=float(r.s_star[0]))


def _complex_gaussian(dim: int, normals) -> np.ndarray:
    # real then imaginary parts: drawn standard normals of shape (..., 2, dim, dim),
    # one stack member per matrix
    g = np.asarray(normals, dtype=float)
    if g.shape[-3:] != (2, dim, dim):
        raise DimensionMismatchError(f"need normals of shape (..., 2, {dim}, {dim}), got {g.shape}")
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def random_density_matrix(dim: int, normals) -> np.ndarray:
    """Full-rank random density matrix from a complex Gaussian square root.

    ``normals`` are standard normals of shape (..., 2, dim, dim), drawn for
    example by ``rng.normal(size=(2, dim, dim))``: the real and imaginary
    parts of the root, one state per stack member.
    """
    g = _complex_gaussian(dim, normals)
    rho = g @ _dagger(g)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return (rho + _dagger(rho)) / 2.0


def random_unitary(dim: int, normals) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix.

    ``normals`` are standard normals of shape (..., 2, dim, dim), as for
    :func:`random_density_matrix`, one unitary per stack member.
    """
    qmat, r = np.linalg.qr(_complex_gaussian(dim, normals))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return qmat * (phases / np.abs(phases))[..., None, :]
