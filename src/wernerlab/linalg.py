"""Dense Hermitian matrix numerics and matrix-level reference metrics.

Everything here works on explicit ``numpy`` arrays.  The matrix-level
metrics (fidelity, trace distance, relative entropy, Chernoff overlap)
are deliberately computed straight from eigendecompositions so that the
closed-form formulas elsewhere in the package can be validated against
an independent route.  They also take stacks of matrices along leading axes,
one float per member then coming back as a list; ``_blocks`` bounds a stack.
Real input stays real, so real symmetric states run in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Matrix entries (members x dim^2) of one stack handed to the kernels below,
# so that a sweep's memory does not grow with its pair count.
_STACK_ENTRIES = 2**16


def _blocks(n: int, dim: int) -> list[slice]:
    # consecutive slices of n stacked dim x dim matrices, each within the bound
    step = max(1, _STACK_ENTRIES // (dim * dim))
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


def eigh(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of a stack in at most two LAPACK calls.

    Raises NonHermitianError, naming the first offending stack member, if
    any deviates from Hermiticity by more than ``HERMITIAN_TOL``.  Output is
    deterministic for identical input (LAPACK on the symmetrised matrix),
    eigenvalues ascending; a member's equals its own call.  Each member whose
    symmetrised imaginary part is exactly zero goes to the real symmetric
    driver, the others to the complex one; an all-real input has real
    eigenvectors.
    """
    a = _as_square(a, stack=True)
    defect = hermiticity_defect(a)
    if np.any(defect > HERMITIAN_TOL):
        i = _first(defect > HERMITIAN_TOL)
        raise NonHermitianError(
            f"matrix{list(i) or ''} is not Hermitian within {HERMITIAN_TOL:g} "
            f"(defect {defect[i]:.3e})"
        )
    h = (a + _dagger(a)) / 2.0
    real = ~np.any(h.imag, axis=(-2, -1)) if np.iscomplexobj(h) else np.True_
    if real.all():
        return EigenDecomposition(*np.linalg.eigh(h.real))
    if not real.any():
        return EigenDecomposition(*np.linalg.eigh(h))
    w, v = np.empty(h.shape[:-1]), np.empty_like(h)
    w[real], v[real] = np.linalg.eigh(h.real[real])
    w[~real], v[~real] = np.linalg.eigh(h[~real])
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


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
    # Round-off near rank-deficient states produces tiny eigenvalues of
    # either sign where the true value is zero.  Anything below ZERO_SNAP
    # becomes an exact zero before powers/logs are taken (a +1e-17 noise
    # eigenvalue would otherwise contribute ~3e-9 under a square root);
    # negatives beyond PSD_FLOOR are rejected.
    dec = eigh(rho)
    w, low = dec.eigenvalues, dec.eigenvalues.min(-1)
    if np.any(low < PSD_FLOOR):
        i = _first(low < PSD_FLOOR)
        raise NotDensityMatrixError(
            f"{name}{list(i) or ''}: minimum eigenvalue {low[i]:.3e} below {PSD_FLOOR:g}"
        )
    return EigenDecomposition(np.where(w < ZERO_SNAP, 0.0, w), dec.eigenvectors)


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
    inner = sqrt_sigma @ rho @ sqrt_sigma
    w = clamped_spectrum(inner, "sqrt(sigma) rho sqrt(sigma)").eigenvalues
    return np.sqrt(w).sum(-1).tolist()


def bures_fidelity_numeric(rho, sigma) -> float:
    """F(rho, sigma) = Tr sqrt(sqrt(sigma) rho sqrt(sigma)), from matrices."""
    rho, sigma = _square_pair(rho, sigma)
    return bures_fidelity_kernel(rho, spectral_sqrt(clamped_spectrum(sigma, "sigma")))


def trace_distance_numeric(rho, sigma) -> float | list[float]:
    """D(rho, sigma) = half the sum of |eigenvalues| of rho - sigma."""
    rho, sigma = _square_pair(rho, sigma, stack=True)
    w = eigh(rho - sigma).eigenvalues
    return (0.5 * np.abs(w).sum(-1)).tolist()


def _overlap(dr: EigenDecomposition, ds: EigenDecomposition) -> np.ndarray:
    # |<r_i|s_j>|^2 between the eigenvectors of rho and of sigma
    return np.abs(_dagger(dr.eigenvectors) @ ds.eigenvectors) ** 2


def relative_entropy_kernel(dr: EigenDecomposition, ds: EigenDecomposition) -> float | list[float]:
    """Base-2 relative entropy from the clamped decompositions of rho and sigma.

    Returns ``math.inf`` when the support of rho is not contained in the
    support of sigma (eigenvalues below SUPPORT_TOL count as zero).
    """
    # sums over the live eigenvalues by where=: zero-filling would move the sums' last bits
    p, q = dr.eigenvalues, ds.eigenvalues
    p_live, q_live = p > SUPPORT_TOL, q > SUPPORT_TOL
    plogp = np.sum(p * np.log2(np.where(p_live, p, 1.0)), axis=-1, where=p_live)

    # weight of rho on each eigenvector of sigma
    weights = (_overlap(ds, dr) @ p[..., None])[..., 0]
    escapes = np.any((weights > SUPPORT_TOL) & ~q_live, axis=-1)
    cross = np.sum(weights * np.log2(np.where(q_live, q, 1.0)), axis=-1, where=q_live)
    return np.where(escapes, math.inf, plogp - cross).tolist()


def relative_entropy_numeric(rho, sigma) -> float:
    """Base-2 relative entropy Tr(rho log2 rho - rho log2 sigma).

    Returns ``math.inf`` when the support of rho is not contained in the
    support of sigma (eigenvalues below SUPPORT_TOL count as zero).
    """
    rho, sigma = _square_pair(rho, sigma)
    return relative_entropy_kernel(
        clamped_spectrum(rho, "rho"), clamped_spectrum(sigma, "sigma")
    )


def golden_section_min(
    f: Callable[[np.ndarray], np.ndarray], lo, hi, tol: float = 1e-8
) -> np.ndarray:
    """Golden-section search for the minimisers of unimodal functions, in lockstep.

    ``lo`` and ``hi`` are bracket ends, scalars or arrays of one shape, and
    ``f`` maps an array of abscissae (one per bracket) to the array of the
    function values there.  Each bracket shrinks by the scalar update
    sequence until its width is at most ``tol``; one that gets there first
    is held while the others go on, so every result equals a search on its
    bracket alone.  Returns the bracket midpoints.  Deterministic for
    identical inputs.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not np.all(lo < hi):
        raise ValueError(f"need lo < hi in every bracket, got [{lo}, {hi}]")
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    live = hi - lo > tol
    while live.any():
        # where f(c) < f(d) the bracket keeps [lo, d], elsewhere [c, hi]
        left = fc < fd
        shrink_hi = live & left
        shrink_lo = live & ~left
        hi = np.where(shrink_hi, d, hi)
        lo = np.where(shrink_lo, c, lo)
        x = np.where(left, hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo))
        fx = f(x)
        c, d, fc, fd = (
            np.where(shrink_hi, x, np.where(shrink_lo, d, c)),
            np.where(shrink_hi, c, np.where(shrink_lo, x, d)),
            np.where(shrink_hi, fx, np.where(shrink_lo, fd, fc)),
            np.where(shrink_hi, fc, np.where(shrink_lo, fx, fd)),
        )
        live = hi - lo > tol
    return 0.5 * (lo + hi)


class QcbNumeric(NamedTuple):
    q: float
    s_star: float


# Coarse pass for the Chernoff overlap: 0.005, 0.010, ..., 0.995.
_QCB_GRID_STEP = 0.005
_QCB_GRID = np.arange(1, 200) * _QCB_GRID_STEP


def _overlap_curve(ps, overlap, qs) -> np.ndarray:
    # Tr(rho^s sigma^(1-s)) per row s of the power tables ps = p^s, qs = q^(1-s)
    # (..., ns, dim), over any leading (pair) axes; qs broadcasts into the product
    curve = np.matmul(ps, overlap)
    curve *= qs
    return curve.sum(-1)


def qcb_curve_kernel(
    dr: EigenDecomposition, ds: EigenDecomposition, s_values
) -> np.ndarray:
    """Tr(rho^s sigma^(1-s)) per s (last axis) from clamped decompositions; 0^s := 0, s > 0."""
    s = np.asarray(s_values, dtype=float)[:, None]
    ps, qs = dr.eigenvalues[..., None, :] ** s, ds.eigenvalues[..., None, :] ** (1.0 - s)
    return _overlap_curve(ps, _overlap(dr, ds), qs)


def qcb_kernels(drs: EigenDecomposition, dss: EigenDecomposition) -> QcbNumeric:
    """Minimise Tr(rho^s sigma^(1-s)) over (0, 1) for every (rho, sigma) of two stacks.

    ``drs`` and ``dss`` are stacks of clamped decompositions (leading axis
    the member) of one dimension.  The coarse grid (step 0.005) sets each rho
    against blocks of sigma whose sigma^(1-s) tables hold at most
    ``_STACK_ENTRIES`` entries, so each state's powers are taken once per
    block.  The brackets are then refined by golden section to width 1e-8,
    all pairs of a block of at most ``_STACK_ENTRIES`` overlap entries
    together.  Returns arrays ``q`` and ``s_star`` of shape
    (len(drs), len(dss)), each entry equal to a search on that pair alone.
    """
    (nr, dim), (nc, dim_s) = drs.eigenvalues.shape, dss.eigenvalues.shape
    if dim_s != dim:
        raise DimensionMismatchError(f"rho of dimension {dim}, sigma of {dim_s}")
    s = _QCB_GRID[:, None]
    k = np.empty((nr, nc), dtype=int)
    step = max(1, _STACK_ENTRIES // (_QCB_GRID.size * dim))
    for c in range(0, nc, step):
        at = slice(c, c + step)
        qs = dss.eigenvalues[at, None, :] ** (1.0 - s)
        for i in range(nr):
            curve = _overlap_curve(drs.eigenvalues[i] ** s, _overlap(drs[i], dss[at]), qs)
            k[i, at] = np.argmin(curve, axis=-1)

    # pairs in row-major order, refined in blocks sharing one overlap buffer
    n = nr * nc
    q_min, s_star, k = np.empty(n), np.empty(n), k.reshape(n)
    blocks = _blocks(n, dim)
    buffer = np.empty((min(blocks[0].stop, n) if blocks else 0, dim, dim))
    for at in blocks:
        a, b = at.start, min(at.stop, n)
        o = buffer[: b - a]
        for i in range(a // nc, (b - 1) // nc + 1):
            j0, j1 = max(a, i * nc), min(b, (i + 1) * nc)
            o[j0 - a : j1 - a] = _overlap(drs[i], dss[j0 - i * nc : j1 - i * nc])
        rows, cols = np.divmod(np.arange(a, b), nc)
        p, q = drs.eigenvalues[rows], dss.eigenvalues[cols]

        def overlap_at(x: np.ndarray) -> np.ndarray:
            ps = (p ** x[:, None])[:, None, :]
            qs = (q ** (1.0 - x[:, None]))[:, :, None]
            return np.matmul(np.matmul(ps, o), qs)[:, 0, 0]

        lo = np.maximum(_QCB_GRID[k[at]] - _QCB_GRID_STEP, 1e-9)
        hi = np.minimum(_QCB_GRID[k[at]] + _QCB_GRID_STEP, 1.0 - 1e-9)
        x = golden_section_min(overlap_at, lo, hi, tol=1e-8)
        q_min[at], s_star[at] = overlap_at(x), x
    return QcbNumeric(q=q_min.reshape(nr, nc), s_star=s_star.reshape(nr, nc))


def qcb_numeric(rho, sigma) -> QcbNumeric:
    """Minimise Tr(rho^s sigma^(1-s)) over s in the open interval (0, 1).

    The search of :func:`qcb_kernels` on one-member stacks of the clamped
    decompositions.  Endpoint limits for states with mismatched support are
    out of scope here; this reports the open-interval infimum seen by the search.
    """
    rho, sigma = _square_pair(rho, sigma)
    r = qcb_kernels(clamped_spectrum(rho, "rho")[None], clamped_spectrum(sigma, "sigma")[None])
    return QcbNumeric(q=float(r.q[0, 0]), s_star=float(r.s_star[0, 0]))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix from a complex Gaussian square root."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    qmat, r = np.linalg.qr(g)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))
