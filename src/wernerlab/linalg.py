"""Dense Hermitian matrix numerics and matrix-level reference metrics.

Everything here works on explicit ``numpy`` arrays.  The matrix-level
metrics (fidelity, trace distance, relative entropy, Chernoff overlap)
are deliberately computed straight from eigendecompositions so that the
closed-form formulas elsewhere in the package can be validated against
an independent route.  They also take stacks of matrices along leading axes,
two stacks (the spectral kernels: lists of sector stacks) set member against
member after one pairing check, ``_paired``, one float per member then coming
back as a list (the Chernoff search returns arrays); ``_blocks`` bounds a stack.
Real input stays real, so real symmetric states run in real arithmetic; a
stack's dtype picks its one LAPACK driver.  A real stack that equals its
transpose bit for bit goes to that driver as it is; any other is checked for
Hermiticity (a non-finite entry fails) and symmetrised first, without overflow.
The fidelity and trace distance take eigenvalues alone (``eigvalsh``); the
Chernoff search is a bracketed Newton iteration on the overlap curve's slope.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
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
_HALF_MAX = np.finfo(float).max / 2

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

    __iter__ = None  # not a list of sectors: a kernel given one raises, not iterating members


def _as_square(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    # real input stays real (float64), anything complex becomes complex128
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2] or not a.shape[-1]:
        raise DimensionMismatchError(f"{name} must be square and nonempty, got shape {a.shape}")
    return a


def _dagger(a: np.ndarray) -> np.ndarray:
    # conjugate transpose of each matrix of a stack (``.T`` reverses every axis)
    return np.swapaxes(a.conj(), -1, -2)


def _first(bad: np.ndarray) -> tuple[int, ...]:
    # index of the first stack member where ``bad`` holds, () for one matrix
    return tuple(int(k) for k in np.unravel_index(np.argmax(bad), np.shape(bad)))


def hermiticity_defect(a: np.ndarray):
    """Largest entrywise deviation of ``a`` from its conjugate transpose, per matrix of a stack.

    NaN for a matrix with a NaN entry or an infinity mirrored by the same infinity, inf
    where a difference overflows."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and -max - max
        return np.abs(a - _dagger(a)).max(axis=(-2, -1))


def _exactly_symmetric(a: np.ndarray) -> bool:
    # a real stack equal to its transpose bit for bit, each entry finite and at most half
    # the largest double (so doubled without overflow): its defect is 0 and (a + a^T) / 2
    # is a itself; the bounds fail on a NaN, and +0 against -0 is not bitwise equal
    return (
        a.dtype == np.float64
        and -_HALF_MAX <= a.min(initial=0.0)
        and a.max(initial=0.0) <= _HALF_MAX
        and np.array_equal(a.view(np.int64), np.swapaxes(a, -1, -2).view(np.int64))
    )


def _hermitian_spectrum(a, vectors: bool) -> tuple[np.ndarray, ...]:
    # eigh's checks and its one LAPACK call, with eigenvectors or (vectors=False) without;
    # an exactly symmetric stack goes to LAPACK as it is
    a = _as_square(a, stack=True)
    if not _exactly_symmetric(a):
        defect = hermiticity_defect(a)
        bad = ~(defect <= HERMITIAN_TOL)  # a NaN defect is bad
        if np.any(bad):
            i = _first(bad)
            raise NonHermitianError(
                f"matrix{list(i) or ''} is not Hermitian within {HERMITIAN_TOL:g} "
                f"(defect {defect[i]:.3e})"
            )
        a = _symmetrised(a)
    return np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a),)


def _symmetrised(a: np.ndarray) -> np.ndarray:
    # (a + a^dagger)/2 of a finite stack; an entry whose sum overflows (past half the
    # largest double) is halved before adding instead, which is exact there (a complex
    # inf divided by 2 is inf + nan j: the only invalid value a finite stack can give)
    with np.errstate(over="ignore", invalid="ignore"):
        h = (a + _dagger(a)) / 2.0
    over = ~np.isfinite(h)
    if over.any():
        h[over] = (a / 2.0 + _dagger(a) / 2.0)[over]
    return h


def eigh(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of a stack in one LAPACK call.

    Raises NonHermitianError, naming the first offending stack member, if
    any deviates from Hermiticity by more than ``HERMITIAN_TOL`` or has a
    non-finite entry (its defect is then NaN).  Output is deterministic for
    identical input (LAPACK on the symmetrised matrix (a + a^dagger)/2, whose
    entries past half the largest double are halved before adding, so that they
    do not overflow), eigenvalues ascending.  A real stack equal to its
    transpose bit for bit, each entry finite and at most half the largest
    double, is that symmetrised matrix already and goes to LAPACK as it is,
    without the check's passes; +0 mirrored by -0 is not bitwise equal, so such
    a stack is symmetrised.  The dtype picks the driver: a real (float64)
    input goes to the real symmetric one and has real eigenvectors, a
    complex input to the complex Hermitian one, even where its imaginary
    parts are all zero.  A stack member's output equals its own call at the
    stack's dtype.
    """
    return EigenDecomposition(*_hermitian_spectrum(a, vectors=True))


def eigvalsh(a) -> np.ndarray:
    """Ascending eigenvalues alone (``np.linalg.eigvalsh``), with ``eigh``'s checks and driver.

    As for ``eigh``, an exactly symmetric real stack goes to LAPACK as it is, and a
    member with a non-finite entry raises NonHermitianError."""
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


def clamped_spectrum(rho, name: str = "rho") -> EigenDecomposition:
    """Eigendecomposition of a state with round-off zeros snapped to 0.0.

    This is the validate-and-decompose half of the matrix-level fidelity,
    relative entropy and Chernoff overlap below; their spectra-level
    ``*_kernel`` functions take its output, so a sweep can decompose each
    state once and reuse it for every pair.  A stack goes to ``eigh`` a block at
    a time (``_blocks``); errors name the first failing member in the whole stack.
    """
    rho = _as_square(rho, name, stack=True)
    flat = rho.reshape(math.prod(rho.shape[:-2]), *rho.shape[-2:])
    w, v = np.empty(flat.shape[:-1]), np.empty_like(flat)
    for at in _blocks(len(flat), rho.shape[-1]):
        try:
            dec = eigh(flat[at])
        except NonHermitianError:
            eigh(rho)  # raises again, naming that member by its index in the whole stack
            raise
        w[at], v[at] = dec.eigenvalues, dec.eigenvectors
    return EigenDecomposition(_clamp(w.reshape(rho.shape[:-1]), name), v.reshape(rho.shape))


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
    _paired([rho], [sigma])
    return rho, sigma


def _described(xs, name: str) -> str:
    # "3 rho of dimension 15+21": one side's member counts (leading shapes, "one" for a
    # bare matrix) and sector dimensions; "no rho" for no sector
    counts = "/".join(dict.fromkeys("x".join(map(str, np.shape(x)[:-2])) or "one" for x in xs))
    dims = "+".join(str(np.shape(x)[-1]) for x in xs)
    return f"{counts} {name} of dimension {dims}" if xs else f"no {name}"


def _paired(rs, ss, names: tuple[str, str] = ("rho", "sigma")) -> None:
    # the one check of every kernel that sets two stacks member against member, each side
    # a list of its sectors' matrix stacks (a whole state is one sector): at least one
    # sector, one shape sector for sector, and one member count across a side's sectors
    shapes = [np.shape(x) for x in rs]
    if not shapes or shapes != [np.shape(x) for x in ss] or len({s[:-2] for s in shapes}) > 1:
        raise DimensionMismatchError(" against ".join(map(_described, (rs, ss), names)))


def spectral_sqrt(dec: EigenDecomposition) -> np.ndarray:
    """Matrix square root V diag(sqrt(w)) V† of a clamped decomposition."""
    v = dec.eigenvectors
    return (v * np.sqrt(dec.eigenvalues)[..., None, :]) @ _dagger(v)


def bures_fidelity_kernel(rho: np.ndarray, sqrt_sigma: np.ndarray) -> float | list[float]:
    """Tr sqrt(sqrt_sigma rho sqrt_sigma), given sqrt(sigma) from ``spectral_sqrt``."""
    _paired([rho], [sqrt_sigma], ("rho", "sqrt(sigma)"))
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
    # |<r_i|s_j>|^2 between the eigenvectors of rho and of sigma; one below dim eps^2 is
    # round-off between orthogonal eigenvectors, and is set to exactly 0
    o = np.abs(_dagger(dr.eigenvectors) @ ds.eigenvectors)
    np.square(o, out=o)
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


def qcb_curve_kernel(
    drs: Sequence[EigenDecomposition], dss: Sequence[EigenDecomposition], s_values
) -> np.ndarray:
    """Tr(rho^s sigma^(1-s)) per s (last axis) from clamped decompositions; 0^s := 0, s > 0.

    ``drs`` and ``dss`` are matched lists of sector decompositions, as for
    :func:`qcb_kernels`: the curve is the sum of the sectors' own curves."""
    _paired([d.eigenvectors for d in drs], [d.eigenvectors for d in dss])
    s = np.asarray(s_values, dtype=float)[:, None]
    curves = []
    for r, q in zip(drs, dss):
        curve = np.matmul(r.eigenvalues[..., None, :] ** s, _overlap(r, q))
        curve *= q.eigenvalues[..., None, :] ** (1.0 - s)
        curves.append(curve.sum(-1))
    return reduce(np.add, curves)


def sld_qfi_kernel(decs: Sequence[EigenDecomposition], d_rhos: Sequence[np.ndarray]) -> np.ndarray:
    """Quantum Fisher information 2 sum |<i|d_rho|j>|^2 / (l_i + l_j), l_i + l_j > 0, per member.

    The symmetric-logarithmic-derivative sum from clamped decompositions of a
    stack of states and the derivative d_rho of the family at each member (one
    shared derivative goes in as an ``np.broadcast_to`` view).  As for
    :func:`qcb_kernels`, ``decs`` is a list of sector decompositions of one
    block-diagonal basis with which d_rho commutes, matched by ``d_rhos``, one
    block a sector; the information is the sum of the sectors' own sums."""
    _paired([dec.eigenvectors for dec in decs], d_rhos, ("rho", "d_rho"))
    sums = []
    for dec, d_rho in zip(decs, d_rhos):
        v, w = dec.eigenvectors, dec.eigenvalues
        terms = np.square(np.abs(_dagger(v) @ d_rho @ v))
        den = w[..., :, None] + w[..., None, :]
        live = den > 0.0
        sums.append(np.sum(terms / np.where(live, den, 1.0), (-2, -1), where=live))
    return 2.0 * reduce(np.add, sums)


def _overlap_derivatives(sectors, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # f, f' and f'' of f(s) = Tr(rho^s sigma^(1-s)) at the points s (pairs, points),
    # summed over the sectors (p, q, tables) from each pair's tables O, O*D and O*D^2
    # (pairs, 3, dim, dim) of each sector: three views of one sum of products
    products = []
    for p, q, tables in sectors:
        ps = (p[:, None, :] ** s[..., None])[:, :, None, None, :]
        qs = (q[:, None, :] ** (1.0 - s[..., None]))[:, :, None, :, None]
        products.append(np.matmul(np.matmul(ps, tables[:, None]), qs))
    fgh = reduce(np.add, products)
    return fgh[..., 0, 0, 0], fgh[..., 1, 0, 0], fgh[..., 2, 0, 0]


def _qcb_tables(dr: EigenDecomposition, ds: EigenDecomposition, tables: np.ndarray):
    # one sector's (p, q, tables): its spectra and, filled in, its tables O, O*D and O*D^2
    # (pairs, 3, dim, dim), with D_ij = ln p_i - ln q_j (0 where p_i or q_j is 0); and
    # max|D| per pair
    p, q = dr.eigenvalues, ds.eigenvalues
    lp, lq = (np.log(np.where(x > 0.0, x, 1.0)) for x in (p, q))
    o, od, odd = _overlap(dr, ds), tables[:, 1], tables[:, 2]
    tables[:, 0] = o
    # the O*D^2 slot holds D, and the O*D slot |D|, until the products below
    np.subtract(lp[:, :, None], lq[:, None, :], out=odd)
    odd[~(p > 0.0)] = 0.0
    np.swapaxes(odd, -1, -2)[~(q > 0.0)] = 0.0
    bound = np.abs(odd, out=od).max((-2, -1))
    np.multiply(o, odd, out=od)
    np.multiply(od, odd, out=odd)
    return (p, q, tables), bound


def qcb_kernels(
    drs: Sequence[EigenDecomposition], dss: Sequence[EigenDecomposition]
) -> QcbNumeric:
    """Minimise Tr(rho^s sigma^(1-s)) over (0, 1) for each matched pair of two stacks.

    ``drs`` and ``dss`` are matched lists of the clamped decompositions of the
    sectors of one block-diagonal basis with which both states commute (their
    eigenvectors then overlap only within a sector), each a 1-D stack; member k
    of one side is compared with member k of the other.  A whole state is the
    one-sector case, a one-item list.  f(s) = sum over sectors of sum_ij O_ij
    p_i^s q_j^(1-s) is convex; with D_ij = ln p_i - ln q_j (0 where p_i or q_j
    is 0), a sector pair's tables O, O*D and O*D^2 give its terms of f, f' and
    f'' in one batched matmul.  An end of [1e-9, 1 - 1e-9] where f' keeps its
    sign is returned as is; otherwise Newton's method on f' starts at 1/2,
    narrows the bracket by the sign of f' and bisects where a step would leave
    it, until a step is at most 1e-12 (and is taken) or f' is within its
    round-off eps max|D| f, the max over every sector's live entries (a flat
    curve, such as a state against itself, stops at once); ``_QCB_ITERATIONS``
    caps the steps.  The pairs step in lockstep, a stopped pair held, so each member equals its
    one-pair call.  Memory is three tables a pair and sector, each sector's
    dimension squared, linear in the stacks (a caller bounds them with
    ``_blocks(n, 1, tables=3 * sum of the squared sector dimensions)``).
    Returns 1-D q and s_star.
    """
    _paired([d.eigenvectors for d in drs], [d.eigenvectors for d in dss])
    shapes = [d.eigenvalues.shape for d in drs]
    m = shapes[0][0]
    # every sector's tables in one allocation, as whole states' were: separate arrays
    # measured slower, the allocator returning their pages and faulting them in again
    sizes = [3 * dim * dim for _, dim in shapes]
    blocks = np.split(np.empty((m, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    tables = [block.reshape(m, 3, dim, dim) for block, (_, dim) in zip(blocks, shapes)]
    sectors, bounds = zip(*map(_qcb_tables, drs, dss, tables))
    # |f'| <= max|D| f bounds its terms, so its round-off is below eps max|D| f; D
    # across sectors, where O is 0, never enters f'
    noise = np.finfo(float).eps * reduce(np.maximum, bounds)
    # f, f', f'' at both ends and at 1/2; an end where f' does not change
    # sign inside the bracket is the minimiser
    lo, hi = np.full(m, _QCB_LO), np.full(m, _QCB_HI)
    f, g, h = _overlap_derivatives(sectors, np.stack([lo, hi, np.full(m, 0.5)], -1))
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
        step = _overlap_derivatives(sectors, s[:, None])
        f, g, h = (np.where(held, old, new[:, 0]) for old, new in zip((f, g, h), step))
    return QcbNumeric(q=f, s_star=s)


def qcb_numeric(rho, sigma) -> QcbNumeric:
    """Minimise Tr(rho^s sigma^(1-s)) over s in the open interval (0, 1).

    The Newton search of :func:`qcb_kernels` on one-member stacks of the
    clamped decompositions.  Endpoint limits for states with mismatched
    support are out of scope here: where the infimum is such a limit, the
    search stops at exactly 1e-9 or 1 - 1e-9.
    """
    rho, sigma = _square_pair(rho, sigma)
    r = qcb_kernels([clamped_spectrum(rho, "rho")[None]], [clamped_spectrum(sigma, "sigma")[None]])
    return QcbNumeric(q=float(r.q[0]), s_star=float(r.s_star[0]))


def _complex_gaussian(normals) -> np.ndarray:
    # real then imaginary parts: drawn standard normals of shape (..., 2, d, d), one
    # stack member per matrix
    g = np.asarray(normals, dtype=float)
    if g.ndim < 3 or g.shape[-3] != 2 or g.shape[-1] != g.shape[-2]:
        raise DimensionMismatchError(f"need normals of shape (..., 2, d, d), got {g.shape}")
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def random_density_matrix(normals) -> np.ndarray:
    """Full-rank random density matrix from a complex Gaussian square root.

    ``normals`` are standard normals of shape (..., 2, d, d), drawn for
    example by ``rng.normal(size=(2, d, d))``: the real and imaginary
    parts of the root, one d x d state per stack member.
    """
    g = _complex_gaussian(normals)
    rho = g @ _dagger(g)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return (rho + _dagger(rho)) / 2.0


def random_unitary(normals) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix.

    ``normals`` are standard normals of shape (..., 2, d, d), as for
    :func:`random_density_matrix`, one d x d unitary per stack member.
    """
    qmat, r = np.linalg.qr(_complex_gaussian(normals))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return qmat * (phases / np.abs(phases))[..., None, :]
