"""Cross-validation suite: every closed form against its matrix-level oracle.

``CHECKS`` lists the 20 checks in the printed order, each with its base
tolerance, which a run scales by one ``tol_scale`` of at most 1.  Each check
sweeps a parameter grid, compares an analytic quantity with an independently
computed reference, and reports the worst defect seen and how many points it
examined; a check that examined no point does not pass.  Every pair sweep takes
its pairs from one triangle engine, ``_pairs``: bounded (rows, cols) index
blocks of the pairs i <= j, so memory does not grow with the grid.  One Werner
sweep a dimension rotates the explicit states into the eigenbasis of the
explicit flip F, decomposes each flip sector once, and adds the sectors' dense
kernel values into (n, n) oracle tables, mirrored where symmetric, each compared
whole with its closed form tabulated once per grid; the Chernoff search and the
overlap curves read whole decompositions assembled from the sectors'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import attrgetter

import numpy as np

from . import discrimination, linalg, metrics, metrology, states, teleport
from .errors import DimensionOverflowError, InvalidParameterError

__all__ = ["CHECKS", "DEFAULT_SEED", "CheckResult", "run_verification", "teleport_check"]

# the seed of every seeded run (verify, teleport-check, estimate sim) unless one is given
DEFAULT_SEED = 20260808

TELEPORT_TOL = 1e-10
# the teleport sweep keeps one defect per sample, so memory grows with the count
# (its matrices are held one bounded stack block at a time)
TELEPORT_SAMPLE_CAP = 100_000
# Most samples x d^6, a teleport sweep's time scale: it admits 17 draws at d = 16 (about
# 8 ms each), 1,144 at d = 8 (0.35 s) and 73,242 at d = 4 (about 4 s); at d = 3 the sample
# cap binds first, and its 100,000 draws take about 3.5 s on a 2-core host
TELEPORT_WORK_CAP = 300_000_000
# Most (grid points)^2 x sum of d^4, the scale of the pair sweeps' states and pair lists
VERIFY_WORK_CAP = 2**25

# every check of a run, in the printed order, with its base tolerance
CHECKS = {
    "fidelity-oracle": 1e-9,
    "trace-distance-oracle": 1e-10,
    "relative-entropy-oracle": 1e-9,
    "qcb-oracle-q": 1e-6,
    "qcb-oracle-s": 1e-8,
    "qcb-isotropic-oracle": 1e-6,
    "qcb-isotropic-oracle-s": 1e-8,
    "critical-point-identities": 1e-12,
    "substitution-identity": 1e-12,
    "qs-oracle": 1e-12,
    "s-quantity-oracle": 1e-12,
    "fidelity-gap-oracle": 1e-12,
    "flip-sector-residual": 1e-12,
    "delta-s-oracle": 1e-12,
    "teleport-simulation": TELEPORT_TOL,
    "teleport-covariance": TELEPORT_TOL,
    "helstrom-explicit": 1e-10,
    "estimation-saturation": 0.05,
    "delta-s-sign": 0.0,
    "sandwich-ordering": 1e-10,
}

# the s at which the overlap curves are sampled
_CURVE_S = (0.25, 0.5, 0.75)

_q_and_s = attrgetter("q", "s_star")


@dataclass(frozen=True)
class CheckResult:
    """One named cross-check: points examined, failures, worst defect, tolerance.

    A check passes when it examined at least one point and none failed."""

    name: str
    points: int
    failures: int
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.points > 0 and self.failures == 0


def max_workers() -> int:
    """Always 1: kept only for ``perfbench/run.py``'s metadata, until the benchmark-only refresh."""
    return 1


def _stack(family, params, d: int) -> np.ndarray:
    # the explicit states family(x, d), one stack member per parameter, in the family's dtype
    return np.array([family(x, d) for x in params]).reshape(-1, d * d, d * d)


def _spectra(mats: np.ndarray) -> linalg.EigenDecomposition:
    # One clamped decomposition per state, from the explicit matrices (never from
    # the closed-form spectra), in bounded blocks; shared by every pair of the sweep.
    dec = linalg.EigenDecomposition(np.empty(mats.shape[:-1]), np.empty_like(mats))
    for at in linalg._blocks(len(mats), mats.shape[-1]):
        block = linalg.clamped_spectrum(mats[at])
        dec.eigenvalues[at], dec.eigenvectors[at] = block.eigenvalues, block.eigenvectors
    return dec


def _pairs(n: int, dim: int, diagonal: bool = True):
    # every unordered pair i <= j (i < j unless ``diagonal``) of n members row by row, as
    # index arrays (rows, cols) in blocks of three dim x dim tables a pair (linalg._blocks),
    # each block found from its flat range by the row starts alone
    first = np.arange(n) + (not diagonal)
    lengths = n - first
    starts, total = np.cumsum(lengths) - lengths, int(lengths.sum())
    for at in linalg._blocks(total, dim, tables=3):
        k = np.arange(*at.indices(total))
        rows = np.searchsorted(starts, k, side="right") - 1
        yield rows, k - starts[rows] + first[rows]


def _table(closed_form, params, *width) -> np.ndarray:
    # closed_form(a, b) at every ordered pair of params, once each: an (n, n) array, or
    # (n, n, k) of a k-tuple given its width k (also without params)
    table = [[closed_form(a, b) for b in params] for a in params]
    return np.array(table, dtype=float).reshape(len(params), len(params), *width)


def _defects(numeric, closed) -> np.ndarray:
    # |numeric - closed| per point, 0 where both are the same infinity; a NaN stays NaN
    with np.errstate(invalid="ignore"):
        return np.where(np.equal(numeric, closed), 0.0, np.abs(np.subtract(numeric, closed)))


def _collect(name, blocks, tol_scale) -> CheckResult:
    # defects in blocks (lists or arrays), one at a time, gated at name's tolerance times
    # tol_scale; a NaN fails and max() keeps it worst
    tol = CHECKS[name] * tol_scale
    points = failures = worst = 0
    for deltas in map(np.asarray, blocks):
        points += deltas.size
        failures += int(np.count_nonzero(~(deltas <= tol)))
        worst = np.max(deltas, initial=worst)
    return CheckResult(name=name, points=points, failures=failures, worst=float(worst), tol=tol)


def _chernoff_defects(decs, closed, dq, ds) -> None:
    # appends |numeric - closed| of q to dq and of s* to ds at every off-diagonal pair of the
    # stack, searched once per unordered pair: q(b, a) = q(a, b), s*(b, a) = 1 - s*(a, b);
    # ``closed`` is the (n, n, k) table whose first columns are q and s*
    n = len(decs.eigenvalues)
    numeric = np.empty((2, n, n))
    for i, j in _pairs(n, decs.eigenvalues.shape[-1], diagonal=False):
        q, s = linalg.qcb_kernels(decs[i], decs[j])
        numeric[:, i, j], numeric[:, j, i] = (q, s), (q, 1.0 - s)
    off = ~np.eye(n, dtype=bool)
    dq.append(_defects(numeric[0], closed[..., 0])[off])
    ds.append(_defects(numeric[1], closed[..., 1])[off])


def _werner_chernoff(a, b) -> tuple:
    # q and s* of qcb_werner, then 1 or 0 for each identity of its minimiser: an interior
    # critical point 0 < s* < 1, and local-minimum bracketing Q(s* +/- 1e-3) > q
    r = metrics.qcb_werner(a, b)
    interior = r.s_kind == "interior" and 0.0 < r.s_star < 1.0
    bracket = all(metrics.werner_qs(a, b, r.s_star + h) > r.q for h in (-1e-3, 1e-3))
    return r.q, r.s_star, interior, bracket


def _flip_sectors(d: int) -> tuple[np.ndarray, int]:
    # the eigenbasis u of the explicit flip F, ascending, so its antisymmetric sector
    # (F = -1) comes first, and that sector's size, counted from the signs of F's spectrum
    flip = linalg.eigh(states.flip_operator(d))
    return flip.eigenvectors, int(np.count_nonzero(flip.eigenvalues < 0.0))


def _sector_tables(block: np.ndarray, decs) -> np.ndarray:
    # (3, n, n) tables of F, D and R on one flip sector of the rotated states: F and D
    # once per unordered pair, mirrored; R both ways from one overlap
    n = len(block)
    fid, dist, rel = tables = np.empty((3, n, n))
    roots = linalg.spectral_sqrt(decs)
    for i, j in _pairs(n, block.shape[-1]):
        fid[i, j] = fid[j, i] = linalg.bures_fidelity_kernel(block[i], roots[j])
        dist[i, j] = dist[j, i] = linalg.trace_distance_numeric(block[i], block[j])
        rel[i, j], rel[j, i] = linalg._relative_entropies(decs[i], decs[j])
    return tables


def _block_diagonal(lo, hi) -> linalg.EigenDecomposition:
    # each state's whole decomposition, in the flip eigenbasis, from those of its two
    # sectors: eigenvalues sorted ascending (stably), block-diagonal eigenvectors whose
    # columns follow them
    w = np.concatenate([lo.eigenvalues, hi.eigenvalues], -1)
    (n, m), a = w.shape, lo.eigenvalues.shape[-1]
    v = np.zeros((n, m, m))
    v[:, :a, :a], v[:, a:, a:] = lo.eigenvectors, hi.eigenvectors
    order = np.argsort(w, axis=-1, kind="stable")
    return linalg.EigenDecomposition(
        np.take_along_axis(w, order, -1), np.take_along_axis(v, order[:, None, :], -1)
    )


def check_werner_oracles(grid_step, dims, iso_dims, tol_scale=1.0) -> tuple[CheckResult, ...]:
    # Closed forms tabulated once; per dimension, one explicit Werner stack rotated into
    # the eigenbasis of the explicit flip F, with which a Werner state commutes: its
    # off-sector entries are gated, each sector's block is decomposed once, and the (n, n)
    # pair tables add the sectors' F, D and R (an inf in either stays inf).  The Chernoff
    # search, and at each of ``iso_dims`` the s-overlap curves (against werner_qs, and
    # against isotropic states at alpha = d(1 + eta)/2: the substitution identity, the
    # premise of the shared Chernoff core in metrics), read the interior decompositions
    # assembled from the sectors'.  R - R^T is compared with delta_s on the interior,
    # sliced before subtracting (inf - inf at +/-1 is NaN).  Results in the CHECKS order.
    etas = discrimination.eta_grid(grid_step)
    pair_tables = {  # each pair table's closed form, and its oracle from (F, D, R) = (f, t, r)
        "fidelity-oracle": (metrics.fidelity_werner, lambda f, t, r: f),
        "trace-distance-oracle": (lambda a, b: abs(a - b) / 2.0, lambda f, t, r: t),
        "relative-entropy-oracle": (metrics.relative_entropy_werner, lambda f, t, r: r),
        "s-quantity-oracle": (
            metrics.s_quantity, lambda f, t, r: metrics.LN_SQRT2 * np.minimum(r, r.T)
        ),
        "fidelity-gap-oracle": (metrics.one_minus_fidelity_squared, lambda f, t, r: 1.0 - f * f),
    }
    closed = {name: _table(form, etas) for name, (form, _) in pair_tables.items()}
    chernoff = _table(_werner_chernoff, etas[1:-1], 4)
    asymmetry = _table(metrics.delta_s, etas[1:-1])
    overlaps = _table(lambda a, b: [metrics.werner_qs(a, b, s) for s in _CURVE_S], etas[1:-1], 3)
    found = {name: [] for name in closed}
    dq, ds, sub, qs, residual, asym = [], [], [], [], [], []
    for d in dims:
        u, a = _flip_sectors(d)
        rot = u.T @ _stack(states.werner_state, etas, d) @ u
        corners = (np.abs(x).max((-2, -1), initial=0.0) for x in (rot[:, :a, a:], rot[:, a:, :a]))
        residual.append(np.maximum(*corners))
        blocks = rot[:, :a, :a], rot[:, a:, a:]
        sectors = [_spectra(block) for block in blocks]
        fid, dist, rel = sum(map(_sector_tables, blocks, sectors))
        del rot, blocks
        for name, (_, oracle) in pair_tables.items():
            found[name].append(_defects(oracle(fid, dist, rel), closed[name]))
        inner_rel = rel[1:-1, 1:-1]
        asym.append(_defects(inner_rel - inner_rel.T, asymmetry))
        inner = _block_diagonal(*(x[1:-1] for x in sectors))
        del sectors
        _chernoff_defects(inner, chernoff, dq, ds)
        if d in iso_dims:
            iso = _spectra(_stack(states.isotropic_state, [d * (1 + e) / 2 for e in etas[1:-1]], d))
            for i, j in _pairs(len(etas) - 2, d * d, diagonal=False):
                for r, c in ((i, j), (j, i)):
                    iso_q = linalg.qcb_curve_kernel(iso[r], iso[c], _CURVE_S)
                    wer_q = linalg.qcb_curve_kernel(inner[r], inner[c], _CURVE_S)
                    sub.append(np.abs(iso_q - wer_q).max(-1))
                    qs.append(_defects(wer_q, overlaps[r, c]))
    s = chernoff[..., 1]
    off = ~np.eye(len(s), dtype=bool)
    critical = [np.abs(s + s.T - 1.0)[off], np.where(chernoff[off][:, 2:], 0.0, math.inf)]
    found.update({"qcb-oracle-q": dq, "qcb-oracle-s": ds, "critical-point-identities": critical,
                  "substitution-identity": sub, "qs-oracle": qs,
                  "flip-sector-residual": residual, "delta-s-oracle": asym})
    results = {name: _collect(name, blocks, tol_scale) for name, blocks in found.items()}
    return tuple(results[name] for name in CHECKS if name in results)


def check_qcb_isotropic_oracle(dims, tol_scale=1.0) -> tuple[CheckResult, CheckResult]:
    # the Chernoff q and s* of every off-diagonal pair at alpha = d i/10, i = 1..9
    dq, ds = [], []
    for d in dims:
        alphas = [d * i / 10 for i in range(1, 10)]
        closed = _table(lambda a, b: _q_and_s(metrics.qcb_isotropic(a, b, d)), alphas, 2)
        _chernoff_defects(_spectra(_stack(states.isotropic_state, alphas, d)), closed, dq, ds)
    return (_collect("qcb-isotropic-oracle", dq, tol_scale),
            _collect("qcb-isotropic-oracle-s", ds, tol_scale))


def _teleport_defects(etas, d, seed, samples) -> list[tuple[list[float], list[float]]]:
    # Per sample, from one stream: draw rho, then U; for each eta, teleport rho over
    # that channel's own state, and test covariance of the channel under U.  Each
    # bounded block of draws is drawn once and taken as one stack through every
    # step of every eta.  One (simulation, covariance) pair of defect lists per eta.
    channels = [(states.werner_state(eta, d), states.HWChannel(eta, d)) for eta in etas]
    rng = np.random.default_rng(np.random.SeedSequence((seed, d)))
    defects = [([], []) for _ in channels]
    for at in linalg._blocks(samples, d):
        # per draw, rho's two d x d Gaussians come first, then U's two
        normals = rng.normal(size=(len(range(samples)[at]), 4, d, d))
        rho = linalg.random_density_matrix(d, normals[:, :2])
        u = linalg.random_unitary(d, normals[:, 2:])
        for (resource, channel), (sim, cov) in zip(channels, defects):
            teleported = teleport.teleport_channel(resource, rho)
            sim.extend(linalg.trace_distance_numeric(teleported, channel.apply(rho)))
            cov.extend(teleport.covariance_check(channel, u, rho))
    return defects


def check_teleport(seed, tol_scale=1.0) -> tuple[CheckResult, CheckResult]:
    # Every eta at one d is checked on that d's seeded draws, drawn once, one block of
    # defects each.
    etas = (-1.0, -0.5, 0.0, 0.5, 1.0)
    sim, cov = zip(*(pair for d in (2, 3) for pair in _teleport_defects(etas, d, seed, 20)))
    return (_collect("teleport-simulation", sim, tol_scale),
            _collect("teleport-covariance", cov, tol_scale))


def check_helstrom_explicit(tol_scale=1.0) -> CheckResult:
    # n-copy exact error from explicit tensor-power matrices (d = 2).
    deltas = []
    pairs = [(0.5, 0.0), (0.8, 0.2), (-0.4, 0.3), (1.0, 0.0)]
    for eta, zeta in pairs:
        rho = states.werner_state(eta, 2)
        sigma = states.werner_state(zeta, 2)
        rho_n, sigma_n = rho, sigma
        for n in (1, 2, 3):
            explicit = 0.5 * (1.0 - linalg.trace_distance_numeric(rho_n, sigma_n))
            combinatorial = metrics.helstrom_multicopy_werner(eta, zeta, 2, n)
            deltas.append(abs(explicit - combinatorial))
            if n < 3:
                rho_n = linalg.tensor_product(rho_n, rho)
                sigma_n = linalg.tensor_product(sigma_n, sigma)
    return _collect("helstrom-explicit", [deltas], tol_scale)


def check_estimation_saturation(seed, tol_scale=1.0) -> CheckResult:
    # |empirical variance * QFI - 1| per tested eta.
    deltas = []
    for eta in (0.0, 0.3, 0.6, -0.9):
        report = metrology.simulate_estimation(eta, n=1000, trials=40_000, seed=seed)
        deltas.append(abs(report.empirical_variance * report.qfi - 1.0))
    return _collect("estimation-saturation", [deltas], tol_scale)


def check_delta_s_sign(tol_scale=1.0) -> CheckResult:
    # Directed-entropy asymmetry must be strictly negative for |eta| > |zeta|.
    etas = discrimination.eta_grid(0.05)[1:-1]
    deltas = []
    for a in etas:
        for b in etas:
            if abs(a) > abs(b):
                deltas.append(0.0 if metrics.delta_s(a, b) < 0.0 else math.inf)
    return _collect("delta-s-sign", [deltas], tol_scale)


def check_sandwich_ordering(grid_step, tol_scale=1.0) -> CheckResult:
    # Every (zeta, n, eta) of the grid, n = 1..20, as the columns of blocks of zetas of at
    # most 2^16 entries a column (linalg._blocks; one zeta at least), each reduced as it is
    # made, so memory does not grow with the grid: the largest breach of 0 <= lower <=
    # helstrom_block <= qcb_upper <= fid_upper <= 1/2, or 0; maximum() keeps a NaN in any
    # column.
    etas, ns = discrimination.eta_grid(grid_step), range(1, 21)
    cols = (
        discrimination._sandwiches(etas, etas[at], ns)
        for at in linalg._blocks(len(etas), 1, tables=len(ns) * len(etas))
    )
    chains = ((0.0, c.lower, c.helstrom_block, c.qcb_upper, c.fid_upper, 0.5) for c in cols)
    blocks = (reduce(np.maximum, map(np.subtract, chain, chain[1:]), 0.0) for chain in chains)
    return _collect("sandwich-ordering", blocks, tol_scale)


def run_verification(
    grid_step: float = 0.1,
    dims: tuple[int, ...] = (2, 3, 4, 5, 6),
    seed: int = DEFAULT_SEED,
    tol_scale: float = 1.0,
) -> list[CheckResult]:
    """Run every check of CHECKS, in its order, each tolerance times ``tol_scale`` in (0, 1]."""
    seed = states._check_seed(seed)
    dims = tuple(states._check_pair_dim(d) for d in dims)
    if not dims:
        raise InvalidParameterError("no dimension to verify")
    if len(set(dims)) < len(dims):
        raise InvalidParameterError(f"dimensions {list(dims)} repeat a dimension")
    if not 0.0 < tol_scale <= 1.0:
        raise InvalidParameterError(
            f"tolerance scale must be finite and positive, and at most 1 so that it only "
            f"tightens the gates, got {tol_scale}"
        )
    work = len(discrimination.eta_grid(grid_step)) ** 2 * sum(d**4 for d in dims)
    if work > VERIFY_WORK_CAP:
        raise DimensionOverflowError(
            f"verification work (grid points)^2 x sum d^4 = {work} exceeds cap {VERIFY_WORK_CAP}"
        )
    # the isotropic checks run at the dims up to 4, or else the smallest: the substitution
    # identity and the Q_s oracle read the Werner sweep at each
    iso_dims = tuple(d for d in dims if d <= 4) or (min(dims),)
    results = (
        *check_werner_oracles(grid_step, dims, iso_dims, tol_scale),
        *check_qcb_isotropic_oracle(iso_dims, tol_scale),
        *check_teleport(seed, tol_scale),
        check_helstrom_explicit(tol_scale),
        check_estimation_saturation(seed, tol_scale),
        check_delta_s_sign(tol_scale),
        check_sandwich_ordering(grid_step, tol_scale),
    )
    by_name = {r.name: r for r in results}
    return [by_name[name] for name in CHECKS]


def teleport_check(eta: float, d: int, seed: int, samples: int) -> dict:
    """Worst simulation and covariance defects for one (eta, d)."""
    samples = states._check_positive_int(samples, "sample count", TELEPORT_SAMPLE_CAP)
    work = samples * teleport._check_teleport_dim(states._check_pair_dim(d)) ** 6
    if work > TELEPORT_WORK_CAP:
        raise DimensionOverflowError(f"samples x d^6 = {work} exceeds cap {TELEPORT_WORK_CAP}")
    seed = states._check_seed(seed)
    [(sim, cov)] = _teleport_defects([eta], d, seed, samples)
    return {
        "simulation_defect": float(np.max(sim)),  # a NaN defect is the maximum
        "covariance_defect": float(np.max(cov)),
        "tolerance": TELEPORT_TOL,
        "samples": samples,
    }
