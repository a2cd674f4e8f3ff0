import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from wernerlab import cli, discrimination, linalg, metrics, metrology, states, teleport, verify
from wernerlab.errors import DimensionOverflowError, InvalidParameterError, NotUnitaryError

# points examined by each check of one default run_verification()
DEFAULT_POINTS = {
    "fidelity-oracle": 2205,
    "trace-distance-oracle": 2205,
    "relative-entropy-oracle": 2205,
    "qcb-oracle-q": 1710,
    "qcb-oracle-s": 1710,
    "qcb-isotropic-oracle": 216,
    "qcb-isotropic-oracle-s": 216,
    "critical-point-identities": 1026,
    "substitution-identity": 1026,
    "qs-oracle": 3078,
    "s-quantity-oracle": 2205,
    "fidelity-gap-oracle": 2205,
    "flip-sector-residual": 105,
    "delta-s-oracle": 1805,
    "qfi-oracle": 95,
    "qfi-attained": 95,
    "teleport-simulation": 200,
    "teleport-covariance": 200,
    "helstrom-explicit": 12,
    "delta-s-sign": 722,
    "sandwich-ordering": 8820,
}


# the Werner sweep's five tables of every ordered pair of the grid
PAIR_TABLES = ("fidelity-oracle", "trace-distance-oracle", "relative-entropy-oracle",
               "s-quantity-oracle", "fidelity-gap-oracle")


def test_the_check_table_is_pinned():
    # every check's name, printed place and base tolerance, written out, so that a
    # loosened or moved row fails here; the point counts above follow the same order
    assert list(verify.CHECKS.items()) == [
        ("fidelity-oracle", 1e-12),
        ("trace-distance-oracle", 1e-10),
        ("relative-entropy-oracle", 1e-9),
        ("qcb-oracle-q", 1e-12),
        ("qcb-oracle-s", 1e-8),
        ("qcb-isotropic-oracle", 1e-12),
        ("qcb-isotropic-oracle-s", 1e-8),
        ("critical-point-identities", 1e-12),
        ("substitution-identity", 1e-12),
        ("qs-oracle", 1e-12),
        ("s-quantity-oracle", 1e-12),
        ("fidelity-gap-oracle", 1e-12),
        ("flip-sector-residual", 1e-12),
        ("delta-s-oracle", 1e-12),
        ("qfi-oracle", 1e-12),
        ("qfi-attained", 1e-12),
        ("teleport-simulation", 1e-10),
        ("teleport-covariance", 1e-10),
        ("helstrom-explicit", 1e-10),
        ("delta-s-sign", 0.0),
        ("sandwich-ordering", 1e-10),
    ]
    assert list(DEFAULT_POINTS) == list(verify.CHECKS)


@pytest.mark.parametrize("unmatched", ["row-without-a-check", "result-without-a-row"])
def test_results_and_table_rows_match_one_to_one(monkeypatch, unmatched):
    # a table row that no check produces, or a result whose name the table lacks, fails
    # the run loudly instead of dropping out of the report
    if unmatched == "row-without-a-check":
        monkeypatch.setitem(verify.CHECKS, "x", 1.0)
    else:
        monkeypatch.delitem(verify.CHECKS, "qs-oracle")
    with pytest.raises(KeyError):
        verify.run_verification(grid_step=0.5, dims=(2,))


def by_name(results) -> dict:
    return {r.name: r for r in results}


@pytest.fixture(scope="module")
def default_werner_oracles():
    # one Werner sweep at the default grid, dims and isotropic dims, by name, shared by
    # the pinned-value tests
    return by_name(verify.check_werner_oracles(0.1, (2, 3, 4, 5, 6), (2, 3, 4)))


def count_eigh(monkeypatch, names=("eigh", "eigvalsh")) -> list:
    # one entry per matrix decomposed, with eigenvectors (eigh) or without
    # (eigvalsh): a stacked call adds one per member
    calls = []
    for name in names:
        real = getattr(linalg, name)

        def counting(a, real=real):
            calls.extend([a.shape[-2:]] * math.prod(a.shape[:-2]))
            return real(a)

        monkeypatch.setattr(linalg, name, counting)
    return calls


def test_qcb_sweep_decomposes_each_state_once(monkeypatch):
    # the four Werner oracles share one decomposition per eta and flip sector, the
    # 3 x 3 antisymmetric and 6 x 6 symmetric blocks (the Chernoff oracle reads the
    # 19 interior ones of each), not one per oracle or two per pair; beside
    # those, the flip itself is decomposed once, and the substitution identity reads
    # the same 19 and decomposes only its isotropic states (21 + 19 decompositions,
    # all 9 x 9, when each whole state was decomposed once)
    calls = count_eigh(monkeypatch, ("eigh",))
    points = {r.name: r.points for r in verify.check_werner_oracles(0.1, (3,), (3,))}
    assert points == {
        **dict.fromkeys(PAIR_TABLES, 21 * 21),
        **dict.fromkeys(("qcb-oracle-q", "qcb-oracle-s", "substitution-identity"), 19 * 18),
        "critical-point-identities": 3 * 19 * 18,
        "qs-oracle": 3 * 19 * 18,
        "flip-sector-residual": 21,
        "delta-s-oracle": 19 * 19,
        "qfi-oracle": 19,
        "qfi-attained": 19,
    }
    assert Counter(calls) == {(3, 3): 21, (6, 6): 21, (9, 9): 1 + 19}


@pytest.mark.parametrize("d", range(2, 8))
def test_flip_sectors_are_counted_from_the_spectrum(d):
    # the antisymmetric sector of F, counted from the signs of its eigenvalues, is
    # d(d - 1)/2 and comes first; the basis is orthogonal and diagonalises F
    u, a = verify._flip_sectors(d)
    assert a == d * (d - 1) // 2
    assert np.abs(u.T @ u - np.eye(d * d)).max() < 1e-14
    signs = np.diag(u.T @ states.flip_operator(d) @ u)
    assert np.allclose(signs, [-1.0] * a + [1.0] * (d * d - a), rtol=0, atol=1e-14)


def test_werner_pair_kernels_decompose_only_sector_blocks(monkeypatch):
    # at d = 6, no pair kernel of the Werner sweep decomposes a matrix above 21 x 21:
    # F and D take one eigvalsh a unordered pair in each sector (231 pairs of 21
    # states); the 36 x 36 ones are the flip and the 19 isotropic states
    eigvalsh = count_eigh(monkeypatch, ("eigvalsh",))
    eigh = count_eigh(monkeypatch, ("eigh",))
    verify.check_werner_oracles(0.1, (6,), (6,))
    assert Counter(eigvalsh) == {(15, 15): 2 * 231, (21, 21): 2 * 231}
    assert Counter(eigh) == {(15, 15): 21, (21, 21): 21, (36, 36): 1 + 19}


def _assembled(lo, hi) -> linalg.EigenDecomposition:
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


@pytest.mark.parametrize("d", [2, 3, 6])
def test_sector_decompositions_assemble_the_whole_state(d):
    # the block-diagonal assembly of the two sectors' decompositions has ascending
    # eigenvalues, those of the whole state to round-off, orthogonal eigenvectors, and
    # rebuilds the rotated state
    etas = discrimination.eta_grid(0.2)
    u, a = verify._flip_sectors(d)
    rot = u.T @ states.werner_state(etas, d) @ u
    whole = _assembled(*(linalg.clamped_spectrum(x) for x in (rot[:, :a, :a], rot[:, a:, a:])))
    w, v = whole.eigenvalues, whole.eigenvectors
    assert np.all(np.diff(w, axis=-1) >= 0.0)
    assert np.abs(w - linalg.clamped_spectrum(rot).eigenvalues).max() <= 1e-15
    assert np.abs(np.swapaxes(v, -1, -2) @ v - np.eye(d * d)).max() <= 1e-14
    assert np.abs((v * w[:, None, :]) @ np.swapaxes(v, -1, -2) - rot).max() <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 6, 8])
def test_sector_sum_search_equals_the_whole_state_search(d):
    # every ordered pair of the 0.1 grid, as the sweep reads them (its two flip sectors)
    # and assembled into whole states: q within 1e-15 and s* within 1e-12; W(+-1), whose
    # other sector is 0, against a full-rank state ends at the bracket, 1e-9 (1 - 1e-9
    # the other way round), as the whole search does; W(1) and W(-1) are orthogonal, so
    # q = 0 and the search stops at 1e-9
    u, a = verify._flip_sectors(d)
    rot = u.T @ states.werner_state(discrimination.eta_grid(0.1), d) @ u
    sectors = [linalg.clamped_spectrum(rot[:, :a, :a]), linalg.clamped_spectrum(rot[:, a:, a:])]
    whole = _assembled(*sectors)
    n = len(whole.eigenvalues)
    i, j = (x.ravel() for x in np.indices((n, n)))
    q, s, whole_q, whole_s = np.empty((4, n * n))
    for at in linalg._blocks(n * n, d * d, tables=3):
        rows, cols = verify._take(sectors, i[at]), verify._take(sectors, j[at])
        q[at], s[at] = linalg.qcb_kernels(rows, cols)
        whole_q[at], whole_s[at] = linalg.qcb_kernels([whole[i[at]]], [whole[j[at]]])
    assert np.abs(q - whole_q).max() <= 1e-15
    assert np.abs(s - whole_s).max() <= 1e-12
    q, s, whole_s = (x.reshape(n, n) for x in (q, s, whole_s))
    inner = slice(1, -1)
    for end in (0, n - 1):
        assert np.all(s[end, inner] == 1e-9) and np.all(whole_s[end, inner] == 1e-9)
        assert np.all(s[inner, end] == 1.0 - 1e-9) and np.all(whole_s[inner, end] == 1.0 - 1e-9)
    assert q[0, -1] == q[-1, 0] == 0.0
    assert s[0, -1] == s[-1, 0] == 1e-9


def test_chernoff_tables_are_sector_tables(monkeypatch):
    # at d = 6 every overlap table of the Werner states is a 15 x 15 or 21 x 21 sector
    # table: per sector, 231 pairs of the relative entropies, 171 of the Chernoff search
    # and 171 unordered pairs of the overlap curves, each pair's reversed curve read
    # backwards in s; the 36 x 36 ones are the isotropic states' curves alone, 171 pairs
    tables = Counter()
    real = linalg._overlap

    def counting(*args, **kwargs):
        o = real(*args, **kwargs)
        tables[o.shape[-2:]] += math.prod(o.shape[:-2])
        return o

    monkeypatch.setattr(linalg, "_overlap", counting)
    verify.check_werner_oracles(0.1, (6,), (6,))
    sector = 231 + 171 + 171
    assert tables == {(15, 15): sector, (21, 21): sector, (36, 36): 171}


def test_curve_s_is_symmetric_about_one_half():
    # the premise of reading a pair's reversed curve as its curve read backwards
    s = np.array(verify._CURVE_S)
    assert np.array_equal(1.0 - s, s[::-1])


@pytest.mark.parametrize("d", [2, 4, 6])
def test_reversed_curve_is_the_curve_at_one_minus_s(d):
    # Tr(sigma^s rho^(1-s)) from (sigma, rho) at s against (rho, sigma) at 1 - s, on the
    # Werner sector stacks and isotropic stacks of the 0.1 grid's interior: at most 8 ulps
    # apart (4 measured, at d = 6)
    s = np.array(verify._CURVE_S)
    etas = discrimination.eta_grid(0.1)[1:-1]
    i, j = np.triu_indices(len(etas), 1)
    u, a = verify._flip_sectors(d)
    rot = u.T @ states.werner_state(etas, d) @ u
    sectors = [linalg.clamped_spectrum(block) for block in (rot[:, :a, :a], rot[:, a:, a:])]
    iso = linalg.clamped_spectrum(states.isotropic_state([d * (1 + e) / 2 for e in etas], d))
    for rho, sigma in ((verify._take(sectors, i), verify._take(sectors, j)), ([iso[i]], [iso[j]])):
        back = linalg.qcb_curve_kernel(sigma, rho, s)
        mirrored = linalg.qcb_curve_kernel(rho, sigma, 1.0 - s)
        assert np.all(np.abs(back - mirrored) <= 8 * np.spacing(np.maximum(back, mirrored)))


def _sector_coupled(eta, d):
    # the Werner state plus 1e-9 (|00><a| + |a><00|), |a> = (|01> - |10>)/sqrt 2: a real
    # symmetric term that F turns into its negative, so it couples the two sectors alone
    p = np.zeros((d * d, d * d))
    p[0, 1], p[0, d] = 2**-0.5, -(2**-0.5)
    return _werner_state(eta, d) + 1e-9 * (p + p.T)


_werner_state = states.werner_state


def test_off_sector_mass_fails_the_residual_alone(monkeypatch):
    # the sector oracles cannot see a coupling of the sectors, so it fails the residual
    # gate on every state at grid 0.2, d = 2, 3, and no other check of the run
    monkeypatch.setattr(states, "werner_state", _sector_coupled)
    results = {r.name: r for r in verify.run_verification(grid_step=0.2, dims=(2, 3))}
    assert [name for name, r in results.items() if not r.passed] == ["flip-sector-residual"]
    residual = results["flip-sector-residual"]
    assert residual.failures == residual.points == 2 * 11
    assert residual.worst == pytest.approx(1e-9, rel=1e-6)


def test_scaled_entropy_asymmetry_fails_its_oracle_alone(monkeypatch):
    # delta_s off by a factor 1 + 1e-9 keeps its sign, so delta-s-sign passes; the
    # oracle's R - R^T catches it on 60 of the 81 interior pairs a dimension at grid 0.2
    # (it passes the diagonal and the pairs (eta, -eta), where delta_s is 0, and the four
    # pairs of 0 with +/-0.2, where |delta_s| is 4e-4)
    exact = metrics.delta_s
    monkeypatch.setattr(metrics, "delta_s", lambda a, b: exact(a, b) * (1 + 1e-9))
    results = verify.run_verification(grid_step=0.2, dims=(2, 3))
    assert [r.name for r in results if not r.passed] == ["delta-s-oracle"]
    failed = by_name(results)["delta-s-oracle"]
    assert (failed.failures, failed.points) == (120, 2 * 81)


def test_entropy_asymmetry_oracle_worst_is_pinned(default_werner_oracles):
    # bit-identity guard on R - R^T of the sector-summed relative-entropy table
    result = default_werner_oracles["delta-s-oracle"]
    assert result.points == DEFAULT_POINTS["delta-s-oracle"] == 5 * 19 * 19
    assert result.worst == float.fromhex("0x1.c8p-48")


def test_default_run_point_counts(monkeypatch):
    # the fidelity and trace distance take one eigvalsh a unordered pair and flip
    # sector, 5 x 231 x 2 each, and each Werner state is decomposed once per sector,
    # 5 x 21 x 2, beside the five flips: 5,331 smaller matrices (2,911 while each whole
    # state and pair was decomposed, 5,011 while each ordered pair was); the results
    # come in the table's order at its tolerances, 32,061 points; neither the Q_s
    # oracle's 3,078 nor the Fisher-information rows' 2 x 95 decompose anything
    calls = count_eigh(monkeypatch)
    results = verify.run_verification()
    assert [(r.name, r.points, r.tol) for r in results] == [
        (name, DEFAULT_POINTS[name], tol) for name, tol in verify.CHECKS.items()
    ]
    assert sum(r.points for r in results) == 32_061
    assert len(calls) == 5331


def test_default_run_counted_work(monkeypatch):
    # the Werner states built and the LAPACK eigendecompositions (with eigenvectors)
    # of one default run: one Werner sweep per dimension, with the flip and one stacked
    # call per flip sector and stack block (the four Werner oracles built 485 states and
    # made 24 calls when each built and decomposed its own; 180 and 14 while the
    # substitution identity built its own Werner stack; 123 and 11 while each whole
    # Werner stack was decomposed); a stacked call counts each state it builds, and there
    # are 15 calls: one stack per Werner sweep and teleport dimension, 8 scalar ones; the
    # Fisher-information rows build and decompose nothing, reading the sweep's own stack
    calls, built, lapack = [], [], []
    werner, eigh = states.werner_state, np.linalg.eigh

    def counting(eta, d):
        w = werner(eta, d)
        calls.append(eta)
        built.extend(w.reshape(-1, d * d, d * d))
        return w

    monkeypatch.setattr(states, "werner_state", counting)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: lapack.append(a.shape) or eigh(a))
    verify.run_verification()
    assert len(built) == 123
    assert len(calls) == 15
    assert len(lapack) == 21


# the two Fisher-information rows: the SLD sum (the bound) and the symmetric projector's
# classical information (its attainment)
QFI_ROWS = ("qfi-oracle", "qfi-attained")


def test_fisher_information_worsts_are_pinned(default_werner_oracles):
    # bit-identity guard on both rows at the default grid and dims, 19 interior states
    # a dimension, each |value / qfi_werner - 1|
    sld, attained = (default_werner_oracles[name] for name in QFI_ROWS)
    assert sld.points == attained.points == DEFAULT_POINTS["qfi-oracle"] == 5 * 19
    assert sld.worst == float.fromhex("0x1.6p-49")
    assert attained.worst == float.fromhex("0x1.88p-48")


def test_scaled_fisher_information_fails_both_rows_alone(monkeypatch):
    # qfi_werner off by a factor 1 + 1e-9 fails both rows on every interior point (3 a
    # dimension at grid 0.5), and no other check; the Monte-Carlo check these rows
    # replaced, gated at 5 %, passed a factor 1.01
    exact = metrology.qfi_werner
    monkeypatch.setattr(metrology, "qfi_werner", lambda eta, n=1: exact(eta, n) * (1 + 1e-9))
    results = verify.run_verification(grid_step=0.5, dims=(2, 3))
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == list(QFI_ROWS)
    assert all(r.failures == r.points == 2 * 3 for r in failed)


def test_an_sld_kernel_that_drops_a_sector_fails_the_oracle_alone(monkeypatch):
    # the symmetric sector's sum alone is 1/(2(1 + eta)), not 1/(1 - eta^2), on every
    # interior point; the attained row reads no kernel
    real = linalg.sld_qfi_kernel
    monkeypatch.setattr(linalg, "sld_qfi_kernel", lambda decs, d_rhos: real(decs[1:], d_rhos[1:]))
    results = verify.run_verification(grid_step=0.5, dims=(2, 3))
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["qfi-oracle"]
    assert failed[0].failures == failed[0].points == 2 * 3


def test_qcb_oracle_worst_is_pinned(default_werner_oracles):
    # bit-identity guard on the Chernoff search: a change to the search
    # that still passed its tolerances would move these values (s* was
    # 0x1.7c8p-45 while the search also ran on (b, a), not 1 - s*(a, b); q and s*
    # were 0x1.2p-50 and 0x1.85p-45 while it read whole-state decompositions, and
    # 0x1.cp-51 and 0x1.73p-45 while it read them assembled from the flip sectors')
    q, s = default_werner_oracles["qcb-oracle-q"], default_werner_oracles["qcb-oracle-s"]
    assert q.points == s.points == 1710
    assert q.worst == float.fromhex("0x1.8p-51")
    assert s.worst == float.fromhex("0x1.71p-45")


def test_shifted_chernoff_minimiser_is_caught(monkeypatch):
    # a closed-form s* off by 5e-5 fails qcb-oracle-s, and only the shift does
    def run():
        return {r.name: r for r in verify.run_verification(grid_step=0.2, dims=(2, 3))}

    assert run()["qcb-oracle-s"].passed
    exact = metrics.qcb_werner
    monkeypatch.setattr(
        metrics, "qcb_werner", lambda a, b: replace(exact(a, b), s_star=exact(a, b).s_star + 5e-5)
    )
    results = run()
    assert not results["qcb-oracle-s"].passed
    assert results["qcb-oracle-s"].failures == results["qcb-oracle-s"].points
    assert results["qcb-oracle-q"].passed


def test_shifted_isotropic_chernoff_minimiser_is_caught(monkeypatch):
    # the isotropic closed form's s* off by 5e-5 fails qcb-isotropic-oracle-s on every
    # point, while its q still passes qcb-isotropic-oracle
    def run():
        return {r.name: r for r in verify.run_verification(grid_step=0.2, dims=(2, 3))}

    assert run()["qcb-isotropic-oracle-s"].passed
    exact = metrics.qcb_isotropic
    monkeypatch.setattr(
        metrics,
        "qcb_isotropic",
        lambda a, b, d: replace(exact(a, b, d), s_star=exact(a, b, d).s_star + 5e-5),
    )
    results = run()
    shifted = results["qcb-isotropic-oracle-s"]
    assert shifted.points == 144
    assert shifted.failures == shifted.points
    assert results["qcb-isotropic-oracle"].passed


# the ids keep the names of the per-pair check functions the Werner sweep replaced; the
# fidelity and relative entropy read 0x1.0p-49 and 0x1.0p-47 on whole states, not on
# their flip sectors
@pytest.mark.parametrize(
    "name, worst",
    [
        pytest.param("fidelity-oracle", "0x1.4p-51", id="check_fidelity_oracle-0x1.4p-51"),
        pytest.param("trace-distance-oracle", "0x1.8p-52", id="check_trace_distance_oracle-0x1.8p-52"),
        pytest.param(
            "relative-entropy-oracle", "0x1.cp-48", id="check_relative_entropy_oracle-0x1.cp-48"
        ),
    ],
)
def test_pair_oracle_worst_is_pinned(default_werner_oracles, name, worst):
    # bit-identity guard on the stacked per-pair oracles at the default grid
    # and dims: a change to their numerics that still passed would move these; the
    # sweep's fourteen results come in the table's order
    names = list(default_werner_oracles)
    assert len(names) == 14 and names == [n for n in verify.CHECKS if n in names]
    result = default_werner_oracles[name]
    assert result.points == 2205
    assert result.worst == float.fromhex(worst)


def test_substitution_identity_worst_is_pinned(default_werner_oracles):
    # bit-identity guard on the Chernoff overlap curve (qcb_curve_kernel) at
    # the default grid and isotropic dims (0x1.ap-50 on whole-state decompositions,
    # 0x1.6p-50 on whole ones assembled from the flip sectors'; unmoved when each pair's
    # reversed curves became its curves read backwards in s)
    result = default_werner_oracles["substitution-identity"]
    assert result.points == DEFAULT_POINTS["substitution-identity"]
    assert result.worst == float.fromhex("0x1.4p-50")


def test_qs_oracle_worst_is_pinned(default_werner_oracles):
    # bit-identity guard on the Werner overlap curves against werner_qs at s = 0.25,
    # 0.5 and 0.75, on the substitution identity's 1,026 ordered pairs (513 curves, each
    # also read backwards in s for its reversed pair)
    result = default_werner_oracles["qs-oracle"]
    assert result.points == DEFAULT_POINTS["qs-oracle"] == 3 * 1026
    assert result.worst == float.fromhex("0x1.8p-51")


def test_qcb_oracle_memory_does_not_grow_with_the_coarse_pass():
    # the search's tables are built in bounded blocks: the traced peak was
    # 1.2 MB with per-pair coarse curves, 1.4 MB with 2^14-entry chunks and
    # 2.5 MB with 2^16-entry ones; 1.4 MB again with each rho set against
    # 2^16-entry sigma^(1-s) tables, and with the Newton search's three
    # tables filled in place in blocks of 2^16 entries (1.9 MB when the
    # tables were stacked from separate products); 1.5 MB for the one Werner
    # sweep of all four oracles, whose roots are freed before the search, with
    # or without the substitution identity
    tracemalloc.start()
    try:
        verify.check_werner_oracles(0.1, (6,), (6,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_pair_oracle_memory_is_bounded_by_the_stack_blocks():
    # 101 d = 6 states a row span three 2^16-entry stacks: the fidelity sweep
    # alone read 4.6 MB with per-pair calls and 15 MB with one stack per row;
    # the one Werner sweep of all four oracles reads 5.3 MB, and 6.2 MB with the
    # substitution identity's 99 isotropic states
    tracemalloc.start()
    try:
        verify.check_werner_oracles(0.02, (6,), (6,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9_200_000


def test_qcb_checks_without_pairs_fail():
    # grid 1.0 leaves no off-diagonal interior pair: an empty batch, 0 points,
    # while the pair oracles of the same sweep examine every pair of the grid
    results = by_name(verify.check_werner_oracles(1.0, (2,), (2,)))
    empty = ("qcb-oracle-q", "qcb-oracle-s", "critical-point-identities",
             "substitution-identity", "qs-oracle")
    assert all(results[name].points == 0 and not results[name].passed for name in empty)
    assert all(results[name].points == 9 and results[name].passed for name in PAIR_TABLES)
    residual, asym = results["flip-sector-residual"], results["delta-s-oracle"]
    assert residual.points == 3 and residual.passed
    # the one interior point, eta = 0, against itself
    assert asym.points == 1 and asym.passed
    # and that point's Fisher information, both ways
    assert all(results[name].points == 1 and results[name].passed for name in QFI_ROWS)


def test_fisher_information_rows_without_an_interior_fail():
    # grid 2.0 is eta = -1, 1 alone, where the information is infinite: no point, so
    # both rows fail
    results = by_name(verify.run_verification(grid_step=2.0, dims=(2,)))
    assert all(results[name].points == 0 and not results[name].passed for name in QFI_ROWS)


def _triangle(blocks) -> list[tuple[int, int]]:
    return [(int(i), int(j)) for rows, cols in blocks for i, j in zip(rows, cols)]


@pytest.mark.parametrize("dim", [4, 16, 36])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 21, 101])
def test_pairs_yield_every_ordered_pair_once_in_bounded_blocks(n, dim):
    # the triangle i <= j row by row, each unordered pair once, and with its mirror
    # (j, i) every ordered pair once; diagonal=False drops exactly the n pairs (i, i),
    # so n = 0 and n = 1 leave none; every block holds at most _STACK_ENTRIES entries
    # of three dim x dim tables a pair
    every = [(i, j) for i in range(n) for j in range(n)]
    for diagonal in (True, False):
        triangle = [(i, j) for i, j in every if i < j or (diagonal and i == j)]
        blocks = list(verify._pairs(n, dim, diagonal))
        got = _triangle(blocks)
        assert got == triangle
        mirrored = got + [(j, i) for i, j in got if i != j]
        assert sorted(mirrored) == [(i, j) for i, j in every if diagonal or i != j]
        assert all(len(rows) * 3 * dim * dim <= linalg._STACK_ENTRIES for rows, _ in blocks)
    assert len(_triangle(verify._pairs(n, dim))) - len(got) == n


@pytest.mark.parametrize("diagonal, mid_row", [(True, 13), (False, 12)])
def test_pair_blocks_start_mid_row(diagonal, mid_row):
    # the CI run at grid 0.01, d = 2: 201 states, whose triangle of 20,301 pairs (20,100
    # off the diagonal) spans 15 blocks of at most 1,365, each found from its flat range;
    # all but the first one or two start mid-row, and none exceeds _STACK_ENTRIES
    blocks = list(verify._pairs(201, 4, diagonal))
    assert len(blocks) == 15
    assert sum(cols[0] != rows[0] + (not diagonal) for rows, cols in blocks) == mid_row
    assert all(len(rows) * 3 * 16 <= linalg._STACK_ENTRIES for rows, _ in blocks)
    got = _triangle(blocks)
    assert len(got) == len(set(got)) == 201 * (201 + 1 - 2 * (not diagonal)) // 2
    assert all(i < j or (diagonal and i == j) for i, j in got)


def test_pair_blocks_of_the_sweeps():
    # the 17 x 18 / 2 pairs i <= j of d^2 = 16 states span two blocks; the d = 6
    # sweep's 190 pairs of 19 states, 12, and the Chernoff sweep's 171 off the
    # diagonal, 11 (4, 23 and 22 blocks while every ordered pair was taken); on the
    # flip sectors of 15 and 21 rows, 6, and of 10 and 15 rows (d = 5), 3 (6 on whole
    # states)
    assert len(list(verify._pairs(17, 16))) == 2
    assert len(list(verify._pairs(19, 36))) == 12
    assert len(list(verify._pairs(19, 36, diagonal=False))) == 11
    assert len(list(verify._pairs(19, (15, 21), diagonal=False))) == 6
    assert len(list(verify._pairs(19, (10, 15), diagonal=False))) == 3
    assert len(list(verify._pairs(19, 25, diagonal=False))) == 6
    assert all(len(rows) * 3 * (15**2 + 21**2) <= linalg._STACK_ENTRIES
               for rows, _ in verify._pairs(19, (15, 21), diagonal=False))


def test_werner_sweep_does_not_depend_on_the_block_size(monkeypatch):
    # five pairs a block at d = 3 (1,215 entries), most blocks starting mid-row, give the
    # default blocks' results, bit for bit
    expected = verify.check_werner_oracles(0.1, (3,), (3,))
    monkeypatch.setattr(linalg, "_STACK_ENTRIES", 5 * 3 * 81)
    assert len(list(verify._pairs(21, 9))) == 47
    got = verify.check_werner_oracles(0.1, (3,), (3,))
    assert got == expected
    assert [r.worst.hex() for r in got] == [r.worst.hex() for r in expected]


@pytest.mark.parametrize("d", [2, 3])
def test_mirrored_oracles_are_symmetric_to_round_off(d):
    # the kernels on every ordered pair of grid 0.2, in both orders: the sweep takes F, D
    # and the Chernoff q and s* once per unordered pair and mirrors them, which hides at
    # most this much (measured: at most 9e-16 here, and on the default grid and dims
    # 1.2e-15 for F, D and q and 7.8e-15 for s* + s*^T - 1)
    etas = discrimination.eta_grid(0.2)
    ws = states.werner_state(etas, d)
    decs = linalg.clamped_spectrum(ws)
    n, m = len(etas), len(etas) - 2
    i, j = (x.ravel() for x in np.indices((n, n)))
    fid = np.reshape(linalg.bures_fidelity_kernel(ws[i], linalg.spectral_sqrt(decs)[j]), (n, n))
    dist = np.reshape(linalg.trace_distance_numeric(ws[i], ws[j]), (n, n))
    i, j = (x.ravel() for x in np.indices((m, m)))
    q, s = (np.reshape(x, (m, m)) for x in linalg.qcb_kernels([decs[1:-1][i]], [decs[1:-1][j]]))
    assert np.abs(fid - fid.T).max() <= 1e-13
    assert np.abs(dist - dist.T).max() <= 1e-13
    assert np.abs(q - q.T).max() <= 1e-13
    off = ~np.eye(m, dtype=bool)
    assert np.abs(s + s.T - 1.0)[off].max() <= 1e-12


def test_closed_forms_are_tabulated_once_per_grid(monkeypatch):
    # each dimension-free closed form is taken once per ordered pair of the grid
    # (21 x 21, the Chernoff one 19 x 19), not once per pair and dimension; a whole
    # run takes qcb_werner from that one table (703 calls while the critical-point
    # identities made their own); s_quantity calls the relative-entropy core, not
    # relative_entropy_werner, and delta_s is tabulated on the interior, 19 x 19
    names = ("fidelity_werner", "relative_entropy_werner", "qcb_werner", "s_quantity",
             "one_minus_fidelity_squared", "delta_s")
    calls = dict.fromkeys(names, 0)
    for name in calls:
        real = getattr(metrics, name)

        def counting(a, b, name=name, real=real):
            calls[name] += 1
            return real(a, b)

        monkeypatch.setattr(metrics, name, counting)
    results = verify.check_werner_oracles(0.1, (2, 3, 4, 5, 6), (2, 3, 4))
    assert len(results) == 14
    assert all(r.points == DEFAULT_POINTS[r.name] for r in results)
    assert calls == {
        "fidelity_werner": 441,
        "relative_entropy_werner": 441,
        "qcb_werner": 361,
        "s_quantity": 441,
        "one_minus_fidelity_squared": 441,
        "delta_s": 361,
    }
    calls["qcb_werner"] = 0
    verify.run_verification()
    assert calls["qcb_werner"] == 361


_werner_fidelity, _werner_relent, _werner_qcb = (
    metrics.fidelity_werner, metrics._relative_entropy, metrics.qcb_werner
)
_s_quantity, _fidelity_gap = metrics.s_quantity, metrics.one_minus_fidelity_squared
_werner_qs = metrics.werner_qs


def _lower_s_shifted(a, b):
    # s* off by 5e-5 on the pairs a > b only, which the sweep reads from the mirror
    # 1 - s*(b, a) of its search
    r = _werner_qcb(a, b)
    return replace(r, s_star=r.s_star + 5e-5) if a > b else r


# closed forms that verify reads through metrics, broken a little: each with the
# Werner-sweep results it fails, and the first one's failures and points at grid 0.2,
# d = 2, 3; the one-sided ones break only one side of the mirrored oracle tables
TABLE_MUTANTS = {
    "fidelity": (
        "fidelity_werner",
        lambda a, b: _werner_fidelity(a, b) * (1 + 1e-8),
        ["fidelity-oracle"],
        238,
        242,
    ),
    "fidelity-upper-only": (
        "fidelity_werner",
        lambda a, b: _werner_fidelity(a, b) * (1 + 1e-8) if a < b else _werner_fidelity(a, b),
        ["fidelity-oracle"],
        108,
        242,
    ),
    # the core that relative_entropy_werner and s_quantity both call
    "relative-entropy": (
        "_relative_entropy",
        lambda a, b: _werner_relent(a, b) * (1 + 1e-7),
        ["relative-entropy-oracle", "s-quantity-oracle"],
        180,
        242,
    ),
    "s-quantity": (
        "s_quantity",
        lambda a, b: _s_quantity(a, b) * (1 + 1e-9),
        ["s-quantity-oracle"],
        216,
        242,
    ),
    "fidelity-gap": (
        "one_minus_fidelity_squared",
        lambda a, b: _fidelity_gap(a, b) * (1 + 1e-9),
        ["fidelity-gap-oracle"],
        220,
        242,
    ),
    # exactly half the off-diagonal pairs, and s_ab + s_ba = 1 broken on each
    "chernoff-s-lower-only": (
        "qcb_werner",
        _lower_s_shifted,
        ["qcb-oracle-s", "critical-point-identities"],
        72,
        144,
    ),
    "chernoff-q": (
        "qcb_werner",
        lambda a, b: replace(_werner_qcb(a, b), q=_werner_qcb(a, b).q * (1 + 1e-3)),
        ["qcb-oracle-q", "critical-point-identities"],
        144,
        144,
    ),
    # every ordered interior pair at s = 0.25, 0.5 and 0.75; the minimiser's bracket
    # holds, so critical-point-identities passes
    "overlap-curve": (
        "werner_qs",
        lambda a, b, s: _werner_qs(a, b, s) * (1 + 1e-9),
        ["qs-oracle"],
        432,
        432,
    ),
}


@pytest.mark.parametrize("mutant", TABLE_MUTANTS)
def test_closed_form_tables_catch_broken_closed_forms(monkeypatch, mutant):
    name, broken, checks, failures, points = TABLE_MUTANTS[mutant]
    monkeypatch.setattr(metrics, name, broken)
    results = verify.check_werner_oracles(0.2, (2, 3), (2, 3))
    assert [r.name for r in results if not r.passed] == checks
    failed = by_name(results)[checks[0]]
    assert (failed.failures, failed.points) == (failures, points)


def _upper_s_shifted(a, b):
    # s* off by 1e-9 on the pairs a < b only: within qcb-oracle-s's 1e-8, but
    # s_ab + s_ba - 1 = 1e-9 on every off-diagonal pair
    r = _werner_qcb(a, b)
    return replace(r, s_star=r.s_star + 1e-9) if a < b else r


# the Chernoff minimiser's identities broken, each at grid 0.2, d = 2, 3: every
# one fails critical-point-identities, and only the NaN overlap fails another check,
# the Q_s oracle
CRITICAL_MUTANTS = {
    "left-limit": ("qcb_werner", lambda a, b: replace(_werner_qcb(a, b), s_kind="left_limit"), []),
    "upper-s-shifted": ("qcb_werner", _upper_s_shifted, []),
    "nan-overlap": ("werner_qs", lambda a, b, s: math.nan, ["qs-oracle"]),
}


@pytest.mark.parametrize("mutant", CRITICAL_MUTANTS)
def test_critical_point_identities_catch_a_broken_minimiser(monkeypatch, mutant):
    name, broken, others = CRITICAL_MUTANTS[mutant]
    monkeypatch.setattr(metrics, name, broken)
    results = verify.run_verification(grid_step=0.2, dims=(2, 3))
    assert [r.name for r in results if not r.passed] == ["critical-point-identities", *others]


def _fidelity_scaled(monkeypatch):
    exact = metrics._fidelity
    for module in (metrics, discrimination):  # discrimination binds the name itself
        monkeypatch.setattr(module, "_fidelity", lambda a, b: exact(a, b) * (1 + 1e-11))


def _isotropic_q_scaled(monkeypatch):
    exact = metrics.qcb_isotropic

    def broken(a, b, d):
        r = exact(a, b, d)
        return replace(r, q=r.q * (1 + 1e-9))

    monkeypatch.setattr(metrics, "qcb_isotropic", broken)


def _broken_core(monkeypatch, change):
    # the Chernoff core of both families, each (q, s*, kind) it returns passed through change
    exact = metrics._qcb
    monkeypatch.setattr(metrics, "_qcb", lambda *args: change(*exact(*args)))


def _core_q_scaled(monkeypatch):
    _broken_core(monkeypatch, lambda q, s, kind: (q * (1 + 1e-11), s, kind))


# closed forms scaled below the former gates of their oracle rows (1e-9 for the fidelity,
# 1e-6 for q), which every CI verify grid meets within 1.0e-15: each fails its oracle row
# at 1e-12 (sandwich-ordering, closed form against closed form, caught two of them before)
TIGHT_GATE_MUTANTS = {
    "fidelity": (_fidelity_scaled, "fidelity-oracle", 1e-9,
                 ["fidelity-oracle", "sandwich-ordering"]),
    "isotropic-q": (_isotropic_q_scaled, "qcb-isotropic-oracle", 1e-6, ["qcb-isotropic-oracle"]),
    "core-q": (_core_q_scaled, "qcb-oracle-q", 1e-6,
               ["qcb-oracle-q", "qcb-isotropic-oracle", "sandwich-ordering"]),
}


@pytest.mark.parametrize("mutant", TIGHT_GATE_MUTANTS)
def test_tightened_gates_catch_what_the_former_ones_passed(monkeypatch, mutant):
    scale, row, former, failed = TIGHT_GATE_MUTANTS[mutant]
    scale(monkeypatch)
    results = verify.run_verification(grid_step=0.2, dims=(2, 3))
    assert [r.name for r in results if not r.passed] == failed
    monkeypatch.setitem(verify.CHECKS, row, former)
    assert by_name(verify.run_verification(grid_step=0.2, dims=(2, 3)))[row].passed


# the Chernoff core's endpoint-limit returns (eta or zeta = +-1, alpha in {0, d}), broken:
# no oracle reads them yet, so both pass every check (measured at grids 0.1, 0.2 and 0.5)
ENDPOINT_MUTANTS = {
    "limit-q-scaled": lambda q, s, kind: (q * 1.01 if kind.endswith("_limit") else q, s, kind),
    "left-limit-s-moved": lambda q, s, kind: (q, 0.3 if kind == "left_limit" else s, kind),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 24: no oracle reads the endpoint branches")
@pytest.mark.parametrize("mutant", ENDPOINT_MUTANTS)
def test_endpoint_branches_are_checked_by_an_oracle(monkeypatch, mutant):
    exact = metrics.qcb_werner(1.0, 0.0)  # eta = 1: a left limit
    _broken_core(monkeypatch, ENDPOINT_MUTANTS[mutant])
    if metrics.qcb_werner(1.0, 0.0) == exact:
        pytest.fail("the mutant does not reach the endpoint branches")
    results = verify.run_verification(grid_step=0.2, dims=(2, 3))
    assert any(r.name.startswith(("qcb-oracle-", "qcb-isotropic-oracle")) and not r.passed
               for r in results)


def test_isotropic_checks_fall_back_to_the_smallest_dimension(monkeypatch):
    # no requested dim up to 4: the isotropic checks and the substitution identity run
    # at d = 5, the Werner sweep's own dimension, and build isotropic states there only
    built = []
    isotropic = states.isotropic_state
    monkeypatch.setattr(states, "isotropic_state", lambda a, d: built.append(d) or isotropic(a, d))
    results = by_name(verify.run_verification(grid_step=0.5, dims=(5,)))
    assert set(built) == {5}
    for name in ("qcb-isotropic-oracle", "qcb-isotropic-oracle-s", "substitution-identity",
                 "qs-oracle"):
        assert results[name].points > 0 and results[name].passed


def test_empty_dims_are_rejected_before_any_sweep(monkeypatch):
    monkeypatch.setattr(verify, "check_werner_oracles", None)  # never reached
    with pytest.raises(InvalidParameterError, match="no dimension to verify"):
        verify.run_verification(dims=())


def test_defects_are_zero_at_matching_infinities_and_nan_fails(monkeypatch):
    closed = np.array([math.inf, -math.inf, math.inf, 1.0, 1.5])
    got = verify._defects([math.inf, math.inf, 1.0, math.nan, 2.0], closed)
    assert got[:3].tolist() == [0.0, math.inf, math.inf]
    assert math.isnan(got[3]) and got[4] == 0.5
    monkeypatch.setitem(verify.CHECKS, "x", 1.0)
    result = verify._collect("x", [got], 1.0)
    assert (result.points, result.failures) == (5, 3)


def test_sandwich_ordering_matches_pairwise_sweep():
    # the pairwise bounds() sweep that the one sandwich sweep replaced;
    # tol 0 counts every positive violation as a failure
    etas = discrimination.eta_grid(0.2)
    deltas = []
    for n in range(1, 21):
        for a in etas:
            for b in etas:
                r = discrimination.bounds(a, b, d=2, n=n)
                violation = max(
                    r.lower - r.helstrom_block,
                    r.helstrom_block - r.qcb_upper,
                    r.qcb_upper - r.fid_upper,
                    -r.lower,
                    r.fid_upper - 0.5,
                )
                deltas.append(max(0.0, violation))
    result = verify.check_sandwich_ordering(0.2, tol_scale=0.0)
    assert result.points == len(deltas) == 20 * 11 * 11
    assert result.failures == sum(1 for x in deltas if x > 0.0)
    assert result.worst == max(deltas)


_fidelity, _qcb_werner = discrimination._fidelity, discrimination._qcb_werner


def _scaled_q(factor):
    # the Werner Chernoff core with q times factor, s* and s_kind kept
    return lambda eta, zeta: (_qcb_werner(eta, zeta)[0] * factor, *_qcb_werner(eta, zeta)[1:])


# the closed-form cores that the sandwich sweep calls, broken a little, each with the
# worst sandwich-ordering defect it gives
SANDWICH_MUTANTS = {
    "fidelity-up": ("_fidelity", lambda a, b: _fidelity(a, b) * (1 + 1e-10), 1.0e-9),
    "q-up": ("_qcb_werner", _scaled_q(1 + 1e-7), 1.0e-6),
    "q-down": ("_qcb_werner", _scaled_q(1 - 1e-7), 1.0e-6),
}


@pytest.mark.parametrize("mutant", SANDWICH_MUTANTS)
def test_sandwich_ordering_catches_broken_bounds(monkeypatch, mutant):
    name, broken, worst = SANDWICH_MUTANTS[mutant]
    monkeypatch.setattr(discrimination, name, broken)
    results = verify.run_verification(grid_step=0.2, dims=(2, 3))
    assert [r.name for r in results if not r.passed] == ["sandwich-ordering"]
    assert by_name(results)["sandwich-ordering"].worst == pytest.approx(worst, rel=1e-5)


def test_verify_fails_on_a_nan_bound(monkeypatch, capsys):
    # a NaN fidelity at one pair: max() used to drop it, and verify passed
    def nan_at_one_pair(eta, zeta):
        return math.nan if (eta, zeta) == (0.2, -0.2) else _fidelity(eta, zeta)

    monkeypatch.setattr(discrimination, "_fidelity", nan_at_one_pair)
    assert cli.main(["verify", "--grid", "0.2", "--dims", "2..3"]) == 2
    failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].split()[1:] == ["sandwich-ordering", "2420", "points", "worst", "nan", "tol", "1.000e-10"]


def test_teleport_check_fails_on_a_nan_defect(monkeypatch, capsys):
    # max() over the defects used to drop a NaN behind a number, and the run passed
    monkeypatch.setattr(
        verify, "_teleport_defects", lambda etas, d, seed, n: [([0.0, math.nan], [0.0, 0.0])]
    )
    assert cli.main(["teleport-check", "--d", "2", "--eta", "0.5", "--samples", "2"]) == 2
    assert math.isnan(json.loads(capsys.readouterr().out)["results"]["simulation_defect"])


def test_nan_defect_fails_and_is_the_worst(monkeypatch):
    monkeypatch.setitem(verify.CHECKS, "x", 1.0)
    result = verify._collect("x", [[0.0, math.nan], [2.0]], 1.0)
    assert (result.points, result.failures) == (3, 2)
    assert math.isnan(result.worst)


def test_sandwich_ordering_memory_does_not_grow_with_the_zetas(monkeypatch):
    # each block of zetas is reduced as it is made; with blocks of 2^12 entries
    # a column (3 blocks at grid 0.1, 11 at 0.05) the traced peak read 0.45 and
    # 0.39 MB, where the row sweep that kept every defect read 0.29 and 0.81 MB
    monkeypatch.setattr(linalg, "_STACK_ENTRIES", 2**12)
    peaks = []
    for grid_step in (0.1, 0.05):
        tracemalloc.start()
        try:
            verify.check_sandwich_ordering(grid_step)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_sandwich_ordering_is_the_same_in_blocks_of_two_zetas(monkeypatch):
    # the 21 zetas of the 0.1 grid, n = 1..20: one block by default, 11 blocks of two
    # zetas (the last of one) when a block holds 2 x 20 x 21 entries
    whole = verify.check_sandwich_ordering(0.1)
    assert len(linalg._blocks(21, 1, tables=20 * 21)) == 1
    monkeypatch.setattr(linalg, "_STACK_ENTRIES", 2 * 20 * 21)
    assert len(linalg._blocks(21, 1, tables=20 * 21)) == 11
    split = verify.check_sandwich_ordering(0.1)
    assert split == whole and split.points == 8820
    assert split.worst.hex() == whole.worst.hex()


def test_every_dimension_is_checked_before_the_first_sweep(monkeypatch):
    monkeypatch.setattr(verify, "check_werner_oracles", None)  # never reached
    with pytest.raises(DimensionOverflowError, match="4225 exceeds cap 4096"):
        verify.run_verification(grid_step=0.5, dims=(2, 3, 65))


@pytest.mark.parametrize("grid_step,dims", [(0.1, (64,)), (0.00002, (2,)), (0.02, (6, 7))])
def test_verify_work_is_bounded_before_the_first_sweep(monkeypatch, grid_step, dims):
    # (grid points)^2 x sum d^4 above 2^25; no state is built
    monkeypatch.setattr(states, "werner_state", None)
    monkeypatch.setattr(states, "isotropic_state", None)
    with pytest.raises(DimensionOverflowError, match=f"exceeds cap {verify.VERIFY_WORK_CAP}"):
        verify.run_verification(grid_step=grid_step, dims=dims)


def test_teleport_sample_count_is_capped_before_any_draw(monkeypatch):
    monkeypatch.setattr(verify, "_teleport_defects", None)  # never reached
    with pytest.raises(DimensionOverflowError, match="100001 exceeds cap 100000"):
        verify.teleport_check(0.5, 2, 1, verify.TELEPORT_SAMPLE_CAP + 1)


@pytest.mark.parametrize("d,samples", [(16, 18), (16, 100_000), (4, 73_243), (8, 1145)])
def test_teleport_work_is_capped_before_any_draw(monkeypatch, d, samples):
    # samples x d^6 above 3e8: a d = 16 draw takes about 80 ms
    monkeypatch.setattr(verify, "_teleport_defects", None)  # never reached
    with pytest.raises(DimensionOverflowError, match=f"exceeds cap {verify.TELEPORT_WORK_CAP}"):
        verify.teleport_check(0.5, d, 1, samples)


@pytest.mark.parametrize("d,samples", [(16, 17), (4, 73_242), (8, 1144), (3, 100_000)])
def test_teleport_work_cap_admits(monkeypatch, d, samples):
    # the largest counts admitted at d = 16, 4 and 8, and the sample cap at d = 3
    monkeypatch.setattr(verify, "_teleport_defects", lambda etas, d, seed, n: [([0.0], [0.0])])
    assert verify.teleport_check(0.5, d, 1, samples)["samples"] == samples


def test_teleport_defects_span_several_stacks(monkeypatch):
    # seven draws a stack: 23 samples take four stacked trace distances per
    # defect kind, each a (1, 7) stack of the one eta's defects (the last (1, 2)),
    # each member equal to the per-sample call on the same stream
    eta, seed, samples = 0.4, 5, 23
    real = linalg.trace_distance_numeric
    for d in (2, 3, 5):
        rng = np.random.default_rng(np.random.SeedSequence((seed, d)))
        resource, channel = states.werner_state(eta, d), states.HWChannel(eta, d)
        sim, cov = [], []
        for _ in range(samples):
            rho = linalg.random_density_matrix(rng.normal(size=(2, d, d)))
            u = linalg.random_unitary(rng.normal(size=(2, d, d)))
            out = teleport.teleport_channel(resource, rho)
            sim.append(real(out, channel.apply(rho)))
            cov += teleport.covariance_check([channel], u, rho)[0]

        monkeypatch.setattr(linalg, "_STACK_ENTRIES", 7 * d * d)
        stacks = []

        def counting(rho, sigma):
            stacks.append(rho.shape[:-2])
            return real(rho, sigma)

        monkeypatch.setattr(linalg, "trace_distance_numeric", counting)
        # the covariance defects come from covariance_check, which calls its own import
        monkeypatch.setattr(teleport, "trace_distance_numeric", counting)
        assert verify._teleport_defects([eta], d, seed, samples) == [(sim, cov)], d
        assert stacks == [(1, 7)] * 6 + [(1, 2)] * 2, d
        monkeypatch.undo()


def test_check_teleport_takes_one_call_of_each_step_a_dimension(monkeypatch):
    # the five etas at d = 2 and 3 share each d's one block of 20 draws: one
    # teleport_channel call over the five resources, one covariance_check over the five
    # channels, and one simulation trace distance of 5 x 20 defects, 2 calls of each
    # where one a sample block and eta made 10
    calls = Counter()
    for module, name in ((teleport, "teleport_channel"), (teleport, "covariance_check"),
                         (linalg, "trace_distance_numeric")):
        real = getattr(module, name)

        def spy(first, *args, _real=real, _name=name, **kwargs):
            # a stack's leading shape, or the length of the sequence of channels
            calls[_name, first.shape[:-2] if isinstance(first, np.ndarray) else (len(first),)] += 1
            return _real(first, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    results = verify.check_teleport(verify.DEFAULT_SEED)
    assert calls == {
        ("teleport_channel", (5,)): 2, ("covariance_check", (5,)): 2,
        ("trace_distance_numeric", (5, 20)): 2,
    }
    assert [r.points for r in results] == [2 * 5 * 20] * 2


def test_teleport_check_draws_each_dimension_once(monkeypatch):
    # the five etas at one d share that d's 20 draws, one stack block: each eta's
    # defects equal its own sweep's, which draws the same stream alone
    etas, seed = (-1.0, -0.5, 0.0, 0.5, 1.0), 9
    for d in (2, 3):
        shared = verify._teleport_defects(etas, d, seed, 20)
        assert shared == [verify._teleport_defects([eta], d, seed, 20)[0] for eta in etas]
    drawn = []
    real = linalg.random_density_matrix
    monkeypatch.setattr(linalg, "random_density_matrix", lambda g: drawn.append(len(g)) or real(g))
    results = verify.check_teleport(seed)
    assert drawn == [20, 20]
    assert {r.name: r.points for r in results} == {
        "teleport-simulation": 2 * 5 * 20, "teleport-covariance": 2 * 5 * 20
    }


def test_teleport_sweep_checks_every_unitary(monkeypatch):
    # the unitarity validation covers every member of a block of draws, and
    # the error names the first non-unitary one: the fifth draw, index 4
    real = linalg.random_unitary

    def fifth_is_not_unitary(normals):
        u = real(normals)
        u[4] *= 2.0
        return u

    monkeypatch.setattr(linalg, "random_unitary", fifth_is_not_unitary)
    assert len(linalg._blocks(8, 2)) == 1
    with pytest.raises(NotUnitaryError, match=r"^matrix\[4\] is not unitary"):
        verify._teleport_defects([0.5], 2, 1, 8)
