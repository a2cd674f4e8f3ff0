import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import linalg, states
from wernerlab.errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    NonHermitianError,
    NotDensityMatrixError,
)


def rand_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def rand_density(dim, seed):
    return linalg.random_density_matrix(np.random.default_rng(seed).normal(size=(2, dim, dim)))


class TestEigh:
    def test_identity(self):
        dec = linalg.eigh(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        dec = linalg.eigh(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 3.0])

    def test_flip_operator_spectrum(self):
        # swap on two qubits: one antisymmetric direction, three symmetric
        dec = linalg.eigh(states.flip_operator(2))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            linalg.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("dim", [2, 3, 7, 16, 25, 36])
    def test_reconstruction_and_unitarity(self, dim):
        a = rand_hermitian(dim, seed=dim)
        dec = linalg.eigh(a)
        v, w = dec.eigenvectors, dec.eigenvalues
        assert np.abs((v * w) @ v.conj().T - a).max() <= 1e-10
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10

    def test_deterministic(self):
        a = rand_hermitian(9, seed=5)
        d1, d2 = linalg.eigh(a), linalg.eigh(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


class TestTensorProduct:
    def test_identities(self):
        assert np.array_equal(
            linalg.tensor_product(np.eye(2), np.eye(2)), np.eye(4)
        )

    def test_projector_product(self):
        out = linalg.tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_index_convention(self):
        a = np.arange(4.0).reshape(2, 2)
        b = np.arange(9.0).reshape(3, 3)
        out = linalg.tensor_product(a, b)
        for i, j, k, l in [(0, 1, 2, 0), (1, 0, 1, 2)]:
            assert out[i * 3 + k, j * 3 + l] == a[i, j] * b[k, l]

    def test_werner_power_spectrum_against_eigh(self):
        # two-class spectrum of a tensor square: values {a+^2, a+a-, a-^2}
        # with multiplicities {9, 6, 1} at d = 2
        for eta in (0.5, 0.6):
            w = states.werner_state(eta, 2)
            ap, am = (1.0 + eta) / 6, (1.0 - eta) / 2  # multiplicities 3 and 1
            expected = np.sort(
                np.concatenate(
                    [np.full(9, ap * ap), np.full(6, ap * am), np.full(1, am * am)]
                )
            )
            got = linalg.eigh(linalg.tensor_product(w, w)).eigenvalues
            assert np.abs(got - expected).max() <= 1e-12

    def test_dimension_cap(self):
        with pytest.raises(DimensionOverflowError):
            linalg.tensor_product(np.eye(70), np.eye(70))


class TestDensityMatrixValidation:
    """The state checks that every matrix oracle runs, in ``clamped_spectrum``."""

    def test_accepts_valid(self):
        rho = rand_density(4, 3)
        assert np.array_equal(linalg.clamped_spectrum(rho).eigenvalues, linalg.eigh(rho).eigenvalues)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(NonHermitianError):
            linalg.clamped_spectrum(bad)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotDensityMatrixError):
            linalg.clamped_spectrum(np.diag([1.5, -0.5]))

    def test_tolerates_clamp_range(self):
        # an eigenvalue in [PSD_FLOOR, 0) is snapped to an exact zero
        got = linalg.clamped_spectrum(np.diag([1.0 + 5e-11, -5e-11])).eigenvalues
        assert got.tolist() == [0.0, 1.0 + 5e-11]


class TestBuresFidelity:
    def test_self_fidelity(self):
        rho = rand_density(4, 7)
        assert linalg.bures_fidelity_numeric(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        zero = np.diag([1.0, 0.0])
        one = np.diag([0.0, 1.0])
        assert linalg.bures_fidelity_numeric(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_werner_pair_matches_closed_form(self):
        got = linalg.bures_fidelity_numeric(
            states.werner_state(0.5, 3), states.werner_state(0.0, 3)
        )
        assert got == pytest.approx((math.sqrt(1.5) + math.sqrt(0.5)) / 2, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.bures_fidelity_numeric(np.eye(2) / 2, np.eye(3) / 3)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, seed, dim):
        rho = rand_density(dim, seed)
        sigma = rand_density(dim, seed + 1)
        f1 = linalg.bures_fidelity_numeric(rho, sigma)
        f2 = linalg.bures_fidelity_numeric(sigma, rho)
        assert abs(f1 - f2) <= 1e-10

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_fuchs_van_de_graaf(self, seed, dim):
        rho = rand_density(dim, seed)
        sigma = rand_density(dim, seed + 1)
        f = linalg.bures_fidelity_numeric(rho, sigma)
        d = linalg.trace_distance_numeric(rho, sigma)
        assert 1.0 - f <= d + 1e-10
        assert d <= math.sqrt(max(0.0, 1.0 - f * f)) + 1e-10


class TestTraceDistance:
    def test_self_distance(self):
        rho = rand_density(3, 11)
        assert linalg.trace_distance_numeric(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        assert linalg.trace_distance_numeric(
            np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        ) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_werner_pair_half_parameter_gap(self, d):
        for eta, zeta in [(-1.0, 1.0), (0.5, 0.0), (0.3, -0.8)]:
            got = linalg.trace_distance_numeric(
                states.werner_state(eta, d), states.werner_state(zeta, d)
            )
            assert got == pytest.approx(abs(eta - zeta) / 2, abs=1e-12)


class TestRelativeEntropy:
    def test_self_entropy(self):
        rho = rand_density(4, 13)
        assert linalg.relative_entropy_numeric(rho, rho) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_werner_pair_value(self, d):
        expected = 0.75 * math.log2(1.5) + 0.25 * math.log2(0.5)
        got = linalg.relative_entropy_numeric(
            states.werner_state(0.5, d), states.werner_state(0.0, d)
        )
        assert got == pytest.approx(expected, abs=1e-12)

    def test_support_mismatch_is_inf(self):
        got = linalg.relative_entropy_numeric(
            states.werner_state(0.0, 3), states.werner_state(1.0, 3)
        )
        assert got == math.inf


class TestQcbNumeric:
    def test_identical_states(self):
        rho = states.werner_state(0.3, 4)
        assert linalg.qcb_numeric(rho, rho).q == pytest.approx(1.0, abs=1e-12)
        # the whole overlap curve is flat at 1
        grid = np.arange(1, 200) * 0.005
        dec = linalg.clamped_spectrum(rho)
        assert np.abs(linalg.qcb_curve_kernel([dec], [dec], grid) - 1.0).max() <= 1e-12

    def test_antisymmetric_pair(self):
        got = linalg.qcb_numeric(
            states.werner_state(0.5, 2), states.werner_state(-0.5, 2)
        )
        assert got.q == pytest.approx(math.sqrt(0.75), abs=1e-9)
        assert got.s_star == pytest.approx(0.5, abs=1e-6)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_swap_symmetry(self, seed, dim):
        rho = rand_density(dim, seed)
        sigma = rand_density(dim, seed + 1)
        fwd = linalg.qcb_numeric(rho, sigma)
        rev = linalg.qcb_numeric(sigma, rho)
        assert abs(fwd.q - rev.q) <= 1e-7
        assert abs(fwd.s_star + rev.s_star - 1.0) <= 1e-6


def _kernel_cases():
    # full-rank random states, then rank-deficient pure/edge states where
    # ZERO_SNAP clamping decides which eigenvalues are exact zeros
    cases = [
        (rand_density(d * d, 100 + d), rand_density(d * d, 200 + d)) for d in (2, 3, 4)
    ]
    for d in (2, 3, 4):
        cases.append((states.werner_state(1.0, d), states.werner_state(-1.0, d)))
        cases.append((states.werner_state(-1.0, d), states.werner_state(0.3, d)))
        cases.append((states.isotropic_state(0.0, d), states.isotropic_state(float(d), d)))
        cases.append((states.isotropic_state(float(d), d), states.isotropic_state(1.0, d)))
    return cases


class TestSpectraKernels:
    """Each matrix-level oracle equals its kernel on decompositions taken once."""

    @pytest.mark.parametrize("rho,sigma", _kernel_cases())
    def test_fidelity(self, rho, sigma):
        root = linalg.spectral_sqrt(linalg.clamped_spectrum(sigma))
        assert linalg.bures_fidelity_numeric(rho, sigma) == linalg.bures_fidelity_kernel(
            rho, root
        )

    @pytest.mark.parametrize("rho,sigma", _kernel_cases())
    def test_relative_entropy(self, rho, sigma):
        dr, ds = linalg.clamped_spectrum(rho), linalg.clamped_spectrum(sigma)
        assert linalg.relative_entropy_numeric(rho, sigma) == linalg._relative_entropies(dr, ds)[0]

    def test_relative_entropy_support_mismatch(self):
        rho, sigma = states.werner_state(0.0, 3), states.werner_state(1.0, 3)
        dr, ds = linalg.clamped_spectrum(rho), linalg.clamped_spectrum(sigma)
        assert linalg._relative_entropies(dr, ds)[0] == math.inf
        assert linalg.relative_entropy_numeric(rho, sigma) == math.inf

    @pytest.mark.parametrize("rho,sigma", _kernel_cases())
    def test_qcb(self, rho, sigma):
        dr, ds = linalg.clamped_spectrum(rho), linalg.clamped_spectrum(sigma)
        r = linalg.qcb_kernels([dr[None]], [ds[None]])
        assert r.q.shape == r.s_star.shape == (1,)
        assert linalg.qcb_numeric(rho, sigma) == (r.q[0], r.s_star[0])

    @pytest.mark.parametrize("rho,sigma", _kernel_cases())
    def test_qcb_curve_is_the_coarse_pass(self, rho, sigma):
        dr, ds = linalg.clamped_spectrum(rho), linalg.clamped_spectrum(sigma)
        grid = np.arange(1, 200) * 0.005
        curve = linalg.qcb_curve_kernel([dr], [ds], grid)
        # the curve is convex, so the searched minimiser lies within one grid
        # step of the sampled curve's minimum
        s_star = linalg.qcb_kernels([dr[None]], [ds[None]]).s_star[0]
        assert abs(s_star - grid[np.argmin(curve)]) <= 0.005


def _stack_cases(d):
    # Werner, isotropic (rank-deficient at the ends) and random states at one d
    werner = [states.werner_state(e, d) for e in (-1.0, -0.4, 0.0, 0.7, 1.0)]
    isotropic = [states.isotropic_state(a, d) for a in (0.0, 0.5, float(d))]
    return np.stack(werner + isotropic + [rand_density(d * d, 600 + i) for i in range(4)])


def _scalar_relative_entropy(dr, ds):
    # Reference: the one-pair relative entropy, summing the compacted live
    # eigenvalues that the stacked kernel masks instead.
    p, q = dr.eigenvalues, ds.eigenvalues
    plogp = float(np.sum(p[p > linalg.SUPPORT_TOL] * np.log2(p[p > linalg.SUPPORT_TOL])))
    weights = (np.abs(ds.eigenvectors.conj().T @ dr.eigenvectors) ** 2) @ p
    null = q <= linalg.SUPPORT_TOL
    if np.any(weights[null] > linalg.SUPPORT_TOL):
        return math.inf
    return plogp - float(np.sum(weights[~null] * np.log2(q[~null])))


class TestStacks:
    """Every stacked kernel equals its per-matrix calls, member for member."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_eigh_and_clamped_spectrum(self, d):
        mats = _stack_cases(d)
        dec, clamped = linalg.eigh(mats), linalg.clamped_spectrum(mats)
        for i, m in enumerate(mats):
            one, one_clamped = linalg.eigh(m), linalg.clamped_spectrum(m)
            assert np.array_equal(dec.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(dec.eigenvectors[i], one.eigenvectors)
            assert np.array_equal(clamped[i].eigenvalues, one_clamped.eigenvalues)
            assert np.array_equal(clamped[i].eigenvectors, one_clamped.eigenvectors)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_pair_kernels(self, d):
        mats = _stack_cases(d)
        decs = linalg.clamped_spectrum(mats)
        roots = linalg.spectral_sqrt(decs)
        grid = np.array([0.25, 0.5, 0.75])
        for i, rho in enumerate(mats):
            rhos = np.broadcast_to(rho, mats.shape)
            fid = linalg.bures_fidelity_kernel(rhos, roots)
            assert fid == [linalg.bures_fidelity_numeric(rho, s) for s in mats]
            dist = linalg.trace_distance_numeric(rhos, mats)
            assert dist == [linalg.trace_distance_numeric(rho, s) for s in mats]
            rel = linalg._relative_entropies(decs[i], decs)[0].tolist()
            members = [decs[j] for j in range(len(mats))]
            assert rel == [_scalar_relative_entropy(decs[i], ds) for ds in members]
            assert rel == [linalg._relative_entropies(decs[i], ds)[0].tolist() for ds in members]
            curves = linalg.qcb_curve_kernel([decs[[i] * len(mats)]], [decs], grid)
            for j, row in enumerate(curves):
                assert np.array_equal(row, linalg.qcb_curve_kernel([decs[i]], [decs[j]], grid))
        # rank-deficient Werner ends: support mismatches come out infinite
        assert math.inf in linalg._relative_entropies(decs[0], decs)[0]

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_relative_entropy_both_ways_from_one_overlap(self, d):
        # the forward direction is the one-pair oracle bit for bit; the reverse one reads
        # the transposed overlap, whose products BLAS may sum in another order, so it is
        # the oracle's (sigma || rho) to round-off, with the same infinite entries
        mats = _stack_cases(d)
        decs = linalg.clamped_spectrum(mats)
        i, j = (x.ravel() for x in np.indices((len(mats),) * 2))
        forward, backward = linalg._relative_entropies(decs[i], decs[j])
        assert forward.tolist() == list(map(linalg.relative_entropy_numeric, mats[i], mats[j]))
        reverse = np.array(list(map(linalg.relative_entropy_numeric, mats[j], mats[i])))
        finite = np.isfinite(reverse)
        assert np.array_equal(np.isinf(backward), ~finite) and not finite.all()
        assert np.abs(backward[finite] - reverse[finite]).max() <= 1e-14

    def test_stack_longer_than_a_block(self):
        # 61 d = 6 Werner states span two 2^16-entry blocks
        etas = np.linspace(-1.0, 1.0, 61)
        mats = np.stack([states.werner_state(e, 6) for e in etas])
        assert mats.size > linalg._STACK_ENTRIES
        blocks = linalg._blocks(len(mats), 36)
        assert len(blocks) == 2 and all(mats[at].size <= linalg._STACK_ENTRIES for at in blocks)
        assert [i for at in blocks for i in range(len(mats))[at]] == list(range(len(mats)))
        decs = linalg.clamped_spectrum(mats)
        roots = linalg.spectral_sqrt(decs)
        rho = mats[17]
        assert linalg.bures_fidelity_kernel(np.broadcast_to(rho, mats.shape), roots) == [
            linalg.bures_fidelity_kernel(rho, linalg.spectral_sqrt(linalg.clamped_spectrum(m)))
            for m in mats
        ]
        assert linalg.trace_distance_numeric(np.broadcast_to(rho, mats.shape), mats) == [
            linalg.trace_distance_numeric(rho, m) for m in mats
        ]
        assert linalg._relative_entropies(decs[17], decs)[0].tolist() == [
            linalg.relative_entropy_numeric(rho, m) for m in mats
        ]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_draws(self, d):
        # a stack of drawn normals, one state and one unitary per member; the
        # same Generator's (2, d, d) draws give each one-input call the same normals
        normals = np.random.default_rng(d).normal(size=(6, 2, d, d))
        rhos, us = linalg.random_density_matrix(normals), linalg.random_unitary(normals)
        rng = np.random.default_rng(d)
        for k in range(len(normals)):
            assert np.array_equal(rhos[k], linalg.random_density_matrix(normals[k]))
            assert np.array_equal(us[k], linalg.random_unitary(normals[k]))
            drawn = linalg.random_density_matrix if k % 2 == 0 else linalg.random_unitary
            assert np.array_equal(drawn(rng.normal(size=(2, d, d))), (rhos if k % 2 == 0 else us)[k])
        grid = linalg.random_unitary(normals.reshape(2, 3, 2, d, d))
        assert np.array_equal(grid.reshape(us.shape), us)

    def test_random_draws_check_the_normals_shape(self):
        with pytest.raises(DimensionMismatchError, match=r"\(\.\.\., 2, d, d\), got \(4, 3, 3\)"):
            linalg.random_unitary(np.zeros((4, 3, 3)))

    @pytest.mark.parametrize("shape", [(3, 3, 3), (4, 1, 3, 3), (2, 3, 4), (5, 2, 2, 3), (2, 2), (2,)])
    @pytest.mark.parametrize("draw", [linalg.random_density_matrix, linalg.random_unitary])
    def test_random_draws_read_d_from_the_normals(self, draw, shape):
        # d is the normals' last axis: the third-last axis must be 2 and the last two equal
        with pytest.raises(DimensionMismatchError, match=rf"got \({', '.join(map(str, shape))},?\)$"):
            draw(np.zeros(shape))
        assert draw(np.random.default_rng(5).normal(size=(2, 5, 5))).shape == (5, 5)

    def test_scalar_calls_return_floats(self):
        rho, sigma = rand_density(4, 1), rand_density(4, 2)
        dr, ds = linalg.clamped_spectrum(rho), linalg.clamped_spectrum(sigma)
        assert type(linalg.trace_distance_numeric(rho, sigma)) is float
        assert type(linalg.relative_entropy_numeric(rho, sigma)) is float
        assert type(linalg.bures_fidelity_kernel(rho, linalg.spectral_sqrt(ds))) is float

    def test_one_lapack_call_per_stack(self, monkeypatch):
        # numpy picks the driver from the stack's dtype: a real stack takes the real
        # symmetric one, a complex-typed stack the complex Hermitian one, also where
        # every imaginary part is zero; each member equals its own call
        werner = np.stack([states.werner_state(e, 3) for e in (-1.0, 0.2, 1.0)])
        mixed = np.stack([werner[0], rand_density(9, 701), werner[1], rand_density(9, 702)])
        stacks = [(werner, float), (werner.astype(complex), complex), (mixed, complex)]
        drivers = []
        for name in ("eigh", "eigvalsh"):
            lapack = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, f=lapack: drivers.append(a.dtype) or f(a))
        for stack, dtype in stacks:
            drivers.clear()
            dec, w = linalg.eigh(stack), linalg.eigvalsh(stack)
            assert drivers == [np.dtype(dtype)] * 2
            assert dec.eigenvectors.dtype == np.dtype(dtype)
            assert dec.eigenvalues.dtype == w.dtype == np.dtype(float)
            for i, m in enumerate(stack):
                drivers.clear()
                one = linalg.eigh(m)
                assert np.array_equal(dec.eigenvalues[i], one.eigenvalues)
                assert np.array_equal(dec.eigenvectors[i], one.eigenvectors)
                assert np.array_equal(w[i], linalg.eigvalsh(m))
                assert drivers == [np.dtype(dtype)] * 2
        # the complex driver on a real-valued stack finds the same spectrum
        by_complex = linalg.eigh(werner.astype(complex)).eigenvalues
        assert np.abs(by_complex - linalg.eigh(werner).eigenvalues).max() < 1e-15

    def test_non_hermitian_member_is_named(self):
        mats = _stack_cases(2)
        mats[5, 0, 1] += 1e-6
        with pytest.raises(NonHermitianError, match=r"matrix\[5\] is not Hermitian"):
            linalg.eigh(mats)
        with pytest.raises(NonHermitianError, match=r"matrix\[1, 1\] is not Hermitian"):
            linalg.clamped_spectrum(mats.reshape(3, 4, 4, 4))
        # the eigenvalue-only kernels run the same check on their own stacks
        with pytest.raises(NonHermitianError, match=r"matrix\[5\] is not Hermitian"):
            linalg.eigvalsh(mats)
        with pytest.raises(NonHermitianError, match=r"matrix\[5\] is not Hermitian"):
            linalg.trace_distance_numeric(mats, np.zeros((12, 4, 4)))
        with pytest.raises(NonHermitianError, match=r"matrix\[1, 1\] is not Hermitian"):
            linalg.trace_distance_numeric(
                mats.reshape(3, 4, 4, 4), np.broadcast_to(np.eye(4) / 4, (3, 4, 4, 4))
            )
        # a non-Hermitian root makes that member's inner matrix non-Hermitian
        roots = np.stack([np.eye(4)] * 12)
        roots[5, 0, 1] = 0.5
        with pytest.raises(NonHermitianError, match=r"matrix\[5\] is not Hermitian"):
            linalg.bures_fidelity_kernel(np.broadcast_to(mats[0], roots.shape), roots)

    def test_eigenvalue_route_keeps_the_psd_floor_and_zero_snap(self):
        # eigenvalues in [PSD_FLOOR, ZERO_SNAP) of the fidelity's inner matrix
        # become exact zeros, so no square root of round-off is summed
        for tiny in (-5e-11, 1e-17):
            assert linalg.bures_fidelity_kernel(np.diag([1.0, tiny]), np.eye(2)) == 1.0
        with pytest.raises(NotDensityMatrixError, match=r"^sqrt\(sigma\) rho sqrt\(sigma\):"):
            linalg.bures_fidelity_kernel(np.diag([1.5, -0.5]), np.eye(2))
        # the trace distance takes the raw eigenvalues of the difference
        assert linalg.trace_distance_numeric(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 1.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_eigvalsh_is_eigh_without_vectors(self, d):
        # symmetrised like eigh: a member within HERMITIAN_TOL of Hermitian
        # gives the eigenvalues of its Hermitian part, close to eigh's
        mats = _stack_cases(d).astype(complex)
        mats[3, 0, 1] += 1e-13j
        w = linalg.eigvalsh(mats)
        assert np.abs(w - linalg.eigh(mats).eigenvalues).max() <= 1e-14
        for i, m in enumerate(mats):
            h = (m + m.conj().T) / 2
            assert np.array_equal(w[i], linalg.eigvalsh(m))
            assert np.array_equal(w[i], np.linalg.eigvalsh(h))

    def test_member_below_the_psd_floor_is_named(self):
        mats = _stack_cases(2)
        mats[7] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(NotDensityMatrixError, match=r"rho\[7\]: minimum eigenvalue"):
            linalg.clamped_spectrum(mats)
        # the fidelity's inner matrices are validated member by member too:
        # only the 7th root passes the non-state through
        roots = np.zeros((12, 4, 4))
        roots[7] = np.eye(4)
        with pytest.raises(NotDensityMatrixError, match=r"sqrt\(sigma\) rho sqrt\(sigma\)\[7\]"):
            linalg.bures_fidelity_kernel(np.broadcast_to(mats[7], roots.shape), roots)

    def test_single_matrix_messages_carry_no_index(self):
        with pytest.raises(NonHermitianError, match=r"^matrix is not Hermitian"):
            linalg.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotDensityMatrixError, match=r"^sigma: minimum eigenvalue"):
            linalg.clamped_spectrum(np.diag([1.5, -0.5]), "sigma")

    @pytest.mark.parametrize("call", [
        linalg.eigh, linalg.eigvalsh, linalg.clamped_spectrum,
        lambda m: linalg.tensor_product(m, np.eye(2)),
        lambda m: linalg.bures_fidelity_numeric(m, m),
        lambda m: linalg.trace_distance_numeric(m, m),
        lambda m: linalg.relative_entropy_numeric(m, m),
        lambda m: linalg.qcb_numeric(m, m),
    ])
    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_matrices_are_rejected_by_shape(self, call, shape):
        # a 0 x 0 matrix has no state: it is named, not divided by in the block size
        named = rf"nonempty, got shape \({', '.join(map(str, shape))}\)$"
        with pytest.raises(DimensionMismatchError, match=named):
            call(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3, 0, 0)])
    def test_a_bad_shape_is_named_by_the_state(self, shape):
        # the name that clamped_spectrum's PSD error gives is the one its shape error gives
        with pytest.raises(DimensionMismatchError, match=r"^sigma must be square and nonempty"):
            linalg.clamped_spectrum(np.zeros(shape), "sigma")

    def test_empty_stacks_of_matrices_pass(self):
        # no member at all is not a 0 x 0 member: an empty sweep decomposes nothing
        empty = np.zeros((0, 3, 3))
        assert linalg.eigh(empty).eigenvalues.shape == (0, 3)
        assert linalg.clamped_spectrum(empty).eigenvectors.shape == (0, 3, 3)
        assert linalg.trace_distance_numeric(empty, empty) == []

    def test_stacks_must_be_square(self):
        with pytest.raises(DimensionMismatchError):
            linalg.eigh(np.zeros((3, 4, 5)))
        with pytest.raises(DimensionMismatchError):
            linalg.trace_distance_numeric(np.eye(4) / 4, np.stack([np.eye(9) / 9] * 2))
        with pytest.raises(DimensionMismatchError):
            linalg.tensor_product(np.stack([np.eye(2)] * 2), np.eye(2))


_LAPACK = {"eigh": np.linalg.eigh, "eigvalsh": np.linalg.eigvalsh}


def _bits(x):
    # the raw bytes of an array with its dtype and shape: equal only where bit for bit equal
    return x.dtype, x.shape, np.ascontiguousarray(x).tobytes()


def _reaching_lapack(monkeypatch):
    # every array handed to np.linalg.eigh or eigvalsh, in call order
    reached = []
    for name, lapack in _LAPACK.items():
        monkeypatch.setattr(np.linalg, name, lambda a, f=lapack: reached.append(a) or f(a))
    return reached


def _assert_symmetrised_route(stack, reached, fast):
    # eigh and eigvalsh of the stack equal LAPACK's on (a + a^T)/2 bit for bit; the stack
    # itself reaches LAPACK where ``fast``, else its symmetrised copy
    h = (stack + np.swapaxes(stack.conj(), -1, -2)) / 2.0
    reached.clear()
    dec, w = linalg.eigh(stack), linalg.eigvalsh(stack)
    assert len(reached) == 2
    for a in reached:
        assert (a is stack) == fast
        assert _bits(a) == _bits(h)
    ref = _LAPACK["eigh"](h)
    assert _bits(dec.eigenvalues) == _bits(ref.eigenvalues)
    assert _bits(dec.eigenvectors) == _bits(ref.eigenvectors)
    assert _bits(w) == _bits(_LAPACK["eigvalsh"](h))


class TestExactlySymmetricStacks:
    # a float64 stack equal to its transpose bit for bit, every entry within half the
    # largest double, goes to LAPACK as it is; every other stack is checked and symmetrised

    @pytest.mark.parametrize("d", range(2, 7))
    def test_werner_stacks_sectors_and_differences_go_as_they_are(self, monkeypatch, d):
        reached = _reaching_lapack(monkeypatch)
        etas = [(2 * i - 200) / 200 for i in range(201)]
        ws = states.werner_state(etas, d)
        flip = linalg.eigh(states.flip_operator(d))
        u, a = flip.eigenvectors, int(np.count_nonzero(flip.eigenvalues < 0.0))
        rot = u.T @ ws @ u
        for stack in (ws, rot[:, :a, :a], rot[:, a:, a:]):
            for x in (stack, stack[1:] - stack[:-1], stack - stack[::-1]):
                _assert_symmetrised_route(x, reached, fast=True)

    def test_a_member_off_by_round_off_symmetrises_the_whole_stack(self, monkeypatch):
        reached = _reaching_lapack(monkeypatch)
        stack = states.werner_state([-0.5, 0.0, 0.5], 3)
        stack[1, 0, 3] += 1e-13
        _assert_symmetrised_route(stack, reached, fast=False)

    def test_a_signed_zero_mirror_pair_is_symmetrised(self, monkeypatch):
        # +0 and -0 are equal but not the same bits: (a + a^T)/2 makes both +0, and
        # that, not the -0, reaches LAPACK
        reached = _reaching_lapack(monkeypatch)
        stack = np.stack([np.diag([0.25, 0.75, 0.0])] * 2)
        stack[1, 2, 0] = -0.0
        _assert_symmetrised_route(stack, reached, fast=False)
        assert not np.signbit(reached[0][1, 2, 0])

    def test_entries_past_half_the_largest_double_are_symmetrised(self):
        # a + a^T overflows past max/2, so (a + a^T)/2 is then not a itself
        half = np.finfo(float).max / 2
        above = np.nextafter(half, math.inf)
        assert linalg._exactly_symmetric(np.diag([half, -half]))
        assert not linalg._exactly_symmetric(np.diag([above, 0.0]))
        assert not linalg._exactly_symmetric(np.diag([0.0, -above]))

    def test_a_complex_symmetric_stack_is_symmetrised(self, monkeypatch):
        reached = _reaching_lapack(monkeypatch)
        stack = states.werner_state([-1.0, 0.2, 1.0], 3).astype(complex)
        _assert_symmetrised_route(stack, reached, fast=False)


_NON_FINITE = {  # entries set in one member of a stack of valid states
    "nan-diagonal": {(1, 1): math.nan},
    "nan-off-diagonal": {(0, 2): math.nan},
    "inf-mirror-pair": {(0, 1): math.inf, (1, 0): math.inf},
    "minus-inf-mirror-pair": {(2, 1): -math.inf, (1, 2): -math.inf},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("case", _NON_FINITE)
def test_non_finite_members_are_rejected(case, dtype):
    # a NaN defect is not within HERMITIAN_TOL (an inf mirror pair's defect is inf - inf,
    # taken without a warning): the member is named, and no finite spectrum or distance
    # comes back for it
    stack = np.stack([np.eye(3, dtype=dtype) / 3] * 4)
    for at, value in _NON_FINITE[case].items():
        stack[(2, *at)] = value
    message = r"matrix\[2\] is not Hermitian within 1e-12 \(defect nan\)"
    for decompose in (linalg.eigh, linalg.eigvalsh, linalg.clamped_spectrum):
        with pytest.raises(NonHermitianError, match=message):
            decompose(stack)
        with pytest.raises(NonHermitianError, match=r"^matrix is not Hermitian .*\(defect nan\)"):
            decompose(stack[2])
    with pytest.raises(NonHermitianError, match=message):
        linalg.trace_distance_numeric(stack, np.broadcast_to(np.eye(3) / 3, stack.shape))
    with pytest.raises(NonHermitianError, match=message):
        linalg.trace_distance_numeric(np.broadcast_to(np.eye(3) / 3, stack.shape), stack)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dtype", [float, complex])
def test_entries_past_half_the_largest_double_do_not_overflow(dtype):
    # a Hermitian member with an entry past max/2 is symmetrised with that entry halved
    # before adding, exact there: its finite spectrum is LAPACK's on the member itself,
    # and the other members, symmetric within round-off, keep (a + a^dagger)/2 bit for bit
    huge = np.array([[1.7e308, 1.0], [1.0, 1.0]], dtype=dtype)
    if dtype is complex:
        huge[0, 1], huge[1, 0] = 1.0 + 2e307j, 1.0 - 2e307j
    near = np.array([[0.25, 0.5], [0.5 + 1e-15, 0.75]], dtype=dtype)
    stack = np.stack([huge, near])
    dec, w = linalg.eigh(stack), linalg.eigvalsh(stack)
    assert np.isfinite(w).all() and np.isfinite(dec.eigenvectors).all()
    ref = np.linalg.eigh(huge)
    assert _bits(dec.eigenvalues[0]) == _bits(w[0]) == _bits(ref.eigenvalues)
    assert _bits(dec.eigenvectors[0]) == _bits(ref.eigenvectors)
    h = (near + near.conj().T) / 2.0
    assert _bits(dec.eigenvalues[1]) == _bits(np.linalg.eigh(h).eigenvalues)
    assert _bits(w[1]) == _bits(np.linalg.eigvalsh(h))
    distance = linalg.trace_distance_numeric(huge, np.eye(2) / 2)
    assert distance == 0.5 * np.abs(np.linalg.eigvalsh(huge - np.eye(2) / 2)).sum()
    assert math.isfinite(distance)
    # a mirror pair of opposite signs past max/2 differs by more than the largest double:
    # its defect is inf, rejected without a warning
    opposite = np.array([[1.0, 1.7e308], [-1.7e308, 1.0]], dtype=dtype)
    with pytest.raises(NonHermitianError, match=r"\(defect inf\)"):
        linalg.eigvalsh(opposite)


def _nearly_pure(dim, seed):
    # a random pure state whose other eigenvalues are round-off below ZERO_SNAP
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    rho = (1.0 - 1e-14) * np.outer(v, v.conj()) + 1e-14 * np.eye(dim) / dim
    return (rho + rho.conj().T) / 2.0


def _batch(pairs):
    # the rho and the sigma of each pair, decomposed as two stacks
    drs = linalg.clamped_spectrum(np.stack([rho for rho, _ in pairs]))
    dss = linalg.clamped_spectrum(np.stack([sigma for _, sigma in pairs]))
    return drs, dss


def _cross(drs, dss):
    # every (rho, sigma) of the two stacks, row by row, as two matched stacks
    # taken at explicit index arrays
    nr, nc = len(drs.eigenvalues), len(dss.eigenvalues)
    rows, cols = np.divmod(np.arange(nr * nc), nc)
    return drs[rows], dss[cols]


def _search(drs, dss):
    # the Chernoff search on two stacks of whole states, each a one-sector list
    return linalg.qcb_kernels([drs], [dss])


def _assert_matched_pairs_are_per_pair(got, drs, dss):
    # member k of the matched search equals the search on (rho_k, sigma_k)
    # alone, bit for bit
    n = len(drs.eigenvalues)
    assert got.q.shape == got.s_star.shape == (n,)
    expected = [linalg.qcb_kernels([drs[k][None]], [dss[k][None]]) for k in range(n)]
    assert got.q.tolist() == [r.q[0] for r in expected]
    assert got.s_star.tolist() == [r.s_star[0] for r in expected]


def _assert_cross_product_is_per_pair(drs, dss):
    # every (rho, sigma) of the two stacks, not only the matched pairs, equals
    # the search on that pair alone, bit for bit
    pairs = _cross(drs, dss)
    _assert_matched_pairs_are_per_pair(_search(*pairs), *pairs)


def _rank_deficient(dim, rank, seed):
    # a random state of the given rank
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def _mp_qcb(dr, ds):
    # Reference: the minimiser of Tr(rho^s sigma^(1-s)) on [1e-9, 1 - 1e-9]
    # from the same decompositions, in 50-digit arithmetic: an end where the
    # derivative does not change sign, else the derivative's root
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    overlap = np.abs(dr.eigenvectors.conj().T @ ds.eigenvectors) ** 2
    terms = [
        (mp.mpf(float(overlap[i, j])), mp.mpf(float(p)), mp.mpf(float(q)))
        for i, p in enumerate(dr.eigenvalues)
        for j, q in enumerate(ds.eigenvalues)
        if p > 0.0 and q > 0.0
    ]

    def f(s):
        return mp.fsum(o * p**s * q ** (1 - s) for o, p, q in terms)

    def df(s):
        return mp.fsum(o * mp.log(p / q) * p**s * q ** (1 - s) for o, p, q in terms)

    lo, hi = mp.mpf(1e-9), mp.mpf(1.0 - 1e-9)
    if df(lo) >= 0:
        s = lo
    elif df(hi) <= 0:
        s = hi
    else:
        s = mp.findroot(df, (lo, hi), solver="anderson")
    return float(f(s)), float(s)


class TestQcbKernels:
    """The Chernoff search over two matched stacks equals the one-pair search on every pair."""

    @pytest.mark.parametrize("dim", [4, 9, 16])
    def test_batch_equals_scalar_search(self, dim):
        # two stacks per dimension: the kernel cases, 30 random pairs (d^2 = 4
        # and 9) and nearly-pure against maximally mixed both ways, whose
        # minimisers are the ends 1e-9 and 1 - 1e-9, among interior ones
        pairs = [(r, s) for r, s in _kernel_cases() if r.shape[0] == dim]
        if dim in (4, 9):
            pairs += [(rand_density(dim, 1000 + i), rand_density(dim, 2000 + i)) for i in range(30)]
        mixed = np.eye(dim) / dim
        pairs += [(_nearly_pure(dim, dim), mixed), (mixed, _nearly_pure(dim, dim))]
        drs, dss = _batch(pairs)
        got = _search(drs, dss)
        _assert_matched_pairs_are_per_pair(got, drs, dss)
        _assert_cross_product_is_per_pair(drs, dss)
        assert got.s_star[-2] == 1e-9
        assert got.s_star[-1] == 1.0 - 1e-9

    def test_batch_longer_than_a_coarse_chunk(self):
        # the d = 6 Werner sweep's 361 ordered pairs, the 19 identical ones
        # among them, in one matched call
        etas = np.linspace(-0.9, 0.9, 19)
        decs = linalg.clamped_spectrum(np.stack([states.werner_state(a, 6) for a in etas]))
        _assert_cross_product_is_per_pair(decs, decs)

    def test_stacks_of_different_lengths(self):
        # the cross product of 3 rho and 4 sigma, both ways, taken as matched stacks
        rhos = [rand_density(9, 6000 + i) for i in range(3)]
        sigmas = [states.werner_state(e, 3) for e in (-1.0, -0.2, 0.5, 1.0)]
        drs = linalg.clamped_spectrum(np.stack(rhos))
        dss = linalg.clamped_spectrum(np.stack(sigmas))
        _assert_cross_product_is_per_pair(drs, dss)
        _assert_cross_product_is_per_pair(dss, drs)

    def test_unequal_stack_lengths_are_rejected(self):
        # member k is set against member k, so the lengths must agree
        drs = linalg.clamped_spectrum(np.stack([rand_density(9, 6000 + i) for i in range(3)]))
        dss = linalg.clamped_spectrum(np.stack([rand_density(9, 6100 + i) for i in range(4)]))
        with pytest.raises(DimensionMismatchError, match="3 rho of dimension 9 against 4 sigma"):
            _search(drs, dss)
        with pytest.raises(DimensionMismatchError, match="1 rho of dimension 9 against 0 sigma"):
            _search(drs[:1], drs[:0])

    def test_matches_a_50_digit_root(self):
        # Werner pairs, random full-rank pairs and random rank-deficient pairs
        # whose supports overlap: q and s* against the 50-digit root of the
        # derivative of the same overlap curve
        pairs = [
            (states.werner_state(a, d), states.werner_state(b, d))
            for d in (2, 3)
            for a, b in ((0.3, -0.6), (0.9, 0.1), (-0.95, 0.5), (-0.2, -0.1))
        ]
        pairs += [(rand_density(dim, 7000 + dim), rand_density(dim, 7100 + dim)) for dim in (4, 9)]
        pairs += [
            (_rank_deficient(dim, r, 7200 + dim), _rank_deficient(dim, r + 1, 7300 + dim))
            for dim, r in ((4, 2), (9, 5))
        ]
        for rho, sigma in pairs:
            got = linalg.qcb_numeric(rho, sigma)
            q, s_star = _mp_qcb(linalg.clamped_spectrum(rho), linalg.clamped_spectrum(sigma))
            assert 1e-9 < s_star < 1.0 - 1e-9
            assert abs(got.s_star - s_star) <= 1e-12
            assert abs(got.q - q) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_mismatched_supports_end_at_the_bracket(self, d):
        # the closed form's endpoint cases: a Werner state at eta = +-1, or the
        # pure isotropic state, against a full-rank one falls towards s = 0,
        # the reverse towards s = 1; orthogonal supports have an overlap table
        # of exact zeros, so the curve is 0 and the search stops at s = 1e-9
        deficient = [states.werner_state(1.0, d), states.werner_state(-1.0, d)]
        deficient.append(states.isotropic_state(float(d), d))
        full = [states.werner_state(z, d) for z in (-0.6, 0.0, 0.3, 0.9)]
        full.append(states.isotropic_state(0.5, d))
        low = _search(*_batch([(r, s) for r in deficient for s in full]))
        high = _search(*_batch([(s, r) for r in deficient for s in full]))
        assert np.all(low.s_star == 1e-9)
        assert np.all(high.s_star == 1.0 - 1e-9)
        orthogonal = _batch(
            [
                (states.werner_state(1.0, d), states.werner_state(-1.0, d)),
                (states.isotropic_state(0.0, d), states.isotropic_state(float(d), d)),
            ]
        )
        got = _search(*orthogonal)
        assert got.s_star.tolist() == [1e-9, 1e-9]
        assert got.q.tolist() == [0.0, 0.0]

    def test_identical_states_stop_at_once(self, monkeypatch):
        # f' of a state against itself is round-off only: the search stops at
        # its first evaluation, with q = 1
        evaluations = []
        real = linalg._overlap_derivatives

        def counting(*args):
            evaluations.append(args[-1].shape)
            return real(*args)

        monkeypatch.setattr(linalg, "_overlap_derivatives", counting)
        mats = [states.werner_state(e, d) for d in (2, 3, 4) for e in (-1.0, -0.3, 0.0, 0.5, 1.0)]
        mats += [states.isotropic_state(a, d) for d in (2, 3) for a in (0.0, 0.7, float(d))]
        mats += [rand_density(dim, 7600 + dim) for dim in (4, 9, 16)] + [np.eye(4) / 4]
        for m in mats:
            evaluations.clear()
            got = linalg.qcb_numeric(m, m)
            assert len(evaluations) == 1
            assert abs(got.q - 1.0) <= 1e-12

    @pytest.mark.parametrize("dim", [4, 9, 36])
    def test_stacked_curves_equal_per_pair_curves(self, dim):
        # the curve on matched stacks (as the substitution sweep calls it), of the
        # pairs themselves and of their cross product, is row for row the
        # one-pair curve
        pairs = [(r, s) for r, s in _kernel_cases() if r.shape[0] == dim]
        pairs += [(rand_density(dim, 4000 + i), rand_density(dim, 5000 + i)) for i in range(8)]
        pairs += [(states.werner_state(0.3, 6), states.werner_state(-0.6, 6))] if dim == 36 else []
        grid = np.arange(1, 200) * 0.005
        for drs, dss in (_batch(pairs), _cross(*_batch(pairs))):
            matched = linalg.qcb_curve_kernel([drs], [dss], grid)
            assert matched.shape == (len(drs.eigenvalues), len(grid))
            for k, row in enumerate(matched):
                assert np.array_equal(row, linalg.qcb_curve_kernel([drs[k]], [dss[k]], grid))

    def test_empty_batch(self):
        empty = linalg.EigenDecomposition(np.empty((0, 4)), np.empty((0, 4, 4)))
        got = _search(empty, empty)
        assert got.q.shape == got.s_star.shape == (0,)

    def test_one_pair_call(self):
        rho, sigma = rand_density(9, 41), rand_density(9, 42)
        dr, ds = _batch([(rho, sigma)])
        got = linalg.qcb_numeric(rho, sigma)
        r = _search(dr, ds)
        assert (got.q, got.s_star) == (r.q[0], r.s_star[0])
        q, s_star = _mp_qcb(dr[0], ds[0])
        assert abs(got.q - q) <= 1e-14 and abs(got.s_star - s_star) <= 1e-12
        assert type(got.q) is float and type(got.s_star) is float

    def test_mismatched_sectors_are_rejected(self):
        # sector sequences are matched sector by sector: a differing sector count or
        # dimension, or sectors of one side with differing member counts, is named
        a, b = (linalg.clamped_spectrum(np.stack([np.eye(k) / k] * 2)) for k in (3, 6))
        for drs, dss, message in (
            ((a, b), (a,), "2 rho of dimension 3\\+6 against 2 sigma of dimension 3$"),
            ((a, b), (b, a), "against 2 sigma of dimension 6\\+3$"),
            ((a, b[:1]), (a, b[:1]), "^2/1 rho of dimension 3\\+6"),
        ):
            with pytest.raises(DimensionMismatchError, match=message):
                linalg.qcb_kernels(drs, dss)
        with pytest.raises(ValueError):
            linalg.qcb_curve_kernel((a, b), (a,), [0.5])

    def test_mismatched_batches(self):
        dr, _ = _batch([(rand_density(4, 1), rand_density(4, 2))])
        _, ds = _batch([(rand_density(9, 1), rand_density(9, 2))])
        with pytest.raises(DimensionMismatchError):
            _search(dr, ds)


class TestSldQfiKernel:
    """The SLD sum 2 sum |<i|d_rho|j>|^2 / (l_i + l_j) against families with known information."""

    def test_commuting_family_is_the_classical_information(self):
        # diag(p) moved along diag(dp): sum dp^2 / p over the support, an eigenvalue 0
        # (with dp 0 there) adding nothing
        p = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        dp = np.array([0.0, 0.05, -0.15, 0.02, 0.08])
        got = linalg.sld_qfi_kernel([linalg.clamped_spectrum(np.diag(p))], [np.diag(dp)])
        assert got == pytest.approx(np.sum(dp[1:] ** 2 / p[1:]), rel=1e-14)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.2])
    def test_pure_families(self, theta):
        # rank one, so only pairs touching the support count: 4 (<d psi|d psi> -
        # |<psi|d psi>|^2) is 4 for a real rotation in a qutrit and 1 for the phase of
        # (|0> + e^(i theta)|1>) / sqrt 2
        for psi, d_psi, info in (
            ([math.cos(theta), math.sin(theta), 0.0], [-math.sin(theta), math.cos(theta), 0.0], 4.0),
            (np.array([1.0, np.exp(1j * theta)]) / math.sqrt(2),
             np.array([0.0, 1j * np.exp(1j * theta)]) / math.sqrt(2), 1.0),
        ):
            psi, d_psi = np.asarray(psi), np.asarray(d_psi)
            d_rho = np.outer(d_psi, psi.conj()) + np.outer(psi, d_psi.conj())
            dec = linalg.clamped_spectrum(np.outer(psi, psi.conj()))
            got = linalg.sld_qfi_kernel([dec], [d_rho])
            assert got == pytest.approx(info, rel=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_flip_sectors_sum_to_the_whole_state(self, d):
        # Werner states decomposed whole and in the eigenbasis of the flip, where the
        # derivative (W(1) - W(-1))/2 is block-diagonal too: both read 1 / (1 - eta^2)
        etas = [-0.9, -0.2, 0.0, 1 / 3, 0.8]
        d_rho = (states.werner_state(1.0, d) - states.werner_state(-1.0, d)) / 2.0
        whole = linalg.sld_qfi_kernel(
            [linalg.clamped_spectrum(states.werner_state(etas, d))],
            [np.broadcast_to(d_rho, (len(etas), *d_rho.shape))],
        )
        flip = linalg.eigh(states.flip_operator(d))
        u, a = flip.eigenvectors, int(np.count_nonzero(flip.eigenvalues < 0.0))
        rot, d_rot = (u.T @ x @ u for x in (states.werner_state(etas, d), d_rho))
        sectors = linalg.sld_qfi_kernel(
            [linalg.clamped_spectrum(rot[:, :a, :a]), linalg.clamped_spectrum(rot[:, a:, a:])],
            [np.broadcast_to(x, (len(etas), *x.shape)) for x in (d_rot[:a, :a], d_rot[a:, a:])],
        )
        exact = 1.0 / (1.0 - np.square(etas))
        assert whole.shape == sectors.shape == (len(etas),)
        assert np.abs(whole / exact - 1.0).max() <= 1e-14
        assert np.abs(sectors / exact - 1.0).max() <= 1e-14

    def test_stack_members_are_their_own_calls(self):
        mats = np.stack([rand_density(4, 700 + i) for i in range(5)])
        d_rho = rand_hermitian(4, 7)
        d_rho -= np.trace(d_rho) / 4 * np.eye(4)
        decs = linalg.clamped_spectrum(mats)
        got = linalg.sld_qfi_kernel([decs], [np.broadcast_to(d_rho, mats.shape)])
        assert got.shape == (5,)
        for k, value in enumerate(got):
            assert value == linalg.sld_qfi_kernel([decs[k]], [d_rho])

    def test_empty_stack_and_unmatched_sectors(self):
        empty = linalg.EigenDecomposition(np.empty((0, 3)), np.empty((0, 3, 3)))
        assert linalg.sld_qfi_kernel([empty], [np.empty((0, 3, 3))]).shape == (0,)
        with pytest.raises(ValueError):
            linalg.sld_qfi_kernel([empty, empty], [np.eye(3)])


class TestOnePairingCheck:
    """Every kernel that sets two stacks member against member rejects an unmatched pair,
    naming both sides; the spectral kernels take lists of sector stacks only."""

    @staticmethod
    def _stack(dim, members):
        return np.stack([np.eye(dim) / dim] * members)

    def test_unmatched_member_counts(self):
        three, four, six = self._stack(3, 3), self._stack(3, 4), self._stack(3, 6)
        d3, d4 = linalg.clamped_spectrum(three), linalg.clamped_spectrum(four)
        cases = [
            (lambda: linalg.qcb_kernels([d3], [d4]), "3 rho of dimension 3 against 4 sigma"),
            # one member against two was paired with each of them
            (lambda: linalg.qcb_curve_kernel([d3[:1]], [d3[:2]], [0.5]),
             "1 rho of dimension 3 against 2 sigma of dimension 3"),
            (lambda: linalg.sld_qfi_kernel([d3], [four]), "3 rho of dimension 3 against 4 d_rho"),
            (lambda: linalg.bures_fidelity_kernel(three, four),
             "3 rho of dimension 3 against 4 sqrt\\(sigma\\) of dimension 3"),
            (lambda: linalg.trace_distance_numeric(three, four),
             "3 rho of dimension 3 against 4 sigma"),
            # a bare matrix against a stack was broadcast over it
            (lambda: linalg.trace_distance_numeric(np.eye(3) / 3, four),
             "one rho of dimension 3 against 4 sigma of dimension 3"),
            (lambda: linalg.bures_fidelity_kernel(np.eye(3) / 3, four),
             "one rho of dimension 3 against 4 sqrt\\(sigma\\)"),
            (lambda: linalg.trace_distance_numeric(six.reshape(2, 3, 3, 3), six),
             "2x3 rho of dimension 3 against 6 sigma"),
        ]
        for call, message in cases:
            with pytest.raises(DimensionMismatchError, match=message):
                call()

    def test_unmatched_sector_counts_and_dimensions(self):
        a, b = self._stack(3, 2), self._stack(6, 2)
        da, db = linalg.clamped_spectrum(a), linalg.clamped_spectrum(b)
        kernels = [
            (lambda rs, ss: linalg.qcb_kernels(rs, ss), (da, db), "sigma"),
            (lambda rs, ss: linalg.qcb_curve_kernel(rs, ss, [0.5]), (da, db), "sigma"),
            (lambda rs, ss: linalg.sld_qfi_kernel(rs, ss), (a, b), "d_rho"),
        ]
        for kernel, (x, y), other in kernels:
            for right, dims in (([x], "3"), ([y, x], "6\\+3"), ([x, y, x], "3\\+6\\+3")):
                message = f"^2 rho of dimension 3\\+6 against 2 {other} of dimension {dims}$"
                with pytest.raises(DimensionMismatchError, match=message):
                    kernel([da, db], right)
            with pytest.raises(DimensionMismatchError, match=f"^no rho against no {other}$"):
                kernel([], [])

    def test_a_bare_decomposition_is_not_a_sector_list(self):
        # it would iterate member by member, each member taken for a sector
        dec = linalg.clamped_spectrum(self._stack(3, 3))
        with pytest.raises(TypeError):
            linalg.qcb_kernels(dec, dec)
        with pytest.raises(TypeError):
            linalg.qcb_curve_kernel(dec, dec, [0.5])
        with pytest.raises(TypeError):
            linalg.sld_qfi_kernel(dec, [self._stack(3, 3)])

    def test_clamped_spectrum_names_a_member_past_the_first_block(self):
        # 5,000 4 x 4 states span two blocks of 4,096; member 4,500 is the 404th of the
        # second, and is named by its index in the whole stack, flat or shaped
        stack = self._stack(4, 5000)
        assert len(linalg._blocks(len(stack), 4)) == 2
        bad = stack.copy()
        bad[4500] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(NotDensityMatrixError, match=r"^rho\[4500\]: minimum eigenvalue"):
            linalg.clamped_spectrum(bad)
        with pytest.raises(NotDensityMatrixError, match=r"^rho\[45, 0\]: minimum eigenvalue"):
            linalg.clamped_spectrum(bad.reshape(50, 100, 4, 4))
        skew = stack.copy()
        skew[4500, 0, 1] += 1e-6
        with pytest.raises(NonHermitianError, match=r"^matrix\[4500\] is not Hermitian"):
            linalg.clamped_spectrum(skew)
        with pytest.raises(NonHermitianError, match=r"^matrix\[45, 0\] is not Hermitian"):
            linalg.clamped_spectrum(skew.reshape(50, 100, 4, 4))
        # the blocks' decompositions are the whole stack's, member for member
        whole, blocked = linalg.eigh(stack), linalg.clamped_spectrum(stack)
        assert np.array_equal(whole.eigenvectors, blocked.eigenvectors)
        w = whole.eigenvalues
        assert np.array_equal(np.where(w < linalg.ZERO_SNAP, 0.0, w), blocked.eigenvalues)
