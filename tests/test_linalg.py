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
    return linalg.random_density_matrix(dim, np.random.default_rng(seed).normal(size=(2, dim, dim)))


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


class TestPartialTranspose:
    def test_product_state(self):
        rho = rand_density(3, 1)
        sigma = rand_density(3, 2)
        out = linalg.partial_transpose(linalg.tensor_product(rho, sigma), 3)
        assert np.abs(out - linalg.tensor_product(rho, sigma.T)).max() <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_involution(self, d):
        a = rand_hermitian(d * d, seed=d)
        out = linalg.partial_transpose(linalg.partial_transpose(a, d), d)
        assert np.abs(out - a).max() <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_flip_maps_to_entangled_operator(self, d):
        got = linalg.partial_transpose(states.flip_operator(d), d)
        assert np.abs(got - states.max_entangled_operator(d)).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_werner_pt_is_isotropic_below_one(self, alpha, d):
        got = linalg.partial_transpose(states.werner_state(alpha, d), d)
        assert np.abs(got - states.isotropic_state(alpha, d)).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_transpose(np.eye(6), 2)


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
        assert np.abs(linalg.qcb_curve_kernel(dec, dec, grid) - 1.0).max() <= 1e-12

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
        r = linalg.qcb_kernels(dr[None], ds[None])
        assert r.q.shape == r.s_star.shape == (1,)
        assert linalg.qcb_numeric(rho, sigma) == (r.q[0], r.s_star[0])

    @pytest.mark.parametrize("rho,sigma", _kernel_cases())
    def test_qcb_curve_is_the_coarse_pass(self, rho, sigma):
        dr, ds = linalg.clamped_spectrum(rho), linalg.clamped_spectrum(sigma)
        grid = np.arange(1, 200) * 0.005
        curve = linalg.qcb_curve_kernel(dr, ds, grid)
        # the curve is convex, so the searched minimiser lies within one grid
        # step of the sampled curve's minimum
        s_star = linalg.qcb_kernels(dr[None], ds[None]).s_star[0]
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
            fid = linalg.bures_fidelity_kernel(rho, roots)
            assert fid == [linalg.bures_fidelity_numeric(rho, s) for s in mats]
            dist = linalg.trace_distance_numeric(rho, mats)
            assert dist == [linalg.trace_distance_numeric(rho, s) for s in mats]
            rel = linalg._relative_entropies(decs[i], decs)[0].tolist()
            members = [decs[j] for j in range(len(mats))]
            assert rel == [_scalar_relative_entropy(decs[i], ds) for ds in members]
            assert rel == [linalg._relative_entropies(decs[i], ds)[0].tolist() for ds in members]
            curves = linalg.qcb_curve_kernel(decs[i], decs, grid)
            for j, row in enumerate(curves):
                assert np.array_equal(row, linalg.qcb_curve_kernel(decs[i], decs[j], grid))
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
        assert linalg.bures_fidelity_kernel(rho, roots) == [
            linalg.bures_fidelity_kernel(rho, linalg.spectral_sqrt(linalg.clamped_spectrum(m)))
            for m in mats
        ]
        assert linalg.trace_distance_numeric(rho, mats) == [
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
        rhos, us = linalg.random_density_matrix(d, normals), linalg.random_unitary(d, normals)
        rng = np.random.default_rng(d)
        for k in range(len(normals)):
            assert np.array_equal(rhos[k], linalg.random_density_matrix(d, normals[k]))
            assert np.array_equal(us[k], linalg.random_unitary(d, normals[k]))
            drawn = linalg.random_density_matrix if k % 2 == 0 else linalg.random_unitary
            assert np.array_equal(drawn(d, rng.normal(size=(2, d, d))), (rhos if k % 2 == 0 else us)[k])
        grid = linalg.random_unitary(d, normals.reshape(2, 3, 2, d, d))
        assert np.array_equal(grid.reshape(us.shape), us)

    def test_random_draws_check_the_normals_shape(self):
        with pytest.raises(DimensionMismatchError, match=r"\(\.\.\., 2, 3, 3\)"):
            linalg.random_unitary(3, np.zeros((4, 3, 3)))

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
            linalg.trace_distance_numeric(mats.reshape(3, 4, 4, 4), np.eye(4) / 4)
        # a non-Hermitian root makes that member's inner matrix non-Hermitian
        roots = np.stack([np.eye(4)] * 12)
        roots[5, 0, 1] = 0.5
        with pytest.raises(NonHermitianError, match=r"matrix\[5\] is not Hermitian"):
            linalg.bures_fidelity_kernel(mats[0], roots)

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
            linalg.bures_fidelity_kernel(mats[7], roots)

    def test_single_matrix_messages_carry_no_index(self):
        with pytest.raises(NonHermitianError, match=r"^matrix is not Hermitian"):
            linalg.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotDensityMatrixError, match=r"^sigma: minimum eigenvalue"):
            linalg.clamped_spectrum(np.diag([1.5, -0.5]), "sigma")

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
        linalg.trace_distance_numeric(stack, np.eye(3) / 3)
    with pytest.raises(NonHermitianError, match=message):
        linalg.trace_distance_numeric(np.eye(3) / 3, stack)


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


def _assert_matched_pairs_are_per_pair(got, drs, dss):
    # member k of the matched search equals the search on (rho_k, sigma_k)
    # alone, bit for bit
    n = len(drs.eigenvalues)
    assert got.q.shape == got.s_star.shape == (n,)
    expected = [linalg.qcb_kernels(drs[k][None], dss[k][None]) for k in range(n)]
    assert got.q.tolist() == [r.q[0] for r in expected]
    assert got.s_star.tolist() == [r.s_star[0] for r in expected]


def _assert_cross_product_is_per_pair(drs, dss):
    # every (rho, sigma) of the two stacks, not only the matched pairs, equals
    # the search on that pair alone, bit for bit
    pairs = _cross(drs, dss)
    _assert_matched_pairs_are_per_pair(linalg.qcb_kernels(*pairs), *pairs)


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
        got = linalg.qcb_kernels(drs, dss)
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
            linalg.qcb_kernels(drs, dss)
        with pytest.raises(DimensionMismatchError, match="1 rho of dimension 9 against 0 sigma"):
            linalg.qcb_kernels(drs[:1], drs[:0])

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
        low = linalg.qcb_kernels(*_batch([(r, s) for r in deficient for s in full]))
        high = linalg.qcb_kernels(*_batch([(s, r) for r in deficient for s in full]))
        assert np.all(low.s_star == 1e-9)
        assert np.all(high.s_star == 1.0 - 1e-9)
        orthogonal = _batch(
            [
                (states.werner_state(1.0, d), states.werner_state(-1.0, d)),
                (states.isotropic_state(0.0, d), states.isotropic_state(float(d), d)),
            ]
        )
        got = linalg.qcb_kernels(*orthogonal)
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
            matched = linalg.qcb_curve_kernel(drs, dss, grid)
            assert matched.shape == (len(drs.eigenvalues), len(grid))
            for k, row in enumerate(matched):
                assert np.array_equal(row, linalg.qcb_curve_kernel(drs[k], dss[k], grid))

    def test_empty_batch(self):
        empty = linalg.EigenDecomposition(np.empty((0, 4)), np.empty((0, 4, 4)))
        got = linalg.qcb_kernels(empty, empty)
        assert got.q.shape == got.s_star.shape == (0,)

    def test_one_pair_call(self):
        rho, sigma = rand_density(9, 41), rand_density(9, 42)
        dr, ds = _batch([(rho, sigma)])
        got = linalg.qcb_numeric(rho, sigma)
        r = linalg.qcb_kernels(dr, ds)
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
            linalg.qcb_kernels(dr, ds)
