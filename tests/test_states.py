import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import linalg, states
from wernerlab.errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidDimensionError,
    InvalidParameterError,
)

ETA_GRID = [(2 * i - 20) / 20 for i in range(21)]


class _IdentityChannel:
    def __init__(self, d):
        self.d = d

    def apply(self, x):
        return np.asarray(x, dtype=complex)


class TestOperators:
    def test_flip_swaps_basis_states(self):
        f = states.flip_operator(2)
        ket01 = np.zeros(4)
        ket01[0 * 2 + 1] = 1.0
        ket10 = np.zeros(4)
        ket10[1 * 2 + 0] = 1.0
        assert np.allclose(f @ ket01, ket10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_traces(self, d):
        assert np.trace(states.flip_operator(d)).real == pytest.approx(d)
        assert np.trace(states.max_entangled_operator(d)).real == pytest.approx(d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_algebraic_relations(self, d):
        f = states.flip_operator(d)
        m = states.max_entangled_operator(d)
        assert np.abs(f @ f - np.eye(d * d)).max() <= 1e-13
        assert np.array_equal(m @ m, d * m)
        assert linalg.hermiticity_defect(f) <= 1e-14
        assert linalg.hermiticity_defect(m) <= 1e-14

    @pytest.mark.parametrize("d", range(2, 17))
    def test_flip_partial_transpose(self, d):
        # both are exact 0/1 matrices, so they agree bit for bit
        got = linalg.partial_transpose(states.flip_operator(d), d)
        assert np.array_equal(got, states.max_entangled_operator(d))

    def test_rejects_small_dimension(self):
        with pytest.raises(InvalidDimensionError):
            states.flip_operator(1)

    @pytest.mark.parametrize(
        "build",
        [
            states.flip_operator,
            states.max_entangled_operator,
            lambda d: states.werner_state(0.5, d),
            lambda d: states.isotropic_state(1.0, d),
            lambda d: states.choi_matrix(states.HWChannel(0.5, d)),
        ],
        ids=["flip_operator", "max_entangled_operator", "werner_state", "isotropic_state", "choi"],
    )
    def test_rejects_oversized_dimension_before_allocating(self, monkeypatch, build):
        # d = 65 gives 4225 > TENSOR_DIM_CAP rows; nothing may be built
        monkeypatch.setattr(states.np, "eye", None)
        monkeypatch.setattr(states.np, "zeros", None)
        with pytest.raises(DimensionOverflowError, match="4225 exceeds cap 4096"):
            build(65)


def _complex_operators(d):
    # the flip and maximally entangled operators and ket, built in complex arithmetic;
    # F and M entry by entry, exactly 0/1
    f = np.zeros((d * d, d * d), dtype=complex)
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
            m[i * d + i, j * d + j] = 1.0
    phi = np.zeros(d * d, dtype=complex)
    phi[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return f, phi, m


def _same_bits(real, formula):
    # a float64 array whose entries are, bit for bit, the real parts of an
    # exactly real complex array
    assert real.dtype == np.dtype(float)
    assert not formula.imag.any()
    return real.shape == formula.shape and real.tobytes() == formula.real.tobytes()


@pytest.mark.parametrize("d", range(2, 17))
def test_builders_are_real_and_equal_the_complex_formulas(d):
    # every state of the 0.01 grid, Werner at eta and isotropic at alpha = d(1 + eta)/2
    f, phi, m = _complex_operators(d)
    ident = np.eye(d * d, dtype=complex)
    assert _same_bits(states.flip_operator(d), f)
    assert _same_bits(states.max_entangled_ket(d), phi)
    assert _same_bits(states.max_entangled_operator(d), m)
    for i in range(201):
        eta = (2 * i - 200) / 200
        alpha = d * (1.0 + eta) / 2.0
        werner = ((d - eta) * ident + (d * eta - 1.0) * f) / (d**3 - d)
        isotropic = ((d - alpha) * ident + (d * alpha - 1.0) * m) / (d**3 - d)
        assert _same_bits(states.werner_state(eta, d), werner), eta
        assert _same_bits(states.isotropic_state(alpha, d), isotropic), alpha


class TestWernerState:
    def test_singlet_at_minus_one(self):
        w = states.werner_state(-1.0, 2)
        ev = linalg.eigh(w).eigenvalues
        assert np.allclose(ev, [0.0, 0.0, 0.0, 1.0], atol=1e-13)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.abs(w - np.outer(singlet, singlet)).max() <= 1e-13

    def test_flip_expectation(self):
        w = states.werner_state(0.3, 3)
        assert np.trace(w @ states.flip_operator(3)).real == pytest.approx(0.3, abs=1e-12)

    def test_eigh_matches_spectrum_classes(self):
        # (1 + eta)/(d(d+1)) x d(d+1)/2 and (1 - eta)/(d(d-1)) x d(d-1)/2
        got = linalg.eigh(states.werner_state(0.4, 3)).eigenvalues
        expected = np.sort(np.repeat([1.4 / 12, 0.6 / 6], [6, 3]))
        assert np.abs(got - expected).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_density_matrix_invariants_on_grid(self, d):
        for eta in ETA_GRID:
            w = states.werner_state(eta, d)
            linalg.clamped_spectrum(w)  # Hermitian, no eigenvalue below PSD_FLOOR
            assert abs(np.trace(w) - 1.0) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_local_unitary_invariance(self, d):
        rng = np.random.default_rng(d)
        w = states.werner_state(0.6, d)
        for _ in range(5):
            u = linalg.random_unitary(d, rng.normal(size=(2, d, d)))
            uu = linalg.tensor_product(u, u)
            assert np.abs(uu @ w @ uu.conj().T - w).max() <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_positive_partial_transpose_iff_nonnegative_eta(self, d):
        for eta in ETA_GRID:
            pt = linalg.partial_transpose(states.werner_state(eta, d), d)
            min_eig = linalg.eigh(pt).eigenvalues.min()
            assert (min_eig >= -1e-10) == (eta >= 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            states.werner_state(1.2, 3)


class TestWernerSpectrum:
    """The two eigenvalue classes of the explicit state, against eigh."""

    @staticmethod
    def _classes(eta, d):
        sym = np.full(d * (d + 1) // 2, (1.0 + eta) / (d * (d + 1)))
        anti = np.full(d * (d - 1) // 2, (1.0 - eta) / (d * (d - 1)))
        return np.sort(np.concatenate([sym, anti]))

    def test_maximally_mixed_qubit_pair(self):
        got = linalg.eigh(states.werner_state(0.0, 2)).eigenvalues
        assert np.abs(got - [1 / 6, 1 / 6, 1 / 6, 1 / 2]).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_symmetric_projector_extreme(self, d):
        got = linalg.eigh(states.werner_state(1.0, d)).eigenvalues
        expected = np.repeat([0.0, 2 / (d * (d + 1))], [d * (d - 1) // 2, d * (d + 1) // 2])
        assert np.abs(got - expected).max() <= 1e-13

    @given(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.integers(2, 6),
    )
    @settings(max_examples=80)
    def test_normalised(self, eta, d):
        expected = self._classes(eta, d)
        assert expected.sum() == pytest.approx(1.0, abs=1e-12)
        assert expected.size == d * d and expected.min() >= 0.0
        got = linalg.eigh(states.werner_state(eta, d)).eigenvalues
        assert np.abs(got - expected).max() <= 1e-13


class TestIsotropicState:
    def test_maximally_entangled_extreme(self):
        d = 3
        phi = states.max_entangled_ket(d)
        got = states.isotropic_state(float(d), d)
        assert np.abs(got - np.outer(phi, phi.conj())).max() <= 1e-13

    def test_spectrum_against_eigh(self):
        got = linalg.eigh(states.isotropic_state(1.0, 2)).eigenvalues
        # alpha/d x 1 and (d - alpha)/(d(d^2 - 1)) x (d^2 - 1), at alpha = 1, d = 2
        assert np.abs(got - [1 / 6, 1 / 6, 1 / 6, 0.5]).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_entangled_operator_expectation(self, d):
        for alpha in (0.0, 0.7, 1.0, d / 2, float(d)):
            om = states.isotropic_state(alpha, d)
            got = np.trace(om @ states.max_entangled_operator(d)).real
            assert got == pytest.approx(alpha, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_p_form_roundtrip(self, d):
        # the mixing form p I/d^2 + (1 - p) |Phi><Phi| with
        # p = d (d - alpha) / (d^2 - 1)
        phi = states.max_entangled_ket(d)
        for alpha in (0.0, 0.4, 1.0, 1.8, float(d)):
            p = d * (d - alpha) / (d * d - 1.0)
            via_p = p * np.eye(d * d) / (d * d) + (1.0 - p) * np.outer(phi, phi.conj())
            direct = states.isotropic_state(alpha, d)
            assert np.abs(direct - via_p).max() <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            states.isotropic_state(2.5, 2)


class TestChannels:
    def test_extremal_channel(self):
        rho = linalg.random_density_matrix(3, np.random.default_rng(0).normal(size=(2, 3, 3)))
        got = states.HWChannel(-1.0, 3).apply(rho)
        assert np.abs(got - (np.eye(3) - rho.T) / 2).max() <= 1e-13

    def test_symmetric_extreme_on_basis_state(self):
        got = states.HWChannel(1.0, 2).apply(np.diag([1.0, 0.0]))
        assert np.allclose(got, np.diag([2 / 3, 1 / 3]), atol=1e-14)

    @pytest.mark.parametrize("eta", [-1.0, -0.2, 0.0, 0.7, 1.0])
    def test_maximally_mixed_fixed_point(self, eta):
        d = 3
        got = states.HWChannel(eta, d).apply(np.eye(d) / d)
        assert np.abs(got - np.eye(d) / d).max() <= 1e-14

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_depolarizing_is_transposed_channel(self, alpha):
        # for alpha <= 1 the two families share parameters
        d = 3
        rho = linalg.random_density_matrix(d, np.random.default_rng(4).normal(size=(2, d, d)))
        via_transpose = states.HWChannel(alpha, d).apply(rho.T)
        direct = states.DepolarizingChannel(alpha, d).apply(rho)
        assert np.abs(direct - via_transpose).max() <= 1e-12

    def test_depolarizing_identity_extreme(self):
        d = 3
        rho = linalg.random_density_matrix(d, np.random.default_rng(5).normal(size=(2, d, d)))
        got = states.DepolarizingChannel(float(d), d).apply(rho)
        assert np.abs(got - rho).max() <= 1e-13

    def test_depolarizing_fixed_point(self):
        d = 4
        for alpha in (0.0, 1.0, 2.5, 4.0):
            got = states.DepolarizingChannel(alpha, d).apply(np.eye(d) / d)
            assert np.abs(got - np.eye(d) / d).max() <= 1e-14

    @pytest.mark.parametrize("eta", [-1.0, -0.3, 0.0, 0.5, 1.0])
    def test_trace_preserving_and_positive(self, eta):
        d = 3
        rho = linalg.random_density_matrix(d, np.random.default_rng(6).normal(size=(2, d, d)))
        out = states.HWChannel(eta, d).apply(rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert linalg.eigh(out).eigenvalues.min() >= -1e-12

    def test_input_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            states.HWChannel(0.5, 3).apply(np.eye(2) / 2)


class TestChoiMatrix:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_hw_channel_choi_is_werner(self, eta, d):
        got = states.choi_matrix(states.HWChannel(eta, d))
        assert np.abs(got - states.werner_state(eta, d)).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("alpha_frac", [0.0, 0.25, 0.75, 1.0])
    def test_depolarizing_choi_is_isotropic(self, alpha_frac, d):
        alpha = alpha_frac * d
        got = states.choi_matrix(states.DepolarizingChannel(alpha, d))
        assert np.abs(got - states.isotropic_state(alpha, d)).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_identity_channel_choi_is_max_entangled(self, d):
        phi = states.max_entangled_ket(d)
        got = states.choi_matrix(_IdentityChannel(d))
        assert np.abs(got - np.outer(phi, phi.conj())).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_stacked_apply_equals_the_per_unit_loop(self, d):
        # one apply over the stack of matrix units |i><j|, bit for bit the
        # block-by-block construction
        for channel in (
            states.HWChannel(0.37, d),
            states.DepolarizingChannel(0.8 * d, d),
            _IdentityChannel(d),
        ):
            chi = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    unit = np.zeros((d, d), dtype=complex)
                    unit[i, j] = 1.0
                    chi[i * d : (i + 1) * d, j * d : (j + 1) * d] = channel.apply(unit)
            assert np.array_equal(states.choi_matrix(channel), chi / d)
