import numpy as np
import pytest

from wernerlab import linalg, states, teleport
from wernerlab.errors import DimensionMismatchError, DimensionOverflowError, NotUnitaryError


def rand_density(dim, seed):
    return linalg.random_density_matrix(dim, np.random.default_rng(seed).normal(size=(2, dim, dim)))


def phi_projector(d):
    phi = states.max_entangled_ket(d)
    return np.outer(phi, phi.conj())


class TestWeylUnitaries:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitary(self, d):
        for a in range(d):
            for b in range(d):
                u = teleport.weyl_unitary(a, b, d)
                assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-14

    def test_shift_action(self):
        x = teleport.weyl_unitary(1, 0, 3)
        ket0 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(x @ ket0, [0.0, 1.0, 0.0])

    def test_phase_action(self):
        z = teleport.weyl_unitary(0, 1, 3)
        omega = np.exp(2j * np.pi / 3)
        assert np.allclose(np.diag(z), [1.0, omega, omega**2])

    def test_qubit_unitaries_are_real(self):
        # the correction families coincide at d = 2
        for a in range(2):
            for b in range(2):
                u = teleport.weyl_unitary(a, b, 2)
                assert np.abs(u.imag).max() <= 1e-15


def _bell_vectors(d):
    # (U_ab (x) I)|Phi> = vec(U_ab)/sqrt(d), one column per label at index a*d + b
    us = [teleport.weyl_unitary(a, b, d) for a in range(d) for b in range(d)]
    return np.stack([u.reshape(-1) for u in us], axis=1) / np.sqrt(d)


class TestBellBasis:
    """The Bell basis that teleport_channel measures in, from weyl_unitary."""

    def test_qubit_bell_states(self):
        # labels (a, b) = (shift, phase)
        basis = _bell_vectors(2)
        s = 1 / np.sqrt(2)
        assert np.allclose(basis[:, 0], [s, 0, 0, s])        # (|00> + |11>)/sqrt 2
        assert np.allclose(basis[:, 1], [s, 0, 0, -s])       # (|00> - |11>)/sqrt 2
        assert np.allclose(basis[:, 2], [0, s, s, 0])        # (|01> + |10>)/sqrt 2
        assert np.allclose(basis[:, 3], [0, -s, s, 0])       # (|10> - |01>)/sqrt 2

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_and_complete(self, d):
        # Tr(U_ab^dag U_a'b') = d delta_(ab),(a'b')
        us = [teleport.weyl_unitary(a, b, d) for a in range(d) for b in range(d)]
        gram = np.array([[np.trace(u.conj().T @ v) for v in us] for u in us])
        assert np.abs(gram - d * np.eye(d * d)).max() <= 1e-10
        basis = _bell_vectors(d)
        completeness = basis @ basis.conj().T
        assert np.abs(completeness - np.eye(d * d)).max() <= 1e-10

    def test_each_vector_maximally_entangled(self):
        d = 3
        basis = _bell_vectors(d)
        for k in range(d * d):
            v = basis[:, k].reshape(d, d)
            reduced = v @ v.conj().T  # trace over the second factor
            assert np.abs(reduced - np.eye(d) / d).max() <= 1e-12


class TestTeleportChannel:
    @pytest.mark.parametrize("d", [2, 3])
    def test_textbook_identity(self, d):
        rho = rand_density(d, seed=d)
        out = teleport.teleport_channel(
            phi_projector(d), rho, conjugate_corrections=False
        )
        assert linalg.trace_distance_numeric(out, rho) <= 1e-12

    def test_qubit_identity_under_default_corrections(self):
        rho = rand_density(2, seed=9)
        out = teleport.teleport_channel(phi_projector(2), rho)
        assert linalg.trace_distance_numeric(out, rho) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_simulates_channel_over_its_choi_state(self, eta, d):
        resource = states.werner_state(eta, d)
        channel = states.HWChannel(eta, d)
        rng = np.random.default_rng(17)
        for _ in range(5):
            rho = linalg.random_density_matrix(d, rng.normal(size=(2, d, d)))
            out = teleport.teleport_channel(resource, rho)
            assert linalg.trace_distance_numeric(out, channel.apply(rho)) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_depolarizing_with_plain_corrections(self, d):
        alpha = 0.8 * d
        resource = states.isotropic_state(alpha, d)
        channel = states.DepolarizingChannel(alpha, d)
        rho = rand_density(d, seed=23)
        out = teleport.teleport_channel(resource, rho, conjugate_corrections=False)
        assert linalg.trace_distance_numeric(out, channel.apply(rho)) <= 1e-10

    def test_linear_in_the_input(self):
        d = 3
        resource = states.werner_state(-0.6, d)
        rho = rand_density(d, seed=41)
        sigma = rand_density(d, seed=43)
        mix = 0.3 * rho + 0.7 * sigma
        out_mix = teleport.teleport_channel(resource, mix)
        out_sum = 0.3 * teleport.teleport_channel(resource, rho) + 0.7 * teleport.teleport_channel(
            resource, sigma
        )
        assert linalg.trace_distance_numeric(out_mix, out_sum) <= 1e-10

    def test_incompatible_shapes(self):
        with pytest.raises(DimensionMismatchError):
            teleport.teleport_channel(np.eye(9) / 9, np.eye(2) / 2)

    def test_joint_operator_is_size_checked(self, monkeypatch):
        # d = 17: d^3 = 4913 is above TENSOR_DIM_CAP, rejected before any work
        monkeypatch.setattr(linalg.np, "kron", None)
        with pytest.raises(DimensionOverflowError, match="4913 exceeds cap 4096"):
            teleport.teleport_channel(np.eye(289) / 289, np.eye(17) / 17)

    def test_largest_dimension_builds_no_joint_operator(self, monkeypatch):
        # d = 16, the largest the cap admits: each branch contracts the
        # 256 x 256 resource, with no 4096 x 4096 input-resource product
        monkeypatch.setattr(linalg.np, "kron", None)
        rho = rand_density(16, seed=67)
        out = teleport.teleport_channel(states.werner_state(0.5, 16), rho)
        expected = states.HWChannel(0.5, 16).apply(rho)
        assert linalg.trace_distance_numeric(out, expected) <= 1e-10


class TestStacks:
    """Every member of a stacked call equals its one-input call, bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_teleport_channel_and_apply(self, d):
        rng = np.random.default_rng(70 + d)
        rhos = linalg.random_density_matrix(d, rng.normal(size=(2, 3, 2, d, d)))
        resource, channel = states.werner_state(-0.3, d), states.HWChannel(-0.3, d)
        plain = states.isotropic_state(0.8 * d, d)
        out = teleport.teleport_channel(resource, rhos)
        out_plain = teleport.teleport_channel(plain, rhos, conjugate_corrections=False)
        depolarizing = states.DepolarizingChannel(0.8 * d, d)
        applied, depolarized = channel.apply(rhos), depolarizing.apply(rhos)
        assert out.shape == out_plain.shape == applied.shape == depolarized.shape == (2, 3, d, d)
        for k in np.ndindex(2, 3):
            assert np.array_equal(out[k], teleport.teleport_channel(resource, rhos[k]))
            assert np.array_equal(
                out_plain[k], teleport.teleport_channel(plain, rhos[k], conjugate_corrections=False)
            )
            assert np.array_equal(applied[k], channel.apply(rhos[k]))
            assert np.array_equal(depolarized[k], depolarizing.apply(rhos[k]))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_covariance_pairs(self, d):
        rng = np.random.default_rng(80 + d)
        normals = rng.normal(size=(5, 2, d, d))
        rhos, us = linalg.random_density_matrix(d, normals), linalg.random_unitary(d, normals[::-1])
        channel = states.HWChannel(0.6, d)
        defects = teleport.covariance_check(channel, us, rhos)
        assert defects == [teleport.covariance_check(channel, u, rho) for u, rho in zip(us, rhos)]

    def test_non_unitary_member_is_named(self):
        us = np.stack([np.eye(2), teleport.weyl_unitary(1, 1, 2), 2.0 * np.eye(2)])
        rho = rand_density(2, seed=65)
        with pytest.raises(NotUnitaryError, match=r"matrix\[2\] is not unitary"):
            teleport.covariance_check(states.HWChannel(0.0, 2), us, rho)


class TestCovariance:
    def test_identity_unitary(self):
        rho = rand_density(3, seed=51)
        defect = teleport.covariance_check(states.HWChannel(0.7, 3), np.eye(3), rho)
        assert defect <= 1e-14

    def test_random_unitary(self):
        rng = np.random.default_rng(53)
        u = linalg.random_unitary(3, rng.normal(size=(2, 3, 3)))
        rho = linalg.random_density_matrix(3, rng.normal(size=(2, 3, 3)))
        defect = teleport.covariance_check(states.HWChannel(0.7, 3), u, rho)
        assert defect <= 1e-10

    def test_shift_unitary_extremal_channel(self):
        x = teleport.weyl_unitary(1, 0, 2)
        rho = rand_density(2, seed=59)
        defect = teleport.covariance_check(states.HWChannel(-1.0, 2), x, rho)
        assert defect <= 1e-12

    def test_rejects_non_unitary(self):
        rho = rand_density(2, seed=61)
        with pytest.raises(NotUnitaryError, match="^matrix is not unitary"):
            teleport.covariance_check(states.HWChannel(0.0, 2), np.ones((2, 2)), rho)
