import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import linalg, metrology, states
from wernerlab.errors import DimensionOverflowError, InvalidParameterError

SEED = 20260808

BLOCK = metrology._DRAW_BLOCK


def assert_matches_default_rng(eta, n, trials, seed):
    # the reference: the estimates of one size=trials draw from numpy's own
    # stream for the seed
    got = metrology.simulate_estimation(eta, n, trials, seed=seed)
    k = np.random.default_rng(seed).binomial(n, (1.0 + eta) / 2.0, size=trials)
    estimates = 2.0 * k / n - 1.0
    assert got.empirical_mean == float(estimates.mean())
    assert got.empirical_variance == (float(estimates.var(ddof=1)) if trials > 1 else 0.0)


class Reached(Exception):
    pass


def stop_at_first_draw(monkeypatch):
    # validation passed if the first binomial draw is reached; nothing is drawn
    class FirstDraw:
        def binomial(self, *args, **kwargs):
            raise Reached

    monkeypatch.setattr(np.random, "default_rng", lambda seed: FirstDraw())


class TestQfi:
    def test_symmetric_point(self):
        assert metrology.qfi_werner(0.0, 100) == 100.0

    def test_variance_floor_example(self):
        assert metrology.qcrb_variance(0.6, 10) == pytest.approx(0.064, abs=1e-15)

    @given(st.floats(-0.999, 0.999), st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_additive_in_probe_count(self, eta, n):
        assert metrology.qfi_werner(eta, n) == n * metrology.qfi_werner(eta, 1)

    def test_infinite_at_extremes(self):
        assert metrology.qfi_werner(1.0, 5) == math.inf
        assert metrology.qfi_werner(-1.0, 1) == math.inf
        assert metrology.qcrb_variance(1.0, 5) == 0.0

    @given(st.floats(-0.999, 0.999), st.integers(1, 1000))
    @settings(max_examples=200)
    def test_reciprocal_pair(self, eta, n):
        assert metrology.qcrb_variance(eta, n) * metrology.qfi_werner(eta, n) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            metrology.qfi_werner(1.5, 1)
        with pytest.raises(InvalidParameterError):
            metrology.qfi_werner(0.0, 0)


def _matrix_qfi(eta, delta, d=3):
    # 8 [1 - F(eta, eta + delta)] / delta^2 with F from the explicit states,
    # so no closed form is involved; O(delta) relative error
    f = linalg.bures_fidelity_numeric(
        states.werner_state(eta, d), states.werner_state(eta + delta, d)
    )
    return 8.0 * (1.0 - f) / (delta * delta)


class TestFiniteDifference:
    """qfi_werner against the fidelity drop of the explicit states."""

    def test_symmetric_point(self):
        assert _matrix_qfi(0.0, 1e-4) == pytest.approx(metrology.qfi_werner(0.0), rel=1e-3)

    def test_steep_point(self):
        got = _matrix_qfi(0.9, 1e-5)
        assert got == pytest.approx(metrology.qfi_werner(0.9), rel=1e-3)

    @pytest.mark.parametrize("eta", [(2 * i - 18) / 20 for i in range(19)])
    def test_grid_relative_accuracy(self, eta):
        got = _matrix_qfi(eta, 1e-4)
        assert got == pytest.approx(metrology.qfi_werner(eta), rel=1e-3)

    def test_halving_offset_halves_deviation(self):
        # first-order truncation term away from the symmetric point
        dev = lambda delta: abs(_matrix_qfi(0.5, delta) * 0.75 - 1.0)
        ratio = dev(5e-4) / dev(1e-3)
        assert 0.4 <= ratio <= 0.6


class TestSimulateEstimation:
    def test_measurement_probability_against_matrices(self):
        # the symmetric-subspace projector (I + F)/2 has expectation
        # (1 + eta)/2 in the state, independent of dimension
        for d in (2, 3, 4):
            for eta in (-0.7, 0.0, 0.4, 1.0):
                w = states.werner_state(eta, d)
                p_sym = (np.eye(d * d) + states.flip_operator(d)) / 2
                got = np.trace(w @ p_sym).real
                assert got == pytest.approx((1.0 + eta) / 2.0, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = metrology.simulate_estimation(0.3, 100, 500, seed=7)
        b = metrology.simulate_estimation(0.3, 100, 500, seed=7)
        assert a == b

    def test_seed_changes_result(self):
        a = metrology.simulate_estimation(0.3, 100, 500, seed=7)
        b = metrology.simulate_estimation(0.3, 100, 500, seed=8)
        assert a.empirical_mean != b.empirical_mean

    def test_report_fields(self):
        rep = metrology.simulate_estimation(0.3, 1000, 100, seed=SEED)
        assert rep.eta_true == 0.3
        assert rep.n == 1000
        assert rep.trials == 100
        assert rep.seed == SEED
        assert rep.qcrb_variance * rep.qfi == pytest.approx(1.0, rel=1e-14)
        assert rep.empirical_variance >= 0.0

    def test_variance_at_symmetric_point(self):
        # exact estimator variance is 1/n; empirical within five standard
        # errors of a sample variance over `trials` draws
        rep = metrology.simulate_estimation(0.0, 1000, 10_000, seed=SEED)
        se = rep.qcrb_variance * math.sqrt(2.0 / (rep.trials - 1))
        assert abs(rep.empirical_variance - 1.0 / 1000) <= 5 * se

    def test_variance_at_generic_point(self):
        rep = metrology.simulate_estimation(0.3, 1000, 10_000, seed=SEED)
        assert rep.empirical_variance == pytest.approx(9.1e-4, rel=0.05)

    def test_near_deterministic_point(self):
        rep = metrology.simulate_estimation(0.999, 1000, 10_000, seed=SEED)
        assert rep.empirical_variance < 0.1 / 1000
        assert rep.empirical_variance * rep.qfi == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.6, -0.9])
    def test_saturates_variance_floor(self, eta):
        rep = metrology.simulate_estimation(eta, 1000, 10_000, seed=SEED)
        assert 0.95 <= rep.empirical_variance * rep.qfi <= 1.05

    @pytest.mark.parametrize("eta", [0.0, 0.3, -0.9])
    def test_unbiased(self, eta):
        rep = metrology.simulate_estimation(eta, 1000, 10_000, seed=SEED)
        assert abs(rep.empirical_mean - eta) <= 4 * math.sqrt(
            rep.empirical_variance / rep.trials
        )

    def test_standard_quantum_limit_scaling(self):
        v_n = metrology.simulate_estimation(0.3, 1000, 10_000, seed=1).empirical_variance
        v_2n = metrology.simulate_estimation(0.3, 2000, 10_000, seed=2).empirical_variance
        assert v_2n / v_n == pytest.approx(0.5, rel=0.1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            metrology.simulate_estimation(1.0, 10, 10, seed=0)
        with pytest.raises(InvalidParameterError):
            metrology.simulate_estimation(0.5, 10, 0, seed=0)
        with pytest.raises(InvalidParameterError, match="non-negative integer"):
            metrology.simulate_estimation(0.5, 10, 10, seed=-1)
        with pytest.raises(InvalidParameterError, match="non-negative integer"):
            metrology.simulate_estimation(0.5, 10, 10, seed=1.5)

    def test_trial_cap_is_accepted(self, monkeypatch):
        stop_at_first_draw(monkeypatch)
        with pytest.raises(Reached):
            metrology.simulate_estimation(0.5, 10, metrology.TRIAL_CAP, seed=0)

    def test_trial_cap_plus_one_is_rejected_up_front(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # never reached
        with pytest.raises(DimensionOverflowError, match="exceeds cap"):
            metrology.simulate_estimation(0.5, 10, metrology.TRIAL_CAP + 1, seed=0)

    def test_largest_int64_probe_count_is_accepted(self, monkeypatch):
        stop_at_first_draw(monkeypatch)
        with pytest.raises(Reached):
            metrology.simulate_estimation(0.5, 2**63 - 1, 3, seed=0)

    @pytest.mark.parametrize("n", [2**63, 10**20])
    def test_probe_count_above_int64_is_rejected_up_front(self, monkeypatch, n):
        monkeypatch.setattr(np.random, "default_rng", None)  # never reached
        with pytest.raises(DimensionOverflowError, match="probe count .* exceeds cap"):
            metrology.simulate_estimation(0.5, n, 3, seed=0)

    def test_probe_count_beyond_a_double_is_rejected_up_front(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # never reached
        with pytest.raises(DimensionOverflowError, match="range of a double"):
            metrology.simulate_estimation(0.5, 10**400, 3, seed=0)


class TestSingleStream:
    """numpy itself is the reference: trial i is the i-th draw of
    default_rng(seed), whatever the block boundaries."""

    @pytest.mark.parametrize("trials", [1, 2, 500, BLOCK, BLOCK + 1, 10_000])
    def test_draws_match_default_rng(self, trials):
        assert_matches_default_rng(0.3, 1000, trials, SEED)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1, 2**200 + 3])
    def test_draws_match_default_rng_across_seed_widths(self, seed):
        for trials in (1, 2, BLOCK + 1):
            assert_matches_default_rng(-0.6, 50, trials, seed)
