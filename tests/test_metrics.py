import functools
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import discrimination, linalg, metrics, states
from wernerlab.errors import (
    DimensionOverflowError,
    InvalidParameterError,
    SupportMismatchError,
)

etas = st.floats(-1.0, 1.0, allow_nan=False)
inner_etas = st.floats(-0.99, 0.99, allow_nan=False)


@functools.cache
def mp_class_weights(eta, n):
    # C(n, k) p^k (1 - p)^(n - k), p = (1 + eta)/2, at 60 digits
    with mpmath.workdps(60):
        p = (1 + mpmath.mpf(eta)) / 2
        return tuple(mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1))


def mp_helstrom(w_eta, w_zeta):
    # exact block error as half the summed class minima (Audenaert et al. 2007)
    with mpmath.workdps(60):
        return mpmath.fsum(map(min, w_eta, w_zeta)) / 2


def mp_delta_s(eta, zeta):
    # (1 + h) log2[(1+eta)/(1+zeta)] + (1 - h) log2[(1-eta)/(1-zeta)], h = (eta+zeta)/2, at
    # 60 digits: the gap-1e-13 pairs cancel 26 of them
    with mpmath.workdps(60):
        eta, zeta = mpmath.mpf(eta), mpmath.mpf(zeta)
        h = (eta + zeta) / 2
        return (1 + h) * mpmath.log((1 + eta) / (1 + zeta), 2) + (1 - h) * mpmath.log(
            (1 - eta) / (1 - zeta), 2
        )


def assert_relative(got, exact, rel, where):
    # below the normal range a double holds no relative precision
    if exact < sys.float_info.min:
        assert 0.0 <= got < sys.float_info.min, where
    else:
        assert abs(got - exact) <= rel * exact, where


FID_HALF_ZERO = (math.sqrt(1.5) + math.sqrt(0.5)) / 2
RELENT_HALF_ZERO = 0.75 * math.log2(1.5) + 0.25 * math.log2(0.5)


class TestFidelity:
    @given(etas)
    def test_self_fidelity_is_one(self, eta):
        assert metrics.fidelity_werner(eta, eta) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_extremes(self):
        assert metrics.fidelity_werner(1.0, -1.0) == 0.0

    def test_reference_value(self):
        assert metrics.fidelity_werner(0.5, 0.0) == pytest.approx(
            FID_HALF_ZERO, abs=1e-15
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_matrix_oracle(self, d):
        for eta, zeta in [(0.5, 0.0), (-1.0, 0.3), (0.9, -0.9), (1.0, 1.0)]:
            numeric = linalg.bures_fidelity_numeric(
                states.werner_state(eta, d), states.werner_state(zeta, d)
            )
            assert metrics.fidelity_werner(eta, zeta) == pytest.approx(
                numeric, abs=1e-10
            )

    @given(etas, etas)
    def test_symmetric_and_in_range(self, eta, zeta):
        f = metrics.fidelity_werner(eta, zeta)
        assert 0.0 <= f <= 1.0
        assert f == metrics.fidelity_werner(zeta, eta)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            metrics.fidelity_werner(1.5, 0.0)

    @given(etas, etas)
    @settings(max_examples=200)
    def test_one_minus_squared_consistent(self, eta, zeta):
        stable = metrics.one_minus_fidelity_squared(eta, zeta)
        f = metrics.fidelity_werner(eta, zeta)
        assert 0.0 <= stable <= 1.0
        assert stable == pytest.approx(1.0 - f * f, abs=1e-12)

    def test_one_minus_squared_resolves_tiny_gaps(self):
        got = metrics.one_minus_fidelity_squared(0.0, 1e-9)
        assert got == pytest.approx(2.5e-19, rel=1e-6)


class TestRelativeEntropy:
    @given(etas)
    def test_self_entropy_zero(self, eta):
        assert metrics.relative_entropy_werner(eta, eta) == 0.0

    def test_reference_value(self):
        assert metrics.relative_entropy_werner(0.5, 0.0) == pytest.approx(
            RELENT_HALF_ZERO, abs=1e-15
        )

    def test_support_mismatch_is_inf(self):
        assert metrics.relative_entropy_werner(0.0, 1.0) == math.inf
        assert metrics.relative_entropy_werner(0.5, -1.0) == math.inf

    def test_rank_deficient_first_argument_is_finite(self):
        assert metrics.relative_entropy_werner(1.0, 0.0) == pytest.approx(1.0)

    def test_resolves_tiny_gaps(self):
        # second-order in the gap: (eta-zeta)^2 / (2 ln 2) at eta = 0; the
        # ratio form rounded this to about -4e-17
        zeta = -8.532053481063864e-13
        got = metrics.relative_entropy_werner(0.0, zeta)
        assert got == pytest.approx(zeta * zeta / (2.0 * math.log(2.0)), rel=1e-3)

    @given(etas, etas)
    def test_non_negative(self, eta, zeta):
        assert metrics.relative_entropy_werner(eta, zeta) >= 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_matrix_oracle(self, d):
        for eta, zeta in [(0.5, 0.0), (-0.3, 0.8), (0.9, 0.1)]:
            numeric = linalg.relative_entropy_numeric(
                states.werner_state(eta, d), states.werner_state(zeta, d)
            )
            assert metrics.relative_entropy_werner(eta, zeta) == pytest.approx(
                numeric, abs=1e-12
            )


class TestDeltaS:
    @given(inner_etas)
    def test_zero_on_diagonal(self, eta):
        assert metrics.delta_s(eta, eta) == pytest.approx(0.0, abs=1e-13)
        assert metrics.delta_s(eta, -eta) == pytest.approx(0.0, abs=1e-12)

    def test_negative_for_larger_first_parameter(self):
        assert metrics.delta_s(0.8, 0.2) < 0.0

    @given(inner_etas, inner_etas)
    @settings(max_examples=200)
    def test_antisymmetric(self, eta, zeta):
        assert metrics.delta_s(eta, zeta) == pytest.approx(
            -metrics.delta_s(zeta, eta), abs=1e-12
        )

    def test_sign_on_grid(self):
        grid = [(2 * i - 38) / 40 for i in range(39)]  # -0.95 .. 0.95
        for eta in grid:
            for zeta in grid:
                if abs(eta) > abs(zeta):
                    assert metrics.delta_s(eta, zeta) < 0.0

    def test_nearby_pairs_against_mpmath(self):
        # the two O(gap) logarithms of a nearby pair cancel to an O(gap^3) difference:
        # its sign holds at every probe, and its relative error stays below 1e-9 where
        # eta + zeta is at least 0.1 away from 0, where the two classes do not cancel
        rng = random.Random(30)
        probes = [(0.3, 0.3 - 1e-5), (0.3, 0.3 - 1e-8), (-0.7, -0.7 + 1e-6),
                  (0.9, 0.9 - 1e-6), (0.01, 0.01 - 1e-5)]
        while len(probes) < 1000:
            eta, gap = rng.uniform(-0.999, 0.999), 10 ** rng.uniform(-13, 0.2)
            zeta = eta + rng.choice((-gap, gap))
            if -1.0 < zeta < 1.0:
                probes.append((eta, zeta))
        for eta, zeta in probes:
            got, exact = metrics.delta_s(eta, zeta), mp_delta_s(eta, zeta)
            assert mpmath.sign(got) == mpmath.sign(exact), (eta, zeta)
            if abs(eta + zeta) >= 0.1:
                assert abs(got - exact) <= 1e-9 * abs(exact), (eta, zeta)

    def test_endpoints_rejected(self):
        with pytest.raises(SupportMismatchError):
            metrics.delta_s(1.0, 0.5)
        with pytest.raises(SupportMismatchError):
            metrics.delta_s(0.5, -1.0)


class TestSQuantity:
    @given(etas)
    def test_zero_on_diagonal(self, eta):
        assert metrics.s_quantity(eta, eta) == 0.0

    def test_first_branch(self):
        expected = metrics.LN_SQRT2 * metrics.relative_entropy_werner(0.8, 0.2)
        assert metrics.s_quantity(0.8, 0.2) == expected

    def test_second_branch_swaps_direction(self):
        expected = metrics.LN_SQRT2 * metrics.relative_entropy_werner(0.8, 0.2)
        assert metrics.s_quantity(0.2, 0.8) == expected

    @given(etas, etas)
    @settings(max_examples=200)
    def test_is_min_of_both_directions(self, eta, zeta):
        direct = metrics.s_quantity(eta, zeta)
        explicit = metrics.LN_SQRT2 * min(
            metrics.relative_entropy_werner(eta, zeta),
            metrics.relative_entropy_werner(zeta, eta),
        )
        if math.isinf(explicit):
            assert direct == explicit
        else:
            assert direct == pytest.approx(explicit, abs=1e-13)


class TestQcbWerner:
    def test_degenerate_pair(self):
        r = metrics.qcb_werner(0.4, 0.4)
        assert r == metrics.QcbResult(q=1.0, s_star=0.5, s_kind="degenerate_half")

    def test_symmetric_extreme_left_limit(self):
        r = metrics.qcb_werner(1.0, 0.0)
        assert r.q == pytest.approx(0.5)
        assert r.s_kind == "left_limit"
        assert r.s_star == 0.0

    def test_antisymmetric_extreme_left_limit(self):
        r = metrics.qcb_werner(-1.0, 0.5)
        assert r.q == pytest.approx(0.25)
        assert r.s_kind == "left_limit"

    def test_right_limits(self):
        assert metrics.qcb_werner(0.0, 1.0).q == pytest.approx(0.5)
        assert metrics.qcb_werner(0.0, 1.0).s_kind == "right_limit"
        assert metrics.qcb_werner(0.2, -1.0).q == pytest.approx(0.4)

    def test_orthogonal_extremes(self):
        assert metrics.qcb_werner(1.0, -1.0).q == 0.0

    def test_antisymmetric_interior_pair(self):
        r = metrics.qcb_werner(0.5, -0.5)
        assert r.s_kind == "interior"
        assert r.s_star == pytest.approx(0.5, abs=1e-15)
        assert r.q == pytest.approx(math.sqrt(0.75), abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_matrix_oracle(self, d):
        numeric = linalg.qcb_numeric(
            states.werner_state(0.5, d), states.werner_state(-0.5, d)
        )
        closed = metrics.qcb_werner(0.5, -0.5)
        assert closed.q == pytest.approx(numeric.q, abs=1e-7)
        assert closed.s_star == pytest.approx(numeric.s_star, abs=1e-12)

    @given(inner_etas, inner_etas)
    @settings(max_examples=300)
    def test_interior_critical_point_identities(self, eta, zeta):
        # the sum identity's float error scales like 1e-15 / |eta - zeta|,
        # so the 1e-12 assertion needs the parameters separated
        if abs(eta - zeta) <= 1e-3:
            return
        ab = metrics.qcb_werner(eta, zeta)
        s_ab, s_ba = ab.s_star, metrics.qcb_werner(zeta, eta).s_star
        assert ab.s_kind == "interior"
        assert 0.0 < s_ab < 1.0
        assert s_ab + s_ba == pytest.approx(1.0, abs=1e-12)
        # bracketing: the critical point is a strict local minimum
        q0 = metrics.werner_qs(eta, zeta, s_ab)
        assert metrics.werner_qs(eta, zeta, s_ab - 1e-3) > q0
        assert metrics.werner_qs(eta, zeta, s_ab + 1e-3) > q0

    @given(
        st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-0.999999, 0.999999)),
        st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-0.999999, 0.999999)),
    )
    @settings(max_examples=300)
    def test_symmetry_and_fidelity_sandwich(self, eta, zeta):
        f = metrics.fidelity_werner(eta, zeta)
        q = metrics.qcb_werner(eta, zeta).q
        assert q == pytest.approx(metrics.qcb_werner(zeta, eta).q, abs=1e-12)
        assert f * f - 1e-12 <= q <= f + 1e-12


# each public pair closed form and the unvalidated core it calls
CORES = {
    "fidelity_werner": metrics._fidelity,
    "one_minus_fidelity_squared": metrics._one_minus_f2,
    "relative_entropy_werner": metrics._relative_entropy,
    "s_quantity": metrics._s_quantity,
}


def _probe_pairs():
    # every ordered pair of the 0.05 grid and of +/-(1 - 1e-12), equal parameters
    # included, and each probe against the point 1e-13 above it, both ways round
    probes = [*discrimination.eta_grid(0.05), 1 - 1e-12, -(1 - 1e-12)]
    near = [(x, x + 1e-13) for x in probes if x + 1e-13 <= 1.0]
    return [(a, b) for a in probes for b in probes] + near + [(b, a) for a, b in near]


PROBE_PAIRS = _probe_pairs()


def _bits(*values):
    # floats by their exact bits (so -0.0 differs from 0.0), anything else as it is
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


class TestWrappersCallTheirCores:
    @pytest.mark.parametrize("name", CORES)
    def test_wrapper_equals_core_bit_for_bit(self, name):
        wrapper, core = getattr(metrics, name), CORES[name]
        for a, b in PROBE_PAIRS:
            assert _bits(wrapper(a, b)) == _bits(core(a, b)), (a, b)

    def test_chernoff_results_are_the_core_tuples(self):
        for a, b in PROBE_PAIRS:
            r = metrics.qcb_werner(a, b)
            core = metrics._qcb(1.0 + a, 1.0 - a, 1.0 + b, 1.0 - b, 2.0, a - b)
            assert _bits(r.q, r.s_star, r.s_kind) == _bits(*core), (a, b)
        for d in (2, 3, 7):
            for alpha, beta in ((d * (1 + a) / 2, d * (1 + b) / 2) for a, b in PROBE_PAIRS):
                r = metrics.qcb_isotropic(alpha, beta, d)
                core = metrics._qcb(alpha, d - alpha, beta, d - beta, d, alpha - beta)
                assert _bits(r.q, r.s_star, r.s_kind) == _bits(*core), (alpha, beta, d)

    # a bad flip expectation, and its counterpart for the isotropic family at d = 2,
    # whose parameters lie in [0, 2]
    @pytest.mark.parametrize("bad,iso_bad", [(math.nan, math.nan), (1.5, 3.5), (-1.5, -1.5),
                                             ("x", "x")])
    def test_every_wrapper_rejects_a_bad_parameter(self, bad, iso_bad):
        calls = [
            *(lambda f=getattr(metrics, name): f(bad, 0.3) for name in [*CORES, "qcb_werner"]),
            *(lambda f=getattr(metrics, name): f(0.3, bad) for name in [*CORES, "qcb_werner"]),
            lambda: metrics.qcb_isotropic(iso_bad, 1.0, 2),
            lambda: metrics.qcb_isotropic(1.0, iso_bad, 2),
        ]
        for call in calls:
            with pytest.raises(InvalidParameterError):
                call()


class TestWernerQs:
    @pytest.mark.parametrize("bad", [math.nan, -1, 1.5, "x"])
    def test_rejects_an_exponent_outside_the_unit_interval(self, bad):
        with pytest.raises(InvalidParameterError, match="overlap exponent s"):
            metrics.werner_qs(0.3, -0.2, bad)

    def test_accepts_the_unit_interval_ends(self):
        # Q_0 and Q_1 are the total weights of the two states, both 1
        assert metrics.werner_qs(0.3, -0.2, 0) == pytest.approx(1.0, abs=1e-15)
        assert metrics.werner_qs(0.3, -0.2, 1) == pytest.approx(1.0, abs=1e-15)


class TestQcbIsotropic:
    def test_degenerate_pair(self):
        assert metrics.qcb_isotropic(1.3, 1.3, 2).q == 1.0

    def test_singular_cases(self):
        assert metrics.qcb_isotropic(2.0, 1.0, 2).q == pytest.approx(0.5)
        assert metrics.qcb_isotropic(2.0, 1.0, 2).s_kind == "left_limit"
        assert metrics.qcb_isotropic(0.0, 1.0, 2).q == pytest.approx(0.5)
        assert metrics.qcb_isotropic(1.0, 3.0, 3).s_kind == "right_limit"
        assert metrics.qcb_isotropic(1.0, 0.0, 3).q == pytest.approx(2 / 3)

    def test_matches_matrix_oracle(self):
        numeric = linalg.qcb_numeric(
            states.isotropic_state(2.0, 2), states.isotropic_state(1.0, 2)
        )
        assert metrics.qcb_isotropic(2.0, 1.0, 2).q == pytest.approx(
            numeric.q, abs=1e-7
        )

    def test_interior_matches_matrix_oracle(self):
        numeric = linalg.qcb_numeric(
            states.isotropic_state(2.5, 3), states.isotropic_state(0.7, 3)
        )
        closed = metrics.qcb_isotropic(2.5, 0.7, 3)
        assert closed.s_kind == "interior"
        assert closed.q == pytest.approx(numeric.q, abs=1e-7)
        assert closed.s_star == pytest.approx(numeric.s_star, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_substitution_identity(self, d):
        # the entangled-expectation minimum reduces to the flip-expectation
        # one under alpha -> d (1 + eta) / 2
        fracs = [i / 10 for i in range(1, 10)]
        for fa in fracs:
            for fb in fracs:
                if fa == fb:
                    continue
                alpha, beta = d * fa, d * fb
                iso = metrics.qcb_isotropic(alpha, beta, d)
                wer = metrics.qcb_werner(2 * alpha / d - 1, 2 * beta / d - 1)
                assert iso.s_kind == wer.s_kind == "interior"
                assert iso.q == pytest.approx(wer.q, abs=1e-12)
                assert iso.s_star == pytest.approx(wer.s_star, abs=1e-12)

    def test_accurate_next_to_an_endpoint(self):
        # beta within 1e-12 of d: mapping onto eta = 2 alpha/d - 1 first
        # rounds d - beta to a few digits and misses q by about 1e-6
        alpha, beta, d = 1.375, 5 - 1e-12, 5
        got = metrics.qcb_isotropic(alpha, beta, d)
        assert got.s_kind == "interior"
        with mpmath.workdps(50):
            a, b, dd = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(d)

            def q_at(s):
                return (a / dd) ** s * (b / dd) ** (1 - s) + (
                    (dd - a) / dd
                ) ** s * ((dd - b) / dd) ** (1 - s)

            s_star = mpmath.findroot(lambda s: mpmath.diff(q_at, s), got.s_star)
            expected = q_at(s_star)
            assert abs(got.q - expected) <= 1e-12 * expected


class TestHelstromMulticopy:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_single_copy_matches_trace_distance(self, d):
        for eta, zeta in [(0.5, 0.0), (-0.4, 0.3), (1.0, -1.0)]:
            expected = 0.5 * (
                1.0
                - linalg.trace_distance_numeric(
                    states.werner_state(eta, d), states.werner_state(zeta, d)
                )
            )
            got = metrics.helstrom_multicopy_werner(eta, zeta, d, 1)
            assert got == pytest.approx(expected, abs=1e-12)

    @given(etas, st.integers(1, 40))
    @settings(max_examples=100)
    def test_indistinguishable_pair(self, eta, n):
        assert metrics.helstrom_multicopy_werner(eta, eta, 3, n) == 0.5

    def test_three_copies_against_explicit_matrices(self):
        eta, zeta = 0.5, 0.0
        rho = states.werner_state(eta, 2)
        sigma = states.werner_state(zeta, 2)
        rho3 = linalg.tensor_product(linalg.tensor_product(rho, rho), rho)
        sigma3 = linalg.tensor_product(linalg.tensor_product(sigma, sigma), sigma)
        explicit = 0.5 * (1.0 - linalg.trace_distance_numeric(rho3, sigma3))
        got = metrics.helstrom_multicopy_werner(eta, zeta, 2, 3)
        assert got == pytest.approx(explicit, abs=1e-10)

    def test_log_space_matches_direct_products(self):
        # the trace-distance form with direct float products, at copy counts
        # where it does not cancel
        def direct(eta, zeta, n):
            wp_e, wm_e = (1 + eta) / 2, (1 - eta) / 2
            wp_z, wm_z = (1 + zeta) / 2, (1 - zeta) / 2
            dist = 0.5 * sum(
                abs(
                    math.comb(n, k)
                    * (wp_e**k * wm_e ** (n - k) - wp_z**k * wm_z ** (n - k))
                )
                for k in range(n + 1)
            )
            return 0.5 * (1.0 - dist)

        for n in (51, 60, 200):
            assert metrics.helstrom_multicopy_werner(0.5, 0.2, 2, n) == pytest.approx(
                direct(0.5, 0.2, n), abs=1e-12
            )

    @pytest.mark.parametrize("n", [50, 51, 100, 1000])
    def test_matches_high_precision_oracle(self, n):
        # 60-digit class sums sharing no code with the module; covers the
        # rank-deficient endpoints in either slot.  The reference is the min
        # form; the trace-distance form 1 - sum |w(eta) - w(zeta)|/2 itself
        # cancels below about 1e-40 at 60 digits and is compared only above.
        pairs = [
            (0.9, -0.9), (0.5, 0.2), (0.01, 0.0), (-0.999, 0.999), (0.37, 0.37),
            (1.0, 0.0), (-1.0, 0.3), (0.5, 1.0), (0.2, -1.0), (1.0, -1.0), (-1.0, -1.0),
        ]
        for eta, zeta in pairs:
            w_eta, w_zeta = mp_class_weights(eta, n), mp_class_weights(zeta, n)
            exact = mp_helstrom(w_eta, w_zeta)
            with mpmath.workdps(60):
                dist = mpmath.fsum(abs(a - b) for a, b in zip(w_eta, w_zeta)) / 2
                if exact > 1e-40:
                    assert abs((1 - dist) / 2 - exact) <= 1e-18 * exact, (eta, zeta)
            got = metrics.helstrom_multicopy_werner(eta, zeta, 2, n)
            assert_relative(got, exact, 3e-12, (eta, zeta))

    @pytest.mark.parametrize("n", [1, 7, 50, 51, 100, 1000])
    def test_equals_per_class_loop(self, n):
        # The per-class min sum at 60 digits is the reference, to 3e-12
        # relative, from one copy to the cap, with the rank-deficient
        # endpoints and nearby pairs, at d = 2 and 5 (the value is d-free).
        points = [-1.0, -0.999, -0.37, 0.0, 1e-9, 0.37, 0.9, 1.0]
        for eta in points:
            for zeta in points:
                exact = mp_helstrom(mp_class_weights(eta, n), mp_class_weights(zeta, n))
                for d in (2, 5):
                    got = metrics.helstrom_multicopy_werner(eta, zeta, d, n)
                    assert_relative(got, exact, 3e-12, (eta, zeta, d))

    def test_extreme_parameters_large_n(self):
        assert metrics.helstrom_multicopy_werner(1.0, -1.0, 2, 100) == pytest.approx(
            0.0, abs=1e-15
        )
        assert metrics.helstrom_multicopy_werner(1.0, 1.0, 2, 100) == pytest.approx(0.5)

    def test_monotone_in_copies(self):
        values = [
            metrics.helstrom_multicopy_werner(0.5, 0.0, 2, n) for n in range(1, 30)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_copy_cap(self):
        with pytest.raises(DimensionOverflowError):
            metrics.helstrom_multicopy_werner(0.5, 0.0, 2, 1001)
        with pytest.raises(InvalidParameterError):
            metrics.helstrom_multicopy_werner(0.5, 0.0, 2, 0)


class TestHelstromRows:
    """The multi-zeta Helstrom table equals its one-zeta calls, bit for bit."""

    # the 0.1 grid, and a zeta that is off it
    ZETAS = [(2 * i - 20) / 20 for i in range(21)] + [0.123456789]

    @pytest.mark.parametrize("n", [1, 2, 20, 1000])
    def test_every_zeta_row_is_its_own_call(self, n):
        etas = self.ZETAS[:-1]
        table = metrics._helstrom_rows(etas, self.ZETAS, n)
        assert table.shape == (len(self.ZETAS), len(etas))
        for zeta, row in zip(self.ZETAS, table.tolist()):
            assert row == metrics._helstrom_rows(etas, [zeta], n)[0].tolist()

    @pytest.mark.parametrize("n", [1, 2, 20, 1000])
    def test_eta_split_over_several_blocks(self, monkeypatch, n):
        # four eta rows a block: 21 etas take six blocks, the last of one row,
        # which four zetas at a time are set against
        etas = self.ZETAS[:-1]
        whole = metrics._helstrom_rows(etas, self.ZETAS, n).tolist()
        monkeypatch.setattr(metrics, "_HELSTROM_BLOCK", 4 * (n + 1))
        split = metrics._helstrom_rows(etas, self.ZETAS, n).tolist()
        assert split == whole
        off_grid = self.ZETAS[-1]
        assert split[-1] == [metrics.helstrom_multicopy_werner(e, off_grid, 2, n) for e in etas]

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_buffers_are_reused_across_blocks(self, monkeypatch, n):
        # three eta rows a block: a NaN and the 21 grid points take eight eta blocks, the
        # NaN in the first, the last of one row; the full blocks meet one zeta at a time,
        # the last three, so its 22 zetas end in a block of one, shorter than the buffers
        etas = [math.nan, *self.ZETAS[:-1]]
        monkeypatch.setattr(metrics, "_HELSTROM_BLOCK", 3 * (n + 1))
        table = metrics._helstrom_rows(etas, self.ZETAS, n)
        assert np.isnan(table[:, 0]).all() and not np.isnan(table[:, 1:]).any()
        assert table.tobytes() == unmasked_rows(etas, self.ZETAS, n).tobytes()
        for zeta, row in zip(self.ZETAS, table):
            assert row.tobytes() == metrics._helstrom_rows(etas, [zeta], n)[0].tobytes()
        for eta, column in zip(etas, table.T):
            assert column.tobytes() == metrics._helstrom_rows([eta], self.ZETAS, n)[:, 0].tobytes()


def full_log_binomials(n):
    # log C(n, k) for every k = 0..n from the full integer recurrence, unmirrored
    binom, logs = 1, [0.0]
    for i in range(1, n + 1):
        binom = binom * (n + 1 - i) // i
        logs.append(math.log(binom))
    return logs


def unmasked_rows(etas, zetas, n):
    # the block error table as summed before exact-zero terms were skipped: the full
    # binomial table, and every class minimum through plain np.exp, one zeta at a time
    k = np.arange(n + 1.0)
    log_base = np.array(full_log_binomials(n)) - n * math.log(2.0)

    def log_weights(column):
        with np.errstate(divide="ignore", invalid="ignore"):
            up, down = k * np.log1p(column), (n - k) * np.log1p(-column)
        up[..., 0] = down[..., -1] = 0.0
        return log_base + up + down

    etas, zetas = np.asarray(etas, dtype=float), np.asarray(zetas, dtype=float)
    block = log_weights(etas[:, None])
    rows = np.array([0.5 * np.exp(np.minimum(block, log_weights(z))).sum(axis=-1) for z in zetas])
    rows = np.minimum(rows, 0.5)
    rows[zetas[:, None] == etas] = 0.5
    return rows


class TestHelstromSkipsExactZeros:
    """Class minima logged at or below the floor are set to 0 without exp, and the
    binomial table is mirrored: the block error stays the unmasked sum, bit for bit."""

    EDGES = [-1.0, -(1 - 1e-12), 1 - 1e-12, 1.0]
    # the 0.05 grid with the points one 1e-12 inside +/-1
    ETAS = sorted(set((2 * i - 40) / 40 for i in range(41)) | set(EDGES))
    # beside the edges, zetas whose pairs with the grid give tiny and subnormal block
    # errors at n = 999 and above
    ZETAS = EDGES + [-0.99, -0.95, -0.3, 0.0, 0.123456789, 0.6, 0.96]

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 999, 1000, 5000])
    def test_rows_equal_the_unmasked_sum(self, n):
        # n = 5000 is above the public cap: the kernel itself takes any validated n
        got = metrics._helstrom_rows(self.ETAS, self.ZETAS, n)
        assert got.tobytes() == unmasked_rows(self.ETAS, self.ZETAS, n).tobytes()
        if n >= 999:
            positive = got[got > 0.0]
            assert positive.min() < sys.float_info.min  # subnormal block errors
            assert np.count_nonzero(positive < 1e-300) > 1

    @pytest.mark.parametrize("n", [*range(1, 65), 999, 1000])
    def test_mirrored_binomials_equal_the_full_recurrence(self, n):
        assert metrics._log_binomials(n).tolist() == full_log_binomials(n)

    def test_exp_is_exactly_zero_below_the_floor(self):
        # the premise of skipping: float64 exp underflows to +0.0 below -745.1332
        sweep = np.linspace(-1e5, metrics._EXP_FLOOR, 1_000_001)
        below = np.nextafter(metrics._EXP_FLOOR, -np.inf)
        assert sweep[-1] == metrics._EXP_FLOOR
        for x in (sweep, np.array([below, metrics._EXP_FLOOR, -np.inf])):
            values = np.exp(x)
            assert np.all(values == 0.0) and not np.any(np.signbit(values))

    def test_a_nan_weight_goes_through_exp(self):
        rows = metrics._helstrom_rows([math.nan, 0.5], [0.3], 1000)
        assert math.isnan(rows[0, 0])
        assert rows[0, 1] == unmasked_rows([0.5], [0.3], 1000)[0, 0]


class TestDimensionIndependence:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_oracles_agree_across_dimensions(self, d):
        # F, S and Q contain no dimension; the matrix-level values at any d
        # must land on the same numbers
        eta, zeta = 0.7, -0.2
        rho, sigma = states.werner_state(eta, d), states.werner_state(zeta, d)
        assert linalg.bures_fidelity_numeric(rho, sigma) == pytest.approx(
            metrics.fidelity_werner(eta, zeta), abs=1e-10
        )
        assert linalg.relative_entropy_numeric(rho, sigma) == pytest.approx(
            metrics.relative_entropy_werner(eta, zeta), abs=1e-10
        )
        assert linalg.qcb_numeric(rho, sigma).q == pytest.approx(
            metrics.qcb_werner(eta, zeta).q, abs=1e-7
        )
