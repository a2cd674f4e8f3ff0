import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import discrimination, linalg, metrics, states, verify
from wernerlab.errors import DimensionOverflowError, InvalidParameterError

etas = st.floats(-1.0, 1.0, allow_nan=False)
# exact endpoints plus parameters bounded away from the last-ulp
# neighbourhood of the singular values, where the Chernoff limits are
# reached only logarithmically
tame_etas = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-0.999999, 0.999999))


def assert_sandwich(r, slack=1e-10):
    assert 0.0 <= r.lower <= 0.5 + slack
    assert r.lower <= r.helstrom_block + slack
    assert r.helstrom_block <= r.qcb_upper + slack
    assert r.qcb_upper <= r.fid_upper + slack
    assert r.fid_upper <= 0.5 + slack


class TestBounds:
    def test_identical_channels(self):
        r = discrimination.bounds(0.4, 0.4, 3, 7)
        assert r.lower == r.qcb_upper == r.fid_upper == r.helstrom_block == 0.5

    def test_perfectly_distinguishable_extremes(self):
        r = discrimination.bounds(1.0, -1.0, 2, 1)
        assert r.fid_upper == 0.0
        assert r.qcb_upper == 0.0
        assert r.lower == 0.0
        assert r.helstrom_block == 0.0

    def test_reference_pair(self):
        r = discrimination.bounds(0.5, 0.0, 2, 10)
        assert r.qcb_upper < r.fid_upper
        assert r.lower <= r.helstrom_block
        assert_sandwich(r)

    def test_infinite_entropy_branch(self):
        # at an endpoint channel one entropy direction diverges: the lower
        # bound must fall back to the fidelity branch, not blow up
        r = discrimination.bounds(1.0, 0.0, 2, 3)
        f = metrics.fidelity_werner(1.0, 0.0)
        expected = 0.5 * (1.0 - math.sqrt(min(1.0 - f**6, 3 * metrics.s_quantity(1.0, 0.0))))
        assert r.lower == pytest.approx(expected, abs=1e-15)
        assert_sandwich(r)

    def test_nearby_pair_keeps_a_real_lower_bound(self):
        # S rounded below zero here, and the square root of min(1 - F^2n, nS)
        # raised a domain error
        r = discrimination.bounds(0.0, -8.532053481063864e-13, 2, 1)
        assert r.lower < 0.5
        assert_sandwich(r)

    @given(etas, etas, st.integers(1, 20))
    @settings(max_examples=300, deadline=None)
    def test_sandwich_property(self, eta, zeta, n):
        assert_sandwich(discrimination.bounds(eta, zeta, 2, n))

    @given(etas, etas, st.integers(1, 19))
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_copies(self, eta, zeta, n):
        r_n = discrimination.bounds(eta, zeta, 2, n)
        r_m = discrimination.bounds(eta, zeta, 2, n + 1)
        slack = 1e-12
        assert r_m.lower <= r_n.lower + slack
        assert r_m.qcb_upper <= r_n.qcb_upper + slack
        assert r_m.fid_upper <= r_n.fid_upper + slack
        assert r_m.helstrom_block <= r_n.helstrom_block + slack

    @given(tame_etas, tame_etas, st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_in_the_pair(self, eta, zeta, n):
        a = discrimination.bounds(eta, zeta, 2, n)
        b = discrimination.bounds(zeta, eta, 2, n)
        for field in ("lower", "qcb_upper", "fid_upper", "helstrom_block"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-10)

    def test_dimension_free_values(self):
        a = discrimination.bounds(0.6, -0.1, 2, 5)
        b = discrimination.bounds(0.6, -0.1, 5, 5)
        assert a.lower == b.lower
        assert a.qcb_upper == b.qcb_upper
        assert a.fid_upper == b.fid_upper
        assert a.helstrom_block == pytest.approx(b.helstrom_block, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            discrimination.bounds(2.0, 0.0, 2, 1)
        with pytest.raises(InvalidParameterError):
            discrimination.bounds(0.5, 0.0, 2, 0)


class TestCurveGrid:
    def test_multi_zeta_rows_are_the_curve_grids_in_turn(self, monkeypatch, grid_rows):
        # columns by (zeta, n, eta) of the zetas cut as sandwich-ordering cuts them
        # (linalg._blocks), two zetas a block here: each zeta's entries are its curve
        # grid, bit for bit
        etas = discrimination.eta_grid(0.25)
        monkeypatch.setattr(linalg, "_STACK_ENTRIES", 2 * 3 * len(etas) + 1)
        cuts = linalg._blocks(len(etas), 1, tables=3 * len(etas))
        blocks = [discrimination._sandwiches(etas, etas[at], [1, 3, 1000]) for at in cuts]
        assert [len(b.zetas) for b in blocks] == [2, 2, 2, 2, 1]
        rows = [r for b in blocks for r in grid_rows(b)]
        assert rows == [
            r for z in etas for r in grid_rows(discrimination.curve_grid(z, [1, 3, 1000], 0.25))
        ]

    def test_log_binomials_are_built_once_per_call(self, monkeypatch):
        # once per copy count, not once per zeta
        built = []
        log_binomials = metrics._log_binomials

        def counted(n):
            built.append(n)
            return log_binomials(n)

        etas = discrimination.eta_grid(0.25)
        monkeypatch.setattr(metrics, "_log_binomials", counted)
        discrimination._sandwiches(etas, etas, [1, 3, 1000])
        assert built == [1, 3, 1000]

    def test_identical_point_is_half(self, grid_rows):
        rows = grid_rows(discrimination.curve_grid(0.0, [1], 0.1))
        at_zero = [r for r in rows if r.eta == 0.0]
        assert len(at_zero) == 1
        assert at_zero[0].lower == 0.5
        assert at_zero[0].fid_upper == 0.5

    def test_row_count_and_ordering(self, grid_rows):
        rows = grid_rows(discrimination.curve_grid(0.0, [10, 1], 0.1))
        assert len(rows) == 2 * 21
        keys = [(r.n, r.eta) for r in rows]
        assert keys == sorted(keys)

    def test_separation_grows_away_from_reference(self, grid_rows):
        rows = {
            r.eta: r for r in grid_rows(discrimination.curve_grid(0.0, [100], 0.1)) if r.n == 100
        }
        assert rows[0.9].qcb_upper < rows[0.1].qcb_upper
        assert rows[0.9].lower < rows[0.1].lower
        assert rows[0.9].fid_upper < rows[0.1].fid_upper

    def test_half_reference_peaks_at_half(self, grid_rows):
        for n in (1, 10, 100):
            rows = [r for r in grid_rows(discrimination.curve_grid(0.5, [n], 0.1)) if r.n == n]
            peak = [r for r in rows if r.eta == 0.5]
            assert peak[0].lower == 0.5
            assert peak[0].qcb_upper == 0.5
            assert all(r.qcb_upper <= 0.5 for r in rows)

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidParameterError):
            discrimination.curve_grid(0.0, [1], 0.3)
        with pytest.raises(InvalidParameterError):
            discrimination.curve_grid(0.0, [], 0.1)
        with pytest.raises(InvalidParameterError):
            discrimination.curve_grid(0.0, [1], math.nan)

    @pytest.mark.parametrize("step", [1e-300, 5e-324, 1.9e-5])
    def test_rejects_oversized_grid(self, step):
        # each would otherwise build a list of more than 1e5 points
        with pytest.raises(DimensionOverflowError):
            discrimination.eta_grid(step)

    def test_grid_cap_itself_is_accepted(self):
        step = 2.0 / discrimination.ETA_GRID_CAP
        assert len(discrimination.eta_grid(step)) == discrimination.ETA_GRID_CAP + 1

    def test_row_count_is_capped_before_any_row(self, monkeypatch):
        monkeypatch.setattr(discrimination, "_sandwiches", None)  # never reached
        step = 2.0 / discrimination.ETA_GRID_CAP
        with pytest.raises(DimensionOverflowError, match="100001 grid points x 2 copy counts"):
            discrimination.curve_grid(0.0, [1, 2], step)
        with pytest.raises(DimensionOverflowError, match="exceed the cap of 100001 rows"):
            discrimination.curve_grid(0.0, range(1, 1001), 0.00002)

    @pytest.mark.parametrize("n_list,step", [([1], 2.0 / 100_000), ([1, 10, 100, 1000], 0.01)])
    def test_row_cap_admits_the_finest_grid_and_the_benchmark(self, monkeypatch, n_list, step):
        # count the rows asked for instead of computing them
        monkeypatch.setattr(
            discrimination, "_sandwiches", lambda etas, zs, ns: len(etas) * len(ns)
        )
        rows = discrimination.curve_grid(0.0, n_list, step)
        assert rows == len(discrimination.eta_grid(step)) * len(n_list)
        assert rows <= discrimination.CURVE_ROW_CAP

    @pytest.mark.parametrize(
        "n_list,error", [([1, 1000, 1001], DimensionOverflowError), ([1, 0], InvalidParameterError)]
    )
    def test_checks_every_copy_count_first(self, monkeypatch, n_list, error):
        def no_rows(*args):
            raise AssertionError("a row was computed before validation finished")

        monkeypatch.setattr(discrimination, "_fidelity", no_rows)
        with pytest.raises(error):
            discrimination.curve_grid(0.0, n_list, 0.1)

    def test_block_error_is_a_probability_below_the_chernoff_bound(self, grid_rows):
        # The exact block error is never negative and never above Q^n/2, also
        # where both are tiny or Q^n/2 underflows to 0; the relative slack
        # covers rounding where the two are equal (eta or zeta = +/-1).
        n_list = [*range(1, 21), 50, 51, 100, 200, 1000]
        for zeta in discrimination.eta_grid(0.05):
            for r in grid_rows(discrimination.curve_grid(zeta, n_list, 0.05)):
                assert 0.0 <= r.helstrom_block <= r.qcb_upper * (1 + 1e-11), r

    @pytest.mark.parametrize("zeta", [-1.0, 0.37, 1.0])
    def test_rows_equal_one_row_bounds(self, zeta, grid_rows):
        rows = grid_rows(discrimination.curve_grid(zeta, [1, 10, 50, 51, 100, 1000], 0.1))
        assert len(rows) == 6 * 21
        for r in rows:
            assert r == discrimination.bounds(r.eta, zeta, 2, r.n)


    @pytest.mark.parametrize("zeta", [-1.0, -0.3, 0.96, 1.0 - 1e-12, 1.0])
    def test_lower_bound_is_libm_entry_by_entry(self, zeta, grid_rows):
        # log F^2 taken once per pair and n log F^2 through expm1 per entry give the
        # one-call libm formula 1 - F^2n = -expm1(n log1p(-(1 - F^2))) bit for bit,
        # and 1 where F = 0
        for r in grid_rows(discrimination.curve_grid(zeta, [1, 2, 7, 100, 1000], 0.05)):
            g = metrics.one_minus_fidelity_squared(r.eta, zeta)
            f2n = 1.0 if g >= 1.0 else -math.expm1(r.n * math.log1p(-g))
            m = min(f2n, r.n * metrics.s_quantity(r.eta, zeta))
            assert r.lower == 0.5 * (1.0 - math.sqrt(m)), r


@pytest.mark.parametrize(
    "run,checks",
    [
        (lambda: discrimination.curve_grid(0.3, [1, 10, 100, 1000], 0.01), 1),
        (lambda: verify.check_sandwich_ordering(0.1), 0),
        (lambda: discrimination.bounds(0.5, -0.2, 2, 10), 2),
    ],
    ids=["curve-grid", "sandwich-ordering", "bounds"],
)
def test_parameters_are_validated_once_per_grid(monkeypatch, run, checks):
    # each eta and zeta is validated where it enters (a grid from eta_grid needs none),
    # and the per-pair closed forms of the sandwich sweep validate nothing
    calls = []
    real = states._check_eta
    for module in (states, metrics, discrimination):
        monkeypatch.setattr(module, "_check_eta", lambda eta: calls.append(eta) or real(eta))
    run()
    assert len(calls) == checks


class TestIsotropicBounds:
    # the depolarizing family's one entry point is qcb_isotropic: its q bounds
    # the n-use error by q^n/2, so these check q itself
    def test_identical_channels(self):
        assert metrics.qcb_isotropic(1.3, 1.3, 2).q == 1.0

    def test_reference_value_against_matrix_oracle(self):
        numeric = linalg.qcb_numeric(
            states.isotropic_state(2.0, 2), states.isotropic_state(1.0, 2)
        )
        assert metrics.qcb_isotropic(2.0, 1.0, 2).q == pytest.approx(numeric.q, abs=1e-6)

    def test_integers_beyond_a_double_are_rejected(self):
        # d - alpha would raise OverflowError on such an integer
        with pytest.raises(DimensionOverflowError, match="local dimension exceeds the range"):
            metrics.qcb_isotropic(1, 0.5, 10**400)

    def test_largest_double_integers_are_accepted(self):
        assert metrics.qcb_isotropic(1, 1, int(sys.float_info.max)).q == 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_tighter_than_fidelity_bound(self, d):
        # the Chernoff overlap never exceeds the fidelity, with the fidelity computed
        # from explicit matrices; so q^n/2 <= F^n/2 at every n
        fracs = [i / 10 for i in range(11)]
        for fa in fracs:
            for fb in fracs:
                alpha, beta = d * fa, d * fb
                q = metrics.qcb_isotropic(alpha, beta, d).q
                f = linalg.bures_fidelity_numeric(
                    states.isotropic_state(alpha, d), states.isotropic_state(beta, d)
                )
                assert q <= f + 1e-10
