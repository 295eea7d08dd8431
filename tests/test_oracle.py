import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from orbituse import (
    MODEL_DERIVED,
    SOLO,
    SYM2,
    AbatementProfile,
    BudgetExceededError,
    OrbitUseError,
    TaxSchedule,
    benefit_coefficients,
    national_welfare,
    solve_equilibrium,
)
from orbituse.oracle import (
    deviation_search_abatement,
    finite_difference,
    grid_maximize,
    interior_open_access,
    iterate_open_access,
    pivot_open_access,
)
from orbituse.sampling import sample_scenario

ZERO2 = TaxSchedule.zeros(2, 2)
ZERO1 = TaxSchedule.zeros(1, 1)


class TestIteration:
    def test_sym2_agrees_with_matrix_solve(self):
        fleets = iterate_open_access(SYM2, ZERO2, 0.0)
        solved = solve_equilibrium(SYM2, ZERO2, 0.0).fleet_array
        assert np.max(np.abs(fleets - solved)) < 1e-10
        np.testing.assert_allclose(fleets, [10.0 / 7.0] * 2, atol=1e-10)

    def test_solo(self):
        np.testing.assert_allclose(iterate_open_access(SOLO, ZERO1, 0.0), [1.0], atol=1e-12)

    def test_denied_sector_clamps_to_zero(self):
        denied = ZERO2.with_rate(0, 0, 1.0).with_rate(0, 1, 1.0)
        fleets = iterate_open_access(SYM2, denied, 0.0)
        np.testing.assert_allclose(fleets, [0.0, 5.0 / 3.0], atol=1e-10)

    def test_iteration_never_calls_the_dense_solve(self, monkeypatch):
        import orbituse.open_access as oa

        def boom(*args, **kwargs):
            raise AssertionError("oracle must not touch the dense solver")

        monkeypatch.setattr(oa, "solve_equilibrium", boom)
        fleets = iterate_open_access(SYM2, ZERO2, 0.0)
        np.testing.assert_allclose(fleets, [10.0 / 7.0] * 2, atol=1e-10)

    def test_deterministic(self):
        a = iterate_open_access(SYM2, ZERO2, 0.5)
        b = iterate_open_access(SYM2, ZERO2, 0.5)
        assert np.array_equal(a, b)


class TestInteriorOpenAccess:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_pivot_solve_where_every_sector_is_active(self, seed):
        rng = np.random.default_rng(seed)
        scenario, taxes = sample_scenario(rng, with_taxes=True, sector_range=(1, 6))
        n, m = taxes.shape
        # Rates a little past [0, 1], some sectors fully taxed, and
        # abatement from phi < 0 (exactly 0 in one row) to survival > 1.
        rates = np.repeat(taxes.as_array[None], 12, axis=0)
        rates[1:6] = rng.uniform(-0.05, 1.05, (5, n, m))
        rates[6:9, int(rng.integers(n))] = 1.0
        k, debris = scenario.collision_coeff, scenario.legacy_debris
        levels = rng.uniform(-0.5, 2.0, 12) * (debris + 1.0 / k)
        levels[0] = 0.0
        levels[9] = debris - 1.0 / k
        fleets, ok = interior_open_access(scenario, rates, levels)
        for row in range(len(rates)):
            try:
                solved = pivot_open_access(
                    scenario, TaxSchedule.from_array(rates[row]), float(levels[row])
                )
            except OrbitUseError:
                solved = None
            interior = solved is not None and bool(np.all(solved > 0.0))
            assert ok[row] == interior, row
            if interior:
                assert fleets[row].tobytes() == solved.tobytes(), row

    def test_rows_are_refused_as_the_pivot_solve_refuses_them(self):
        # Interior, a pinned sector, phi < 0 and survival above 1.
        rates = np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]] * 2)
        fleets, ok = interior_open_access(SYM2, rates, np.array([0.0, 0.0, -20.0, 5.0]))
        assert ok.tolist() == [True, False, False, False]
        np.testing.assert_allclose(fleets[0], [10.0 / 7.0] * 2, atol=1e-14)


class TestGridMaximize:
    def test_on_grid_quadratic_peak(self):
        point, value = grid_maximize(lambda x: -((x[0] - 0.3) ** 2), dims=1, step=0.1)
        assert point[0] == pytest.approx(0.3, abs=1e-12)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_solo_welfare_declines_in_tax(self):
        def welfare(point):
            return national_welfare(SOLO, TaxSchedule.from_array([[point[0]]]), 0.0).welfare[0]

        point, _ = grid_maximize(welfare, dims=1, step=1e-3)
        assert point[0] == 0.0

    def test_constant_breaks_ties_lexicographically(self):
        point, value = grid_maximize(lambda x: 1.0, dims=2, step=0.5)
        np.testing.assert_allclose(point, [0.0, 0.0])
        assert value == 1.0

    def test_corners_always_included(self):
        seen = []
        grid_maximize(lambda x: seen.append(float(x[0])) or 0.0, dims=1, step=0.3)
        assert 0.0 in seen and 1.0 in seen

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            grid_maximize(lambda x: 0.0, dims=3, step=1e-3)
        with pytest.raises(ValueError):
            grid_maximize(lambda x: 0.0, dims=4, step=0.5)


class TestFiniteDifference:
    def test_square(self):
        assert finite_difference(lambda x: x**2, 3.0) == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        assert finite_difference(lambda x: 7.5, 0.2) == pytest.approx(0.0, abs=1e-9)

    def test_welfare_abatement_slope(self):
        def welfare(q):
            return national_welfare(SYM2, ZERO2, float(q)).welfare[0]

        assert finite_difference(welfare, 0.0) == pytest.approx(20.0 / 49.0, abs=1e-8)

    def test_vector_argument(self):
        value = finite_difference(lambda v: v[0] * v[1], np.array([2.0, 5.0]), index=1)
        assert value == pytest.approx(2.0, abs=1e-8)


class TestDeviationSearch:
    def setup_method(self):
        self.coeffs = [
            benefit_coefficients(SYM2, ZERO2, p, MODEL_DERIVED) for p in range(2)
        ]

    def test_symmetric_profile_passes(self):
        profile = AbatementProfile.from_contributions((0.6, 0.6))
        report = deviation_search_abatement(SYM2, self.coeffs, profile, 1.2, 1e-3)
        assert report.passed

    def test_zero_profile_fails_under_large_damages(self):
        # Damages of 1 exceed the cost of averting alone, so the honest
        # oracle reports the pivotal deviation from the all-zero profile.
        profile = AbatementProfile.from_contributions((0.0, 0.0))
        report = deviation_search_abatement(SYM2, self.coeffs, profile, 1.2, 1e-3)
        assert not report.passed

    def test_lopsided_profile_under_small_damages(self):
        # With small damages the 1.2-contributor gains by walking away.
        timid = replace(SYM2, catastrophe_damages=0.01)
        coeffs = [
            benefit_coefficients(timid, ZERO2, p, MODEL_DERIVED) for p in range(2)
        ]
        profile = AbatementProfile.from_contributions((1.2, 0.0))
        report = deviation_search_abatement(timid, coeffs, profile, 1.2, 1e-3)
        assert not report.passed
        assert report.counterexamples[0][0] == 0

    def test_reports_are_deterministic(self):
        profile = AbatementProfile.from_contributions((0.6, 0.6))
        a = deviation_search_abatement(SYM2, self.coeffs, profile, 1.2, 1e-3)
        b = deviation_search_abatement(SYM2, self.coeffs, profile, 1.2, 1e-3)
        assert a == b
