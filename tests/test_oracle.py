import ast
import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

import orbituse.oracle
import orbituse.verification
from orbituse import (
    MODEL_DERIVED,
    SOLO,
    SYM2,
    AbatementProfile,
    BudgetExceededError,
    NoConvergenceError,
    OrbitUseError,
    Scenario,
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
from orbituse.scenario import ScenarioRows
from orbituse.verification import run_verification

ZERO2 = TaxSchedule.zeros(2, 2)
ZERO1 = TaxSchedule.zeros(1, 1)
SIX = Scenario(6, 6, (10.0,) * 6, (0.1,) * 6, 0.05, 20.0, 0.0, 2.0, 1.0, 1.0)


def reference_iterate_open_access(
    scenario, taxes, abatement=0.0, damping=0.5, tolerance=1e-12, max_iterations=100_000
):
    """The damped best-response iteration as a numpy array loop, one ufunc per step."""
    rates = taxes.as_array
    prices = scenario.price_array
    costs = scenario.cost_array
    k = scenario.collision_coeff
    d = scenario.debris_per_sat
    revenue = (1.0 - rates) @ prices
    denom = k * d * revenue + costs

    fleets = np.zeros(scenario.n_sectors)
    delta = np.inf
    for _ in range(max_iterations):
        rest = fleets.sum() - fleets
        response = revenue * (
            1.0 - k * (d * rest + scenario.legacy_debris - abatement)
        ) / denom
        np.maximum(response, 0.0, out=response)
        updated = (1.0 - damping) * fleets + damping * response
        delta = float(np.max(np.abs(updated - fleets)))
        fleets = updated
        if delta < tolerance:
            return fleets
    raise NoConvergenceError(
        f"best-response iteration still moving {delta:.3e} after "
        f"{max_iterations} iterations",
        last_iterate=fleets,
        update_norm=delta,
    )


def iteration_outcome(function, *args, **kwargs):
    """The fleets as raw bytes, or the error's message, iterate and norm."""
    with np.errstate(all="ignore"):
        try:
            return function(*args, **kwargs).tobytes()
        except NoConvergenceError as error:
            last, norm = error.last_iterate, error.update_norm
            return (str(error), type(last), last.tobytes(), type(norm), norm.hex())


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

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_array_loop_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        scenario, taxes = sample_scenario(rng, with_taxes=True, sector_range=(1, 7))
        rates = taxes.as_array.copy()
        if rng.random() < 0.4:  # a denied sector: zero revenue
            rates[int(rng.integers(scenario.n_sectors))] = 1.0
        if rng.random() < 0.2:
            scenario = replace(scenario, collision_coeff=0.0)
        elif rng.random() < 0.3:  # legacy debris past 1/k clamps responses to 0
            scenario = replace(scenario, legacy_debris=rng.uniform(0.5, 2.0) / scenario.collision_coeff)
        abatement = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0
        args = (scenario, TaxSchedule.from_array(rates), abatement)
        reference = iteration_outcome(reference_iterate_open_access, *args, max_iterations=2000)
        assert iteration_outcome(iterate_open_access, *args, max_iterations=2000) == reference

    def test_matches_the_array_loop_from_eight_sectors(self):
        # numpy's eight interleaved partial sums start here.
        rng = np.random.default_rng(8)
        for _ in range(20):
            scenario, taxes = sample_scenario(rng, with_taxes=True, sector_range=(8, 12))
            reference = iteration_outcome(reference_iterate_open_access, scenario, taxes, 0.0)
            assert iteration_outcome(iterate_open_access, scenario, taxes, 0.0) == reference

    def test_matches_the_array_loop_on_a_verify_batch(self, monkeypatch):
        seen = []

        def recorded(*args):
            seen.append(args)
            return iterate_open_access(*args)

        monkeypatch.setattr(orbituse.verification, "iterate_open_access", recorded)
        run_verification(SYM2, ZERO2, 0.0, seed=1)
        assert len(seen) == 41  # the loaded bundle and the general batch
        for args in seen:
            reference = iteration_outcome(reference_iterate_open_access, *args)
            assert iteration_outcome(iterate_open_access, *args) == reference

    @pytest.mark.parametrize(
        "scenario, taxes",
        [
            # Cycles: damping 0.5 does not contract when kd·sum(rho) is large.
            (SIX, TaxSchedule.zeros(6, 6)),
            # A zero denominator divides to inf or NaN instead of raising.
            (replace(SYM2, costs=(-0.2, 1.0)), ZERO2),
            # Both sectors denied: 0/0 makes one sector's update NaN while
            # the other's stays 0, so the NaN alone counts as still moving.
            (replace(SYM2, costs=(0.0, 1.0)), TaxSchedule.from_array(np.ones((2, 2)))),
            (replace(SYM2, costs=(1.0, 0.0)), TaxSchedule.from_array(np.ones((2, 2)))),
        ],
    )
    def test_failures_match_the_array_loop(self, scenario, taxes):
        reference = iteration_outcome(
            reference_iterate_open_access, scenario, taxes, 0.0, max_iterations=2000
        )
        assert isinstance(reference, tuple)
        assert iteration_outcome(
            iterate_open_access, scenario, taxes, 0.0, max_iterations=2000
        ) == reference

    def test_imports_nothing_from_the_kernel(self):
        tree = ast.parse(open(orbituse.oracle.__file__).read())
        relative = {
            "." * node.level + (node.module or "")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
        }
        absolute = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        } | {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and not node.level
        }
        assert relative == {".errors", ".scenario"}
        assert not any(name.split(".")[0] == "orbituse" for name in absolute)


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

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_per_row_scenarios_match_the_pivot_solve_row_by_row(self, seed):
        # A stack mixing four scenarios of one shape, each row with its own.
        rng = np.random.default_rng(seed)
        base, taxes = sample_scenario(rng, with_taxes=True, sector_range=(1, 6))
        n, m = taxes.shape
        scenarios = [base] + [
            replace(
                base,
                prices=tuple(rng.uniform(0.1, 10.0, m)),
                costs=tuple(rng.uniform(0.1, 10.0, n)),
                collision_coeff=float(rng.uniform(0.01, 0.3)),
                debris_per_sat=float(rng.uniform(0.5, 2.0)),
                legacy_debris=float(rng.uniform(0.0, 8.0)),
            )
            for _ in range(3)
        ]
        owners = [scenarios[i] for i in rng.integers(0, 4, 16)]
        rates = np.repeat(taxes.as_array[None], 16, axis=0)
        rates[1:8] = rng.uniform(-0.05, 1.05, (7, n, m))
        rates[8:10, int(rng.integers(n))] = 1.0
        levels = np.array([
            rng.uniform(-0.5, 2.0) * (s.legacy_debris + 1.0 / s.collision_coeff) for s in owners
        ])
        levels[:4] = 0.0
        fleets, ok = interior_open_access(ScenarioRows.of(owners), rates, levels)
        for row, scenario in enumerate(owners):
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


class TestDeviationSearch:
    def setup_method(self):
        self.coeffs = [
            benefit_coefficients(SYM2, ZERO2, p, MODEL_DERIVED) for p in range(2)
        ]

    def test_symmetric_profile_passes(self):
        profile = AbatementProfile.from_contributions((0.6, 0.6))
        report = deviation_search_abatement(SYM2, self.coeffs, profile, 1.2)
        assert report.passed

    def test_zero_profile_fails_under_large_damages(self):
        # Damages of 1 exceed the cost of averting alone, so the honest
        # oracle reports the pivotal deviation from the all-zero profile.
        profile = AbatementProfile.from_contributions((0.0, 0.0))
        report = deviation_search_abatement(SYM2, self.coeffs, profile, 1.2)
        assert not report.passed

    def test_lopsided_profile_under_small_damages(self):
        # With small damages the 1.2-contributor gains by walking away.
        timid = replace(SYM2, catastrophe_damages=0.01)
        coeffs = [
            benefit_coefficients(timid, ZERO2, p, MODEL_DERIVED) for p in range(2)
        ]
        profile = AbatementProfile.from_contributions((1.2, 0.0))
        report = deviation_search_abatement(timid, coeffs, profile, 1.2)
        assert not report.passed
        assert report.counterexamples[0][0] == 0

    def test_reports_are_deterministic(self):
        profile = AbatementProfile.from_contributions((0.6, 0.6))
        a = deviation_search_abatement(SYM2, self.coeffs, profile, 1.2)
        b = deviation_search_abatement(SYM2, self.coeffs, profile, 1.2)
        assert a == b
