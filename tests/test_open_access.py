import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from orbituse import (
    HIDEB,
    SOLO,
    SYM2,
    ActiveSetChangeError,
    PhysicallyInvalidError,
    Scenario,
    ScenarioValidationError,
    SingularSystemError,
    TaxSchedule,
    check_assumptions,
    decompose,
    reduce_two_player,
    required_abatement,
    sensitivities,
    solve_equilibrium,
)
from orbituse import open_access
from orbituse.open_access import ANALYTIC, FINITE_DIFFERENCE, STATIC
from orbituse.errors import OrbitUseError
from orbituse.oracle import pivot_open_access
from orbituse.sampling import _damped_spectral_radius, sample_scenario
from orbituse.scenario import ScenarioRows, debris_stock

from conftest import assert_exact, exact_rho_form
from test_properties import reference_slopes
from test_sampling import reference_sample_scenario

ZERO2 = TaxSchedule.zeros(2, 2)
ZERO1 = TaxSchedule.zeros(1, 1)

SYM3 = Scenario(3, 3, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0)
ZERO3 = TaxSchedule.zeros(3, 3)
SIX = Scenario(6, 6, (10.0,) * 6, (0.1,) * 6, 0.05, 20.0, 0.0, 2.0, 1.0, 1.0)


def deny_sector(taxes, sector, n_markets):
    for j in range(n_markets):
        taxes = taxes.with_rate(sector, j, 1.0)
    return taxes


def reference_fd_sensitivities(scenario, taxes, abatement):
    """Per-entry central stencils on the dense solver, written out by hand."""
    active = pivot_open_access(scenario, taxes, abatement) > 0.0
    if not active.all():
        raise ActiveSetChangeError(
            "finite-difference sensitivities need every sector interior"
        )
    n, n_markets = scenario.n_sectors, scenario.n_markets
    dfleet_dtax = np.zeros((n, n, n_markets))
    for i in range(n):
        for j in range(n_markets):
            rate = taxes.rate(i, j)
            h = 1e-6 * max(1.0, abs(rate))
            hi = pivot_open_access(scenario, taxes.with_rate(i, j, rate + h), abatement)
            lo = pivot_open_access(scenario, taxes.with_rate(i, j, rate - h), abatement)
            if not (np.array_equal(hi > 0.0, active) and np.array_equal(lo > 0.0, active)):
                raise ActiveSetChangeError(
                    f"active set changed inside the stencil for tax [{i}][{j}]"
                )
            dfleet_dtax[:, i, j] = (hi - lo) / (2.0 * h)
    h = 1e-6 * max(1.0, abs(abatement))
    hi = pivot_open_access(scenario, taxes, abatement + h)
    lo = pivot_open_access(scenario, taxes, abatement - h)
    if not (np.array_equal(hi > 0.0, active) and np.array_equal(lo > 0.0, active)):
        raise ActiveSetChangeError("active set changed inside the abatement stencil")
    ddebris = (
        debris_stock(scenario, float(hi.sum()), abatement + h).stock
        - debris_stock(scenario, float(lo.sum()), abatement - h).stock
    ) / (2.0 * h)
    return (
        dfleet_dtax,
        (hi - lo) / (2.0 * h),
        float(ddebris),
        scenario.debris_per_sat * dfleet_dtax.sum(axis=0),
    )


def reference_analytic_sensitivities(scenario, taxes, abatement):
    """The one-bundle analytic path from the scalar kernel's rho and share."""
    equilibrium = solve_equilibrium(scenario, taxes, abatement)
    _, rho, phi, kd = open_access._rho_form(scenario, taxes, abatement)
    _, share = open_access._share(rho, phi, kd)
    fleets = equilibrium.fleet_array
    dfleet_drho = (phi * np.eye(scenario.n_sectors) - kd * fleets[:, None]) / share
    dfleet_dtax = -dfleet_drho[:, :, None] * (
        scenario.price_array[None, None, :] / scenario.cost_array[None, :, None]
    )
    return (
        dfleet_dtax,
        scenario.collision_coeff * np.array(rho) / share,
        -1.0 / share,
        scenario.debris_per_sat * dfleet_dtax.sum(axis=0),
    )


def fd_outcome(function, scenario, taxes, abatement):
    """The stencil results as raw bytes, or the error a stencil raised."""
    try:
        result = function(scenario, taxes, abatement)
    except OrbitUseError as error:
        return f"{type(error).__name__}: {error}"
    if not isinstance(result, tuple):
        result = (
            result.dfleet_dtax,
            result.dfleet_dabatement,
            result.ddebris_dabatement,
            result.drequired_dtax,
        )
    return [np.asarray(part, dtype=float).tobytes() for part in result]


class TestAssembleSystem:
    """The fleet system's exact values, read off the kernel's ``r`` and determinant.

    Intercepts are ``phi r`` and slopes ``-kd r``; the sampling filter builds
    the interaction matrix of those slopes itself.
    """

    def test_sym2(self):
        eq = solve_equilibrium(SYM2, ZERO2, 0.0)
        kd = SYM2.collision_coeff * SYM2.debris_per_sat
        np.testing.assert_allclose(eq.r, [5.0 / 3.0] * 2, atol=1e-14)
        np.testing.assert_allclose(-kd * np.array(eq.r), [-1.0 / 6.0] * 2, atol=1e-14)
        assert eq.determinant == pytest.approx(35.0 / 36.0, abs=1e-14)

    def test_denied_sector_has_zero_row(self):
        eq = solve_equilibrium(SYM2, deny_sector(ZERO2, 0, 2), 0.0)
        assert eq.r[0] == 0.0

    def test_solo_without_collisions(self):
        eq = solve_equilibrium(SOLO, ZERO1, 0.0)
        assert eq.r == (1.0,)
        assert eq.determinant == 1.0

    def test_interaction_matrix_has_zero_diagonal(self):
        # SYM3 has slopes s = -3/13, so the half-damped map I/2 + s(J - I)/2
        # has eigenvalues 1/2 + s and 1/2 - s/2 (twice): radius 8/13. A
        # diagonal holding s would give 1/2 instead.
        assert _damped_spectral_radius(SYM3, ZERO3) == pytest.approx(8.0 / 13.0, abs=1e-14)


class TestSolveEquilibrium:
    def test_sym2_reference(self):
        eq = solve_equilibrium(SYM2, ZERO2, 0.0)
        np.testing.assert_allclose(eq.fleets, [10.0 / 7.0] * 2, atol=1e-12)
        assert eq.debris.stock == pytest.approx(20.0 / 7.0, abs=1e-12)
        assert eq.max_profit_residual < 1e-12

    def test_solo_reference(self):
        eq = solve_equilibrium(SOLO, ZERO1, 0.0)
        assert eq.fleets == (1.0,)
        assert eq.debris.stock == 1.0

    def test_denied_sector_drops_out(self):
        eq = solve_equilibrium(SYM2, deny_sector(ZERO2, 0, 2), 0.0)
        assert eq.fleets[0] == 0.0
        assert eq.fleets[1] == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert eq.debris.stock == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert eq.active == (False, True)

    def test_zero_profit_on_active_sectors(self, rng):
        from orbituse import sector_profit

        for _ in range(25):
            scenario, taxes = reference_sample_scenario(rng, with_taxes=True, require_interior=False)
            eq = solve_equilibrium(scenario, taxes, 0.0)
            for i in range(scenario.n_sectors):
                if eq.active[i]:
                    assert abs(sector_profit(scenario, taxes, eq.fleets, 0.0, i)) < 1e-9

    def test_heavy_legacy_debris_is_flagged_invalid(self):
        # 1 + k(Q - D0) < 0 pins every sector at zero, but an empty orbit
        # under that much legacy debris already has survival below zero,
        # so the pinning path always ends in the physical-validity error.
        crowded = replace(
            SYM2, legacy_debris=4.0, collision_coeff=0.3, catastrophe_threshold=10.0
        )
        with pytest.raises(PhysicallyInvalidError):
            solve_equilibrium(crowded, ZERO2, 0.0)

    def test_invalid_survival_raises(self):
        hot = replace(SYM2, legacy_debris=8.0, collision_coeff=0.3)
        with pytest.raises(PhysicallyInvalidError):
            solve_equilibrium(hot, ZERO2, 0.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_rate_is_refused(self, rate):
        # -inf used to give a NaN fleet with physically_valid=True.
        for i, j in ((0, 1), (1, 0)):
            rates = [[0.0, 0.0], [0.0, 0.0]]
            rates[i][j] = rate
            with pytest.raises(ScenarioValidationError) as raised:
                solve_equilibrium(SYM2, TaxSchedule(rates), 0.0)
            assert raised.value.violations == [f"tax rates must be finite, got {rates}"]

    def test_finite_rates_outside_the_box_are_solved(self):
        # Derivative stencils probe just outside [0, 1].
        taxes = ZERO2.with_rate(0, 1, -1e-6).with_rate(1, 0, 1.0 + 1e-6)
        assert solve_equilibrium(SYM2, taxes, 0.0).debris.physically_valid

    def test_tiny_determinant_is_reported_not_raised(self):
        # Six sectors with kd*rho = 600 each: det = 3601/601^6 = 7.7e-14.
        taxes = TaxSchedule.zeros(6, 6)
        eq = solve_equilibrium(SIX, taxes, 0.0)
        exact = exact_rho_form(SIX, taxes)
        for fleet, expected in zip(eq.fleets, exact["fleets"]):
            assert_exact(fleet, expected, floor=0)
        assert_exact(eq.debris.survival, exact["survival"], floor=0)
        assert_exact(eq.determinant, exact["determinant"], floor=0)
        assert 0.0 < eq.determinant < 1e-12

    def test_dense_oracle_still_refuses_the_near_singular_system(self):
        with pytest.raises(SingularSystemError):
            pivot_open_access(SIX, TaxSchedule.zeros(6, 6), 0.0)


class TestReduction:
    def test_two_player_game_reduces_to_itself(self):
        eq = reduce_two_player(SYM2, ZERO2, 0.0, 0)
        np.testing.assert_allclose(eq.fleets, [10.0 / 7.0] * 2, atol=1e-12)

    def test_symmetric_three_player(self):
        full = solve_equilibrium(SYM3, ZERO3, 0.0)
        pair = reduce_two_player(SYM3, ZERO3, 0.0, 0)
        assert pair.fleets[0] == pytest.approx(full.fleets[0], abs=1e-9)
        assert pair.fleets[1] == pytest.approx(
            full.fleets[1] + full.fleets[2], abs=1e-9
        )

    def test_asymmetric_costs(self):
        scenario = replace(SYM3, costs=(1.0, 2.0, 4.0))
        full = solve_equilibrium(scenario, ZERO3, 0.0)
        for sector in range(3):
            pair = reduce_two_player(scenario, ZERO3, 0.0, sector)
            assert pair.fleets[0] == pytest.approx(full.fleets[sector], abs=1e-9)
            rest = full.total_fleet - full.fleets[sector]
            assert pair.fleets[1] == pytest.approx(rest, abs=1e-9)
            assert pair.max_profit_residual < 1e-9

    def test_requires_two_sectors(self):
        with pytest.raises(ValueError):
            reduce_two_player(SOLO, ZERO1, 0.0, 0)


class TestDecomposition:
    def test_sym2_factors(self):
        eq = solve_equilibrium(SYM2, ZERO2, 0.0)
        sigma, r = decompose(eq)
        np.testing.assert_allclose(r, [5.0 / 3.0] * 2, atol=1e-14)
        np.testing.assert_allclose(sigma, [6.0 / 7.0] * 2, atol=1e-12)

    def test_solo_factors(self):
        sigma, r = decompose(solve_equilibrium(SOLO, ZERO1, 0.0))
        np.testing.assert_allclose(r, [1.0])
        np.testing.assert_allclose(sigma, [1.0])

    def test_r_bitwise_invariant_to_abatement(self):
        low = decompose(solve_equilibrium(SYM2, ZERO2, 0.0))[1]
        high = decompose(solve_equilibrium(SYM2, ZERO2, 1.0))[1]
        assert np.array_equal(low, high)
        sigma_low = decompose(solve_equilibrium(SYM2, ZERO2, 0.0))[0]
        sigma_high = decompose(solve_equilibrium(SYM2, ZERO2, 1.0))[0]
        assert not np.array_equal(sigma_low, sigma_high)

    def test_product_reconstructs_fleets(self, rng):
        for _ in range(20):
            scenario, taxes = sample_scenario(rng, with_taxes=True)
            eq = solve_equilibrium(scenario, taxes, 0.0)
            sigma, r = decompose(eq)
            np.testing.assert_allclose(sigma * r, eq.fleets, atol=1e-12)


class TestAssumptions:
    def test_sym2_passes_both(self):
        flags = check_assumptions(SYM2, ZERO2)
        assert all(flags.no_crowding_out)
        assert flags.bounded_marginal_risk

    def test_high_collision_rate_fails_bound(self):
        flags = check_assumptions(replace(SYM2, collision_coeff=0.6), ZERO2)
        assert not flags.bounded_marginal_risk

    def test_boundary_probe_stays_inside(self):
        probe = Scenario(1, 1, (100.0,), (0.01,), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0)
        flags = check_assumptions(probe, ZERO1)
        assert flags.no_crowding_out == (True,)


class TestSensitivities:
    def test_sym2_abatement_derivatives(self):
        report = sensitivities(SYM2, ZERO2, 0.0)
        np.testing.assert_allclose(report.dfleet_dabatement, [1.0 / 7.0] * 2, atol=1e-12)
        assert report.ddebris_dabatement == pytest.approx(-5.0 / 7.0, abs=1e-12)

    def test_solo_without_collisions(self):
        report = sensitivities(SOLO, ZERO1, 0.0)
        np.testing.assert_allclose(report.dfleet_dabatement, [0.0], atol=1e-14)
        assert report.ddebris_dabatement == pytest.approx(-1.0, abs=1e-14)

    def test_sym2_tax_sign_pattern(self):
        report = sensitivities(SYM2, ZERO2, 0.0)
        own = report.dfleet_dtax[0, 0, 1]
        cross = report.dfleet_dtax[1, 0, 1]
        assert own < 0.0 < cross
        assert -own > cross

    def test_analytic_matches_finite_difference(self, rng):
        for _ in range(10):
            scenario, taxes = sample_scenario(rng, with_taxes=True, sector_range=(2, 5))
            analytic = sensitivities(scenario, taxes, 0.0)
            numeric = sensitivities(scenario, taxes, 0.0, method=FINITE_DIFFERENCE)
            scale = np.maximum(np.abs(analytic.dfleet_dtax), 1e-8)
            assert np.max(np.abs(analytic.dfleet_dtax - numeric.dfleet_dtax) / scale) < 1e-5

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_rows_equal_the_one_bundle_calls_bit_for_bit(self, seed):
        # Same-shape scenarios in one stack, each row with its own, at
        # several abatement levels; refused rows are left out. The analytic
        # rows also equal the scalar kernel's formula, the path they replaced.
        rng = np.random.default_rng(seed)
        base, _ = sample_scenario(rng, n_sectors=3, with_taxes=True)
        drawn = [sample_scenario(rng, n_sectors=3, with_taxes=True) for _ in range(30)]
        bundles = [
            (s, t, q) for (s, t), q in zip(drawn, rng.uniform(0.0, 0.5, 30))
            if s.n_markets == base.n_markets
        ]
        rows = ScenarioRows.of([s for s, _, _ in bundles])
        rates = np.array([t.as_array for _, t, _ in bundles])
        levels = np.array([q for _, _, q in bundles])
        for method, batch in ((ANALYTIC, open_access._analytic_rows),
                              (FINITE_DIFFERENCE, open_access._fd_rows)):
            report, good, *_ = batch(rows, rates, levels)
            good = good if good.ndim == 1 else good.all(axis=1)
            assert good.sum() >= 5
            for row, (scenario, taxes, q) in enumerate(bundles):
                if not good[row]:
                    continue
                one = sensitivities(scenario, taxes, float(q), method=method)
                names = ("dfleet_dtax", "dfleet_dabatement", "ddebris_dabatement", "drequired_dtax")
                for name, value in zip(names, report):
                    assert np.asarray(getattr(one, name)).tobytes() == value[row].tobytes(), name
                if method == ANALYTIC:
                    scalar = reference_analytic_sensitivities(scenario, taxes, float(q))
                    for name, value, expected in zip(names, report, scalar):
                        assert np.asarray(expected).tobytes() == value[row].tobytes(), name

    def test_pinned_sector_raises(self):
        with pytest.raises(ActiveSetChangeError):
            sensitivities(SYM2, deny_sector(ZERO2, 0, 2), 0.0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_finite_differences_match_the_per_entry_stencils_bitwise(self, seed, abatement):
        rng = np.random.default_rng(seed)
        scenario, taxes = sample_scenario(rng, with_taxes=True, sector_range=(1, 6))
        reference = fd_outcome(reference_fd_sensitivities, scenario, taxes, abatement)
        fd = lambda *args: sensitivities(*args, method=FINITE_DIFFERENCE)
        assert fd_outcome(fd, scenario, taxes, abatement) == reference

    def test_stencil_errors_match_the_per_entry_stencils(self):
        fd = lambda *args: sensitivities(*args, method=FINITE_DIFFERENCE)
        # Each way a stacked probe is refused: a tax probe's + h side
        # pushes rate [1][0] past 1 and drops sector 1; the abatement
        # probe's - h side lands exactly on phi = 0, where every fleet is 0
        # and survival 0 is valid; an abatement probe below phi = 0 leaves
        # survival negative; and just below survival 1, the + h side of
        # tax [0][0] lifts survival past 1.
        almost_denied = ZERO2.with_rate(1, 0, 1.0 - 5e-7).with_rate(1, 1, 1.0 - 5e-7)
        edge = replace(SYM2, legacy_debris=10.0)
        cases = [
            (SYM2, almost_denied, 0.0, "ActiveSetChangeError"),
            (edge, ZERO2, 1e-6, "ActiveSetChangeError"),
            (edge, ZERO2, 5e-7, "PhysicallyInvalidError"),
            (SYM2, ZERO2, 4.0 - 1e-7, "PhysicallyInvalidError"),
        ]
        for scenario, taxes, abatement, error in cases:
            reference = fd_outcome(reference_fd_sensitivities, scenario, taxes, abatement)
            assert reference.startswith(error)
            assert fd_outcome(fd, scenario, taxes, abatement) == reference

    def test_refused_base_raises_the_base_solve_error(self):
        # The base schedule is row 0 of the stack; when it is refused, the
        # dense solve of the base raises what it raised before any probe:
        # a sector with zero fleet, survival outside [0, 1] (phi < 0 at
        # D0 = 20) and a numerically singular system.
        fd = lambda *args: sensitivities(*args, method=FINITE_DIFFERENCE)
        cases = [
            (SYM2, deny_sector(ZERO2, 0, 2), 0.0,
             "ActiveSetChangeError: finite-difference sensitivities need every sector interior"),
            (replace(SYM2, legacy_debris=20.0), ZERO2, 0.0, "PhysicallyInvalidError: "),
            (SIX, TaxSchedule.zeros(6, 6), 0.0, "SingularSystemError: "),
        ]
        for scenario, taxes, abatement, error in cases:
            reference = fd_outcome(reference_fd_sensitivities, scenario, taxes, abatement)
            assert reference.startswith(error)
            assert fd_outcome(fd, scenario, taxes, abatement) == reference


class TestRequiredAbatement:
    def test_sym2_responsive_root(self):
        assert required_abatement(SYM2, ZERO2) == pytest.approx(1.2, abs=1e-9)
        assert required_abatement(HIDEB, ZERO2) == pytest.approx(6.2, abs=1e-9)
        # phi0 = 1 - k*D0 = 0 pins every fleet at zero abatement; they all
        # enter once abatement is positive, and debris then falls by 1/1.4.
        edge = replace(SYM2, legacy_debris=10.0)
        assert required_abatement(edge, ZERO2) == pytest.approx(11.2, abs=1e-9)

    def test_sym2_responsive_matches_bisection_oracle(self):
        lo, hi = 0.0, 4.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            stock = solve_equilibrium(SYM2, ZERO2, mid).debris.stock
            if stock > SYM2.catastrophe_threshold:
                lo = mid
            else:
                hi = mid
        assert required_abatement(SYM2, ZERO2) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_sym2_static_formula(self):
        assert required_abatement(SYM2, ZERO2, mode=STATIC) == pytest.approx(
            20.0 / 7.0 - 2.0, abs=1e-12
        )

    def test_high_threshold_needs_nothing(self):
        relaxed = replace(SYM2, catastrophe_threshold=3.0)
        assert required_abatement(relaxed, ZERO2) == 0.0
        assert required_abatement(SOLO, ZERO1) == 0.0

    def test_zero_collision_rate_keeps_unit_slope(self):
        flat = replace(SOLO, catastrophe_threshold=0.5)
        # debris(0) = 1 > 0.5 with slope exactly -1: root at the gap
        assert required_abatement(flat, ZERO1) == pytest.approx(0.5, abs=1e-12)

    def test_huge_stock_root_is_exact_in_one_solve(self, monkeypatch):
        # At a stock of 1e8 a probed root would miss the threshold through
        # round-off alone. The closed form needs only the zero-abatement
        # solve and lands on the exact root of the affine debris law,
        # debris(Q) = debris(0) - (1 - kd*sum(f)/phi0) Q.
        huge = replace(SYM2, collision_coeff=1e-9, legacy_debris=1e8)
        solves = []
        original = open_access.solve_equilibrium

        def counted(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(open_access, "solve_equilibrium", counted)
        qbar = required_abatement(huge, ZERO2)
        monkeypatch.undo()
        assert len(solves) == 1
        base = solve_equilibrium(huge, ZERO2, 0.0)
        gap = base.debris.stock - huge.catastrophe_threshold
        kd = huge.collision_coeff * huge.debris_per_sat
        phi0 = 1.0 - huge.collision_coeff * huge.legacy_debris
        exact = gap / (1.0 - kd * base.total_fleet / phi0)
        assert qbar == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_debris_slope_closed_form(self, rng):
        # Because every sector shares the abatement intercept, the slope of
        # equilibrium debris in abatement collapses to -1/(1+w) with
        # w = sum |B_i|/(1-|B_i|) = kd*sum(rho); it is strictly negative for
        # any valid scenario, which is why required_abatement needs no probe.
        for _ in range(15):
            scenario, taxes = sample_scenario(rng, with_taxes=True)
            w = sum(abs(b) / (1.0 - abs(b)) for b in reference_slopes(scenario, taxes))
            report = sensitivities(scenario, taxes, 0.0)
            assert report.ddebris_dabatement == pytest.approx(
                -1.0 / (1.0 + w), abs=1e-12
            )
            assert report.ddebris_dabatement < 0.0

    def test_sweeping_threshold_keeps_root_consistent(self, rng):
        for _ in range(10):
            scenario, taxes = sample_scenario(rng, require_kessler_risk=True)
            qbar = required_abatement(scenario, taxes)
            stock = solve_equilibrium(scenario, taxes, qbar).debris.stock
            assert stock == pytest.approx(scenario.catastrophe_threshold, abs=1e-8)
