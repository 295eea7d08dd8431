import numpy as np
import pytest
from dataclasses import replace

import orbituse
from orbituse import (
    HIDEB,
    SOLO,
    SYM2,
    AbatementProfile,
    OrbitUseError,
    Scenario,
    TaxSchedule,
    debris_stock,
    effective_prices,
    sector_profit,
    validate_scenario,
    validate_taxes,
)
from orbituse.scenario import ScenarioShapeError


def test_reference_scenarios_are_valid():
    for scenario in (SOLO, SYM2, HIDEB):
        assert validate_scenario(scenario) == []


def test_zero_cost_is_reported():
    broken = replace(SYM2, costs=(0.0, 1.0))
    report = validate_scenario(broken)
    assert any("costs must be > 0" in line for line in report)


def test_price_length_mismatch_is_reported():
    broken = replace(SYM2, prices=(1.0, 1.0, 1.0))
    report = validate_scenario(broken)
    assert any("length n_markets" in line for line in report)


def test_sectors_cannot_exceed_markets():
    broken = Scenario(1, 2, (1.0,), (1.0, 1.0), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0)
    assert any("n_sectors must be <= n_markets" in line for line in validate_scenario(broken))


def test_tax_validation_flags_out_of_range():
    taxes = TaxSchedule.from_array([[0.0, 1.5], [0.0, 0.0]])
    report = validate_taxes(SYM2, taxes)
    assert len(report) == 1 and "outside [0, 1]" in report[0]
    assert validate_taxes(SYM2, TaxSchedule.zeros(2, 2)) == []


def test_treaty_parties_defaults_to_markets():
    assert SYM2.treaty_parties == 2
    widened = Scenario(3, 2, (1.0, 1.0, 1.0), (1.0, 1.0), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0)
    assert widened.treaty_parties == 3


def test_effective_prices_zero_tax(zero_taxes_sym2):
    np.testing.assert_allclose(effective_prices(SYM2, zero_taxes_sym2), [2.0, 2.0])


def test_effective_prices_full_denial(zero_taxes_sym2):
    denied = zero_taxes_sym2.with_rate(0, 0, 1.0).with_rate(0, 1, 1.0)
    prices = effective_prices(SYM2, denied)
    assert prices[0] == 0.0
    assert prices[1] == 2.0


def test_effective_prices_partial_tax(zero_taxes_sym2):
    taxed = zero_taxes_sym2.with_rate(0, 1, 0.5)
    np.testing.assert_allclose(effective_prices(SYM2, taxed), [1.5, 2.0])


def test_effective_prices_shape_mismatch():
    with pytest.raises(ScenarioShapeError):
        effective_prices(SYM2, TaxSchedule.zeros(3, 2))


def test_shape_error_is_in_the_package_hierarchy():
    # Still a ValueError for callers that catch that, and one class
    # whichever module it is imported from.
    assert issubclass(ScenarioShapeError, OrbitUseError)
    assert issubclass(ScenarioShapeError, ValueError)
    assert ScenarioShapeError is orbituse.ScenarioShapeError
    with pytest.raises(OrbitUseError):
        effective_prices(SYM2, TaxSchedule.zeros(2, 3))


def test_debris_stock_direct_substitution():
    state = debris_stock(SOLO, 1.0, 0.0)
    assert state.stock == 1.0
    assert state.survival == 1.0
    assert not state.catastrophe
    assert state.physically_valid


def test_debris_stock_at_equilibrium_fleet():
    # 20/7 is the SYM2 zero-tax equilibrium total, derived from the
    # fixed-point iteration oracle (see test_oracle).
    state = debris_stock(SYM2, 20.0 / 7.0, 0.0)
    assert state.stock == pytest.approx(20.0 / 7.0, abs=1e-12)
    assert state.survival == pytest.approx(5.0 / 7.0, abs=1e-12)
    assert state.catastrophe


def test_debris_stock_exact_threshold_is_not_catastrophe():
    # Abatement 1.2 holds the expanded fleet exactly at the threshold;
    # catastrophe requires strictly exceeding it.
    state = debris_stock(SYM2, 20.0 / 7.0 * 1.12, 1.2)
    assert state.stock == 2.0
    assert not state.catastrophe


def test_debris_stock_affine_in_fleet_and_abatement(rng):
    for _ in range(20):
        scenario = replace(
            SYM2,
            collision_coeff=float(rng.uniform(0.0, 0.3)),
            debris_per_sat=float(rng.uniform(0.5, 2.0)),
            legacy_debris=float(rng.uniform(0.0, 5.0)),
        )
        fleets = rng.uniform(0.0, 5.0, size=3)
        fleets[2] = 2.0 * fleets[1] - fleets[0]  # collinear points
        stocks = [debris_stock(scenario, f, 0.0).stock for f in fleets]
        assert abs(stocks[2] - 2.0 * stocks[1] + stocks[0]) < 1e-12
        qs = rng.uniform(0.0, 3.0, size=2)
        slope = (
            debris_stock(scenario, 1.0, qs[1]).stock
            - debris_stock(scenario, 1.0, qs[0]).stock
        ) / (qs[1] - qs[0])
        assert abs(slope + 1.0) < 1e-12


def test_survival_probability_examples():
    # SYM2 has d = 1 and no legacy debris, so the stock is the total fleet.
    solo = debris_stock(SOLO, 123.0, 0.0)
    assert (solo.survival, solo.physically_valid) == (1.0, True)
    state = debris_stock(SYM2, 20.0 / 7.0, 0.0)
    assert state.stock == 20.0 / 7.0
    assert state.survival == pytest.approx(5.0 / 7.0, abs=1e-12)
    assert state.physically_valid
    state = debris_stock(SYM2, 11.0, 0.0)
    assert state.stock == 11.0
    assert state.survival == pytest.approx(-0.1, abs=1e-12)
    assert not state.physically_valid


def test_sector_profit_zero_at_solo_equilibrium():
    taxes = TaxSchedule.zeros(1, 1)
    assert sector_profit(SOLO, taxes, [1.0], 0.0, 0) == 0.0


def test_sector_profit_zero_at_sym2_equilibrium(zero_taxes_sym2):
    fleet = [10.0 / 7.0, 10.0 / 7.0]
    for i in range(2):
        assert abs(sector_profit(SYM2, zero_taxes_sym2, fleet, 0.0, i)) < 1e-12


def test_sector_profit_off_equilibrium(zero_taxes_sym2):
    # (1 - 0.1*2) * 2 * 1 - 1 = 0.6 at a unit fleet pair
    value = sector_profit(SYM2, zero_taxes_sym2, [1.0, 1.0], 0.0, 0)
    assert value == pytest.approx(0.6, abs=1e-12)


def test_sector_profit_index_range(zero_taxes_sym2):
    with pytest.raises(IndexError):
        sector_profit(SYM2, zero_taxes_sym2, [1.0, 1.0], 0.0, 2)


def test_sector_profit_concave_in_own_fleet(zero_taxes_sym2, rng):
    for _ in range(10):
        base = rng.uniform(0.1, 3.0)
        step = rng.uniform(0.01, 0.5)
        values = [
            sector_profit(SYM2, zero_taxes_sym2, [base + k * step, 1.0], 0.0, 0)
            for k in (-1, 0, 1)
        ]
        assert values[0] - 2.0 * values[1] + values[2] < 0.0


def test_effective_prices_monotone_in_taxes(rng):
    for _ in range(10):
        taxes = TaxSchedule.from_array(rng.uniform(0.0, 0.8, size=(2, 2)))
        base = effective_prices(SYM2, taxes)
        i, j = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        bumped = effective_prices(SYM2, taxes.with_rate(i, j, taxes.rate(i, j) + 0.1))
        assert bumped[i] <= base[i]
        other = 1 - i
        assert bumped[other] == base[other]


def test_with_rate_and_with_column_equal_a_fresh_schedule():
    base = TaxSchedule(((0.1, 0.2, 0.3), (0.0, 0.5, 1.0), (0.25, 0.75, 0.5)))
    cases = [
        (base.with_rate(1, 2, 3), ((0.1, 0.2, 0.3), (0.0, 0.5, 3.0), (0.25, 0.75, 0.5))),
        (base.with_rate(0, 0, np.float64(0.4)), ((0.4, 0.2, 0.3), (0.0, 0.5, 1.0), (0.25, 0.75, 0.5))),
        (base.with_rate(-1, -1, 1), ((0.1, 0.2, 0.3), (0.0, 0.5, 1.0), (0.25, 0.75, 1.0))),
        (base.with_column(1, [1, np.float64(0.5), 0]), ((0.1, 1.0, 0.3), (0.0, 0.5, 1.0), (0.25, 0.0, 0.5))),
        (base.with_column(2, np.array([0.9, 0.8, 0.7])), ((0.1, 0.2, 0.9), (0.0, 0.5, 0.8), (0.25, 0.75, 0.7))),
    ]
    for changed, rows in cases:
        fresh = TaxSchedule(rows)
        assert changed == fresh
        assert hash(changed) == hash(fresh)
        assert all(type(v) is float for row in changed.rates for v in row)
        assert changed.as_array.tolist() == fresh.as_array.tolist()
    assert base.rates == ((0.1, 0.2, 0.3), (0.0, 0.5, 1.0), (0.25, 0.75, 0.5))
    with pytest.raises(IndexError):
        base.with_rate(3, 0, 0.5)


def test_abatement_profile_total_consistency():
    profile = AbatementProfile.from_contributions((0.25, 0.5, 0.25))
    assert profile.total == 1.0
    with pytest.raises(ValueError):
        AbatementProfile(contributions=(0.5, 0.5), total=2.0)
