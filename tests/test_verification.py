"""The batch checkers against the per-bundle checkers they replaced.

Every stencil and solve checker in ``verification`` evaluates its whole
batch in one stacked pass per bundle shape. The per-bundle checkers (and,
for the stencil suites, the per-probe ones before them) are kept below as
references: the batch ones must return equal reports, residual floats
included, and raise the same error as the lowest-index failing bundle.
"""

import ast
import gzip
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbituse import SYM2, PhysicallyInvalidError, Scenario, TaxSchedule
from orbituse import verification
from orbituse.cli import main
from orbituse.errors import NoConvergenceError, OrbitUseError
from orbituse.open_access import (
    ANALYTIC,
    FINITE_DIFFERENCE,
    _one_rate_probes,
    _stacked_equilibrium,
    _stacked_factors,
    decompose,
    reduce_two_player,
    sensitivities,
    solve_equilibrium,
)
from orbituse.oracle import iterate_open_access
from orbituse.regulation import _stacked_welfare, national_welfare, welfare_channels
from orbituse.scenario import ScenarioRows, sector_profit
from orbituse.verification import (
    _batch,
    _report,
    check_channel_identity,
    check_decomposition,
    check_equilibrium_agreement,
    check_reduction,
    check_sensitivity_agreement,
    check_sign_suite,
    check_welfare_quadratic,
    run_verification,
)

from conftest import BENCHMARKS, benchmark_modules


# -- the per-bundle checkers the batch ones replaced --------------------------
def bundle_equilibrium_agreement(bundles):
    worst = 0.0
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        solved = solve_equilibrium(scenario, taxes, abatement)
        iterated = iterate_open_access(scenario, taxes, abatement)
        gap = float(np.max(np.abs(solved.fleet_array - iterated)))
        profit = max(
            abs(sector_profit(scenario, taxes, solved.fleets, abatement, i))
            for i in range(scenario.n_sectors)
            if solved.active[i]
        ) if any(solved.active) else 0.0
        residual = max(gap, profit, solved.max_profit_residual)
        worst = max(worst, residual)
        if gap > 1e-9 or profit > 1e-9:
            bad.append((index, gap, profit))
    return _report("equilibrium_agreement", worst, bad)


def bundle_reduction(bundles):
    worst = 0.0
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        full = solve_equilibrium(scenario, taxes, abatement)
        fleets = full.fleet_array
        for sector in range(scenario.n_sectors):
            pair = reduce_two_player(scenario, taxes, abatement, sector)
            own_gap = abs(pair.fleets[0] - fleets[sector])
            rest_gap = abs(pair.fleets[1] - (fleets.sum() - fleets[sector]))
            residual = max(own_gap, rest_gap)
            worst = max(worst, residual)
            if residual > 1e-9:
                bad.append((index, sector, residual))
    return _report("two_player_reduction", worst, bad)


def bundle_decomposition(bundles):
    worst = 0.0
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        probes = (abatement, abatement + 0.35, abatement + 0.7)
        solutions = [solve_equilibrium(scenario, taxes, q) for q in probes]
        r_values = [decompose(eq)[1] for eq in solutions]
        if any(not np.array_equal(r_values[0], other) for other in r_values[1:]):
            bad.append((index, "r not bitwise identical across abatement"))
            continue
        for eq in solutions:
            sigma, r = decompose(eq)
            recon = float(np.max(np.abs(sigma * r - eq.fleet_array)))
            worst = max(worst, recon)
            if recon > 1e-12:
                bad.append((index, "fleets != sigma*r", recon))
        sigmas = [np.array(eq.sigma) for eq in solutions]
        collinear = float(np.max(np.abs(sigmas[0] - 2.0 * sigmas[1] + sigmas[2])))
        worst = max(worst, collinear)
        if collinear > 1e-10:
            bad.append((index, "sigma not affine in abatement", collinear))
    return _report("decomposition", worst, bad)


def bundle_sensitivity_agreement(bundles):
    worst = 0.0
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        analytic = sensitivities(scenario, taxes, abatement, method=ANALYTIC)
        numeric = sensitivities(scenario, taxes, abatement, method=FINITE_DIFFERENCE)
        for name in ("dfleet_dtax", "dfleet_dabatement", "drequired_dtax", "ddebris_dabatement"):
            a = np.asarray(getattr(analytic, name), dtype=float)
            b = np.asarray(getattr(numeric, name), dtype=float)
            scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
            gap = float(np.max(np.abs(a - b) / scale))
            worst = max(worst, gap)
            if gap > 1e-5:
                bad.append((index, name, gap))
    return _report("sensitivity_agreement", worst, bad)


def bundle_stencil(scenario, rates, abatement):
    """One bundle's stacked stencil, refusing it as the per-probe loop would."""
    solved = _stacked_equilibrium(scenario, rates, abatement)
    fleets, survival, stock = solved.fleets, solved.survival, solved.stock
    invalid = np.flatnonzero(~((0.0 <= survival) & (survival <= 1.0)))
    if invalid.size:
        row = invalid[0]
        solve_equilibrium(scenario, TaxSchedule.from_array(rates[row]), float(abatement[row]))
    return fleets, survival, stock


def _fd_fleets_tax(scenario, taxes, abatement, sector, market):
    rate = taxes.rate(sector, market)
    h = 1e-6 * max(1.0, abs(rate))
    hi = solve_equilibrium(scenario, taxes.with_rate(sector, market, rate + h), abatement)
    lo = solve_equilibrium(scenario, taxes.with_rate(sector, market, rate - h), abatement)
    return (hi.fleet_array - lo.fleet_array) / (2.0 * h)


def _fd_fleets_abatement(scenario, taxes, abatement):
    h = 1e-6 * max(1.0, abs(abatement))
    hi = solve_equilibrium(scenario, taxes, abatement + h)
    lo = solve_equilibrium(scenario, taxes, abatement - h)
    return (
        (hi.fleet_array - lo.fleet_array) / (2.0 * h),
        (hi.debris.stock - lo.debris.stock) / (2.0 * h),
    )


def reference_sign_suite(bundles):
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        d_ab, d_debris = _fd_fleets_abatement(scenario, taxes, abatement)
        if not np.all(d_ab > 0.0):
            bad.append((index, "dfleet_dabatement not positive"))
        if d_debris >= 0.0:
            bad.append((index, "ddebris_dabatement not negative"))
        for sector in range(scenario.n_sectors):
            for market in range(scenario.n_markets):
                grad = _fd_fleets_tax(scenario, taxes, abatement, sector, market)
                if grad[sector] >= 0.0:
                    bad.append((index, sector, market, "own fleet does not fall"))
                others = np.delete(grad, sector)
                if others.size and not np.all(others > 0.0):
                    bad.append((index, sector, market, "rebound not positive"))
                if grad.sum() >= 0.0:
                    bad.append((index, sector, market, "total fleet does not fall"))
                rate = taxes.rate(sector, market)
                h = 1e-4 * max(1.0, abs(rate))
                up, _ = _fd_fleets_abatement(
                    scenario, taxes.with_rate(sector, market, rate + h), abatement
                )
                down, _ = _fd_fleets_abatement(
                    scenario, taxes.with_rate(sector, market, rate - h), abatement
                )
                if (up[sector] - down[sector]) / (2.0 * h) >= 0.0:
                    bad.append((index, sector, market, "cross derivative not negative"))
    return _report("comparative_statics_signs", float(len(bad)), bad)


def loop_sign_suite(bundles):
    """The stacked sign suite with its former per-(sector, market) loop."""
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        n, n_markets = scenario.n_sectors, scenario.n_markets
        rates = taxes.as_array
        h = 1e-6 * np.maximum(1.0, np.abs(rates))
        wide = 1e-4 * np.maximum(1.0, np.abs(rates))
        h_ab = 1e-6 * max(1.0, abs(abatement))
        up, down = abatement + h_ab, abatement - h_ab
        moved = np.stack(
            [rates + h, rates - h, rates + wide, rates + wide, rates - wide, rates - wide],
            axis=-1,
        )
        fleets, _, stock = bundle_stencil(
            scenario,
            np.concatenate([rates[None], rates[None], _one_rate_probes(rates[None], moved[None])[0]]),
            np.array([up, down] + [abatement, abatement, up, down, up, down] * (n * n_markets)),
        )
        d_ab = (fleets[0] - fleets[1]) / (2.0 * h_ab)
        if not np.all(d_ab > 0.0):
            bad.append((index, "dfleet_dabatement not positive"))
        if (stock[0] - stock[1]) / (2.0 * h_ab) >= 0.0:
            bad.append((index, "ddebris_dabatement not negative"))
        probes = fleets[2:].reshape(n, n_markets, 6, n)
        grads = (probes[:, :, 0] - probes[:, :, 1]) / (2.0 * h)[:, :, None]
        slopes = (probes[:, :, 2::2] - probes[:, :, 3::2]) / (2.0 * h_ab)
        i, j = np.indices((n, n_markets), sparse=True)
        cross = (slopes[i, j, 0, i] - slopes[i, j, 1, i]) / (2.0 * wide)
        for sector in range(n):
            for market in range(n_markets):
                grad = grads[sector, market]
                if grad[sector] >= 0.0:
                    bad.append((index, sector, market, "own fleet does not fall"))
                others = np.delete(grad, sector)
                if others.size and not np.all(others > 0.0):
                    bad.append((index, sector, market, "rebound not positive"))
                if grad.sum() >= 0.0:
                    bad.append((index, sector, market, "total fleet does not fall"))
                if cross[sector, market] >= 0.0:
                    bad.append((index, sector, market, "cross derivative not negative"))
    return _report("comparative_statics_signs", float(len(bad)), bad)


def _fd_welfare_tax(scenario, taxes, abatement, sector, market):
    rate = taxes.rate(sector, market)
    h = 1e-3 * max(1.0, abs(rate))

    def central(step):
        hi = national_welfare(
            scenario, taxes.with_rate(sector, market, rate + step), abatement
        ).welfare[market]
        lo = national_welfare(
            scenario, taxes.with_rate(sector, market, rate - step), abatement
        ).welfare[market]
        return (hi - lo) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def reference_channel_identity(bundles):
    worst = 0.0
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        for sector in range(scenario.n_sectors):
            for market in range(scenario.n_markets):
                channels = welfare_channels(scenario, taxes, abatement, sector, market)
                fd = _fd_welfare_tax(scenario, taxes, abatement, sector, market)
                gap = abs(channels.total - fd)
                worst = max(worst, gap)
                if gap > 1e-9:
                    bad.append((index, sector, market, gap))
    return _report("welfare_channel_identity", worst, bad)


def reference_welfare_quadratic(bundles):
    worst = 0.0
    bad = []
    step = 0.5
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        stencil = [abatement + step * n for n in range(5)]
        for market in range(scenario.n_markets):
            values = [national_welfare(scenario, taxes, q).welfare[market] for q in stencil]
            second = [values[n] - 2.0 * values[n + 1] + values[n + 2] for n in range(3)]
            spread = max(second) - min(second)
            worst = max(worst, spread)
            if spread > 1e-10:
                bad.append((index, market, spread))
    return _report("welfare_quadratic_in_abatement", worst, bad)


# Each batch checker's module name and its reference.
REFERENCES = {
    "check_equilibrium_agreement": bundle_equilibrium_agreement,
    "check_reduction": bundle_reduction,
    "check_decomposition": bundle_decomposition,
    "check_sensitivity_agreement": bundle_sensitivity_agreement,
    "check_sign_suite": reference_sign_suite,
    "check_channel_identity": reference_channel_identity,
    "check_welfare_quadratic": reference_welfare_quadratic,
}
PAIRS = [(getattr(verification, name), reference) for name, reference in REFERENCES.items()]


def outcome(checker, bundles):
    """The report's repr (so float types count), or the raised error's class and message."""
    try:
        return repr(checker(bundles))
    except (OrbitUseError, ValueError) as error:   # ValueError: reducing one sector
        return (type(error).__name__, str(error))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# -- the stacked evaluator ---------------------------------------------------
@st.composite
def stencil_rows(draw):
    """One to three same-shape scenarios and a stack of (rates, abatement) rows.

    Each row belongs to one of the scenarios. Drawn wide: rates lie slightly
    outside [0, 1] as stencils probe them; legacy debris reaches past 1/k,
    so phi = 1 + k(Q - D0) can be negative; one scenario family has
    phi == 0 exactly at Q = 0; abatement reaches far enough to push
    survival above 1, so some rows are physically invalid.
    """
    n_s = draw(st.integers(1, 4))
    n_m = draw(st.integers(n_s, 4))
    log = st.floats(-3.0, 3.0)
    scenarios = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)) == 0:
            k, legacy = 0.1, 10.0                       # 1 + 0.1 (0 - 10) == 0.0
        else:
            k = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
            legacy = draw(st.floats(0.0, 1.5)) / max(k, 0.1)
        scenarios.append(Scenario(
            n_markets=n_m,
            n_sectors=n_s,
            prices=tuple(math.exp(draw(log)) for _ in range(n_m)),
            costs=tuple(math.exp(draw(log)) for _ in range(n_s)),
            collision_coeff=k,
            debris_per_sat=math.exp(draw(st.floats(-1.0, 1.0))),
            legacy_debris=legacy,
            catastrophe_threshold=1.0,
            catastrophe_damages=1.0,
            abatement_cost=1.0,
        ))
    rate = st.one_of(st.just(0.0), st.just(1.0), st.floats(-0.05, 1.05))
    count = draw(st.integers(1, 6))
    owners = [draw(st.integers(0, len(scenarios) - 1)) for _ in range(count)]
    rates = np.array(
        [[[draw(rate) for _ in range(n_m)] for _ in range(n_s)] for _ in range(count)]
    )
    abatement = np.array([
        draw(st.one_of(
            st.just(0.0),
            st.floats(0.0, scenarios[o].legacy_debris),
            st.floats(0.0, 3.0 * scenarios[o].legacy_debris + 20.0),
        ))
        for o in owners
    ])
    return [scenarios[o] for o in owners], rates, abatement


@given(stencil_rows())
@settings(max_examples=200, deadline=None)
def test_stacked_rows_equal_the_scalar_kernel_bit_for_bit(case):
    # One scenario passed as itself, and any mix of them as ScenarioRows.
    owners, rates, abatement = case
    stacks = [ScenarioRows.of(owners)]
    if len(set(owners)) == 1:
        stacks.append(owners[0])
    for stack in stacks:
        record = _stacked_equilibrium(stack, rates, abatement)
        fleets, survival, stock = record.fleets, record.survival, record.stock
        welfare = _stacked_welfare(stack, rates, fleets, survival)
        sigma, r, residual = _stacked_factors(stack, record)
        for row, scenario in enumerate(owners):
            taxes = TaxSchedule.from_array(rates[row])
            q = float(abatement[row])
            try:
                solved = solve_equilibrium(scenario, taxes, q)
            except PhysicallyInvalidError as error:
                assert not 0.0 <= survival[row] <= 1.0
                assert bits([error.debris.survival, error.debris.stock]) == bits(
                    [survival[row], stock[row]]
                )
                continue
            assert bits(solved.fleets) == bits(fleets[row])
            assert bits([solved.debris.survival, solved.debris.stock]) == bits(
                [survival[row], stock[row]]
            )
            assert bits(national_welfare(scenario, taxes, q).welfare) == bits(welfare[row])
            assert bits(solved.sigma) == bits(sigma[row])
            assert bits(solved.r) == bits(r[row])
            assert bits([solved.max_profit_residual]) == bits([max(residual[row].tolist(), default=0.0)])


def test_the_checkers_import_none_of_the_kernel_arithmetic():
    # The stacked record carries phi, kd, revenue, on and share, so phi and
    # the revenue-to-share step are spelled in open_access alone.
    tree = ast.parse(Path(verification.__file__).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("open_access")
        for alias in node.names
    }
    assert "_stacked_equilibrium" in imported
    assert not imported & {"_phi", "_revenue_share"}


def test_stacked_revenue_rounds_as_the_one_schedule_product():
    # The batch kernels take revenue as (R, n, m) @ (R, m, 1) where one
    # schedule takes (n, m) @ (m,); the two must round alike.
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        for m in range(n, 8):
            rates = rng.uniform(-0.05, 1.05, (9, n, m))
            prices = np.exp(rng.uniform(-3.0, 3.0, (9, m)))
            stacked = ((1.0 - rates) @ prices[:, :, None])[:, :, 0]
            for row in range(9):
                assert bits(stacked[row]) == bits((1.0 - rates[row]) @ prices[row]), (n, m)


# -- the batch checkers against the per-bundle references ---------------------
def shifted(bundles, levels=(0.0, 4.0, 40.0)):
    """The bundles at rising abatement: some stencils then leave survival <= 1."""
    return [(s, t, q + levels[i % len(levels)]) for i, (s, t, q) in enumerate(bundles)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_stacked_checkers_match_the_per_probe_references(seed):
    # Per-probe references for the stencil suites, per-bundle ones for the
    # rest. Both sampled batches mix shapes; so do their interleaving and
    # the shifted batches, whose failing bundles fall in several shape groups.
    rng = np.random.default_rng(seed)
    interior = _batch(rng, 12, with_taxes=True, sector_range=(2, 6))
    treaty = _batch(rng, 12, with_taxes=True, require_kessler_risk=True, sector_range=(1, 4))
    mixed = [bundle for pair in zip(treaty, interior) for bundle in pair]
    for stacked, reference in PAIRS:
        for bundles in (interior, treaty, mixed, shifted(interior), shifted(treaty), shifted(mixed)):
            assert outcome(stacked, bundles) == outcome(reference, bundles)


def test_batch_checkers_match_on_eight_or_more_sectors():
    # From eight terms numpy's sums split into partial sums, so only the
    # left-to-right cumsum keeps reduce_two_player's rho_rest.
    rng = np.random.default_rng(11)
    bundles = _batch(rng, 3, with_taxes=True, sector_range=(8, 10))
    for stacked, reference in PAIRS:
        assert outcome(stacked, bundles) == outcome(reference, bundles)


@pytest.mark.parametrize("name", list(REFERENCES))
def test_the_lowest_failing_bundle_raises_across_shape_groups(name):
    # A 4-sector bundle at index 3 and a 2-sector one at index 7 both fail,
    # with different messages; the batch raises index 3's error.
    rng = np.random.default_rng(7)
    bundles = _batch(rng, 10, with_taxes=True, sector_range=(2, 3))
    four = _batch(rng, 1, with_taxes=True, sector_range=(4, 4))[0]
    two = _batch(rng, 1, with_taxes=True, sector_range=(2, 2))[0]
    bundles[3] = (four[0], four[1], 60.0)
    bundles[7] = (two[0], two[1], 90.0)
    checker, reference = getattr(verification, name), REFERENCES[name]
    first, second = outcome(checker, [bundles[3]]), outcome(checker, [bundles[7]])
    assert isinstance(first, tuple) and isinstance(second, tuple) and first != second
    assert outcome(checker, bundles) == first == outcome(reference, bundles)


def test_stacked_checkers_match_on_degenerate_bundles():
    # k = 0 breaks the abatement, rebound and cross-derivative signs; large
    # prices make welfare O(100); denying most access idles a sector (not
    # interior) and lets the quadratic stencil pass stock 0.
    bundles = [
        (replace(SYM2, collision_coeff=0.0), TaxSchedule.from_array([[0.2, 0.0], [0.5, 1.0]]), 0.0),
        (replace(SYM2, prices=(300.0, 200.0), collision_coeff=0.01),
         TaxSchedule.from_array([[0.3, 0.1], [0.2, 0.4]]), 1.0),
        (SYM2, TaxSchedule.from_array([[0.0, 1.0], [1.0, 1.0]]), 0.0),
    ]
    for stacked, reference in PAIRS:
        for end in (1, 2, 3):
            assert outcome(stacked, bundles[:end]) == outcome(reference, bundles[:end])
            assert outcome(stacked, bundles[end - 1::-1]) == outcome(reference, bundles[end - 1::-1])


def test_counterexamples_come_in_bundle_order_across_shape_groups():
    # k = 0 breaks the sign suite's signs in both shapes; the 3-sector bundle
    # sits between 2-sector ones, so shape-group order would put it last.
    two = (replace(SYM2, collision_coeff=0.0), TaxSchedule.from_array([[0.2, 0.0], [0.5, 1.0]]), 0.0)
    three = (
        replace(SYM2, n_markets=3, n_sectors=3, prices=(1.0, 2.0, 1.5), costs=(1.0, 0.8, 1.2),
                collision_coeff=0.0),
        TaxSchedule.from_array([[0.2, 0.0, 0.1], [0.5, 0.3, 0.0], [0.0, 0.1, 0.4]]),
        0.0,
    )
    bundles = [two, three, two]
    for stacked, reference in PAIRS:
        assert outcome(stacked, bundles) == outcome(reference, bundles)
    indices = [entry[0] for entry in check_sign_suite(bundles).counterexamples]
    assert indices == sorted(indices) and set(indices) == {0, 1, 2}


def test_the_first_failing_step_raises_in_equilibrium_agreement(monkeypatch):
    # The checker iterates every valid bundle; a per-bundle loop raises at
    # the first bundle whose solve or iteration oracle fails.
    def iterate(scenario, taxes, abatement):
        if scenario.n_sectors == 3:
            raise NoConvergenceError("the iteration oracle did not converge")
        return iterate_open_access(scenario, taxes, abatement)

    monkeypatch.setattr(verification, "iterate_open_access", iterate)
    monkeypatch.setitem(bundle_equilibrium_agreement.__globals__, "iterate_open_access", iterate)
    three = _batch(np.random.default_rng(3), 1, with_taxes=True, sector_range=(3, 3))[0]
    invalid = (SYM2, TaxSchedule.zeros(2, 2), 60.0)
    for bundles, error in (([three, invalid], "NoConvergenceError"), ([invalid, three], "PhysicallyInvalidError")):
        assert outcome(check_equilibrium_agreement, bundles)[0] == error
        assert outcome(check_equilibrium_agreement, bundles) == outcome(bundle_equilibrium_agreement, bundles)


# -- the public one-bundle calls against the scalar formulas they replaced ----
def scalar_welfare_channels(scenario, taxes, abatement, sector, market):
    report = sensitivities(scenario, taxes, abatement)
    equilibrium = solve_equilibrium(scenario, taxes, abatement)
    fleets = equilibrium.fleet_array
    rates = taxes.as_array
    gross = scenario.price_array * ((1.0 - rates).T @ fleets)
    survival = equilibrium.debris.survival
    p_j = scenario.prices[market]
    dfleet = report.dfleet_dtax[:, sector, market]
    ddebris = scenario.debris_per_sat * float(dfleet.sum())
    keep = 1.0 - rates[:, market]
    cleanup = -scenario.collision_coeff * ddebris * gross[market]
    others = np.arange(scenario.n_sectors) != sector
    expansion = survival * p_j * float((keep[others] * dfleet[others]).sum())
    reduction = survival * p_j * (fleets[sector] - keep[sector] * dfleet[sector])
    return [cleanup, expansion, reduction, cleanup + expansion - reduction]


def scalar_national_welfare(scenario, taxes, abatement):
    equilibrium = solve_equilibrium(scenario, taxes, abatement)
    gross = scenario.price_array * ((1.0 - taxes.as_array).T @ equilibrium.fleet_array)
    survival = equilibrium.debris.survival
    return [*(survival * gross), *gross, survival]


def scalar_sector_profit(scenario, taxes, fleets, abatement, sector):
    fleets = np.asarray(fleets, dtype=float)
    total = float(fleets.sum())
    survival = 1.0 - scenario.collision_coeff * (
        scenario.debris_per_sat * total + scenario.legacy_debris - abatement
    )
    revenue = ((1.0 - taxes.as_array) @ scenario.price_array)[sector]
    size = fleets[sector]
    return survival * revenue * size - scenario.costs[sector] * size**2


def scalar_rho_rest(scenario, taxes, abatement, sector):
    revenue = (1.0 - taxes.as_array) @ scenario.price_array
    rho = [w / m for w, m in zip(revenue.tolist(), scenario.costs)]
    phi = 1.0 + scenario.collision_coeff * (abatement - scenario.legacy_debris)
    return sum(x for j, x in enumerate(rho) if phi > 0.0 and x > 0.0 and j != sector)


@pytest.mark.parametrize("seed", [1, 2])
def test_public_one_bundle_calls_match_their_scalar_formulas(seed):
    # verify runs welfare_channels, sector_profit and reduce_two_player's
    # rho_rest by their stacked forms; these public calls, and
    # national_welfare's gross value, are one-row calls of the same kernels
    # and must keep the scalar formulas' bits.
    rng = np.random.default_rng(seed)
    bundles = _batch(rng, 30, with_taxes=True, sector_range=(1, 6))
    bundles += [(s, t, 0.4) for s, t, _ in _batch(rng, 10, with_taxes=True, sector_range=(2, 9))]
    for scenario, taxes, abatement in bundles:
        solved = solve_equilibrium(scenario, taxes, abatement)
        welfare = national_welfare(scenario, taxes, abatement)
        assert bits([*welfare.welfare, *welfare.gross_value, welfare.survival]) == bits(
            scalar_national_welfare(scenario, taxes, abatement)
        )
        for sector in range(scenario.n_sectors):
            assert bits(sector_profit(scenario, taxes, solved.fleets, abatement, sector)) == bits(
                scalar_sector_profit(scenario, taxes, solved.fleets, abatement, sector)
            )
            if scenario.n_sectors >= 2:
                pair = reduce_two_player(scenario, taxes, abatement, sector)
                rest = scalar_rho_rest(scenario, taxes, abatement, sector)
                kd = scenario.collision_coeff * scenario.debris_per_sat
                assert bits(pair.r[1]) == bits(rest / (kd * rest + 1.0))
            for market in range(scenario.n_markets):
                try:
                    channels = welfare_channels(scenario, taxes, abatement, sector, market)
                except OrbitUseError as error:
                    with pytest.raises(type(error)):
                        scalar_welfare_channels(scenario, taxes, abatement, sector, market)
                    continue
                expected = scalar_welfare_channels(scenario, taxes, abatement, sector, market)
                assert bits(
                    [channels.cleanup, channels.expansion, channels.reduction, channels.total]
                ) == bits(expected)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_masked_sign_suite_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    sampled = [
        _batch(rng, 12, with_taxes=True, sector_range=(2, 6)),
        _batch(rng, 12, with_taxes=True, sector_range=(1, 1)),
        _batch(rng, 12, with_taxes=True, require_kessler_risk=True, sector_range=(1, 4)),
    ]
    for bundles in sampled + [shifted(b) for b in sampled]:
        assert outcome(check_sign_suite, bundles) == outcome(loop_sign_suite, bundles)


def test_masked_sign_suite_matches_the_loop_on_failing_bundles():
    # k = 0 fails the abatement, rebound and cross tests; a sector taxed
    # past its whole revenue stays idle on both sides of its own stencils,
    # so its own and total fleets do not fall; n = 1 has no rebound to test.
    solo = Scenario(1, 1, (1.0,), (1.0,), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0)
    three = Scenario(3, 2, (1.0, 2.0, 0.5), (1.0, 1.5), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0)
    bundles = [
        (replace(SYM2, collision_coeff=0.0), TaxSchedule.from_array([[0.2, 0.0], [0.5, 1.0]]), 0.0),
        (SYM2, TaxSchedule.from_array([[1.5, 1.0], [0.0, 0.3]]), 0.0),
        (solo, TaxSchedule.zeros(1, 1), 0.0),
        (replace(solo, collision_coeff=0.0), TaxSchedule.zeros(1, 1), 0.0),
        (three, TaxSchedule.from_array([[0.0, 0.5, 1.0], [1.0, 1.0, 1.0]]), 0.0),
    ]
    report = check_sign_suite(bundles)
    assert not report.passed
    assert {entry[-1] for entry in report.counterexamples} >= {
        "own fleet does not fall",
        "rebound not positive",
        "total fleet does not fall",
        "cross derivative not negative",
    }
    assert outcome(check_sign_suite, bundles) == outcome(loop_sign_suite, bundles)
    for end in range(1, len(bundles)):
        assert outcome(check_sign_suite, bundles[:end]) == outcome(loop_sign_suite, bundles[:end])


def test_masked_sign_suite_counts_a_nan_rebound_as_failing(monkeypatch):
    # The kernel yields no NaN fleets, so the stencil's are poisoned.
    bundles = [(SYM2, TaxSchedule.from_array([[0.1, 0.2], [0.3, 0.0]]), 0.0)]
    stencil, one_bundle = verification._stencil, bundle_stencil

    def poisoned(*args):
        solved = stencil(*args)
        solved.fleets[2::6, 1] = np.nan     # sector 1 at every rate + h probe
        return solved

    def poisoned_bundle(scenario, rates, abatement):
        fleets, survival, stock = one_bundle(scenario, rates, abatement)
        fleets[2::6, 1] = np.nan
        return fleets, survival, stock

    monkeypatch.setattr(verification, "_stencil", poisoned)
    stacked = check_sign_suite(bundles)
    monkeypatch.setitem(loop_sign_suite.__globals__, "bundle_stencil", poisoned_bundle)
    assert repr(stacked) == repr(loop_sign_suite(bundles))
    assert (0, 0, 0, "rebound not positive") in stacked.counterexamples


def test_invalid_probe_reports_the_same_error_through_run_verification(monkeypatch):
    # SYM2 at abatement 4 sits exactly at stock 0 (survival 1): every
    # checker's base solve is valid, and its first probe that cleans the
    # orbit further (more abatement, or a higher tax) is not.
    bundles = [(SYM2, TaxSchedule.zeros(2, 2), 4.0)]
    monkeypatch.setattr(verification, "_batch", lambda rng, count, **kwargs: bundles)
    args = (SYM2, TaxSchedule.zeros(2, 2), 0.0, 1, 4)
    stacked = run_verification(*args)
    for name, reference in REFERENCES.items():
        monkeypatch.setattr(verification, name, reference)
    per_bundle = run_verification(*args)
    assert repr(stacked) == repr(per_bundle)
    for report in stacked:
        if report.target in (
            "comparative_statics_signs",
            "welfare_channel_identity",
            "welfare_quadratic_in_abatement",
        ):
            assert not report.passed
            assert report.counterexamples[0][0] == "PhysicallyInvalidError"


# -- verify verdicts of benchmark pool ops -----------------------------------
# Seeds 4, 8, 11, 21 and 22 pin known FAIL verdicts; sym2-0 and hideb-1 pass.
VERDICT_OPS = [
    f"verify/{name}-{seed}" for name in ("sym2", "hideb") for seed in (4, 8, 11, 21, 22)
] + ["verify/sym2-0", "verify/hideb-1"]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.fixture(scope="module")
def verify_pool():
    inputs, outputs = benchmark_modules("inputs", "outputs")
    with gzip.open(BENCHMARKS / "reference.json.gz", "rt") as handle:
        recorded = json.load(handle)["workloads"]["verify"]["ops"]
    pool = {op["id"]: op for op in inputs.verify_pool()}
    return pool, recorded, inputs, outputs


@pytest.mark.parametrize("op_id", VERDICT_OPS)
def test_verify_verdicts_match_the_benchmark_reference(op_id, verify_pool, tmp_path, capsys):
    pool, recorded, inputs, outputs = verify_pool
    op = pool[op_id]
    assert inputs.digest(op) == recorded[op_id]["digest"]
    argv = list(op["argv"])
    for relative, bundle in op["files"].items():
        path = tmp_path / Path(relative).name
        path.write_text(json.dumps(bundle))
        argv[argv.index(relative)] = str(path)
    code = main(argv)
    captured = capsys.readouterr()
    # summarize reads the checker lines, which do not name the file.
    got = outputs.summarize(op["argv"], code, captured.out, captured.err)
    assert outputs.mismatch(recorded[op_id]["output"], got, op_id) is None
    # The digest follows the nine checker lines as strict JSON: where a
    # checker raised, its max_residual prints as nan and dumps as null.
    lines = captured.out.splitlines(keepends=True)
    digest = json.loads("".join(lines[9:]), parse_constant=_reject_constant)
    nulls = [report["max_residual"] is None for report in digest["reports"]]
    assert nulls == ["max_residual=nan " in line for line in lines[:9]]
