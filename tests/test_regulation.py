import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbituse import (
    HIDEB,
    BudgetExceededError,
    SOLO,
    SYM2,
    OrbitUseError,
    PhysicallyInvalidError,
    Scenario,
    TaxSchedule,
    best_response_taxes,
    check_assumption_three,
    national_welfare,
    regulatory_equilibrium,
    welfare_channels,
)
import orbituse.regulation as regulation
from orbituse.open_access import _phi, _stacked_fleets, solve_equilibrium
from orbituse.oracle import grid_maximize
from orbituse.regulation import (
    BEST_RESPONSE_VALUE_TIE,
    CROSSING_MARGIN,
    _box_edges,
    _responder,
)
from orbituse.reporting import bundle_from_data
from orbituse.sampling import sample_scenario
from orbituse.verification import certify_regulatory_equilibrium

from conftest import benchmark_modules

ZERO2 = TaxSchedule.zeros(2, 2)
ZERO1 = TaxSchedule.zeros(1, 1)


def fd_welfare(scenario, taxes, abatement, sector, market, h=1e-6):
    hi = national_welfare(
        scenario, taxes.with_rate(sector, market, taxes.rate(sector, market) + h), abatement
    ).welfare[market]
    lo = national_welfare(
        scenario, taxes.with_rate(sector, market, taxes.rate(sector, market) - h), abatement
    ).welfare[market]
    return (hi - lo) / (2.0 * h)


@st.composite
def wide_cases(draw):
    """1-3 sectors, prices and costs in e^+-3, rates in {0, 1, U[0, 1]}.

    Half the draws abate above legacy debris, so that
    ``phi = 1 + u kd sum rho`` with rho at zero taxes and u in [0, 1.2]: the
    stock >= 0 bound (``share >= phi``) then cuts off part of the box, or
    all of it when u > 1.
    """
    n_s = draw(st.integers(1, 3))
    n_m = draw(st.integers(n_s, 3))
    log = st.floats(-3.0, 3.0)
    prices = tuple(math.exp(draw(log)) for _ in range(n_m))
    costs = tuple(math.exp(draw(log)) for _ in range(n_s))
    k = math.exp(draw(st.floats(-4.0, 0.0)))
    d = math.exp(draw(st.floats(-1.0, 1.0)))
    legacy = draw(st.floats(0.0, 0.9)) / k
    rate = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    rows = tuple(tuple(draw(rate) for _ in range(n_m)) for _ in range(n_s))
    abatement = 0.0
    if draw(st.booleans()):
        zero_tax_rho = sum(sum(prices) / m for m in costs)
        abatement = legacy + draw(st.floats(0.0, 1.2)) * d * zero_tax_rho
    scenario = Scenario(
        n_markets=n_m,
        n_sectors=n_s,
        prices=prices,
        costs=costs,
        collision_coeff=k,
        debris_per_sat=d,
        legacy_debris=legacy,
        catastrophe_threshold=2.0,
        catastrophe_damages=1.0,
        abatement_cost=1.0,
    )
    return scenario, TaxSchedule(rows), abatement, draw(st.integers(0, n_m - 1))


def column_welfare(scenario, taxes, abatement, market, column):
    """Market welfare with its tax column replaced; -inf where the stock is invalid."""
    try:
        return national_welfare(
            scenario, taxes.with_column(market, column), abatement
        ).welfare[market]
    except PhysicallyInvalidError:
        return -np.inf


def multistart_lbfgsb(scenario, taxes, abatement, market):
    """Best value found by the former search: a 3^n probe lattice plus
    L-BFGS-B with the analytic gradient from the box corners, the center,
    the incoming column and the best probe. Infeasible points score -1e12."""
    from scipy.optimize import minimize

    n = scenario.n_sectors

    def negative(column):
        try:
            schedule = taxes.with_column(market, column)
            w = national_welfare(scenario, schedule, abatement).welfare[market]
            g = [welfare_channels(scenario, schedule, abatement, i, market).total for i in range(n)]
        except OrbitUseError:
            return 1e12, np.zeros(n)
        return -w, -np.array(g)

    incoming = taxes.as_array[:, market].copy()
    lattice = [np.array(p) for p in np.ndindex(*(3,) * n)]
    probes = [(column_welfare(scenario, taxes, abatement, market, p / 2.0), p / 2.0) for p in lattice]
    best_probe = max(probes, key=lambda item: item[0])[1]
    values = [v for v, _ in probes]
    values.append(column_welfare(scenario, taxes, abatement, market, incoming))
    for start in (np.zeros(n), np.ones(n), np.full(n, 0.5), incoming, best_probe):
        result = minimize(
            negative,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * n,
            options={"maxiter": 300, "ftol": 1e-14, "gtol": 1e-10},
        )
        values.append(
            column_welfare(scenario, taxes, abatement, market, np.clip(result.x, 0.0, 1.0))
        )
    return max(values)


def exact_or_none(scenario, taxes, abatement, market):
    """Welfare at the best response, or None when it reports an infeasible box.

    Also checks the shape of the answer: every rate is 0 or 1 (leave the
    sector alone or deny it access) except for one where the stock bound
    binds.
    """
    try:
        column = best_response_taxes(scenario, taxes, abatement, market)
    except PhysicallyInvalidError:
        return None
    assert column.shape == (scenario.n_sectors,)
    assert np.all((0.0 <= column) & (column <= 1.0))
    report = national_welfare(scenario, taxes.with_column(market, column), abatement)
    fractional = int(np.count_nonzero((0.0 < column) & (column < 1.0)))
    assert fractional == 0 or (fractional == 1 and report.survival > 1.0 - 1e-12), column
    return report.welfare[market]


def reference_best_response_taxes(scenario, taxes, abatement, market):
    """One market's best response in a pass of its own that stacks only the
    crossings inside (0, 1): the per-market form the stacked kernel equals."""
    n, n_markets = scenario.n_sectors, scenario.n_markets
    size = (n + 2) * 2 ** (n - 1) * n * n_markets
    if size > regulation.CANDIDATE_BUDGET:
        raise BudgetExceededError(
            f"{n}-sector best responses could stack {size} tax rates, "
            f"over the {regulation.CANDIDATE_BUDGET} budget"
        )
    phi, kd = _phi(scenario, abatement)
    p_j = scenario.prices[market]
    costs = scenario.cost_array
    other = 1.0 - taxes.as_array
    other[:, market] = 0.0
    a = other @ scenario.price_array

    vertices, starts, free = _box_edges(n)
    e0 = 1.0 + kd * ((a + p_j * starts) / costs).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (phi * (1.0 + CROSSING_MARGIN) - e0) / (kd * p_j / costs[free])
    inside = (t > 0.0) & (t < 1.0)
    points = starts[inside]
    points[np.arange(points.shape[0]), free[inside]] = t[inside]
    columns = 1.0 - np.concatenate([vertices, points])

    rates = np.repeat(taxes.as_array[None], columns.shape[0], axis=0)
    rates[:, :, market] = columns
    fleets, survival = _stacked_fleets(scenario, rates, phi, kd)
    survival = survival[:, 0]
    value = survival * (p_j * ((1.0 - columns) * fleets).sum(axis=1))
    value = np.where((0.0 <= survival) & (survival <= 1.0), value, -np.inf)

    best = value.max()
    if best == -np.inf:
        solve_equilibrium(scenario, taxes, abatement)
    tied = columns[value >= best - BEST_RESPONSE_VALUE_TIE]
    return tied[np.lexsort(tied.T[::-1])[0]]


def reference_regulatory_equilibrium(
    scenario, abatement, start, damping=0.5, tolerance=1e-8, max_iterations=10_000
):
    """The damped loop on schedules, one reference best response per market."""
    solve_equilibrium(scenario, start, abatement)
    taxes = start
    trace = []
    converged = False
    max_update = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        old = taxes.as_array
        responses = old.copy()
        for market in range(scenario.n_markets):
            responses[:, market] = reference_best_response_taxes(
                scenario, taxes, abatement, market
            )
        blended = (1.0 - damping) * old + damping * responses
        max_update = float(np.max(np.abs(blended - old)))
        trace.append(max_update)
        taxes = TaxSchedule.from_array(blended)
        if max_update < tolerance:
            converged = True
            break
    return regulation.RegulatoryEquilibrium(
        taxes=taxes,
        equilibrium=solve_equilibrium(scenario, taxes, abatement),
        iterations=iterations,
        converged=converged,
        max_update=max_update,
        update_trace=tuple(trace),
    )


def outcome(function, *args, **kwargs):
    """An array as its shape and raw bytes, a record as its repr (every
    float round-trips), or the error's type and message."""
    try:
        result = function(*args, **kwargs)
    except OrbitUseError as error:
        return type(error), str(error)
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    return repr(result)


def rule_rows(scenario, stack, abatement, markets):
    """One pass of the stacked rule over ``stack``, row by row as ``outcome``
    gives a one-schedule call: the columns, or the error of the solve the
    rule calls for where a market has no feasible column."""
    columns, empty = _responder(scenario, abatement, markets)(stack)

    def row(k):
        if empty[k]:
            solve_equilibrium(scenario, TaxSchedule.from_array(stack[k]), abatement)
        return columns[k]

    return [outcome(row, k) for k in range(stack.shape[0])]


def reference_responses(scenario, rates, abatement, markets):
    taxes = TaxSchedule.from_array(rates)
    return np.column_stack(
        [reference_best_response_taxes(scenario, taxes, abatement, j) for j in markets]
    )


@st.composite
def response_cases(draw):
    """1-4 sectors, n or n + 1 markets, rates in {0, 1, U[0, 1]}.

    An eighth of the draws have k = 0, an eighth put phi = 1 + k(Q - D0) at
    or below 0 at Q = 0, an eighth have Q = 0, an eighth put Q at D0 or
    just either side of it, and half abate until the stock bound
    cuts off the best column of some market, most of them keeping every
    market's untaxed column (see ``binding_abatement``): only there can a
    crossing win, and only a crossing reads the revenue ``a``.

    Near D0 the crossing bound phi (1 + CROSSING_MARGIN) passes 1, which
    decides whether a pass stacks the crossings. Half of those draws tax
    every market but one fully, so that one market's all-taxed column has
    share exactly 1 and a crossing lies just inside its edges once the
    bound passes 1; a third raise one rate a little above 1 on the
    unvalidated schedule, so that shares below 1 (and crossings below the
    bound) exist at phi < 1 too.
    """
    n_s = draw(st.integers(1, 4))
    n_m = n_s + draw(st.integers(0, 1))
    log = st.floats(-3.0, 3.0)
    prices = tuple(math.exp(draw(log)) for _ in range(n_m))
    costs = tuple(math.exp(draw(log)) for _ in range(n_s))
    k = math.exp(draw(st.floats(-4.0, 0.0)))
    d = math.exp(draw(st.floats(-1.0, 1.0)))
    rate = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    rates = np.array([[draw(rate) for _ in range(n_m)] for _ in range(n_s)])
    kind = draw(st.sampled_from(("k = 0", "phi <= 0", "Q = 0", "Q near D0") + ("Q binds",) * 4))
    legacy = draw(st.floats(0.0, 0.9)) / k
    if kind == "k = 0":
        k = 0.0
    elif kind == "phi <= 0":
        legacy = draw(st.one_of(st.just(1.0), st.floats(1.0, 1.5))) / k
    elif kind == "Q near D0":
        if draw(st.booleans()):
            rates[:, np.arange(n_m) != draw(st.integers(0, n_m - 1))] = 1.0
        if draw(st.integers(0, 2)) == 0:
            above = draw(st.sampled_from((np.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.0 + 1e-3)))
            rates[draw(st.integers(0, n_s - 1)), draw(st.integers(0, n_m - 1))] = above
    scenario = Scenario(
        n_markets=n_m,
        n_sectors=n_s,
        prices=prices,
        costs=costs,
        collision_coeff=k,
        debris_per_sat=d,
        legacy_debris=legacy,
        catastrophe_threshold=2.0,
        catastrophe_damages=1.0,
        abatement_cost=1.0,
    )
    abatement = 0.0
    if kind == "Q binds":
        abatement = binding_abatement(scenario, rates, draw(st.floats(0.0, 1.05)))
    elif kind == "Q near D0":
        # k (Q - D0) is 0 or twice CROSSING_MARGIN either way, so that the
        # crossing bound lands clear of 1 on each side.
        step = draw(st.sampled_from((-2.0, 0.0, 2.0))) * CROSSING_MARGIN
        abatement = legacy + step / k
    return scenario, rates, abatement


def near_d0(steps, above=None):
    """A ``response_cases`` case on SYM2 with D0 = 2, market 1 fully taxed
    (or one of its rates at ``above``), and k (Q - D0) ``steps`` times
    CROSSING_MARGIN."""
    scenario = replace(SYM2, legacy_debris=2.0)
    rates = np.array([[0.0, 1.0], [0.5, 1.0]])
    if above is not None:
        rates[0, 1] = above
    step = steps * CROSSING_MARGIN / scenario.collision_coeff
    return scenario, rates, scenario.legacy_debris + step


def binding_abatement(scenario, rates, u):
    """Abatement putting phi = 1 + k(Q - D0) a share u of the way from the
    least share of a market's best column to the least share of a market's
    untaxed column.

    Fleets scale with phi and survival is phi/share, so without the stock
    bound the best columns do not depend on Q, and at Q = D0 a column's
    share is 1/survival. Once phi passes a column's share the bound cuts it
    off; past every untaxed column's share some market has no valid column.
    """
    taxes = TaxSchedule.from_array(rates)
    legacy = scenario.legacy_debris

    def share(market, column):
        schedule = taxes.with_column(market, column)
        return 1.0 / solve_equilibrium(scenario, schedule, legacy).debris.survival

    markets = range(scenario.n_markets)
    best = min(
        share(j, reference_best_response_taxes(scenario, taxes, legacy, j)) for j in markets
    )
    untaxed = min(share(j, np.zeros(scenario.n_sectors)) for j in markets)
    phi = best + u * (untaxed - best)
    return legacy + (phi - 1.0) / scenario.collision_coeff


def loop_case(prices, costs, k, d, legacy, abatement, start, max_iterations=300):
    """Arguments of one ``regulatory_equilibrium`` call on a Scenario with
    these prices, costs, k, d and D0."""
    scenario = Scenario(
        n_markets=len(prices),
        n_sectors=len(costs),
        prices=prices,
        costs=costs,
        collision_coeff=k,
        debris_per_sat=d,
        legacy_debris=legacy,
        catastrophe_threshold=2.0,
        catastrophe_damages=1.0,
        abatement_cost=1.0,
    )
    return scenario, abatement, TaxSchedule.from_array(start), max_iterations


@st.composite
def loop_cases(draw):
    """1-3 sectors, n or n + 1 markets, starts in {0, 1, U[0, 1]}, and a
    ``max_iterations`` that stops the loop inside a run (0-6) or not (300).

    Half the draws have Q = 0, so phi < 1 and every best response is a
    vertex; half abate until phi = 1 + u kd sum rho at zero taxes, u in
    [0, 1.2], where crossings enter and some boxes have no valid column.
    """
    n_s = draw(st.integers(1, 3))
    n_m = n_s + draw(st.integers(0, 1))
    log = st.floats(-3.0, 3.0)
    prices = tuple(math.exp(draw(log)) for _ in range(n_m))
    costs = tuple(math.exp(draw(log)) for _ in range(n_s))
    k = math.exp(draw(st.floats(-4.0, 0.0)))
    d = math.exp(draw(st.floats(-1.0, 1.0)))
    legacy = draw(st.floats(0.0, 0.9)) / k
    rate = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    start = [[draw(rate) for _ in range(n_m)] for _ in range(n_s)]
    abatement = 0.0
    if draw(st.booleans()):
        zero_tax_rho = sum(sum(prices) / m for m in costs)
        abatement = legacy + draw(st.floats(0.0, 1.2)) * d * zero_tax_rho
    max_iterations = 300 if draw(st.booleans()) else draw(st.integers(0, 6))
    return loop_case(prices, costs, k, d, legacy, abatement, start, max_iterations)


# Blends of valid schedules can leave the stock negative: some market then
# has no valid column. In the first two a run blends past such iterates
# after its first iterate's response changed, so the loop never reaches
# them; in the third it does, and raises.
UNREACHED_EMPTY_BOXES = (
    loop_case(
        (1.3516062461306662, 0.0632245308926948, 3.0666944136947225, 9.625335744224417),
        (0.8238439003426397, 0.28373460436916953, 0.19136312463540545),
        0.4888555081475184, 1.5282391793779382, 0.9941693320341388, 130.36258650616514,
        [[0.0, 0.0, 0.0, 0.7115917185623403],
         [0.44755934450183743, 0.0, 0.3721146559877764, 0.760572209864896],
         [0.0, 0.17284373149860643, 0.0, 0.008429418348838813]],
    ),
    loop_case(
        (0.18077461641055623, 17.33595005183375, 17.534942467569994),
        (3.267299410503647, 0.42403993503127746, 0.3821930714166187),
        0.06462064430847587, 1.691077078184602, 3.5305354041737034, 183.08721997552348,
        [[0.9451932047609326, 0.0, 0.024488265591669278],
         [0.0, 0.0, 0.0],
         [0.48038053713449114, 0.8883537794429889, 0.0]],
    ),
)
REACHED_EMPTY_BOX = loop_case(
    (11.978226117426962, 0.08620197272366391, 1.7429173237844762, 0.24506655796585508),
    (0.21190263472204704, 0.06936729478505498, 0.19772573773741395),
    0.07566854820676318, 0.9224868558933826, 8.219193075621936, 199.18107727470277,
    [[0.0, 0.77181143958896, 0.8180809135494663, 0.0],
     [0.19187878110042134, 0.0, 0.08921235521807602, 0.037335612555407516],
     [0.8855493292136839, 0.0, 0.9804977156685545, 0.8855842550080495]],
)


def counted_passes(monkeypatch):
    """Record each best-response pass's columns and empty-box flags."""
    passes = []
    build = regulation._responder

    def responder(scenario, abatement, markets):
        respond = build(scenario, abatement, markets)

        def recorded(rates):
            columns, empty = respond(rates)
            passes.append((columns, empty))
            return columns, empty

        return recorded

    monkeypatch.setattr(regulation, "_responder", responder)
    return passes


@pytest.fixture(scope="module")
def regulate_pool():
    (inputs,) = benchmark_modules("inputs")
    return [bundle_from_data(bundle) for op in inputs.regulate_pool() for bundle in op["files"].values()]


class TestNationalWelfare:
    def test_sym2_reference(self):
        report = national_welfare(SYM2, ZERO2, 0.0)
        np.testing.assert_allclose(report.welfare, [100.0 / 49.0] * 2, atol=1e-12)
        assert report.survival == pytest.approx(5.0 / 7.0, abs=1e-12)

    def test_solo_reference(self):
        report = national_welfare(SOLO, ZERO1, 0.0)
        assert report.welfare == (1.0,)

    def test_denied_market_receives_nothing(self):
        taxes = ZERO2.with_rate(0, 1, 1.0).with_rate(1, 1, 1.0)
        report = national_welfare(SYM2, taxes, 0.0)
        assert report.welfare[1] == 0.0

    def test_welfare_is_survival_times_gross(self):
        report = national_welfare(HIDEB, ZERO2, 0.0)
        for w, v in zip(report.welfare, report.gross_value):
            assert w == pytest.approx(report.survival * v, abs=1e-15)


class TestWelfareChannels:
    def test_identity_against_fd(self):
        channels = welfare_channels(SYM2, ZERO2, 0.0, 0, 1)
        fd = fd_welfare(SYM2, ZERO2, 0.0, 0, 1)
        assert channels.total == pytest.approx(fd, abs=1e-9)
        assert channels.total == pytest.approx(
            channels.cleanup + channels.expansion - channels.reduction, abs=1e-15
        )

    def test_legacy_debris_raises_the_total(self):
        base = welfare_channels(SYM2, ZERO2, 0.0, 0, 1)
        high = welfare_channels(HIDEB, ZERO2, 0.0, 0, 1)
        assert high.total > base.total

    def test_zero_collision_kills_cleanup(self):
        channels = welfare_channels(SOLO, ZERO1, 0.0, 0, 0)
        assert channels.cleanup == 0.0

    def test_identity_on_random_interior_scenarios(self, rng):
        for _ in range(10):
            scenario, taxes = sample_scenario(rng, with_taxes=True, sector_range=(2, 4))
            sector = int(rng.integers(0, scenario.n_sectors))
            market = int(rng.integers(0, scenario.n_markets))
            channels = welfare_channels(scenario, taxes, 0.0, sector, market)
            fd = fd_welfare(scenario, taxes, 0.0, sector, market)
            assert channels.total == pytest.approx(fd, abs=5e-7)


class TestBestResponse:
    def test_solo_prefers_no_tax(self):
        column = best_response_taxes(SOLO, ZERO1, 0.0, 0)
        np.testing.assert_allclose(column, [0.0], atol=1e-12)

    def test_best_response_never_worse_than_incoming(self, rng):
        for _ in range(5):
            start = TaxSchedule.from_array(rng.uniform(0.0, 0.6, size=(2, 2)))
            for market in range(2):
                incoming = national_welfare(SYM2, start, 0.0).welfare[market]
                column = best_response_taxes(SYM2, start, 0.0, market)
                achieved = national_welfare(
                    SYM2, start.with_column(market, column), 0.0
                ).welfare[market]
                assert achieved >= incoming - 1e-12

    @given(wide_cases())
    @settings(max_examples=20, deadline=None)
    def test_never_beaten_by_the_grid_oracle(self, case):
        scenario, taxes, abatement, market = case
        _, grid_best = grid_maximize(
            lambda column: column_welfare(scenario, taxes, abatement, market, column),
            dims=scenario.n_sectors,
            step=0.05,
        )
        achieved = exact_or_none(scenario, taxes, abatement, market)
        if achieved is None:
            assert grid_best == -np.inf, "a feasible grid point exists"
        else:
            assert achieved >= grid_best - 1e-12 * max(1.0, abs(grid_best))

    @given(wide_cases())
    @settings(max_examples=60, deadline=None)
    def test_never_beaten_by_multistart_lbfgsb(self, case):
        scenario, taxes, abatement, market = case
        reference = multistart_lbfgsb(scenario, taxes, abatement, market)
        achieved = exact_or_none(scenario, taxes, abatement, market)
        if achieved is None:
            assert reference == -np.inf, "the local search found a feasible column"
        else:
            assert achieved >= reference - 1e-10 * max(1.0, abs(reference))

    def test_stock_bound_binding_on_part_of_the_box(self):
        # At abatement 3 the zero-tax column keeps the stock valid and the
        # full-tax column does not.
        assert column_welfare(SYM2, ZERO2, 3.0, 0, np.zeros(2)) > -np.inf
        assert column_welfare(SYM2, ZERO2, 3.0, 0, np.ones(2)) == -np.inf
        column = best_response_taxes(SYM2, ZERO2, 3.0, 0)
        achieved = column_welfare(SYM2, ZERO2, 3.0, 0, column)
        assert achieved > -np.inf
        _, grid_best = grid_maximize(
            lambda point: column_welfare(SYM2, ZERO2, 3.0, 0, point), dims=2, step=0.02
        )
        assert achieved >= grid_best

    def test_binding_stock_bound_survives_rounding(self):
        # The best column sits where the stock reaches zero. Evaluated at the
        # exact crossing, rounding puts this one just past the bound.
        scenario = Scenario(
            n_markets=2,
            n_sectors=2,
            prices=(9.115361490336156, 0.15628935732875432),
            costs=(0.12312088573573735, 0.9291766713084724),
            collision_coeff=0.2569765433454722,
            debris_per_sat=0.9102412004712082,
            legacy_debris=2.183542289813015,
            catastrophe_threshold=2.0,
            catastrophe_damages=1.0,
            abatement_cost=1.0,
        )
        taxes = TaxSchedule(((0.0, 0.0), (1.0, 1.0)))
        abatement = 13.354070835778112
        column = best_response_taxes(scenario, taxes, abatement, 0)
        report = national_welfare(scenario, taxes.with_column(0, column), abatement)
        assert 1.0 - 1e-12 < report.survival <= 1.0
        _, grid_best = grid_maximize(
            lambda point: column_welfare(scenario, taxes, abatement, 0, point), dims=2, step=0.02
        )
        assert report.welfare[0] >= grid_best

    def test_infeasible_box_raises_the_incoming_error(self):
        with pytest.raises(PhysicallyInvalidError) as expected:
            national_welfare(SYM2, ZERO2, 5.0)
        with pytest.raises(PhysicallyInvalidError) as raised:
            best_response_taxes(SYM2, ZERO2, 5.0, 0)
        assert str(raised.value) == str(expected.value)

    def test_phi_zero_returns_the_zero_tax_column(self):
        # k*D0 = 1: phi = 0, every fleet is zero and every column is worth 0.
        edge = replace(SYM2, legacy_debris=10.0)
        start = TaxSchedule.from_array([[0.3, 0.7], [1.0, 0.2]])
        for market in range(2):
            column = best_response_taxes(edge, start, 0.0, market)
            assert column.tolist() == [0.0, 0.0]
        # Below that the survival is negative on the whole box.
        with pytest.raises(PhysicallyInvalidError):
            best_response_taxes(replace(SYM2, legacy_debris=12.0), start, 0.0, 0)

    def test_hideb_matches_grid_oracle(self):
        # Joint grid at 0.02 plus 1e-3 refinements along each coordinate
        # through the optimizer's answer: certifies the optimum within the
        # probed radius.
        column = best_response_taxes(HIDEB, ZERO2, 0.0, 0)
        achieved = national_welfare(
            HIDEB, ZERO2.with_column(0, column), 0.0
        ).welfare[0]

        def value(point):
            return national_welfare(HIDEB, ZERO2.with_column(0, point), 0.0).welfare[0]

        _, coarse_best = grid_maximize(value, dims=2, step=0.02)
        assert achieved >= coarse_best - 1e-8
        for coord in range(2):
            axis = np.arange(0.0, 1.0 + 5e-4, 1e-3)
            for tick in axis:
                probe = column.copy()
                probe[coord] = tick
                assert value(probe) <= achieved + 1e-8


class TestCandidateBudget:
    @staticmethod
    def symmetric(n):
        return replace(SYM2, n_markets=n, n_sectors=n, prices=(1.0,) * n, costs=(1.0,) * n)

    def test_twenty_sectors_raise_before_building_anything(self):
        scenario = self.symmetric(20)
        taxes = TaxSchedule.zeros(20, 20)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(BudgetExceededError, match="20-sector"):
                best_response_taxes(scenario, taxes, 0.0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20

    def test_twelve_sectors_still_run(self):
        scenario = self.symmetric(12)
        column = best_response_taxes(scenario, TaxSchedule.zeros(12, 12), 0.0, 0)
        assert column.shape == (12,)
        with pytest.raises(BudgetExceededError):
            best_response_taxes(self.symmetric(13), TaxSchedule.zeros(13, 13), 0.0, 0)


class TestStackedBestResponses:
    @given(response_cases())
    @example(near_d0(-2.0))
    @example(near_d0(0.0))
    @example(near_d0(2.0))
    @example(near_d0(-2.0, above=np.nextafter(1.0, 2.0)))
    @example((replace(SYM2, collision_coeff=0.0), np.array([[0.0, 1.0], [0.5, 1.0]]), 0.0))
    @example((replace(SYM2, legacy_debris=10.0), np.array([[0.0, 1.0], [0.5, 1.0]]), 0.0))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_per_market_reference_bitwise(self, case):
        scenario, rates, abatement = case
        markets = range(scenario.n_markets)
        reference = outcome(reference_responses, scenario, rates, abatement, markets)
        rows = []

        def recorded(scenario, stack, phi, kd):
            rows.append(stack.shape[0] // len(markets))
            return _stacked_fleets(scenario, stack, phi, kd)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regulation, "_stacked_fleets", recorded)
            assert rule_rows(scenario, rates[None], abatement, markets) == [reference]
        # A pass stacks only the 2^n vertices when no crossing can lie in
        # (0, 1): the crossing bound is below 1 and no rate is above 1.
        phi, _ = _phi(scenario, abatement)
        n = scenario.n_sectors
        vertex_only = phi * (1.0 + CROSSING_MARGIN) < 1.0 and (rates <= 1.0).all()
        assert rows == [2**n if vertex_only else (n + 2) * 2 ** (n - 1)]
        market = scenario.n_markets - 1
        single = outcome(
            reference_best_response_taxes,
            scenario, TaxSchedule.from_array(rates), abatement, market,
        )
        assert outcome(
            best_response_taxes, scenario, TaxSchedule.from_array(rates), abatement, market
        ) == single
        # Stacked with other schedules, each row keeps its own result, also
        # where one row's rate above 1 puts the whole pass on the crossings.
        stack = np.stack([0.5 * rates, rates, 0.5 * rates + 0.5])
        assert rule_rows(scenario, stack, abatement, markets) == [
            outcome(reference_responses, scenario, row, abatement, markets) for row in stack
        ]

    @pytest.mark.parametrize("n, k, draws", [(8, 0.3, 30), (12, 0.1, 1)])
    def test_matches_the_reference_from_eight_sectors(self, n, k, draws):
        # numpy sums eight or more entries in interleaved partial sums, and
        # a crossing reads such sums where it wins.
        scenario = replace(TestCandidateBudget.symmetric(n), collision_coeff=k)
        rng = np.random.default_rng(n)
        markets = range(n)
        crossings = 0
        for _ in range(draws):
            rates = np.where(rng.random((n, n)) < 0.3, 1.0, rng.uniform(0.0, 1.0, (n, n)))
            binding = binding_abatement(scenario, rates, 0.05)
            for abatement in (0.0, binding):
                reference = outcome(reference_responses, scenario, rates, abatement, markets)
                assert rule_rows(scenario, rates[None], abatement, markets) == [reference]
            if reference[0] is not PhysicallyInvalidError:
                columns = _responder(scenario, binding, markets)(rates[None])[0][0]
                crossings += bool(np.any((0.0 < columns) & (columns < 1.0)))
        assert crossings >= min(draws, 5)

    def test_a_vertex_pass_breaks_a_partial_tie_toward_the_least_column(self):
        # Market 1 closes to both sectors, whose costs differ by 1e-12:
        # taxing out either one is worth the same to market 0 within the
        # tie, and more than taxing neither or both.
        scenario = replace(SYM2, collision_coeff=0.8, legacy_debris=0.5, costs=(1.0, 1.0 - 1e-12))
        taxes = TaxSchedule.from_array([[0.0, 1.0], [0.0, 1.0]])
        phi, _ = _phi(scenario, 0.0)
        assert phi * (1.0 + CROSSING_MARGIN) < 1.0     # the pass stacks the vertices alone
        columns = [tuple(1.0 - x) for x in _box_edges(2)[0]]
        values = {c: column_welfare(scenario, taxes, 0.0, 0, np.array(c)) for c in columns}
        best = max(values.values())
        tied = sorted(c for c in columns if values[c] >= best - BEST_RESPONSE_VALUE_TIE)
        assert tied == [(0.0, 1.0), (1.0, 0.0)]
        # The larger column is worth a little more: the tie rule picks.
        assert values[(1.0, 0.0)] > values[(0.0, 1.0)]
        assert tuple(best_response_taxes(scenario, taxes, 0.0, 0)) == (0.0, 1.0)
        stack = np.stack([taxes.as_array, 0.5 * taxes.as_array])
        assert rule_rows(scenario, stack, 0.0, range(2)) == [
            outcome(reference_responses, scenario, row, 0.0, range(2)) for row in stack
        ]

    def test_one_market_per_pass_under_a_small_budget(self, monkeypatch):
        scenario, taxes = sample_scenario(np.random.default_rng(3), n_sectors=3, with_taxes=True)
        n, m = scenario.n_sectors, scenario.n_markets
        rates = taxes.as_array
        abatements = (0.0, binding_abatement(scenario, rates, 0.05))
        expected = [rule_rows(scenario, rates[None], q, range(m)) for q in abatements]
        loop = outcome(regulatory_equilibrium, scenario, 0.0, taxes)
        stacked = []

        def recorded(scenario, rates, phi, kd):
            stacked.append(rates.size)
            return _stacked_fleets(scenario, rates, phi, kd)

        budget = (n + 2) * 2 ** (n - 1) * n * m
        monkeypatch.setattr(regulation, "CANDIDATE_BUDGET", budget)
        monkeypatch.setattr(regulation, "_stacked_fleets", recorded)
        assert [rule_rows(scenario, rates[None], q, range(m)) for q in abatements] == expected
        # At Q = 0 phi < 1 and each pass stacks only the vertices.
        assert stacked == [2**n * n * m] * m + [budget] * m
        before = len(stacked)
        assert outcome(regulatory_equilibrium, scenario, 0.0, taxes) == loop
        # The budget holds one market of one iterate, so every pass of the
        # loop stacks one iterate's vertices for one market.
        assert set(stacked[before:]) == {2**n * n * m}
        assert max(stacked) == budget
        # The rule splits a stack of iterates into passes itself.
        del stacked[:]
        assert rule_rows(scenario, np.stack([rates] * 3), 0.0, range(m)) == expected[0] * 3
        assert stacked == [2**n * n * m] * (3 * m)


class TestRegulatoryEquilibrium:
    def test_invalid_start_raises_its_own_error(self):
        # From this start the iteration used to converge to zero taxes;
        # the start itself leaves the stock negative.
        start = TaxSchedule.from_array([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(PhysicallyInvalidError) as expected:
            national_welfare(SYM2, start, 3.5)
        with pytest.raises(PhysicallyInvalidError) as raised:
            regulatory_equilibrium(SYM2, 3.5, start)
        assert str(raised.value) == str(expected.value)

    def test_solo_converges_immediately(self):
        result = regulatory_equilibrium(SOLO, 0.0, ZERO1)
        assert result.converged
        assert result.iterations == 1
        assert result.taxes.rates == ((0.0,),)

    def test_hideb_converges_and_survives_deviation_probe(self):
        result = regulatory_equilibrium(HIDEB, 0.0, ZERO2)
        assert result.converged
        probe = certify_regulatory_equilibrium(HIDEB, result.taxes)
        assert probe.passed
        # Positive taxes are only promised when the welfare-improvement
        # condition holds for every pair, which it does not here.
        flags = [
            check_assumption_three(HIDEB, 0.0, i, j).holds
            for i in range(2)
            for j in range(2)
        ]
        if all(flags):
            assert all(rate > 0.0 for row in result.taxes.rates for rate in row)

    def test_high_collision_variant_converges(self):
        hot = replace(SYM2, collision_coeff=0.4)
        result = regulatory_equilibrium(hot, 0.0, ZERO2)
        assert result.converged
        probe = certify_regulatory_equilibrium(hot, result.taxes)
        assert probe.passed

    def test_nonzero_start_reaches_same_fixed_point(self):
        start = TaxSchedule.from_array([[0.3, 0.2], [0.1, 0.4]])
        result = regulatory_equilibrium(SYM2, 0.0, start)
        assert result.converged
        assert result.max_update < 1e-8

    @pytest.mark.parametrize(
        "scenario, start",
        [
            (SYM2, ZERO2),
            (SYM2, TaxSchedule.from_array([[0.3, 0.2], [0.1, 0.4]])),
            (HIDEB, ZERO2),
            (SOLO, ZERO1),
        ],
    )
    def test_matches_the_per_market_loop_bitwise(self, scenario, start):
        reference = outcome(reference_regulatory_equilibrium, scenario, 0.0, start)
        assert outcome(regulatory_equilibrium, scenario, 0.0, start) == reference

    def test_matches_the_per_market_loop_on_sampled_scenarios(self, rng):
        for _ in range(12):
            scenario, taxes = sample_scenario(rng, sector_range=(2, 3), with_taxes=True)
            abatement = float(rng.choice([0.0, 0.5]))
            reference = outcome(reference_regulatory_equilibrium, scenario, abatement, taxes)
            assert outcome(regulatory_equilibrium, scenario, abatement, taxes) == reference

    def test_the_one_third_cycle_is_kept(self, monkeypatch):
        # Best responses flip between denial and access each step, so the
        # damped schedule cycles between rates 1/3 and 2/3.
        scenario = replace(
            SYM2,
            prices=(1.7456358594859416, 1.9723762546357726),
            costs=(0.25168967781691304, 0.30662579956092023),
            collision_coeff=0.6111056137478023,
            debris_per_sat=1.2221910648329655,
        )
        args = (scenario, 2.8740931074830227, TaxSchedule(((1.0, 0.0), (1.0, 0.0))))
        reference = outcome(reference_regulatory_equilibrium, *args, max_iterations=200)
        passes = counted_passes(monkeypatch)
        result = regulatory_equilibrium(*args, max_iterations=200)
        assert not result.converged
        assert result.update_trace[-1] == 0.33333333333333337
        assert repr(result) == reference
        # A run that changes its response at its first iterate costs one
        # pass per step, no more.
        assert len(passes) <= result.iterations + 1

    @pytest.mark.parametrize("scenario", [SYM2, HIDEB], ids=["SYM2", "HIDEB"])
    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_a_held_response_is_checked_in_at_most_three_passes(self, scenario, rate, monkeypatch):
        # From zero taxes both stop after one step; from full taxes the
        # response is zero taxes throughout, 27 steps: one pass at the
        # start, one at the first step, and one for the run that blends to
        # convergence.
        start = TaxSchedule.from_array(np.full((2, 2), rate))
        reference = outcome(reference_regulatory_equilibrium, scenario, 0.0, start)
        passes = counted_passes(monkeypatch)
        result = regulatory_equilibrium(scenario, 0.0, start)
        assert repr(result) == reference
        assert result.converged
        assert len(passes) <= 3

    def test_pool_scenarios_match_the_per_market_loop(self, regulate_pool):
        # The benchmark's regulate inputs: every pool op runs this loop.
        for bundle in regulate_pool:
            args = (bundle.scenario, bundle.abatement, bundle.taxes)
            reference = outcome(reference_regulatory_equilibrium, *args)
            assert outcome(regulatory_equilibrium, *args) == reference

    def test_runs_match_the_per_market_loop(self):
        changed, unreached = [], []

        @given(loop_cases())
        @example(UNREACHED_EMPTY_BOXES[0])
        @example(UNREACHED_EMPTY_BOXES[1])
        @example(REACHED_EMPTY_BOX)
        @settings(max_examples=150, deadline=None)
        def check(case):
            scenario, abatement, start, max_iterations = case
            reference = outcome(
                reference_regulatory_equilibrium,
                scenario, abatement, start, max_iterations=max_iterations,
            )
            with pytest.MonkeyPatch.context() as patch:
                passes = counted_passes(patch)
                assert outcome(
                    regulatory_equilibrium,
                    scenario, abatement, start, max_iterations=max_iterations,
                ) == reference
            # A run whose response changes partway: the rest of it is
            # discarded and the next run starts at one iterate.
            changed.extend(
                len(columns) > 1 and bool((columns[:-1] != columns[1:]).any())
                for columns, _ in passes
            )
            unreached.append(
                not isinstance(reference, tuple) and any(empty.any() for _, empty in passes)
            )

        check()
        assert any(changed)
        assert sum(unreached) >= 2
        reached = outcome(regulatory_equilibrium, *REACHED_EMPTY_BOX[:3])
        assert reached[0] is PhysicallyInvalidError

    def test_errors_match_the_per_market_loop(self):
        invalid = TaxSchedule.from_array([[0.5, 0.5], [0.0, 0.0]])
        symmetric = TestCandidateBudget.symmetric
        cases = [
            (SYM2, 3.5, invalid),                                # invalid start
            (SYM2, 5.0, ZERO2),                                  # infeasible box
            (symmetric(13), 0.0, TaxSchedule.zeros(13, 13)),     # over budget
            (replace(symmetric(13), legacy_debris=12.0), 0.0, TaxSchedule.zeros(13, 13)),
        ]
        for scenario, abatement, start in cases:
            reference = outcome(reference_regulatory_equilibrium, scenario, abatement, start)
            assert outcome(regulatory_equilibrium, scenario, abatement, start) == reference
            assert isinstance(reference, tuple)
        # The invalid start raises before the budget is checked.
        assert outcome(regulatory_equilibrium, *cases[3])[0] is PhysicallyInvalidError
        # No step runs no best response, so nothing checks the budget.
        assert outcome(
            regulatory_equilibrium, *cases[2], max_iterations=0
        ) == outcome(reference_regulatory_equilibrium, *cases[2], max_iterations=0)


class TestAssumptionThree:
    def test_solo_fails_with_zero_lhs(self):
        report = check_assumption_three(SOLO, 0.0, 0, 0)
        assert not report.holds
        assert report.lhs == 0.0
        assert report.rhs > 0.0

    def test_checker_matches_welfare_derivative_sign(self):
        for scenario in (SYM2, HIDEB):
            report = check_assumption_three(scenario, 0.0, 0, 1)
            fd = fd_welfare(scenario, ZERO2, 0.0, 0, 1)
            assert report.holds == (fd > 0.0)

    def test_legacy_debris_sweep_flips_at_most_once(self):
        flags = []
        for legacy in np.linspace(0.0, 8.0, 17):
            scenario = replace(SYM2, legacy_debris=float(legacy))
            try:
                flags.append(check_assumption_three(scenario, 0.0, 0, 1).holds)
            except Exception:
                break
        switches = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert switches <= 1

    def test_semi_elasticity_is_negative(self, rng):
        for _ in range(10):
            scenario, taxes = sample_scenario(rng, sector_range=(2, 4))
            sector = int(rng.integers(0, scenario.n_sectors))
            market = int(rng.integers(0, scenario.n_markets))
            report = check_assumption_three(scenario, 0.0, sector, market)
            assert report.semi_elasticity < 0.0
