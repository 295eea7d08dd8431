"""Property-based invariants over randomly generated scenarios."""

from dataclasses import replace

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from orbituse import (
    SYM2,
    OrbitUseError,
    Scenario,
    TaxSchedule,
    check_assumptions,
    debris_stock,
    decompose,
    effective_prices,
    reduce_two_player,
    required_abatement,
    sector_profit,
    solve_equilibrium,
    treaty_response,
    validate_scenario,
    validate_taxes,
)
from orbituse.oracle import iterate_open_access, pivot_open_access
from orbituse import sampling
from orbituse.sampling import CONTRACTION_LIMIT, _contracts, _damped_spectral_radius
from orbituse.treaty import BenefitCoefficients, abatement_payoff

from conftest import assert_exact, exact_rho_form


@st.composite
def scenarios(draw, min_sectors=1, max_sectors=3):
    n_s = draw(st.integers(min_sectors, max_sectors))
    n_m = n_s + draw(st.integers(0, 1))
    unit = st.floats(0.5, 5.0, allow_nan=False)
    prices = tuple(draw(unit) for _ in range(n_m))
    costs = tuple(draw(unit) for _ in range(n_s))
    k = draw(st.floats(0.0, 0.2))
    d = draw(st.floats(0.5, 1.5))
    legacy = draw(st.floats(0.0, 2.0))
    return Scenario(
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


@st.composite
def scenario_tax_pairs(draw, **kwargs):
    scenario = draw(scenarios(**kwargs))
    rate = st.floats(0.0, 0.5)
    rows = tuple(
        tuple(draw(rate) for _ in range(scenario.n_markets))
        for _ in range(scenario.n_sectors)
    )
    return scenario, TaxSchedule(rows)


def reference_slopes(scenario, taxes):
    """Slopes ``-kd r`` of the fleet system, ``r_i = rev_i/(kd rev_i + m_i)``.

    Assembled as the dense system would be: the reference the kernel's
    determinant and the sampling filter are checked against.
    """
    revenue = effective_prices(scenario, taxes)
    kd = scenario.collision_coeff * scenario.debris_per_sat
    denom = kd * revenue + scenario.cost_array
    r = revenue / denom
    return -kd * r


def reference_interaction_matrix(slopes):
    """Row i holds copies of slope i with a zero diagonal."""
    matrix = np.tile(slopes[:, None], (1, slopes.size))
    np.fill_diagonal(matrix, 0.0)
    return matrix


def try_solve(scenario, taxes, abatement=0.0):
    try:
        return solve_equilibrium(scenario, taxes, abatement)
    except OrbitUseError:
        return None


@given(scenario_tax_pairs())
@settings(max_examples=60, deadline=None)
def test_interaction_slopes_are_bounded(pair):
    # Positive costs keep every slope strictly above -1: no sector can
    # fully offset the rest of the world's expansion.
    scenario, taxes = pair
    for slope in reference_slopes(scenario, taxes):
        assert -1.0 < slope <= 0.0


@given(scenario_tax_pairs())
@settings(max_examples=60, deadline=None)
def test_zero_profit_at_equilibrium(pair):
    scenario, taxes = pair
    eq = try_solve(scenario, taxes)
    assume(eq is not None)
    for i in range(scenario.n_sectors):
        if eq.active[i]:
            assert abs(sector_profit(scenario, taxes, eq.fleets, 0.0, i)) < 1e-9


@given(scenario_tax_pairs())
@settings(max_examples=60, deadline=None)
def test_iteration_oracle_matches_matrix_solve(pair):
    scenario, taxes = pair
    eq = try_solve(scenario, taxes)
    assume(eq is not None)
    fleets = iterate_open_access(scenario, taxes, 0.0)
    assert np.max(np.abs(fleets - eq.fleet_array)) < 1e-9


@given(scenario_tax_pairs(), st.floats(0.0, 1.5))
@settings(max_examples=60, deadline=None)
def test_decomposition_structure(pair, abatement):
    scenario, taxes = pair
    base = try_solve(scenario, taxes, 0.0)
    shifted = try_solve(scenario, taxes, abatement)
    assume(base is not None and shifted is not None)
    _, r_base = decompose(base)
    sigma, r_shifted = decompose(shifted)
    assert np.array_equal(r_base, r_shifted)
    np.testing.assert_allclose(sigma * r_shifted, shifted.fleets, atol=1e-12)


@given(scenario_tax_pairs(min_sectors=2, max_sectors=4))
@settings(max_examples=40, deadline=None)
def test_reduction_preserves_fleets(pair):
    # The reduction shares its rho-form core with the kernel, so the
    # reference is the oracle's dense pivot solve.
    scenario, taxes = pair
    try:
        full = pivot_open_access(scenario, taxes, 0.0)
    except OrbitUseError:
        full = None
    assume(full is not None and np.all(full > 0.0))
    for sector in range(scenario.n_sectors):
        pair_eq = reduce_two_player(scenario, taxes, 0.0, sector)
        assert abs(pair_eq.fleets[0] - full[sector]) < 1e-9
        assert abs(pair_eq.fleets[1] - (full.sum() - full[sector])) < 1e-9


@given(scenario_tax_pairs(), st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_effective_prices_monotone(pair, sector_pick, market_pick):
    scenario, taxes = pair
    sector = sector_pick % scenario.n_sectors
    market = market_pick % scenario.n_markets
    base = effective_prices(scenario, taxes)
    rate = taxes.rate(sector, market)
    bumped = effective_prices(scenario, taxes.with_rate(sector, market, min(rate + 0.25, 1.0)))
    assert bumped[sector] <= base[sector] + 1e-15


@given(scenarios(), st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_debris_is_affine(scenario, fleet_a, fleet_b, abatement):
    mid = 0.5 * (fleet_a + fleet_b)
    stocks = [debris_stock(scenario, f, abatement).stock for f in (fleet_a, mid, fleet_b)]
    assert abs(stocks[0] - 2.0 * stocks[1] + stocks[2]) < 1e-12
    drop = debris_stock(scenario, fleet_a, abatement + 1.0).stock
    assert abs((stocks[0] - drop) - 1.0) < 1e-12


@given(
    st.floats(0.0, 1.0),
    st.floats(-0.1, 0.1),
    st.floats(0.1, 2.0),
    st.floats(0.0, 2.0),
    st.floats(0.1, 2.0),
)
@settings(max_examples=100, deadline=None)
def test_payoff_branches_meet_at_threshold(alpha, beta, damages, own, qbar):
    scenario = Scenario(1, 1, (1.0,), (1.0,), 0.0, 1.0, 0.0, 2.0, damages, 1.0)
    coeff = BenefitCoefficients(alpha, beta, "model-derived")
    at = abatement_payoff(scenario, coeff, own, qbar, qbar)
    above = abatement_payoff(scenario, coeff, own, qbar + 1.0, qbar)
    assert at == above  # benefit caps at the threshold level
    below = abatement_payoff(scenario, coeff, own, max(qbar - 0.5, 0.0), qbar)
    if qbar >= 0.5:
        assert below <= at - damages + abs(beta) * 0.5 + 1e-12


@given(st.floats(-0.2, 0.2), st.floats(0.0, 3.0), st.floats(0.05, 3.0), st.floats(0.1, 5.0))
@settings(max_examples=100, deadline=None)
def test_treaty_response_bounded_and_indifferent(beta, qbar, damages, cost):
    scenario = Scenario(1, 1, (1.0,), (1.0,), 0.0, 1.0, 0.0, 2.0, damages, cost)
    coeff = BenefitCoefficients(0.5, beta, "model-derived")
    response = treaty_response(scenario, coeff, qbar)
    assert 0.0 <= response.q_rest <= qbar
    assert response.raw <= qbar + 1e-12
    if not response.clamped and qbar > 0.0:
        residual = (
            coeff.marginal_benefit(qbar)
            - 0.5 * cost * (qbar - response.q_rest) ** 2
            - coeff.marginal_benefit(response.q_rest)
            + damages
        )
        assert abs(residual) < 1e-9


# Near-boundary tax rates: exact 0 and 1, FD-stencil probes just outside
# [0, 1], and rates just above 1 that turn a sector's revenue negative.
EDGE_RATES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, -1e-6, 1.0 - 1e-6, 1.0 + 1e-6]),
    st.floats(-1e-3, 0.0),
    st.floats(1.0, 1.0 + 1e-3),
)


@st.composite
def kernel_cases(draw):
    n_s = draw(st.integers(1, 6))
    n_m = n_s + draw(st.integers(0, 1))
    unit = st.floats(0.5, 5.0)
    # Dyadic k with D0 = 1/k makes phi = 1 - k D0 exactly zero.
    k, legacy = draw(
        st.one_of(
            st.tuples(st.just(0.0), st.floats(0.0, 2.0)),
            st.tuples(st.floats(0.0, 0.2), st.floats(0.0, 12.0)),
            st.sampled_from([(0.125, 8.0), (0.25, 4.0), (0.5, 2.0)]),
        )
    )
    scenario = Scenario(
        n_markets=n_m,
        n_sectors=n_s,
        prices=tuple(draw(unit) for _ in range(n_m)),
        costs=tuple(draw(unit) for _ in range(n_s)),
        collision_coeff=k,
        debris_per_sat=draw(st.floats(0.5, 1.5)),
        legacy_debris=legacy,
        catastrophe_threshold=2.0,
        catastrophe_damages=1.0,
        abatement_cost=1.0,
    )
    rows = []
    for _ in range(n_s):
        mode = draw(st.sampled_from(["free", "denied", "negative"]))
        if mode == "denied":
            rows.append((1.0,) * n_m)
        elif mode == "negative":
            rows.append((1.0 + draw(st.floats(1e-9, 1e-3)),) * n_m)
        else:
            rows.append(tuple(draw(EDGE_RATES) for _ in range(n_m)))
    return scenario, TaxSchedule(tuple(rows))


def _outcome(solver, scenario, taxes):
    try:
        return solver(scenario, taxes, 0.0), None
    except OrbitUseError as error:
        return None, type(error)


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_closed_form_kernel_matches_dense_pivot_solve(case):
    scenario, taxes = case
    kernel, kernel_error = _outcome(solve_equilibrium, scenario, taxes)
    dense, dense_error = _outcome(pivot_open_access, scenario, taxes)
    assert kernel_error is dense_error
    if dense is None:
        return
    fleets = np.array(kernel.fleets)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(fleets - dense)) <= 1e-12 * scale
    assert kernel.active == tuple(bool(f > 0.0) for f in dense)
    # Determinant of the system the dense solve ended on: its active
    # sectors, or every sector when phi == 0 leaves all fleets at zero.
    phi = 1.0 - scenario.collision_coeff * scenario.legacy_debris
    idx = np.arange(scenario.n_sectors) if phi == 0.0 else np.flatnonzero(dense > 0.0)
    slopes = reference_slopes(scenario, taxes)
    reduced = np.eye(idx.size) - reference_interaction_matrix(slopes)[np.ix_(idx, idx)]
    assert abs(kernel.determinant - np.linalg.det(reduced)) <= 1e-12 * abs(kernel.determinant)


def _log_uniform(low, high):
    return st.floats(low, high).map(lambda exponent: 10.0**exponent)


@st.composite
def wide_cases(draw):
    n_s = draw(st.integers(1, 6))
    n_m = n_s + draw(st.integers(0, 1))
    k = draw(st.one_of(st.just(0.0), _log_uniform(-9, 0)))
    ceiling = 0.99 / k if k > 0.0 else 100.0
    rate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    scenario = Scenario(
        n_markets=n_m,
        n_sectors=n_s,
        prices=tuple(draw(_log_uniform(-8, 10)) for _ in range(n_m)),
        costs=tuple(draw(_log_uniform(-8, 10)) for _ in range(n_s)),
        collision_coeff=k,
        debris_per_sat=draw(_log_uniform(-8, 8)),
        legacy_debris=draw(st.floats(0.0, 1.0, exclude_max=True)) * ceiling,
        catastrophe_threshold=1.0,
        catastrophe_damages=1.0,
        abatement_cost=1.0,
    )
    taxes = TaxSchedule(tuple(tuple(draw(rate) for _ in range(n_m)) for _ in range(n_s)))
    # The threshold is a fixed fraction of the exact zero-abatement stock
    # (or above it): a threshold within round-off of the stock would make
    # the root ill-conditioned in any floating-point evaluation.
    stock = float(exact_rho_form(scenario, taxes)["stock"])
    fraction = draw(st.one_of(st.floats(0.01, 0.5), st.floats(1.5, 3.0)))
    threshold = fraction * stock if stock > 0.0 else fraction
    return replace(scenario, catastrophe_threshold=threshold), taxes


@given(wide_cases())
@settings(max_examples=200, deadline=None)
def test_wide_magnitudes_solve_exactly(case):
    scenario, taxes = case
    eq = solve_equilibrium(scenario, taxes, 0.0)
    exact = exact_rho_form(scenario, taxes)
    for fleet, expected in zip(eq.fleets, exact["fleets"]):
        assert_exact(fleet, expected)
    assert_exact(eq.debris.survival, exact["survival"])
    assert_exact(eq.debris.stock, exact["stock"])
    assert_exact(eq.determinant, exact["determinant"])
    assert_exact(required_abatement(scenario, taxes), exact["required_abatement"])


@st.composite
def validated_cases(draw):
    """Any scenario and schedule that validation accepts: every positive
    finite price and cost, k and d from 0 up, rows fully taxed at rate 1."""
    n_s = draw(st.integers(1, 4))
    n_m = n_s + draw(st.integers(0, 2))
    # Three magnitudes in four lie in [1e-30, 1e30], where no product that
    # validation bounds can overflow; the rest come from the whole float
    # range, and validation refuses many of the scenarios they enter.
    tame = st.floats(1e-30, 1e30)
    whole = st.floats(0.0, exclude_min=True, allow_infinity=False)
    positive = st.integers(0, 3).flatmap(lambda pick: whole if pick == 3 else tame)
    nonnegative = st.one_of(st.just(0.0), positive)
    scenario = Scenario(
        n_markets=n_m,
        n_sectors=n_s,
        prices=tuple(draw(positive) for _ in range(n_m)),
        costs=tuple(draw(positive) for _ in range(n_s)),
        collision_coeff=draw(nonnegative),
        debris_per_sat=draw(nonnegative),
        legacy_debris=draw(nonnegative),
        catastrophe_threshold=draw(positive),
        catastrophe_damages=draw(nonnegative),
        abatement_cost=draw(positive),
    )
    # Validation refuses the draws whose bounded products overflow.
    assume(validate_scenario(scenario) == [])
    rate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    row = st.one_of(st.just((1.0,) * n_m), st.tuples(*[rate] * n_m))
    return scenario, TaxSchedule(tuple(draw(row) for _ in range(n_s)))


@given(validated_cases())
@example((replace(SYM2, collision_coeff=0.0), TaxSchedule(((1.0, 1.0), (0.0, 0.0)))))
@example((replace(SYM2, collision_coeff=0.0), TaxSchedule(((1.0, 1.0), (1.0, 1.0)))))
@example((replace(SYM2, collision_coeff=1e150, debris_per_sat=1e150), TaxSchedule(((1.0, 1.0), (0.0, 0.5)))))
@settings(max_examples=300, deadline=None)
def test_validated_inputs_never_crowd_out(case):
    # --strict tests only bounded marginal risk because of this. Finite k d
    # and rho are the premise: an overflowed factor times a zero one is NaN.
    scenario, taxes = case
    assert validate_scenario(scenario) == [] and validate_taxes(scenario, taxes) == []
    with np.errstate(over="ignore"):
        kd = scenario.collision_coeff * scenario.debris_per_sat
        rho = effective_prices(scenario, taxes) / scenario.cost_array
    assume(np.isfinite(kd) and np.all(np.isfinite(rho)))
    assert all(check_assumptions(scenario, taxes).no_crowding_out)


SOLO_FREE = Scenario(1, 1, (1.0,), (1.0,), 0.0, 1.0, 0.0, 2.0, 1.0, 1.0)
SIX = Scenario(6, 6, (10.0,) * 6, (0.1,) * 6, 0.05, 20.0, 0.0, 2.0, 1.0, 1.0)


@given(st.one_of(kernel_cases(), wide_cases()))
@example((SOLO_FREE, TaxSchedule.zeros(1, 1)))
@example((SIX, TaxSchedule(((1.0,) * 6,) + ((0.0,) * 6,) * 5)))
@settings(max_examples=300, deadline=None)
def test_sampling_filter_radius_matches_the_reference_assembly(case):
    # The contraction filter decides which scenarios verify draws, so its
    # inline slopes and matrix must give the assembled map's radius exactly.
    scenario, taxes = case
    damping = 0.5
    matrix = (1.0 - damping) * np.eye(scenario.n_sectors) + damping * (
        reference_interaction_matrix(reference_slopes(scenario, taxes))
    )
    reference = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    radius = _damped_spectral_radius(scenario, taxes)
    assert np.float64(radius).tobytes() == np.float64(reference).tobytes()


# One case per branch of the closed-form filter. Six equal slopes delta
# (kd rev = 1.5) give mu = delta (five times) and -5 delta, so g = 6 delta/
# (delta + 2.98) crosses 1 where the radius crosses 0.99: delta = 0.588
# (cost 1.05) has radius 0.97 and g = 0.989, accepted at once; delta = 0.6
# (cost 1) has radius 1 and g = 1.006, rejected at once. A lone sector with
# cost 1e-4 has delta > 0.98, and a revenue just below zero has delta < 0,
# so both take the eigenvalues.
FAST_ACCEPT = (Scenario(6, 6, (1.0,) * 6, (1.05,) * 6, 0.25, 1.0, 0.0, 2.0, 1.0, 1.0), TaxSchedule.zeros(6, 6))
FAST_REJECT = (replace(FAST_ACCEPT[0], costs=(1.0,) * 6), TaxSchedule.zeros(6, 6))
STEEP = (Scenario(1, 1, (1.0,), (1e-4,), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0), TaxSchedule.zeros(1, 1))
NEGATIVE = (SYM2, TaxSchedule(((1.0 + 1e-3,) * 2, (0.0, 0.0))))


@given(st.one_of(kernel_cases(), wide_cases()))
@example(FAST_ACCEPT)
@example(FAST_REJECT)
@example(STEEP)
@example(NEGATIVE)
@settings(max_examples=300, deadline=None)
def test_sampling_filter_decides_as_the_eigenvalues_do(case):
    scenario, taxes = case
    assert _contracts(scenario, taxes) is (_damped_spectral_radius(scenario, taxes) <= CONTRACTION_LIMIT)


def test_sampling_filter_examples_reach_every_branch(monkeypatch):
    fallbacks = []

    def counted(scenario, taxes):
        fallbacks.append(scenario)
        return _damped_spectral_radius(scenario, taxes)

    monkeypatch.setattr(sampling, "_damped_spectral_radius", counted)
    decisions = [_contracts(*case) for case in (FAST_ACCEPT, FAST_REJECT, STEEP, NEGATIVE)]
    assert decisions == [True, False, True, True]
    assert fallbacks == [STEEP[0], NEGATIVE[0]]
