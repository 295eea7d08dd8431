"""Verification suites: every structural claim checked against brute force.

Each checker takes a batch of (scenario, taxes, abatement) bundles and
returns an :class:`~orbituse.oracle.OracleReport`. The `verify` CLI
command runs all of them on the loaded scenario plus seeded random
batches; the acceptance tests run the same checkers at their full batch
sizes.
"""

from __future__ import annotations

import numpy as np

from .errors import OrbitUseError
from .open_access import (
    ANALYTIC,
    FINITE_DIFFERENCE,
    _one_rate_probes,
    _stacked_equilibrium,
    decompose,
    reduce_two_player,
    sensitivities,
    solve_equilibrium,
)
from .oracle import (
    OracleReport,
    deviation_search_abatement,
    grid_maximize,
    iterate_open_access,
)
from .regulation import (
    _channel_inputs,
    _channels,
    _stacked_welfare,
    national_welfare,
)
from .sampling import sample_scenario
from .scenario import Scenario, TaxSchedule, sector_profit
from .treaty import _both_variants, abatement_payoff

Bundle = tuple[Scenario, TaxSchedule, float]

COORDINATE_STEP = 1e-3
JOINT_STEP = 0.2
MAX_DEVIATION_GAIN = 1e-6


def _report(target, residual, counterexamples) -> OracleReport:
    return OracleReport(
        target=target,
        max_residual=float(residual),
        counterexamples=tuple(counterexamples),
        passed=not counterexamples,
    )


def check_equilibrium_agreement(bundles: list[Bundle]) -> OracleReport:
    """Matrix solve vs damped iteration, plus the zero-profit condition."""
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


def check_reduction(bundles: list[Bundle]) -> OracleReport:
    """Two-player collapse preserves each sector and the complement total."""
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


def check_decomposition(bundles: list[Bundle]) -> OracleReport:
    """r is abatement-free bitwise; fleets = sigma * r; sigma affine in Q."""
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


def check_sensitivity_agreement(bundles: list[Bundle]) -> OracleReport:
    """Analytic and finite-difference sensitivities agree entrywise."""
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


def _stencil(scenario: Scenario, rates: np.ndarray, abatement: np.ndarray):
    """Stacked equilibria of a stencil, refusing it as the per-probe loop would.

    If some probe's survival leaves [0, 1], the first such probe is re-solved
    by :func:`solve_equilibrium`, which raises its own PhysicallyInvalidError.
    """
    fleets, survival, stock = _stacked_equilibrium(scenario, rates, abatement)
    invalid = np.flatnonzero(~((0.0 <= survival) & (survival <= 1.0)))
    if invalid.size:
        row = invalid[0]
        solve_equilibrium(scenario, TaxSchedule.from_array(rates[row]), float(abatement[row]))
    return fleets, survival, stock


_SIGN_FAILURES = (
    "own fleet does not fall",
    "rebound not positive",
    "total fleet does not fall",
    "cross derivative not negative",
)


def check_sign_suite(bundles: list[Bundle]) -> OracleReport:
    """Finite-difference comparative statics sign pattern.

    Own-tax contraction, cross-sector rebound, dominated rebound (total
    fleet and required abatement fall), abatement-driven expansion with a
    tax-damped slope, and debris falling in abatement. Each bundle's
    2 + 6 n m probes are solved as one stack.
    """
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        n, n_markets = scenario.n_sectors, scenario.n_markets
        rates = taxes.as_array
        h = 1e-6 * np.maximum(1.0, np.abs(rates))       # own-tax stencil
        wide = 1e-4 * np.maximum(1.0, np.abs(rates))    # cross-derivative stencil
        h_ab = 1e-6 * max(1.0, abs(abatement))
        up, down = abatement + h_ab, abatement - h_ab
        # Probes in the order a per-probe loop takes them, so the first
        # invalid one raises that loop's error: Q +- h_ab at the base rates,
        # then per (sector, market) rate +- h at Q, rate + wide at Q +- h_ab
        # and rate - wide at Q +- h_ab.
        moved = np.stack(
            [rates + h, rates - h, rates + wide, rates + wide, rates - wide, rates - wide],
            axis=-1,
        )
        fleets, _, stock = _stencil(
            scenario,
            np.concatenate([rates[None], rates[None], _one_rate_probes(rates, moved)]),
            np.array([up, down] + [abatement, abatement, up, down, up, down] * (n * n_markets)),
        )
        d_ab = (fleets[0] - fleets[1]) / (2.0 * h_ab)
        if not np.all(d_ab > 0.0):
            bad.append((index, "dfleet_dabatement not positive"))
        if (stock[0] - stock[1]) / (2.0 * h_ab) >= 0.0:
            bad.append((index, "ddebris_dabatement not negative"))
        probes = fleets[2:].reshape(n, n_markets, 6, n)
        grads = (probes[:, :, 0] - probes[:, :, 1]) / (2.0 * h)[:, :, None]
        # Cross effect: abatement expansion flattens as the tax rises.
        slopes = (probes[:, :, 2::2] - probes[:, :, 3::2]) / (2.0 * h_ab)
        i, j = np.indices((n, n_markets), sparse=True)
        cross = (slopes[i, j, 0, i] - slopes[i, j, 1, i]) / (2.0 * wide)
        # The four tests per (sector, market), in the order they are listed;
        # a NaN rebound counts as not positive.
        off_diagonal = ~np.eye(n, dtype=bool)[:, None, :]
        failed = np.stack(
            [
                grads[i, j, i] >= 0.0,
                np.any(~(grads > 0.0) & off_diagonal, axis=2),
                grads.sum(axis=2) >= 0.0,
                cross >= 0.0,
            ],
            axis=-1,
        )
        bad.extend(
            (index, sector, market, _SIGN_FAILURES[test])
            for sector, market, test in np.argwhere(failed).tolist()
        )
    return _report("comparative_statics_signs", float(len(bad)), bad)


def check_channel_identity(bundles: list[Bundle]) -> OracleReport:
    """cleanup + expansion - reduction equals the FD welfare derivative.

    The derivative is Richardson-extrapolated: the plain central difference
    at h = 1e-6 cannot resolve the 1e-9 absolute identity tolerance once
    welfare reaches O(100); central differences at h = 1e-3 max(1, |rate|)
    and h/2 combined to fourth order can. Each bundle's 4 n m welfare
    probes are solved as one stack.
    """
    worst = 0.0
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        inputs = _channel_inputs(scenario, taxes, abatement)
        n, n_markets = scenario.n_sectors, scenario.n_markets
        rates = taxes.as_array
        h = 1e-3 * np.maximum(1.0, np.abs(rates))
        half = h / 2.0
        stack = _one_rate_probes(
            rates, np.stack([rates + half, rates - half, rates + h, rates - h], axis=-1)
        )
        fleets, survival, _ = _stencil(scenario, stack, np.full(len(stack), abatement))
        welfare = _stacked_welfare(scenario, stack, fleets, survival)
        i, j = np.indices((n, n_markets), sparse=True)
        own = welfare.reshape(n, n_markets, 4, n_markets)[i, j, :, j]
        fd = (
            4.0 * ((own[:, :, 0] - own[:, :, 1]) / (2.0 * half))
            - (own[:, :, 2] - own[:, :, 3]) / (2.0 * h)
        ) / 3.0
        for sector in range(n):
            for market in range(n_markets):
                channels = _channels(scenario, taxes, inputs, sector, market)
                gap = abs(channels.total - float(fd[sector, market]))
                worst = max(worst, gap)
                if gap > 1e-9:
                    bad.append((index, sector, market, gap))
    return _report("welfare_channel_identity", worst, bad)


def check_welfare_quadratic(bundles: list[Bundle]) -> OracleReport:
    """Welfare is exactly quadratic in abatement: constant second differences."""
    worst = 0.0
    bad = []
    step = 0.5
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        stencil = np.array([abatement + step * n for n in range(5)])
        rates = np.repeat(taxes.as_array[None], stencil.size, axis=0)
        fleets, survival, _ = _stencil(scenario, rates, stencil)
        welfare = _stacked_welfare(scenario, rates, fleets, survival)
        for market in range(scenario.n_markets):
            values = welfare[:, market].tolist()
            second = [
                values[n] - 2.0 * values[n + 1] + values[n + 2] for n in range(3)
            ]
            spread = max(second) - min(second)
            worst = max(worst, spread)
            if spread > 1e-10:
                bad.append((index, market, spread))
    return _report("welfare_quadratic_in_abatement", worst, bad)


def _treaty_analyses(bundles: list[Bundle]) -> list:
    """Both variants' analyses of each bundle in order, up to the first that
    raises; that bundle's entry is its error."""
    analyses = []
    for scenario, taxes, _ in bundles:
        try:
            analyses.append(_both_variants(scenario, taxes))
        except OrbitUseError as error:
            analyses.append(error)
            break
    return analyses


def _analysed(bundles: list[Bundle], analyses: list | None):
    """Each bundle with its pair of analyses, raising a stored error where a
    per-bundle loop would have; ``analyses`` defaults to deriving them here."""
    if analyses is None:
        analyses = _treaty_analyses(bundles)
    for bundle, pair in zip(bundles, analyses):
        if isinstance(pair, OrbitUseError):
            raise pair
        yield bundle, pair


def check_treaty_consistency(bundles: list[Bundle], analyses: list | None = None) -> OracleReport:
    """Threshold treaty conditions match their payoff-level counterparts."""
    worst = 0.0
    bad = []
    guard = 1e-9
    for index, ((scenario, taxes, abatement), pair) in enumerate(_analysed(bundles, analyses)):
        for analysis in pair:
            variant = analysis.variant
            qbar = analysis.qbar
            burden = analysis.per_party_burden
            for party, coeff in enumerate(analysis.coefficients):
                bound = coeff.beta * burden + 0.5 * scenario.abatement_cost * burden**2
                margin = scenario.catastrophe_damages - bound
                stay = abatement_payoff(scenario, coeff, burden, qbar, qbar)
                drop = abatement_payoff(scenario, coeff, 0.0, qbar - burden, qbar)
                if abs(margin) > guard and (margin > 0.0) != (stay - drop > 0.0):
                    bad.append((index, variant, party, "no-defection bound vs payoffs"))
                response = analysis.responses[party]
                in_treaty = coeff.marginal_benefit(qbar) - 0.5 * scenario.abatement_cost * burden**2
                avert_raw = coeff.marginal_benefit(qbar) - 0.5 * scenario.abatement_cost * (
                    qbar - response.raw
                ) ** 2
                cond_margin = in_treaty - avert_raw
                if abs(cond_margin) > guard and analysis.condition27[party] != (
                    cond_margin > 0.0
                ):
                    bad.append((index, variant, party, "self-enforcement vs payoffs"))
                if not response.clamped and qbar > 0.0:
                    residual = abs(
                        coeff.marginal_benefit(qbar)
                        - 0.5 * scenario.abatement_cost * (qbar - response.q_rest) ** 2
                        - coeff.marginal_benefit(response.q_rest)
                        + scenario.catastrophe_damages
                    )
                    worst = max(worst, residual)
                    if residual > 1e-9:
                        bad.append((index, variant, party, "indifference residual", residual))
    return _report("treaty_condition_consistency", worst, bad)


def check_nash_certification(bundles: list[Bundle], analyses: list | None = None) -> OracleReport:
    """Every listed Nash profile survives the deviation search at ``DEVIATION_STEP``."""
    worst = 0.0
    bad = []
    for index, ((scenario, taxes, abatement), pair) in enumerate(_analysed(bundles, analyses)):
        for analysis in pair:
            for profile in analysis.nash_equilibria:
                report = deviation_search_abatement(
                    scenario, analysis.coefficients, profile, analysis.qbar
                )
                worst = max(worst, report.max_residual)
                if not report.passed:
                    bad.append(
                        (index, analysis.variant, profile.contributions, report.counterexamples)
                    )
    return _report("nash_certification", worst, bad)


def certify_regulatory_equilibrium(scenario: Scenario, taxes: TaxSchedule) -> OracleReport:
    """Unilateral grid-deviation probe for a converged tax schedule at zero abatement.

    For each market: a per-coordinate sweep of that market's column at
    ``COORDINATE_STEP`` (1e-3), plus a coarse joint grid at ``JOINT_STEP``
    (0.2) when the column has at most three entries. A pass certifies that
    no market gains more than ``MAX_DEVIATION_GAIN`` (1e-6) by moving one
    of its rates along the 1e-3 grid on [0, 1], or its whole column to a
    point of the 0.2 grid on the unit box. That is weaker than continuous
    optimality.
    """
    worst = 0.0
    bad = []
    base_welfare = national_welfare(scenario, taxes).welfare
    for market in range(scenario.n_markets):
        incumbent = base_welfare[market]

        def deviation_value(column) -> float:
            try:
                report = national_welfare(scenario, taxes.with_column(market, column))
            except OrbitUseError:
                return -np.inf
            return report.welfare[market]

        column = np.array([taxes.rate(i, market) for i in range(scenario.n_sectors)])
        axis = np.arange(0.0, 1.0 + COORDINATE_STEP / 2.0, COORDINATE_STEP)
        for coord in range(scenario.n_sectors):
            for value in axis:
                probe = column.copy()
                probe[coord] = value
                gain = deviation_value(probe) - incumbent
                worst = max(worst, gain)
                if gain > MAX_DEVIATION_GAIN:
                    bad.append((market, coord, float(value), float(gain)))
        if scenario.n_sectors <= 3:
            _, best = grid_maximize(deviation_value, dims=scenario.n_sectors, step=JOINT_STEP)
            gain = best - incumbent
            worst = max(worst, gain)
            if gain > MAX_DEVIATION_GAIN:
                bad.append((market, "joint", float(gain)))
    return _report("regulatory_deviation_probe", worst, bad)


def _batch(rng, count, **kwargs) -> list[Bundle]:
    return [(*sample_scenario(rng, **kwargs), 0.0) for _ in range(count)]


def run_verification(
    scenario: Scenario,
    taxes: TaxSchedule,
    abatement: float,
    seed: int,
    random_count: int = 40,
) -> list[OracleReport]:
    """Full oracle battery on one scenario plus seeded random batches."""
    rng = np.random.default_rng(seed)
    loaded: list[Bundle] = [(scenario, taxes, abatement)]
    general = _batch(rng, random_count, with_taxes=True)
    interior = _batch(rng, random_count, with_taxes=True, sector_range=(2, 6))
    multi = _batch(rng, max(10, random_count // 2), with_taxes=True, sector_range=(3, 6))
    treaty = _batch(
        rng, max(10, random_count // 2), with_taxes=True, require_kessler_risk=True,
        sector_range=(1, 4),
    )

    def attempt(checker, bundles, name, **kwargs):
        try:
            return checker(bundles, **kwargs)
        except OrbitUseError as error:
            return _report(name, float("nan"), [(type(error).__name__, str(error))])

    loaded_ok: list[Bundle] = []
    try:
        solve_equilibrium(scenario, taxes, abatement)
        loaded_ok = loaded
    except OrbitUseError:
        pass

    reports = [
        attempt(check_equilibrium_agreement, loaded_ok + general, "equilibrium_agreement"),
        attempt(check_reduction, [b for b in loaded_ok if b[0].n_sectors >= 2] + multi, "two_player_reduction"),
        attempt(check_decomposition, loaded_ok + general, "decomposition"),
        attempt(check_sensitivity_agreement, interior, "sensitivity_agreement"),
        attempt(check_sign_suite, interior, "comparative_statics_signs"),
        attempt(check_channel_identity, interior[: max(5, random_count // 4)], "welfare_channel_identity"),
        attempt(check_welfare_quadratic, treaty, "welfare_quadratic_in_abatement"),
    ]
    # Both treaty checkers read one analysis of each bundle.
    analyses = _treaty_analyses(treaty)
    reports += [
        attempt(check_treaty_consistency, treaty, "treaty_condition_consistency", analyses=analyses),
        attempt(check_nash_certification, treaty, "nash_certification", analyses=analyses),
    ]
    return reports
