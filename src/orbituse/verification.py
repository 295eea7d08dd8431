"""Verification suites: every structural claim checked against brute force.

Each checker takes a batch of (scenario, taxes, abatement) bundles and
returns an :class:`~orbituse.oracle.OracleReport`. The `verify` CLI
command runs all of them on the loaded scenario plus seeded random
batches; the acceptance tests run the same checkers at their full batch
sizes.

The stencil and solve checkers evaluate their batch through one driver,
:func:`_batched`. It groups the bundles by shape ``(n_sectors, n_markets)``,
has the checker evaluate each group as one stacked pass with one scenario
per row (:class:`ScenarioRows`), and hands back every bundle's entries in
bundle order. Every row repeats the one-bundle arithmetic bit for bit, so
each report equals the one a per-bundle loop builds: counterexamples in
bundle order, and residuals folded over the same values in the same order.
Where a per-bundle loop would raise, the checker records the bundle, and
the driver re-runs the lowest-index recorded bundle's own per-bundle calls,
which raise the same error with the same message.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import OrbitUseError
from .open_access import (
    ANALYTIC,
    FINITE_DIFFERENCE,
    _analytic_rows,
    _fd_rows,
    _one_rate_probes,
    _phi,
    _stacked_equilibrium,
    _stacked_factors,
    _stacked_fleets,
    _stacked_pairs,
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
from .regulation import _stacked_channels, _stacked_welfare, national_welfare
from .sampling import sample_scenario
from .scenario import Scenario, ScenarioRows, TaxSchedule, _stacked_profit
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


def _batched(bundles: list[Bundle], evaluate) -> list[tuple]:
    """Every bundle's entries in bundle order, each prefixed with its bundle index.

    The batch is grouped by shape ``(n_sectors, n_markets)`` and
    ``evaluate(group, rows, rates, abatement, refuse)`` runs once per group:
    ``group`` lists its bundles, ``rows`` is their ScenarioRows, ``rates``
    ``(G, n, m)`` and ``abatement`` ``(G,)``. It returns each bundle's list
    of entries, and records with ``refuse(g, call)`` a bundle whose
    per-bundle calls would raise, ``call`` repeating them up to the one that
    fails; a bundle's first record is kept. If any bundle was recorded, the
    lowest-index one's call is run, which raises the per-bundle loop's error.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for index, (scenario, _, _) in enumerate(bundles):
        groups.setdefault((scenario.n_sectors, scenario.n_markets), []).append(index)
    found = {}
    failures = {}
    for indices in groups.values():
        group = [bundles[i] for i in indices]
        found.update(zip(indices, evaluate(
            group,
            ScenarioRows.of([scenario for scenario, _, _ in group]),
            np.array([taxes.as_array for _, taxes, _ in group]),
            np.array([abatement for _, _, abatement in group], dtype=float),
            lambda g, call, indices=indices: failures.setdefault(indices[g], call),
        )))
    if failures:
        failures[min(failures)]()
    return [(index, *entry) for index in range(len(bundles)) for entry in found[index]]


def _stencil(group, rows, probes, levels, refuse):
    """Stacked equilibria of each bundle's probes ``(G, P, n, m)`` at ``levels`` ``(G, P)``.

    Returns fleets ``(G, P, n)``, survival and stock ``(G, P)``. A bundle
    with a probe whose survival leaves [0, 1] is refused with the
    :func:`solve_equilibrium` re-solve of its first such probe, which raises
    its PhysicallyInvalidError.
    """
    count, size, n, n_markets = probes.shape
    fleets, survival, stock = _stacked_equilibrium(
        rows.repeat(size), probes.reshape(-1, n, n_markets), levels.ravel()
    )
    invalid = ~((0.0 <= survival) & (survival <= 1.0)).reshape(count, size)
    for g in np.flatnonzero(invalid.any(axis=1)).tolist():
        row = int(np.argmax(invalid[g]))
        refuse(g, partial(
            solve_equilibrium,
            group[g][0],
            TaxSchedule.from_array(probes[g, row]),
            float(levels[g, row]),
        ))
    return fleets.reshape(count, size, n), survival.reshape(count, size), stock.reshape(count, size)


def _fold(target: str, entries: list, bound: float) -> OracleReport:
    """The report of entries that end in a residual: the running ``max`` of
    the residuals in order, and the entries above ``bound``."""
    worst = 0.0
    bad = []
    for entry in entries:
        worst = max(worst, entry[-1])
        if entry[-1] > bound:
            bad.append(entry)
    return _report(target, worst, bad)


def check_equilibrium_agreement(bundles: list[Bundle]) -> OracleReport:
    """Closed-form solve vs damped iteration, plus the zero-profit condition.

    The closed form of every bundle is one stacked pass per shape, with
    the solve's profit residual and :func:`~orbituse.scenario.sector_profit`
    by their stacked forms; the iteration oracle still runs per bundle.
    """

    def evaluate(group, rows, rates, abatement, refuse):
        phi, kd = _phi(rows, abatement[:, None])
        fleets, survival = _stacked_fleets(rows, rates, phi, kd)
        valid = ((0.0 <= survival) & (survival <= 1.0))[:, 0]
        # The solve's own profit residual, and sector_profit's.
        _, _, residual = _stacked_factors(rows, rates, fleets, survival, kd)
        profit = np.abs(_stacked_profit(rows, rates, fleets, abatement))
        entries = [[] for _ in group]
        for g, bundle in enumerate(group):
            # A per-bundle loop's solve raises where survival is invalid;
            # elsewhere its iteration may.
            call = partial(iterate_open_access if valid[g] else solve_equilibrium, *bundle)
            try:
                iterated = call()
            except OrbitUseError:
                refuse(g, call)
                continue
            gap = float(np.max(np.abs(fleets[g] - iterated)))
            active = fleets[g] > 0.0
            most = max(profit[g][active]) if active.any() else 0.0
            entries[g].append((gap, most, max(gap, most, max(residual[g].tolist(), default=0.0))))
        return entries

    worst = 0.0
    bad = []
    for index, gap, profit, residual in _batched(bundles, evaluate):
        worst = max(worst, residual)
        if gap > 1e-9 or profit > 1e-9:
            bad.append((index, gap, profit))
    return _report("equilibrium_agreement", worst, bad)


def _reduce_each_sector(scenario, taxes, abatement) -> None:
    """One bundle's per-bundle reduction calls: the full solve, then each sector's pair."""
    solve_equilibrium(scenario, taxes, abatement)
    for sector in range(scenario.n_sectors):
        reduce_two_player(scenario, taxes, abatement, sector)


def check_reduction(bundles: list[Bundle]) -> OracleReport:
    """Two-player collapse preserves each sector and the complement total.

    Each sector's pair is player one and the rest of the world with the
    ``rho_rest`` of :func:`reduce_two_player`, both from its stacked form
    ``_stacked_pairs``; ``reduce_two_player`` itself runs only to raise a
    failing bundle's error. Every pair of a shape group is one stack.
    """

    def evaluate(group, rows, rates, abatement, refuse):
        n = rates.shape[1]
        phi, kd = _phi(rows, abatement[:, None])
        on, share, rest, pair_share = _stacked_pairs(rows, rates, phi, kd)
        fleets = phi * on / share
        own_gap = np.abs(phi * on / pair_share - fleets)
        rest_gap = np.abs(phi * rest / pair_share - (fleets.sum(axis=1)[:, None] - fleets))
        residual = np.where(rest_gap > own_gap, rest_gap, own_gap)
        # The full game's survival and every pair's, as each solve checks it.
        survival = phi / np.concatenate([share, pair_share], axis=1)
        fails = ~np.all((0.0 <= survival) & (survival <= 1.0), axis=1)
        for g in np.flatnonzero(fails | (n < 2)).tolist():
            refuse(g, partial(_reduce_each_sector, *group[g]))
        return [list(enumerate(row)) for row in residual]

    return _fold("two_player_reduction", _batched(bundles, evaluate), 1e-9)


def check_decomposition(bundles: list[Bundle]) -> OracleReport:
    """r is abatement-free bitwise; fleets = sigma * r; sigma affine in Q.

    The three abatement probes of every bundle of a shape are one stack;
    each probe's ``r`` and ``sigma`` are :func:`solve_equilibrium`'s, by its
    stacked form ``_stacked_factors``.
    """

    def evaluate(group, rows, rates, abatement, refuse):
        count, n, n_markets = rates.shape
        probes = np.repeat(rates[:, None], 3, axis=1)
        levels = np.stack([abatement, abatement + 0.35, abatement + 0.7], axis=1)
        fleets, survival, _ = _stencil(group, rows, probes, levels, refuse)
        tripled = rows.repeat(3)
        sigma, r, _ = _stacked_factors(
            tripled,
            probes.reshape(-1, n, n_markets),
            fleets.reshape(-1, n),
            survival.reshape(-1, 1),
            tripled.collision_coeff * tripled.debris_per_sat,
        )
        sigma, r = sigma.reshape(count, 3, n), r.reshape(count, 3, n)
        same_r = np.all(r[:, 1:] == r[:, :1], axis=(1, 2))
        recon = np.max(np.abs(sigma * r - fleets), axis=2).tolist()
        collinear = np.max(np.abs(sigma[:, 0] - 2.0 * sigma[:, 1] + sigma[:, 2]), axis=1).tolist()
        return [[entry] for entry in zip(same_r, recon, collinear)]

    worst = 0.0
    bad = []
    for index, same_r, recon, collinear in _batched(bundles, evaluate):
        if not same_r:
            bad.append((index, "r not bitwise identical across abatement"))
            continue
        for value in recon:
            worst = max(worst, value)
            if value > 1e-12:
                bad.append((index, "fleets != sigma*r", value))
        worst = max(worst, collinear)
        if collinear > 1e-10:
            bad.append((index, "sigma not affine in abatement", collinear))
    return _report("decomposition", worst, bad)


_SENSITIVITY_NAMES = ("dfleet_dtax", "dfleet_dabatement", "drequired_dtax", "ddebris_dabatement")


def _refuse_sensitivities(scenario, taxes, abatement) -> None:
    """One bundle's per-bundle sensitivity calls, analytic first, which raise."""
    sensitivities(scenario, taxes, abatement, method=ANALYTIC)
    sensitivities(scenario, taxes, abatement, method=FINITE_DIFFERENCE)


def check_sensitivity_agreement(bundles: list[Bundle]) -> OracleReport:
    """Analytic and finite-difference sensitivities agree entrywise.

    Both sides of every bundle of a shape are one stacked pass each: the
    analytic kernel, and one dense-LU stack of every finite-difference probe.
    """

    def evaluate(group, rows, rates, abatement, refuse):
        count = len(group)
        analytic, interior, _, _ = _analytic_rows(rows, rates, abatement)
        numeric, ok, _, _ = _fd_rows(rows, rates, abatement)
        # Every entry of the four arrays side by side, in the order of
        # _SENSITIVITY_NAMES; each array's gap is the max over its columns.
        order = (0, 1, 3, 2)
        a = np.concatenate([analytic[k].reshape(count, -1) for k in order], axis=1)
        b = np.concatenate([numeric[k].reshape(count, -1) for k in order], axis=1)
        starts = np.cumsum([0] + [analytic[k][0].size for k in order[:-1]])
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        gaps = np.maximum.reduceat(np.abs(a - b) / scale, starts, axis=1).tolist()
        for g in np.flatnonzero(~(interior & ok.all(axis=1))).tolist():
            refuse(g, partial(_refuse_sensitivities, *group[g]))
        return [list(zip(_SENSITIVITY_NAMES, row)) for row in gaps]

    return _fold("sensitivity_agreement", _batched(bundles, evaluate), 1e-5)


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
    tax-damped slope, and debris falling in abatement. The 2 + 6 n m probes
    of every bundle of a shape are solved as one stack.
    """

    def evaluate(group, rows, rates, abatement, refuse):
        count, n, n_markets = rates.shape
        h = 1e-6 * np.maximum(1.0, np.abs(rates))       # own-tax stencil
        wide = 1e-4 * np.maximum(1.0, np.abs(rates))    # cross-derivative stencil
        h_ab = 1e-6 * np.maximum(1.0, np.abs(abatement))
        up, down = abatement + h_ab, abatement - h_ab
        # Probes in the order a per-probe loop takes them, so the first
        # invalid one raises that loop's error: Q +- h_ab at the base rates,
        # then per (sector, market) rate +- h at Q, rate + wide at Q +- h_ab
        # and rate - wide at Q +- h_ab.
        moved = np.stack(
            [rates + h, rates - h, rates + wide, rates + wide, rates - wide, rates - wide],
            axis=-1,
        )
        base = rates[:, None]
        pattern = np.stack([abatement, abatement, up, down, up, down], axis=1)
        fleets, _, stock = _stencil(
            group,
            rows,
            np.concatenate([base, base, _one_rate_probes(rates, moved)], axis=1),
            np.concatenate([up[:, None], down[:, None], np.tile(pattern, n * n_markets)], axis=1),
            refuse,
        )
        slope = (2.0 * h_ab)[:, None]
        abatement_fails = ~np.all((fleets[:, 0] - fleets[:, 1]) / slope > 0.0, axis=1)
        debris_fails = (stock[:, 0] - stock[:, 1]) / (2.0 * h_ab) >= 0.0
        probes = fleets[:, 2:].reshape(count, n, n_markets, 6, n)
        grads = (probes[:, :, :, 0] - probes[:, :, :, 1]) / (2.0 * h)[..., None]
        # Cross effect: abatement expansion flattens as the tax rises.
        slopes = (probes[:, :, :, 2::2] - probes[:, :, :, 3::2]) / slope[:, :, None, None, None]
        g, i, j = np.indices((count, n, n_markets), sparse=True)
        cross = (slopes[g, i, j, 0, i] - slopes[g, i, j, 1, i]) / (2.0 * wide)
        # The four tests per (sector, market), in the order they are listed;
        # a NaN rebound counts as not positive.
        off_diagonal = ~np.eye(n, dtype=bool)[:, None, :]
        failed = np.stack(
            [
                grads[g, i, j, i] >= 0.0,
                np.any(~(grads > 0.0) & off_diagonal, axis=3),
                grads.sum(axis=3) >= 0.0,
                cross >= 0.0,
            ],
            axis=-1,
        )
        entries = [
            [("dfleet_dabatement not positive",)] * fails + [("ddebris_dabatement not negative",)] * rises
            for fails, rises in zip(abatement_fails.tolist(), debris_fails.tolist())
        ]
        for g, sector, market, test in np.argwhere(failed).tolist():
            entries[g].append((sector, market, _SIGN_FAILURES[test]))
        return entries

    bad = _batched(bundles, evaluate)
    return _report("comparative_statics_signs", float(len(bad)), bad)


def check_channel_identity(bundles: list[Bundle]) -> OracleReport:
    """cleanup + expansion - reduction equals the FD welfare derivative.

    The channels are :func:`~orbituse.regulation.welfare_channels` of every
    (sector, market) of a shape group at once, by its stacked form
    ``_stacked_channels`` on the analytic sensitivities. The derivative is
    Richardson-extrapolated: the plain central difference at h = 1e-6 cannot
    resolve the 1e-9 absolute identity tolerance once welfare reaches O(100);
    central differences at h = 1e-3 max(1, |rate|) and h/2 combined to
    fourth order can. The 4 n m welfare probes of every bundle of a shape are
    solved as one stack.
    """

    def evaluate(group, rows, rates, abatement, refuse):
        count, n, n_markets = rates.shape
        (dfleet_dtax, _, _, _), interior, fleets, survival = _analytic_rows(rows, rates, abatement)
        for g in np.flatnonzero(~interior).tolist():
            refuse(g, partial(sensitivities, *group[g]))
        h = 1e-3 * np.maximum(1.0, np.abs(rates))
        half = h / 2.0
        probes = _one_rate_probes(
            rates, np.stack([rates + half, rates - half, rates + h, rates - h], axis=-1)
        )
        size = probes.shape[1]
        levels = np.repeat(abatement[:, None], size, axis=1)
        probe_fleets, probe_survival, _ = _stencil(group, rows, probes, levels, refuse)
        welfare = _stacked_welfare(
            rows.repeat(size),
            probes.reshape(-1, n, n_markets),
            probe_fleets.reshape(-1, n),
            probe_survival.ravel(),
        )
        g, i, j = np.indices((count, n, n_markets), sparse=True)
        own = welfare.reshape(count, n, n_markets, 4, n_markets)[g, i, j, :, j]
        fd = (
            4.0 * ((own[..., 0] - own[..., 1]) / (2.0 * half))
            - (own[..., 2] - own[..., 3]) / (2.0 * h)
        ) / 3.0
        cleanup, expansion, reduction = _stacked_channels(rows, rates, dfleet_dtax, fleets, survival)
        gaps = np.abs(cleanup + expansion - reduction - fd).tolist()
        return [
            [(sector, market, gap) for sector, row in enumerate(table) for market, gap in enumerate(row)]
            for table in gaps
        ]

    return _fold("welfare_channel_identity", _batched(bundles, evaluate), 1e-9)


def check_welfare_quadratic(bundles: list[Bundle]) -> OracleReport:
    """Welfare is exactly quadratic in abatement: constant second differences.

    The five abatement probes of every bundle of a shape are one stack.
    """

    def evaluate(group, rows, rates, abatement, refuse):
        count, n, n_markets = rates.shape
        levels = abatement[:, None] + 0.5 * np.arange(5)
        probes = np.repeat(rates[:, None], 5, axis=1)
        fleets, survival, _ = _stencil(group, rows, probes, levels, refuse)
        welfare = _stacked_welfare(
            rows.repeat(5), probes.reshape(-1, n, n_markets), fleets.reshape(-1, n), survival.ravel()
        ).reshape(count, 5, n_markets)
        second = welfare[:, :3] - 2.0 * welfare[:, 1:4] + welfare[:, 2:]
        second = np.swapaxes(second, 1, 2).tolist()      # (G, m, 3)
        return [
            [(market, max(values) - min(values)) for market, values in enumerate(table)]
            for table in second
        ]

    return _fold("welfare_quadratic_in_abatement", _batched(bundles, evaluate), 1e-10)


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
