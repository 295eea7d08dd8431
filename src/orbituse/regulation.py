"""National welfare, tax best responses, and the global regulatory equilibrium.

Each market values the satellite services it receives, discounted by
collision risk. Raising a tax on one sector shrinks that sector, expands
the others, and cleans the orbital environment; the three channels are
exposed separately and their sum is held to the finite-difference
derivative of welfare. Markets best-respond with box-constrained tax
columns, and the global regulatory equilibrium is the fixed point of
damped simultaneous best responses. The iterates of a run are blended
toward the same responses on Python floats, and one call of the stacked
rule evaluates every market's candidate columns at all of them; the run
is kept up to the first iterate whose responses change. A response that
never changes costs two calls, one at the start and one for the run that
converges. The rule splits its stack into passes of at most
``CANDIDATE_BUDGET`` tax rates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .open_access import (
    OpenAccessEquilibrium,
    _phi,
    _stacked_fleets,
    sensitivities,
    solve_equilibrium,
)
from .scenario import Scenario, ScenarioRows, TaxSchedule

BEST_RESPONSE_VALUE_TIE = 1e-10
# Most tax rates one best-response pass may stack, (n + 2) 2^(n-1) n m per
# market and iterate: twelve sectors fit up to 24 markets, thirteen never
# do.
CANDIDATE_BUDGET = 2**23
# The stock = 0 crossing is taken where share = phi (1 + CROSSING_MARGIN).
CROSSING_MARGIN = 64.0 * np.finfo(float).eps
CONVERGENCE_TOLERANCE = 1e-8
MAX_ITERATIONS = 10_000
DAMPING = 0.5


@dataclass(frozen=True)
class WelfareReport:
    """Per-market welfare and its gross (pre-collision-risk) value."""

    welfare: tuple[float, ...]
    gross_value: tuple[float, ...]
    survival: float


@dataclass(frozen=True)
class ChannelDecomposition:
    """Welfare response to one tax, split into its three channels.

    total = cleanup + expansion - reduction, and equals the derivative of
    welfare with respect to that tax.
    """

    cleanup: float      # value gained from a cleaner orbital environment
    expansion: float    # value gained from untaxed sectors expanding
    reduction: float    # value lost from the taxed sector shrinking
    total: float


@dataclass(frozen=True)
class AssumptionThreeReport:
    """Exact welfare-improvement condition for a tax at the zero-tax baseline.

    ``holds`` is equivalent to the welfare derivative being positive there;
    ``lhs``/``rhs`` are the two sides of the inequality written in
    semi-elasticity form (lhs = -kd times the total-fleet response).
    """

    holds: bool
    lhs: float
    rhs: float
    semi_elasticity: float


@dataclass(frozen=True)
class RegulatoryEquilibrium:
    """Fixed point (or last iterate) of damped simultaneous tax best responses."""

    taxes: TaxSchedule
    equilibrium: OpenAccessEquilibrium
    iterations: int
    converged: bool
    max_update: float
    update_trace: tuple[float, ...]


def _stacked_gross(scenario, rates: np.ndarray, fleets: np.ndarray) -> np.ndarray:
    """Per-market gross value ``(B, m)`` of stacked equilibria; ``scenario`` may
    be a ``ScenarioRows``. :func:`national_welfare` is its one-row call."""
    kept = (np.swapaxes(1.0 - rates, 1, 2) @ fleets[:, :, None])[:, :, 0]
    return scenario.price_array * kept


def _stacked_welfare(
    scenario, rates: np.ndarray, fleets: np.ndarray, survival: np.ndarray
) -> np.ndarray:
    """Per-market welfare ``(B, m)`` of stacked equilibria, bit for bit :func:`national_welfare`'s."""
    return survival[:, None] * _stacked_gross(scenario, rates, fleets)


def national_welfare(
    scenario: Scenario, taxes: TaxSchedule, abatement: float = 0.0
) -> WelfareReport:
    """Welfare each market receives at the open-access equilibrium.

    Catastrophe damages are deliberately excluded: a market acting alone
    does not internalize them.
    """
    return _welfare_report(scenario, taxes, solve_equilibrium(scenario, taxes, abatement))


def _welfare_report(
    scenario: Scenario, taxes: TaxSchedule, equilibrium: OpenAccessEquilibrium
) -> WelfareReport:
    """:func:`national_welfare` read off ``equilibrium``, the solve at ``taxes``."""
    gross = _stacked_gross(scenario, taxes.as_array[None], equilibrium.fleet_array[None])[0]
    survival = equilibrium.debris.survival
    return WelfareReport(
        welfare=tuple(float(w) for w in survival * gross),
        gross_value=tuple(float(g) for g in gross),
        survival=float(survival),
    )


def _stacked_channels(
    scenario, rates: np.ndarray, dfleet_dtax: np.ndarray, fleets: np.ndarray, survival: np.ndarray
):
    """Cleanup, expansion and reduction ``(B, n, m)`` of stacked equilibria.

    ``scenario`` is a ``ScenarioRows``; ``dfleet_dtax`` is the ``(B, n, n, m)``
    analytic response, ``fleets`` ``(B, n)`` and ``survival`` ``(B,)``.
    Entry ``[b, i, j]`` is :func:`welfare_channels` of market j's welfare
    in sector i's tax at row b. Sums over the responding sector run along
    a contiguous last axis.
    """
    count, n, n_markets = rates.shape
    dfleet = np.ascontiguousarray(np.moveaxis(dfleet_dtax, 1, -1))    # (B, i, j, a)
    keep = np.swapaxes(1.0 - rates, 1, 2)[:, None]                    # (B, 1, j, a)
    others = np.array([[a for a in range(n) if a != i] for i in range(n)], dtype=int)
    spill = np.take_along_axis(keep * dfleet, others.reshape(1, n, 1, n - 1), axis=3)
    value = survival[:, None, None] * scenario.price_array[:, None, :]     # survival p_j
    gross = _stacked_gross(scenario, rates, fleets)[:, None, :]
    ddebris = scenario.debris_per_sat[:, :, None] * dfleet.sum(axis=3)
    cleanup = -scenario.collision_coeff[:, :, None] * ddebris * gross
    expansion = value * spill.sum(axis=3)
    g, i, j = np.indices((count, n, n_markets), sparse=True)
    reduction = value * (fleets[:, :, None] - (1.0 - rates) * dfleet_dtax[g, i, i, j])
    return cleanup, expansion, reduction


def welfare_channels(
    scenario: Scenario,
    taxes: TaxSchedule,
    abatement: float,
    sector: int,
    market: int,
) -> ChannelDecomposition:
    """Three-channel split of one market's welfare response to one tax.

    The cleanup channel carries the full equilibrium debris response; the
    expansion channel aggregates every sector other than the taxed one, so
    the identity total = cleanup + expansion - reduction holds for any
    number of sectors. This is the one-bundle call of
    :func:`_stacked_channels`, which ``verify`` runs on whole batches.
    """
    report = sensitivities(scenario, taxes, abatement)
    equilibrium = solve_equilibrium(scenario, taxes, abatement)
    channels = _stacked_channels(
        ScenarioRows.of([scenario]),
        taxes.as_array[None],
        report.dfleet_dtax[None],
        equilibrium.fleet_array[None],
        np.array([equilibrium.debris.survival]),
    )
    cleanup, expansion, reduction = (float(c[0, sector, market]) for c in channels)
    return ChannelDecomposition(
        cleanup=cleanup,
        expansion=expansion,
        reduction=reduction,
        total=cleanup + expansion - reduction,
    )


@functools.lru_cache(maxsize=None)
def _box_edges(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2^n vertices of [0, 1]^n and its n 2^(n-1) edges.

    Edge e runs from vertex ``starts[e]`` (whose coordinate ``free[e]`` is
    0) along that coordinate to 1.
    """
    vertices = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    rows, free = np.nonzero(vertices == 0.0)
    arrays = vertices, vertices[rows], free
    for array in arrays:
        array.setflags(write=False)     # shared by every call through the cache
    return arrays


def best_response_taxes(
    scenario: Scenario,
    taxes: TaxSchedule,
    abatement: float,
    market: int,
) -> np.ndarray:
    """Tax column maximizing one market's welfare, others held fixed.

    The candidates are the 2^n box vertices of market j's kept shares
    ``x = 1 - tau`` and, on each of the n 2^(n-1) box edges, the stock = 0
    crossing when it lies inside the edge, taken 64 ulps inside the bound
    (``share = phi (1 + 64 eps)``). README's "Best responses" proves that
    the best response is one of them.

    Every candidate is evaluated at once by the kernel's stacked form
    (fleets ``phi rho/share``, survival ``phi/share``, with the arithmetic
    of :func:`solve_equilibrium`), so a column judged feasible here is
    feasible for that solve. Ties within 1e-10 of the best value break
    toward the lexicographically smallest column. If no column is feasible,
    the PhysicallyInvalidError that :func:`solve_equilibrium` raises at the
    incoming schedule is raised.

    When ``phi (1 + 64 eps) < 1`` and no rate is above 1, every crossing's
    share is at least 1, so none lies inside its edge and only the 2^n
    vertices are evaluated. Otherwise there are up to (n + 2) 2^(n-1)
    candidates for n sectors. The cost grows exponentially: on one core of
    a 2-vCPU x86-64 host, with as many markets as sectors, a call takes
    about 0.06 ms up to three sectors at phi < 1, 0.07 ms at six and 1.1 ms
    at ten; at phi > 1 it takes 0.08 ms at three, 0.14 ms at six and 6 ms
    at ten. This is the one-schedule call of the rule
    :func:`regulatory_equilibrium` runs on stacks of iterates, every market
    at once. BudgetExceededError is raised, before anything is built, when
    one market's candidates could hold more than ``CANDIDATE_BUDGET`` tax
    rates.
    """
    columns, empty = _responder(scenario, abatement, (market,))(taxes.as_array[None])
    if empty[0]:
        solve_equilibrium(scenario, taxes, abatement)
    return columns[0, :, 0]


def _responder(scenario: Scenario, abatement: float, markets):
    """Check the budget, build what no schedule changes, and return the rule
    of :func:`best_response_taxes` on a stack of schedules.

    The rule maps rates ``(K, n, m)`` to the columns ``(K, n, len(markets))``
    and a ``(K,)`` flag, set where some market has no feasible column; the
    caller then makes the solve that raises. Each iterate's columns are
    those of its own one-schedule call, bit for bit. The rule splits the
    stack into passes of at most ``CANDIDATE_BUDGET`` tax rates: as many
    iterates as fit with all the markets, or else one iterate with as many
    markets as fit. Each edge keeps a crossing row, at its start vertex
    and masked out where the crossing is not in (0, 1): fixed shapes keep
    every value bitwise. A pass that no crossing can enter (crossing bound
    below 1, no rate above 1) stacks the 2^n vertex rows alone, with the
    same values.
    """
    n, n_markets = scenario.n_sectors, scenario.n_markets
    # Tax rates one market's candidates stack at one iterate.
    size = (n + 2) * 2 ** (n - 1) * n * n_markets
    if size > CANDIDATE_BUDGET:
        raise BudgetExceededError(
            f"{n}-sector best responses could stack {size} tax rates, "
            f"over the {CANDIDATE_BUDGET} budget"
        )
    group = CANDIDATE_BUDGET // size
    phi, kd = _phi(scenario, abatement)
    bound = phi * (1.0 + CROSSING_MARGIN)
    costs = scenario.cost_array
    # A crossing's edge starts at share e0 = 1 + kd sum((a + p_j x)/m) >= 1
    # when kd and the prices are >= 0, the costs > 0 and no rate is above 1.
    # No crossing then lies in (0, 1) if bound < 1: the pass stacks the
    # vertices alone.
    prunable = bool(
        bound < 1.0 and kd >= 0.0
        and (scenario.price_array >= 0.0).all() and (costs > 0.0).all()
    )
    vertices, starts, free = _box_edges(n)
    n_vertices = vertices.shape[0]
    # Candidate columns 1 - x: the vertices, then one row per edge, which
    # each pass moves to that edge's crossing.
    template = 1.0 - np.concatenate([vertices, starts])
    crossings = n_vertices + np.arange(starts.shape[0])
    markets = np.asarray(markets)
    iterates = max(1, group // markets.size)    # per pass
    p = scenario.price_array[markets]
    p_starts = p[:, None, None, None] * starts
    slopes = (kd * p[:, None] / costs[free])[:, None]

    def respond(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        responses = np.empty((stacked.shape[0], n, markets.size))
        empty = np.zeros(stacked.shape[0], dtype=bool)
        passes = itertools.product(range(0, stacked.shape[0], iterates), range(0, markets.size, group))
        for lo, first in passes:
            rows, part = slice(lo, lo + iterates), slice(first, first + group)
            rates, ms = stacked[rows], markets[part]
            # Market ms[own] puts its candidates at row own of the
            # (markets, K, candidates, n, m) stack.
            count, own = rates.shape[0], np.arange(ms.size)
            # rates > 1 is false for NaN: a crossing that reads a NaN rate has
            # a NaN e0, and one that does not has e0 >= 1.
            vertex_only = prunable and not (rates > 1.0).any()
            if vertex_only:
                columns = np.broadcast_to(template[:n_vertices], (own.size, count, n_vertices, n))
                shares = vertices
            else:
                # Revenue from the other markets as (1 - rates, own column
                # zeroed) @ p: the total less the own market's term rounds
                # differently.
                other = np.repeat((1.0 - rates)[None], own.size, axis=0)
                other[own, :, :, ms] = 0.0
                a = other @ scenario.price_array
                # Sums run over every sector. When phi > 0 the inactive ones
                # have rho = 0 and add nothing; when phi <= 0 survival
                # phi/share is 0 or negative whatever the share, and no
                # crossing lies in (0, 1).
                e0 = 1.0 + kd * ((a[..., None, :] + p_starts[part]) / costs).sum(axis=-1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = (bound - e0) / slopes[part]
                inside = (t > 0.0) & (t < 1.0)
                columns = np.empty((*inside.shape[:2], *template.shape))
                columns[...] = template
                columns[..., crossings, free] = 1.0 - np.where(inside, t, 0.0)
                shares = 1.0 - columns
            stack = np.empty((own.size, count, *columns.shape[-2:], n_markets))
            stack[...] = rates[:, None]
            stack[own, :, :, :, ms] = columns
            fleets, survival = _stacked_fleets(scenario, stack.reshape(-1, n, n_markets), phi, kd)
            survival = survival.reshape(stack.shape[:3])
            value = survival * (
                p[part, None, None] * (shares * fleets.reshape(stack.shape[:4])).sum(axis=-1)
            )
            feasible = (0.0 <= survival) & (survival <= 1.0)
            if not vertex_only:
                feasible[..., n_vertices:] &= inside
            value = np.where(feasible, value, -np.inf)
            best = value.max(axis=-1, keepdims=True)
            # Feasible columns are those with share >= phi > 0, so the
            # zero-tax vertex (largest share) is feasible if any column is.
            # Where none is, the incoming column included, the solve at
            # that schedule raises.
            empty[rows] |= (best[..., 0] == -np.inf).any(axis=0)
            tied = value >= best - BEST_RESPONSE_VALUE_TIE
            # The lexicographically smallest tied column. Most rows tie at
            # one column only; the others narrow to their least first
            # coordinate, then second, and so on.
            if (tied.sum(axis=-1) > 1).any():
                for c in range(n):
                    coordinate = columns[..., c]
                    least = np.where(tied, coordinate, np.inf).min(axis=-1, keepdims=True)
                    tied &= coordinate == least
            chosen = columns[own[:, None], np.arange(count), np.argmax(tied, axis=-1)]
            responses[rows, ..., part] = chosen.transpose(1, 2, 0)
        return responses, empty

    return respond


def _blend_run(rates: np.ndarray, response: np.ndarray, count: int) -> tuple[np.ndarray, list]:
    """Up to ``count`` steps ``(1 - DAMPING) x + DAMPING b`` from ``rates``
    toward ``response``, to the first whose update ``max |new - x|``
    converges: the blends ``(K, n, m)`` and the updates. The same IEEE
    operations on Python floats give the numpy loop's values bit for bit; a
    non-finite rate stays so and makes every update NaN, as ``np.max`` does."""
    keep, step = 1.0 - DAMPING, (DAMPING * response).ravel().tolist()
    x = rates.ravel().tolist()
    finite = all(map(math.isfinite, x))
    rows, updates = [], []
    while len(rows) < count:
        new = [keep * a + s for a, s in zip(x, step)]
        updates.append(max(map(abs, map(operator.sub, new, x))) if finite else math.nan)
        rows.append(new)
        x = new
        if updates[-1] < CONVERGENCE_TOLERANCE:
            break
    return np.array(rows).reshape(-1, *rates.shape), updates


def regulatory_equilibrium(
    scenario: Scenario,
    abatement: float,
    start: TaxSchedule,
    max_iterations: int = MAX_ITERATIONS,
) -> RegulatoryEquilibrium:
    """Damped simultaneous best-response iteration over all markets.

    Simultaneous undamped updates cycle in symmetric scenarios, so each
    step blends half the old schedule with half the best responses
    (``DAMPING``), until no rate moves by ``CONVERGENCE_TOLERANCE`` or more.
    Non-convergence is reported honestly in the returned record rather
    than raised: the existence argument is non-constructive, so a failed
    search is a diagnostic, not a bug. A physically invalid start raises
    its PhysicallyInvalidError before any step.

    While the best responses ``b`` stay the same, the steps are repeated
    blends toward ``b``. So the loop blends a run of iterates toward the
    last response, takes every market's best response at all of them in
    one call of the stacked rule (see :func:`best_response_taxes`), and
    keeps the iterates up to the first whose response is not ``b``. The
    run from the start's response, and a run after one whose responses
    all held, blends until an update converges or ``max_iterations`` is
    reached; the run after a change is one step. The loop ends on such an
    iterate, so the rule is not asked for its response, and a run that is
    only that iterate makes no call: a response that never changes costs
    two calls, and a start already at its fixed point one. Every iterate
    past the first changed response is discarded unexamined, so the
    record and any error are the one-step-at-a-time loop's, bit for bit.
    """
    solve_equilibrium(scenario, start, abatement)
    rates = start.as_array
    trace: list[float] = []
    converged = False
    held = True     # the start's run blends to convergence, as after a run that held
    if max_iterations > 0:  # no step, no best response and no budget check
        respond = _responder(scenario, abatement, range(scenario.n_markets))
        # The start has solved, so the solve an empty box calls for would
        # not raise.
        response = respond(rates[None])[0][0]
    while not converged and len(trace) < max_iterations:
        remaining = max_iterations - len(trace)
        blends, updates = _blend_run(rates, response, remaining if held else 1)
        # The last blend ends the loop if it converged or used the last
        # iteration: its response is never read.
        asked = len(updates) - (updates[-1] < CONVERGENCE_TOLERANCE or len(updates) == remaining)
        held = True
        if asked:
            responses, empty = respond(blends[:asked])
            changed = (responses != response).any(axis=(1, 2))
            for k in np.flatnonzero(empty | changed):
                if empty[k]:
                    solve_equilibrium(scenario, TaxSchedule.from_array(blends[k]), abatement)
                if changed[k]:
                    blends, updates = blends[: k + 1], updates[: k + 1]
                    response, held = responses[k], False
                    break
        rates = blends[-1]
        trace += updates
        converged = trace[-1] < CONVERGENCE_TOLERANCE
    taxes = TaxSchedule.from_array(rates)
    return RegulatoryEquilibrium(
        taxes=taxes,
        equilibrium=solve_equilibrium(scenario, taxes, abatement),
        iterations=len(trace),
        converged=converged,
        max_update=trace[-1] if trace else np.inf,
        update_trace=tuple(trace),
    )


def check_assumption_three(
    scenario: Scenario, abatement: float, sector: int, market: int
) -> AssumptionThreeReport:
    """Does taxing this sector raise this market's welfare at zero taxes?

    Evaluates the chain-rule-exact inequality at the all-zero tax schedule:
    -kd * (total fleet response) > survival * (fleet share - semi-elasticity),
    both sides normalized by the total fleet. ``holds`` is exactly the sign
    of the welfare derivative with respect to this tax at that baseline.
    """
    zero = TaxSchedule.zeros(scenario.n_sectors, scenario.n_markets)
    report = sensitivities(scenario, zero, abatement)
    equilibrium = solve_equilibrium(scenario, zero, abatement)
    fleets = equilibrium.fleet_array
    total = float(fleets.sum())
    dtotal = float(report.dfleet_dtax[:, sector, market].sum())
    semi = dtotal / total
    kd = scenario.collision_coeff * scenario.debris_per_sat
    lhs = -kd * dtotal
    rhs = equilibrium.debris.survival * (fleets[sector] / total - semi)
    return AssumptionThreeReport(
        holds=bool(lhs > rhs), lhs=float(lhs), rhs=float(rhs), semi_elasticity=semi
    )
