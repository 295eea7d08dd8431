"""National welfare, tax best responses, and the global regulatory equilibrium.

Each market values the satellite services it receives, discounted by
collision risk. Raising a tax on one sector shrinks that sector, expands
the others, and cleans the orbital environment; the three channels are
exposed separately and their sum is held to the finite-difference
derivative of welfare. Markets best-respond with box-constrained tax
columns, and the global regulatory equilibrium is the fixed point of
damped simultaneous best responses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicallyInvalidError, SolverFailureError
from .open_access import (
    OpenAccessEquilibrium,
    _rho_form,
    _share,
    sensitivities,
    solve_equilibrium,
)
from .scenario import Scenario, TaxSchedule

BEST_RESPONSE_VALUE_TIE = 1e-10
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


def _welfare_arrays(
    scenario: Scenario, taxes: TaxSchedule, equilibrium: OpenAccessEquilibrium
) -> tuple[np.ndarray, np.ndarray, float]:
    fleets = equilibrium.fleet_array
    kept = (1.0 - taxes.as_array).T @ fleets          # services landing in each market
    gross = scenario.price_array * kept
    survival = equilibrium.debris.survival
    return survival * gross, gross, survival


def national_welfare(
    scenario: Scenario, taxes: TaxSchedule, abatement: float = 0.0
) -> WelfareReport:
    """Welfare each market receives at the open-access equilibrium.

    Catastrophe damages are deliberately excluded: a market acting alone
    does not internalize them.
    """
    equilibrium = solve_equilibrium(scenario, taxes, abatement)
    welfare, gross, survival = _welfare_arrays(scenario, taxes, equilibrium)
    return WelfareReport(
        welfare=tuple(float(w) for w in welfare),
        gross_value=tuple(float(g) for g in gross),
        survival=float(survival),
    )


def _column_value_and_gradient(
    scenario: Scenario, taxes: TaxSchedule, abatement: float, market: int
) -> tuple[float, np.ndarray, OpenAccessEquilibrium]:
    """Welfare of one market and its gradient in that market's tax column.

    Works on the current active set: pinned sectors contribute flat (zero)
    directions, which is the correct one-sided derivative away from the
    re-entry boundary.
    """
    equilibrium = solve_equilibrium(scenario, taxes, abatement)
    welfare, gross, survival = _welfare_arrays(scenario, taxes, equilibrium)
    fleets = equilibrium.fleet_array
    _, rho, phi, kd = _rho_form(scenario, taxes, abatement)
    active, share = _share(rho, phi, kd)
    keep = 1.0 - taxes.as_array[:, market]
    p_j = scenario.prices[market]
    # Taxing active sector i moves fleet a by -(p_j/m_i)(phi delta_ai - kd f_a)/share.
    scale = p_j / (scenario.cost_array * share)
    ddebris = -scenario.debris_per_sat * scale * (phi - kd * fleets.sum())
    dkept = -scale * (phi * keep - kd * (keep @ fleets))
    gradient = -scenario.collision_coeff * ddebris * gross[market] + survival * p_j * (
        dkept - fleets
    )
    gradient[~np.array(active)] = 0.0
    return float(welfare[market]), gradient, equilibrium


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
    number of sectors.
    """
    report = sensitivities(scenario, taxes, abatement)
    equilibrium = solve_equilibrium(scenario, taxes, abatement)
    _, gross, survival = _welfare_arrays(scenario, taxes, equilibrium)
    fleets = equilibrium.fleet_array
    rates = taxes.as_array
    p_j = scenario.prices[market]

    dfleet = report.dfleet_dtax[:, sector, market]
    ddebris = scenario.debris_per_sat * float(dfleet.sum())
    keep = 1.0 - rates[:, market]

    cleanup = -scenario.collision_coeff * ddebris * gross[market]
    others = np.arange(scenario.n_sectors) != sector
    expansion = survival * p_j * float((keep[others] * dfleet[others]).sum())
    reduction = survival * p_j * (fleets[sector] - keep[sector] * dfleet[sector])
    return ChannelDecomposition(
        cleanup=float(cleanup),
        expansion=float(expansion),
        reduction=float(reduction),
        total=float(cleanup + expansion - reduction),
    )


def _coarse_probes(n: int) -> list[np.ndarray]:
    """Deterministic probe set: lattice when cheap, axis sweeps otherwise."""
    if 3**n <= 729:
        grids = np.meshgrid(*([np.array([0.0, 0.5, 1.0])] * n), indexing="ij")
        return [np.array(point) for point in zip(*(g.ravel() for g in grids))]
    probes = [np.zeros(n), np.full(n, 0.5), np.ones(n)]
    for i in range(n):
        for level in (0.25, 0.5, 0.75, 1.0):
            point = np.zeros(n)
            point[i] = level
            probes.append(point)
    return probes


def best_response_taxes(
    scenario: Scenario,
    taxes: TaxSchedule,
    abatement: float,
    market: int,
) -> np.ndarray:
    """Tax column maximizing one market's welfare, others held fixed.

    Multi-start L-BFGS-B with the analytic welfare gradient, seeded at the
    box corners, the center, the incoming column, and the best coarse-grid
    probe. Ties within 1e-10 of the best value break toward the
    lexicographically smallest column.
    """
    # Imported here: scipy.optimize costs more to import than the rest of
    # the package, and only this function needs it.
    from scipy.optimize import minimize

    n = scenario.n_sectors
    incoming = taxes.as_array[:, market].copy()

    def value(column: np.ndarray) -> float:
        try:
            w, _, _ = _column_value_and_gradient(
                scenario, taxes.with_column(market, column), abatement, market
            )
        except PhysicallyInvalidError:
            return -np.inf
        return w

    def negative(column: np.ndarray):
        try:
            w, g, _ = _column_value_and_gradient(
                scenario, taxes.with_column(market, column), abatement, market
            )
        except PhysicallyInvalidError:
            return 1e12, np.zeros(n)
        return -w, -g

    probes = _coarse_probes(n)
    probe_values = [(value(p), p) for p in probes]
    best_probe = max(probe_values, key=lambda item: item[0])

    starts = [np.zeros(n), np.ones(n), np.full(n, 0.5), incoming, best_probe[1]]
    candidates = list(probe_values)
    candidates.append((value(incoming), incoming))
    for start in starts:
        result = minimize(
            negative,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * n,
            options={"maxiter": 300, "ftol": 1e-14, "gtol": 1e-10},
        )
        candidates.append((-float(result.fun), np.clip(result.x, 0.0, 1.0)))

    best_value = max(v for v, _ in candidates if np.isfinite(v))
    tied = [c for v, c in candidates if v >= best_value - BEST_RESPONSE_VALUE_TIE]
    chosen = min(tied, key=lambda c: tuple(c))
    if best_value + 1e-9 < best_probe[0]:
        raise SolverFailureError(
            "local tax search ended below its own coarse-grid probe"
        )
    return chosen


def regulatory_equilibrium(
    scenario: Scenario,
    abatement: float,
    start: TaxSchedule,
    damping: float = DAMPING,
    tolerance: float = CONVERGENCE_TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> RegulatoryEquilibrium:
    """Damped simultaneous best-response iteration over all markets.

    Simultaneous undamped updates cycle in symmetric scenarios, so each
    step blends half the old schedule with half the best responses.
    Non-convergence is reported honestly in the returned record rather
    than raised: the existence argument is non-constructive, so a failed
    search is a diagnostic, not a bug.
    """
    taxes = start
    trace: list[float] = []
    converged = False
    max_update = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        old = taxes.as_array
        responses = old.copy()
        for market in range(scenario.n_markets):
            responses[:, market] = best_response_taxes(
                scenario, taxes, abatement, market
            )
        blended = (1.0 - damping) * old + damping * responses
        max_update = float(np.max(np.abs(blended - old)))
        trace.append(max_update)
        taxes = TaxSchedule.from_array(blended)
        if max_update < tolerance:
            converged = True
            break
    return RegulatoryEquilibrium(
        taxes=taxes,
        equilibrium=solve_equilibrium(scenario, taxes, abatement),
        iterations=iterations,
        converged=converged,
        max_update=max_update,
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
