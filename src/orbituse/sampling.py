"""Random scenario generation for verification batches and property suites.

Draw ranges: prices and costs in [0.1, 10], collision coefficient in
[0, 0.3], debris per satellite in [0.5, 2], legacy debris in [0, 8].
Draws are rejected until they satisfy the structural conditions the
comparative statics need: bounded marginal risk (kd < 1/2), valid survival
at the equilibrium, every sector interior, a strictly positive abatement
intercept, and a best-response map the iteration oracle can actually
contract on. The slope bounds alone do not guarantee that last one once
four or more sectors interact strongly.

The contraction filter: sector i answers the rest of the world's fleet
with slope ``-delta_i``, ``delta_i = kd rev_i/(kd rev_i + m_i) >= 0``, so the
oracle's half-damped map is ``I/2 + M/2`` with ``M = D(I - 11^T)``,
``D = diag(delta)``. ``M`` has the eigenvalues ``mu`` of the rank-one
downdate ``D - v v^T`` (``v_i = sqrt(delta_i)``), which are real, so the
map's spectral radius is at most 0.99 exactly when every ``mu`` lies in
[-2.98, 0.98]. ``D + 2.98 I - v v^T`` is positive semidefinite iff
``g = sum delta_i/(delta_i + 2.98) <= 1``, and no ``mu`` exceeds
``max delta``. So a draw is rejected when ``g > 1 + 1e-9`` and accepted
when ``g < 1 - 1e-9`` and ``max delta < 0.98 - 1e-9``. In the band between,
or for a negative or non-finite ``delta``, the filter falls back to the
eigenvalues of the assembled map (:func:`_damped_spectral_radius`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import OrbitUseError
from .open_access import solve_equilibrium
from .scenario import Scenario, TaxSchedule, effective_prices

PRICE_RANGE = (0.1, 10.0)
COST_RANGE = (0.1, 10.0)
COLLISION_RANGE = (0.0, 0.3)
DEBRIS_PER_SAT_RANGE = (0.5, 2.0)
LEGACY_RANGE = (0.0, 8.0)
DAMAGES_RANGE = (0.05, 3.0)
ABATEMENT_COST_RANGE = (0.2, 5.0)
TAX_RANGE = (0.0, 0.3)

CONTRACTION_LIMIT = 0.99
INTERIOR_MARGIN = 1e-6
SURVIVAL_MARGIN = 1e-4
PHI_MARGIN = 1e-3
DECISION_BAND = 1e-9
MAX_TRIES = 1000


class SamplingExhausted(OrbitUseError):
    """Rejection sampling failed to produce a scenario within its budget."""


def _damped_spectral_radius(scenario: Scenario, taxes: TaxSchedule) -> float:
    """Spectral radius of the oracle's half-damped best-response map."""
    kd = scenario.collision_coeff * scenario.debris_per_sat
    revenue = effective_prices(scenario, taxes)
    slopes = -kd * (revenue / (kd * revenue + scenario.cost_array))
    interaction = np.tile(slopes[:, None], (1, slopes.size))
    np.fill_diagonal(interaction, 0.0)
    matrix = 0.5 * np.eye(slopes.size) + 0.5 * interaction
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def _contracts(scenario: Scenario, taxes: TaxSchedule) -> bool:
    """``_damped_spectral_radius(...) <= CONTRACTION_LIMIT``, in closed form
    outside :data:`DECISION_BAND` of the boundary (module docstring)."""
    kd = scenario.collision_coeff * scenario.debris_per_sat
    deltas = []
    for row, cost in zip(taxes.rates, scenario.costs):
        revenue = sum((1.0 - t) * p for t, p in zip(row, scenario.prices))
        deltas.append(kd * (revenue / (kd * revenue + cost)))
    if min(deltas) >= 0.0:
        # The radius is at most L iff every mu lies in [-(1 + 2L), 2L - 1].
        floor, ceiling = 1.0 + 2.0 * CONTRACTION_LIMIT, 2.0 * CONTRACTION_LIMIT - 1.0
        g = sum(delta / (delta + floor) for delta in deltas)
        if g > 1.0 + DECISION_BAND:
            return False
        if g < 1.0 - DECISION_BAND and max(deltas) < ceiling - DECISION_BAND:
            return True
    return _damped_spectral_radius(scenario, taxes) <= CONTRACTION_LIMIT


def sample_scenario(
    rng: np.random.Generator,
    n_sectors: int | None = None,
    sector_range: tuple[int, int] = (1, 6),
    collision_range: tuple[float, float] = COLLISION_RANGE,
    with_taxes: bool = False,
    require_kessler_risk: bool = False,
) -> tuple[Scenario, TaxSchedule]:
    """Draw one scenario (and tax schedule) passing the validity filters.

    Draws are filtered at zero abatement, and every sector of a draw is
    interior: active, with a fleet above ``INTERIOR_MARGIN`` times the
    larger of 1 and the largest fleet. ``with_taxes`` draws every rate from
    ``TAX_RANGE`` instead of leaving the schedule at zero. After
    ``MAX_TRIES`` rejected draws, SamplingExhausted is raised.

    ``require_kessler_risk`` places the catastrophe threshold strictly
    below the zero-abatement debris stock, keeps enough debris headroom
    for the stencil of ``verification.check_welfare_quadratic``, which
    probes welfare up to abatement 2, and is meant for treaty-facing
    batches. Strict-sign suites pass a ``collision_range``
    bounded away from zero, since every collision-mediated effect vanishes
    identically at k = 0.
    """
    for _ in range(MAX_TRIES):
        n_s = n_sectors if n_sectors is not None else int(rng.integers(sector_range[0], sector_range[1] + 1))
        n_m = n_s + int(rng.integers(0, 2))
        prices = tuple(rng.uniform(*PRICE_RANGE, size=n_m).tolist())
        costs = tuple(rng.uniform(*COST_RANGE, size=n_s).tolist())
        k = float(rng.uniform(*collision_range))
        d = float(rng.uniform(*DEBRIS_PER_SAT_RANGE))
        if k * d >= 0.5:
            continue
        legacy = float(rng.uniform(*LEGACY_RANGE))
        if 1.0 - k * legacy <= PHI_MARGIN:
            continue
        damages = float(rng.uniform(*DAMAGES_RANGE))
        cost_coeff = float(rng.uniform(*ABATEMENT_COST_RANGE))
        # The only scenario constraints a draw can break: at least one
        # sector (from the caller's sector_range) and k >= 0, which also
        # refuses a NaN k (from its collision_range).
        if n_s < 1 or not k >= 0.0:
            continue

        scenario = Scenario(
            n_markets=n_m,
            n_sectors=n_s,
            prices=prices,
            costs=costs,
            collision_coeff=k,
            debris_per_sat=d,
            legacy_debris=legacy,
            catastrophe_threshold=1.0,  # placeholder, repositioned below
            catastrophe_damages=damages,
            abatement_cost=cost_coeff,
        )
        if with_taxes:
            rates = rng.uniform(*TAX_RANGE, size=(n_s, n_m)).tolist()
            taxes = TaxSchedule._of(tuple(map(tuple, rates)))
        else:
            taxes = TaxSchedule.zeros(n_s, n_m)

        if not _contracts(scenario, taxes):
            continue
        try:
            equilibrium = solve_equilibrium(scenario, taxes)
        except OrbitUseError:
            continue
        fleets = equilibrium.fleet_array
        if not all(equilibrium.active) or fleets.min() <= INTERIOR_MARGIN * max(1.0, fleets.max()):
            continue
        survival = equilibrium.debris.survival
        if not SURVIVAL_MARGIN <= survival <= 1.0:
            continue

        stock = equilibrium.debris.stock
        if require_kessler_risk:
            # Threshold strictly below today's debris, with room for
            # check_welfare_quadratic's stencil to probe welfare at
            # abatement levels up to 2 without the stock (and with it the
            # survival bound) leaving the valid range.
            if stock <= 2.2:
                continue
            threshold = float(rng.uniform(0.35, 0.85) * stock)
            if stock - threshold < 0.05:
                continue
        else:
            threshold = float(rng.uniform(0.5, 1.5) * max(stock, 1.0))
        return dataclasses.replace(scenario, catastrophe_threshold=threshold), taxes
    raise SamplingExhausted(f"no admissible scenario after {MAX_TRIES} draws")
