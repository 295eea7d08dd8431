"""Independent brute-force verifiers for the solvers.

Everything here deliberately avoids the code paths it audits: the fleet
iteration applies the raw best-response formula on Python floats, bit for
bit as the numpy array loop the tests keep; the pivot solver factorizes
the dense fleet system instead of using the closed-form kernel
(``interior_open_access`` factorizes a whole stack of such systems in one
LU pass, for rows where every sector is active); the grid maximizer
enumerates instead of calling the local optimizer; and the deviation
search spells out the abatement payoff inline. A passing grid report
certifies optimality on the grid only, which is weaker than continuous
optimality; tests state the radius they certify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    NoConvergenceError,
    NoValidEquilibriumError,
    PhysicallyInvalidError,
    SingularSystemError,
)
from .scenario import (
    AbatementProfile,
    Scenario,
    ScenarioRows,
    TaxSchedule,
    debris_stock,
    effective_prices,
)

GRID_BUDGET = 10**8
IMPROVEMENT_TOLERANCE = 1e-9
SINGULARITY_THRESHOLD = 1e-12
REENTRY_TOLERANCE = 1e-12
ITERATION_DAMPING = 0.5
ITERATION_TOLERANCE = 1e-12
DEVIATION_STEP = 1e-3


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one brute-force check."""

    target: str
    max_residual: float
    counterexamples: tuple
    passed: bool


def iterate_open_access(
    scenario: Scenario,
    taxes: TaxSchedule,
    abatement: float = 0.0,
    max_iterations: int = 100_000,
) -> np.ndarray:
    """Damped synchronous best-response iteration from an empty orbit.

    Each step moves every fleet ``ITERATION_DAMPING`` of the way to its
    best response; negative best responses clamp to zero. The iteration
    stops once no fleet moves by ``ITERATION_TOLERANCE`` or more. Converges
    whenever the damped map contracts; strongly coupled many-sector systems
    can cycle instead, which surfaces as NoConvergenceError rather than a
    wrong answer.

    The loop runs on Python floats, as numpy's dispatch outweighs the
    arithmetic at the few sectors ``verify`` draws. It follows the operation
    order of the numpy array loop in ``tests/test_oracle.py``, so results
    equal that loop bit for bit, errors included. numpy sums eight or more
    fleets in interleaved partial sums, so those totals go through numpy.
    """
    rates = taxes.as_array
    prices = scenario.price_array
    costs = scenario.cost_array
    k = scenario.collision_coeff
    d = scenario.debris_per_sat
    revenue = (1.0 - rates) @ prices
    denom = k * d * revenue + costs

    debris, abatement = scenario.legacy_debris, float(abatement)
    damping, keep = ITERATION_DAMPING, 1.0 - ITERATION_DAMPING
    # A zero denominator stays np.float64, so it divides to inf or NaN as an array does.
    sectors = [(rev, den or np.float64(den)) for rev, den in zip(revenue.tolist(), denom.tolist())]
    fleets, total, delta = [0.0] * scenario.n_sectors, 0.0, np.inf
    for _ in range(max_iterations):
        updated, moved, delta = [], 0.0, 0.0
        for f, (rev, den) in zip(fleets, sectors):
            response = rev * (1.0 - k * (d * (total - f) + debris - abatement)) / den
            # The clamp keeps -0.0 and NaN, and a NaN gap sticks, as in numpy.
            update = keep * f + damping * (0.0 if response < 0.0 else response)
            updated.append(update)
            moved += update
            gap = abs(update - f)
            delta = gap if gap > delta or gap != gap else delta
        fleets, total = updated, moved if len(updated) < 8 else float(np.sum(updated))
        if delta < ITERATION_TOLERANCE:
            return np.array(fleets)
    raise NoConvergenceError(
        f"best-response iteration still moving {delta:.3e} after "
        f"{max_iterations} iterations",
        last_iterate=np.array(fleets),
        update_norm=float(delta),
    )


def pivot_open_access(
    scenario: Scenario, taxes: TaxSchedule, abatement: float = 0.0
) -> np.ndarray:
    """Open-access fleets from the dense system with active-set pivoting.

    Solves ``(I - M) f = phi r`` with LU over all sectors, where row i of
    M holds ``-kd r_i`` off the diagonal. Any sector whose fleet comes out
    negative is pinned to zero (most negative first) and the reduced system
    is re-solved; pinned sectors whose best response turns positive re-enter.
    Raises SingularSystemError on a numerically singular active set,
    NoValidEquilibriumError when pinning cycles, and PhysicallyInvalidError
    when survival leaves [0, 1].
    """
    n = scenario.n_sectors
    k = scenario.collision_coeff
    kd = k * scenario.debris_per_sat
    revenue = effective_prices(scenario, taxes)
    r = revenue / (kd * revenue + scenario.cost_array)
    phi = 1.0 + k * (abatement - scenario.legacy_debris)
    intercepts = phi * r
    slopes = -kd * r
    interaction = np.tile(slopes[:, None], (1, n))
    np.fill_diagonal(interaction, 0.0)

    active = np.ones(n, dtype=bool)
    fleets = np.zeros(n)
    for _ in range(4 * n + 4):
        idx = np.flatnonzero(active)
        if idx.size:
            reduced = np.eye(idx.size) - interaction[np.ix_(idx, idx)]
            determinant = float(np.linalg.det(reduced))
            if abs(determinant) <= SINGULARITY_THRESHOLD:
                raise SingularSystemError(
                    f"|det|={abs(determinant):.3e} at active set {idx.tolist()}"
                )
            solution = np.linalg.solve(reduced, intercepts[idx])
            if np.any(solution < 0.0):
                active[idx[int(np.argmin(solution))]] = False
                continue
            fleets = np.zeros(n)
            fleets[idx] = solution
        else:
            fleets = np.zeros(n)
        # A pinned sector stays out only if re-entering is unprofitable.
        rest = fleets.sum() - fleets
        best_response = intercepts + slopes * rest
        entrants = (~active) & (best_response > REENTRY_TOLERANCE)
        if entrants.any():
            active[int(np.argmax(np.where(entrants, best_response, -np.inf)))] = True
            continue
        break
    else:
        raise NoValidEquilibriumError(
            "sector pinning cycled without reaching a complementary solution"
        )

    debris = debris_stock(scenario, float(fleets.sum()), abatement)
    if not debris.physically_valid:
        raise PhysicallyInvalidError(
            f"survival probability {debris.survival:.6f} outside [0, 1] "
            f"at debris stock {debris.stock:.6f}",
            debris=debris,
        )
    return fleets


def interior_open_access(
    scenario: Scenario | ScenarioRows, rates: np.ndarray, abatement: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fleets ``(B, n)`` of a ``(B, n, m)`` stack of tax rates, all sectors active.

    Row b builds ``I - M`` and ``phi r`` at ``rates[b]`` and ``abatement[b]``
    as :func:`pivot_open_access` does and solves the whole stack with one
    LU pass, without pivoting. ``scenario`` is one scenario for every row or
    a :class:`ScenarioRows` with one per row. ``ok[b]`` holds when ``|det| >
    SINGULARITY_THRESHOLD``, every fleet is positive and survival lies in
    [0, 1]: exactly the rows where the pivot solve returns with every
    sector active, and there it returns the same fleets bit for bit. Other
    rows are the caller's to refuse; their fleets are NaN where the system
    is singular.
    """
    n = rates.shape[1]
    k = scenario.collision_coeff
    kd = k * scenario.debris_per_sat
    revenue = ((1.0 - rates) @ scenario.price_array[..., None])[..., 0]
    r = revenue / (kd * revenue + scenario.cost_array)
    abatement = abatement[:, None]
    phi = 1.0 + k * (abatement - scenario.legacy_debris)
    interaction = np.repeat((-kd * r)[:, :, None], n, axis=2)
    interaction[:, np.arange(n), np.arange(n)] = 0.0
    reduced = np.eye(n) - interaction

    regular = np.abs(np.linalg.det(reduced)) > SINGULARITY_THRESHOLD
    fleets = np.full(r.shape, np.nan)
    fleets[regular] = np.linalg.solve(reduced[regular], (phi * r)[regular][:, :, None])[:, :, 0]
    stock = (
        scenario.debris_per_sat * fleets.sum(axis=1, keepdims=True)
        + scenario.legacy_debris - abatement
    )
    survival = (1.0 - k * stock)[:, 0]
    ok = regular & np.all(fleets > 0.0, axis=1) & (0.0 <= survival) & (survival <= 1.0)
    return fleets, ok


def _grid_axis(step: float, lower: float, upper: float) -> np.ndarray:
    count = int(np.floor((upper - lower) / step + 1e-9)) + 1
    axis = lower + step * np.arange(count)
    if axis[-1] < upper - 1e-12:
        axis = np.append(axis, upper)
    return axis


def grid_maximize(func, dims: int, step: float) -> tuple[np.ndarray, float]:
    """Exhaustive maximization on a regular grid over the unit box [0, 1]^dims.

    The grid always contains both box corners. Ties break to the
    lexicographically smallest argmax. Guards: at most 3 dimensions and
    at most 10^8 grid points.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if dims > 3:
        raise ValueError("grid maximization is guarded to at most 3 dimensions")
    axis = _grid_axis(step, 0.0, 1.0)
    if float(axis.size) ** dims > GRID_BUDGET:
        raise BudgetExceededError(
            f"{axis.size}^{dims} grid points exceed the {GRID_BUDGET:.0e} budget"
        )
    best_point = None
    best_value = -np.inf
    for point in itertools.product(axis, repeat=dims):
        value = func(np.array(point))
        if value > best_value:
            best_value = value
            best_point = np.array(point)
    return best_point, float(best_value)


def finite_difference(func, x: float) -> float:
    """Central difference of ``func`` at the number ``x``, step ``1e-6 max(1, |x|)``."""
    x = float(x)
    h = 1e-6 * max(1.0, abs(x))
    return (func(x + h) - func(x - h)) / (2.0 * h)


def _payoff(alpha, beta, c, damages, own, total, qbar):
    # Abatement payoff written out so this check shares nothing with the
    # treaty module.
    averted = total >= qbar - 1e-12 * max(1.0, abs(qbar))
    benefit = np.where(averted, alpha - beta * qbar, alpha - beta * total - damages)
    return benefit - 0.5 * c * own**2


def deviation_search_abatement(
    scenario: Scenario,
    coefficients,
    profile: AbatementProfile,
    qbar: float,
) -> OracleReport:
    """Scan unilateral abatement deviations for every party on a grid.

    For each party, candidate contributions run over [0, qbar + 1] at
    ``DEVIATION_STEP``; any deviation improving that party's payoff by more
    than ``IMPROVEMENT_TOLERANCE`` is a counterexample. A pass certifies
    grid optimality at that step only.
    """
    c = scenario.abatement_cost
    damages = scenario.catastrophe_damages
    grid = _grid_axis(DEVIATION_STEP, 0.0, qbar + 1.0)
    counterexamples = []
    worst = 0.0
    for party, coeff in enumerate(coefficients):
        own = profile.contributions[party]
        total = profile.total
        baseline = float(_payoff(coeff.alpha, coeff.beta, c, damages, own, total, qbar))
        totals = total - own + grid
        payoffs = _payoff(coeff.alpha, coeff.beta, c, damages, grid, totals, qbar)
        gains = payoffs - baseline
        best = int(np.argmax(gains))
        worst = max(worst, float(gains[best]))
        if gains[best] > IMPROVEMENT_TOLERANCE:
            counterexamples.append(
                (party, float(grid[best]), float(gains[best]))
            )
    return OracleReport(
        target="deviation_search_abatement",
        max_residual=worst,
        counterexamples=tuple(counterexamples),
        passed=not counterexamples,
    )
