"""Global open-access equilibrium: closed-form solve, reduction, statics.

Under open access each sector launches until its marginal profit is zero,
which makes the equilibrium fleet vector the solution of a small linear
system: ``(diag(1+s) - s 1^T) f = phi r`` with ``r_i = rev_i/(kd rev_i +
m_i)``, ``s = -kd r`` and ``phi = 1 + k(Q - D0)``. The matrix is diagonal
plus rank one, so Sherman-Morrison solves it exactly: with
``v = sum s/(1+s)``, ``f = phi r/((1+s)(1-v))``. Every sector with
``r > 0`` therefore shares the sign of ``phi``, and no active-set search
is needed. This module solves that system, collapses any number of
sectors to an exact two-player game, splits fleets into the
abatement-sensitive and abatement-free factors, and differentiates
everything with respect to taxes and abatement. The dense pivoting solve
lives in :mod:`orbituse.oracle` as the independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ActiveSetChangeError,
    NoConvergenceError,
    NonDecreasingDebrisError,
    PhysicallyInvalidError,
    SingularSystemError,
)
from .oracle import pivot_open_access
from .scenario import (
    DebrisState,
    Scenario,
    TaxSchedule,
    debris_stock,
    effective_prices,
)

SINGULARITY_THRESHOLD = 1e-12
FD_RELATIVE_STEP = 1e-6

ANALYTIC = "analytic"
FINITE_DIFFERENCE = "finite-difference"


@dataclass(frozen=True)
class LinearSystem:
    """Best-response system in stacked form: fleet_i = A_i + B_i * rest_i."""

    intercepts: tuple[float, ...]
    slopes: tuple[float, ...]
    determinant: float

    def interaction_matrix(self) -> np.ndarray:
        """Row i holds copies of slope i with a zero diagonal."""
        return _interaction_matrix(np.array(self.slopes, dtype=float))


@dataclass(frozen=True)
class OpenAccessEquilibrium:
    """Zero-profit fleet distribution with its decomposition and diagnostics."""

    fleets: tuple[float, ...]
    sigma: tuple[float, ...]           # abatement-sensitive factor
    r: tuple[float, ...]               # abatement-free sustainable-size factor
    debris: DebrisState
    active: tuple[bool, ...]
    determinant: float
    max_profit_residual: float

    @property
    def total_fleet(self) -> float:
        return float(sum(self.fleets))

    @property
    def fleet_array(self) -> np.ndarray:
        return np.array(self.fleets, dtype=float)


@dataclass(frozen=True)
class SensitivityReport:
    """First-order responses of the equilibrium to taxes and abatement.

    ``dfleet_dtax[i_prime, i, j]`` is the response of sector ``i_prime``'s
    fleet to the tax market ``j`` levies on sector ``i``.
    """

    dfleet_dtax: np.ndarray            # (n_sectors, n_sectors, n_markets)
    dfleet_dabatement: np.ndarray      # (n_sectors,)
    ddebris_dabatement: float
    drequired_dtax: np.ndarray         # (n_sectors, n_markets)
    method: str


@dataclass(frozen=True)
class AssumptionFlags:
    """Structural conditions the comparative statics rely on."""

    no_crowding_out: tuple[bool, ...]   # per sector: r_i < 1/(k d)
    bounded_marginal_risk: bool         # k d < 1/2


def _system_arrays(scenario: Scenario, taxes: TaxSchedule, abatement: float):
    revenue = effective_prices(scenario, taxes)
    kd = scenario.collision_coeff * scenario.debris_per_sat
    denom = kd * revenue + scenario.cost_array
    r = revenue / denom
    phi = 1.0 + scenario.collision_coeff * (abatement - scenario.legacy_debris)
    intercepts = phi * r
    slopes = -kd * r
    return revenue, denom, r, phi, intercepts, slopes


def _interaction_matrix(slopes: np.ndarray) -> np.ndarray:
    matrix = np.tile(slopes[:, None], (1, slopes.size))
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _determinant(slopes: list[float]) -> float:
    """det(diag(1+s) - s 1^T) = prod(1+s) (1 - sum s/(1+s))."""
    return float(
        math.prod(1.0 + s for s in slopes) * (1.0 - sum(s / (1.0 + s) for s in slopes))
    )


def _rank_one_inverse(slopes: np.ndarray) -> np.ndarray:
    """Inverse of diag(1+s) - s 1^T by Sherman-Morrison.

    With D = diag(1+s): D^-1 + (D^-1 s)(1^T D^-1)/(1 - 1^T D^-1 s).
    """
    scale = 1.0 / (1.0 + slopes)
    weighted = scale * slopes
    return np.diag(scale) + np.outer(weighted, scale) / (1.0 - weighted.sum())


def assemble_system(
    scenario: Scenario, taxes: TaxSchedule, abatement: float
) -> LinearSystem:
    """Intercepts, slopes, and determinant of the stacked best-response system."""
    _, _, _, _, intercepts, slopes = _system_arrays(scenario, taxes, abatement)
    return LinearSystem(
        intercepts=tuple(intercepts.tolist()),
        slopes=tuple(slopes.tolist()),
        determinant=_determinant(slopes.tolist()),
    )


def solve_equilibrium(
    scenario: Scenario, taxes: TaxSchedule, abatement: float = 0.0
) -> OpenAccessEquilibrium:
    """Solve the global open-access equilibrium in closed form.

    Sectors with ``r <= 0`` (revenue wiped out by taxes at or above 1) are
    pinned at zero. If ``phi > 0`` every other sector is active with
    ``f = phi r/((1+s)(1-v))``, ``v`` summed over the active sectors;
    otherwise every sector is pinned. The reported determinant is that of
    the active system, ``prod(1+s)(1-v)``, or of the full system when
    ``phi == 0`` and every fleet is zero at full rank. Raises
    SingularSystemError when it is at most 1e-12 in magnitude and
    PhysicallyInvalidError when survival falls outside [0, 1].
    """
    n = scenario.n_sectors
    revenue, _, r, phi, _, slopes = _system_arrays(scenario, taxes, abatement)
    # Python floats: on vectors this short numpy's per-call overhead dominates.
    r_list, s_list = r.tolist(), slopes.tolist()
    active = [phi > 0.0 and x > 0.0 for x in r_list]
    # At phi == 0 the full system solves to all-zero fleets with no pinning.
    pivot = active if phi != 0.0 else [True] * n
    determinant = _determinant([s for s, on in zip(s_list, pivot) if on])
    if abs(determinant) <= SINGULARITY_THRESHOLD:
        raise SingularSystemError(
            f"|det|={abs(determinant):.3e} at active set "
            f"{[i for i, on in enumerate(pivot) if on]}"
        )
    v = sum(s / (1.0 + s) for s, on in zip(s_list, active) if on)
    fleets = [
        phi * x / ((1.0 + s) * (1.0 - v)) if on else 0.0
        for x, s, on in zip(r_list, s_list, active)
    ]

    debris = debris_stock(scenario, sum(fleets), abatement)
    if not debris.physically_valid:
        raise PhysicallyInvalidError(
            f"survival probability {debris.survival:.6f} outside [0, 1] "
            f"at debris stock {debris.stock:.6f}",
            debris=debris,
        )
    survival = debris.survival
    residual = max(
        (
            abs(survival * w * f - m * (f * f))
            for w, m, f in zip(revenue.tolist(), scenario.costs, fleets)
        ),
        default=0.0,
    )
    return OpenAccessEquilibrium(
        fleets=tuple(fleets),
        sigma=tuple(f / x if x > 0.0 else 0.0 for f, x in zip(fleets, r_list)),
        r=tuple(r_list),
        debris=debris,
        active=tuple(f > 0.0 for f in fleets),
        determinant=determinant,
        max_profit_residual=residual,
    )


def reduce_two_player(
    scenario: Scenario, taxes: TaxSchedule, abatement: float, sector: int
) -> OpenAccessEquilibrium:
    """Collapse the game to two players while preserving the chosen sector.

    Player one keeps sector ``sector``'s own intercept/slope. Player two is
    the rest of the world: solving the complement subsystem with the chosen
    sector's fleet held fixed shows the aggregate of the others responds
    linearly, with intercept u/(1-v) and slope v/(1-v) where
    u = sum A_j/(1+B_j) and v = sum B_j/(1+B_j) over the complement. The
    resulting 2x2 solve reproduces the full equilibrium exactly: the chosen
    sector's fleet and the complement's aggregate match to solver precision.
    """
    if scenario.n_sectors < 2:
        raise ValueError("reduction requires at least two sectors")
    if not 0 <= sector < scenario.n_sectors:
        raise IndexError(f"sector index {sector} out of range")
    full = solve_equilibrium(scenario, taxes, abatement)
    revenue, _, r, _, intercepts, slopes = _system_arrays(scenario, taxes, abatement)
    kd = scenario.collision_coeff * scenario.debris_per_sat

    others = [
        j for j in range(scenario.n_sectors) if j != sector and full.active[j]
    ]
    u = sum(intercepts[j] / (1.0 + slopes[j]) for j in others)
    v = sum(slopes[j] / (1.0 + slopes[j]) for j in others)
    rest_intercept = u / (1.0 - v)
    rest_slope = v / (1.0 - v)

    a_own, b_own = intercepts[sector], slopes[sector]
    determinant = 1.0 - b_own * rest_slope
    if abs(determinant) <= SINGULARITY_THRESHOLD:
        raise SingularSystemError("two-player reduction is singular")
    own = (a_own + b_own * rest_intercept) / determinant
    rest = rest_intercept + rest_slope * own
    if own < 0.0:
        own, rest = 0.0, rest_intercept

    if kd > 0.0:
        r_rest = -rest_slope / kd
    else:
        r_rest = sum(r[j] for j in others)
    r_pair = np.array([r[sector], r_rest])
    fleets = np.array([own, rest])
    sigma = np.divide(fleets, r_pair, out=np.zeros_like(fleets), where=r_pair > 0.0)

    debris = debris_stock(scenario, float(fleets.sum()), abatement)
    survival = debris.survival
    # Synthetic player two has a consistent (price, cost) pair up to scale;
    # unit cost pins it and lets the zero-profit residual be checked.
    if kd * r_rest < 1.0 and r_rest > 0.0:
        rest_revenue = r_rest / (1.0 - kd * r_rest)
        rest_residual = survival * rest_revenue * rest - rest**2
    else:
        rest_residual = 0.0
    own_residual = (
        survival * revenue[sector] * own - scenario.costs[sector] * own**2
    )
    return OpenAccessEquilibrium(
        fleets=tuple(float(f) for f in fleets),
        sigma=tuple(float(s) for s in sigma),
        r=tuple(float(x) for x in r_pair),
        debris=debris,
        active=tuple(bool(f > 0.0) for f in fleets),
        determinant=determinant,
        max_profit_residual=float(max(abs(own_residual), abs(rest_residual))),
    )


def decompose(equilibrium: OpenAccessEquilibrium) -> tuple[np.ndarray, np.ndarray]:
    """Split fleets into (sigma, r): fleets = sigma * r elementwise.

    Only sigma responds to abatement; r is a pure function of prices,
    taxes, costs, and technology, so re-solving at a different abatement
    level returns a bitwise-identical r.
    """
    return np.array(equilibrium.sigma), np.array(equilibrium.r)


def check_assumptions(scenario: Scenario, taxes: TaxSchedule) -> AssumptionFlags:
    """Evaluate the no-crowding-out and bounded-marginal-risk conditions."""
    _, _, r, _, _, _ = _system_arrays(scenario, taxes, 0.0)
    kd = scenario.collision_coeff * scenario.debris_per_sat
    if kd == 0.0:
        per_sector = tuple(True for _ in r)
    else:
        per_sector = tuple(bool(ri < 1.0 / kd) for ri in r)
    return AssumptionFlags(
        no_crowding_out=per_sector,
        bounded_marginal_risk=bool(kd < 0.5),
    )


def _analytic_sensitivities(
    scenario: Scenario, taxes: TaxSchedule, abatement: float
) -> SensitivityReport:
    equilibrium = solve_equilibrium(scenario, taxes, abatement)
    if not all(equilibrium.active):
        raise ActiveSetChangeError(
            "analytic sensitivities need every sector interior (positive fleet)"
        )
    _, denom, r, phi, _, slopes = _system_arrays(scenario, taxes, abatement)
    n, n_markets = scenario.n_sectors, scenario.n_markets
    kd = scenario.collision_coeff * scenario.debris_per_sat

    inverse = _rank_one_inverse(slopes)

    fleets = equilibrium.fleet_array
    rest = fleets.sum() - fleets
    # Perturbing the tax market j levies on sector i moves only row i of the
    # system, through that sector's revenue weight.
    row_gain = (scenario.cost_array / denom**2) * (phi - kd * rest)
    dfleet_dtax = (
        -inverse[:, :, None]
        * row_gain[None, :, None]
        * scenario.price_array[None, None, :]
    )
    dfleet_dabatement = inverse @ (scenario.collision_coeff * r)
    ddebris = scenario.debris_per_sat * float(dfleet_dabatement.sum()) - 1.0
    drequired = scenario.debris_per_sat * dfleet_dtax.sum(axis=0)
    return SensitivityReport(
        dfleet_dtax=dfleet_dtax,
        dfleet_dabatement=dfleet_dabatement,
        ddebris_dabatement=ddebris,
        drequired_dtax=drequired,
        method=ANALYTIC,
    )


def _fd_step(value: float) -> float:
    return FD_RELATIVE_STEP * max(1.0, abs(value))


def _fd_sensitivities(
    scenario: Scenario, taxes: TaxSchedule, abatement: float
) -> SensitivityReport:
    # Stencils re-solve with the oracle's dense solver, so this path audits
    # the closed-form kernel instead of sharing it.
    active = pivot_open_access(scenario, taxes, abatement) > 0.0
    if not active.all():
        raise ActiveSetChangeError(
            "finite-difference sensitivities need every sector interior"
        )
    n, n_markets = scenario.n_sectors, scenario.n_markets
    dfleet_dtax = np.zeros((n, n, n_markets))
    for i in range(n):
        for j in range(n_markets):
            rate = taxes.rate(i, j)
            h = _fd_step(rate)
            hi = pivot_open_access(scenario, taxes.with_rate(i, j, rate + h), abatement)
            lo = pivot_open_access(scenario, taxes.with_rate(i, j, rate - h), abatement)
            if not (np.array_equal(hi > 0.0, active) and np.array_equal(lo > 0.0, active)):
                raise ActiveSetChangeError(
                    f"active set changed inside the stencil for tax [{i}][{j}]"
                )
            dfleet_dtax[:, i, j] = (hi - lo) / (2.0 * h)
    h = _fd_step(abatement)
    hi = pivot_open_access(scenario, taxes, abatement + h)
    lo = pivot_open_access(scenario, taxes, abatement - h)
    if not (np.array_equal(hi > 0.0, active) and np.array_equal(lo > 0.0, active)):
        raise ActiveSetChangeError("active set changed inside the abatement stencil")
    dfleet_dabatement = (hi - lo) / (2.0 * h)
    ddebris = (
        debris_stock(scenario, float(hi.sum()), abatement + h).stock
        - debris_stock(scenario, float(lo.sum()), abatement - h).stock
    ) / (2.0 * h)
    drequired = scenario.debris_per_sat * dfleet_dtax.sum(axis=0)
    return SensitivityReport(
        dfleet_dtax=dfleet_dtax,
        dfleet_dabatement=dfleet_dabatement,
        ddebris_dabatement=float(ddebris),
        drequired_dtax=drequired,
        method=FINITE_DIFFERENCE,
    )


def sensitivities(
    scenario: Scenario,
    taxes: TaxSchedule,
    abatement: float = 0.0,
    method: str = ANALYTIC,
) -> SensitivityReport:
    """Equilibrium responses to every tax rate and to abatement.

    The analytic path differentiates the linear system in place through its
    rank-one inverse; the finite-difference path re-solves central stencils
    with the oracle's dense solver and exists to audit the analytic one.
    """
    if method == ANALYTIC:
        return _analytic_sensitivities(scenario, taxes, abatement)
    if method == FINITE_DIFFERENCE:
        return _fd_sensitivities(scenario, taxes, abatement)
    raise ValueError(f"unknown sensitivity method {method!r}")


RESPONSIVE = "responsive"
STATIC = "static"


def required_abatement(
    scenario: Scenario,
    taxes: TaxSchedule,
    mode: str = RESPONSIVE,
    tolerance: float = 1e-10,
) -> float:
    """Abatement needed to hold equilibrium debris at the catastrophe threshold.

    Responsive mode (the default) accounts for fleets expanding as abatement
    rises: it finds the root of debris(Q) = threshold with the equilibrium
    re-solved at every probe, returning 0 when no abatement is needed.
    Static mode evaluates the bookkeeping formula debris(0) - threshold with
    fleets frozen at their zero-abatement level; it is returned unclamped so
    its derivatives stay meaningful below the threshold.
    """
    base = solve_equilibrium(scenario, taxes, 0.0)
    gap = base.debris.stock - scenario.catastrophe_threshold
    if mode == STATIC:
        return float(gap)
    if mode != RESPONSIVE:
        raise ValueError(f"unknown required-abatement mode {mode!r}")
    if gap <= 0.0:
        return 0.0
    # Debris falls at most one-for-one with abatement, so probing at
    # min(1, gap) keeps the stock above the (positive) threshold.
    probe = min(1.0, gap)
    probed = solve_equilibrium(scenario, taxes, probe)
    slope = (probed.debris.stock - base.debris.stock) / probe
    if slope >= 0.0:
        raise NonDecreasingDebrisError(
            f"debris slope {slope:.3e} >= 0; catastrophe-averting root not unique"
        )
    root = gap / (-slope)
    candidate = solve_equilibrium(scenario, taxes, root)
    if abs(candidate.debris.stock - scenario.catastrophe_threshold) <= tolerance:
        return float(root)
    # Debris is affine in abatement, so the root above is exact up to
    # round-off; only at huge stocks can that round-off exceed the
    # tolerance. Bisection then pins the root to the threshold directly.
    lo, hi = 0.0, root
    while solve_equilibrium(scenario, taxes, hi).debris.stock > scenario.catastrophe_threshold:
        hi *= 2.0
        if hi > 1e12:
            raise NoConvergenceError("bisection bracket for required abatement blew up")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if solve_equilibrium(scenario, taxes, mid).debris.stock > scenario.catastrophe_threshold:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    return float(0.5 * (lo + hi))
