"""Global open-access equilibrium: closed-form solve, reduction, statics.

Under open access each sector launches until its marginal profit is zero.
Write ``rho_i = rev_i/m_i`` for sector i's revenue weight over its cost,
``phi = 1 + k(Q - D0)`` and ``kd = k d``. A sector is active iff
``phi > 0`` and ``rho_i > 0``, and with ``share = 1 + kd sum_active rho``
every equilibrium quantity follows from one identity:

* fleets are ``f = phi rho/share`` on the active set and zero elsewhere;
* survival is ``phi/share``;
* debris falls in abatement with slope exactly ``-1/share``.

This module evaluates that identity (``_rho_form`` and ``_share``; for a
stack of schedules at once, ``_stacked_equilibrium``, whose :class:`Solved`
record holds every per-row quantity, with the same arithmetic, bit for
bit, on one scenario or on a ``ScenarioRows`` stack with one scenario per
row), collapses any number of sectors to an exact two-player game by
aggregating the rest of the world into one ``rho``, splits fleets into the
abatement-sensitive and abatement-free factors, and differentiates
everything with respect to taxes and abatement (one bundle, or a stack of
them by ``_analytic_rows`` and ``_fd_rows``). No linear system is
assembled here: the determinant ``share/prod(1 + kd rho_i)`` of the fleet
system ``(diag(1+s) - s 1^T) f = phi r`` (``r_i = rev_i/(kd rev_i + m_i)``,
``s = -kd r``) is positive for every validated input, so it is reported
but never a failure. The dense solves live in :mod:`orbituse.oracle` as
the independent reference: the pivoting one per call, and a stacked one
that the finite-difference sensitivities solve their stencils with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ActiveSetChangeError, PhysicallyInvalidError, ScenarioShapeError, ScenarioValidationError,
)
from .oracle import interior_open_access, pivot_open_access
from .scenario import (
    DebrisState,
    Scenario,
    ScenarioRows,
    TaxSchedule,
    debris_stock,
    effective_prices,
)

ANALYTIC = "analytic"
FINITE_DIFFERENCE = "finite-difference"


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

    no_crowding_out: tuple[bool, ...]   # per sector: 1 + kd rho_i > 0, i.e. r_i < 1/(k d)
    bounded_marginal_risk: bool         # k d < 1/2


def _phi(scenario: Scenario, abatement):
    """``phi = 1 + k(Q - D0)`` and ``kd``; ``abatement`` may be an array."""
    k = scenario.collision_coeff
    return 1.0 + k * (abatement - scenario.legacy_debris), k * scenario.debris_per_sat


def _rho_form(scenario: Scenario, taxes: TaxSchedule, abatement: float = 0.0):
    """Revenue, ``rho = revenue/cost``, ``phi = 1 + k(Q - D0)`` and ``kd``."""
    # Python floats: on vectors this short numpy's per-call overhead dominates.
    revenue = effective_prices(scenario, taxes).tolist()
    rho = [w / m for w, m in zip(revenue, scenario.costs)]
    return revenue, rho, *_phi(scenario, abatement)


def _share(rho: list[float], phi: float, kd: float) -> tuple[list[bool], float]:
    """Active flags (``phi > 0`` and ``rho > 0``) and ``1 + kd sum_active rho``."""
    active = [phi > 0.0 and x > 0.0 for x in rho]
    return active, 1.0 + kd * sum(x for x, on in zip(rho, active) if on)


def _determinant(rho: list[float], kd: float) -> float:
    """det(diag(1+s) - s 1^T) = (1 + kd sum rho)/prod(1 + kd rho), as 1+s = 1/(1 + kd rho)."""
    return (1.0 + kd * sum(rho)) / math.prod(1.0 + kd * x for x in rho)


def _equilibrium(
    scenario: Scenario,
    abatement: float,
    revenue: list[float],
    costs,
    rho: list[float],
    phi: float,
    kd: float,
) -> OpenAccessEquilibrium:
    """Fleets ``phi rho/share`` and survival ``phi/share`` of one rho vector."""
    active, share = _share(rho, phi, kd)
    fleets = [phi * x / share if on else 0.0 for x, on in zip(rho, active)]
    stock = debris_stock(scenario, sum(fleets), abatement)
    survival = phi / share
    debris = DebrisState(
        stock=stock.stock,
        survival=survival,
        catastrophe=stock.catastrophe,
        physically_valid=0.0 <= survival <= 1.0,
    )
    if not debris.physically_valid:
        raise PhysicallyInvalidError(
            f"survival probability {survival:.6f} outside [0, 1] "
            f"at debris stock {debris.stock:.6f}",
            debris=debris,
        )
    residual = max(
        (abs(survival * w * f - m * (f * f)) for w, m, f in zip(revenue, costs, fleets)),
        default=0.0,
    )
    r = [w / (kd * w + m) for w, m in zip(revenue, costs)]
    # At phi == 0 the full system solves to all-zero fleets with no pinning.
    pivot = active if phi != 0.0 else [True] * len(rho)
    return OpenAccessEquilibrium(
        fleets=tuple(fleets),
        sigma=tuple(f / x if x > 0.0 else 0.0 for f, x in zip(fleets, r)),
        r=tuple(r),
        debris=debris,
        active=tuple(f > 0.0 for f in fleets),
        determinant=_determinant([x for x, on in zip(rho, pivot) if on], kd),
        max_profit_residual=residual,
    )


def _revenue_share(scenario: Scenario | ScenarioRows, revenue: np.ndarray, phi, kd):
    """``rho`` where active, else 0, and ``share`` of revenue rows ``(..., n)``,
    by the kernel's arithmetic: the active mask ``phi > 0 and rho > 0``, and
    ``sum rho`` left to right by ``cumsum``, as the kernel's Python ``sum``
    adds; ``share`` keeps the last axis at length 1."""
    rho = revenue / scenario.cost_array
    on = np.maximum(rho, 0.0) * (phi > 0.0)
    return on, 1.0 + kd * on.cumsum(axis=-1)[..., -1:]


class Solved(NamedTuple):
    """Every per-row quantity of :func:`_stacked_equilibrium` on ``B`` rows.

    ``phi`` and ``share`` are ``(B, 1)`` columns, ``kd`` is a float or a
    ``(B, 1)`` column, ``revenue``, ``on`` (``rho`` where active, else 0)
    and ``fleets`` are ``(B, n)``, and ``survival`` and ``stock`` ``(B,)``.
    """

    phi: np.ndarray
    kd: np.ndarray | float
    revenue: np.ndarray
    on: np.ndarray
    share: np.ndarray
    fleets: np.ndarray
    survival: np.ndarray
    stock: np.ndarray


def _stacked_factors(scenario: Scenario | ScenarioRows, solved: Solved):
    """The rest of :func:`solve_equilibrium`'s report on a stacked solve.

    sigma, r and each sector's zero-profit residual, ``(B, n)`` each, by
    ``_equilibrium``'s arithmetic; the report's ``max_profit_residual`` is
    the row's Python ``max``.
    """
    revenue, fleets, costs = solved.revenue, solved.fleets, scenario.cost_array
    r = revenue / (solved.kd * revenue + costs)
    sigma = np.divide(fleets, r, out=np.zeros_like(fleets), where=r > 0.0)
    return sigma, r, np.abs(solved.survival[:, None] * revenue * fleets - costs * (fleets * fleets))


def _stacked_pairs(solved: Solved):
    """Every sector's two-player reduction of a stacked solve: ``(B, n)``
    each, ``rho_rest``, the other sectors' active ``rho`` summed left to
    right by ``cumsum`` as :func:`reduce_two_player`'s Python ``sum`` adds
    them, and the pair's share ``1 + kd (rho_i + rho_rest)``.
    """
    on = solved.on
    n = on.shape[1]
    rest = (on[:, None, :] * ~np.eye(n, dtype=bool)).cumsum(axis=2)[:, :, -1]
    return rest, 1.0 + solved.kd * (on + rest)


def _one_rate_probes(rates: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """Copies of each schedule in ``rates`` (B, n, m) with one rate moved.

    Copy ``(b, e k + l)`` of the ``(B, n m k, n, m)`` result has rate
    ``e = i m + j`` set to ``moved[b, i, j, l]``: (sector, market, l) order.
    """
    count, n, m, k = moved.shape
    stack = np.repeat(rates.reshape(count, 1, n * m), n * m * k, axis=1)
    probe = np.arange(n * m * k)
    stack[:, probe, probe // k] = moved.reshape(count, -1)
    return stack.reshape(count, -1, n, m)


def _stacked_equilibrium(
    scenario: Scenario | ScenarioRows, rates: np.ndarray, abatement: np.ndarray
) -> Solved:
    """The :class:`Solved` record of a stack of schedules.

    Row b is :func:`solve_equilibrium` at ``rates[b]`` (a ``(B, n, m)``
    stack), ``abatement[b]`` and the scenario of row b (one for every row,
    or a :class:`ScenarioRows`) by the same arithmetic, so it matches that
    solve bit for bit: revenue is the stacked ``(1 - rates) @ p``, ``on``
    and ``share`` are :func:`_revenue_share`'s, fleets ``phi rho/share``,
    survival ``phi/share``, and the fleet total is summed left to right by
    ``cumsum``. Nothing is raised: rows whose survival leaves [0, 1] are
    the caller's to refuse (where phi < 0 their fleets are -0.0, not 0.0).
    """
    abatement = abatement[:, None]
    phi, kd = _phi(scenario, abatement)
    revenue = ((1.0 - rates) @ scenario.price_array[..., None])[..., 0]
    on, share = _revenue_share(scenario, revenue, phi, kd)
    fleets = phi * on / share
    total = fleets.cumsum(axis=1)[:, -1:]
    stock = scenario.debris_per_sat * total + scenario.legacy_debris - abatement
    return Solved(phi, kd, revenue, on, share, fleets, (phi / share)[:, 0], stock[:, 0])


def solve_equilibrium(
    scenario: Scenario, taxes: TaxSchedule, abatement: float = 0.0
) -> OpenAccessEquilibrium:
    """Solve the global open-access equilibrium in closed form.

    Fleets are ``phi rho/share`` on the active set (``phi > 0`` and
    ``rho > 0``) and zero elsewhere; survival is ``phi/share``, the debris
    stock comes from :func:`debris_stock`. The reported determinant is
    ``share/prod(1 + kd rho)`` over the active set, or over every sector
    when ``phi == 0`` and every fleet is zero at full rank. It is positive
    for every validated input and never raised on. Raises
    PhysicallyInvalidError when survival falls outside [0, 1], and
    ScenarioValidationError at a non-finite tax rate.
    """
    revenue, rho, phi, kd = _rho_form(scenario, taxes, abatement)
    # A non-finite rate makes its sector's revenue non-finite. Finite rates
    # outside [0, 1] are solved: derivative stencils probe them.
    if not math.isfinite(sum(revenue)) and not np.isfinite(taxes.as_array).all():
        raise ScenarioValidationError([f"tax rates must be finite, got {taxes.as_array.tolist()}"])
    return _equilibrium(scenario, abatement, revenue, scenario.costs, rho, phi, kd)


def reduce_two_player(
    scenario: Scenario, taxes: TaxSchedule, abatement: float, sector: int
) -> OpenAccessEquilibrium:
    """Collapse the game to two players while preserving the chosen sector.

    Player one is sector ``sector``. Player two is the rest of the world:
    fleets and survival depend on the other sectors only through
    ``sum rho`` over the active ones, so a single player with that ``rho``
    (revenue ``rho_rest`` at unit cost) reproduces them. The pair is
    solved by the same identity as the full game, so the chosen sector's
    fleet and the complement's aggregate match it to round-off. ``rho_rest``
    is the one-bundle call of :func:`_stacked_pairs`, which ``verify`` runs
    on whole batches.
    """
    if scenario.n_sectors < 2:
        raise ValueError("reduction requires at least two sectors")
    if not 0 <= sector < scenario.n_sectors:
        raise IndexError(f"sector index {sector} out of range")
    revenue, rho, phi, kd = _rho_form(scenario, taxes, abatement)
    solved = _stacked_equilibrium(scenario, taxes.as_array[None], np.array([abatement], dtype=float))
    rho_rest = float(_stacked_pairs(solved)[0][0, sector])
    return _equilibrium(
        scenario,
        abatement,
        [revenue[sector], rho_rest],
        [scenario.costs[sector], 1.0],
        [rho[sector], rho_rest],
        phi,
        kd,
    )


def decompose(equilibrium: OpenAccessEquilibrium) -> tuple[np.ndarray, np.ndarray]:
    """Split fleets into (sigma, r): fleets = sigma * r elementwise.

    Only sigma responds to abatement; r is a pure function of prices,
    taxes, costs, and technology, so re-solving at a different abatement
    level returns a bitwise-identical r.
    """
    return np.array(equilibrium.sigma), np.array(equilibrium.r)


def check_assumptions(scenario: Scenario, taxes: TaxSchedule) -> AssumptionFlags:
    """Evaluate the no-crowding-out and bounded-marginal-risk conditions.

    No crowding out, ``r_i < 1/kd``, is exactly ``1 + kd rho_i > 0`` for a
    positive cost, which has no round-off. Validated taxes keep ``rho >= 0``,
    so the flag is identically true for validated inputs with finite ``kd``
    and ``rho``; the reports keep it, and ``--strict`` tests only bounded risk.
    """
    _, rho, _, kd = _rho_form(scenario, taxes)
    return AssumptionFlags(
        no_crowding_out=tuple(1.0 + kd * x > 0.0 for x in rho),
        bounded_marginal_risk=bool(kd < 0.5),
    )


def _analytic_rows(rows: ScenarioRows, rates: np.ndarray, abatement: np.ndarray):
    """Analytic sensitivities of a ``(B, n, m)`` stack, one scenario per row.

    Returns ``dfleet_dtax`` ``(B, n, n, m)``, ``dfleet_dabatement``
    ``(B, n)``, ``ddebris_dabatement`` ``(B,)`` and ``drequired_dtax``
    ``(B, n, m)``; ``interior`` ``(B,)``: survival in [0, 1] and every
    fleet positive, the rows that have them; and the
    :func:`_stacked_equilibrium` record it differentiates. Each row is the
    one-bundle arithmetic bit for bit.
    """
    n = rates.shape[1]
    solved = _stacked_equilibrium(rows, rates, abatement)
    phi, kd, share, fleets, survival = solved.phi, solved.kd, solved.share, solved.fleets, solved.survival
    interior = (0.0 <= survival) & (survival <= 1.0) & np.all(fleets > 0.0, axis=1)
    # f = phi rho/share and d rho_i/d tau_ij = -p_j/m_i, so
    # d f_a/d tau_ij = -(p_j/m_i)(phi delta_ai - kd f_a)/share.
    dfleet_drho = (phi[:, :, None] * np.eye(n) - (kd * fleets)[:, :, None]) / share[:, :, None]
    dfleet_dtax = -dfleet_drho[..., None] * (
        rows.price_array[:, None, None, :] / rows.cost_array[:, None, :, None]
    )
    drequired = rows.debris_per_sat[:, :, None] * dfleet_dtax.sum(axis=1)
    # On interior rows every rho is active, so it is its own ``on``.
    report = (dfleet_dtax, rows.collision_coeff * solved.on / share, -1.0 / share[:, 0], drequired)
    return report, interior, solved


def _fd_rows(rows: ScenarioRows, rates: np.ndarray, abatement: np.ndarray):
    """Finite-difference sensitivities of a ``(B, n, m)`` stack, one scenario per row.

    Per schedule, the 2 n m + 3 probes in the order a per-probe loop takes
    them: the base, then rate [i][j] + h, then - h, for each (i, j); then
    Q + h, Q - h. Every probe of every row is one :func:`interior_open_access`
    stack, so this path audits the closed-form kernel instead of sharing it.
    Returns the report arrays as :func:`_analytic_rows` does, then per probe
    ``ok``, rates and abatement level, ``(B, P)`` leading; a row has its
    sensitivities only where every probe is ok.
    """
    count, n, n_markets = rates.shape
    h = 1e-6 * np.maximum(1.0, np.abs(rates))
    h_ab = 1e-6 * np.maximum(1.0, np.abs(abatement))
    base = rates[:, None]
    moved = np.stack([rates + h, rates - h], axis=-1)
    probes = np.concatenate([base, _one_rate_probes(rates, moved), base, base], axis=1)
    size = probes.shape[1]
    levels = np.repeat(abatement[:, None], size, axis=1)
    levels[:, -2] = abatement + h_ab
    levels[:, -1] = abatement - h_ab
    fleets, ok = interior_open_access(
        rows.repeat(size), probes.reshape(-1, n, n_markets), levels.ravel()
    )
    fleets = fleets.reshape(count, size, n)[:, 1:]
    dfleet_dtax = (fleets[:, 0:-2:2] - fleets[:, 1:-2:2]) / (2.0 * h.reshape(count, -1, 1))
    dfleet_dtax = np.swapaxes(dfleet_dtax, 1, 2).reshape(count, n, n, n_markets)
    total = fleets[:, -2:].sum(axis=2)
    stock = rows.debris_per_sat * total + rows.legacy_debris - levels[:, -2:]
    report = (
        dfleet_dtax,
        (fleets[:, -2] - fleets[:, -1]) / (2.0 * h_ab[:, None]),
        (stock[:, 0] - stock[:, 1]) / (2.0 * h_ab),
        rows.debris_per_sat[:, :, None] * dfleet_dtax.sum(axis=1),
    )
    return report, ok.reshape(count, size), probes, levels


def sensitivities(
    scenario: Scenario,
    taxes: TaxSchedule,
    abatement: float = 0.0,
    method: str = ANALYTIC,
) -> SensitivityReport:
    """Equilibrium responses to every tax rate and to abatement.

    The analytic path differentiates ``f = phi rho/share`` directly; the
    finite-difference path solves its central stencils (step
    ``1e-6 max(1, |x|)``) as one stack with the oracle's dense LU and
    exists to audit the analytic one. A probe whose active set changes or
    whose survival leaves [0, 1] raises as a per-probe loop would, at the
    first such probe. Each path is the one-bundle call of its stacked form
    (``_analytic_rows``, ``_fd_rows``), which ``verify`` runs on whole
    batches.
    """
    if method not in (ANALYTIC, FINITE_DIFFERENCE):
        raise ValueError(f"unknown sensitivity method {method!r}")
    if taxes.shape != (scenario.n_sectors, scenario.n_markets):
        raise ScenarioShapeError(scenario, taxes.shape)
    stack = ScenarioRows.of([scenario]), taxes.as_array[None], np.array([abatement], dtype=float)
    if method == ANALYTIC:
        report, interior, _ = _analytic_rows(*stack)
        if not interior[0]:
            solve_equilibrium(scenario, taxes, abatement)   # raises if survival leaves [0, 1]
            raise ActiveSetChangeError(
                "analytic sensitivities need every sector interior (positive fleet)"
            )
    else:
        report, ok, probes, levels = _fd_rows(*stack)
        # The stack refuses exactly the rows where the pivot solve does not
        # return every sector active. The first one is re-solved per probe
        # for the per-probe loop's error, or its active-set change.
        if not ok.all():
            row = int(np.flatnonzero(~ok[0])[0])
            pivot_open_access(scenario, TaxSchedule.from_array(probes[0, row]), float(levels[0, row]))
            if row == 0:
                raise ActiveSetChangeError(
                    "finite-difference sensitivities need every sector interior"
                )
            stencil = "abatement stencil"
            if row <= 2 * scenario.n_sectors * scenario.n_markets:
                stencil = "stencil for tax [{}][{}]".format(
                    *divmod((row - 1) // 2, scenario.n_markets)
                )
            raise ActiveSetChangeError(f"active set changed inside the {stencil}")
    dfleet_dtax, dfleet_dabatement, ddebris, drequired = (value[0] for value in report)
    return SensitivityReport(dfleet_dtax, dfleet_dabatement, float(ddebris), drequired, method)


RESPONSIVE = "responsive"
STATIC = "static"


def required_abatement(
    scenario: Scenario, taxes: TaxSchedule, mode: str = RESPONSIVE
) -> float:
    """Abatement needed to hold equilibrium debris at the catastrophe threshold.

    Responsive mode (the default) accounts for fleets expanding as abatement
    rises. Wherever ``phi > 0`` every sector with ``rho > 0`` is active and
    debris falls by exactly ``1/share`` per unit of abatement, with
    ``share = 1 + kd sum_{rho > 0} rho``; so the root is
    ``max(gap, 0) share`` with ``gap = debris(0) - threshold``. That also
    holds at ``phi0 = 0``, where every sector enters as soon as abatement
    is positive. Static mode returns the bookkeeping formula
    ``debris(0) - threshold`` with fleets frozen at their zero-abatement
    level, unclamped so its derivatives stay meaningful below the threshold.
    """
    base = solve_equilibrium(scenario, taxes, 0.0)
    gap = base.debris.stock - scenario.catastrophe_threshold
    if mode == STATIC:
        return float(gap)
    if mode != RESPONSIVE:
        raise ValueError(f"unknown required-abatement mode {mode!r}")
    if gap <= 0.0:
        return 0.0
    _, rho, _, kd = _rho_form(scenario, taxes)
    _, share = _share(rho, 1.0, kd)  # the share once abatement makes phi positive
    return float(gap * share)
