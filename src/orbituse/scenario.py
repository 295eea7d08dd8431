"""Model parameters and the stateless physical/economic primitives.

A :class:`Scenario` bundles every exogenous parameter of one orbit-use
world; :class:`TaxSchedule` carries the sector-by-market rates that
markets impose as conditions for access. The functions here are pure:
the debris law (stock, survival ``1 - k stock`` and its validity flag) and
sector profit. Solvers
live in :mod:`orbituse.open_access` and above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ScenarioShapeError


@dataclass(frozen=True)
class Scenario:
    """Immutable economic/physical parameter bundle.

    Vectors are stored as tuples so instances hash, compare by value,
    and can be shared freely between concurrent workers.
    """

    n_markets: int                  # markets (nations) receiving services
    n_sectors: int                  # spacefaring sectors, <= n_markets
    prices: tuple[float, ...]       # per-market service price, each > 0
    costs: tuple[float, ...]        # per-sector cost efficiency, each > 0
    collision_coeff: float          # collision probability per unit of debris
    debris_per_sat: float           # debris created over one satellite lifecycle
    legacy_debris: float            # debris unrelated to ongoing orbit use
    catastrophe_threshold: float    # debris level that tips runaway growth
    catastrophe_damages: float      # lump-sum damages once the threshold is crossed
    abatement_cost: float           # quadratic abatement cost coefficient
    treaty_parties: int | None = None   # defaults to n_markets

    def __post_init__(self):
        object.__setattr__(self, "prices", tuple(float(p) for p in self.prices))
        object.__setattr__(self, "costs", tuple(float(m) for m in self.costs))
        if self.treaty_parties is None:
            object.__setattr__(self, "treaty_parties", self.n_markets)

    @cached_property
    def price_array(self) -> np.ndarray:
        arr = np.array(self.prices, dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def cost_array(self) -> np.ndarray:
        arr = np.array(self.costs, dtype=float)
        arr.setflags(write=False)
        return arr


class ScenarioRows(NamedTuple):
    """Same-shape scenarios stacked one per row, for the stacked kernels.

    It stands in for a :class:`Scenario` in a kernel that reads only these
    attributes: ``price_array`` is ``(B, m)``, ``cost_array`` is ``(B, n)``
    and the three scalars are ``(B, 1)`` columns, so each row gets the
    one-scenario arithmetic elementwise.
    """

    price_array: np.ndarray
    cost_array: np.ndarray
    collision_coeff: np.ndarray
    debris_per_sat: np.ndarray
    legacy_debris: np.ndarray

    @classmethod
    def of(cls, scenarios: list[Scenario]) -> "ScenarioRows":
        """One row per scenario; each column is copied out contiguous, as
        one scenario's arrays are."""
        m, n = len(scenarios[0].prices), len(scenarios[0].costs)
        table = np.array([
            (*s.prices, *s.costs, s.collision_coeff, s.debris_per_sat, s.legacy_debris)
            for s in scenarios
        ])
        bounds = (0, m, m + n, m + n + 1, m + n + 2, m + n + 3)
        return cls(*(table[:, lo:hi].copy() for lo, hi in zip(bounds, bounds[1:])))

    def repeat(self, count: int) -> "ScenarioRows":
        """Each row ``count`` times in a row."""
        return ScenarioRows(*(np.repeat(column, count, axis=0) for column in self))


@dataclass(frozen=True)
class TaxSchedule:
    """Sector-by-market matrix of access-tax rates.

    Rate 1.0 means the market denies the sector access entirely. Rates
    are not clamped here: derivative stencils probe slightly outside
    [0, 1], and :func:`validate_taxes` reports range violations.
    """

    rates: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "rates", tuple(tuple(float(v) for v in row) for row in self.rates)
        )

    @classmethod
    def zeros(cls, n_sectors: int, n_markets: int) -> "TaxSchedule":
        return cls(tuple((0.0,) * n_markets for _ in range(n_sectors)))

    @classmethod
    def from_array(cls, rates) -> "TaxSchedule":
        arr = np.atleast_2d(np.asarray(rates, dtype=float))
        return cls(tuple(tuple(row) for row in arr))

    @cached_property
    def as_array(self) -> np.ndarray:
        arr = np.array(self.rates, dtype=float)
        arr.setflags(write=False)
        return arr

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rates), len(self.rates[0]) if self.rates else 0)

    def rate(self, sector: int, market: int) -> float:
        return self.rates[sector][market]

    @classmethod
    def _of(cls, rates: tuple[tuple[float, ...], ...]) -> "TaxSchedule":
        """Wrap rows that are already tuples of floats, skipping ``__post_init__``."""
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "rates", rates)
        return schedule

    def with_rate(self, sector: int, market: int, value: float) -> "TaxSchedule":
        # Stencils call this per probe: rebuild only the touched row.
        row = list(self.rates[sector])
        row[market] = float(value)
        rows = list(self.rates)
        rows[sector] = tuple(row)
        return self._of(tuple(rows))

    def with_column(self, market: int, column) -> "TaxSchedule":
        rows = list(self.rates)
        for sector, value in enumerate(column):
            row = list(rows[sector])
            row[market] = float(value)
            rows[sector] = tuple(row)
        return self._of(tuple(rows))


@dataclass(frozen=True)
class AbatementProfile:
    """Per-party debris abatement contributions and their total."""

    contributions: tuple[float, ...]
    total: float

    def __post_init__(self):
        object.__setattr__(
            self, "contributions", tuple(float(q) for q in self.contributions)
        )
        if abs(self.total - sum(self.contributions)) > 1e-12:
            raise ValueError("total must equal the sum of contributions to 1e-12")

    @classmethod
    def from_contributions(cls, contributions) -> "AbatementProfile":
        contributions = tuple(float(q) for q in contributions)
        return cls(contributions, sum(contributions))


@dataclass(frozen=True)
class DebrisState:
    """Long-run debris stock with its survival and catastrophe flags."""

    stock: float
    survival: float
    catastrophe: bool
    physically_valid: bool


def validate_scenario(scenario: Scenario) -> list[str]:
    """Return every violated scenario constraint; empty list iff valid."""
    report = []
    if scenario.n_markets < 1:
        report.append("n_markets must be a positive integer")
    if scenario.n_sectors < 1:
        report.append("n_sectors must be a positive integer")
    if scenario.n_sectors > scenario.n_markets:
        report.append("n_sectors must be <= n_markets")
    if len(scenario.prices) != scenario.n_markets:
        report.append(
            f"prices must have length n_markets={scenario.n_markets}, "
            f"got {len(scenario.prices)}"
        )
    if len(scenario.costs) != scenario.n_sectors:
        report.append(
            f"costs must have length n_sectors={scenario.n_sectors}, "
            f"got {len(scenario.costs)}"
        )
    numbers = {
        "prices": scenario.prices,
        "costs": scenario.costs,
        "collision_coeff": (scenario.collision_coeff,),
        "debris_per_sat": (scenario.debris_per_sat,),
        "legacy_debris": (scenario.legacy_debris,),
        "catastrophe_threshold": (scenario.catastrophe_threshold,),
        "catastrophe_damages": (scenario.catastrophe_damages,),
        "abatement_cost": (scenario.abatement_cost,),
    }
    for name, values in numbers.items():
        if not all(math.isfinite(x) for x in values):
            report.append(f"{name} must be finite")
    if any(p <= 0 for p in scenario.prices):
        report.append("prices must be > 0")
    if any(m <= 0 for m in scenario.costs):
        report.append("costs must be > 0")
    if scenario.collision_coeff < 0:
        report.append("collision_coeff must be >= 0")
    if scenario.debris_per_sat < 0:
        report.append("debris_per_sat must be >= 0")
    if scenario.legacy_debris < 0:
        report.append("legacy_debris must be >= 0")
    if scenario.catastrophe_threshold <= 0:
        report.append("catastrophe_threshold must be > 0")
    if scenario.catastrophe_damages < 0:
        report.append("catastrophe_damages must be >= 0")
    if scenario.abatement_cost <= 0:
        report.append("abatement_cost must be > 0")
    if scenario.treaty_parties is not None and scenario.treaty_parties < 1:
        report.append("treaty_parties must be a positive integer")
    if not report:
        # Bounds of the kernel's products: rho_i <= sum(p)/min(m) at any taxes.
        kd = scenario.collision_coeff * scenario.debris_per_sat
        rho = sum(scenario.prices) / min(scenario.costs)
        if not math.isfinite(kd):
            report.append("collision_coeff * debris_per_sat must be finite")
        if not math.isfinite(rho):
            report.append("sum(prices) / min(costs) must be finite")
        if not math.isfinite(kd * rho) and not report:
            report.append("collision_coeff * debris_per_sat * sum(prices) / min(costs) must be finite")
        if not report:
            # The profit residual squares each fleet (<= rho); a market's
            # gross value is its price times the n fleets summed.
            if not math.isfinite(max(scenario.costs) * (rho * rho)):
                report.append("max(costs) * (sum(prices) / min(costs))**2 must be finite")
            if not math.isfinite(scenario.n_sectors * (sum(scenario.prices) * rho)):
                report.append("n_sectors * sum(prices) * sum(prices) / min(costs) must be finite")
            # The debris stock adds d times the n fleets summed to the legacy debris.
            stock = scenario.legacy_debris + scenario.debris_per_sat * (scenario.n_sectors * rho)
            if not math.isfinite(stock):
                report.append("legacy_debris + debris_per_sat * n_sectors * sum(prices) / min(costs) must be finite")
    return report


def validate_taxes(scenario: Scenario, taxes: TaxSchedule) -> list[str]:
    """Return every violated tax-schedule constraint; empty list iff valid."""
    report = []
    n_s, n_m = taxes.shape
    if (n_s, n_m) != (scenario.n_sectors, scenario.n_markets):
        report.append(
            f"tax matrix must be {scenario.n_sectors}x{scenario.n_markets}, "
            f"got {n_s}x{n_m}"
        )
        return report
    for i, row in enumerate(taxes.rates):
        for j, rate in enumerate(row):
            # The chained comparison is false for NaN, so NaN is reported too.
            if not 0.0 <= rate <= 1.0:
                report.append(f"tax rate [{i}][{j}]={rate} outside [0, 1]")
    return report


def effective_prices(scenario: Scenario, taxes: TaxSchedule) -> np.ndarray:
    """Per-sector revenue weight: sum over markets of price times (1 - tax)."""
    rates = taxes.as_array
    if rates.shape != (scenario.n_sectors, scenario.n_markets):
        raise ScenarioShapeError(scenario, rates.shape)
    return (1.0 - rates) @ scenario.price_array


def debris_stock(scenario: Scenario, total_fleet: float, abatement: float) -> DebrisState:
    """Long-run debris stock for a total fleet and net abatement level.

    Invalid survival (outside [0, 1]) flags the state rather than raising:
    sweeps record invalid corners, solvers refuse them.
    """
    stock = scenario.debris_per_sat * total_fleet + scenario.legacy_debris - abatement
    survival = 1.0 - scenario.collision_coeff * stock
    return DebrisState(
        stock=float(stock),
        survival=float(survival),
        catastrophe=bool(stock > scenario.catastrophe_threshold),
        physically_valid=0.0 <= survival <= 1.0,
    )


def _stacked_profit(
    scenario, rates: np.ndarray, fleets: np.ndarray, abatement: np.ndarray
) -> np.ndarray:
    """Net profit ``(B, n)`` of every sector of stacked fleets ``(B, n)``.

    Row b is :func:`sector_profit` under ``rates[b]`` (a ``(B, n, m)``
    stack) at ``abatement[b]``; ``scenario`` is one scenario or a
    :class:`ScenarioRows`. Each ``size**2`` is a numpy scalar power, as in
    the one-row call: libm's ``pow`` can round apart from numpy's array square.
    """
    total = fleets.sum(axis=1, keepdims=True)
    stock = scenario.debris_per_sat * total + scenario.legacy_debris - abatement[:, None]
    revenue = ((1.0 - rates) @ scenario.price_array[..., None])[..., 0]
    squares = np.array([size**2 for size in fleets.ravel()]).reshape(fleets.shape)
    survival = 1.0 - scenario.collision_coeff * stock
    return survival * revenue * fleets - scenario.cost_array * squares


def sector_profit(
    scenario: Scenario,
    taxes: TaxSchedule,
    fleets,
    abatement: float,
    sector: int,
) -> float:
    """Net profit of one sector given the full fleet vector.

    Zero at any open-access equilibrium; meaningful off equilibrium too.
    The one-bundle call of :func:`_stacked_profit`, which ``verify`` runs
    on whole batches.
    """
    fleets = np.asarray(fleets, dtype=float)
    if not 0 <= sector < scenario.n_sectors:
        raise IndexError(f"sector index {sector} out of range [0, {scenario.n_sectors})")
    rates = taxes.as_array
    if rates.shape != (scenario.n_sectors, scenario.n_markets):
        raise ScenarioShapeError(scenario, rates.shape)
    profits = _stacked_profit(scenario, rates[None], fleets[None], np.array([abatement], dtype=float))
    return profits[0, sector]


# Reference scenarios used across the test and verification suites.
# Symmetric parameters keep every quantity hand-checkable in closed form.
SOLO = Scenario(
    n_markets=1,
    n_sectors=1,
    prices=(1.0,),
    costs=(1.0,),
    collision_coeff=0.0,
    debris_per_sat=1.0,
    legacy_debris=0.0,
    catastrophe_threshold=2.0,
    catastrophe_damages=1.0,
    abatement_cost=1.0,
)

SYM2 = Scenario(
    n_markets=2,
    n_sectors=2,
    prices=(1.0, 1.0),
    costs=(1.0, 1.0),
    collision_coeff=0.1,
    debris_per_sat=1.0,
    legacy_debris=0.0,
    catastrophe_threshold=2.0,
    catastrophe_damages=1.0,
    abatement_cost=1.0,
)

HIDEB = replace(SYM2, legacy_debris=5.0)
