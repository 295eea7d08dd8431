"""Seeded inputs for the benchmark, independent of ``orbituse.sampling``.

The draw ranges are those of ``orbituse.sampling``: prices and costs in
[0.1, 10], collision coefficient in [0, 0.3], debris per satellite in
[0.5, 2], legacy debris in [0, 8], damages in [0.05, 3], abatement cost in
[0.2, 5], start taxes in [0, 0.3]. They are copied, not imported, so that a
later change to the package cannot change what the benchmark feeds it.
Draws use :class:`random.Random` and the open-access equilibrium is
evaluated in closed form here, so generating inputs imports neither numpy
nor the package.

Every workload has a fixed *pool* of operations. Each op is a CLI argument
list plus the scenario files it reads. The reference file records, for
every pool op, its output at the commit that defined the benchmark and the
*strata* the pool is split into by cost. A run's ``--seed`` draws one op
from every stratum per cycle, in an order that keeps each part of a cycle
spread over cheap and dear strata, and a run takes cycle after cycle.
Strata are small (three to five ops), so every run sees nearly the same
mix of cheap and dear ops while different seeds see different inputs.
"""

from __future__ import annotations

import hashlib
import json
import random

PRICE_RANGE = (0.1, 10.0)
COST_RANGE = (0.1, 10.0)
COLLISION_RANGE = (0.0, 0.3)
DEBRIS_PER_SAT_RANGE = (0.5, 2.0)
LEGACY_RANGE = (0.0, 8.0)
DAMAGES_RANGE = (0.05, 3.0)
ABATEMENT_COST_RANGE = (0.2, 5.0)
START_TAX_CAP = 0.3

INTERIOR_MARGIN = 1e-6
SURVIVAL_MARGIN = 1e-4
PHI_MARGIN = 1e-3

REGULATE_SCENARIOS = 64     # seeded 2-3-sector regulate scenarios
VERIFY_SEEDS = 24           # verify seeds per reference scenario
VERIFY_RANDOM_COUNT = 40

SYM2 = {
    "scenario": {
        "n_markets": 2,
        "n_sectors": 2,
        "prices": [1.0, 1.0],
        "costs": [1.0, 1.0],
        "collision_coeff": 0.1,
        "debris_per_sat": 1.0,
        "legacy_debris": 0.0,
        "catastrophe_threshold": 2.0,
        "catastrophe_damages": 1.0,
        "abatement_cost": 1.0,
        "treaty_parties": 2,
    },
    "taxes": [[0.0, 0.0], [0.0, 0.0]],
    "abatement": 0.0,
}
HIDEB = json.loads(json.dumps(SYM2))
HIDEB["scenario"]["legacy_debris"] = 5.0

INPUT_DIR = ".bench_out/inputs"
GOLDEN = (5 ** 0.5 - 1) / 2


def equilibrium(scenario: dict, taxes: list[list[float]], abatement: float):
    """Closed-form open-access equilibrium with every sector active.

    Each fleet is f_i = r_i (phi - kd T) / (1 - kd r_i), so the total is
    T = phi S / (1 + kd S) with S = sum r_i / (1 - kd r_i). Every sector is
    active exactly when phi > 0. Returns (fleets, debris stock, survival).
    """
    k = scenario["collision_coeff"]
    d = scenario["debris_per_sat"]
    kd = k * d
    phi = 1.0 + k * (abatement - scenario["legacy_debris"])
    r = []
    for row, cost in zip(taxes, scenario["costs"]):
        revenue = sum(p * (1.0 - t) for p, t in zip(scenario["prices"], row))
        r.append(revenue / (kd * revenue + cost))
    s = sum(ri / (1.0 - kd * ri) for ri in r)
    total = phi * s / (1.0 + kd * s)
    fleets = [ri * (phi - kd * total) / (1.0 - kd * ri) for ri in r]
    stock = d * total + scenario["legacy_debris"] - abatement
    return fleets, stock, 1.0 - k * stock


def draw_bundle(rng: random.Random, n_sectors: int, n_markets: int) -> dict:
    """Draw one scenario and start taxes passing the validity filters of ``sampling``."""
    while True:
        prices = [rng.uniform(*PRICE_RANGE) for _ in range(n_markets)]
        costs = [rng.uniform(*COST_RANGE) for _ in range(n_sectors)]
        k = rng.uniform(*COLLISION_RANGE)
        d = rng.uniform(*DEBRIS_PER_SAT_RANGE)
        legacy = rng.uniform(*LEGACY_RANGE)
        damages = rng.uniform(*DAMAGES_RANGE)
        cost_coeff = rng.uniform(*ABATEMENT_COST_RANGE)
        if k * d >= 0.5 or 1.0 - k * legacy <= PHI_MARGIN:
            continue
        taxes = [
            [rng.uniform(0.0, START_TAX_CAP) for _ in range(n_markets)]
            for _ in range(n_sectors)
        ]
        scenario = {
            "n_markets": n_markets,
            "n_sectors": n_sectors,
            "prices": prices,
            "costs": costs,
            "collision_coeff": k,
            "debris_per_sat": d,
            "legacy_debris": legacy,
            "catastrophe_threshold": 1.0,
            "catastrophe_damages": damages,
            "abatement_cost": cost_coeff,
        }
        fleets, stock, survival = equilibrium(scenario, taxes, 0.0)
        if min(fleets) <= INTERIOR_MARGIN * max(1.0, max(fleets)):
            continue
        if not SURVIVAL_MARGIN <= survival <= 1.0:
            continue
        scenario["catastrophe_threshold"] = rng.uniform(0.5, 1.5) * max(stock, 1.0)
        return {"scenario": scenario, "taxes": taxes, "abatement": 0.0}


def _op(op_id: str, argv: list[str], files: dict[str, dict]) -> dict:
    return {"id": op_id, "argv": argv, "files": files}


def _path(name: str) -> str:
    return f"{INPUT_DIR}/{name}.json"


def regulate_pool() -> list[dict]:
    ops = []
    for index in range(REGULATE_SCENARIOS):
        rng = random.Random(f"regulate-{index}")
        n_sectors = rng.choice((2, 3))
        n_markets = n_sectors + rng.choice((0, 1))
        bundle = draw_bundle(rng, n_sectors, n_markets)
        path = _path(f"regulate-{index}")
        argv = ["regulate", "--scenario", path, "--format", "csv"]
        ops.append(_op(f"regulate/{index}", argv, {path: bundle}))
    return ops


def verify_pool() -> list[dict]:
    ops = []
    for name, bundle in (("sym2", SYM2), ("hideb", HIDEB)):
        path = _path(name)
        for seed in range(VERIFY_SEEDS):
            argv = ["verify", "--scenario", path, "--seed", str(seed),
                    "--random-count", str(VERIFY_RANDOM_COUNT)]
            ops.append(_op(f"verify/{name}-{seed}", argv, {path: bundle}))
    return ops


POOLS = {
    "regulate": regulate_pool,
    "verify": verify_pool,
}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def schedule(strata: list[list[str]], seed: int, cycles: int) -> list[list[str]]:
    """The first ``cycles`` cycles of a run: one seeded op per stratum.

    Strata are ranked by cost. Within a cycle they come in the order of
    ``(rank * GOLDEN + offset) % 1`` for a seeded offset, so every prefix of
    a cycle spreads evenly from cheap to dear strata and the partial cycle
    that ends a run does not tilt the run's cost mix.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        offset = rng.random()
        order = sorted(range(len(strata)), key=lambda rank: (rank * GOLDEN + offset) % 1.0)
        out.append([rng.choice(strata[rank]) for rank in order])
    return out
