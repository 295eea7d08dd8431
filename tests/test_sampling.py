"""The sampler draws exactly what its eigenvalue-filtered form drew."""

import numpy as np
import pytest

from orbituse import verification
from orbituse.errors import OrbitUseError
from orbituse.open_access import solve_equilibrium
from orbituse.sampling import (
    ABATEMENT_COST_RANGE,
    COLLISION_RANGE,
    CONTRACTION_LIMIT,
    COST_RANGE,
    DAMAGES_RANGE,
    DEBRIS_PER_SAT_RANGE,
    INTERIOR_MARGIN,
    LEGACY_RANGE,
    PHI_MARGIN,
    PRICE_RANGE,
    SURVIVAL_MARGIN,
    SamplingExhausted,
    _damped_spectral_radius,
)
from orbituse.scenario import Scenario, TaxSchedule, validate_scenario
from orbituse.verification import _batch


def reference_sample_scenario(
    rng,
    n_sectors=None,
    sector_range=(1, 6),
    collision_range=COLLISION_RANGE,
    with_taxes=False,
    tax_cap=0.3,
    require_interior=True,
    require_kessler_risk=False,
    abatement=0.0,
    max_tries=1000,
):
    """The sampler as it was before the closed-form filter: every draw through
    ``TaxSchedule.from_array`` and the eigenvalues of the assembled map."""
    for _ in range(max_tries):
        n_s = n_sectors if n_sectors is not None else int(rng.integers(sector_range[0], sector_range[1] + 1))
        n_m = n_s + int(rng.integers(0, 2))
        prices = tuple(rng.uniform(*PRICE_RANGE, size=n_m))
        costs = tuple(rng.uniform(*COST_RANGE, size=n_s))
        k = float(rng.uniform(*collision_range))
        d = float(rng.uniform(*DEBRIS_PER_SAT_RANGE))
        if k * d >= 0.5:
            continue
        legacy = float(rng.uniform(*LEGACY_RANGE))
        if 1.0 + k * (abatement - legacy) <= PHI_MARGIN:
            continue
        damages = float(rng.uniform(*DAMAGES_RANGE))
        cost_coeff = float(rng.uniform(*ABATEMENT_COST_RANGE))

        scenario = Scenario(
            n_markets=n_m,
            n_sectors=n_s,
            prices=prices,
            costs=costs,
            collision_coeff=k,
            debris_per_sat=d,
            legacy_debris=legacy,
            catastrophe_threshold=1.0,
            catastrophe_damages=damages,
            abatement_cost=cost_coeff,
        )
        if validate_scenario(scenario):
            continue
        if with_taxes:
            taxes = TaxSchedule.from_array(rng.uniform(0.0, tax_cap, size=(n_s, n_m)))
        else:
            taxes = TaxSchedule.zeros(n_s, n_m)

        if _damped_spectral_radius(scenario, taxes) > CONTRACTION_LIMIT:
            continue
        try:
            equilibrium = solve_equilibrium(scenario, taxes, abatement)
        except OrbitUseError:
            continue
        fleets = equilibrium.fleet_array
        if require_interior and (
            not all(equilibrium.active)
            or fleets.min() <= INTERIOR_MARGIN * max(1.0, fleets.max())
        ):
            continue
        survival = equilibrium.debris.survival
        if not SURVIVAL_MARGIN <= survival <= 1.0:
            continue

        stock = equilibrium.debris.stock
        if require_kessler_risk:
            if stock <= 2.2:
                continue
            threshold = float(rng.uniform(0.35, 0.85) * stock)
            if stock - threshold < 0.05:
                continue
        else:
            threshold = float(rng.uniform(0.5, 1.5) * max(stock, 1.0))
        scenario = Scenario(
            n_markets=n_m,
            n_sectors=n_s,
            prices=prices,
            costs=costs,
            collision_coeff=k,
            debris_per_sat=d,
            legacy_debris=legacy,
            catastrophe_threshold=threshold,
            catastrophe_damages=damages,
            abatement_cost=cost_coeff,
        )
        return scenario, taxes
    raise SamplingExhausted(f"no admissible scenario after {max_tries} draws")


# The four batches run_verification draws at --random-count 40, in order.
VERIFY_BATCHES = (
    (40, dict(with_taxes=True)),
    (40, dict(with_taxes=True, sector_range=(2, 6))),
    (20, dict(with_taxes=True, sector_range=(3, 6))),
    (20, dict(with_taxes=True, require_kessler_risk=True, sector_range=(1, 4))),
)


def draws(rng, batches):
    return [repr(_batch(rng, count, **kwargs)) for count, kwargs in batches] + [repr(rng.random())]


def reference_draws(rng, batches, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(verification, "sample_scenario", reference_sample_scenario)
        return draws(rng, batches)


@pytest.mark.parametrize("seeds", [range(0, 25), range(25, 50)])
def test_verify_batches_are_drawn_unchanged(seeds, monkeypatch):
    # Scenarios and schedules by repr, so float types count, and the rng's
    # next draw, so every call the filters made counts too.
    for seed in seeds:
        got = draws(np.random.default_rng(seed), VERIFY_BATCHES)
        assert got == reference_draws(np.random.default_rng(seed), VERIFY_BATCHES, monkeypatch)


def test_many_sector_draws_are_unchanged(monkeypatch):
    # The draws of tests/test_oracle.py's eight-to-twelve-sector case.
    batches = [(20, dict(with_taxes=True, sector_range=(8, 12)))]
    got = draws(np.random.default_rng(8), batches)
    assert got == reference_draws(np.random.default_rng(8), batches, monkeypatch)


def outcome(rng, batches):
    """The drawn batches, or the raised error's class and message; then the rng's next draw."""
    try:
        got = draws(rng, batches)
    except (OrbitUseError, OverflowError) as error:
        got = (type(error).__name__, str(error))
    return got, rng.random()


@pytest.mark.parametrize(
    "collision_range", [(-0.1, 0.3), (-0.3, -0.1), (0.0, float("nan")), (float("nan"), 0.3)]
)
def test_collision_draws_outside_the_valid_range_are_rejected_as_before(collision_range, monkeypatch):
    # A negative k fails validation and is drawn again; a range below zero
    # exhausts the sampler; numpy refuses a NaN bound at the first draw.
    batches = [(10, dict(with_taxes=True, collision_range=collision_range))]
    for seed in range(3):
        got = outcome(np.random.default_rng(seed), batches)
        with monkeypatch.context() as patch:
            patch.setattr(verification, "sample_scenario", reference_sample_scenario)
            assert got == outcome(np.random.default_rng(seed), batches)
