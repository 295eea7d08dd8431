"""The stacked stencil evaluator and the verify checkers built on it.

``check_sign_suite``, ``check_channel_identity`` and
``check_welfare_quadratic`` solve each bundle's stencil as one stack. The
per-probe checkers they replaced are kept below as references, and the
stacked ones must return equal reports, residual floats included, and raise
the same error on the same probe.
"""

import gzip
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbituse import SYM2, PhysicallyInvalidError, Scenario, TaxSchedule
from orbituse import verification
from orbituse.cli import main
from orbituse.errors import OrbitUseError
from orbituse.open_access import _one_rate_probes, _stacked_equilibrium, solve_equilibrium
from orbituse.regulation import _stacked_welfare, national_welfare, welfare_channels
from orbituse.verification import (
    _batch,
    _report,
    _stencil,
    check_channel_identity,
    check_sign_suite,
    check_welfare_quadratic,
    run_verification,
)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


# -- the per-probe checkers the stacked ones replaced ----------------------
def _fd_fleets_tax(scenario, taxes, abatement, sector, market):
    rate = taxes.rate(sector, market)
    h = 1e-6 * max(1.0, abs(rate))
    hi = solve_equilibrium(scenario, taxes.with_rate(sector, market, rate + h), abatement)
    lo = solve_equilibrium(scenario, taxes.with_rate(sector, market, rate - h), abatement)
    return (hi.fleet_array - lo.fleet_array) / (2.0 * h)


def _fd_fleets_abatement(scenario, taxes, abatement):
    h = 1e-6 * max(1.0, abs(abatement))
    hi = solve_equilibrium(scenario, taxes, abatement + h)
    lo = solve_equilibrium(scenario, taxes, abatement - h)
    return (
        (hi.fleet_array - lo.fleet_array) / (2.0 * h),
        (hi.debris.stock - lo.debris.stock) / (2.0 * h),
    )


def reference_sign_suite(bundles):
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        d_ab, d_debris = _fd_fleets_abatement(scenario, taxes, abatement)
        if not np.all(d_ab > 0.0):
            bad.append((index, "dfleet_dabatement not positive"))
        if d_debris >= 0.0:
            bad.append((index, "ddebris_dabatement not negative"))
        for sector in range(scenario.n_sectors):
            for market in range(scenario.n_markets):
                grad = _fd_fleets_tax(scenario, taxes, abatement, sector, market)
                if grad[sector] >= 0.0:
                    bad.append((index, sector, market, "own fleet does not fall"))
                others = np.delete(grad, sector)
                if others.size and not np.all(others > 0.0):
                    bad.append((index, sector, market, "rebound not positive"))
                if grad.sum() >= 0.0:
                    bad.append((index, sector, market, "total fleet does not fall"))
                rate = taxes.rate(sector, market)
                h = 1e-4 * max(1.0, abs(rate))
                up, _ = _fd_fleets_abatement(
                    scenario, taxes.with_rate(sector, market, rate + h), abatement
                )
                down, _ = _fd_fleets_abatement(
                    scenario, taxes.with_rate(sector, market, rate - h), abatement
                )
                if (up[sector] - down[sector]) / (2.0 * h) >= 0.0:
                    bad.append((index, sector, market, "cross derivative not negative"))
    return _report("comparative_statics_signs", float(len(bad)), bad)


def loop_sign_suite(bundles):
    """The stacked sign suite with its former per-(sector, market) loop."""
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        n, n_markets = scenario.n_sectors, scenario.n_markets
        rates = taxes.as_array
        h = 1e-6 * np.maximum(1.0, np.abs(rates))
        wide = 1e-4 * np.maximum(1.0, np.abs(rates))
        h_ab = 1e-6 * max(1.0, abs(abatement))
        up, down = abatement + h_ab, abatement - h_ab
        moved = np.stack(
            [rates + h, rates - h, rates + wide, rates + wide, rates - wide, rates - wide],
            axis=-1,
        )
        fleets, _, stock = _stencil(
            scenario,
            np.concatenate([rates[None], rates[None], _one_rate_probes(rates, moved)]),
            np.array([up, down] + [abatement, abatement, up, down, up, down] * (n * n_markets)),
        )
        d_ab = (fleets[0] - fleets[1]) / (2.0 * h_ab)
        if not np.all(d_ab > 0.0):
            bad.append((index, "dfleet_dabatement not positive"))
        if (stock[0] - stock[1]) / (2.0 * h_ab) >= 0.0:
            bad.append((index, "ddebris_dabatement not negative"))
        probes = fleets[2:].reshape(n, n_markets, 6, n)
        grads = (probes[:, :, 0] - probes[:, :, 1]) / (2.0 * h)[:, :, None]
        slopes = (probes[:, :, 2::2] - probes[:, :, 3::2]) / (2.0 * h_ab)
        i, j = np.indices((n, n_markets), sparse=True)
        cross = (slopes[i, j, 0, i] - slopes[i, j, 1, i]) / (2.0 * wide)
        for sector in range(n):
            for market in range(n_markets):
                grad = grads[sector, market]
                if grad[sector] >= 0.0:
                    bad.append((index, sector, market, "own fleet does not fall"))
                others = np.delete(grad, sector)
                if others.size and not np.all(others > 0.0):
                    bad.append((index, sector, market, "rebound not positive"))
                if grad.sum() >= 0.0:
                    bad.append((index, sector, market, "total fleet does not fall"))
                if cross[sector, market] >= 0.0:
                    bad.append((index, sector, market, "cross derivative not negative"))
    return _report("comparative_statics_signs", float(len(bad)), bad)


def _fd_welfare_tax(scenario, taxes, abatement, sector, market):
    rate = taxes.rate(sector, market)
    h = 1e-3 * max(1.0, abs(rate))

    def central(step):
        hi = national_welfare(
            scenario, taxes.with_rate(sector, market, rate + step), abatement
        ).welfare[market]
        lo = national_welfare(
            scenario, taxes.with_rate(sector, market, rate - step), abatement
        ).welfare[market]
        return (hi - lo) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def reference_channel_identity(bundles):
    worst = 0.0
    bad = []
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        for sector in range(scenario.n_sectors):
            for market in range(scenario.n_markets):
                channels = welfare_channels(scenario, taxes, abatement, sector, market)
                fd = _fd_welfare_tax(scenario, taxes, abatement, sector, market)
                gap = abs(channels.total - fd)
                worst = max(worst, gap)
                if gap > 1e-9:
                    bad.append((index, sector, market, gap))
    return _report("welfare_channel_identity", worst, bad)


def reference_welfare_quadratic(bundles):
    worst = 0.0
    bad = []
    step = 0.5
    for index, (scenario, taxes, abatement) in enumerate(bundles):
        stencil = [abatement + step * n for n in range(5)]
        for market in range(scenario.n_markets):
            values = [national_welfare(scenario, taxes, q).welfare[market] for q in stencil]
            second = [values[n] - 2.0 * values[n + 1] + values[n + 2] for n in range(3)]
            spread = max(second) - min(second)
            worst = max(worst, spread)
            if spread > 1e-10:
                bad.append((index, market, spread))
    return _report("welfare_quadratic_in_abatement", worst, bad)


PAIRS = [
    (check_sign_suite, reference_sign_suite),
    (check_channel_identity, reference_channel_identity),
    (check_welfare_quadratic, reference_welfare_quadratic),
]


def outcome(checker, bundles):
    """The report's repr (so float types count), or the raised error's class and message."""
    try:
        return repr(checker(bundles))
    except OrbitUseError as error:
        return (type(error).__name__, str(error))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# -- the stacked evaluator ---------------------------------------------------
@st.composite
def stencil_rows(draw):
    """A scenario and a stack of (rates, abatement) rows, drawn wide.

    Rates lie slightly outside [0, 1] as stencils probe them; legacy debris
    reaches past 1/k, so phi = 1 + k(Q - D0) can be negative; one scenario
    family has phi == 0 exactly at Q = 0; abatement reaches far enough to
    push survival above 1, so some rows are physically invalid.
    """
    n_s = draw(st.integers(1, 4))
    n_m = draw(st.integers(n_s, 4))
    log = st.floats(-3.0, 3.0)
    prices = tuple(math.exp(draw(log)) for _ in range(n_m))
    costs = tuple(math.exp(draw(log)) for _ in range(n_s))
    if draw(st.integers(0, 3)) == 0:
        k, legacy = 0.1, 10.0                       # 1 + 0.1 (0 - 10) == 0.0
    else:
        k = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
        legacy = draw(st.floats(0.0, 1.5)) / max(k, 0.1)
    scenario = Scenario(
        n_markets=n_m,
        n_sectors=n_s,
        prices=prices,
        costs=costs,
        collision_coeff=k,
        debris_per_sat=math.exp(draw(st.floats(-1.0, 1.0))),
        legacy_debris=legacy,
        catastrophe_threshold=1.0,
        catastrophe_damages=1.0,
        abatement_cost=1.0,
    )
    rate = st.one_of(st.just(0.0), st.just(1.0), st.floats(-0.05, 1.05))
    count = draw(st.integers(1, 6))
    rates = np.array(
        [[[draw(rate) for _ in range(n_m)] for _ in range(n_s)] for _ in range(count)]
    )
    abatement = np.array(
        [
            draw(st.one_of(st.just(0.0), st.floats(0.0, legacy), st.floats(0.0, 3.0 * legacy + 20.0)))
            for _ in range(count)
        ]
    )
    return scenario, rates, abatement


@given(stencil_rows())
@settings(max_examples=200, deadline=None)
def test_stacked_rows_equal_the_scalar_kernel_bit_for_bit(case):
    scenario, rates, abatement = case
    fleets, survival, stock = _stacked_equilibrium(scenario, rates, abatement)
    welfare = _stacked_welfare(scenario, rates, fleets, survival)
    for row in range(len(rates)):
        taxes = TaxSchedule.from_array(rates[row])
        q = float(abatement[row])
        try:
            solved = solve_equilibrium(scenario, taxes, q)
        except PhysicallyInvalidError as error:
            assert not 0.0 <= survival[row] <= 1.0
            assert bits([error.debris.survival, error.debris.stock]) == bits(
                [survival[row], stock[row]]
            )
            continue
        assert bits(solved.fleets) == bits(fleets[row])
        assert bits([solved.debris.survival, solved.debris.stock]) == bits(
            [survival[row], stock[row]]
        )
        assert bits(national_welfare(scenario, taxes, q).welfare) == bits(welfare[row])


# -- the stacked checkers against the per-probe references -------------------
def shifted(bundles, levels=(0.0, 4.0, 40.0)):
    """The bundles at rising abatement: some stencils then leave survival <= 1."""
    return [(s, t, q + levels[i % len(levels)]) for i, (s, t, q) in enumerate(bundles)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_stacked_checkers_match_the_per_probe_references(seed):
    rng = np.random.default_rng(seed)
    interior = _batch(rng, 12, with_taxes=True, sector_range=(2, 6))
    treaty = _batch(rng, 12, with_taxes=True, require_kessler_risk=True, sector_range=(1, 4))
    for stacked, reference in PAIRS:
        for bundles in (interior, treaty, shifted(interior), shifted(treaty)):
            assert outcome(stacked, bundles) == outcome(reference, bundles)


def test_stacked_checkers_match_on_degenerate_bundles():
    # k = 0 breaks the abatement, rebound and cross-derivative signs; large
    # prices make welfare O(100); denying most access idles a sector (not
    # interior) and lets the quadratic stencil pass stock 0.
    bundles = [
        (replace(SYM2, collision_coeff=0.0), TaxSchedule.from_array([[0.2, 0.0], [0.5, 1.0]]), 0.0),
        (replace(SYM2, prices=(300.0, 200.0), collision_coeff=0.01),
         TaxSchedule.from_array([[0.3, 0.1], [0.2, 0.4]]), 1.0),
        (SYM2, TaxSchedule.from_array([[0.0, 1.0], [1.0, 1.0]]), 0.0),
    ]
    for stacked, reference in PAIRS:
        for end in (1, 2, 3):
            assert outcome(stacked, bundles[:end]) == outcome(reference, bundles[:end])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_masked_sign_suite_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    sampled = [
        _batch(rng, 12, with_taxes=True, sector_range=(2, 6)),
        _batch(rng, 12, with_taxes=True, sector_range=(1, 1)),
        _batch(rng, 12, with_taxes=True, require_kessler_risk=True, sector_range=(1, 4)),
    ]
    for bundles in sampled + [shifted(b) for b in sampled]:
        assert outcome(check_sign_suite, bundles) == outcome(loop_sign_suite, bundles)


def test_masked_sign_suite_matches_the_loop_on_failing_bundles():
    # k = 0 fails the abatement, rebound and cross tests; a sector taxed
    # past its whole revenue stays idle on both sides of its own stencils,
    # so its own and total fleets do not fall; n = 1 has no rebound to test.
    solo = Scenario(1, 1, (1.0,), (1.0,), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0)
    three = Scenario(3, 2, (1.0, 2.0, 0.5), (1.0, 1.5), 0.1, 1.0, 0.0, 2.0, 1.0, 1.0)
    bundles = [
        (replace(SYM2, collision_coeff=0.0), TaxSchedule.from_array([[0.2, 0.0], [0.5, 1.0]]), 0.0),
        (SYM2, TaxSchedule.from_array([[1.5, 1.0], [0.0, 0.3]]), 0.0),
        (solo, TaxSchedule.zeros(1, 1), 0.0),
        (replace(solo, collision_coeff=0.0), TaxSchedule.zeros(1, 1), 0.0),
        (three, TaxSchedule.from_array([[0.0, 0.5, 1.0], [1.0, 1.0, 1.0]]), 0.0),
    ]
    report = check_sign_suite(bundles)
    assert not report.passed
    assert {entry[-1] for entry in report.counterexamples} >= {
        "own fleet does not fall",
        "rebound not positive",
        "total fleet does not fall",
        "cross derivative not negative",
    }
    assert outcome(check_sign_suite, bundles) == outcome(loop_sign_suite, bundles)
    for end in range(1, len(bundles)):
        assert outcome(check_sign_suite, bundles[:end]) == outcome(loop_sign_suite, bundles[:end])


def test_masked_sign_suite_counts_a_nan_rebound_as_failing(monkeypatch):
    # The kernel yields no NaN fleets, so the stencil's are poisoned.
    bundles = [(SYM2, TaxSchedule.from_array([[0.1, 0.2], [0.3, 0.0]]), 0.0)]
    stencil = verification._stencil

    def poisoned(scenario, rates, abatement):
        fleets, survival, stock = stencil(scenario, rates, abatement)
        fleets[2::6, 1] = np.nan     # sector 1 at every rate + h probe
        return fleets, survival, stock

    monkeypatch.setattr(verification, "_stencil", poisoned)
    stacked = check_sign_suite(bundles)
    monkeypatch.setitem(loop_sign_suite.__globals__, "_stencil", poisoned)
    assert repr(stacked) == repr(loop_sign_suite(bundles))
    assert (0, 0, 0, "rebound not positive") in stacked.counterexamples


def test_invalid_probe_reports_the_same_error_through_run_verification(monkeypatch):
    # SYM2 at abatement 4 sits exactly at stock 0 (survival 1): every
    # checker's base solve is valid, and its first probe that cleans the
    # orbit further (more abatement, or a higher tax) is not.
    bundles = [(SYM2, TaxSchedule.zeros(2, 2), 4.0)]
    monkeypatch.setattr(verification, "_batch", lambda rng, count, **kwargs: bundles)
    args = (SYM2, TaxSchedule.zeros(2, 2), 0.0, 1, 4)
    stacked = {report.target: report for report in run_verification(*args)}
    for name, (_, reference) in zip(
        ("check_sign_suite", "check_channel_identity", "check_welfare_quadratic"), PAIRS
    ):
        monkeypatch.setattr(verification, name, reference)
    per_probe = {report.target: report for report in run_verification(*args)}
    for target in (
        "comparative_statics_signs",
        "welfare_channel_identity",
        "welfare_quadratic_in_abatement",
    ):
        report = stacked[target]
        assert not report.passed
        assert report.counterexamples[0][0] == "PhysicallyInvalidError"
        assert report.counterexamples == per_probe[target].counterexamples


# -- verify verdicts of benchmark pool ops -----------------------------------
# Seeds 4, 8, 11, 21 and 22 pin known FAIL verdicts; sym2-0 and hideb-1 pass.
VERDICT_OPS = [
    f"verify/{name}-{seed}" for name in ("sym2", "hideb") for seed in (4, 8, 11, 21, 22)
] + ["verify/sym2-0", "verify/hideb-1"]


@pytest.fixture(scope="module")
def verify_pool():
    # Read-only use of the benchmark's modules: leave no bytecode beside them.
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import inputs
        import outputs
    finally:
        sys.path.remove(str(BENCHMARKS))
        sys.dont_write_bytecode = saved
    with gzip.open(BENCHMARKS / "reference.json.gz", "rt") as handle:
        recorded = json.load(handle)["workloads"]["verify"]["ops"]
    pool = {op["id"]: op for op in inputs.verify_pool()}
    return pool, recorded, inputs, outputs


@pytest.mark.parametrize("op_id", VERDICT_OPS)
def test_verify_verdicts_match_the_benchmark_reference(op_id, verify_pool, tmp_path, capsys):
    pool, recorded, inputs, outputs = verify_pool
    op = pool[op_id]
    assert inputs.digest(op) == recorded[op_id]["digest"]
    argv = list(op["argv"])
    for relative, bundle in op["files"].items():
        path = tmp_path / Path(relative).name
        path.write_text(json.dumps(bundle))
        argv[argv.index(relative)] = str(path)
    code = main(argv)
    captured = capsys.readouterr()
    # summarize reads the checker lines, which do not name the file.
    got = outputs.summarize(op["argv"], code, captured.out, captured.err)
    assert outputs.mismatch(recorded[op_id]["output"], got, op_id) is None
