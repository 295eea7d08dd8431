"""Command-line interface: solve, regulate, treaty, sweep, verify.

Usage:
    orbituse solve    --scenario path [--set key=value]... [--format json|csv]
    orbituse regulate --scenario path [--set ...]
    orbituse treaty   --scenario path [--set ...]
    orbituse sweep    --scenario path --sweep param:from:to:steps [--format csv]
    orbituse verify   --scenario path --seed N [--random-count N]

Override keys: scenario.<field> (short aliases p, m, k, d, D0, Dbar, X, c),
tax.<sector>.<market> with 1-based indices, and abatement. Exit codes:
0 success, 2 validation failure, 3 solver non-convergence, 4 assumption
violation under --strict, 1 other errors (including failed verification
and treaty arithmetic past the float range).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    OrbitUseError,
    OverrideError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .open_access import (
    STATIC,
    check_assumptions,
    required_abatement,
    solve_equilibrium,
)
from .regulation import national_welfare, regulatory_equilibrium
from .reporting import (
    LoadedBundle,
    bundle_from_data,
    divergence_report,
    dump_bundle,
    equilibrium_report,
    flatten_for_csv,
    format_csv_value,
    load_scenario,
    rows_to_csv,
    treaty_report,
)
from .treaty import MODEL_DERIVED, CLOSED_FORM, _both_variants
from .verification import run_verification

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_ASSUMPTION = 4


def _error_object(error: Exception) -> dict:
    payload = {"error": type(error).__name__, "message": str(error)}
    if isinstance(error, ScenarioValidationError):
        payload["violations"] = error.violations
    return payload


def _fail(payload: dict, code: int) -> int:
    """Write ``payload`` as the one JSON error line on stderr; returns ``code``."""
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _strict(value):
    """``value`` with every non-finite float as None, so it dumps as strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _report_text(report: dict, output_format: str) -> str:
    if output_format == "csv":
        flat = flatten_for_csv(report)
        return rows_to_csv(list(flat.keys()), [list(flat.values())])
    return json.dumps(_strict(report), indent=2)


def _solve_report(bundle: LoadedBundle) -> tuple[dict, int]:
    equilibrium = solve_equilibrium(bundle.scenario, bundle.taxes, bundle.abatement)
    welfare = national_welfare(bundle.scenario, bundle.taxes, bundle.abatement)
    flags = check_assumptions(bundle.scenario, bundle.taxes)
    report = {"inputs": dump_bundle(bundle)}
    report.update(equilibrium_report(equilibrium, welfare, flags))
    return report, EXIT_OK


def _regulate_report(bundle: LoadedBundle) -> tuple[dict, int]:
    result = regulatory_equilibrium(bundle.scenario, bundle.abatement, bundle.taxes)
    welfare = national_welfare(bundle.scenario, result.taxes, bundle.abatement)
    flags = check_assumptions(bundle.scenario, result.taxes)
    report = {
        "inputs": dump_bundle(bundle),
        "taxes": [list(row) for row in result.taxes.rates],
        "converged": result.converged,
        "iterations": result.iterations,
        "max_update": result.max_update,
        "update_trace": list(result.update_trace),
        "equilibrium": equilibrium_report(result.equilibrium, welfare, flags),
    }
    return report, EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _treaty_report(bundle: LoadedBundle) -> tuple[dict, int]:
    model, closed = _both_variants(bundle.scenario, bundle.taxes)
    report = {
        "inputs": dump_bundle(bundle),
        "qbar_responsive": model.qbar,
        "qbar_static": required_abatement(bundle.scenario, bundle.taxes, mode=STATIC),
        "variants": {
            MODEL_DERIVED: treaty_report(model),
            CLOSED_FORM: treaty_report(closed),
        },
        "divergence": divergence_report(model.divergences),
    }
    return report, EXIT_OK


# The commands that build one report from the bundle, with their exit code.
_REPORTS = {"solve": _solve_report, "regulate": _regulate_report, "treaty": _treaty_report}


def _check_sweep_axis(bundle: LoadedBundle, axis) -> None:
    """OverrideError where no row could apply the axis: a non-finite bound, an
    unknown key or a tax entry outside the schedule. A value that fails
    validation fails only its own row."""
    key, start, stop, _ = axis
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise OverrideError(f"sweep bounds must be finite, got {start!r} and {stop!r}")
    with contextlib.suppress(ScenarioParseError, ScenarioValidationError):
        bundle_from_data(dump_bundle(bundle), [f"{key}={format_csv_value(start)}"])


def _sweep_rows(bundle: LoadedBundle, axis) -> tuple[list[str], list[list]]:
    key, start, stop, steps = axis
    values = np.linspace(start, stop, steps)
    scenario = bundle.scenario
    n_s, n_m = scenario.n_sectors, scenario.n_markets
    parties = scenario.treaty_parties

    header = [key]
    header += [f"fleet_{i}" for i in range(n_s)]
    header += ["debris_stock", "survival"]
    header += [f"welfare_{j}" for j in range(n_m)]
    header += ["qbar_responsive", "qbar_static"]
    for party in range(parties):
        header += [f"alpha_model_{party}", f"beta_model_{party}"]
        header += [f"alpha_closed_{party}", f"beta_closed_{party}"]
    header += [
        "averting_sustainable_model",
        "self_enforcing_model",
        "averting_sustainable_closed",
        "self_enforcing_closed",
        "error",
    ]

    base = dump_bundle(bundle)
    rows = []
    for value in values:
        row: list = [float(value)]
        try:
            data_override = f"{key}={format_csv_value(float(value))}"
            probe = bundle_from_data(base, [data_override])
            equilibrium = solve_equilibrium(probe.scenario, probe.taxes, probe.abatement)
            welfare = national_welfare(probe.scenario, probe.taxes, probe.abatement)
            model, closed = _both_variants(probe.scenario, probe.taxes)
            row += [float(f) for f in equilibrium.fleets]
            row += [equilibrium.debris.stock, equilibrium.debris.survival]
            row += [float(w) for w in welfare.welfare]
            row += [
                model.qbar,
                required_abatement(probe.scenario, probe.taxes, mode=STATIC),
            ]
            for party in range(parties):
                row += [
                    model.coefficients[party].alpha,
                    model.coefficients[party].beta,
                    closed.coefficients[party].alpha,
                    closed.coefficients[party].beta,
                ]
            row += [
                model.averting_sustainable,
                model.self_enforcing,
                closed.averting_sustainable,
                closed.self_enforcing,
                "",
            ]
        except (OrbitUseError, OverflowError) as error:
            pad = len(header) - 2
            row += [float("nan")] * pad
            row += [type(error).__name__]
        rows.append(row)
    return header, rows


def execute(args: argparse.Namespace) -> int:
    """Run one parsed command; returns the process exit code."""
    try:
        bundle = load_scenario(args.scenario, args.overrides)
        if args.command == "sweep":
            _check_sweep_axis(bundle, args.sweep)
    except (ScenarioParseError, ScenarioValidationError, OverrideError) as error:
        return _fail(_error_object(error), EXIT_VALIDATION)

    if args.strict:
        flags = check_assumptions(bundle.scenario, bundle.taxes)
        # no_crowding_out holds for validated inputs with finite kd and rho (README): reported only.
        if not flags.bounded_marginal_risk:
            return _fail({
                "error": "AssumptionViolation",
                "message": "structural assumptions violated under --strict",
                "no_crowding_out": [bool(f) for f in flags.no_crowding_out],
                "bounded_marginal_risk": bool(flags.bounded_marginal_risk),
            }, EXIT_ASSUMPTION)

    try:
        if args.command in _REPORTS:
            report, code = _REPORTS[args.command](bundle)
            _emit(_report_text(report, args.output_format), args.out)
            return code
        if args.command == "sweep":
            header, rows = _sweep_rows(bundle, args.sweep)
            if args.output_format == "json":
                # Failed cells are NaN, written as null.
                payload = [dict(zip(header, row)) for row in rows]
                _emit(json.dumps(_strict(payload), indent=2), args.out)
            else:
                _emit(rows_to_csv(header, rows), args.out)
            return EXIT_OK
        # verify: the parser admits no other command.
        if args.seed is None:
            return _fail({
                "error": "MissingSeed",
                "message": "verify requires --seed for reproducible batches",
            }, EXIT_VALIDATION)
        reports = run_verification(
            bundle.scenario, bundle.taxes, bundle.abatement,
            seed=args.seed, random_count=args.random_count,
        )
        digest = {"seed": args.seed, "reports": [dataclasses.asdict(r) for r in reports]}
        for item in reports:
            status = "PASS" if item.passed else "FAIL"
            sys.stdout.write(
                f"{status} {item.target} max_residual={item.max_residual:.3e} "
                f"counterexamples={len(item.counterexamples)}\n"
            )
        # A checker that raised has a NaN max_residual, written as null.
        _emit(json.dumps(_strict(digest), indent=2, default=str), args.out)
        return EXIT_OK if all(r.passed for r in reports) else EXIT_ERROR
    except (OrbitUseError, OverflowError) as error:
        # OverflowError: treaty arithmetic on quantities near the float range.
        return _fail(_error_object(error), EXIT_ERROR)


def _parse_sweep(raw: str) -> tuple[str, float, float, int]:
    parts = raw.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("sweep must look like param:from:to:steps")
    key, start, stop, steps = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    if steps < 2:
        raise argparse.ArgumentTypeError("sweep needs at least 2 steps")
    return key, start, stop, steps


def _parse_seed(raw: str) -> int:
    seed = int(raw)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def _parse_count(raw: str) -> int:
    count = int(raw)
    if count < 1:
        raise argparse.ArgumentTypeError("random count must be at least 1")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbituse",
        description="Orbit-use equilibria, regulatory competition, and treaties.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "regulate", "treaty", "sweep", "verify"):
        sub = subparsers.add_parser(name)
        sub.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        sub.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a loaded value (repeatable)",
        )
        if name != "verify":  # verify prints its PASS/FAIL lines and a JSON digest
            sub.add_argument("--format", dest="output_format", choices=("json", "csv"), default="json")
        sub.add_argument("--out", default=None, help="write the report to this path")
        sub.add_argument("--strict", action="store_true", help="assumption violations become failures")
        if name == "sweep":
            sub.add_argument("--sweep", required=True, type=_parse_sweep, metavar="PARAM:FROM:TO:STEPS")
        if name == "verify":
            sub.add_argument("--seed", type=_parse_seed, default=None, help="seed for the random batches (required)")
            sub.add_argument("--random-count", type=_parse_count, default=40)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the tree costs about 25x a parse, and parsing leaves it as it was.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    return execute(_parser().parse_args(argv))
