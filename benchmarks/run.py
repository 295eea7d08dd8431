#!/usr/bin/env python3
"""The orbituse benchmark: two closed-loop workloads on the public CLI.

    python3 benchmarks/run.py --workload {regulate,verify} \\
        --seed N --seconds S --trace {0,1}

Run from a source checkout (it imports ``src/orbituse``). One process, one
thread and one client: ``nproc`` is 2 on the reference machine, and every
BLAS/OpenMP pool is pinned to one thread. Each op is one ``orbituse``
command run in process through ``orbituse.cli.main``. Every op's exit code
and output are checked against ``reference.json.gz`` (see ``outputs.py``);
an op that raises or differs counts as failed.

A run takes ops in schedule order, cycle after cycle, each cycle one op
from every stratum of the workload's pool (see ``inputs.py``), until
``--seconds`` have been spent in ops and set-up probes. ``--trace 0``
prints the end-to-end metrics: ``setup_s`` (median of five fresh
processes spread over the run, each timed from before ``import orbituse``
to the end of one warm-up op, so import cost counts), ``ops_per_s``
(checked ops per second spent in ops, after warm-up), ``latency_p50_s``
and ``latency_tail_s`` (the highest whole percentile with at least ten
samples above it).
``--trace 1`` runs every op untraced and then traced, checks that both
outputs are equal byte for byte, and prints per-layer metrics averaged
per op, the tracing overhead, per-call timings on fixed inputs
(``micro.*``) and ``-X importtime`` import times. The last line of
standard output is the JSON result; a results file and the spans go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads

import inputs  # noqa: E402
import outputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json.gz"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")])
))

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SCHEDULE_CYCLES = 500
OP_TIMEOUT_S = 120
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
}

MICRO = [
    "solve_equilibrium",
    "sensitivities_analytic",
    "sensitivities_fd",
    "required_abatement",
    "analyze_treaty",
    "best_response_taxes",
    "regulatory_equilibrium",
    "iterate_open_access",
]
CHECKERS = [
    "check_equilibrium_agreement",
    "check_reduction",
    "check_decomposition",
    "check_sensitivity_agreement",
    "check_sign_suite",
    "check_channel_identity",
    "check_welfare_quadratic",
    "check_treaty_consistency",
    "check_nash_certification",
]
SPAN_FIELDS = {"calls": ("count", "lower"), "busy_s": ("s", "lower"),
               "self_s": ("s", "lower"), "errors": ("count", "lower")}


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric; counts are per op."""
    metrics = []
    for span in (
        "open_access.solve_equilibrium",
        "open_access.required_abatement",
        "open_access.sensitivities",
        "open_access.reduce_two_player",
        "treaty.analyze_treaty",
        "treaty.benefit_coefficients",
        "treaty.coefficient_divergence",
        "regulation.best_response_taxes",
        "regulation.national_welfare",
        "regulation.regulatory_equilibrium",
        "oracle.iterate_open_access",
        "oracle.deviation_search_abatement",
        "oracle.grid_maximize",
        "sampling.sample_scenario",
    ):
        metrics += [(f"{span}.{field}", *spec) for field, spec in SPAN_FIELDS.items()]
    metrics += [
        ("treaty.solves_per_analysis", "ratio", "lower"),
        ("regulation.iterations", "count", "lower"),
        ("regulation.lbfgs.starts", "count", "lower"),
        ("regulation.lbfgs.nfev", "count", "lower"),
        ("regulation.lbfgs.busy_s", "s", "lower"),
        ("regulation.lbfgs.self_s", "s", "lower"),
        ("regulation.lbfgs.useful_ratio", "ratio", "higher"),
        ("sampling.accept_ratio", "ratio", "higher"),
    ]
    metrics += [(f"verification.{checker}.busy_s", "s", "lower") for checker in CHECKERS]
    metrics += [
        ("cli.import_s", "s", "lower"),
        ("cli.import_scipy_optimize_s", "s", "lower"),
        ("reporting.load_scenario.busy_s", "s", "lower"),
        ("reporting.bundle_from_data.busy_s", "s", "lower"),
        ("reporting.rows_to_csv.busy_s", "s", "lower"),
        ("scenario.validate_scenario.calls", "count", "lower"),
        ("scenario.validate_scenario.busy_s", "s", "lower"),
    ]
    metrics += [(f"micro.{name}_us", "us", "lower") for name in MICRO]
    metrics += [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
    ]
    return metrics


PER_LAYER = _per_layer()


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- running one op ----------------------------------------------------
def in_process(argv: list[str]) -> tuple[int | None, str, str, float]:
    """Exit code (None if it raised), stdout, stderr and seconds of one op."""
    import orbituse.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = orbituse.cli.main(argv)
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 1
    except Exception:
        seconds = time.perf_counter() - start
        return None, out.getvalue(), traceback.format_exc(), seconds
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def cold(args: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall seconds of one fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
        text=True, timeout=OP_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def write_inputs(pool: list[dict]) -> None:
    for op in pool:
        for relative, bundle in op["files"].items():
            path = ROOT / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(bundle))


def import_package() -> None:
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import orbituse

    if Path(orbituse.__file__).resolve().parent != SOURCE / "orbituse":
        raise BenchmarkError(f"imported orbituse from {orbituse.__file__}, not {SOURCE}")


def load_reference() -> dict:
    if not (SOURCE / "orbituse" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {SOURCE / 'orbituse'}")
    if not REFERENCE.is_file():
        raise BenchmarkError(f"no reference outputs at {REFERENCE}")
    with gzip.open(REFERENCE, "rt") as handle:
        return json.load(handle)


# -- statistics ----------------------------------------------------------
def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with TAIL_BEYOND samples above it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    percentile = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(percentile * n / 100))
    return percentile, ordered[rank - 1]


def per_call_us(function, target_s: float = 0.04, batches: int = 5) -> float:
    function()
    count = 1
    while True:
        start = time.perf_counter()
        for _ in range(count):
            function()
        if time.perf_counter() - start >= target_s:
            break
        count *= 2
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(count):
            function()
        samples.append((time.perf_counter() - start) / count)
    return statistics.median(samples) * 1e6


def micro_timings() -> dict[str, float]:
    """Per-call microseconds of the core layers on fixed inputs."""
    from orbituse.open_access import (
        ANALYTIC, FINITE_DIFFERENCE, required_abatement, sensitivities, solve_equilibrium,
    )
    from orbituse.oracle import iterate_open_access
    from orbituse.regulation import best_response_taxes, regulatory_equilibrium
    from orbituse.reporting import bundle_from_data
    from orbituse.treaty import analyze_treaty

    sym2, hideb = bundle_from_data(inputs.SYM2), bundle_from_data(inputs.HIDEB)
    s, t = sym2.scenario, sym2.taxes
    cases = {
        "solve_equilibrium": lambda: solve_equilibrium(s, t, 0.0),
        "sensitivities_analytic": lambda: sensitivities(s, t, 0.0, ANALYTIC),
        "sensitivities_fd": lambda: sensitivities(s, t, 0.0, FINITE_DIFFERENCE),
        "required_abatement": lambda: required_abatement(hideb.scenario, hideb.taxes),
        "analyze_treaty": lambda: analyze_treaty(s, t),
        "best_response_taxes": lambda: best_response_taxes(s, t, 0.0, 0),
        "regulatory_equilibrium": lambda: regulatory_equilibrium(s, 0.0, t),
        "iterate_open_access": lambda: iterate_open_access(s, t, 0.0),
    }
    return {f"micro.{name}_us": per_call_us(cases[name]) for name in MICRO}


def import_times() -> dict[str, float]:
    """Median cumulative ``-X importtime`` seconds of the package and scipy.optimize."""
    found: dict[str, list[float]] = {"orbituse": [], "scipy.optimize": []}
    for _ in range(IMPORT_REPEATS):
        code, _, stderr, _ = cold(["-X", "importtime", "-c", "import orbituse"])
        if code != 0:
            raise BenchmarkError(f"import orbituse failed:\n{stderr}")
        cumulative = {}
        for line in stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, micros, name = line.split("|")
                if micros.strip().isdigit():
                    cumulative[name.strip()] = int(micros) / 1e6
        for name in found:
            found[name].append(cumulative.get(name, 0.0))
    return {
        "cli.import_s": statistics.median(found["orbituse"]),
        "cli.import_scipy_optimize_s": statistics.median(found["scipy.optimize"]),
    }


def environment() -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            ref = sha[5:]
            loose = ROOT / ".git" / ref
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                sha = loose.read_text().strip()
            elif packed.is_file():
                sha = next((line.split()[0] for line in packed.read_text().splitlines()
                            if line.endswith(" " + ref)), "unknown")
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- the two kinds of run ------------------------------------------------
class Run:
    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        entry = reference["workloads"][workload]
        self.ops = entry["ops"]
        self.pool = {op["id"]: op for op in inputs.POOLS[workload]()}
        for op_id, recorded in self.ops.items():
            if op_id not in self.pool or inputs.digest(self.pool[op_id]) != recorded["digest"]:
                raise BenchmarkError(f"generated input {op_id} differs from the reference")
        self.warmup = entry["warmup"]
        self.cycles = inputs.schedule(entry["strata"], seed, SCHEDULE_CYCLES)
        self.inputs_digest = inputs.digest({
            "pool": {op_id: self.ops[op_id]["digest"] for op_id in sorted(self.ops)},
            "schedule": self.cycles,
        })
        write_inputs(list(self.pool.values()))
        self.records: list[dict] = []

    def scheduled(self):
        """Op ids in schedule order, cycle after cycle."""
        return (op_id for cycle in self.cycles for op_id in cycle)

    def argv(self, op_id: str) -> list[str]:
        return self.pool[op_id]["argv"]

    def check(self, op_id: str, code, stdout: str, stderr: str) -> str | None:
        if code is None:
            return "raised: " + stderr.strip().splitlines()[-1]
        got = outputs.summarize(self.argv(op_id), code, stdout, stderr)
        return outputs.mismatch(self.ops[op_id]["output"], got, op_id)

    def setup_probe(self) -> tuple[float, float]:
        """Set-up seconds of one fresh process and the wall seconds of the probe."""
        code, stdout, stderr, wall = cold([str(HERE / "child.py"), *self.argv(self.warmup)])
        if code != 0:
            raise BenchmarkError(f"set-up probe failed:\n{stderr}")
        return json.loads(stdout.splitlines()[-1])["seconds"], wall

    def measure(self, seconds: float) -> dict:
        # ``seconds`` is spent in ops and set-up probes together, so a run
        # lasts about as long on every workload. The probes are spread over
        # the run, so that one slow spell of a shared machine does not shift
        # all of them together.
        setup, spent = [], 0.0

        def probe() -> None:
            nonlocal spent
            value, wall = self.setup_probe()
            setup.append(value)
            spent += wall

        probe()
        import_package()
        in_process(self.argv(self.warmup))
        latencies, ok, busy = [], 0, 0.0
        for op_id in self.scheduled():
            if spent >= seconds:
                break
            code, stdout, stderr, took = in_process(self.argv(op_id))
            problem = self.check(op_id, code, stdout, stderr)
            latencies.append(took)
            busy += took
            spent += took
            ok += problem is None
            self.records.append({"op": op_id, "seconds": took, "problem": problem})
            if len(setup) < SETUP_REPEATS and spent >= seconds * len(setup) / SETUP_REPEATS:
                probe()
        while len(setup) < SETUP_REPEATS:
            probe()
        percentile, tail_value = tail(latencies)
        return {
            "metrics": {
                "ops_per_s": ok / busy,
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail_value,
                "setup_s": statistics.median(setup),
            },
            "tail_percentile": percentile,
            "setup_samples_s": setup,
        }

    def traced(self, seconds: float) -> dict:
        from tracing import Tracer

        import_package()
        in_process(self.argv(self.warmup))
        tracer = Tracer()
        plain_s = traced_s = 0.0
        for op_id in self.scheduled():
            if plain_s + traced_s >= seconds:
                break
            argv = self.argv(op_id)
            code, stdout, stderr, took = in_process(argv)
            problem = self.check(op_id, code, stdout, stderr)
            tracer.op = op_id
            tracer.install()
            try:
                traced = in_process(argv)
            finally:
                tracer.uninstall()
            if problem is None and traced[:3] != (code, stdout, stderr):
                problem = f"{op_id}: traced output differs from untraced output"
            plain_s += took
            traced_s += traced[3]
            self.records.append({"op": op_id, "seconds": took, "traced_seconds": traced[3],
                                 "problem": problem})
        tracer.write(OUT / f"spans-{self.workload}.jsonl")
        count = len(self.records)
        totals = tracer.totals()
        metrics = {}
        for name, _, _ in PER_LAYER:
            field = name.rsplit(".", 1)[-1]
            if field in SPAN_FIELDS:
                metrics[name] = totals.get(name, 0.0) / count

        def ratio(numerator: str, denominator: str) -> float:
            base = totals.get(denominator, 0.0)
            return totals.get(numerator, 0.0) / base if base else 0.0

        metrics.update({
            "treaty.solves_per_analysis": ratio("treaty.nested_solves", "treaty.analyze_treaty.calls"),
            "regulation.iterations": totals.get("regulation.iterations", 0.0) / count,
            "regulation.lbfgs.starts": totals.get("regulation.lbfgs.calls", 0.0) / count,
            "regulation.lbfgs.nfev": totals.get("regulation.lbfgs.nfev", 0.0) / count,
            "regulation.lbfgs.useful_ratio": ratio("regulation.lbfgs.useful", "regulation.lbfgs.calls"),
            "sampling.accept_ratio": ratio("sampling.returned", "sampling.nested_solves"),
            "trace.overhead_ratio": traced_s / plain_s,
            "trace.ops_per_s": count / traced_s,
            "trace.untraced_ops_per_s": count / plain_s,
        })
        metrics.update(micro_timings())
        metrics.update(import_times())
        return {"metrics": metrics, "traced_ops": count, "totals": dict(totals)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        run = Run(args.workload, args.seed, load_reference())
        result = run.traced(args.seconds) if args.trace else run.measure(args.seconds)
    except BenchmarkError as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2

    attempted = len(run.records)
    problems = [record["problem"] for record in run.records if record["problem"]]
    units = dict(END_TO_END) if not args.trace else {name: unit for name, unit, _ in PER_LAYER}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs_digest": run.inputs_digest,
        "attempted": attempted,
        "failed": len(problems),
        "fail_ratio": len(problems) / attempted,
        "problems": problems[:20],
        **result,
        "ops": run.records,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"results-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    for name, value in result["metrics"].items():
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{result['tail_percentile']} of {attempted} samples)"
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"fail_ratio = {report['fail_ratio']:.6g} ratio  ({len(problems)} of {attempted} ops)")
    for problem in problems[:5]:
        print(f"failed: {problem}")
    print(f"inputs_digest = {run.inputs_digest}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
