#!/usr/bin/env python3
"""Record the reference output of every pool op at the current commit.

    python3 benchmarks/record.py

Writes ``benchmarks/reference.json.gz``: per workload, each op's input
digest, checked output (``outputs.summarize``) and recorded seconds (the
median of TIMINGS in-process runs, one in each of TIMINGS passes over the
pool in shuffled order, so that a slow spell of a shared machine falls on
different ops in each pass), the warm-up op (the quickest), and the
strata a run draws from: the pool split by recorded seconds into STRATA
groups of (nearly) equal size. Small strata keep the cost mix of one run
close to that of the whole pool, and an odd number of them puts the
median latency inside the middle stratum rather than on the edge between
two.
Re-record only when the program's public output is meant to change.
"""

from __future__ import annotations

import gzip
import json
import random
import statistics

import inputs
import outputs
import run

STRATA = {"regulate": 21, "verify": 11}
TIMINGS = 5


def strata(workload: str, seconds: dict[str, float]) -> list[list[str]]:
    ranked, count = sorted(seconds, key=seconds.get), STRATA[workload]
    return [ranked[len(ranked) * i // count:len(ranked) * (i + 1) // count] for i in range(count)]


def main() -> None:
    run.import_package()
    reference = {"workloads": {}}
    for workload, make_pool in inputs.POOLS.items():
        pool = make_pool()
        run.write_inputs(pool)
        ops, times = {}, {op["id"]: [] for op in pool}
        for timing in range(TIMINGS):
            order = list(pool)
            random.Random(timing).shuffle(order)
            for op in order:
                code, stdout, stderr, took = run.in_process(op["argv"])
                if code is None:
                    raise SystemExit(f"{op['id']} raised:\n{stderr}")
                output = outputs.summarize(op["argv"], code, stdout, stderr)
                first = ops.setdefault(op["id"], {"digest": inputs.digest(op), "output": output})
                problem = outputs.mismatch(first["output"], output, op["id"])
                if problem:
                    raise SystemExit(f"two runs differ: {problem}")
                times[op["id"]].append(took)
            print(f"{workload} pass {timing + 1} of {TIMINGS} done", flush=True)
        seconds = {op_id: statistics.median(taken) for op_id, taken in times.items()}
        for op_id, taken in seconds.items():
            ops[op_id]["seconds"] = taken
        reference["workloads"][workload] = {
            "warmup": min(seconds, key=seconds.get),
            "strata": strata(workload, seconds),
            "ops": ops,
        }
    with gzip.open(run.REFERENCE, "wt") as handle:
        json.dump(reference, handle, separators=(",", ":"))


if __name__ == "__main__":
    main()
