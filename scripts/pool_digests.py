#!/usr/bin/env python3
"""Digest every benchmark pool op's exit code, stdout and stderr.

Usage:
    python scripts/pool_digests.py [OP_ID ...] > digests.json

Writes the pool inputs of ``benchmarks/inputs.py`` to a temporary
directory, runs each op there in process through ``orbituse.cli.main``,
and prints a JSON map from op id (``regulate/0``, ``verify/sym2-5``, ...)
to the sha256 of that op's exit code, stdout and stderr. Op ids given as
arguments restrict the run. Two source trees kept every pool op's output
byte for byte exactly when their maps are equal; run each with its own
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import inputs  # noqa: E402
from orbituse.cli import main  # noqa: E402


def run_op(argv: list[str]) -> tuple[object, str, str]:
    """Exit code (or the exception that escaped), stdout and stderr of one op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception:
            code = traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def digests(op_ids: list[str]) -> dict[str, str]:
    pool = {op["id"]: op for make in inputs.POOLS.values() for op in make()}
    unknown = [op_id for op_id in op_ids if op_id not in pool]
    if unknown:
        raise SystemExit(f"unknown op ids: {', '.join(unknown)}")
    chosen = [pool[op_id] for op_id in op_ids] if op_ids else list(pool.values())
    result = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)  # the ops name their inputs relative to the checkout, as in the benchmark
        try:
            for op in chosen:
                for relative, bundle in op["files"].items():
                    path = Path(relative)
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(json.dumps(bundle))
                outcome = json.dumps(run_op(op["argv"]))
                result[op["id"]] = hashlib.sha256(outcome.encode()).hexdigest()
        finally:
            os.chdir(here)
    return result


if __name__ == "__main__":
    json.dump(digests(sys.argv[1:]), sys.stdout, indent=2)
    sys.stdout.write("\n")
