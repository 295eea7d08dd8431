"""Reduce an op's public output to its checked form and compare two of them.

The rule is the package's public-output rule: numbers match to 1e-12
(relative above magnitude 1, absolute below), while exit codes, ``error``
names, booleans and other strings match exactly. ``verify`` keeps only the
PASS/FAIL status and the counterexample count of each checker, because
residual magnitudes legitimately change with the solver.
"""

from __future__ import annotations

import json
import math

TOLERANCE = 1e-12


def _csv_cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        value = float(text)
    except ValueError:
        return text
    return "nan" if math.isnan(value) else value


def _stdout_form(argv: list[str], stdout: str):
    if "csv" in argv:
        lines = stdout.splitlines()
        return {
            "header": lines[0].split(","),
            "rows": [[_csv_cell(cell) for cell in line.split(",")] for line in lines[1:]],
        }
    if argv[0] == "verify":
        rows = []
        for line in stdout.splitlines():
            status, _, rest = line.partition(" ")
            if status in ("PASS", "FAIL"):
                target = rest.split(" ", 1)[0]
                count = int(line.rsplit("counterexamples=", 1)[1])
                rows.append([status, target, count])
        return rows
    return json.loads(stdout)


def _error_names(stderr: str) -> list[str]:
    names = []
    for line in stderr.splitlines():
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            names.append(line)
            continue
        names.append(payload.get("error") if isinstance(payload, dict) else line)
    return names


def summarize(argv: list[str], exit_code: int, stdout: str, stderr: str) -> dict:
    """Checked form of one op's exit code, standard output and error names."""
    try:
        form = _stdout_form(argv, stdout) if stdout else None
    except (ValueError, IndexError) as error:
        form = {"unparsable": f"{type(error).__name__}: {error}"}
    return {"exit": exit_code, "stdout": form, "errors": _error_names(stderr)}


def _numbers_match(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def mismatch(expected, actual, where: str = "") -> str | None:
    """Path and values of the first difference, or None when they match."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        same = type(expected) is type(actual) and expected == actual
    elif isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        same = _numbers_match(float(expected), float(actual))
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{where}: length {len(actual)} != {len(expected)}"
        for index, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{where}[{index}]")
            if found:
                return found
        return None
    elif isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            found = mismatch(expected[key], actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    else:
        same = expected == actual
    return None if same else f"{where}: {actual!r} != {expected!r}"
