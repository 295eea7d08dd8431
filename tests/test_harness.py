"""The benchmark harness still resolves every package name it reaches for.

``benchmarks/tracing.py`` wraps functions by module and attribute name, and
``benchmarks/run.py``'s micro timings import them by name; a function
renamed or removed from the package would otherwise surface only when the
benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_package_function_exists():
    spec = importlib.util.spec_from_file_location("tracing", BENCHMARKS / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(m, attr) for m, attr, _ in tracing.TARGETS if m.startswith("orbituse.")]
    assert targets
    missing = [
        f"{m}.{attr}" for m, attr in targets
        if not callable(getattr(importlib.import_module(m), attr, None))
    ]
    assert missing == []


def test_every_micro_timing_import_exists():
    tree = ast.parse((BENCHMARKS / "run.py").read_text())
    (micro,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "micro_timings"
    ]
    imports = [
        (node.module, alias.name)
        for node in ast.walk(micro)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "orbituse"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
