"""The benchmark harness still resolves every package name it reaches for.

``benchmarks/tracing.py`` wraps functions by module and attribute name, and
``benchmarks/run.py``'s micro timings import them by name and call them; a
function renamed or removed from the package, or a parameter those calls
pass removed from it, would otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import inspect
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


def micro_timings_node() -> ast.FunctionDef:
    tree = ast.parse((BENCHMARKS / "run.py").read_text())
    (micro,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "micro_timings"
    ]
    return micro


def test_every_micro_timing_import_exists():
    micro = micro_timings_node()
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


def test_every_micro_timing_call_binds():
    # Binds each timed lambda's call by its argument count and keyword names,
    # so a call that passes a removed parameter fails here.
    micro = micro_timings_node()
    functions = {
        alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(micro)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "orbituse"
        for alias in node.names
    }
    calls = [
        node.body for node in ast.walk(micro)
        if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call)
    ]
    assert calls
    unbound = []
    for call in calls:
        name = call.func.id
        args = [None] * len(call.args)
        kwargs = {keyword.arg: None for keyword in call.keywords}
        try:
            inspect.signature(functions[name]).bind(*args, **kwargs)
        except TypeError as error:
            unbound.append(f"{name}: {error}")
    assert unbound == []
