"""Layer tracing installed from outside the package.

:class:`Tracer` replaces each traced function with a timing wrapper in
every ``orbituse`` module namespace that holds it (for example both
``orbituse.open_access.solve_equilibrium`` and
``orbituse.treaty.solve_equilibrium``), and ``scipy.optimize.minimize`` in
``orbituse.regulation`` and in ``scipy.optimize`` itself. Wrappers pass
arguments and results through untouched, so traced outputs equal untraced
ones bit for bit. Spans (name, start, end, parent, op, raised) stay in
memory until :meth:`Tracer.write`; self time is a span's duration minus
that of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module that defines the function, attribute, layer.function span name)
TARGETS = [
    ("orbituse.reporting", "load_scenario", "reporting.load_scenario"),
    ("orbituse.reporting", "bundle_from_data", "reporting.bundle_from_data"),
    ("orbituse.reporting", "rows_to_csv", "reporting.rows_to_csv"),
    ("orbituse.scenario", "validate_scenario", "scenario.validate_scenario"),
    ("orbituse.open_access", "solve_equilibrium", "open_access.solve_equilibrium"),
    ("orbituse.open_access", "required_abatement", "open_access.required_abatement"),
    ("orbituse.open_access", "sensitivities", "open_access.sensitivities"),
    ("orbituse.open_access", "reduce_two_player", "open_access.reduce_two_player"),
    ("orbituse.regulation", "best_response_taxes", "regulation.best_response_taxes"),
    ("orbituse.regulation", "national_welfare", "regulation.national_welfare"),
    ("orbituse.regulation", "regulatory_equilibrium", "regulation.regulatory_equilibrium"),
    ("scipy.optimize", "minimize", "regulation.lbfgs"),
    ("orbituse.treaty", "analyze_treaty", "treaty.analyze_treaty"),
    ("orbituse.treaty", "benefit_coefficients", "treaty.benefit_coefficients"),
    ("orbituse.treaty", "coefficient_divergence", "treaty.coefficient_divergence"),
    ("orbituse.oracle", "iterate_open_access", "oracle.iterate_open_access"),
    ("orbituse.oracle", "deviation_search_abatement", "oracle.deviation_search_abatement"),
    ("orbituse.oracle", "grid_maximize", "oracle.grid_maximize"),
    ("orbituse.sampling", "sample_scenario", "sampling.sample_scenario"),
] + [
    ("orbituse.verification", checker, f"verification.{checker}")
    for checker in (
        "check_equilibrium_agreement",
        "check_reduction",
        "check_decomposition",
        "check_sensitivity_agreement",
        "check_sign_suite",
        "check_channel_identity",
        "check_welfare_quadratic",
        "check_treaty_consistency",
        "check_nash_certification",
    )
]

NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    """Spans and counters for the traced functions, one op at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self.endpoints: dict[int, list] = defaultdict(list)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        import numpy as np
        import scipy.optimize  # noqa: F401  (so the minimize target is loaded)

        self._np = np
        for module_name, attr, span in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span, original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "orbituse" or name.startswith("orbituse.")):
                    continue
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
            # Also the defining module, so a later ``from ... import`` (a
            # lazy import of scipy.optimize, say) picks up the wrapper.
            self._patch(sys.modules[module_name], attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr: str, wrapper) -> None:
        if getattr(module, attr) is wrapper:
            return
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, name: str, function):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = {
            "regulation.lbfgs": self._after_lbfgs,
            "regulation.best_response_taxes": self._after_best_response,
            "regulation.regulatory_equilibrium": self._after_regulatory,
            "sampling.sample_scenario": self._after_sample,
        }.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if after is not None:
                after(index, result)
            return result

        return wrapper

    # -- counters measured where the work happens ----------------------
    def _after_lbfgs(self, index: int, result) -> None:
        self.counters["regulation.lbfgs.nfev"] += result.nfev
        self.endpoints[self.spans[index][PARENT]].append(
            self._np.clip(result.x, 0.0, 1.0)
        )

    def _after_best_response(self, index: int, chosen) -> None:
        ends = self.endpoints.pop(index, [])
        self.counters["regulation.lbfgs.useful"] += sum(
            bool(self._np.array_equal(end, chosen)) for end in ends
        )

    def _after_regulatory(self, index: int, result) -> None:
        self.counters["regulation.iterations"] += result.iterations

    def _after_sample(self, index: int, result) -> None:
        self.counters["sampling.returned"] += 1

    # -- derived metrics ----------------------------------------------
    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def totals(self) -> dict[str, float]:
        """Calls, errors, busy and self seconds per span name, plus counters.

        Busy time counts a span only when no ancestor has the same name, so
        nested calls of one function are not counted twice.
        """
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        for index, span in enumerate(self.spans):
            name, duration = span[NAME], span[END] - span[START]
            out[f"{name}.calls"] += 1
            out[f"{name}.errors"] += span[RAISED]
            out[f"{name}.self_s"] += duration - child_time[index]
            if not self._has_ancestor(index, name):
                out[f"{name}.busy_s"] += duration
            if name == "open_access.solve_equilibrium":
                if self._has_ancestor(index, "treaty.analyze_treaty"):
                    out["treaty.nested_solves"] += 1
                if self._has_ancestor(index, "sampling.sample_scenario"):
                    out["sampling.nested_solves"] += 1
        out.update(self.counters)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps([
                    span[NAME], span[START] - origin, span[END] - origin,
                    span[PARENT], span[OP], span[RAISED],
                ]) + "\n")
