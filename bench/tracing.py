"""Outside-in tracing of the engine's layers for the benchmark's traced run.

The tracer rebinds the public functions at each layer boundary to wrappers
that record a span (name, start, end, parent span, op id) in memory, and the
cheap curve and valuation methods to wrappers that only count calls,
attributed to the layer of the innermost open span.  Modules bind names at
import (``from .model import mean_excluding``), so every module of the
package holding the original function gets the wrapper, not only the module
that defines it.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

# (module, attribute, span name).  The span name's prefix is its layer.
SPANS = (
    ("model", "mean_type", "model.mean_type"),
    ("model", "mean_excluding", "model.mean_excluding"),
    ("model", "social_welfare", "model.social_welfare"),
    ("solver", "optimize", "solver.optimize"),
    ("solver", "optimize_biased", "solver.optimize_biased"),
    ("solver", "optimize_hetero", "solver.optimize_hetero"),
    ("solver", "equitable_allocation", "solver.equitable"),
    ("mechanism", "run_us_vcg", "mechanism.run_us_vcg"),
    ("mechanism", "run_bus_vcg", "mechanism.run_bus_vcg"),
    ("mechanism", "run_us_vcg_hetero", "mechanism.run_us_vcg_hetero"),
    ("mechanism", "non_positive_payments", "mechanism.non_positive_payments"),
    ("mechanism", "identity_residuals", "mechanism.identity_residuals"),
    ("mechanism", "realized_utility", "mechanism.realized_utility"),
    ("experiments", "sdsic_fuzz", "experiments.sdsic_fuzz"),
    ("elicitation", "invert_ballot", "elicitation.invert_ballot"),
    ("files", "load_instance", "files.load_instance"),
    ("files", "write_json", "files.write_json"),
    ("cli", "cmd_mechanism", "cli.mechanism"),
    ("cli", "cmd_check", "cli.check"),
)

# (module, class or None, attribute, counter name): counted, not timed.
COUNTERS = (
    ("curves", "GainCurve", "value", "gain_value"),
    ("curves", "GainCurve", "deriv", "gain_deriv"),
    ("curves", "GainCurve", "deriv2", "gain_deriv2"),
    ("curves", "GainCurve", "inverse_deriv", "inverse_deriv"),
    ("curves", "GainCurve", "inverse", "gain_inverse"),
    ("curves", "MoneyCurve", "value", "money_value"),
    ("curves", "MoneyCurve", "deriv", "money_deriv"),
    ("curves", "MoneyCurve", "inverse", "money_inverse"),
    ("model", None, "valuation", "valuation"),
)

PACKAGE = "usvcg"
LAYERS = ("curves", "model", "solver", "mechanism", "experiments", "elicitation", "files", "cli")
SOLVES = frozenset(("solver.optimize", "solver.optimize_biased", "solver.optimize_hetero"))


class Tracer:
    """Span and counter recorder; spans stay in memory until ``metrics``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: collections.Counter = collections.Counter()
        self.op = 0
        self._stack = [-1]
        self._layers = ["bench"]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, layers, clock = self.spans, self._stack, self._layers, time.perf_counter
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            layers.append(layer)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                layers.pop()

        return wrapper

    def _counter(self, name: str, fn):
        counts, layers = self.counts, self._layers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layers[-1], name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def _rebind(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for mod_name, attr, name in SPANS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            self._rebind(original, self._span(name, original))
        for mod_name, cls_name, attr, name in COUNTERS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if cls_name is None:
                original = getattr(module, attr)
                self._rebind(original, self._counter(name, original))
            else:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._counter(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-function inclusive time, per-layer self time and call counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        incl = collections.Counter()
        calls = collections.Counter()
        self_time = collections.Counter()
        by_parent = collections.Counter()
        solves = 0
        for k, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            parent_name = spans[parent][0] if parent >= 0 else "bench"
            incl[name] += dur
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += dur - child[k]
            if name == "model.mean_type":
                by_parent[parent_name] += dur
            if name in SOLVES and parent_name not in SOLVES:
                solves += 1
        counted = collections.Counter()
        in_solver = collections.Counter()
        for (layer, name), c in self.counts.items():
            counted[name] += c
            if layer == "solver":
                in_solver[name] += c
        per_solve = (lambda c: c / solves) if solves else (lambda c: 0.0)
        out = {
            "model.mean_excluding_s": incl["model.mean_excluding"],
            "model.mean_type_s": incl["model.mean_type"],
            "model.mean_type_in_mean_excluding_s": by_parent["model.mean_excluding"],
            "model.mean_type_in_social_welfare_s": by_parent["model.social_welfare"],
            "model.social_welfare_s": incl["model.social_welfare"],
            "model.mean_excluding_calls": calls["model.mean_excluding"],
            "model.mean_type_calls": calls["model.mean_type"],
            "model.valuation_calls": counted["valuation"],
            "solver.optimize_calls": calls["solver.optimize"],
            "solver.solves": solves,
            "solver.optimize_s": incl["solver.optimize"],
            "solver.optimize_biased_s": incl["solver.optimize_biased"],
            "solver.optimize_hetero_s": incl["solver.optimize_hetero"],
            "solver.equitable_s": incl["solver.equitable"],
            "solver.money_evals_per_solve": per_solve(in_solver["money_value"]),
            "solver.inverse_deriv_per_solve": per_solve(in_solver["inverse_deriv"]),
            "mechanism.run_us_vcg_s": incl["mechanism.run_us_vcg"],
            "mechanism.run_bus_vcg_s": incl["mechanism.run_bus_vcg"],
            "mechanism.run_us_vcg_hetero_s": incl["mechanism.run_us_vcg_hetero"],
            "mechanism.non_positive_payments_s": incl["mechanism.non_positive_payments"],
            "mechanism.identity_residuals_s": incl["mechanism.identity_residuals"],
            "experiments.sdsic_fuzz_s": incl["experiments.sdsic_fuzz"],
            "experiments.sdsic_fuzz_calls": calls["experiments.sdsic_fuzz"],
            "elicitation.invert_ballot_s": incl["elicitation.invert_ballot"],
            "files.load_instance_s": incl["files.load_instance"],
            "files.write_json_s": incl["files.write_json"],
            "cli.mechanism_s": incl["cli.mechanism"],
            "cli.check_s": incl["cli.check"],
            "trace.spans": len(spans),
        }
        for name in ("gain_value", "gain_deriv", "gain_deriv2", "inverse_deriv",
                     "gain_inverse", "money_value", "money_deriv", "money_inverse"):
            out[f"curves.{name}_calls"] = counted[name]
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = self_time[layer]
        return out

    def count_digest(self) -> dict:
        """Exact counts that must repeat across runs on one seed."""
        calls = collections.Counter(s[0] for s in self.spans)
        return {"spans": dict(sorted(calls.items())),
                "counters": {f"{layer}:{name}": c for (layer, name), c in sorted(self.counts.items())}}
