"""Spans around the public functions of pathplan's layers.

``Tracer.install`` rebinds each traced function, in every pathplan module
that binds it, to a wrapper that counts calls and self time: the span's
duration minus the durations of the traced spans it encloses.  ``uninstall``
puts the original functions back.  The package is not changed on disk.

A function bound under two names is traced under the name its caller uses;
the four existence checks that ``synth.answered_fractions`` runs are booked
per approach (``synth.eqRewriting`` and so on), apart from the same
functions called directly through ``engine``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("cli", "dsl", "model", "characterize", "engine", "evaluate", "synth")

# Layer -> public functions traced at every binding of them.
TRACED = {
    "cli": ("main",),
    "dsl": ("parse_catalog", "serialize_plan"),
    "model": (
        "catalog_closure",
        "sub_function_transformation",
        "plan_semantics",
        "chain_plan",
    ),
    "characterize": (
        "weakly_smart_skeleton",
        "is_weakly_smart",
        "is_bounded",
        "is_loosely_bounded",
        "is_smart",
        "find_walk",
    ),
    "engine": (
        "enumerate_minimal_weakly_smart",
        "enumerate_minimal_smart",
        "find_one_weakly_smart",
        "susie_plans",
        "has_trivial_equivalent_rewriting",
        "search_successors",
        "state_consistent",
    ),
    "evaluate": (
        "canonical_weak_database",
        "eval_semantics",
        "eval_plan",
        "call_function",
        "oracle_is_weakly_smart",
        "oracle_is_smart",
    ),
    "synth": ("gen_catalog", "answered_fractions", "smart_plan_exists"),
}

# The existence check each name bound in synth runs, by approach.
SYNTH_APPROACHES = {
    "has_trivial_equivalent_rewriting": "eqRewriting",
    "susie_plans": "susie",
    "smart_plan_exists": "smart",
    "find_one_weakly_smart": "weaklySmart",
}

# Characterize decisions a search asks before it keeps a candidate.
GATES = ("weakly_smart_skeleton", "is_bounded", "is_loosely_bounded", "is_smart")
SEARCH_LAYERS = ("engine", "synth")

# Counters summed from results, named as the benchmark reports them.
COUNTERS = (
    "model.closure_views",
    "engine.find_one.states_visited",
    "engine.plans_returned",
    "evaluate.instances_checked",
    "characterize.gate_calls",
    "characterize.gate_accepts",
)


def _accepted(name, result) -> bool:
    if name == "is_smart":
        return result.level == "smart"
    if name in ("is_bounded", "is_loosely_bounded"):
        return result is not None
    return bool(result)


class Tracer:
    """Calls, self time and result counters per traced span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.layer_of = {}
        self._stack = []
        self._saved = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"pathplan.{m}") for m in MODULES}
        originals = {}  # id of each traced function -> (layer, name)
        for layer, names in TRACED.items():
            for name in names:
                originals[id(getattr(modules[layer], name))] = (layer, name)
        for binder, module in modules.items():
            for attr, value in list(vars(module).items()):
                if id(value) not in originals:
                    continue
                layer, name = originals[id(value)]
                span = f"{layer}.{name}"
                if binder == "synth" and name in SYNTH_APPROACHES:
                    span = f"synth.{SYNTH_APPROACHES[name]}"
                self.layer_of[span] = layer
                self._saved.append((module, attr, value))
                setattr(module, attr, self._wrap(span, layer, name, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def _wrap(self, span, layer, name, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                calls[span] += 1
                self_s[span] += spent - frame[0]
                if parent is not None:
                    parent[0] += spent
            self._count(name, result, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, name, result, parent) -> None:
        c = self.counters
        if name == "catalog_closure":
            c["model.closure_views"] += len(result)
        elif name == "find_one_weakly_smart":
            c["engine.find_one.states_visited"] += result.states_visited
            c["engine.plans_returned"] += result.hit is not None
        elif name in ("enumerate_minimal_weakly_smart", "enumerate_minimal_smart"):
            c["engine.plans_returned"] += len(result)
        elif name in ("oracle_is_weakly_smart", "oracle_is_smart"):
            c["evaluate.instances_checked"] += result.instances_checked
        if name in GATES and parent is not None and parent[1] in SEARCH_LAYERS:
            c["characterize.gate_calls"] += 1
            c["characterize.gate_accepts"] += _accepted(name, result)

    # -- reporting ----------------------------------------------------------

    def metric(self, key: str) -> float:
        """``<span>.calls``, ``<span>.self_ms``, a counter, or a ratio."""
        c = self.counters
        if key == "characterize.gate_accept_ratio":
            return c["characterize.gate_accepts"] / max(1, c["characterize.gate_calls"])
        if key == "engine.plan_yield":
            return c["engine.plans_returned"] / max(1, c["characterize.gate_calls"])
        if key in c:
            return c[key]
        if key.endswith(".self_ms") and key[: -len(".self_ms")] in TRACED:
            return self.layer_self_ms()[key[: -len(".self_ms")]]
        span, _, kind = key.rpartition(".")
        if kind == "calls":
            return self.calls.get(span, 0)
        if kind == "self_ms":
            return self.self_s.get(span, 0.0) * 1000.0
        raise KeyError(key)

    def layer_self_ms(self) -> dict:
        """Self time summed by the layer that defines each function."""
        out = dict.fromkeys(TRACED, 0.0)
        for span, seconds in self.self_s.items():
            out[self.layer_of[span]] += seconds * 1000.0
        return out

    def deterministic(self) -> dict:
        """Counts that repeat exactly for the same inputs."""
        out = {f"{span}.calls": n for span, n in sorted(self.calls.items())}
        out.update(self.counters)
        return out
