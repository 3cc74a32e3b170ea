"""Traced runs: spans around the public entry points of each layer.

A :class:`Tracer` patches the public functions and methods listed in
:data:`HOOKS` for the duration of :meth:`Tracer.installed` and restores
the originals afterwards. Every call becomes one span — name, layer,
start, end, parent span, request id and phase — kept in memory and
written out as JSON lines when the run ends. The program itself is not
modified: spans are recorded from the benchmark's side of each call.

A layer's self time is its spans' duration minus the time covered by
their child spans (calls are synchronous inside one engine call, so
children never overlap). :func:`layer_metrics` folds one traced pass
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, import path of the owner, attribute). Class methods are
# patched on the class; module functions are patched in every loaded
# ``repro`` module that bound them by name.
HOOKS = (
    ("orbits", "repro.orbits.ephemeris", "generate_movement_sheet"),
    ("faults", "repro.faults.schedule:FaultSchedule", "realize"),
    ("faults", "repro.faults.schedule:FaultSchedule", "compile"),
    ("engine.budgets", "repro.engine.budgets", "compute_site_budget"),
    ("engine.budgets", "repro.engine.budgets", "fill_budget_block"),
    ("engine.budgets", "repro.engine.budgets:LinkBudgetTable", "compute_all"),
    ("engine.budgets", "repro.engine.budgets:LinkBudgetTable", "ensure_index"),
    ("engine.linkstate", "repro.engine.linkstate:LinkStateCache", "__init__"),
    ("engine.linkstate", "repro.engine.linkstate:LinkStateCache", "graph_at_index"),
    ("routing", "repro.engine.linkstate:LinkStateCache", "routing_tree_at_index"),
    ("routing", "repro.routing.strategies:KShortestStrategy", "candidates"),
    ("routing", "repro.routing.strategies:KShortestStrategy", "plan"),
    ("network.simulator", "repro.network.simulator:NetworkSimulator", "serve_request"),
    ("network.simulator", "repro.network.simulator:NetworkSimulator", "serve_requests"),
    ("network.simulator", "repro.network.simulator:NetworkSimulator", "denial_cause"),
    ("core.analysis", "repro.core.analysis:SpaceGroundAnalysis", "serve"),
    ("core.analysis", "repro.core.analysis:SpaceGroundAnalysis", "all_pairs_connected"),
    (
        "core.analysis",
        "repro.core.analysis:SpaceGroundAnalysis",
        "cumulative_all_pairs_connected",
    ),
)

#: Layers in report order (``serve.server`` and ``serve.engine`` spans
#: are opened by the benchmark's producer and engine delegate).
LAYERS = (
    "orbits",
    "faults",
    "engine.budgets",
    "engine.linkstate",
    "routing",
    "network.simulator",
    "serve.engine",
    "serve.server",
    "core.analysis",
)

# Span record fields (lists, not objects: a pass records ~10^5 spans).
FIELDS = ("id", "parent", "name", "layer", "start_ns", "end_ns", "req", "phase")
_ID, _PARENT, _NAME, _LAYER, _T0, _T1, _REQ, _PHASE = range(len(FIELDS))


def _resolve(path: str):
    module_name, _, cls = path.partition(":")
    module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    return getattr(module, cls) if cls else module


class Tracer:
    """In-memory span recorder with explicit install/restore of hooks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        # Independent derivations of the memo counters the program
        # keeps itself, for the cross-checks.
        self.caches: list = []
        self.graph_keys: set = set()
        self.tree_keys: set = set()
        self._edge_ids: dict = {}
        self._edge_canon: dict = {}
        self.rescued = 0

    # --- spans ---------------------------------------------------------------

    def open(self, name: str, layer: str, *, parent: int | None = None, req=None) -> int:
        """Open a span nested under the innermost open span (or ``parent``)."""
        stack = self._stack
        if parent is None and stack:
            parent = stack[-1]
        if req is None and parent is not None:
            req = self.spans[parent][_REQ]
        sid = len(self.spans)
        self.spans.append(
            [sid, parent, name, layer, time.perf_counter_ns(), 0, req, self.phase]
        )
        stack.append(sid)
        return sid

    def close(self, sid: int, t1: int | None = None) -> int:
        """Close the innermost span ``sid``; returns its end stamp."""
        end = time.perf_counter_ns() if t1 is None else t1
        self.spans[sid][_T1] = end
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} is innermost")
        return end

    def begin_detached(self, name: str, layer: str, req) -> int:
        """A root span that stays open across awaits (not on the stack)."""
        sid = len(self.spans)
        self.spans.append(
            [sid, None, name, layer, time.perf_counter_ns(), 0, req, self.phase]
        )
        return sid

    def end_detached(self, sid: int, t1: int) -> None:
        self.spans[sid][_T1] = t1

    def start_pass(self) -> None:
        """Drop spans recorded so far and start a new setup phase."""
        self.spans.clear()
        self._stack.clear()
        self.caches.clear()
        self.graph_keys.clear()
        self.tree_keys.clear()
        self._edge_ids.clear()
        self._edge_canon.clear()
        self.rescued = 0
        self.phase = "setup"

    # --- hooks ---------------------------------------------------------------

    def _generic(self, fn, name: str, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    def _special(self, fn, name: str, layer: str):
        tracer = self
        if name == "LinkStateCache.__init__":

            def traced(cache, *args, **kwargs):
                sid = tracer.open(name, layer)
                try:
                    fn(cache, *args, **kwargs)
                finally:
                    tracer.close(sid)
                tracer.caches.append(cache)

        elif name == "LinkStateCache.graph_at_index":

            def traced(cache, k):
                sid = tracer.open(name, layer)
                try:
                    return fn(cache, k)
                finally:
                    tracer.close(sid)
                    tracer.graph_keys.add((id(cache), k))

        elif name == "LinkStateCache.routing_tree_at_index":
            edge_key = _resolve("repro.engine.linkstate:LinkStateCache").edge_key

            def traced(cache, k, source):
                sid = tracer.open(name, layer)
                try:
                    return fn(cache, k, source)
                finally:
                    tracer.close(sid)
                    # One tree per (cache, weighted edge set, source): the
                    # memo contract, derived here from public calls only.
                    slot = (id(cache), k)
                    canon = tracer._edge_ids.get(slot)
                    if canon is None:
                        key = edge_key(cache, k)
                        canon = tracer._edge_canon.setdefault(
                            (id(cache), key), len(tracer._edge_canon)
                        )
                        tracer._edge_ids[slot] = canon
                    tracer.tree_keys.add((canon, source))

        elif name == "KShortestStrategy.plan":

            def traced(*args, **kwargs):
                sid = tracer.open(name, layer)
                try:
                    plan = fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
                if tracer.phase == "pass":
                    tracer.rescued += bool(plan.served)
                return plan

        else:
            return None
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook for the duration of the block, then restore."""
        undo: list[tuple[object, str, object]] = []
        try:
            for layer, owner_path, attr in HOOKS:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
                if isinstance(owner, type):
                    name = f"{owner.__name__}.{attr}"
                    wrapped = self._special(original, name, layer) or self._generic(
                        original, name, layer
                    )
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                wrapped = self._generic(original, attr, layer)
                for module_name, module in list(sys.modules.items()):
                    if module_name.split(".")[0] == "repro" and (
                        getattr(module, attr, None) is original
                    ):
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # --- output --------------------------------------------------------------

    def write(self, path) -> int:
        """Write the recorded spans as JSON lines; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")
        return len(self.spans)


def self_times(spans: list[list]) -> list[int]:
    """Per-span self time [ns]: duration minus the duration of its children."""
    child = [0] * len(spans)
    for span in spans:
        parent = span[_PARENT]
        if parent is not None:
            child[parent] += span[_T1] - span[_T0]
    return [span[_T1] - span[_T0] - child[span[_ID]] for span in spans]


def layer_metrics(tracer: Tracer, *, pass_wall_s: float, report=None) -> dict:
    """Per-layer metrics of one traced set-up and pass.

    Counts and times cover both phases, except the rescue counts
    (``routing.rescue_calls``, ``routing.rescued``, ``routing.rescue_yield``),
    which cover the measured pass like the outcomes they are checked
    against; ``layer_self_s`` (the shares table) covers the pass only.
    """
    spans = tracer.spans
    own = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    pass_count: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)  # outermost calls only
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    layer_outer: dict[str, float] = defaultdict(float)  # outermost per layer
    queue_wait: list[float] = []
    for span, own_ns in zip(spans, own):
        name, layer = span[_NAME], span[_LAYER]
        count[name] += 1
        self_s[name] += own_ns * 1e-9
        if span[_PHASE] == "pass":
            pass_count[name] += 1
            if name != "request":
                # A request root's self time is queue residency, which
                # frontend.self_s (added below) already covers.
                layer_self[layer] += own_ns * 1e-9
        parent = span[_PARENT]
        dur_s = (span[_T1] - span[_T0]) * 1e-9
        if parent is None or spans[parent][_NAME] != name:
            inclusive[name] += dur_s
        if parent is None or spans[parent][_LAYER] != layer:
            layer_outer[layer] += dur_s
        if name == "engine.submit" and parent is not None:
            queue_wait.append((span[_T0] - spans[parent][_T0]) * 1e-3)
    engine_s = inclusive["engine.submit"] + inclusive["engine.advance_to"]
    tree_calls = count["LinkStateCache.routing_tree_at_index"]
    tree_builds = len(tracer.tree_keys)
    rescue_calls = pass_count["KShortestStrategy.candidates"]
    if queue_wait:
        qw50, qw99 = (float(q) for q in np.percentile(queue_wait, [50.0, 99.0]))
    else:
        qw50 = qw99 = 0.0
    metrics = {
        "frontend.self_s": pass_wall_s - engine_s if report is not None else 0.0,
        "frontend.queue_wait_p50_us": qw50,
        "frontend.queue_wait_p99_us": qw99,
        "frontend.max_queue_depth": report.max_queue_depth if report is not None else 0,
        "frontend.shed": report.n_shed if report is not None else 0,
        "engine.calls": count["engine.submit"],
        "engine.busy_s": inclusive["engine.submit"],
        "engine.advance_s": inclusive["engine.advance_to"],
        "linkstate.build_s": inclusive["LinkStateCache.__init__"],
        "linkstate.graph_calls": count["LinkStateCache.graph_at_index"],
        "linkstate.graph_builds": len(tracer.graph_keys),
        "linkstate.graph_s": inclusive["LinkStateCache.graph_at_index"],
        "routing.tree_calls": tree_calls,
        "routing.tree_builds": tree_builds,
        "routing.tree_hit_ratio": 1.0 - tree_builds / tree_calls if tree_calls else 0.0,
        "routing.tree_self_s": self_s["LinkStateCache.routing_tree_at_index"],
        "routing.rescue_calls": rescue_calls,
        "routing.rescued": tracer.rescued,
        "routing.rescue_yield": tracer.rescued / rescue_calls if rescue_calls else 0.0,
        "routing.rescue_s": inclusive["KShortestStrategy.candidates"]
        + inclusive["KShortestStrategy.plan"],
        "simulator.serve_self_s": self_s["NetworkSimulator.serve_request"]
        + self_s["NetworkSimulator.serve_requests"],
        "simulator.denial_cause_calls": count["NetworkSimulator.denial_cause"],
        "simulator.denial_cause_s": inclusive["NetworkSimulator.denial_cause"],
        "orbits.propagate_s": inclusive["generate_movement_sheet"],
        "faults.compile_s": inclusive["FaultSchedule.realize"]
        + inclusive["FaultSchedule.compile"],
        "budgets.fill_s": layer_outer["engine.budgets"],
        "analysis.serve_calls": count["SpaceGroundAnalysis.serve"],
        "analysis.serve_s": inclusive["SpaceGroundAnalysis.serve"],
        "analysis.connectivity_s": inclusive["SpaceGroundAnalysis.all_pairs_connected"]
        + inclusive["SpaceGroundAnalysis.cumulative_all_pairs_connected"],
    }
    if report is not None:
        layer_self["serve.server"] += max(metrics["frontend.self_s"], 0.0)
    return {"metrics": metrics, "layer_self_s": dict(layer_self)}
