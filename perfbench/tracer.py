"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer from outside the
program: no ``src/`` code knows it exists.  A wrapper records one span
``(name, start, end, parent, pass_id)`` per call, in memory; the child
writes the spans out when the run ends and reduces them to the
per-layer metrics listed in :data:`PER_LAYER`.

Patching covers every place a name is bound, not only the defining
module: a function is replaced in each loaded ``repro`` module (and in
the benchmark's own modules) that holds it under any name, for example
``repro.serving.scheduler.choose_execution`` as well as
``repro.core.scheduler.choose_execution``.  Methods are patched on the
class (and on every subclass that overrides them), which every import
site shares.  After a traced pass :meth:`Tracer.assert_fired` turns a
wrapper that never ran on a workload where the layer must run into an
error, so a missed import site cannot pass for a fast layer, and
:meth:`Tracer.uninstall` puts the originals back and checks it did.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter

#: Marker attribute every wrapper carries (value: the wrapped original).
MARK = "_perfbench_original"

#: Labeled fast-path fallback causes ``record_fast_fallback`` reports.
FALLBACK_REASONS = (
    "spans",
    "profiler",
    "streaming-record",
    "custom-router",
    "presorted-stream",
    "empty-stream",
)

#: Per-layer metrics of a traced run: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.choose_execution.calls", "count"),
    ("core.plan_gemm.calls", "count"),
    ("core.plan_gemm.self_s", "s"),
    ("core.plan_gemm.distinct_ratio", "ratio"),
    ("core.execute_plan.calls", "count"),
    ("core.execute_plan.self_s", "s"),
    ("core.agen.self_s", "s"),
    ("mapping.footprint.calls", "count"),
    ("mapping.footprint.self_s", "s"),
    ("serving.batch_latency.calls", "count"),
    ("serving.batch_latency.misses", "count"),
    ("serving.batch_latency.hit_ratio", "ratio"),
    ("serving.batch_latency.cold_s", "s"),
    ("serving.batch_latency.warm_s", "s"),
    ("serving.hybrid_split.calls", "count"),
    ("serving.pim_latency.calls", "count"),
    ("sim.kernel.run_s", "s"),
    ("sim.kernel.self_s", "s"),
    ("sim.kernel.events", "count"),
    ("sim.kernel.finalize_s", "s"),
    ("cluster.router.calls", "count"),
    ("cluster.router.self_s", "s"),
    ("sim.stats.record_completion.calls", "count"),
    ("sim.stats.record_completion.self_s", "s"),
    ("sim.stats.sketch_adds", "count"),
    ("sim.fast.engaged", "count"),
    *((f"sim.fast.fallback.{r}", "count") for r in FALLBACK_REASONS),
    ("sim.fast.drain.self_s", "s"),
    ("autoscale.report.read_s", "s"),
    ("autoscale.policy.calls", "count"),
    ("autoscale.policy.self_s", "s"),
    ("autoscale.traces.gen_s", "s"),
    ("genai.decode_price.calls", "count"),
    ("genai.decode_price.misses", "count"),
    ("genai.prefill_price.calls", "count"),
    ("genai.loop.self_s", "s"),
    ("genai.segments", "count"),
    ("genai.kv.preemptions", "count"),
    ("genai.report.read_s", "s"),
    ("setup.serving.batch_latency.misses", "count"),
    ("setup.serving.batch_latency.cold_s", "s"),
    ("setup.core.plan_gemm.calls", "count"),
    ("setup.autoscale.traces.gen_s", "s"),
    ("setup.autoscale.policy.self_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("requests_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("tokens_per_s", "1/s"),
)


def _arg(args: tuple, kwargs: dict, i: int, name: str, default: Any = None) -> Any:
    """Argument ``name`` of a call, passed at position ``i`` or by keyword."""
    return args[i] if len(args) > i else kwargs.get(name, default)


def _plan_key(a, k):
    shape = _arg(a, k, 2, "shape")
    return (shape.m, shape.k, _arg(a, k, 3, "level"), _arg(a, k, 5, "pinned_id_bits", 0))


def _latency_key(a, k):
    # Off-StepStone specs admit one dispatch, so the oracle prices every
    # policy name under the backend's own (as OnlineServingEngine does).
    spec = _arg(a, k, 4, "spec")
    policy = _arg(a, k, 2, "policy")
    if spec is not None and spec.backend != "stepstone":
        policy = spec.backend
    return (a[0], _arg(a, k, 1, "model"), policy, _arg(a, k, 3, "batch"),
            spec.latency_key if spec is not None else None)


def _decode_key(a, k):
    return (a[0], _arg(a, k, 1, "charged_width"), _arg(a, k, 2, "n_active"),
            _arg(a, k, 3, "total_ctx"))


class Target:
    """One wrapped callable: ``module:Class.attr`` or ``module:function``.

    ``counted`` spans are the layer's entry calls; ``key`` maps call
    arguments to a memo key (first sight of a key is a miss); ``lazy``
    wraps a generator so each item it yields is one span;
    ``subclasses`` also patches overrides in subclasses.
    """

    def __init__(self, layer: str, where: str, counted: bool = True,
                 key: Optional[Callable] = None, lazy: bool = False,
                 subclasses: bool = False) -> None:
        self.layer = layer
        self.module, _, self.attr = where.partition(":")
        self.counted = counted
        self.key = key
        self.lazy = lazy
        self.subclasses = subclasses


#: Everything a traced run wraps, by layer.
TARGETS: Tuple[Target, ...] = (
    Target("core.choose_execution", "repro.core.scheduler:choose_execution"),
    Target("core.plan_gemm", "repro.core.gemm:plan_gemm", key=_plan_key),
    Target("core.execute_plan", "repro.core.executor:execute_plan"),
    Target("core.agen", "repro.core.agen:stepstone_iteration_counts"),
    Target("mapping.footprint", "repro.mapping.analysis:FootprintAnalysis.__init__"),
    *(Target("mapping.footprint", f"repro.mapping.analysis:FootprintAnalysis.{m}", counted=False)
      for m in ("active_pim_ids", "_compute_grouping", "rows_of_group", "cols_of",
                "blocks_of", "blocks_per_pim")),
    Target("serving.batch_latency", "repro.serving.engine:OnlineServingEngine.batch_latency",
           key=_latency_key),
    Target("serving.hybrid_split", "repro.serving.scheduler:BatchServer.hybrid_split"),
    Target("serving.pim_latency", "repro.serving.scheduler:BatchServer.pim_latency"),
    Target("sim.kernel", "repro.sim.kernel:DiscreteEventKernel.run"),
    Target("sim.kernel.finalize", "repro.sim.kernel:DiscreteEventKernel.finalize"),
    Target("cluster.router", "repro.cluster.router:Router.route", subclasses=True),
    Target("sim.stats.record_completion", "repro.sim.stats:MetricsRecorder.record_completion",
           subclasses=True),
    Target("sim.stats.sketch", "repro.sim.stats:QuantileSketch.add"),
    Target("sim.stats.sketch", "repro.sim.stats:QuantileSketch.add_run"),
    Target("sim.fast.drain", "repro.sim.fast:drain"),
    Target("sim.fast.fallback", "repro.obs.telemetry:record_fast_fallback"),
    Target("autoscale.policy", "repro.autoscale.policies:AutoscalePolicy.desired_nodes",
           subclasses=True),
    Target("autoscale.policy", "repro.autoscale.hetero:HeteroAutoscalePolicy.desired_by_pool",
           subclasses=True),
    Target("autoscale.policy", "repro.autoscale.policies:node_capacity_rps"),
    Target("autoscale.traces", "repro.autoscale.traces:mix_requests"),
    Target("autoscale.traces", "repro.autoscale.traces:nhpp_requests"),
    Target("autoscale.traces", "repro.autoscale.traces:mix_request_stream", lazy=True),
    Target("genai.run", "repro.genai.engine:GenerativeEngine.run"),
    Target("genai.decode_price", "repro.genai.engine:GenerativeEngine.decode_step_seconds",
           key=_decode_key),
    Target("genai.prefill_price", "repro.genai.engine:GenerativeEngine.prefill_seconds"),
    Target("genai.segments", "repro.genai.fast:apply_segment"),
)

#: Layers whose wrappers must fire in the timed pass of each workload.
#: A layer that stays silent where it has to run means an import site
#: was missed, and the traced run fails.
MUST_FIRE: Dict[str, Tuple[str, ...]] = {
    "paper_figures": ("core.choose_execution", "core.plan_gemm", "core.execute_plan",
                      "core.agen", "mapping.footprint"),
    "genai_chat": ("core.choose_execution", "core.plan_gemm", "core.execute_plan",
                   "core.agen", "mapping.footprint", "serving.batch_latency",
                   "serving.hybrid_split", "serving.pim_latency", "sim.kernel",
                   "genai.run", "genai.decode_price", "genai.prefill_price",
                   "genai.segments"),
    "fleet_stream": ("serving.batch_latency", "sim.kernel", "sim.kernel.finalize",
                     "cluster.router", "sim.stats.record_completion", "sim.stats.sketch",
                     "sim.fast.fallback", "autoscale.policy", "autoscale.traces"),
    "fleet_hetero": ("serving.batch_latency", "sim.kernel.finalize",
                     "sim.fast.drain", "autoscale.policy"),
}

#: Layers predicted silent in a workload's timed pass: on the fleets
#: every GEMM price comes from the warmed oracle.
MUST_NOT_FIRE: Dict[str, Tuple[str, ...]] = {
    "fleet_stream": ("core.plan_gemm", "core.choose_execution"),
    "fleet_hetero": ("core.plan_gemm", "core.choose_execution"),
}


class _TimedIter:
    """Iterator proxy: each ``next`` of a lazy generator is one span."""

    __slots__ = ("_it", "_tracer", "_name")

    def __init__(self, it, tracer: "Tracer", name: str) -> None:
        self._it = it
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(self._name, None, next, (self._it,), {})


class Tracer:
    """Wraps the :data:`TARGETS`, records spans, reduces them to metrics."""

    def __init__(self) -> None:
        #: (name, start, end, parent index, pass id); parent -1 is a root.
        self.spans: List[Optional[tuple]] = []
        #: span index -> (memo key, first sight) for keyed layers.
        self.keys: Dict[int, tuple] = {}
        #: span index -> fallback reason.
        self.reasons: Dict[int, str] = {}
        #: span indices of non-entry wrappers (``counted=False``).
        self.uncounted: set = set()
        self.pass_id = "setup"
        self._stack: List[int] = []
        self._seen: set = set()
        self._patched: List[tuple] = []  # (container, attr, original)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def call(self, name: str, target: Optional[Target], fn, args, kwargs):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        stack = self._stack
        parent = stack[-1] if stack else -1
        if target is not None:
            if not target.counted:
                self.uncounted.add(idx)
            if target.key is not None:
                key = target.key(args, kwargs)
                self.keys[idx] = (key, key not in self._seen)
                self._seen.add(key)
            elif target.layer == "sim.fast.fallback":
                self.reasons[idx] = _arg(args, kwargs, 1, "reason")
        stack.append(idx)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, self.pass_id)

    def _wrap(self, target: Target, fn):
        tracer = self
        name = target.layer
        if target.lazy:
            def wrapper(*args, **kwargs):
                it = tracer.call(name, target, fn, args, kwargs)
                return _TimedIter(it, tracer, name)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, target, fn, args, kwargs)
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, fn)
        return wrapper

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every target at every place it is bound."""
        for t in TARGETS:
            __import__(t.module)
        modules = _binding_modules()
        for t in TARGETS:
            owner = sys.modules[t.module]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                base = getattr(owner, cls_name)
                classes = _subclasses(base) if t.subclasses else [base]
                for cls in classes:
                    if meth in vars(cls):
                        orig = vars(cls)[meth]
                        setattr(cls, meth, self._wrap(t, orig))
                        self._patched.append((cls, meth, orig))
            else:
                orig = getattr(owner, t.attr)
                wrapper = self._wrap(t, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        """Restore every original, including bindings made after install
        by modules imported while tracing, and check none is left."""
        for container, attr, orig in reversed(self._patched):
            setattr(container, attr, orig)
        for mod in _binding_modules():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and hasattr(value, MARK):
                    setattr(mod, attr, getattr(value, MARK))
        self._patched.clear()
        assert_unwrapped()

    # ------------------------------------------------------------------ #
    # Checks and reduction
    # ------------------------------------------------------------------ #

    def _pass_spans(self, pass_ids) -> Iterable[Tuple[int, tuple]]:
        return ((i, s) for i, s in enumerate(self.spans) if s[4] in pass_ids)

    def assert_fired(self, workload: str) -> List[str]:
        """Errors for layers that broke the fire / stay-silent prediction."""
        fired = defaultdict(int)
        for _, s in self._pass_spans(("pass",)):
            fired[s[0]] += 1
        errors = [
            f"{layer}: wrapper never fired in the {workload} pass (unpatched import site?)"
            for layer in MUST_FIRE.get(workload, ()) if not fired[layer]
        ]
        errors += [
            f"{layer}: {fired[layer]} calls in the {workload} pass, predicted none"
            for layer in MUST_NOT_FIRE.get(workload, ()) if fired[layer]
        ]
        return errors

    def metrics(self, pass_ids=("pass", "read")) -> Dict[str, float]:
        """Reduce the spans of the given passes to per-layer numbers.

        ``<layer>.calls`` counts entry spans not nested in the same layer;
        ``<layer>.self_s`` is time in the layer's spans minus the time
        their child spans cover; ``incl`` is the inclusive time of the
        layer's outermost spans.
        """
        spans = self.spans
        child = defaultdict(float)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl = defaultdict(float)
        misses = defaultdict(int)
        miss_s = defaultdict(float)
        distinct = defaultdict(set)
        reasons = defaultdict(int)
        for i, s in self._pass_spans(pass_ids):
            name, t0, t1, parent = s[0], s[1], s[2], s[3]
            dur = t1 - t0
            self_s[name] += dur - child[i]
            outer = parent < 0 or spans[parent][0] != name
            if outer:
                incl[name] += dur
                if i not in self.uncounted:
                    calls[name] += 1
            if i in self.keys:
                key, miss = self.keys[i]
                distinct[name].add(key)
                if miss:
                    misses[name] += 1
                    miss_s[name] += dur
            if i in self.reasons:
                reasons[self.reasons[i]] += 1
        out: Dict[str, float] = {}
        for layer in ("core.choose_execution", "core.plan_gemm", "core.execute_plan",
                      "mapping.footprint", "serving.batch_latency", "serving.hybrid_split",
                      "serving.pim_latency", "cluster.router", "sim.stats.record_completion",
                      "autoscale.policy", "genai.decode_price", "genai.prefill_price"):
            out[f"{layer}.calls"] = calls[layer]
        for layer in ("core.plan_gemm", "core.execute_plan", "core.agen", "mapping.footprint",
                      "sim.kernel", "cluster.router", "sim.stats.record_completion",
                      "sim.fast.drain", "autoscale.policy"):
            out[f"{layer}.self_s"] = self_s[layer]
        n = calls["core.plan_gemm"]
        out["core.plan_gemm.distinct_ratio"] = len(distinct["core.plan_gemm"]) / n if n else 0.0
        bl = "serving.batch_latency"
        out[f"{bl}.misses"] = misses[bl]
        out[f"{bl}.hit_ratio"] = (calls[bl] - misses[bl]) / calls[bl] if calls[bl] else 0.0
        out[f"{bl}.cold_s"] = miss_s[bl]
        out[f"{bl}.warm_s"] = incl[bl] - miss_s[bl]
        out["sim.kernel.run_s"] = incl["sim.kernel"]
        out["sim.kernel.finalize_s"] = incl["sim.kernel.finalize"]
        out["sim.stats.sketch_adds"] = calls["sim.stats.sketch"]
        for r in FALLBACK_REASONS:
            out[f"sim.fast.fallback.{r}"] = reasons.pop(r, 0)
        if reasons:
            raise ValueError(f"unknown fast-path fallback reasons {sorted(reasons)}")
        out["autoscale.traces.gen_s"] = self_s["autoscale.traces"]
        out["genai.decode_price.misses"] = misses["genai.decode_price"]
        out["genai.loop.self_s"] = (
            incl["genai.run"] - incl["genai.decode_price"] - incl["genai.prefill_price"]
        )
        out["genai.segments"] = calls["genai.segments"]
        for layer in ("autoscale.report.read", "genai.report.read"):
            out[f"{layer}_s"] = incl[layer]
        return out

    def write(self, path: Path) -> None:
        """Write every span as CSV (times relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t_base = self.spans[0][1] if self.spans else 0.0
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_s", "end_s", "parent", "pass"])
            for i, (name, t0, t1, parent, pass_id) in enumerate(self.spans):
                w.writerow([i, name, f"{t0 - t_base:.9f}", f"{t1 - t_base:.9f}", parent, pass_id])


def _binding_modules() -> List[Any]:
    """Modules whose globals may bind a traced function: the program's
    and the benchmark's own."""
    here = str(Path(__file__).resolve().parent)
    mods = []
    for name, mod in list(sys.modules.items()):
        if mod is None:
            continue
        if name == "repro" or name.startswith("repro."):
            mods.append(mod)
        elif str(Path(getattr(mod, "__file__", None) or "/").resolve().parent) == here:
            mods.append(mod)
    return mods


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def assert_unwrapped() -> None:
    """Raise if any traced target is still a wrapper anywhere — the check
    that an untraced pass runs the program's own functions."""
    for t in TARGETS:
        __import__(t.module)
    for t in TARGETS:
        owner = sys.modules[t.module]
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            for cls in _subclasses(getattr(owner, cls_name)):
                if hasattr(vars(cls).get(meth), MARK):
                    raise AssertionError(f"{cls.__qualname__}.{meth} is still wrapped")
    for mod in _binding_modules():
        for attr, value in vars(mod).items():
            if isinstance(value, types.FunctionType) and hasattr(value, MARK):
                raise AssertionError(f"{mod.__name__}.{attr} is still wrapped")
