"""The benchmark's four workloads.

Each workload is a batch job run once per child process (see
``child.py``):

* ``setup(seed)`` builds the program and its inputs from the seed, plus
  any warm-up the timed pass relies on; the program itself never sees
  the seed, only the generated inputs;
* ``run(ctx)`` is one timed pass; a child runs ``passes`` of them;
* ``read(ctx, out)`` reads the pass's outputs into a plain dict of
  simulated results (the correctness fingerprint);
* ``check(ctx, summary)`` returns the invariant violations;
  ``ctx["fast_engaged"]`` then holds how often the pass took the
  ``repro.sim.fast`` path (the ``FAST_RUNS`` delta).

Every simulated number lands in the fingerprint, never in a metric: a
change that only speeds the simulator up must leave it bit-identical.
WORKLOADS.md records why each workload exists and which layer it
stresses.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import Any, Dict, Iterator, List

import numpy as np

from repro.autoscale import (
    BaselineBurstPolicy,
    DiurnalTrace,
    HeteroElasticCluster,
    NodePool,
    TargetUtilizationPolicy,
    mix_request_stream,
    mix_requests,
    node_capacity_rps,
)
from repro.experiments.registry import run_experiment
from repro.experiments.serve_scale import (
    DISPATCH,
    MIX,
    SLO_S,
    make_scale_cluster,
    scale_trace,
)
from repro.genai import GPT2_XL, ContinuousBatcher, GenerativeEngine, gen_requests
from repro.serving import GPU_NODE, STEPSTONE_NODE, OnlineServingEngine

#: The seed whose fingerprints are committed in ``fingerprints.json``.
DEFAULT_SEED = 1

#: The paper's figure and table experiments, in registry order.
PAPER_EXPERIMENTS = (
    "tab01",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "claims",
    "ablations",
)


def digest(obj: Any) -> str:
    """Stable short hash of a JSON-able value (floats by exact repr)."""
    text = json.dumps(obj, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(v: Any) -> Any:
    """JSON fallback for NumPy scalars and enums; anything else is an
    error, since its ``str`` could carry a memory address."""
    if isinstance(v, enum.Enum):
        return v.name
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"cannot fingerprint a {type(v).__name__}")


class _Counted:
    """Pass-through iterator that counts the requests it hands out, so a
    lazy stream's offered count can be checked after it is consumed."""

    __slots__ = ("_it", "n")

    def __init__(self, it: Iterator) -> None:
        self._it = iter(it)
        self.n = 0

    def __iter__(self) -> "_Counted":
        return self

    def __next__(self):
        item = next(self._it)
        self.n += 1
        return item


def _price_batches(engine: OnlineServingEngine, specs) -> None:
    """Warm the latency oracle with every batch size a fleet node can
    dispatch (1..max_batch) for each mix model on each node spec."""
    for spec in specs:
        for model in sorted(MIX):
            for batch in range(1, engine.max_batch + 1):
                engine.batch_latency(model, DISPATCH, batch, spec=spec)


def _fleet_summary(rep) -> Dict[str, Any]:
    return {
        "offered": rep.offered,
        "served": rep.served,
        "rejected": rep.rejected_count,
        # failed_count includes the unrouted drops; keep the two apart.
        "failed": rep.failed_count - rep.dropped_count,
        "dropped": rep.dropped_count,
        "p50_s": rep.p50_s,
        "p99_s": rep.p99_s,
        "goodput_rps": rep.goodput_rps,
        "node_seconds": rep.node_seconds,
        "busy_seconds": rep.busy_seconds,
        "peak_fleet": rep.peak_fleet_size,
        "sim_end_s": rep.sim_end_s,
        "events_processed": rep.events_processed,
        "control": digest([[s.t, s.desired, s.active, s.arrivals] for s in rep.samples]),
    }


def _fleet_errors(s: Dict[str, Any], offered: int) -> List[str]:
    errors = []
    if s["offered"] != offered:
        errors.append(f"report offered {s['offered']} != generated {offered}")
    accounted = s["served"] + s["rejected"] + s["failed"] + s["dropped"]
    if accounted != s["offered"]:
        errors.append(f"conservation: served+rejected+failed+dropped {accounted} != offered {s['offered']}")
    if not s["busy_seconds"] <= s["node_seconds"]:
        errors.append(f"busy {s['busy_seconds']} s exceeds node-seconds {s['node_seconds']}")
    return errors


class Workload:
    """One named workload; subclasses fill in the four steps."""

    name = ""
    #: Whether the inputs depend on the seed.
    seeded = True
    #: Span name of the report read in a traced run (None: no report layer).
    report_layer = None
    #: Timed passes per child.  Cold workloads run one: a second pass in
    #: the same process would find the latency oracle warm.
    passes = 1

    def setup(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def run(self, ctx: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def read(self, ctx: Dict[str, Any], out: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, ctx: Dict[str, Any], summary: Dict[str, Any]) -> List[str]:
        return []

    def input_digest(self, seed: int) -> str:
        """Hash of the generated inputs (for the seed self-test)."""
        raise NotImplementedError

    def work(self, summary: Dict[str, Any]) -> Dict[str, int]:
        """Simulated requests, kernel events and output tokens of a pass
        (0 where the workload has none)."""
        return {
            "requests": summary.get("offered", 0),
            "events": summary.get("events_processed", 0),
            "tokens": summary.get("tokens_out", 0),
        }


class PaperFigures(Workload):
    """The paper's figure/table experiments at full size, in a cold process."""

    name = "paper_figures"
    seeded = False

    def setup(self, seed):
        return {"ids": PAPER_EXPERIMENTS}

    def run(self, ctx):
        return [run_experiment(eid, fast=False) for eid in ctx["ids"]]

    def read(self, ctx, out):
        return {
            r.experiment_id: {"checks_pass": r.all_checks_pass, "rows": digest(r.rows)}
            for r in out
        }

    def check(self, ctx, summary):
        return [f"{eid}: a paper check failed" for eid, s in summary.items() if not s["checks_pass"]]

    def input_digest(self, seed):
        return digest(list(PAPER_EXPERIMENTS))


class GenaiChat(Workload):
    """A fresh GPT2-XL engine serving a seeded Poisson chat stream, cold."""

    name = "genai_chat"
    report_layer = "genai.report.read"
    #: Poisson arrival rate (sequences/s), near the node's token capacity
    #: (~29 tokens/s at max_batch 8, ~68 output tokens per sequence).
    RATE_RPS = 0.4
    DURATION_S = 400.0
    PROMPTS = (16, 256)
    OUTPUTS = (8, 128)

    def _requests(self, seed):
        return gen_requests(
            self.RATE_RPS,
            self.DURATION_S,
            prompt_range=self.PROMPTS,
            output_range=self.OUTPUTS,
            seed=seed,
        )

    def setup(self, seed):
        engine = GenerativeEngine(
            GPT2_XL, STEPSTONE_NODE, ContinuousBatcher(), max_batch=8
        )
        return {"engine": engine, "requests": self._requests(seed)}

    def run(self, ctx):
        return ctx["engine"].run(ctx["requests"], record="full", fast=True)

    def read(self, ctx, rep):
        done = rep.completions
        return {
            "offered": len(ctx["requests"]),
            "served": rep.served,
            "rejected": rep.rejected_count,
            "tokens_out": rep.tokens_out,
            "served_tokens": sum(c.tokens_out for c in done),
            "requested_tokens": sum(c.request.max_new_tokens for c in done),
            "preemptions": rep.preemptions,
            "kv_high_water": rep.kv_high_water_tokens,
            "kv_capacity": rep.kv_capacity_tokens,
            "events_processed": rep.events_processed,
            "sim_end_s": rep.sim_end_s,
            "busy_s": rep.busy_s,
            "mean_ttft_s": rep.mean_ttft_s,
            "p95_ttft_s": rep.p95_ttft_s,
            "mean_itl_s": rep.mean_itl_s,
            "p99_itl_s": rep.itl_percentile(99),
            "sim_tokens_per_s": rep.tokens_per_s,
            "completions": digest([[c.request.req_id, c.first_token_s, c.finish_s] for c in done]),
        }

    def check(self, ctx, s):
        errors = []
        if s["served"] + s["rejected"] != s["offered"]:
            errors.append(f"served {s['served']} + rejected {s['rejected']} != offered {s['offered']}")
        if not s["tokens_out"] == s["served_tokens"] == s["requested_tokens"]:
            errors.append(
                f"tokens_out {s['tokens_out']} != served output lengths "
                f"{s['served_tokens']} / {s['requested_tokens']}"
            )
        if s["kv_high_water"] > s["kv_capacity"]:
            errors.append(f"KV high-water {s['kv_high_water']} > capacity {s['kv_capacity']}")
        return errors

    def input_digest(self, seed):
        return digest([[r.arrival_s, r.prompt_tokens, r.max_new_tokens] for r in self._requests(seed)])


class FleetStream(Workload):
    """A lazy streaming diurnal day on the serve-scale ElasticCluster."""

    name = "fleet_stream"
    report_layer = "autoscale.report.read"
    passes = 3
    #: Arrival horizon; one full day/night swing at ~116 req/s mean.
    HORIZON_S = 520.0

    def _stream(self, seed):
        return mix_request_stream(
            scale_trace(period_s=self.HORIZON_S),
            MIX,
            self.HORIZON_S,
            seed=seed,
            slos={m: SLO_S for m in MIX},
        )

    def setup(self, seed):
        engine = OnlineServingEngine()
        _price_batches(engine, [STEPSTONE_NODE])
        capacity = node_capacity_rps(engine, MIX, DISPATCH)
        return {
            "cluster": make_scale_cluster(engine, record="streaming"),
            "policy": TargetUtilizationPolicy(capacity, target=0.7),
            "seed": seed,
        }

    def run(self, ctx):
        # The stream is lazy: each pass generates its arrivals as it goes.
        ctx["stream"] = _Counted(self._stream(ctx["seed"]))
        return ctx["cluster"].run(
            ctx["stream"],
            ctx["policy"],
            presorted=True,
            horizon_s=self.HORIZON_S,
            fast=True,
        )

    def read(self, ctx, rep):
        return _fleet_summary(rep)

    def check(self, ctx, s):
        errors = _fleet_errors(s, ctx["stream"].n)
        if ctx["fast_engaged"] != 0:
            errors.append("a presorted streaming run engaged the fast path")
        return errors

    def input_digest(self, seed):
        return digest([[r.req_id, r.model, r.arrival_s] for r in self._stream(seed)])


class FleetHetero(Workload):
    """A StepStone + GPU-burst HeteroElasticCluster on an eager diurnal
    list, full recording, through the fast path, timed warm."""

    name = "fleet_hetero"
    report_layer = "autoscale.report.read"
    passes = 5
    DURATION_S = 150.0

    def _requests(self, seed):
        return mix_requests(
            DiurnalTrace(trough_rps=1200.0, peak_rps=2800.0, period_s=25.0),
            MIX,
            self.DURATION_S,
            seed=seed,
            slos={m: 1.0 for m in MIX},
        )

    def setup(self, seed):
        engine = OnlineServingEngine()
        _price_batches(engine, [STEPSTONE_NODE, GPU_NODE])
        cluster = HeteroElasticCluster(
            pools={
                "stepstone": NodePool(STEPSTONE_NODE, min_nodes=2, max_nodes=12, initial_nodes=8),
                "gpu": NodePool(GPU_NODE, min_nodes=0, max_nodes=4, initial_nodes=0),
            },
            engine=engine,
            policy=DISPATCH,
            router="backend-affinity",
            models=sorted(MIX),
            control_interval_s=0.5,
        )
        policy = BaselineBurstPolicy(
            baseline="stepstone",
            burst="gpu",
            baseline_nodes=8,
            baseline_capacity_rps=node_capacity_rps(engine, MIX, DISPATCH, spec=STEPSTONE_NODE),
            burst_capacity_rps=node_capacity_rps(engine, MIX, DISPATCH, spec=GPU_NODE),
        )
        return {"cluster": cluster, "policy": policy, "requests": self._requests(seed)}

    def run(self, ctx):
        return ctx["cluster"].run(ctx["requests"], ctx["policy"], fast=True)

    def read(self, ctx, rep):
        s = _fleet_summary(rep)
        s["cost_usd"] = rep.cost_usd
        s["node_seconds_by_pool"] = rep.node_seconds_by_pool()
        return s

    def check(self, ctx, s):
        errors = _fleet_errors(s, len(ctx["requests"]))
        if ctx["fast_engaged"] != 1:
            errors.append(f"fast path engaged {ctx['fast_engaged']} times, expected once")
        return errors

    def input_digest(self, seed):
        return digest([[r.req_id, r.model, r.arrival_s] for r in self._requests(seed)])


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperFigures(), GenaiChat(), FleetStream(), FleetHetero())
}
