"""The generative serving engine: prefill/decode phases on the sim kernel.

One request used to be one FINISH event; a generative sequence is a
*lifecycle*.  The engine splits service into the two phases whose cost
structures the paper's thesis separates:

* **PREFILL** — one batched GEMM pass over the admitted sequences'
  prompts (activation dimension = total prompt tokens, the compute-dense
  regime where GPUs shine), plus per-sequence quadratic attention.
  Completion emits each sequence's first token (the TTFT instant) and
  merges it into the running batch;
* **DECODE_STEP** — one token boundary for the whole running batch: the
  four decoder GEMMs at activation dimension = batch width (the
  bandwidth-bound GEMV regime where StepStone wins), KV-cached linear
  attention over each sequence's grown context, and sampling.  Every
  boundary emits one token per active sequence; finished sequences leave.

Both phases are priced by the **existing** backend latency models: the
engine registers the config's one-token step spec in an
:class:`~repro.serving.engine.OnlineServingEngine` and asks
``batch_latency`` for activation dimension ``n`` — StepStone chunked PIM,
calibrated CPU, or GPU roofline per :class:`~repro.serving.nodespec.NodeSpec`,
with host-resident ops charged to the node's CPU.

KV-cache accounting threads through every transition (the
:class:`~repro.genai.kvcache.KVCacheBudget` invariant): admission reserves
``prompt + emitted + 1`` tokens, each decode boundary reserves one more per
active sequence, completion releases everything.  A boundary that cannot
grow preempts the youngest running sequence back to the queue front
(recompute semantics: cache dropped, emitted tokens kept, re-admission
re-prefills ``prompt + emitted`` and the ITL stream shows the stall);
an arrival whose worst-case footprint exceeds the whole budget is rejected
outright — queueing it could only ever deadlock or livelock the cache.

A prefill takes priority over the next decode boundary (joiners stall the
running batch briefly — the realistic ITL jitter of continuous batching);
the kernel's total order makes arrivals at a boundary visible to that
boundary's join decision, and PREFILL merge visible to a same-instant
DECODE_STEP.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional

from repro.genai.kvcache import KVCacheBudget
from repro.genai.model import GPT2_XL, GenModelConfig
from repro.genai.report import GenCompletion, GenRejection, GenReport
from repro.genai.schedulers import ContinuousBatcher
from repro.genai.workload import GenRequest
from repro.models.layers import CpuOp, attention_cpu_ops, decode_attention_cpu_ops
from repro.serving.engine import OnlineServingEngine, check_max_batch
from repro.serving.nodespec import STEPSTONE_NODE, NodeSpec
from repro.sim.kernel import DiscreteEventKernel, Event, EventKind

__all__ = ["SeqState", "GenerativeEngine"]


class SeqState:
    """One in-flight sequence: emitted-token and reservation bookkeeping."""

    __slots__ = (
        "request",
        "emitted",
        "first_token_s",
        "last_token_s",
        "reserved",
        "preemptions",
        "preempted_at",
        "done",
    )

    def __init__(self, request: GenRequest) -> None:
        self.request = request
        #: Tokens emitted so far (the first lands at prefill completion).
        self.emitted = 0
        self.first_token_s: Optional[float] = None
        self.last_token_s = 0.0
        #: KV tokens currently reserved for this sequence.
        self.reserved = 0
        self.preemptions = 0
        #: Instant of the most recent preemption while re-queued, else
        #: ``None`` — distinguishes a "preempted" wait span from the
        #: first "queued" wait when tracing.
        self.preempted_at: Optional[float] = None
        self.done = False

    @property
    def admit_tokens(self) -> int:
        """KV reservation an admission takes: the context to (re)prefill
        (``prompt + emitted``) plus the slot for the token it emits."""
        return self.request.prompt_tokens + self.emitted + 1

    def __repr__(self) -> str:
        return (
            f"SeqState(req={self.request.req_id}, emitted={self.emitted}, "
            f"reserved={self.reserved})"
        )


class GenerativeEngine:
    """Generative LLM serving on one node: phases, KV budget, schedulers."""

    def __init__(
        self,
        config: GenModelConfig = GPT2_XL,
        spec: NodeSpec = STEPSTONE_NODE,
        scheduler=None,
        policy: str = "hybrid",
        max_batch: int = 8,
        engine: Optional[OnlineServingEngine] = None,
        kv_capacity_tokens: Optional[int] = None,
    ) -> None:
        """Build an engine for one (model, node, scheduler) combination.

        Args:
            config: Decoder geometry to serve.
            spec: Node hardware — selects the GEMM latency model and,
                with the config's weights, sizes the KV budget.
            scheduler: A :class:`~repro.genai.schedulers.StaticBatcher`
                or :class:`~repro.genai.schedulers.ContinuousBatcher`
                (default: continuous).
            policy: StepStone dispatch policy for the GEMMs
                (``cpu``/``pim``/``hybrid``; ignored off-StepStone).
            max_batch: Decode batch slots.
            engine: A shared :class:`OnlineServingEngine` whose latency
                memo this engine reuses (one is built if omitted).
            kv_capacity_tokens: Explicit KV budget override in tokens;
                default sizes it from ``spec.memory_bytes`` net of the
                hosted weights.

        Raises:
            ValueError: On a ``max_batch`` that is not a positive
                integer, or (at default sizing) a node too small to host
                the weights.
        """
        self.max_batch = check_max_batch(max_batch)
        self.config = config
        self.spec = spec
        self.scheduler = scheduler if scheduler is not None else ContinuousBatcher()
        self.policy = policy
        self.engine = engine if engine is not None else OnlineServingEngine()
        self.engine.models[config.step_key] = config.step_spec()
        self.kv_capacity_tokens = (
            kv_capacity_tokens
            if kv_capacity_tokens is not None
            else KVCacheBudget.for_node(spec, config).capacity_tokens
        )
        if self.spec.backend == "cpu" and self.spec.cpu is not None:
            self._host_cfg = self.spec.cpu
        else:
            self._host_cfg = self.engine.server.cpu.config
        #: Per-context-length prefill attention seconds (pure, memoized).
        self._prefill_attn: dict = {}
        #: Per-(charged, actives, total_ctx) decode-boundary seconds.
        #: One memo shared by the reference loop and the macro-stepped
        #: fast path, so every boundary is priced by the same float.
        self._decode_cost: dict = {}

    # ------------------------------------------------------------------ #
    # Phase pricing (existing backend latency models underneath)
    # ------------------------------------------------------------------ #

    def gemm_seconds(self, n_tokens: int) -> float:
        """One decoder pass at activation dimension ``n_tokens`` on this
        node — the shared price of both phases (decode: batch width;
        prefill: total prompt tokens)."""
        return self.engine.batch_latency(
            self.config.step_key, self.policy, n_tokens, spec=self.spec
        )

    def _prefill_attn_seconds(self, context: int) -> float:
        """Quadratic prompt-pass attention for one sequence of ``context``."""
        hit = self._prefill_attn.get(context)
        if hit is None:
            cfg = self.config
            hit = sum(
                op.seconds(self._host_cfg)
                for op in attention_cpu_ops(
                    "prefill",
                    cfg.blocks,
                    1,
                    cfg.heads,
                    context,
                    cfg.head_dim,
                    cfg.d_model,
                )
            )
            self._prefill_attn[context] = hit
        return hit

    def _sampling_seconds(self, n_tokens: int) -> float:
        cfg = self.config
        return CpuOp(
            "sampling", 2.0 * n_tokens * cfg.vocab, 4.0 * n_tokens * cfg.vocab * 2
        ).seconds(self._host_cfg)

    def prefill_seconds(self, group: List[SeqState]) -> float:
        """Service time of one batched prompt pass over ``group``."""
        total = sum(s.request.prompt_tokens + s.emitted for s in group)
        t = self.gemm_seconds(max(1, total))
        for s in group:
            t += self._prefill_attn_seconds(s.request.prompt_tokens + s.emitted)
        return t + self._sampling_seconds(len(group))

    def decode_seconds(self, charged_width: int, active: List[SeqState]) -> float:
        """Service time of one token boundary.

        Args:
            charged_width: GEMM activation dimension — the live width
                under continuous batching, the admitted (padded) width
                under static.
            active: Sequences actually emitting (attention + sampling
                are charged for these only).
        """
        total_ctx = sum(s.request.prompt_tokens + s.emitted + 1 for s in active)
        return self.decode_step_seconds(charged_width, len(active), total_ctx)

    def decode_step_seconds(
        self, charged_width: int, n_active: int, total_ctx: int
    ) -> float:
        """One decode boundary priced by its integer signature.

        The cost of a boundary is a pure function of ``(charged GEMM
        width, active count, total context tokens)`` — so it is memoized
        on exactly that key.  :meth:`decode_seconds` reduces a batch to
        this signature, and the fast path walks a segment's boundaries
        by advancing ``total_ctx`` arithmetically; both read the same
        cached float for the same signature, which is what makes the
        macro-stepped run bit-identical to the event-at-a-time run.
        """
        key = (charged_width, n_active, total_ctx)
        hit = self._decode_cost.get(key)
        if hit is None:
            cfg = self.config
            t = self.gemm_seconds(charged_width)
            t += sum(
                op.seconds(self._host_cfg)
                for op in decode_attention_cpu_ops(
                    "decode",
                    cfg.blocks,
                    cfg.heads,
                    cfg.head_dim,
                    cfg.d_model,
                    n_active,
                    total_ctx,
                )
            )
            hit = t + self._sampling_seconds(n_active)
            self._decode_cost[key] = hit
        return hit

    # ------------------------------------------------------------------ #
    # The run loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        requests: Iterable[GenRequest],
        record: str = "full",
        obs=None,
        fast: bool = False,
    ) -> GenReport:
        """Serve an arrival stream; return the TTFT/ITL/goodput report.

        Args:
            requests: Generation requests in any order (sorted here).
            record: ``"full"`` or ``"streaming"`` (see
                :class:`~repro.genai.report.GenReport`).
            obs: Optional :class:`~repro.obs.RunObserver` — per-sequence
                lifecycle spans (queued / prefill / preempted /
                sequence / rejected), per-phase engine spans whose
                durations sum *exactly* to ``report.busy_s``, and kernel
                self-profiling when a profiler is attached.  Default
                off; a traced run's report is identical to an untraced
                one.
            fast: Opt into the :mod:`repro.genai.fast` macro-stepped
                decode path — bit-identical reports, one kernel event
                per constant-composition segment instead of one per
                token boundary.  Falls back here (with a labeled
                ``fast_fallback`` telemetry count) when spans or a
                profiler need per-event hooks; both record modes
                engage.

        Returns:
            The finished report, including KV high-water and peak queue
            depth — identical across runs with identical inputs (the
            engine draws no randomness).
        """
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
        report = GenReport(self.scheduler.name, record=record)
        kv = KVCacheBudget(self.kv_capacity_tokens)
        report.kv_capacity_tokens = kv.capacity_tokens
        if not ordered:
            return report
        spans = obs.spans if obs is not None else None
        fastmod = None
        if fast:
            if spans is not None:
                reason = "spans"
            elif obs is not None and obs.profile is not None:
                reason = "profiler"
            else:
                reason = None
            if reason is not None:
                from repro.obs.telemetry import record_fast_fallback

                record_fast_fallback("genai", reason, obs)
            else:
                from repro.genai import fast as fastmod

                fastmod.count_run()
        model = self.config.step_key
        kernel = DiscreteEventKernel()
        kernel.preload(
            Event(r.arrival_s, EventKind.ARRIVAL, i, payload=r)
            for i, r in enumerate(ordered)
        )
        waiting: Deque[SeqState] = deque()
        running: List[SeqState] = []
        busy = False
        width = 0  # static: the admitted (charged) batch width

        def complete(s: SeqState, now: float) -> None:
            kv.release(s.reserved)
            s.reserved = 0
            s.done = True
            report.record_completion(
                GenCompletion(
                    request=s.request,
                    first_token_s=s.first_token_s,
                    finish_s=now,
                    tokens_out=s.emitted,
                    preemptions=s.preemptions,
                )
            )
            if spans is not None:
                spans.emit(
                    s.request.req_id,
                    "sequence",
                    s.request.arrival_s,
                    now - s.request.arrival_s,
                    model=model,
                    tokens=s.emitted,
                )

        def maybe_start(now: float) -> None:
            # One phase in flight at a time; joins happen at phase
            # boundaries only.  Prefill-priority: waiting sequences with
            # a free slot stall the running batch for their prompt pass.
            nonlocal busy, width
            if busy:
                return
            joiners = self.scheduler.select(waiting, running, self.max_batch, kv)
            if joiners:
                for s in joiners:
                    head = waiting.popleft()
                    assert head is s  # strict-FIFO prefix by construction
                    kv.reserve(s.admit_tokens)
                    s.reserved = s.admit_tokens
                    if spans is not None:
                        if s.preempted_at is not None:
                            spans.emit(
                                s.request.req_id,
                                "preempted",
                                s.preempted_at,
                                now - s.preempted_at,
                                batch=len(joiners),
                                model=model,
                                kv_tokens=s.admit_tokens,
                            )
                        else:
                            spans.emit(
                                s.request.req_id,
                                "queued",
                                s.request.arrival_s,
                                now - s.request.arrival_s,
                                batch=len(joiners),
                                model=model,
                                kv_tokens=s.admit_tokens,
                            )
                    s.preempted_at = None
                busy = True
                kernel.schedule(
                    now + self.prefill_seconds(joiners),
                    EventKind.PREFILL,
                    payload=(joiners, now),
                )
            elif running:
                # Each active sequence caches one more token this step;
                # preempt youngest-first until the growth fits.  The
                # arrival-time guard (worst-case footprint <= capacity)
                # means a lone survivor always fits, so this never
                # empties the batch.
                while not kv.fits(len(running)):
                    victim = running.pop()
                    kv.release(victim.reserved)
                    victim.reserved = 0
                    victim.preemptions += 1
                    victim.preempted_at = now
                    report.preemptions += 1
                    waiting.appendleft(victim)
                    if len(waiting) > report.peak_waiting:
                        report.peak_waiting = len(waiting)
                charged = width if self.scheduler.fixed_width else len(running)
                busy = True
                if fastmod is not None:
                    # Macro step: plan every boundary until the batch
                    # composition can change, reserve the whole run's KV
                    # growth arithmetically, and schedule one event at
                    # the segment's last boundary.  The skipped
                    # boundaries are credited so events_processed
                    # matches the event-at-a-time run.
                    seg = fastmod.plan_segment(
                        self, kernel, running, waiting, kv, now, max(1, charged)
                    )
                    kv.reserve_run(len(running), seg.steps)
                    for s in running:
                        s.reserved += seg.steps
                    kernel.credit_events(seg.steps - 1)
                    kernel.schedule(
                        seg.times[-1], EventKind.DECODE_STEP, payload=seg
                    )
                else:
                    kv.reserve(len(running))
                    for s in running:
                        s.reserved += 1
                    kernel.schedule(
                        now + self.decode_seconds(max(1, charged), running),
                        EventKind.DECODE_STEP,
                        payload=(list(running), now, max(1, charged)),
                    )

        def on_arrivals(now: float, events: List[Event]) -> None:
            for ev in events:
                r: GenRequest = ev.payload
                if r.total_tokens > kv.capacity_tokens:
                    # Could never run: even alone it would overflow the
                    # cache (or thrash forever under preemption).
                    report.record_rejection(GenRejection(r, rejected_at_s=now))
                    if spans is not None:
                        spans.emit(
                            r.req_id,
                            "rejected",
                            r.arrival_s,
                            now - r.arrival_s,
                            model=model,
                            kv_tokens=r.total_tokens,
                        )
                    continue
                waiting.append(SeqState(r))
            if len(waiting) > report.peak_waiting:
                report.peak_waiting = len(waiting)
            maybe_start(now)

        def on_prefill(now: float, events: List[Event]) -> None:
            nonlocal busy, width
            group, started = events[0].payload
            report.busy_prefill_s += now - started
            if spans is not None:
                # One engine span per prompt pass; its duration is the
                # *same float* busy_s just accumulated, so the recorded
                # "prefill-pass" total ties out exactly.
                spans.emit(
                    -1,
                    "prefill-pass",
                    started,
                    now - started,
                    batch=len(group),
                    model=model,
                    kv_tokens=kv.used_tokens,
                )
            fresh_batch = not running
            for s in group:
                s.emitted += 1
                if spans is not None:
                    spans.emit(
                        s.request.req_id,
                        "prefill",
                        started,
                        now - started,
                        batch=len(group),
                        model=model,
                        tokens=s.request.prompt_tokens + s.emitted,
                    )
                if s.first_token_s is None:
                    s.first_token_s = now  # TTFT: the first token streams
                else:
                    # A resumed (preempted) sequence: its next token
                    # lands here, and the gap is real ITL — the stall
                    # preemption cost it.
                    report.record_itl(now - s.last_token_s)
                s.last_token_s = now
                if s.emitted >= s.request.max_new_tokens:
                    complete(s, now)
                else:
                    running.append(s)
            if self.scheduler.fixed_width and fresh_batch:
                width = len(running)
            busy = False
            maybe_start(now)

        def on_decode(now: float, events: List[Event]) -> None:
            nonlocal busy
            payload = events[0].payload
            if fastmod is not None:
                if fastmod.apply_segment(payload, report, complete):
                    running[:] = [s for s in running if not s.done]
                busy = False
                maybe_start(now)
                return
            active, started, charged = payload
            report.busy_decode_s += now - started
            if spans is not None:
                spans.emit(
                    -1,
                    "decode-step",
                    started,
                    now - started,
                    batch=charged,
                    model=model,
                    kv_tokens=kv.used_tokens,
                    tokens=len(active),
                )
            # Collapse this boundary's equal gaps into (gap, count) runs
            # — the same sketch ingestion the macro-stepped path
            # performs per boundary, so both paths' ITL statistics see
            # identical updates in identical order.
            gap = None
            n_run = 0
            for s in active:
                g = now - s.last_token_s
                if g == gap:
                    n_run += 1
                else:
                    if n_run:
                        report.record_itl_run(gap, n_run)
                    gap = g
                    n_run = 1
            if n_run:
                report.record_itl_run(gap, n_run)
            finished = False
            for s in active:
                s.emitted += 1
                s.last_token_s = now
                if s.emitted >= s.request.max_new_tokens:
                    complete(s, now)
                    finished = True
            if finished:
                running[:] = [s for s in running if not s.done]
            busy = False
            maybe_start(now)

        end = kernel.run(
            {
                EventKind.ARRIVAL: on_arrivals,
                EventKind.PREFILL: on_prefill,
                EventKind.DECODE_STEP: on_decode,
            },
            obs=obs,
        )
        report.sim_end_s = end
        report.kv_high_water_tokens = kv.high_water_tokens
        kernel.finalize(report)
        if obs is not None and obs.telemetry is not None:
            obs.telemetry.record_counts(
                "genai",
                served=report.served,
                rejected=report.rejected_count,
                preempted=report.preemptions,
                tokens=report.tokens_out,
            )
        return report
