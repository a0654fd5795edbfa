"""Vectorized struct-of-arrays fast path for the serving simulators.

The profiled 100k-request hetero bench spends >90% of its wall time in
per-event Python churn: one ``Event`` tuple, one heap push/pop, and one
handler dispatch per arrival.  But between control/failure events the
arrival stream is pure request traffic with a *known* schedule — it was
preloaded — so none of that machinery is needed to replay it.  This
module collapses the hot ARRIVAL→dispatch→FINISH path:

* :func:`drain` walks the preloaded arrivals as a struct-of-arrays
  (one sorted numpy array of arrival times) and hands whole equal-time
  *epochs* to a loop-specific callback, keeping the binary heap only
  for the cold kinds (CONTROL/READY/FAIL/RECOVER and the FINISH events
  dispatches schedule).  The kernel's documented total order —
  RECOVER < ARRIVAL < READY < CONTROL < FAIL < FINISH at equal
  instants — is preserved by construction: an epoch at time ``t`` runs
  after any heap event earlier than ``t`` or at ``t`` with a smaller
  kind, and before everything else.
* Routing is not re-implemented here: both paths call the same
  :meth:`~repro.cluster.router.Router.route` with a lifetime token, and
  each router's own incremental state (heaps seeded from live backlogs)
  amortizes the per-arrival replica scan.

Exactness is the contract (pinned by ``tests/test_fast_differential``):
the fast path must produce the same report, request for request, and
the same spans, span for span, as the event-at-a-time path, in both
record modes.  It differs from that path only in how arrivals are
delivered — the same :class:`~repro.serving.node.ClusterNode`, recorders
and span sink run on both — so a loop falls back in one case each: the
fleets on a presorted lazy stream (no arrival column to walk), the
single-node engine under a profiler (its kernel-less loop has no events
to count).

Profiling note: under a :class:`~repro.obs.KernelProfiler` the fast
path counts arrival epochs in the ARRIVAL event/batch ledgers but books
no handler time for them — routing happens inside the drain, not in a
per-event handler.  ``handler_share`` then honestly reports what is
left of the per-event handler churn the fast path was built to remove.
"""

from __future__ import annotations

from heapq import heappop
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from repro.serving.engine import Request, ServingReport
from repro.serving.node import ClusterNode
from repro.sim.kernel import DiscreteEventKernel, EventKind

__all__ = [
    "FAST_RUNS",
    "arrival_times",
    "drain",
    "run_engine_fast",
]

#: Fast-path engagements since import — the differential harness and the
#: benchmarks snapshot it around a run to assert the gate actually took
#: the vectorized path (a silent fallback would make fast==slow vacuous).
FAST_RUNS = 0

_ARRIVAL = int(EventKind.ARRIVAL)


def count_run() -> None:
    """Bump :data:`FAST_RUNS` (called once per engaged fast-path run)."""
    global FAST_RUNS
    FAST_RUNS += 1


def arrival_times(ordered: List[Request]) -> np.ndarray:
    """The struct-of-arrays column the drain walks: sorted arrival times."""
    return np.fromiter(
        (r.arrival_s for r in ordered), np.float64, count=len(ordered)
    )


# ---------------------------------------------------------------------- #
# The struct-of-arrays drain
# ---------------------------------------------------------------------- #


def drain(
    kernel: DiscreteEventKernel,
    arrival_ts: np.ndarray,
    on_epoch: Callable[[float, int, int], bool],
    handlers: Dict[int, Callable],
    profiler=None,
) -> float:
    """Replay preloaded arrivals as epochs against the kernel's heap.

    The arrival stream is the struct-of-arrays column ``arrival_ts``
    (sorted, one entry per request); everything else — CONTROL ticks,
    failures, and the FINISH events ``on_epoch``/handlers schedule via
    ``kernel.schedule`` — lives on the kernel's heap.  Equal-time
    arrivals form one *epoch*; ``on_epoch(t, lo, hi)`` processes
    requests ``[lo, hi)`` and returns True when it scheduled a heap
    event, which forces a re-peek (the new event may precede the next
    epoch).  Heap events are popped in (time, kind) batches exactly
    like :meth:`DiscreteEventKernel.run`, and an epoch at ``t`` runs
    after heap kinds below ARRIVAL at ``t`` (RECOVER) and before those
    above — the documented total order.

    The kernel's clock and processed-event ledger are advanced so
    ``kernel.finalize`` and the profiler contract hold unchanged; with
    a ``profiler``, arrival epochs land in the ARRIVAL count/batch
    ledgers but book no handler time (see the module docstring).

    Args:
        kernel: The kernel whose heap holds every non-arrival event.
            Must not contain ARRIVAL events (arrivals are the array).
        arrival_ts: Sorted float64 arrival times.
        on_epoch: Callback for one equal-time arrival span.
        handlers: Heap handlers by ``int(EventKind)``; unhandled kinds
            are dropped but counted, as in the slow kernel.
        profiler: Optional :class:`~repro.obs.KernelProfiler`.

    Returns:
        The kernel clock after the drain.
    """
    heap = kernel._heap
    clock = kernel.clock
    ta = arrival_ts
    n = len(ta)
    if n:
        bounds = [0]
        bounds.extend((np.flatnonzero(ta[1:] != ta[:-1]) + 1).tolist())
        bounds.append(n)
        tl = ta.tolist()
        etimes = [tl[b] for b in bounds[:-1]]
    else:
        bounds = [0]
        etimes = []
    ne = len(etimes)
    ei = 0
    processed = 0
    searchsorted = np.searchsorted
    get_handler = handlers.get
    prof = profiler
    if prof is not None:
        counts = prof.counts
        batches = prof.batches
        handler_s = prof.handler_s
        stream_n = heap_n = 0
        run_t0 = perf_counter()
        wall_base = prof.wall_s

    while True:
        if heap:
            head = heap[0]
            ht = head[0]
            hk = head[1]
            if ei < ne and (
                etimes[ei] < ht or (etimes[ei] == ht and hk > _ARRIVAL)
            ):
                # Arrivals precede the heap head: run epochs up to it,
                # re-peeking as soon as an epoch schedules a heap event.
                j = int(
                    searchsorted(
                        ta, ht, side="right" if hk > _ARRIVAL else "left"
                    )
                )
                while ei < ne and bounds[ei] < j:
                    lo = bounds[ei]
                    hi = bounds[ei + 1]
                    t = etimes[ei]
                    ei += 1
                    scheduled = on_epoch(t, lo, hi)
                    nn = hi - lo
                    processed += nn
                    if prof is not None:
                        prof.events += nn
                        counts[_ARRIVAL] = counts.get(_ARRIVAL, 0) + nn
                        batches[_ARRIVAL] = batches.get(_ARRIVAL, 0) + 1
                        stream_n += nn
                        if prof.events >= prof.next_sample:
                            prof.sample(
                                t,
                                wall_base + (perf_counter() - run_t0),
                                prof.events,
                            )
                    if scheduled:
                        break
                continue
            if hk == _ARRIVAL:
                raise ValueError(
                    "fast drain found an ARRIVAL on the heap; arrivals "
                    "must come in through the preloaded array"
                )
            clock.advance(ht)
            batch = [heappop(heap)]
            while heap and heap[0][0] == ht and heap[0][1] == hk:
                batch.append(heappop(heap))
            handler = get_handler(hk)
            nn = len(batch)
            processed += nn
            if prof is None:
                if handler is not None:
                    handler(ht, batch)
            else:
                prof.events += nn
                counts[hk] = counts.get(hk, 0) + nn
                batches[hk] = batches.get(hk, 0) + 1
                heap_n += nn
                if handler is not None:
                    h0 = perf_counter()
                    handler(ht, batch)
                    handler_s[hk] = handler_s.get(hk, 0.0) + (
                        perf_counter() - h0
                    )
                if prof.events >= prof.next_sample:
                    prof.sample(
                        ht, wall_base + (perf_counter() - run_t0), prof.events
                    )
        elif ei < ne:
            lo = bounds[ei]
            hi = bounds[ei + 1]
            t = etimes[ei]
            ei += 1
            on_epoch(t, lo, hi)  # re-peeks next iteration regardless
            nn = hi - lo
            processed += nn
            if prof is not None:
                prof.events += nn
                counts[_ARRIVAL] = counts.get(_ARRIVAL, 0) + nn
                batches[_ARRIVAL] = batches.get(_ARRIVAL, 0) + 1
                stream_n += nn
                if prof.events >= prof.next_sample:
                    prof.sample(
                        t, wall_base + (perf_counter() - run_t0), prof.events
                    )
        else:
            break

    kernel.processed += processed
    if prof is not None:
        prof.wall_s = wall_base + (perf_counter() - run_t0)
        prof.stream_events += stream_n
        prof.heap_events += heap_n
        prof.runs += 1
    return clock.now


# ---------------------------------------------------------------------- #
# The single-node engine fast loop
# ---------------------------------------------------------------------- #


def run_engine_fast(
    engine,
    ordered: List[Request],
    policy: str,
    report: ServingReport,
    spans=None,
) -> ServingReport:
    """The 1-entity engine loop without a kernel, recording into
    ``report`` and emitting into the span sink ``spans`` (if any).

    One batch is in flight at a time, so the heap degenerates to a
    single pending FINISH slot: every arrival at or before the pending
    finish instant is bulk-appended to the node's queue (dispatch is a
    no-op while busy — exactly the slow path's behavior), then the
    finish is recorded as one batch and the node's next dispatch
    attempted.  Batches are formed by the same
    :class:`~repro.serving.node.ClusterNode` the reference loop drives,
    so the result is identical, request for request, to
    :meth:`OnlineServingEngine.run`.
    """
    count_run()
    n = len(ordered)
    ta = arrival_times(ordered)
    tl = ta.tolist()
    node = ClusterNode(0, engine, policy)
    node.report = report
    node.obs_spans = spans
    n_batches = 0
    i = 0

    while True:
        if node.in_flight:
            tf = node.busy_until
            if i < n:
                j = int(np.searchsorted(ta, tf, side="right"))
                if j > i:
                    node.queue.extend(ordered[i:j])
                    i = j
            node.finish_batch(tf)
            n_batches += 1
            node.try_dispatch(tf)
        elif i < n:
            t = tl[i]
            j = i + 1
            while j < n and tl[j] == t:
                j += 1
            node.queue.extend(ordered[i:j])
            i = j
            node.try_dispatch(t)
        else:
            break

    report.sim_end_s = max(node.busy_until, ordered[-1].arrival_s)
    report.events_processed = n + n_batches
    return report
