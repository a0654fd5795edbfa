"""Pluggable request routing across a model's replica nodes.

The router sees each request at its arrival instant and picks one node
among those hosting the model's weights (the placement's replica list,
primary first).  Four policies:

* ``round-robin`` — cycle a per-model counter over the replica list;
  oblivious to load, the classic baseline.
* ``least-loaded`` — join-shortest-queue: the replica with the smallest
  backlog (queued + in-flight requests), ties toward the lower node id.
  Adapts to skewed per-model traffic that round-robin spreads blindly.
* ``affinity`` — prefer the primary replica until its backlog reaches a
  spill threshold, then fall back to join-shortest-queue over all
  replicas.  Concentrating a model's traffic yields larger same-model
  batches (better amortization of weight streaming) while the spillover
  bounds queueing under bursts.
* ``backend-affinity`` — the heterogeneous-fleet economics policy: among
  replicas whose hardware can still meet the request's SLO (remaining
  busy time plus batch-1 service under the bound), pick the *cheapest*
  ($/hr), breaking ties join-shortest-queue.  Cheap StepStone nodes
  absorb baseline traffic until their queues make them infeasible, at
  which point requests spill to faster, pricier substrates — exactly the
  mixed-fleet behavior the cost-aware planner sizes for.  Without an SLO
  (or with no feasible replica) it degrades to join-shortest-queue with a
  cost tie-break, so load still spreads.

All policies are deterministic: same request stream, same decisions.

Each router decides incrementally.  Both fleet paths route every
arrival through :meth:`Router.route` with a *lifetime* token that the
loop bumps after any change a router cannot see (a dispatch, a finish,
a membership event).  Within one lifetime the only backlog changes are
the router's own picks, so a heap seeded from the live backlogs and
advanced by one per pick tracks them exactly, and a per-arrival scan
over the replicas is never needed.  ``tests/test_routers.py`` pins every
router, with and without a token, to that brute-force scan.
"""

from __future__ import annotations

import numbers
from heapq import heapify, heappush, heapreplace
from typing import Hashable, List, Optional, Tuple

from repro.serving.engine import Request
from repro.serving.node import ClusterNode

__all__ = [
    "ROUTER_POLICIES",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "AffinityRouter",
    "BackendAffinityRouter",
    "make_router",
]

#: A model's replica list, primary first.
Replicas = List[ClusterNode]

#: Routing policies understood by :func:`make_router`.
ROUTER_POLICIES: Tuple[str, ...] = (
    "round-robin",
    "least-loaded",
    "affinity",
    "backend-affinity",
)


class Router:
    """Base router: picks one node among a model's replicas."""

    name = "base"

    def route(
        self,
        request: Request,
        replicas: Replicas,
        clock: float,
        lifetime: Optional[Hashable] = None,
    ) -> ClusterNode:
        """Pick the node that will queue ``request``.

        With ``lifetime=None`` every call decides from the live state of
        ``replicas`` alone.  Repeated calls passing the same non-``None``
        token may reuse state built by the first of them; the caller then
        promises that between those calls the clock does not go
        backwards, each request is routed at its own arrival instant,
        ``replicas`` is the same unchanged list, and the only backlog
        changes are this router's own picks, each already enqueued.  A
        new token ends the promise.

        Args:
            request: The arriving request.
            replicas: Nodes hosting the request's model, primary first.
            clock: The routing instant.
            lifetime: ``None`` or the caller's current lifetime token.

        Returns:
            The chosen node, one of ``replicas``.

        Raises:
            ValueError: If ``replicas`` is empty.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear all per-stream state (called once per simulation run)."""


def _no_replicas(request: Request) -> ValueError:
    return ValueError(
        f"no replica to route request {request.req_id} for model "
        f"{request.model!r}"
    )


class RoundRobinRouter(Router):
    """Cycle each model's requests over its replica list."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next: dict = {}

    def route(
        self, request: Request, replicas: Replicas, clock: float, lifetime=None
    ) -> ClusterNode:
        """Return the next replica in the model's cycle."""
        if not replicas:
            raise _no_replicas(request)
        i = self._next.get(request.model, 0)
        self._next[request.model] = i + 1
        return replicas[i % len(replicas)]

    def reset(self) -> None:
        """Restart every model's cycle at its primary replica."""
        self._next.clear()


class AffinityRouter(Router):
    """Primary replica first; spill to join-shortest-queue under pressure.

    Args:
        spill_backlog: Backlog at which the primary stops absorbing new
            requests; ``None`` defaults to the node's batch cap (one full
            batch wave already waiting) at route time.

    Raises:
        ValueError: Unless ``spill_backlog`` is ``None`` or a
            non-negative integer (a ``bool`` or a float is not).
    """

    name = "affinity"

    def __init__(self, spill_backlog: Optional[int] = None) -> None:
        if spill_backlog is not None and (
            isinstance(spill_backlog, bool)
            or not isinstance(spill_backlog, numbers.Integral)
            or spill_backlog < 0
        ):
            raise ValueError(
                "spill_backlog must be None or a non-negative integer, "
                f"got {spill_backlog!r}"
            )
        #: Backlog at which the primary stops absorbing new requests;
        #: ``None`` defaults to the node's batch cap (one full batch wave
        #: already waiting) at route time.
        self.spill_backlog = spill_backlog
        self.reset()

    def route(
        self, request: Request, replicas: Replicas, clock: float, lifetime=None
    ) -> ClusterNode:
        """Return the primary while below the spill threshold, else JSQ.

        Within a lifetime the primary's backlog only grows, so spilling
        is monotone and the JSQ heap is built at the first spill.
        """
        model = request.model
        if lifetime is None or lifetime != self._life or model != self._model:
            if not replicas:
                raise _no_replicas(request)
            self._life = lifetime
            self._model = model
            primary = self._primary = replicas[0]
            sb = self.spill_backlog
            self._limit = primary.max_batch if sb is None else sb
            self._pb = primary.backlog()
            self._heap = None
        if self._pb < self._limit:
            self._pb += 1
            return self._primary
        heap = self._heap
        if heap is None:
            # The node rides as a trailing payload: the unique node_id
            # settles every tie before comparison could reach the node.
            heap = self._heap = [(n.backlog(), n.node_id, n) for n in replicas]
            heapify(heap)
        b, nid, node = heap[0]
        heapreplace(heap, (b + 1, nid, node))
        return node

    def reset(self) -> None:
        """Drop the cached primary and heap."""
        self._life = self._model = self._primary = self._heap = None
        self._pb = self._limit = 0


class LeastLoadedRouter(AffinityRouter):
    """Join-shortest-queue over the model's replicas: affinity with a
    spill threshold of 0, so every request goes to the replica with the
    smallest backlog (ties: lower id)."""

    name = "least-loaded"

    def __init__(self) -> None:
        super().__init__(spill_backlog=0)


class BackendAffinityRouter(Router):
    """Cheapest SLO-feasible backend first; join-shortest-queue fallback.

    A replica is *feasible* for a request when its remaining busy time
    plus a batch-1 service on its hardware still fits the request's SLO —
    a deliberately cheap estimate (queued work behind the in-flight batch
    is ignored, and batching will usually do better than batch-1) that
    only has to rank substrates, not predict latency.

    State is kept per ``(model, slack)`` key (``slack = slo - (clock -
    arrival_s)``, exactly the SLO at the arrival instant).  Within a
    lifetime a busy node's remaining time only shrinks, so feasibility
    is monotone: busy infeasible nodes wait on a watch list re-checked
    per arrival, idle infeasible ones stay out.  Another key's picks can
    grow a queue behind a cached heap's back, so entries only ever
    under-estimate live backlogs; a pick re-keys a stale top until the
    top is live, the exact ``(cost, backlog, node_id)`` minimum.
    """

    name = "backend-affinity"

    def __init__(self) -> None:
        self.reset()

    def route(
        self, request: Request, replicas: Replicas, clock: float, lifetime=None
    ) -> ClusterNode:
        """Return the cheapest feasible replica (ties: backlog, node id).

        Without an SLO — or when every replica is already infeasible —
        falls back to join-shortest-queue with an hourly-cost tie-break,
        so best-effort traffic still spreads by load.
        """
        model = request.model
        slack = request.slo_s
        if slack is not None:
            slack = slack - (clock - request.arrival_s)
        if lifetime is None or lifetime != self._life:
            self._life = lifetime
            self._states.clear()
        key = (model, slack)
        st = self._states.get(key)
        if st is None:
            if not replicas:
                raise _no_replicas(request)
            feas = watch = None
            if slack is not None:
                feas = []
                watch = []
                for n in replicas:
                    # eta_s(clock) + min_latency, inlined: the scan's own
                    # float expression, never a rearrangement.
                    ml = n.min_latency(model)
                    if n.in_flight:
                        if max(0.0, n.busy_until - clock) + ml <= slack:
                            feas.append(
                                (n.spec.hourly_cost, n.backlog(), n.node_id, n)
                            )
                        else:
                            watch.append((n, ml))
                    elif 0.0 + ml <= slack:
                        feas.append((n.spec.hourly_cost, n.backlog(), n.node_id, n))
                    # else: idle and infeasible, which lasts all lifetime
                heapify(feas)
            # [feasible heap, watch list, fallback heap (built lazily)]
            st = self._states[key] = [feas, watch, None]
        if slack is not None:
            feas, watch, _ = st
            if watch:
                # Watched nodes stay in flight all lifetime.
                still = []
                for n, ml in watch:
                    if max(0.0, n.busy_until - clock) + ml <= slack:
                        heappush(feas, (n.spec.hourly_cost, n.backlog(), n.node_id, n))
                    else:
                        still.append((n, ml))
                if len(still) != len(watch):
                    st[1] = still
            while feas:
                c, b, nid, node = feas[0]
                live = len(node.queue) + len(node.in_flight)
                if live != b:
                    heapreplace(feas, (c, live, nid, node))
                    continue
                heapreplace(feas, (c, b + 1, nid, node))
                return node
        fb = st[2]
        if fb is None:
            fb = st[2] = [
                (n.backlog(), n.spec.hourly_cost, n.node_id, n) for n in replicas
            ]
            heapify(fb)
        while True:
            b, c, nid, node = fb[0]
            live = len(node.queue) + len(node.in_flight)
            if live != b:
                heapreplace(fb, (live, c, nid, node))
                continue
            heapreplace(fb, (b + 1, c, nid, node))
            return node

    def reset(self) -> None:
        """Drop every cached key state."""
        self._life = None
        self._states: dict = {}


def make_router(policy: str, **kwargs) -> Router:
    """Build a router by policy name.

    Args:
        policy: One of :data:`ROUTER_POLICIES`.
        **kwargs: Forwarded to the router's constructor (e.g.
            ``spill_backlog`` for ``affinity``).

    Returns:
        A fresh :class:`Router`.

    Raises:
        ValueError: On an unknown policy name.
    """
    if policy == "round-robin":
        return RoundRobinRouter(**kwargs)
    if policy == "least-loaded":
        return LeastLoadedRouter(**kwargs)
    if policy == "affinity":
        return AffinityRouter(**kwargs)
    if policy == "backend-affinity":
        return BackendAffinityRouter(**kwargs)
    raise ValueError(
        f"unknown router policy {policy!r}; choose from {ROUTER_POLICIES}"
    )
