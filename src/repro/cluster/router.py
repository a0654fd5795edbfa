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
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
        self, request: Request, replicas: List[ClusterNode], clock: float
    ) -> ClusterNode:
        """Pick the node that will queue ``request``.

        Args:
            request: The arriving request.
            replicas: Nodes hosting the request's model, primary first
                (never empty).
            clock: The arrival instant.

        Returns:
            The chosen node.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any per-stream state (called once per simulation run)."""


class RoundRobinRouter(Router):
    """Cycle each model's requests over its replica list."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next: dict = {}

    def route(
        self, request: Request, replicas: List[ClusterNode], clock: float
    ) -> ClusterNode:
        """Return the next replica in the model's cycle."""
        i = self._next.get(request.model, 0)
        self._next[request.model] = i + 1
        return replicas[i % len(replicas)]

    def reset(self) -> None:
        """Restart every model's cycle at its primary replica."""
        self._next.clear()


def _shortest_queue(replicas: List[ClusterNode]) -> ClusterNode:
    return min(replicas, key=lambda n: (n.backlog(), n.node_id))


class LeastLoadedRouter(Router):
    """Join-shortest-queue over the model's replicas."""

    name = "least-loaded"

    def route(
        self, request: Request, replicas: List[ClusterNode], clock: float
    ) -> ClusterNode:
        """Return the replica with the smallest backlog (ties: lower id)."""
        return _shortest_queue(replicas)


class AffinityRouter(Router):
    """Primary replica first; spill to join-shortest-queue under pressure.

    Args:
        spill_backlog: Backlog at which the primary stops absorbing new
            requests; ``None`` defaults to the node's batch cap (one full
            batch wave already waiting) at route time.
    """

    name = "affinity"

    def __init__(self, spill_backlog: Optional[int] = None) -> None:
        #: Backlog at which the primary stops absorbing new requests;
        #: ``None`` defaults to the node's batch cap (one full batch wave
        #: already waiting) at route time.
        self.spill_backlog = spill_backlog

    def route(
        self, request: Request, replicas: List[ClusterNode], clock: float
    ) -> ClusterNode:
        """Return the primary while below the spill threshold, else JSQ."""
        primary = replicas[0]
        limit = (
            self.spill_backlog if self.spill_backlog is not None else primary.max_batch
        )
        if primary.backlog() < limit:
            return primary
        return _shortest_queue(replicas)


class BackendAffinityRouter(Router):
    """Cheapest SLO-feasible backend first; join-shortest-queue fallback.

    A replica is *feasible* for a request when its remaining busy time
    plus a batch-1 service on its hardware still fits the request's SLO —
    a deliberately cheap estimate (queued work behind the in-flight batch
    is ignored, and batching will usually do better than batch-1) that
    only has to rank substrates, not predict latency.
    """

    name = "backend-affinity"

    def route(
        self, request: Request, replicas: List[ClusterNode], clock: float
    ) -> ClusterNode:
        """Return the cheapest feasible replica (ties: backlog, node id).

        Without an SLO — or when every replica is already infeasible —
        falls back to join-shortest-queue with an hourly-cost tie-break,
        so best-effort traffic still spreads by load.
        """
        slo = request.slo_s
        if slo is not None:
            slack = slo - (clock - request.arrival_s)
            feasible = [
                n
                for n in replicas
                if n.eta_s(clock) + n.min_latency(request.model) <= slack
            ]
            if feasible:
                return min(
                    feasible,
                    key=lambda n: (n.spec.hourly_cost, n.backlog(), n.node_id),
                )
        return min(
            replicas,
            key=lambda n: (n.backlog(), n.spec.hourly_cost, n.node_id),
        )


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
