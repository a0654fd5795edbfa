"""The elastic fleet: one pool of nodes that join and drain mid-run.

:class:`ElasticCluster` is the one-pool, autoscaled front end of the
fleet loop in :mod:`repro.cluster.pool` (which holds the node
lifecycle — provisioning with a weight-copy delay, draining, retiring —
the control ticks, failure injection, and both the reference and the
fast path).  Its single pool holds StepStone nodes that each replicate
the full served-model set — the convention the static
:class:`~repro.cluster.planner.CapacityPlanner` uses, since a model
pinned to fewer replicas than nodes would cap elasticity regardless of
fleet size.  Under a static policy with the same node count it
reproduces a :class:`~repro.cluster.fleet.Cluster` run request for
request; the heterogeneous
:class:`~repro.autoscale.hetero.HeteroElasticCluster` is the same loop
with a pool per node type.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.autoscale.policies import AutoscalePolicy, ControlObservation
from repro.autoscale.report import AutoscaleReport
from repro.cluster.pool import NodePool, NodeState, PoolFleet
from repro.cluster.router import Router
from repro.serving.engine import OnlineServingEngine, Request
from repro.serving.nodespec import STEPSTONE_NODE
from repro.sim.failures import FailureTrace

__all__ = ["ElasticCluster", "NodePool", "NodeState"]

#: The name of :class:`ElasticCluster`'s single pool.
_POOL = "nodes"


class _OnePoolPolicy:
    """Adapts a homogeneous policy to the per-pool interface."""

    def __init__(self, policy: AutoscalePolicy) -> None:
        self.policy = policy
        self.name = policy.name

    def reset(self) -> None:
        self.policy.reset()

    def desired_by_pool(
        self, obs: Mapping[str, ControlObservation]
    ) -> Dict[str, int]:
        return {_POOL: self.policy.desired_nodes(obs[_POOL])}


class ElasticCluster(PoolFleet):
    """A routed fleet whose size an autoscaler adjusts while it serves.

    One pool of StepStone nodes, each hosting every served model.
    """

    _LABEL = "elastic"

    def __init__(
        self,
        engine: Optional[OnlineServingEngine] = None,
        policy: str = "hybrid",
        router: "Router | str" = "least-loaded",
        models: Optional[Iterable[str]] = None,
        initial_nodes: int = 1,
        min_nodes: int = 1,
        max_nodes: int = 64,
        control_interval_s: float = 1.0,
        provision_base_s: float = 0.15,
        copy_gbps: float = 10.0,
        max_batch: Optional[int] = None,
        record: str = "full",
    ) -> None:
        if initial_nodes <= 0:
            raise ValueError("need at least one initial node")
        if not 1 <= min_nodes <= max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if not min_nodes <= initial_nodes <= max_nodes:
            raise ValueError("initial_nodes must lie in [min_nodes, max_nodes]")
        self._configure(
            engine, policy, router, models, control_interval_s,
            provision_base_s, copy_gbps, max_batch, record,
        )
        self.initial_nodes = initial_nodes
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.pools = {
            _POOL: NodePool(STEPSTONE_NODE, min_nodes, max_nodes, initial_nodes)
        }
        self.hosted = {_POOL: list(self.models)}

    @property
    def weight_bytes(self) -> float:
        """Bytes a new node must copy before serving (all hosted models)."""
        return self._weight_bytes(_POOL)

    @property
    def provision_delay_s(self) -> float:
        """Spin-up plus weight-copy time for one new node."""
        return self._provision_delay(_POOL)

    def run(
        self,
        requests: Iterable[Request],
        autoscaler: AutoscalePolicy,
        failures: Optional[FailureTrace] = None,
        presorted: bool = False,
        horizon_s: Optional[float] = None,
        obs=None,
        fast: bool = False,
    ) -> AutoscaleReport:
        """Serve an arrival-ordered stream while ``autoscaler`` resizes the
        fleet every control interval.

        Args:
            requests: Timestamped requests (sorted internally unless
                ``presorted``).
            autoscaler: The sizing policy.
            failures: Optional outage schedule — failed nodes drop their
                work, leave the owned set (so the policy's next
                observation sees the loss), and rejoin on recovery.
            presorted: The stream is already arrival-ordered; consume it
                *lazily* through the kernel instead of materializing and
                sorting — with ``record="streaming"`` this is what keeps
                a 10M-request run's memory flat (requests exist only
                between generation and completion).  Requires
                ``horizon_s``.
            horizon_s: Arrival horizon for a presorted run — control
                ticks are scheduled up front through ``horizon_s`` plus
                one trailing interval, since a lazy stream's end is
                unknown until it drains.
            obs: Optional :class:`~repro.obs.RunObserver` — every node
                (including ones provisioned mid-run) emits request
                lifecycle spans, and the kernel self-profiles when a
                profiler is attached.  Default off.
            fast: Opt into the :mod:`repro.sim.fast` struct-of-arrays
                path: bit-identical reports and spans, in either record
                mode, with any router.  A ``presorted`` stream falls
                back to the event-at-a-time path.

        Returns:
            The :class:`~repro.autoscale.report.AutoscaleReport`.

        Raises:
            ValueError: If ``presorted`` without ``horizon_s``, or if a
                request asks for a model the fleet does not serve (before
                any event runs for a list; as it is pulled for a
                presorted stream).
        """
        report = AutoscaleReport(
            policy=self.policy,
            autoscaler=autoscaler.name,
            control_interval_s=self.control_interval_s,
        )
        return self._run(
            requests, _OnePoolPolicy(autoscaler), report, failures, obs, fast,
            presorted, horizon_s,
        )
