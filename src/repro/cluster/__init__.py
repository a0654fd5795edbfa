"""Multi-node fleet serving on simulated StepStone nodes.

The paper frames StepStone PIM as a datacenter substrate: cheap bandwidth
per node that a provider deploys as a *fleet*.  This package adds the layer
above :mod:`repro.serving` — many nodes on one shared simulated clock:

* :mod:`~repro.cluster.placement` — replicated, memory-capacity-aware
  assignment of model weights to nodes;
* :mod:`~repro.cluster.router` — pluggable request routing (round-robin,
  join-shortest-queue, model affinity with replica spillover);
* :mod:`~repro.cluster.pool` — the one fleet event loop (routing, node
  lifecycle, optional control ticks, failures) that every fleet runs;
* :mod:`~repro.cluster.fleet` — the static fleet front end on that loop,
  the report core every fleet report shares, and its aggregated
  :class:`~repro.cluster.fleet.ClusterReport`;
* :mod:`~repro.cluster.planner` — capacity planning: the minimum node
  count sustaining a target load at a p99 SLO, and the heterogeneous
  cost-minimizing search (`HeteroCapacityPlanner`) over mixed
  CPU/GPU/StepStone fleets.

Each node is a :class:`~repro.serving.node.ClusterNode` (queue, FIFO
per-model batching, SLO admission), the same state machine the
single-node engine drives; it is re-exported here.  Nodes need not be
StepStone: every node carries a
:class:`~repro.serving.NodeSpec` (backend, memory, $/hr, power), and an
all-StepStone spec list reproduces the homogeneous fleet request for
request.
"""

from repro.cluster.fleet import Cluster, ClusterReport
from repro.cluster.placement import (
    DEFAULT_NODE_CAPACITY_BYTES,
    ModelPlacement,
    PlacementError,
)
from repro.cluster.planner import (
    CapacityPlan,
    CapacityPlanner,
    HeteroCapacityPlan,
    HeteroCapacityPlanner,
)
from repro.cluster.router import (
    ROUTER_POLICIES,
    AffinityRouter,
    BackendAffinityRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from repro.serving.node import ClusterNode

__all__ = [
    "Cluster",
    "ClusterReport",
    "ClusterNode",
    "ModelPlacement",
    "PlacementError",
    "DEFAULT_NODE_CAPACITY_BYTES",
    "CapacityPlan",
    "CapacityPlanner",
    "HeteroCapacityPlan",
    "HeteroCapacityPlanner",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "AffinityRouter",
    "BackendAffinityRouter",
    "ROUTER_POLICIES",
    "make_router",
]
