"""Query serving on a StepStone system: batch splitting, hybrid dispatch,
request-level online serving on a simulated clock (through the one node
state machine in :mod:`repro.serving.node`, which the fleets share), and
the hardware node specs (`NodeSpec`) heterogeneous fleets are built from."""

from repro.serving.nodespec import (
    BACKENDS,
    CPU_NODE,
    DEFAULT_CATALOG,
    GPU_NODE,
    STEPSTONE_NODE,
    NodeSpec,
)
from repro.serving.engine import (
    POLICIES,
    CompletedRequest,
    FailedRequest,
    OnlineServingEngine,
    RejectedRequest,
    Request,
    ServingReport,
    merge_streams,
    nearest_rank,
    poisson_requests,
    slo_admit,
    uniform_requests,
    window_latencies,
)
from repro.serving.scheduler import (
    BatchServer,
    HybridSplit,
    ServingPoint,
)

__all__ = [
    "BatchServer",
    "HybridSplit",
    "ServingPoint",
    "POLICIES",
    "BACKENDS",
    "NodeSpec",
    "STEPSTONE_NODE",
    "CPU_NODE",
    "GPU_NODE",
    "DEFAULT_CATALOG",
    "Request",
    "CompletedRequest",
    "RejectedRequest",
    "FailedRequest",
    "ServingReport",
    "OnlineServingEngine",
    "slo_admit",
    "nearest_rank",
    "window_latencies",
    "poisson_requests",
    "uniform_requests",
    "merge_streams",
]
