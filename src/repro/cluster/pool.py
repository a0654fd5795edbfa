"""The fleet event loop: routed nodes in named pools on one clock.

Every fleet simulator runs this one loop.  The static
:class:`~repro.cluster.fleet.Cluster` runs it with one pool and no
autoscaler; :class:`~repro.autoscale.elastic.ElasticCluster` with one
pool and a control loop; and
:class:`~repro.autoscale.hetero.HeteroElasticCluster` with a pool per
node type.  All state changes are events on the shared :mod:`repro.sim`
kernel:

* **arrivals and finishes** — every arrival at an instant is routed
  before any dispatch (so simultaneous requests can share a batch,
  matching the single-node engine), and finish events tie-break by node
  id;
* **provisioning** — a newly ordered node becomes routable only after a
  provisioning delay modeling weight-copy time (a ``READY`` event): a
  base spin-up plus the hosted models' total weight bytes over a copy
  bandwidth (the placement's per-model bytes are exactly what must
  stream into the node's PIM-enabled DRAM before it can serve);
* **draining** — a node picked for scale-down leaves the routing set
  immediately, finishes its queued work, then retires; it can be
  *reactivated* for free if the autoscaler changes its mind before the
  drain completes (and nodes still provisioning are cancelled first,
  since they never held traffic);
* **control ticks** — with an autoscaler, every ``control_interval_s``
  (a ``CONTROL`` event) it sees a windowed observation per pool
  (arrivals, completions, rejections, exact busy-time utilization via
  :class:`~repro.sim.metrics.BusyWindow`, windowed p99) and answers
  with a desired size, clamped to the pool's ``[min_nodes, max_nodes]``;
  without one no tick is scheduled and the fleet never changes size;
* **failures** — an optional :class:`~repro.sim.failures.FailureTrace`
  injects ``FAIL``/``RECOVER`` events: a failed node drops its queue
  and in-flight batch (counted as failed requests), leaves the routing
  and owned sets (so an autoscaler's next tick sees the loss and can
  order a replacement), and rejoins empty on recovery.

A front end supplies data and small hooks only: each initial node's
pool, spec and hosted models, the replica order per model (spawn order
unless the front end reorders it), and how the finished nodes land in
its report.  Event ordering is the kernel's documented total order
(arrivals before control ticks before finishes at equal timestamps,
ties by node id), so a fleet held at a fixed size by a static policy
reproduces the static fleet request for request; the only difference
is its CONTROL events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cluster.router import Router, make_router
from repro.serving.engine import (
    POLICIES,
    FailedRequest,
    OnlineServingEngine,
    Request,
    ServingReport,
    check_max_batch,
)
from repro.serving.node import ClusterNode
from repro.serving.nodespec import NodeSpec
from repro.sim.failures import FailureTrace
from repro.sim.kernel import DiscreteEventKernel, Event, EventKind
from repro.sim.metrics import BusyWindow, nearest_rank
from repro.sim.stats import MetricsRecorder, check_record_mode

__all__ = [
    "NodeState",
    "NodeLifetime",
    "ControlSample",
    "ControlObservation",
    "NodePool",
    "PoolFleet",
]

# Node lifecycle states.
PROVISIONING = "provisioning"
ACTIVE = "active"
DRAINING = "draining"
FAILED = "failed"
RETIRED = "retired"

#: Exposed for introspection/tests.
NodeState = (PROVISIONING, ACTIVE, DRAINING, FAILED, RETIRED)


@dataclass
class NodeLifetime:
    """One node's lifecycle timestamps (NaN-free: None = never happened)."""

    node_id: int
    #: When the node was ordered (starts paying) — 0.0 for the initial fleet.
    ordered_s: float
    #: When it finished provisioning and joined the routing set.
    ready_s: Optional[float] = None
    #: When it stopped taking new requests.
    drain_s: Optional[float] = None
    #: When it finished its backlog and left the fleet.
    retired_s: Optional[float] = None

    def seconds(self, sim_end_s: float) -> float:
        """Paid machine time: ordered to retired (or to the end of the run)."""
        end = self.retired_s if self.retired_s is not None else sim_end_s
        return max(0.0, end - self.ordered_s)


@dataclass(frozen=True)
class ControlSample:
    """One control tick of the autoscale timeline."""

    t: float
    active: int
    provisioning: int
    draining: int
    desired: int
    arrivals: int
    completions: int
    rejections: int
    window_p99_s: float
    utilization: float
    backlog: int
    failed: int = 0

    def as_row(self, interval_s: float) -> Dict[str, Any]:
        """A chart/table row (rates in req/s, p99 in ms)."""
        return {
            "t_s": round(self.t, 6),
            "nodes": self.active,
            "provisioning": self.provisioning,
            "failed": self.failed,
            "offered_rps": self.arrivals / interval_s if interval_s > 0 else 0.0,
            "goodput_rps": self.completions / interval_s if interval_s > 0 else 0.0,
            "p99_ms": self.window_p99_s * 1e3,
            "util": self.utilization,
        }


@dataclass(frozen=True)
class ControlObservation:
    """What the autoscaler sees at one control tick."""

    #: Tick instant (end of the observation window), seconds.
    t: float
    #: Window length, seconds.
    interval_s: float
    #: Node counts by lifecycle state at the tick.
    active: int
    provisioning: int
    draining: int
    #: Requests routed / completed / rejected during the window.
    arrivals: int
    completions: int
    rejections: int
    #: Nearest-rank p99 latency of the window's completions (NaN if none).
    window_p99_s: float
    #: Busy fraction of the serving set (active + draining nodes) over the
    #: window, clamped to [0, 1]; approximate while membership changes.
    utilization: float
    #: Queued + in-flight requests across the fleet at the tick.
    backlog: int
    #: Nodes down with an injected failure at the tick (they left the
    #: owned set, so a fixed desired size orders a replacement).
    failed: int = 0

    @property
    def fleet(self) -> int:
        """Nodes owned at the tick (active + still provisioning)."""
        return self.active + self.provisioning

    @property
    def offered_rps(self) -> float:
        """Arrival rate measured over the window, req/s."""
        return self.arrivals / self.interval_s if self.interval_s > 0 else 0.0


@dataclass(frozen=True)
class NodePool:
    """One node type's elastic pool.

    Args:
        spec: Hardware of every node in the pool.
        min_nodes: Lower clamp on the pool's owned size (may be 0 for a
            burst-only pool).
        max_nodes: Upper clamp on the pool's owned size.
        initial_nodes: Pool size at t=0 (within the clamps).
    """

    spec: NodeSpec
    min_nodes: int = 0
    max_nodes: int = 16
    initial_nodes: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 0 <= min_nodes <= max_nodes")
        if not self.min_nodes <= self.initial_nodes <= self.max_nodes:
            raise ValueError("initial_nodes must lie in [min_nodes, max_nodes]")


@dataclass(eq=False)
class _NodeSlot:
    """One node plus its lifecycle and window bookkeeping (compared by
    identity, so leaving a replica list is one pointer scan)."""

    node: ClusterNode
    pool: str
    state: str
    life: NodeLifetime
    # Exact busy-time integration per control tick.
    busy_window: BusyWindow = field(default_factory=BusyWindow)
    completed_seen: int = 0
    rejected_seen: int = 0
    #: Requests routed here since the last control tick.
    arrived: int = 0


class PoolFleet:
    """The one fleet loop over named node pools.

    A front end calls :meth:`_setup` (or the elastic :meth:`_configure`),
    sets ``pools`` (name -> :class:`NodePool`), ``models`` (the served
    set) and, when its pools are built from templates, ``hosted`` (name
    -> the models each node of that pool hosts), and runs through
    :meth:`_run`.
    """

    #: Label of the loop's telemetry and fast-path fallback counters.
    _LABEL = ""

    pools: Dict[str, NodePool]
    hosted: Dict[str, List[str]]
    models: List[str]

    def _setup(
        self,
        engine: Optional[OnlineServingEngine],
        policy: str,
        router: "Router | str",
        max_batch: Optional[int],
        record: str,
    ) -> None:
        """Validate and store what every front end shares."""
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        if not isinstance(router, (str, Router)):
            raise TypeError(
                f"router must be a policy name or a Router instance, got {router!r}"
            )
        self.record = check_record_mode(record)
        self.engine = engine or OnlineServingEngine()
        self.policy = policy
        self.router = make_router(router) if isinstance(router, str) else router
        self.max_batch = None if max_batch is None else check_max_batch(max_batch)
        # Run-local state, rebuilt by _fresh().
        self._slots: Dict[int, _NodeSlot] = {}
        self._replicas: Dict[str, List[_NodeSlot]] = {}
        self._next_id = 0
        self._kernel: Optional[DiscreteEventKernel] = None
        self._run_stats: Optional[MetricsRecorder] = None
        self._pool_stats: Dict[str, MetricsRecorder] = {}
        self._obs_spans = None

    def _configure(
        self,
        engine: Optional[OnlineServingEngine],
        policy: str,
        router: "Router | str",
        models: Optional[Iterable[str]],
        control_interval_s: float,
        provision_base_s: float,
        copy_gbps: float,
        max_batch: Optional[int],
        record: str,
    ) -> None:
        """:meth:`_setup` plus the elastic fleets' control and
        provisioning parameters and served-model set."""
        if control_interval_s <= 0:
            raise ValueError("control interval must be positive")
        if provision_base_s < 0 or copy_gbps <= 0:
            raise ValueError("provision_base_s >= 0 and copy_gbps > 0 required")
        self._setup(engine, policy, router, max_batch, record)
        names = sorted(models) if models is not None else sorted(self.engine.models)
        unknown = [m for m in names if m not in self.engine.models]
        if unknown:
            raise KeyError(f"models unknown to the engine: {unknown}")
        if not names:
            raise ValueError("need at least one served model")
        self.models = names
        self.control_interval_s = control_interval_s
        self.provision_base_s = provision_base_s
        self.copy_gbps = copy_gbps

    # ------------------------------------------------------------------ #
    # Provisioning model
    # ------------------------------------------------------------------ #

    def _weight_bytes(self, pool: str) -> float:
        return float(
            sum(self.engine.models[m].total_weight_bytes for m in self.hosted[pool])
        )

    def _provision_delay(self, pool: str) -> float:
        return self.provision_base_s + self._weight_bytes(pool) / (
            self.copy_gbps * 1e9
        )

    # ------------------------------------------------------------------ #
    # Front-end hooks
    # ------------------------------------------------------------------ #

    def _initial_nodes(self) -> List[Tuple[str, NodeSpec, List[str]]]:
        """Pool, spec and hosted models of each t=0 node, id order."""
        return [
            (name, self.pools[name].spec, self.hosted[name])
            for name in sorted(self.pools)
            for _ in range(self.pools[name].initial_nodes)
        ]

    def _collect(self, report) -> None:
        """Hand every node's report, lifetime and busy time to ``report``."""
        for nid, slot in self._slots.items():
            report.node_reports[nid] = slot.node.report
            report.lifetimes[nid] = slot.life
            report.node_busy_s[nid] = slot.node.busy_s

    # ------------------------------------------------------------------ #
    # Fleet membership
    # ------------------------------------------------------------------ #

    def _fresh(self) -> None:
        self._slots = {}
        self._replicas = {m: [] for m in self.models}
        self._next_id = 0
        self._kernel = DiscreteEventKernel()
        self._run_stats = None
        self._pool_stats = {}
        if self.record == "streaming":
            # Node recorders chain to their pool's recorder, and pool
            # recorders to the run recorder; with one pool the pool
            # recorder *is* the run recorder, so each completion is
            # recorded twice, not three times.  Every ring is rolled at
            # each control tick, so a window query sees exactly the
            # completions of that tick.
            self._run_stats = MetricsRecorder(record="streaming")
            if len(self.pools) == 1:
                self._pool_stats = {p: self._run_stats for p in self.pools}
            else:
                self._pool_stats = {
                    p: MetricsRecorder(record="streaming", parent=self._run_stats)
                    for p in sorted(self.pools)
                }
        self.router.reset()
        for pool, spec, models in self._initial_nodes():
            self._spawn(pool, spec, models, 0.0, ready_now=True)

    def _spawn(
        self,
        pool: str,
        spec: NodeSpec,
        models: List[str],
        clock: float,
        ready_now: bool,
    ) -> _NodeSlot:
        nid = self._next_id
        self._next_id += 1
        node = ClusterNode(
            node_id=nid,
            engine=self.engine,
            policy=self.policy,
            models=set(models),
            max_batch=self.max_batch,
            spec=spec,
        )
        if self.record == "streaming":
            node.report = ServingReport(
                policy=node.policy,
                stats=MetricsRecorder(
                    record="streaming", parent=self._pool_stats[pool]
                ),
            )
        node.obs_spans = self._obs_spans
        life = NodeLifetime(node_id=nid, ordered_s=clock)
        slot = _NodeSlot(
            node=node,
            pool=pool,
            state=ACTIVE if ready_now else PROVISIONING,
            life=life,
        )
        if ready_now:
            life.ready_s = clock
        self._slots[nid] = slot
        for m in models:
            self._replicas[m].append(slot)
        return slot

    def _pool_state(self, pool: str, state: str) -> List[_NodeSlot]:
        return [
            s for s in self._slots.values() if s.pool == pool and s.state == state
        ]

    def replicas_for(self, model: str) -> List[ClusterNode]:
        """Routable (active) nodes hosting ``model``, in replica order."""
        return [s.node for s in self._replicas[model] if s.state == ACTIVE]

    def _retire(self, slot: _NodeSlot, clock: float) -> None:
        # Retirement is terminal, so the slot leaves the replica lists.
        for m in slot.node.models:
            self._replicas[m].remove(slot)
        slot.state = RETIRED
        if slot.life.retired_s is None:
            slot.life.retired_s = clock

    def _apply_pool_target(self, pool: str, target: int, clock: float) -> None:
        """Order, cancel, reactivate, or drain one pool toward ``target``."""
        owned = self._pool_state(pool, ACTIVE) + self._pool_state(pool, PROVISIONING)
        delta = target - len(owned)
        if delta > 0:
            # Cheapest capacity first: un-drain nodes still finishing
            # their backlog (they re-enter routing instantly, no copy).
            draining = sorted(
                self._pool_state(pool, DRAINING), key=lambda s: -s.node.node_id
            )
            for slot in draining[:delta]:
                slot.state = ACTIVE
                slot.life.drain_s = None
                delta -= 1
            for _ in range(delta):
                self._spawn(
                    pool, self.pools[pool].spec, self.hosted[pool], clock,
                    ready_now=False,
                )
                self._kernel.schedule(
                    clock + self._provision_delay(pool),
                    EventKind.READY,
                    self._next_id - 1,
                )
        elif delta < 0:
            shed = -delta
            # Cancel provisioning nodes first (never held traffic), newest
            # first so the earliest-ordered capacity still arrives.
            provisioning = sorted(
                self._pool_state(pool, PROVISIONING), key=lambda s: -s.node.node_id
            )
            for slot in provisioning[:shed]:
                self._retire(slot, clock)
                shed -= 1
            if shed > 0:
                # Drain the emptiest active nodes (newest on ties).
                active = sorted(
                    self._pool_state(pool, ACTIVE),
                    key=lambda s: (s.node.backlog(), -s.node.node_id),
                )
                # A pool with a hosting anchor (min_nodes >= 1) keeps at
                # least one active node routable at all times; burst
                # pools may drain to zero.
                floor = 1 if self.pools[pool].min_nodes >= 1 else 0
                can_drain = max(0, len(active) - floor)
                for slot in active[: min(shed, can_drain)]:
                    slot.state = DRAINING
                    slot.life.drain_s = clock
                    if slot.node.idle and not slot.node.queue:
                        self._retire(slot, clock)

    # ------------------------------------------------------------------ #
    # The simulation
    # ------------------------------------------------------------------ #

    def _run(
        self,
        requests: Iterable[Request],
        autoscaler,
        report,
        failures: Optional[FailureTrace],
        obs,
        fast: bool,
        presorted: bool = False,
        horizon_s: Optional[float] = None,
    ):
        """Serve ``requests`` while ``autoscaler`` (a per-pool policy, or
        ``None`` for a fixed fleet) resizes every pool each control
        interval; fills and returns ``report``."""
        self._obs_spans = obs.spans if obs is not None else None
        _fast = None
        if fast and presorted:
            from repro.obs.telemetry import record_fast_fallback

            record_fast_fallback(self._LABEL, "presorted-stream", obs)
        elif fast:
            from repro.sim import fast as _fast
        self._fresh()
        if autoscaler is not None:
            autoscaler.reset()
        kernel = self._kernel
        run_stats = self._run_stats
        slots = self._slots
        served = set(self.models)

        def admit(r: Request) -> Request:
            # Intake check: no node of any pool could ever host ``r``.
            if r.model not in served:
                raise ValueError(
                    f"request {r.req_id} asks for model {r.model!r}, which "
                    f"this fleet does not serve (it serves {self.models})"
                )
            return r

        if presorted:
            if horizon_s is None or horizon_s <= 0:
                raise ValueError("presorted runs need a positive horizon_s")
            tick_horizon = horizon_s
            last_arrival = 0.0
            kernel.preload_stream(
                Event(r.arrival_s, EventKind.ARRIVAL, i, payload=r)
                for i, r in enumerate(map(admit, requests))
            )
            schedule_ticks = True
        else:
            ordered = sorted(
                map(admit, requests), key=lambda r: (r.arrival_s, r.req_id)
            )
            last_arrival = ordered[-1].arrival_s if ordered else 0.0
            tick_horizon = last_arrival
            if _fast is None:
                kernel.preload(
                    Event(r.arrival_s, EventKind.ARRIVAL, i, payload=r)
                    for i, r in enumerate(ordered)
                )
            schedule_ticks = bool(ordered)
        # Control ticks cover the offered window plus one trailing interval
        # (so the controller can react to the last window of load); an
        # empty stream or a fixed fleet needs no controller at all.
        if schedule_ticks and autoscaler is not None:
            # Accumulate tick times by repeated addition (not tick *
            # interval): that is bit-for-bit what the pre-kernel loop
            # did, and the golden traces pin those exact floats.
            t_tick = self.control_interval_s
            tick = 1
            while t_tick <= tick_horizon + self.control_interval_s:
                kernel.schedule(t_tick, EventKind.CONTROL, tick)
                tick += 1
                t_tick += self.control_interval_s
        if failures is not None:
            failures.schedule_on(kernel)
        timeline = getattr(report, "pool_timeline", None)
        state = {
            "last_service_end": 0.0,
            "prev_tick_t": 0.0,
            "last_arrival": last_arrival,
            "n_dropped": 0,
        }

        def unrouted(r: Request, now: float) -> None:
            # Every replica of the model is down (failed or draining).
            f = FailedRequest(request=r, failed_at_s=now, reason="unrouted")
            if run_stats is not None:
                run_stats.record_failure(f)
                state["n_dropped"] += 1
            else:
                report.dropped.append(f)

        # Routers reuse their state across calls that share ``lifetime``;
        # it is bumped after every dispatch attempt and every READY,
        # CONTROL, FAIL and RECOVER event: the only changes a router
        # cannot see (Router.route).  Replica lists change only on those
        # four kinds, so they are cached per model until one fires.
        lifetime = 0
        replica_cache: Dict[str, List[ClusterNode]] = {}
        route = self.router.route

        def dispatch(slot: _NodeSlot, now: float) -> bool:
            nonlocal lifetime
            finish = slot.node.try_dispatch(now)
            lifetime += 1
            if finish is None:
                return False
            kernel.schedule(
                finish, EventKind.FINISH, slot.node.node_id,
                payload=slot.node.epoch,
            )
            return True

        def place(r: Request, now: float) -> Optional[_NodeSlot]:
            # Route one arrival and queue it; its slot, or None if no
            # replica is up.  The router picks from ``replicas``, which
            # hold only nodes hosting the model.
            replicas = replica_cache.get(r.model)
            if replicas is None:
                replicas = replica_cache[r.model] = self.replicas_for(r.model)
            if not replicas:
                unrouted(r, now)
                return None
            node = route(r, replicas, now, lifetime)
            node.queue.append(r)
            slot = slots[node.node_id]
            slot.arrived += 1
            return slot

        def arrive(requests: List[Request], now: float, lo: int, hi: int) -> bool:
            # All arrivals at this instant, ``requests[lo:hi]``, route
            # before any dispatch, so simultaneous requests can share a
            # batch (single-node engine semantics) and routing sees them
            # in stream order.  Returns whether a FINISH was scheduled.
            if hi - lo == 1:
                slot = place(requests[lo], now)
                if slot is None or slot.node.in_flight:
                    return False
                return dispatch(slot, now)
            touched: Dict[int, _NodeSlot] = {}
            for r in requests[lo:hi]:
                slot = place(r, now)
                if slot is not None:
                    touched[slot.node.node_id] = slot
            scheduled = False
            for nid in sorted(touched):
                if not touched[nid].node.in_flight and dispatch(touched[nid], now):
                    scheduled = True
            return scheduled

        def on_finishes(now: float, events: List[Event]) -> None:
            for ev in events:
                slot = slots[ev.entity]
                node = slot.node
                if ev.payload != node.epoch:
                    continue  # batch was lost to a failure; stale event
                node.finish_batch(now)
                state["last_service_end"] = now
                dispatch(slot, now)
                if slot.state == DRAINING and node.idle and not node.queue:
                    self._retire(slot, now)

        def on_readies(now: float, events: List[Event]) -> None:
            for ev in events:
                slot = slots[ev.entity]
                # A node cancelled while provisioning stays retired; its
                # ready event is stale.
                if slot.state == PROVISIONING:
                    slot.state = ACTIVE
                    slot.life.ready_s = now

        def on_fails(now: float, events: List[Event]) -> None:
            for ev in events:
                slot = slots.get(ev.entity)
                if slot is None:
                    continue
                if slot.state == ACTIVE:
                    slot.node.fail(now)
                    slot.state = FAILED
                elif slot.state == DRAINING:
                    # It was leaving anyway; the failure just drops its
                    # backlog and retires it on the spot.
                    slot.node.fail(now)
                    self._retire(slot, now)

        def on_recovers(now: float, events: List[Event]) -> None:
            for ev in events:
                slot = slots.get(ev.entity)
                if slot is not None and slot.state == FAILED:
                    slot.state = ACTIVE

        def on_control(now: float, events: List[Event]) -> None:
            obs = self._observe(state["prev_tick_t"], now)
            state["prev_tick_t"] = now
            desired = autoscaler.desired_by_pool(obs)
            unknown = sorted(set(desired) - set(self.pools))
            if unknown:
                raise ValueError(
                    f"policy {autoscaler.name!r} targets unknown pools "
                    f"{unknown}; cluster pools: {sorted(self.pools)}"
                )
            targets = 0
            for pool_name in sorted(self.pools):
                pool = self.pools[pool_name]
                want = desired.get(pool_name, obs[pool_name].fleet)
                target = max(pool.min_nodes, min(pool.max_nodes, want))
                targets += target
                self._apply_pool_target(pool_name, target, now)
            if timeline is not None:
                row = {"t_s": round(now, 6)}
                for pool_name in sorted(self.pools):
                    row[f"{pool_name}_nodes"] = len(
                        self._pool_state(pool_name, ACTIVE)
                    ) + len(self._pool_state(pool_name, PROVISIONING))
                timeline.append(row)
            agg = self._aggregate(obs)
            report.samples.append(
                ControlSample(
                    t=now,
                    active=agg.active,
                    provisioning=agg.provisioning,
                    draining=agg.draining,
                    desired=targets,
                    arrivals=agg.arrivals,
                    completions=agg.completions,
                    rejections=agg.rejections,
                    window_p99_s=agg.window_p99_s,
                    utilization=agg.utilization,
                    backlog=agg.backlog,
                    failed=agg.failed,
                )
            )

        def cold(handler):
            def wrapped(now: float, events: List[Event]) -> None:
                nonlocal lifetime
                handler(now, events)
                replica_cache.clear()
                lifetime += 1

            return wrapped

        handlers = {
            EventKind.FINISH: on_finishes,
            EventKind.READY: cold(on_readies),
            EventKind.CONTROL: cold(on_control),
            EventKind.FAIL: cold(on_fails),
            EventKind.RECOVER: cold(on_recovers),
        }
        if _fast is not None:
            _fast.count_run()
            _fast.drain(
                kernel,
                _fast.arrival_times(ordered),
                partial(arrive, ordered),
                handlers,
                profiler=getattr(obs, "profile", None) if obs is not None else None,
            )
        else:
            def on_arrivals(now: float, events: List[Event]) -> None:
                state["last_arrival"] = now
                arrive([ev.payload for ev in events], now, 0, len(events))

            handlers[EventKind.ARRIVAL] = on_arrivals
            kernel.run(handlers, obs=obs)
        # The serving horizon excludes trailing control ticks (controller
        # bookkeeping, not service) — a static-policy run matches the
        # static fleet's sim_end exactly.  Anything still draining,
        # provisioning, or failed retires here.
        last_arrival = state["last_arrival"]
        report.last_arrival_s = last_arrival
        sim_end = max(state["last_service_end"], last_arrival)
        for slot in slots.values():
            if slot.state != RETIRED:
                self._retire(slot, sim_end)
        report.sim_end_s = sim_end
        kernel.finalize(report)
        report.n_dropped = state["n_dropped"]
        report.stats = run_stats
        for slot in slots.values():
            slot.node.report.sim_end_s = sim_end
        self._collect(report)
        if obs is not None and obs.telemetry is not None:
            obs.telemetry.record_counts(
                self._LABEL,
                served=report.served,
                rejected=report.rejected_count,
                failed=report.failed_count,
            )
        return report

    def _observe(self, t0: float, t1: float) -> Dict[str, ControlObservation]:
        """Per-pool windowed observations over ``(t0, t1]`` (exact busy
        time)."""
        interval = t1 - t0
        streaming = self._run_stats is not None
        out: Dict[str, ControlObservation] = {}
        for pool_name in self.pools:
            counts = dict.fromkeys(NodeState, 0)
            window_lats: List[float] = []
            arrivals = 0
            completions = 0
            rejections = 0
            busy_window = 0.0
            backlog = 0
            for slot in self._slots.values():
                if slot.pool != pool_name:
                    continue
                counts[slot.state] += 1
                arrivals += slot.arrived
                slot.arrived = 0
                rep = slot.node.report
                served_now = rep.served
                if streaming:
                    completions += served_now - slot.completed_seen
                else:
                    new_lats = rep.stats.new_latencies(slot.completed_seen)
                    completions += len(new_lats)
                    window_lats.extend(new_lats)
                slot.completed_seen = served_now
                rejections += rep.rejected_count - slot.rejected_seen
                slot.rejected_seen = rep.rejected_count
                busy_window += slot.busy_window.observe(
                    slot.node.busy_s,
                    slot.node.busy_until,
                    bool(slot.node.in_flight),
                    t1,
                )
                if slot.state not in (RETIRED, FAILED):
                    backlog += slot.node.backlog()
            # The numerator sums busy time across every slot (draining
            # nodes keep serving their backlog), so the denominator must
            # count the serving set — active plus draining — or every
            # scale-down tick would read as a saturated pool.  Approximate
            # across mid-window membership changes; the clamp keeps it a
            # fraction.
            n_serving = counts[ACTIVE] + counts[DRAINING]
            util = 0.0
            if interval > 0 and n_serving:
                util = max(0.0, min(1.0, busy_window / (interval * n_serving)))
            if streaming:
                # The pool recorder's open window holds exactly the
                # completions since the last tick (CONTROL fires before
                # FINISH at equal instants, matching the full-mode "new
                # completions since last tick" semantics); read its p99,
                # then roll so the next tick starts a fresh window.
                pool_rec = self._pool_stats[pool_name]
                window_p99 = pool_rec.window_percentile(99, t0, t1)
                pool_rec.roll_window(t1)
            else:
                window_lats.sort()
                window_p99 = nearest_rank(window_lats, 99)
            out[pool_name] = ControlObservation(
                t=t1,
                interval_s=interval,
                active=counts[ACTIVE],
                provisioning=counts[PROVISIONING],
                draining=counts[DRAINING],
                arrivals=arrivals,
                completions=completions,
                rejections=rejections,
                window_p99_s=window_p99,
                utilization=util,
                backlog=backlog,
                failed=counts[FAILED],
            )
        if streaming:
            # A no-op when the single pool's recorder is the run's.
            self._run_stats.roll_window(t1)
        return out

    @staticmethod
    def _aggregate(obs: Mapping[str, ControlObservation]) -> ControlObservation:
        """Fleet-wide view of one tick (for the shared timeline format)."""
        if len(obs) == 1:
            # Re-weighting u*n/n does not round-trip every float.
            return next(iter(obs.values()))
        some = next(iter(obs.values()))
        servings = sum(o.active + o.draining for o in obs.values())
        util = 0.0
        if servings:
            util = (
                sum(o.utilization * (o.active + o.draining) for o in obs.values())
                / servings
            )
        p99s = [o.window_p99_s for o in obs.values() if o.window_p99_s == o.window_p99_s]
        return ControlObservation(
            t=some.t,
            interval_s=some.interval_s,
            active=sum(o.active for o in obs.values()),
            provisioning=sum(o.provisioning for o in obs.values()),
            draining=sum(o.draining for o in obs.values()),
            arrivals=sum(o.arrivals for o in obs.values()),
            completions=sum(o.completions for o in obs.values()),
            rejections=sum(o.rejections for o in obs.values()),
            window_p99_s=max(p99s) if p99s else math.nan,
            utilization=util,
            backlog=sum(o.backlog for o in obs.values()),
            failed=sum(o.failed for o in obs.values()),
        )
