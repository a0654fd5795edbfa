"""Property tests pinning every builtin router to a brute-force scan.

Each router keeps incremental state (heaps seeded from live backlogs,
feasibility watch lists) that it may reuse across calls sharing one
``lifetime`` token.  The oracle below is the plain per-arrival scan
over the replica list.  Random histories over 1-6 StepStone and GPU
nodes, each hosting a random subset of the models, mix arrivals
(enqueued on the pick, as a fleet does), outside dispatches and
finishes, failures, membership drops and rejoins, and clock advances.
Every pick must equal the oracle's, both with a lifetime token (bumped
after every outside change, as the fleet loop does) and with one-shot
calls (``lifetime=None``).
"""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    AffinityRouter,
    BackendAffinityRouter,
    ClusterNode,
    LeastLoadedRouter,
    RoundRobinRouter,
)
from repro.serving import GPU_NODE, STEPSTONE_NODE, OnlineServingEngine, Request

MODELS = ("BERT", "DLRM")
SPECS = (STEPSTONE_NODE, GPU_NODE)
#: An SLO is a multiple of the request model's batch-1 latency on one
#: spec, so feasibility sits near its boundary (factor 1.0 hits
#: ``eta + min_latency == slack`` exactly on an idle node of that spec).
SLOS = (None, (0, 0.5), (0, 1.0), (1, 1.0), (1, 2.0))
#: Busy times, clock steps and request ages are multiples of BERT's
#: batch-1 StepStone latency.
BUSY_FACTORS = (0.1, 0.3, 1.0, 3.0)
STEP_FACTORS = (0.0, 0.1, 0.3, 1.0, 3.0)
AGE_FACTORS = (0.0, 0.2, 0.6)


@functools.lru_cache(maxsize=None)
def _engine():
    return OnlineServingEngine()


@functools.lru_cache(maxsize=None)
def _lat(model, spec_ix=0):
    return _engine().batch_latency(model, "hybrid", 1, spec=SPECS[spec_ix])


# ---------------------------------------------------------------------- #
# The oracle: a brute-force scan over the replica list
# ---------------------------------------------------------------------- #


def _jsq(replicas):
    return min(replicas, key=lambda n: (n.backlog(), n.node_id))


class ScanOracle:
    """The reference decision of each policy, recomputed per arrival."""

    def __init__(self, policy, spill_backlog=None):
        self.policy = policy
        self.spill_backlog = spill_backlog
        self.next = {}

    def route(self, request, replicas, clock):
        if self.policy == "round-robin":
            i = self.next.get(request.model, 0)
            self.next[request.model] = i + 1
            return replicas[i % len(replicas)]
        if self.policy == "least-loaded":
            return _jsq(replicas)
        if self.policy == "affinity":
            primary = replicas[0]
            limit = self.spill_backlog
            if limit is None:
                limit = primary.max_batch
            return primary if primary.backlog() < limit else _jsq(replicas)
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
            replicas, key=lambda n: (n.backlog(), n.spec.hourly_cost, n.node_id)
        )


def _router(policy, spill_backlog):
    if policy == "round-robin":
        return RoundRobinRouter()
    if policy == "least-loaded":
        return LeastLoadedRouter()
    if policy == "affinity":
        return AffinityRouter(spill_backlog=spill_backlog)
    return BackendAffinityRouter()


# ---------------------------------------------------------------------- #
# Drivers: how a history calls the router under test
# ---------------------------------------------------------------------- #


class Tokened:
    """Repeated calls share a lifetime token bumped on every outside
    change; each request arrives at the routing instant (the contract)."""

    aged = False

    def __init__(self, router):
        self.router = router
        self.life = 0

    def start(self):
        self.router.reset()
        self.life = 0

    def route(self, request, replicas, clock):
        return self.router.route(request, replicas, clock, self.life)

    def changed(self, membership):
        self.life += 1


class OneShot:
    """Token-less calls: state is rebuilt every time, so requests may
    be routed after their arrival instant (slack below the SLO)."""

    aged = True

    def __init__(self, router):
        self.router = router

    def start(self):
        self.router.reset()

    def route(self, request, replicas, clock):
        return self.router.route(request, replicas, clock)

    def changed(self, membership):
        pass


DRIVERS = {"token": Tokened, "oneshot": OneShot}
POLICIES = ("round-robin", "least-loaded", "affinity", "backend-affinity")

#: One router per (driver, policy, spill), reused across histories with
#: reset() in between: a stale token from the previous history must not
#: leak into the next one.
_ROUTERS = {}


def _driver(name, policy, spill_backlog):
    key = (name, policy, spill_backlog)
    if key not in _ROUTERS:
        _ROUTERS[key] = DRIVERS[name](_router(policy, spill_backlog))
    return _ROUTERS[key]


# ---------------------------------------------------------------------- #
# Random histories
# ---------------------------------------------------------------------- #

_node_ix = st.integers(0, 5)
#: The (model, SLO) keys one history draws its arrivals from: a small
#: palette, so keys repeat and interleave inside a lifetime.
KEYS = st.lists(
    st.tuples(st.integers(0, len(MODELS) - 1), st.sampled_from(SLOS)),
    min_size=1,
    max_size=3,
)
#: One burst of arrivals at the current instant: (key index, age).
_BURST = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(AGE_FACTORS)),
    min_size=1,
    max_size=8,
)
#: An arrival op first advances the clock, then routes its burst.
_ARRIVE = st.tuples(st.just("arrive"), st.sampled_from(STEP_FACTORS), _BURST)
#: An outside change ends the current lifetime.
_CHANGE = st.one_of(
    st.tuples(
        st.just("dispatch"), _node_ix, st.integers(0, 4), st.sampled_from(BUSY_FACTORS)
    ),
    st.tuples(st.just("finish"), _node_ix),
    st.tuples(st.sampled_from(("fail", "drop", "rejoin")), _node_ix),
)
#: A history: lifetimes of one change followed by 1-5 arrival ops, so
#: keys interleave and busy nodes turn feasible inside one lifetime.
HISTORIES = st.lists(
    st.tuples(_CHANGE, st.lists(_ARRIVE, min_size=1, max_size=5)),
    min_size=4,
    max_size=20,
).map(lambda lives: [op for change, arrivals in lives for op in (change, *arrivals)])

#: Nodes as (spec, max_batch, bitmask of hosted models), plus a seed
#: for the replica order.
FLEETS = st.tuples(
    st.lists(
        st.tuples(
            st.sampled_from(SPECS),
            st.integers(1, 4),
            st.integers(1, 2 ** len(MODELS) - 1),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 2**16),
)


def _replay(driver, oracle, fleet, keys, ops):
    """Run one history, asserting every pick against the oracle;
    returns the picks."""
    specs, seed = fleet
    eng = _engine()
    nodes = [
        ClusterNode(
            i,
            eng,
            "hybrid",
            models={m for j, m in enumerate(MODELS) if hosted >> j & 1},
            max_batch=mb,
            spec=spec,
        )
        for i, (spec, mb, hosted) in enumerate(specs)
    ]
    order = list(range(len(nodes)))
    random.Random(seed).shuffle(order)  # replica order is not node-id order
    members = list(order)
    driver.start()
    clock = 0.0
    rid = 0
    picks = []
    for op in ops:
        kind = op[0]
        if kind == "arrive":
            clock += op[1] * _lat(MODELS[0])
            for ki, age_f in op[2]:
                mi, slo_f = keys[ki % len(keys)]
                model = MODELS[mi]
                replicas = [nodes[i] for i in members if model in nodes[i].models]
                if not replicas:
                    continue
                age = age_f * _lat(MODELS[0]) if driver.aged else 0.0
                slo = None if slo_f is None else slo_f[1] * _lat(model, slo_f[0])
                req = Request(rid, model, max(0.0, clock - age), slo_s=slo)
                rid += 1
                want = oracle.route(req, replicas, clock)
                got = driver.route(req, replicas, clock)
                assert got is want, (req, got.node_id, want.node_id)
                got.enqueue(req)
                picks.append(got)
            continue
        node = nodes[op[1] % len(nodes)]
        if kind == "dispatch":
            if node.in_flight:
                continue
            k = op[2]
            node.in_flight = node.queue[:k] or [Request(-1, MODELS[0], clock)]
            node.queue = node.queue[k:]
            node.busy_until = clock + op[3] * _lat(MODELS[0])
            driver.changed(False)
        elif kind == "finish":
            node.in_flight = []
            driver.changed(False)
        elif kind == "fail":
            node.fail(clock)
            if node.node_id in members:
                members.remove(node.node_id)
            driver.changed(True)
        elif kind == "drop":
            if node.node_id in members:
                members.remove(node.node_id)
            driver.changed(True)
        elif kind == "rejoin":
            if node.node_id not in members:
                members = [i for i in order if i in members or i == node.node_id]
            driver.changed(True)
    return picks


@pytest.mark.parametrize("driver_name", sorted(DRIVERS))
@settings(max_examples=100, deadline=None)
@given(
    fleet=FLEETS,
    keys=KEYS,
    ops=HISTORIES,
    spill=st.sampled_from((None, 0, 1, 2, 3)),
)
def test_router_matches_scan(driver_name, fleet, keys, ops, spill):
    for policy in POLICIES:
        sb = spill if policy == "affinity" else None
        oracle = ScanOracle(policy, sb)
        _replay(_driver(driver_name, policy, sb), oracle, fleet, keys, ops)


def test_long_fixed_history():
    """A fixed 400-op history over five mixed nodes: a deterministic
    regression case next to the random ones."""
    rng = random.Random(7)
    fleet = ([(SPECS[i % 2], 1 + i % 3, 1 + i % 3) for i in range(5)], 1)
    keys = [(m, slo) for m in range(len(MODELS)) for slo in SLOS]
    ops = []
    for _ in range(400):
        u = rng.random()
        if u < 0.65:
            burst = [
                (rng.randrange(len(keys)), rng.choice(AGE_FACTORS))
                for _ in range(rng.randint(1, 6))
            ]
            ops.append(("arrive", rng.choice(STEP_FACTORS), burst))
        elif u < 0.8:
            ops.append(
                ("dispatch", rng.randrange(6), rng.randrange(5), rng.choice(BUSY_FACTORS))
            )
        elif u < 0.9:
            ops.append(("finish", rng.randrange(6)))
        else:
            ops.append((rng.choice(("fail", "drop", "rejoin")), rng.randrange(6)))
    for name in DRIVERS:
        for policy in POLICIES:
            sb = 1 if policy == "affinity" else None
            oracle = ScanOracle(policy, sb)
            picks = _replay(_driver(name, policy, sb), oracle, fleet, keys, ops)
            assert len(picks) > 200


@pytest.mark.parametrize("driver_name", sorted(DRIVERS))
def test_busy_cheap_node_turns_feasible_within_a_lifetime(driver_name):
    """The watch list: a busy StepStone node infeasible at the first
    arrival becomes the pick once the clock has run down its batch,
    without any outside change in between."""
    keys = [(0, (1, 1.0))]  # BERT, SLO = its GPU batch-1 latency
    ops = [
        ("dispatch", 1, 0, 3.0),  # StepStone busy for 3 batch-1 times
        ("arrive", 0.0, [(0, 0.0)]),  # only the GPU is feasible
        ("arrive", 3.0, [(0, 0.0)]),  # the batch is done: StepStone wins
    ]
    for seed in range(2):  # both replica orders
        fleet = ([(GPU_NODE, 4, 3), (STEPSTONE_NODE, 4, 3)], seed)
        driver = _driver(driver_name, "backend-affinity", None)
        picks = _replay(driver, ScanOracle("backend-affinity"), fleet, keys, ops)
        assert [n.spec.name for n in picks] == ["gpu", "stepstone"]


@pytest.mark.parametrize("driver_name", sorted(DRIVERS))
def test_run_down_batch_meets_an_exact_slo(driver_name):
    """A node still in flight whose batch has run down has eta 0, so an
    SLO of exactly its batch-1 latency is feasible (``<=``, not ``<``)."""
    keys = [(0, (0, 1.0))]  # BERT, SLO = its StepStone batch-1 latency
    ops = [
        ("dispatch", 1, 0, 3.0),
        ("arrive", 3.0, [(0, 0.0)]),  # the clock reaches busy_until exactly
    ]
    for seed in range(2):
        fleet = ([(GPU_NODE, 4, 3), (STEPSTONE_NODE, 4, 3)], seed)
        driver = _driver(driver_name, "backend-affinity", None)
        picks = _replay(driver, ScanOracle("backend-affinity"), fleet, keys, ops)
        assert [n.spec.name for n in picks] == ["stepstone"]


# ---------------------------------------------------------------------- #
# Input checks
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("lifetime", [None, 0])
def test_empty_replicas_raise_value_error(policy, lifetime):
    router = _router(policy, None)
    with pytest.raises(ValueError, match="DLRM"):
        router.route(Request(0, "DLRM", 0.0, slo_s=1.0), [], 0.0, lifetime)


@pytest.mark.parametrize("bad", [True, False, 2.5, math.nan, -1, "2", 2.0])
def test_affinity_rejects_bad_spill_backlog(bad):
    with pytest.raises(ValueError, match="spill_backlog"):
        AffinityRouter(spill_backlog=bad)


@pytest.mark.parametrize("good", [None, 0, 3, np.int64(2)])
def test_affinity_accepts_integer_spill_backlog(good):
    assert AffinityRouter(spill_backlog=good).spill_backlog == good
