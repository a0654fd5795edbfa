"""The streaming statistics core under every report layer.

Before this module each report layer (the single-node
:class:`~repro.serving.engine.ServingReport`, the fleet's
``ClusterReport``, the autoscaler's ``AutoscaleReport``, and the mixed
fleet's ``HeteroAutoscaleReport``) accumulated a per-request
``CompletedRequest`` list and sorted it to answer percentile queries —
memory and sort cost grew linearly with traffic, a hard wall before
datacenter-scale runs.  This module is the one accumulation contract all
of them now share: a :class:`MetricsRecorder` fed by the sim kernel's
``FINISH`` path, in one of two modes.

* ``record="full"`` (the default, and the golden-trace contract): every
  per-request record is kept, percentiles are *exact* nearest-rank over
  the sorted latencies, and behavior is bit-for-bit what the
  pre-refactor reports produced.  The right mode for small runs,
  debugging, and regression fixtures.
* ``record="streaming"`` (the scale mode): no per-request list exists
  anywhere.  Latencies stream through a :class:`QuantileSketch` (exact
  nearest-rank up to a fixed reservoir, then P²-style markers), counts
  and means are incremental, and windowed percentiles come from a
  bounded ring of per-window sub-sketches (:class:`WindowRing`) so
  ``window_percentile`` stays O(1) per completion.  Peak memory is flat
  in the number of requests — the mode that makes a 24h-diurnal,
  10M-request run fit in a laptop's RAM.

Accessing a per-request list (``completed``, ``latencies_s``, ...) on a
streaming recorder raises :class:`RecordingModeError` with a pointer at
``record="full"`` — a loud contract, not a silent empty list.

The quantile machinery is deliberately simple and fully deterministic
(no sampling randomness): the P² estimator of Jain & Chlamtac (1985),
one marker set per tracked quantile, seeded from the exact reservoir at
the moment it spills — the same incremental-aggregation move the
analytic cycle-accounting simulators in SNIPPETS.md make instead of
materializing event streams.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Sequence, Tuple

from repro.sim.metrics import nearest_rank, window_latencies

__all__ = [
    "DEFAULT_QUANTILES",
    "RecordingModeError",
    "VersionedList",
    "P2Quantile",
    "QuantileSketch",
    "StreamStats",
    "WindowRing",
    "MetricsRecorder",
    "check_record_mode",
]

#: Quantiles every sketch tracks with a dedicated P² marker set (as
#: fractions).  Queries off this grid interpolate between the nearest
#: tracked quantiles (and the observed min/max at the ends).
DEFAULT_QUANTILES: Tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99)

#: Exact-reservoir size before a sketch spills to P² markers.  Up to
#: this many observations every percentile answer is exact nearest-rank.
DEFAULT_EXACT_LIMIT = 512

#: Closed windows a :class:`WindowRing` retains (oldest evicted beyond
#: this) — bounds streaming-mode memory regardless of run length.
DEFAULT_RING_DEPTH = 4096


def check_record_mode(record: str) -> str:
    """Return ``record`` if it names a recording mode.

    Raises:
        ValueError: Unless ``record`` is ``"full"`` or ``"streaming"``.
    """
    if record not in ("full", "streaming"):
        raise ValueError(
            f"unknown record mode {record!r}; choose 'full' or 'streaming'"
        )
    return record


class RecordingModeError(RuntimeError):
    """Raised when per-request data is asked of a streaming recorder.

    Streaming mode keeps aggregates only; the per-request lists the
    pre-refactor reports exposed simply do not exist.  Re-run with
    ``record="full"`` to get them back.
    """


class VersionedList(list):
    """A list that counts its mutations — the cache-invalidation key.

    ``ServingReport.latencies_s`` used to memoize its sorted copy and
    rebuild only when ``len(completed)`` changed, so a *same-length*
    mutation (replacing an element) served stale percentiles.  Keying
    the memo on :attr:`version` instead invalidates on every mutation,
    whichever method performed it.
    """

    __slots__ = ("version",)

    def __init__(self, iterable=()) -> None:
        super().__init__(iterable)
        self.version = 0

    def _bump(self) -> None:
        self.version += 1

    def append(self, item) -> None:
        """Append ``item`` and invalidate any memoized view."""
        super().append(item)
        self._bump()

    def extend(self, iterable) -> None:
        """Extend and invalidate any memoized view."""
        super().extend(iterable)
        self._bump()

    def insert(self, index, item) -> None:
        """Insert and invalidate any memoized view."""
        super().insert(index, item)
        self._bump()

    def pop(self, index=-1):
        """Pop and invalidate any memoized view."""
        out = super().pop(index)
        self._bump()
        return out

    def remove(self, item) -> None:
        """Remove and invalidate any memoized view."""
        super().remove(item)
        self._bump()

    def clear(self) -> None:
        """Clear and invalidate any memoized view."""
        super().clear()
        self._bump()

    def sort(self, **kwargs) -> None:
        """Sort in place and invalidate any memoized view."""
        super().sort(**kwargs)
        self._bump()

    def __setitem__(self, index, value) -> None:
        super().__setitem__(index, value)
        self._bump()

    def __delitem__(self, index) -> None:
        super().__delitem__(index)
        self._bump()

    def __iadd__(self, other):
        out = super().__iadd__(other)
        self._bump()
        return out


class P2Quantile:
    """One P² marker set: a streaming estimate of a single quantile.

    The Jain & Chlamtac (1985) algorithm: five markers whose heights
    approximate the (0, p/2, p, (1+p)/2, 1) quantiles, nudged toward
    their desired positions with piecewise-parabolic interpolation on
    every observation.  O(1) memory and time per observation.

    Markers are seeded from an already-sorted sample (the exact
    reservoir a :class:`QuantileSketch` spills), which starts them far
    closer to their targets than the textbook first-five-observations
    initialization.
    """

    __slots__ = ("p", "n", "_d", "_q", "_pos")

    def __init__(self, p: float, sorted_seed: Sequence[float]) -> None:
        """Seed the marker set from a sorted sample.

        Args:
            p: Target quantile as a fraction in (0, 1).
            sorted_seed: Ascending observations (at least 5).

        Raises:
            ValueError: If ``p`` is out of range or the seed is short.
        """
        if not 0.0 < p < 1.0:
            raise ValueError("quantile fraction must be in (0, 1)")
        m = len(sorted_seed)
        if m < 5:
            raise ValueError("P2 needs a seed of at least 5 observations")
        self.p = p
        self.n = m
        self._d = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
        idx: List[int] = []
        for i, d in enumerate(self._d):
            j = int(round(d * (m - 1)))
            if idx:
                j = max(j, idx[-1] + 1)  # strictly increasing positions
            idx.append(min(j, m - 5 + i))
        self._q = [float(sorted_seed[j]) for j in idx]
        self._pos = [j + 1 for j in idx]  # 1-based ranks among n seen

    def add(self, x: float) -> None:
        """Fold one observation into the marker set."""
        q, pos = self._q, self._pos
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and q[k + 1] <= x:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1
        self.n += 1
        n1 = self.n - 1
        for i in (1, 2, 3):
            desired = 1.0 + n1 * self._d[i]
            delta = desired - pos[i]
            if (delta >= 1.0 and pos[i + 1] - pos[i] > 1) or (
                delta <= -1.0 and pos[i - 1] - pos[i] < -1
            ):
                s = 1 if delta >= 1.0 else -1
                qn = self._parabolic(i, s)
                if not q[i - 1] < qn < q[i + 1]:
                    qn = self._linear(i, s)
                q[i] = qn
                pos[i] += s

    def add_run(self, x: float, n: int) -> None:
        """Fold ``n`` identical observations in one weighted update.

        The macro-step ingestion primitive: a batched decode boundary
        emits the *same* gap for every active sequence, so the markers
        take the whole run as one weighted observation — rank positions
        above the insertion point jump by ``n``, then a single standard
        adjustment sweep nudges the inner markers.  That makes the cost
        O(1) per *run* instead of O(1) per *sample* (the property that
        lets a macro-stepped path ingest 300k tokens in 40k updates);
        the price is that marker positions chase their desired ranks one
        step per run rather than per sample — the estimator stays
        monotone and bracketed, and converges over the run stream.  Both
        the reference and fast generative paths ingest the identical run
        sequence, so their sketches agree exactly.
        """
        if n == 1:
            self.add(x)
            return
        q, pos = self._q, self._pos
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and q[k + 1] <= x:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += n
        self.n += n
        n1 = self.n - 1
        for i in (1, 2, 3):
            desired = 1.0 + n1 * self._d[i]
            delta = desired - pos[i]
            if (delta >= 1.0 and pos[i + 1] - pos[i] > 1) or (
                delta <= -1.0 and pos[i - 1] - pos[i] < -1
            ):
                s = 1 if delta >= 1.0 else -1
                qn = self._parabolic(i, s)
                if not q[i - 1] < qn < q[i + 1]:
                    qn = self._linear(i, s)
                q[i] = qn
                pos[i] += s

    def _parabolic(self, i: int, s: int) -> float:
        q, pos = self._q, self._pos
        num1 = pos[i] - pos[i - 1] + s
        num2 = pos[i + 1] - pos[i] - s
        den = pos[i + 1] - pos[i - 1]
        term1 = num1 * (q[i + 1] - q[i]) / (pos[i + 1] - pos[i])
        term2 = num2 * (q[i] - q[i - 1]) / (pos[i] - pos[i - 1])
        return q[i] + s * (term1 + term2) / den

    def _linear(self, i: int, s: int) -> float:
        q, pos = self._q, self._pos
        return q[i] + s * (q[i + s] - q[i]) / (pos[i + s] - pos[i])

    @property
    def value(self) -> float:
        """The current estimate of the target quantile."""
        return self._q[2]


class QuantileSketch:
    """Exact nearest-rank up to a reservoir limit, P² markers beyond it.

    The two regimes give both worlds: small runs (and small windows) pay
    nothing for approximation — answers are the exact nearest-rank the
    pre-refactor lists produced — while long streams hold O(1) memory.
    At the spill instant the exact reservoir seeds one
    :class:`P2Quantile` per tracked quantile, so the markers start on
    target instead of on the first five observations.
    """

    __slots__ = (
        "quantiles",
        "exact_limit",
        "count",
        "min",
        "max",
        "_exact",
        "_markers",
        "_rr",
    )

    def __init__(
        self,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
    ) -> None:
        """Create an empty sketch.

        Args:
            quantiles: Tracked quantile fractions, each in (0, 1).
            exact_limit: Reservoir size before spilling to P² (>= 8).

        Raises:
            ValueError: On an out-of-range quantile or a tiny limit.
        """
        qs = tuple(sorted(set(float(q) for q in quantiles)))
        if not qs or any(not 0.0 < q < 1.0 for q in qs):
            raise ValueError("tracked quantiles must be fractions in (0, 1)")
        if exact_limit < 8:
            raise ValueError("exact_limit must be at least 8")
        self.quantiles = qs
        self.exact_limit = exact_limit
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self._exact: Optional[List[float]] = []
        self._markers: Optional[List[P2Quantile]] = None
        #: Round-robin cursor for run-batched marker updates.
        self._rr = 0

    @property
    def is_exact(self) -> bool:
        """True while every answer is still exact nearest-rank."""
        return self._markers is None

    @property
    def exact_values(self) -> Optional[List[float]]:
        """The ascending reservoir while exact, else ``None``."""
        return self._exact

    def add(self, x: float) -> None:
        """Fold one observation into the sketch."""
        x = float(x)
        self.count += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if self._markers is None:
            bisect.insort(self._exact, x)
            if len(self._exact) >= self.exact_limit:
                self._markers = [P2Quantile(q, self._exact) for q in self.quantiles]
                self._exact = None
            return
        for m in self._markers:
            m.add(x)

    def add_run(self, x: float, n: int) -> None:
        """Fold ``n`` identical observations in one O(1) bulk update.

        In the exact regime the run is spliced into the reservoir at its
        insertion point in one slice assignment (a run may overshoot
        ``exact_limit`` before spilling — deterministic, and identical
        for every caller feeding the same run sequence).  Past the spill
        the run feeds *one* tracked marker, round-robin: each marker
        then estimates its quantile from an interleaved subsample of the
        run stream, which keeps ingestion O(1) per run regardless of run
        width or marker count — the property that lets a macro-stepped
        decode path ingest hundreds of thousands of token gaps in tens
        of thousands of updates.  Min/max (the interpolation anchors)
        still see every run.
        """
        if n == 1:
            self.add(x)
            return
        if n <= 0:
            raise ValueError("run length must be positive")
        x = float(x)
        self.count += n
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if self._markers is None:
            exact = self._exact
            lo = bisect.bisect_right(exact, x)
            exact[lo:lo] = [x] * n
            if len(exact) >= self.exact_limit:
                self._markers = [P2Quantile(q, exact) for q in self.quantiles]
                self._exact = None
            return
        markers = self._markers
        i = self._rr
        markers[i].add_run(x, n)
        self._rr = i + 1 if i + 1 < len(markers) else 0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in (0, 100]).

        Exact nearest-rank while the reservoir holds; after the spill,
        tracked quantiles answer from their P² marker and off-grid
        queries interpolate linearly between the bracketing tracked
        quantiles (with the observed min/max anchoring the ends).

        Args:
            q: Percentile in (0, 100].

        Returns:
            The estimate, or NaN for an empty sketch.

        Raises:
            ValueError: If ``q`` is outside (0, 100].
        """
        if not 0 < q <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self.count == 0:
            return math.nan
        if self._markers is not None:
            return self._interp(q / 100.0)
        return nearest_rank(self._exact, q)

    def _interp(self, p: float) -> float:
        pts: List[Tuple[float, float]] = [(0.0, self.min)]
        pts.extend(
            (frac, marker.value)
            for frac, marker in zip(self.quantiles, self._markers)
        )
        pts.append((1.0, self.max))
        for (p0, v0), (p1, v1) in zip(pts, pts[1:]):
            if p <= p1:
                if p1 <= p0:
                    return v1
                w = (p - p0) / (p1 - p0)
                return v0 + w * (v1 - v0)
        return self.max


class StreamStats:
    """Incremental count/sum/mean/min/max plus a quantile sketch.

    The one-pass replacement for "keep a latency list and sort it":
    every moment it can answer the same questions a sorted list could,
    at O(1) memory once past the sketch's exact reservoir.
    """

    __slots__ = ("count", "total", "_sketch")

    def __init__(
        self,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
    ) -> None:
        """Create empty running statistics.

        Args:
            quantiles: Tracked quantile fractions for the sketch.
            exact_limit: The sketch's exact-reservoir size.
        """
        self.count = 0
        self.total = 0.0
        self._sketch = QuantileSketch(quantiles, exact_limit)

    def add(self, x: float) -> None:
        """Fold one observation in."""
        self.count += 1
        self.total += x
        self._sketch.add(x)

    def add_run(self, x: float, n: int) -> None:
        """Fold ``n`` identical observations in one batched update.

        One multiply for the sum, one bulk sketch insert — the per-run
        cost the macro-stepped decode path pays per boundary instead of
        per token.  ``n == 1`` delegates to :meth:`add`, so mixed-run
        callers keep single-sample semantics unchanged.
        """
        if n == 1:
            self.add(x)
            return
        self.count += n
        self.total += x * n
        self._sketch.add_run(x, n)

    @property
    def mean(self) -> float:
        """Arithmetic mean (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    @property
    def min(self) -> float:
        """Smallest observation (inf when empty)."""
        return self._sketch.min

    @property
    def max(self) -> float:
        """Largest observation (-inf when empty)."""
        return self._sketch.max

    @property
    def is_exact(self) -> bool:
        """True while percentile answers are exact nearest-rank."""
        return self._sketch.is_exact

    @property
    def exact_values(self) -> Optional[List[float]]:
        """The sketch's ascending reservoir while exact, else ``None``."""
        return self._sketch.exact_values

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile estimate (``q`` in (0, 100])."""
        return self._sketch.quantile(q)


class _Window:
    """One closed (or still-open) window of a :class:`WindowRing`."""

    __slots__ = ("start_s", "end_s", "stats")

    def __init__(self, start_s: float, quantiles, exact_limit) -> None:
        self.start_s = start_s
        self.end_s = math.inf  # open until rolled
        self.stats = StreamStats(quantiles, exact_limit)


class WindowRing:
    """A bounded ring of windowed sub-sketches for O(1) window queries.

    Completions land in the open window; :meth:`roll` closes it (the
    elastic fleets roll at every control tick, so a window *is* a
    control interval) and a fixed ``window_s`` width auto-rolls for
    loops without a controller.  Only the newest ``depth`` closed
    windows are retained, so memory is bounded however long the run.

    Queries merge the sub-sketches of every window intersecting the
    asked range: exact when all of them still hold their reservoirs
    (the common case — a control window sees far fewer completions than
    the reservoir size), and a count-weighted interpolation of the
    per-window quantile curves once any window has spilled.  Windows
    are never split: a query is effectively snapped to the window
    boundaries it overlaps.
    """

    __slots__ = ("window_s", "depth", "quantiles", "exact_limit", "_closed", "_open")

    #: Per-quantile-curve sample grid used when merging spilled windows.
    _MERGE_GRID = tuple((i + 0.5) / 32.0 for i in range(32))

    def __init__(
        self,
        window_s: Optional[float] = None,
        depth: int = DEFAULT_RING_DEPTH,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_limit: int = 128,
    ) -> None:
        """Create an empty ring.

        Args:
            window_s: Auto-roll width; ``None`` rolls only explicitly.
            depth: Closed windows retained (oldest evicted beyond this).
            quantiles: Tracked quantile fractions per sub-sketch.
            exact_limit: Per-window exact-reservoir size.

        Raises:
            ValueError: On a non-positive width or depth.
        """
        if window_s is not None and window_s <= 0:
            raise ValueError("window_s must be positive when given")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.window_s = window_s
        self.depth = depth
        self.quantiles = tuple(quantiles)
        self.exact_limit = exact_limit
        self._closed: List[_Window] = []
        self._open = _Window(0.0, self.quantiles, self.exact_limit)

    def add(self, x: float, t: float) -> None:
        """Record observation ``x`` stamped at time ``t`` (non-decreasing)."""
        if self.window_s is not None:
            edge = self._open.start_s + self.window_s
            if t >= edge:
                # Snap the boundary to the width grid so sparse streams
                # don't accumulate one giant window.
                periods = math.floor((t - self._open.start_s) / self.window_s)
                self.roll(self._open.start_s + periods * self.window_s)
        self._open.stats.add(x)

    def roll(self, t: float) -> None:
        """Close the open window at ``t`` and start a new one there."""
        w = self._open
        if w.stats.count:
            w.end_s = t
            self._closed.append(w)
            if len(self._closed) > self.depth:
                del self._closed[0 : len(self._closed) - self.depth]
        self._open = _Window(t, self.quantiles, self.exact_limit)

    def _overlapping(self, start_s: float, end_s: float) -> List[_Window]:
        out = [
            w
            for w in self._closed
            if w.start_s < end_s and w.end_s > start_s
        ]
        w = self._open
        if w.stats.count and w.start_s < end_s:
            out.append(w)
        return out

    def window_percentile(self, q: float, start_s: float, end_s: float) -> float:
        """Percentile over completions in windows touching ``[start_s, end_s)``.

        Args:
            q: Percentile in (0, 100].
            start_s: Query start (inclusive).
            end_s: Query end (exclusive).

        Returns:
            Exact nearest-rank when every overlapped window is still in
            its exact regime; a count-weighted estimate otherwise; NaN
            when no retained window overlaps.
        """
        windows = self._overlapping(start_s, end_s)
        if not windows:
            return math.nan
        if all(w.stats.is_exact for w in windows):
            merged: List[float] = []
            for w in windows:
                merged.extend(w.stats.exact_values)
            merged.sort()
            return nearest_rank(merged, q)
        # Weighted merge: sample each window's quantile curve and take
        # the weighted nearest rank across samples.
        samples: List[Tuple[float, float]] = []  # (value, weight)
        for w in windows:
            st = w.stats
            if st.is_exact:
                wgt = 1.0
                samples.extend((v, wgt) for v in st.exact_values)
            else:
                wgt = st.count / len(self._MERGE_GRID)
                samples.extend(
                    (st.percentile(p * 100.0), wgt) for p in self._MERGE_GRID
                )
        samples.sort(key=lambda vw: vw[0])
        total = sum(wgt for _, wgt in samples)
        target = q / 100.0 * total
        cum = 0.0
        for v, wgt in samples:
            cum += wgt
            if cum >= target:
                return v
        return samples[-1][0]

    def window_count(self, start_s: float, end_s: float) -> int:
        """Completions recorded in windows touching ``[start_s, end_s)``."""
        return sum(w.stats.count for w in self._overlapping(start_s, end_s))


class MetricsRecorder:
    """The one metrics-accumulation contract every report layer shares.

    The sim kernel's ``FINISH`` path (and the admission/failure paths)
    call :meth:`record_completion` / :meth:`record_rejection` /
    :meth:`record_failure`; reports answer every query from here.

    * ``record="full"`` keeps per-request records in
      :class:`VersionedList`\\ s and computes exact statistics from them
      on demand — the pre-refactor behavior, bit for bit.
    * ``record="streaming"`` keeps only aggregates: counters, running
      sums, a latency :class:`QuantileSketch`, and a :class:`WindowRing`
      of per-window sub-sketches.  The per-request list properties
      raise :class:`RecordingModeError`.

    A recorder may chain to a ``parent``: fleets give each node a
    recorder whose parent is the pool/fleet recorder, so one completion
    recorded at the node updates every aggregation level — that is the
    "one shared metrics core fed by the FINISH path".

    A parentless full-mode recorder defers per-request materialization:
    :meth:`record_batch` stores one ``(dispatch_s, finish_s, requests)``
    triple per batch, and the ``CompletedRequest`` records are built the
    first time a query reads them — identical, field for field, to what
    eager recording stores.
    """

    __slots__ = (
        "record",
        "parent",
        "_completed",
        "_rejected",
        "_failed",
        "_lat_memo",
        "n_completed",
        "n_rejected",
        "n_failed",
        "latency",
        "_queue_sum",
        "_service_sum",
        "_batch_sum",
        "ring",
        "_batches",
        "_cum",
    )

    def __init__(
        self,
        record: str = "full",
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        ring_depth: int = DEFAULT_RING_DEPTH,
        parent: Optional["MetricsRecorder"] = None,
    ) -> None:
        """Create an empty recorder.

        Args:
            record: ``"full"`` (exact per-request lists) or
                ``"streaming"`` (flat-memory aggregates).
            quantiles: Tracked quantile fractions for the sketches.
            exact_limit: Exact-reservoir size of the overall sketch.
            ring_depth: Closed windows the ring retains.
            parent: Optional upstream recorder every record also feeds.

        Raises:
            ValueError: On an unknown ``record`` mode.
        """
        self.record = check_record_mode(record)
        self.parent = parent
        self.n_completed = 0
        self.n_rejected = 0
        self.n_failed = 0
        self._lat_memo: Tuple[int, List[float]] = (-1, [])
        #: Pending full-mode batches, and each one's cumulative
        #: completion count (built records included), so tail reads
        #: bisect straight to the first unseen batch.
        self._batches: List[tuple] = []
        self._cum: List[int] = []
        if record == "full":
            self._completed: Optional[VersionedList] = VersionedList()
            self._rejected: Optional[VersionedList] = VersionedList()
            self._failed: Optional[VersionedList] = VersionedList()
            self.latency = None
            self.ring = None
        else:
            self._completed = self._rejected = self._failed = None
            self.latency = StreamStats(quantiles, exact_limit)
            self.ring = WindowRing(
                depth=ring_depth,
                quantiles=quantiles,
            )
        self._queue_sum = 0.0
        self._service_sum = 0.0
        self._batch_sum = 0.0

    # ------------------------------------------------------------------ #
    # The recording contract (the FINISH/admission/failure paths)
    # ------------------------------------------------------------------ #

    def record_completion(self, c) -> None:
        """Record one completed request.

        Args:
            c: An object with ``latency_s``, ``queue_s``, ``service_s``,
                ``batch`` and ``finish_s`` attributes (a
                ``CompletedRequest``).  Full mode keeps the object;
                streaming mode reads the scalars and drops it.
        """
        self.n_completed += 1
        if self._completed is not None:
            self._built().append(c)
        else:
            self.latency.add(c.latency_s)
            self._queue_sum += c.queue_s
            self._service_sum += c.service_s
            self._batch_sum += c.batch
            self.ring.add(c.latency_s, c.finish_s)
        if self.parent is not None:
            self.parent.record_completion(c)

    def record_batch(self, dispatch_s: float, finish_s: float, requests) -> None:
        """Record one batch dispatched at ``dispatch_s`` and finished at
        ``finish_s``: a ``CompletedRequest`` per request, in batch order.

        A parentless full-mode recorder keeps the batch (``requests``
        ownership transfers) and builds the records on first read;
        otherwise each goes through :meth:`record_completion`.
        """
        b = len(requests)
        if self._completed is not None and self.parent is None:
            cum = self._cum
            cum.append((cum[-1] if cum else len(self._completed)) + b)
            self._batches.append((dispatch_s, finish_s, requests))
            self.n_completed += b
            return
        from repro.serving.engine import CompletedRequest

        for r in requests:
            self.record_completion(
                CompletedRequest(
                    request=r, dispatch_s=dispatch_s, finish_s=finish_s, batch=b
                )
            )

    def record_rejection(self, r) -> None:
        """Record one admission-rejected request (kept only in full mode)."""
        self.n_rejected += 1
        if self._rejected is not None:
            self._rejected.append(r)
        if self.parent is not None:
            self.parent.record_rejection(r)

    def record_failure(self, f) -> None:
        """Record one failure-lost request (kept only in full mode)."""
        self.n_failed += 1
        if self._failed is not None:
            self._failed.append(f)
        if self.parent is not None:
            self.parent.record_failure(f)

    def roll_window(self, t: float) -> None:
        """Close the streaming window ring's open window at ``t``.

        A no-op in full mode (full-mode window queries are computed
        exactly from the per-request records instead).
        """
        if self.ring is not None:
            self.ring.roll(t)

    # ------------------------------------------------------------------ #
    # Per-request access (full mode only)
    # ------------------------------------------------------------------ #

    def _require_full(self, what: str):
        if self.record != "full":
            raise RecordingModeError(
                f"{what} is unavailable in streaming mode — per-request "
                "records were not kept; re-run with record='full'"
            )

    def _built(self) -> VersionedList:
        """The completion list with every pending batch materialized
        (one ``extend``, so one version bump per flush)."""
        done = self._completed
        if self._batches:
            from repro.serving.engine import CompletedRequest

            done.extend(
                [
                    CompletedRequest(r, d, f, len(rs))
                    for d, f, rs in self._batches
                    for r in rs
                ]
            )
            self._batches.clear()
            self._cum.clear()
        return done

    @property
    def completed(self) -> VersionedList:
        """Per-request completion records (full mode only).

        Raises:
            RecordingModeError: In streaming mode.
        """
        self._require_full("the completed-request list")
        return self._built()

    @property
    def rejected(self) -> VersionedList:
        """Per-request rejection records (full mode only).

        Raises:
            RecordingModeError: In streaming mode.
        """
        self._require_full("the rejected-request list")
        return self._rejected

    @property
    def failed(self) -> VersionedList:
        """Per-request failure records (full mode only).

        Raises:
            RecordingModeError: In streaming mode.
        """
        self._require_full("the failed-request list")
        return self._failed

    @property
    def latencies_s(self) -> List[float]:
        """Ascending completed latencies, memoized per list version.

        Raises:
            RecordingModeError: In streaming mode — use
                :meth:`percentile` instead.
        """
        self._require_full("the sorted latency list")
        done = self._built()
        version, memo = self._lat_memo
        if version != done.version:
            memo = sorted(c.latency_s for c in done)
            self._lat_memo = (done.version, memo)
        return memo

    def new_latencies(self, seen: int) -> List[float]:
        """Latencies of completions recorded after the first ``seen``.

        The elastic control loops slice each node's completion list once
        per tick to build the window-p99 signal; the slice reads pending
        batches in place, without materializing their records (full
        mode only).

        Raises:
            RecordingModeError: In streaming mode.
        """
        self._require_full("the completion-latency slice")
        done = self._completed
        out = [c.latency_s for c in done[seen:]]
        cum = self._cum
        seen = max(seen, len(done))
        if not cum or seen >= cum[-1]:
            return out
        i = bisect.bisect_right(cum, seen)
        batches = self._batches
        skip = seen - (cum[i] - len(batches[i][2]))
        for _, finish_s, reqs in batches[i:]:
            out.extend([finish_s - r.arrival_s for r in reqs[skip:]])
            skip = 0
        return out

    # ------------------------------------------------------------------ #
    # Aggregate queries (both modes)
    # ------------------------------------------------------------------ #

    @property
    def completed_count(self) -> int:
        """Completions recorded so far (works in both modes; O(1))."""
        if self._cum:
            return self._cum[-1]
        if self._completed is not None:
            return len(self._completed)
        return self.n_completed

    @property
    def rejected_count(self) -> int:
        """Rejections recorded so far (works in both modes)."""
        if self._rejected is not None:
            return len(self._rejected)
        return self.n_rejected

    @property
    def failed_count(self) -> int:
        """Failure losses recorded so far (works in both modes)."""
        if self._failed is not None:
            return len(self._failed)
        return self.n_failed

    def percentile(self, q: float) -> float:
        """Latency percentile: exact in full mode, sketched in streaming.

        Args:
            q: Percentile in (0, 100].

        Returns:
            Latency seconds (NaN when nothing completed).
        """
        if self.record == "full":
            return nearest_rank(self.latencies_s, q)
        return self.latency.percentile(q)

    def window_percentile(self, q: float, start_s: float, end_s: float) -> float:
        """Latency percentile over completions finishing in a window.

        Full mode scans the per-request records exactly; streaming mode
        answers from the window ring (snapped to the rolled window
        boundaries the range overlaps).

        Args:
            q: Percentile in (0, 100].
            start_s: Window start (inclusive).
            end_s: Window end (exclusive).

        Returns:
            Latency seconds (NaN when the window saw no completion).
        """
        if self.record == "full":
            return nearest_rank(
                window_latencies(self._built(), start_s, end_s), q
            )
        return self.ring.window_percentile(q, start_s, end_s)

    def _full_mean(self, attr: str) -> float:
        done = self._built()
        return sum(getattr(c, attr) for c in done) / len(done) if done else math.nan

    @property
    def mean_latency_s(self) -> float:
        """Mean completed latency (NaN when nothing completed)."""
        if self.record == "full":
            return self._full_mean("latency_s")
        return self.latency.mean

    @property
    def mean_queue_s(self) -> float:
        """Mean queueing delay (NaN when nothing completed)."""
        if self.record == "full":
            return self._full_mean("queue_s")
        if self.n_completed == 0:
            return math.nan
        return self._queue_sum / self.n_completed

    @property
    def mean_service_s(self) -> float:
        """Mean service time (NaN when nothing completed)."""
        if self.record == "full":
            return self._full_mean("service_s")
        if self.n_completed == 0:
            return math.nan
        return self._service_sum / self.n_completed

    @property
    def mean_batch(self) -> float:
        """Mean dispatched batch size (NaN when nothing completed)."""
        if self.record == "full":
            return self._full_mean("batch")
        if self.n_completed == 0:
            return math.nan
        return self._batch_sum / self.n_completed
