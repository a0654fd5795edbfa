"""StepStone GEMM timing executor.

Turns a :class:`~repro.core.gemm.GemmPlan` into the Fig. 6 latency breakdown:

====================  ======================================================
Phase                 Model
====================  ======================================================
Localization          DMA (or CPU, for eCHO) writes replicating B into
                      per-(PIM, group) regions at channel bandwidth.
Buffer fill (B)       PIM-local sequential reads of the reorganized B tiles,
                      once per row partition.
Buffer fill (C)       PIM-local sequential reads of the C partial tiles.
GEMM                  Per-access max(cadence, AGEN iterations, SIMD time)
                      over the exact per-(PIM, group) access pattern, plus
                      residual row-miss penalties.
Buffer drain (C)      Mirror of fill (C).
Reduction             DMA (or CPU) reads every slice's C partial and writes
                      the final C.
====================  ======================================================

The GEMM phase is evaluated on the makespan-critical PIM (the one owning the
most blocks); phases are serial, as in the paper's stacked bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.agen import naive_iterations, stepstone_iteration_counts
from repro.core.config import PimUnitConfig, StepStoneConfig
from repro.core.gemm import GemmPlan, GemmShape, plan_gemm
from repro.dram.stream import sequential_stream_cycles
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping

__all__ = ["LatencyBreakdown", "GemmResult", "execute_gemm", "execute_plan"]

_U64 = np.uint64


@dataclass
class LatencyBreakdown:
    """Per-phase DRAM-clock cycles (Fig. 6 components)."""

    gemm: float = 0.0
    fill_b: float = 0.0
    fill_c: float = 0.0
    drain_c: float = 0.0
    localization: float = 0.0
    reduction: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.gemm
            + self.fill_b
            + self.fill_c
            + self.drain_c
            + self.localization
            + self.reduction
        )

    @property
    def overhead(self) -> float:
        """Everything that is not the GEMM arithmetic/stream itself."""
        return self.total - self.gemm

    def as_dict(self) -> Dict[str, float]:
        return {
            "gemm": self.gemm,
            "fill_b": self.fill_b,
            "fill_c": self.fill_c,
            "drain_c": self.drain_c,
            "localization": self.localization,
            "reduction": self.reduction,
            "total": self.total,
        }

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            self.gemm + other.gemm,
            self.fill_b + other.fill_b,
            self.fill_c + other.fill_c,
            self.drain_c + other.drain_c,
            self.localization + other.localization,
            self.reduction + other.reduction,
        )

    def scaled(self, s: float) -> "LatencyBreakdown":
        return LatencyBreakdown(
            self.gemm * s,
            self.fill_b * s,
            self.fill_c * s,
            self.drain_c * s,
            self.localization * s,
            self.reduction * s,
        )


@dataclass
class GemmResult:
    """Execution result: latency breakdown plus energy-relevant volumes."""

    plan: GemmPlan
    breakdown: LatencyBreakdown
    agen: str
    flow: str
    bubble_stall_cycles: float
    kernel_launches: int
    # Energy accounting (whole GEMM, all PIMs):
    pim_dram_blocks: float = 0.0  # blocks moved inside DRAM by PIMs
    offchip_blocks: float = 0.0  # blocks crossing the channel (loc/red)
    simd_mac_ops: float = 0.0
    scratchpad_accesses: float = 0.0

    @property
    def cycles(self) -> float:
        return self.breakdown.total

    def seconds(self, clock_hz: float = 1.2e9) -> float:
        return self.breakdown.total / clock_hz


def _steady_state_row_misses(fa, mapping, rows: np.ndarray, cols: np.ndarray) -> float:
    """Row-buffer misses per group-row walk, in steady state.

    Concatenates the walks of two consecutive rows of the group and counts,
    in the second walk, accesses that revisit a bank with a different row
    open.  Group structure makes every row's walk identical, so the second
    row is representative of all subsequent rows.
    """
    g = mapping.geometry
    bb = _U64(g.block_bytes)
    r_pair = rows[:2] if len(rows) >= 2 else rows[:1]
    addr_rows = _U64(fa.base) + r_pair.astype(_U64) * _U64(fa.row_bytes)
    addrs = (addr_rows[:, None] + cols.astype(_U64)[None, :] * bb).ravel()
    rk = mapping.field_values(addrs, "rank")
    bg = mapping.field_values(addrs, "bankgroup")
    bk = mapping.field_values(addrs, "bank")
    dr = mapping.field_values(addrs, "row")
    flat = (rk * _U64(g.bankgroups_per_rank) + bg) * _U64(g.banks_per_bankgroup) + bk
    n = len(addrs)
    order = np.lexsort((np.arange(n), flat))
    fo, ro = flat[order], dr[order]
    miss = np.ones(n, dtype=bool)
    miss[1:] = (fo[1:] != fo[:-1]) | (ro[1:] != ro[:-1])
    miss_orig = np.empty(n, dtype=bool)
    miss_orig[order] = miss
    if len(r_pair) == 1:
        return float(np.sum(miss_orig))
    return float(np.sum(miss_orig[len(cols):]))


@dataclass(frozen=True)
class _GroupPhase:
    """N-independent GEMM-phase state of one (critical PIM, group) walk.

    Every array covers one group row (O(n_cols)); the per-access vectors
    over the whole group are tiled from them for each N and then dropped.
    """

    cadence: np.ndarray  # per-access issue cadence of one row walk
    n_rows: int
    crossings_per_row: float  # steady-state row-buffer misses per row walk
    naive_iters: Optional[np.ndarray]  # naive AGEN probes of one row walk
    naive_row_advance: float  # naive probes at each group-row boundary


def _group_phase(
    config: StepStoneConfig,
    plan: GemmPlan,
    pim: int,
    group: int,
    agen: str,
    naive_full_gaps: bool,
) -> _GroupPhase:
    t = config.timing
    fa = plan.analysis
    mapping = fa.mapping
    g = mapping.geometry
    cols = fa.cols_of(pim, group)  # non-empty: the layout lists only owned groups
    rows = fa.rows_of_group(group)
    n_cols, n_rows = len(cols), len(rows)
    r0 = int(rows[0])
    bb = _U64(g.block_bytes)
    addrs = _U64(fa.base) + _U64(r0) * _U64(fa.row_bytes) + cols.astype(_U64) * bb

    # Per-access cadence within one row walk: tCCD_L within a bank
    # group, tCCD_S across, rank switch across ranks.
    bgs = mapping.field_values(addrs, "bankgroup")
    rks = mapping.field_values(addrs, "rank")
    cadence = np.full(n_cols, float(t.tCCDS))
    if n_cols > 1:
        same_rank = rks[1:] == rks[:-1]
        same_bg = (bgs[1:] == bgs[:-1]) & same_rank
        c = np.where(same_bg, float(t.tCCDL), float(t.tCCDS))
        c = np.where(same_rank, c, float(t.tBL + t.tRTRS))
        cadence[1:] = c
    if plan.unit.level is PimLevel.BANKGROUP:
        cadence[:] = float(plan.unit.cadence(t))  # confined to one bank group

    naive_iters, row_advance = None, 0.0
    if agen == "naive":
        naive_iters = naive_iterations(addrs, g.block_bytes).astype(np.float64)
        if naive_full_gaps and n_rows > 1:
            # Charge the true block gap between the last block of one
            # group row and the first of the next.
            row_gap_rows = float(np.mean(np.diff(rows)))
            row_advance = max(
                1.0,
                row_gap_rows * fa.blocks_per_row - float(cols[-1]) + float(cols[0]),
            )
        else:
            row_advance = 2.0  # loop-assisted row advance

    # Residual row-buffer misses: a miss happens only when a bank is
    # revisited with a *different* row open, so track per-bank last-seen
    # rows over two consecutive group rows and count the steady-state
    # misses of the second.
    crossings = _steady_state_row_misses(fa, mapping, rows, cols)
    for a in (cadence, naive_iters):
        if a is not None:
            a.flags.writeable = False
    return _GroupPhase(cadence, n_rows, crossings, naive_iters, row_advance)


def _gemm_phase_groups(
    config: StepStoneConfig,
    plan: GemmPlan,
    agen: str,
    naive_full_gaps: bool,
) -> Tuple[_GroupPhase, ...]:
    """The critical PIM's per-group phase state, memoized on the layout."""
    pim = plan.max_blocks_pim
    key = (pim, agen, naive_full_gaps, plan.unit, config.timing)
    groups = plan.layout.phases.get(key)
    if groups is None:
        groups = tuple(
            _group_phase(config, plan, pim, w.group, agen, naive_full_gaps)
            for w in plan.work[pim]
        )
        plan.layout.phases[key] = groups
    return groups


def _gemm_phase_cycles(
    config: StepStoneConfig,
    plan: GemmPlan,
    agen: str,
    naive_full_gaps: bool,
) -> tuple[float, float]:
    """(cycles, bubble_stall) of the GEMM phase on the critical PIM."""
    if agen not in ("stepstone", "naive"):
        raise ValueError(f"unknown agen {agen!r}")
    t = config.timing
    u = plan.unit
    compute = u.compute_cycles_per_block(plan.shape.n)
    lookahead_cover = float(u.pipeline_depth)
    # The deep pipeline lets StepStone pre-activate upcoming rows, hiding
    # all but (penalty - pipeline) cycles of each row miss; the naive
    # generator cannot run ahead and pays the full penalty.
    if agen == "stepstone":
        per_miss = max(0.0, t.row_miss_penalty - lookahead_cover)
    else:
        per_miss = float(t.row_miss_penalty)
    total = 0.0
    stall = 0.0
    for gp in _gemm_phase_groups(config, plan, agen, naive_full_gaps):
        n_cols, n_rows = len(gp.cadence), gp.n_rows
        # AGEN iterations per access over the full group trace.
        if agen == "stepstone":
            iters = stepstone_iteration_counts(n_cols * n_rows).astype(np.float64)
        else:
            iters = np.tile(gp.naive_iters, n_rows)
            iters[n_cols::n_cols] = gp.naive_row_advance

        base = np.maximum(np.tile(gp.cadence, n_rows), compute)
        # The AGEN runs ahead of the access pipeline through a
        # pipeline_depth-deep FIFO, so transient long iteration counts
        # borrow earlier slack; the pipe only starves once the cumulative
        # iteration deficit exceeds the run-ahead credit (§III-A/§V-C:
        # "its latency can always be hidden within the pipeline").
        deficit = np.cumsum(iters - base)
        group_stall = max(0.0, float(deficit.max()) - lookahead_cover)
        total += float(np.sum(base)) + group_stall
        stall += group_stall
        total += gp.crossings_per_row * n_rows * per_miss
    # Refresh steals a fixed fraction of PIM-visible time.
    total *= 1.0 / (1.0 - t.refresh_overhead)
    return total, stall


def execute_plan(
    config: StepStoneConfig,
    plan: GemmPlan,
    agen: str = "stepstone",
    flow: str = "stepstone",
    naive_full_gaps: bool = True,
    launch_delay_cycles: float = 0.0,
) -> GemmResult:
    """Run the timing model over an existing plan.

    ``flow='stepstone'`` uses the PIM-controller DMA engine for
    localization/reduction and one long-running kernel per PIM;
    ``flow='echo'`` (enhanced Chopim) runs the same block-grouped GEMM but
    performs localization/reduction on CPU cores and launches one kernel per
    dot-product row.  ``launch_delay_cycles`` adds per-launch command-channel
    delay (used by the colocation study, Fig. 13).
    """
    if flow not in ("stepstone", "echo"):
        raise ValueError(f"unknown flow {flow!r}")
    t = config.timing
    u = plan.unit
    shape = plan.shape
    dma = config.dma
    cadence = float(u.cadence(t))
    bpr = config.geometry.blocks_per_row

    gemm_cycles, stall = _gemm_phase_cycles(config, plan, agen, naive_full_gaps)

    pim = plan.max_blocks_pim
    fill_b = sequential_stream_cycles(
        plan.fill_b_blocks(pim), t, cadence=cadence, blocks_per_row=bpr
    ) if plan.fill_b_blocks(pim) else 0.0
    fill_c = sequential_stream_cycles(
        plan.fill_c_blocks(pim), t, cadence=cadence, blocks_per_row=bpr
    ) if plan.fill_c_blocks(pim) else 0.0
    drain_c = fill_c

    chan_bw = dma.bytes_per_cycle_per_channel * config.channels
    loc_bytes = plan.localization_write_words * config.word_bytes
    red_bytes = (plan.reduction_read_words + plan.reduction_write_words) * config.word_bytes
    loc_blocks = loc_bytes / 64.0
    red_blocks = red_bytes / 64.0
    if flow == "stepstone":
        localization = loc_bytes / chan_bw + loc_blocks * dma.per_block_overhead_cycles
        reduction = red_bytes / chan_bw + red_blocks * dma.per_block_overhead_cycles
    else:
        localization = (
            loc_bytes / (chan_bw * dma.cpu_efficiency)
            + loc_blocks * dma.cpu_per_block_overhead_cycles
        )
        reduction = (
            red_bytes / (chan_bw * dma.cpu_efficiency)
            + red_blocks * dma.cpu_per_block_overhead_cycles
        )

    launches = plan.kernel_launches(flow)
    # Launch packets serialize on the command channel; under contention each
    # also waits `launch_delay_cycles`.  For the long-running StepStone
    # kernel this is negligible; for eCHO's per-dot kernels it is the
    # dominant §V-G effect.  Launches are spread over active PIMs but the
    # command channel is shared, so the critical path sees the full stream.
    launch_cycles = launches * (dma.kernel_launch_cycles + launch_delay_cycles)
    launch_cycles /= max(1, config.channels)
    gemm_cycles += launch_cycles

    blocks_per_pim = plan.gemm_blocks_per_pim
    total_blocks = float(sum(blocks_per_pim.values()))
    fill_blocks_all = float(
        sum(plan.fill_b_blocks(p) + 2 * plan.fill_c_blocks(p) for p in plan.work)
    )
    simd_macs = float(plan.shape.m) * plan.shape.k * plan.shape.n
    # Scratchpad: one read per operand pair per MAC plus C update traffic.
    scratch = 2.0 * simd_macs / u.simd_width

    return GemmResult(
        plan=plan,
        breakdown=LatencyBreakdown(
            gemm=gemm_cycles,
            fill_b=fill_b,
            fill_c=fill_c,
            drain_c=drain_c,
            localization=localization,
            reduction=reduction,
        ),
        agen=agen,
        flow=flow,
        bubble_stall_cycles=stall,
        kernel_launches=launches,
        pim_dram_blocks=total_blocks + fill_blocks_all,
        offchip_blocks=loc_blocks + red_blocks,
        simd_mac_ops=simd_macs,
        scratchpad_accesses=scratch,
    )


def execute_gemm(
    config: StepStoneConfig,
    mapping: XORAddressMapping,
    shape: GemmShape,
    level: PimLevel,
    agen: str = "stepstone",
    flow: str = "stepstone",
    base: int = 0,
    pinned_id_bits: int = 0,
    unit: Optional[PimUnitConfig] = None,
    naive_full_gaps: bool = True,
    launch_delay_cycles: float = 0.0,
) -> GemmResult:
    """Plan + execute one GEMM (see :func:`repro.core.gemm.plan_gemm`)."""
    plan = plan_gemm(
        config, mapping, shape, level, base=base, pinned_id_bits=pinned_id_bits, unit=unit
    )
    return execute_plan(
        config,
        plan,
        agen=agen,
        flow=flow,
        naive_full_gaps=naive_full_gaps,
        launch_delay_cycles=launch_delay_cycles,
    )
