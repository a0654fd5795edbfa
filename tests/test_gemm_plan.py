"""Tests for GEMM shapes, padding, and the Algorithm-1 planner."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import StepStoneConfig
from repro.core.executor import execute_gemm
from repro.core.gemm import GemmShape, clear_footprint_layouts, plan_gemm
from repro.mapping import analysis as analysis_mod
from repro.mapping.presets import make_skylake, mapping_by_id
from repro.mapping.xor_mapping import PimLevel
from repro.serving.scheduler import BatchServer


@pytest.fixture(scope="module")
def cfg():
    return StepStoneConfig.default()


@pytest.fixture(scope="module")
def sky():
    return make_skylake()


class TestShape:
    def test_flops(self):
        assert GemmShape(2, 3, 4).flops == 48.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            GemmShape(0, 3, 4)

    def test_padding_rounds_up(self):
        p = GemmShape(100, 1000, 5).padded()
        assert (p.m, p.k, p.n) == (128, 1024, 5)

    def test_padding_min_k_one_block(self):
        p = GemmShape(128, 1, 1).padded()
        assert p.k == 16  # one 64 B cache block of fp32

    def test_pow2_unchanged(self):
        p = GemmShape(1024, 4096, 4).padded()
        assert (p.m, p.k) == (1024, 4096)


class TestPlanner:
    @pytest.mark.parametrize("level", list(PimLevel))
    def test_plan_basic_invariants(self, cfg, sky, level):
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), level)
        assert plan.n_active_pims == cfg.addressable_units(level)
        assert plan.n_rparts == math.ceil(plan.shape.m / plan.rpart_rows)
        # Work items cover the whole matrix.
        total = sum(
            w.n_cols * w.n_rows for items in plan.work.values() for w in items
        )
        assert total == plan.analysis.total_blocks

    @pytest.mark.parametrize("level", list(PimLevel))
    @pytest.mark.parametrize("n", [1, 4, 16, 32])
    def test_tiles_fit_scratchpad(self, cfg, sky, level, n):
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, n), level)
        u = plan.unit
        if plan.direct_scratchpad:
            return
        c_bytes = plan.rpart_rows * n * 4
        b_bytes = plan.cpart_blocks * u.words_per_block_per_slice * n * 4
        assert c_bytes + b_bytes <= u.scratchpad_bytes

    def test_localization_volume_formula(self, cfg, sky):
        """Total replicated B is n_groups * K * N words (Fig. 5 flow)."""
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        expected = plan.analysis.n_groups * plan.shape.k * plan.shape.n
        assert plan.localization_write_words == expected

    def test_reduction_scales_with_addressable_units(self, cfg, sky):
        bg = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        dv = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.DEVICE)
        ch = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.CHANNEL)
        assert bg.n_partials == 16
        assert dv.n_partials == 4
        assert ch.n_partials == 2
        assert bg.reduction_read_words > dv.reduction_read_words > ch.reduction_read_words

    def test_kernel_launches_echo_exceeds_stepstone(self, cfg, sky):
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        assert plan.kernel_launches("echo") > 20 * plan.kernel_launches("stepstone")

    def test_kernel_launches_unknown_flow(self, cfg, sky):
        plan = plan_gemm(cfg, sky, GemmShape(256, 1024, 4), PimLevel.DEVICE)
        with pytest.raises(ValueError):
            plan.kernel_launches("bogus")

    def test_oversized_batch_rejected(self, cfg, sky):
        with pytest.raises(ValueError, match="scratchpad"):
            plan_gemm(cfg, sky, GemmShape(1024, 4096, 4096), PimLevel.BANKGROUP)

    def test_direct_scratchpad_small_matrix(self, cfg, sky):
        """§III-E: small B and C live in the scratchpad, skipping staging."""
        plan = plan_gemm(cfg, sky, GemmShape(128, 256, 1), PimLevel.CHANNEL)
        assert plan.direct_scratchpad
        assert plan.fill_b_blocks(plan.max_blocks_pim) == 0.0
        assert plan.fill_c_blocks(plan.max_blocks_pim) == 0.0

    def test_pinning_halves_pims_and_groups(self, cfg, sky):
        full = plan_gemm(cfg, sky, GemmShape(1024, 4096, 16), PimLevel.BANKGROUP)
        half = plan_gemm(
            cfg, sky, GemmShape(1024, 4096, 16), PimLevel.BANKGROUP, pinned_id_bits=1
        )
        assert half.n_active_pims * 2 == full.n_active_pims
        assert half.localization_write_words < full.localization_write_words
        assert half.reduction_read_words * 2 == full.reduction_read_words

    def test_relaxed_unit_reduces_rparts(self, cfg, sky):
        base_unit = cfg.unit(PimLevel.BANKGROUP)
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, 32), PimLevel.BANKGROUP)
        relaxed = plan_gemm(
            cfg,
            sky,
            GemmShape(1024, 4096, 32),
            PimLevel.BANKGROUP,
            unit=base_unit.relaxed(),
        )
        assert relaxed.n_rparts < plan.n_rparts

    def test_gemm_blocks_balanced(self, cfg, sky):
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        blocks = list(plan.gemm_blocks_per_pim.values())
        assert max(blocks) == min(blocks)


def _price(cfg, mapping, shape, level, **kw):
    """execute_gemm's result, or the ValueError it raised."""
    try:
        return execute_gemm(cfg, mapping, shape, level, **kw)
    except ValueError as e:
        return e


#: Padded and unpadded matrix sides, small to two footprints per bank row.
_DIMS = st.sampled_from([1, 7, 64, 100, 256, 1000, 1024, 2048])


class TestLayoutMemo:
    """The N-independent footprint layout is built once and shared."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=_DIMS,
        k=_DIMS,
        level=st.sampled_from(list(PimLevel)),
        pinned=st.integers(0, 1),
        n=st.integers(1, 4096),
        agen=st.sampled_from(["stepstone", "naive"]),
        flow=st.sampled_from(["stepstone", "echo"]),
        unit_level=st.sampled_from([None, *PimLevel]),
        relaxed=st.booleans(),
        base_slot=st.integers(0, 3),
        full_gaps=st.booleans(),
    )
    def test_memoized_matches_from_scratch(
        self, cfg, sky, m, k, level, pinned, n, agen, flow, unit_level, relaxed,
        base_slot, full_gaps,
    ):
        shape = GemmShape(m, k, n)
        padded = shape.padded()
        footprint = padded.m * padded.k * 4
        unit = cfg.unit(unit_level or level)
        kw = dict(
            agen=agen,
            flow=flow,
            pinned_id_bits=pinned,
            unit=unit.relaxed() if relaxed else (unit if unit_level else None),
            base=base_slot * footprint,
            naive_full_gaps=full_gaps,
        )
        other_level = PimLevel.DEVICE if unit.level is PimLevel.BANKGROUP else PimLevel.BANKGROUP
        # Fill the memo first with siblings that each differ from this call
        # in one memo-key field, so a key that drops a field serves a wrong
        # entry; then warm this very footprint at another width.
        _price(cfg, mapping_by_id(0), shape, level, **kw)
        siblings = [
            dict(kw, pinned_id_bits=1 - pinned),
            dict(kw, base=(base_slot + 1) * footprint),
            dict(kw, agen="naive" if agen == "stepstone" else "stepstone"),
            dict(kw, naive_full_gaps=not full_gaps),
            dict(kw, unit=cfg.unit(other_level)),
        ]
        for sib in siblings:
            _price(cfg, sky, shape, level, **sib)
        _price(cfg, sky, GemmShape(m, k, 1 if n > 1 else 2), level, **kw)
        memo = _price(cfg, sky, shape, level, **kw)
        clear_footprint_layouts()
        ref = _price(cfg, make_skylake(), shape, level, **kw)
        if isinstance(ref, ValueError):
            assert isinstance(memo, ValueError) and str(memo) == str(ref)
            return
        assert not isinstance(memo, ValueError), memo
        assert memo.plan.analysis.base == ref.plan.analysis.base
        assert dict(memo.plan.work) == dict(ref.plan.work)
        assert memo.breakdown.as_dict() == ref.breakdown.as_dict()
        assert memo.kernel_launches == ref.kernel_launches
        assert memo.bubble_stall_cycles == ref.bubble_stall_cycles
        assert (memo.pim_dram_blocks, memo.offchip_blocks) == (
            ref.pim_dram_blocks,
            ref.offchip_blocks,
        )
        assert (memo.simd_mac_ops, memo.scratchpad_accesses) == (
            ref.simd_mac_ops,
            ref.scratchpad_accesses,
        )

    def test_layout_shared_across_widths_and_mappings(self, cfg, sky):
        a = plan_gemm(cfg, sky, GemmShape(512, 1024, 1), PimLevel.DEVICE)
        b = plan_gemm(cfg, make_skylake(), GemmShape(512, 1024, 17), PimLevel.DEVICE)
        assert a.layout is b.layout
        assert a.shape.n != b.shape.n

    def test_plan_and_result_pickle(self, cfg, sky):
        # Sweep workers return results across processes, so a plan (with its
        # layout and the executor's phase state) must survive pickling.
        res = execute_gemm(cfg, sky, GemmShape(512, 1024, 8), PimLevel.DEVICE)
        back = pickle.loads(pickle.dumps(res))
        assert back.plan.layout.work == res.plan.layout.work
        assert back.plan.layout.blocks_per_pim == res.plan.layout.blocks_per_pim
        assert back.breakdown.as_dict() == res.breakdown.as_dict()

    def test_invalid_inputs_raise_every_call(self, cfg, sky):
        shape = GemmShape(1024, 4096, 4)
        for _ in range(2):
            with pytest.raises(ValueError, match="aligned"):
                plan_gemm(cfg, sky, shape, PimLevel.BANKGROUP, base=64)
            with pytest.raises(ValueError, match="pinned_id_bits"):
                plan_gemm(cfg, sky, shape, PimLevel.CHANNEL, pinned_id_bits=1)
        plan_gemm(cfg, sky, shape, PimLevel.BANKGROUP)  # warm the layout
        for _ in range(2):
            with pytest.raises(ValueError, match="scratchpad"):
                plan_gemm(cfg, sky, GemmShape(1024, 4096, 4096), PimLevel.BANKGROUP)

    def test_one_analysis_per_level_and_pinning(self, monkeypatch):
        """Pricing one tile at widths 1-32 analyses each footprint once."""
        built = []
        init = analysis_mod.FootprintAnalysis.__init__

        def counting_init(self, mapping, level, *args, pinned_id_bits=0, **kw):
            built.append((level, pinned_id_bits))
            init(self, mapping, level, *args, pinned_id_bits=pinned_id_bits, **kw)

        monkeypatch.setattr(analysis_mod.FootprintAnalysis, "__init__", counting_init)
        clear_footprint_layouts()
        server = BatchServer()
        for n in range(1, 33):
            server.pim_latency(1600, 6400, n)
        assert built, "no footprint was analysed"
        assert len(built) == len(set(built))
