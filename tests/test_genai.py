"""Generative serving invariants: phases, KV budget, scheduler semantics.

The load-bearing guarantees of ``repro.genai``:

* continuous == static **request-for-request** when every output length
  is equal and batches close together (or ``max_batch=1``) — the anchor
  proving the two schedulers differ only in slot handover;
* the KV budget is never exceeded at any event time, even driven to
  saturation (queueing and preemption absorb the pressure, never
  overflow);
* seeded determinism: identical inputs, identical reports;
* ``record="streaming"`` matches ``record="full"`` on counts and TTFT
  exactly (percentiles sketched past the reservoir).
"""

import math
import random

import pytest

from repro.genai import (
    GPT2_XL,
    ContinuousBatcher,
    GenerativeEngine,
    GenModelConfig,
    GenRequest,
    KVCacheBudget,
    StaticBatcher,
    gen_requests,
    trace_gen_requests,
)
from repro.autoscale.traces import DiurnalTrace
from repro.serving.engine import OnlineServingEngine
from repro.serving.nodespec import GPU_NODE, STEPSTONE_NODE, NodeSpec
from repro.sim.stats import RecordingModeError


@pytest.fixture(scope="module")
def shared_engine():
    """One OnlineServingEngine so every test shares the latency memo."""
    return OnlineServingEngine()


def make_engine(shared_engine, **kw):
    kw.setdefault("engine", shared_engine)
    kw.setdefault("max_batch", 8)
    return GenerativeEngine(**kw)


def completion_keys(report):
    """Request-for-request identity tuples, sorted by request id."""
    return sorted(
        (c.request.req_id, c.ttft_s, c.finish_s, c.tokens_out, c.preemptions)
        for c in report.completions
    )


class TestWorkload:
    def test_gen_requests_seeded_deterministic(self):
        a = gen_requests(2.0, 30.0, seed=9)
        b = gen_requests(2.0, 30.0, seed=9)
        assert a == b
        c = gen_requests(2.0, 30.0, seed=10)
        assert a != c

    def test_lengths_respect_ranges(self):
        reqs = gen_requests(5.0, 20.0, prompt_range=(4, 6), output_range=(2, 3), seed=1)
        assert reqs
        assert all(4 <= r.prompt_tokens <= 6 for r in reqs)
        assert all(2 <= r.max_new_tokens <= 3 for r in reqs)

    def test_trace_arrivals_match_autoscale_thinning(self):
        trace = DiurnalTrace(trough_rps=1.0, peak_rps=3.0, period_s=60.0)
        a = trace_gen_requests(trace, 60.0, seed=4)
        b = trace_gen_requests(trace, 60.0, seed=4)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        assert all(r.arrival_s < 60.0 for r in a)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            GenRequest(0, -1.0, 4, 4)
        with pytest.raises(ValueError):
            GenRequest(0, 0.0, 0, 4)
        with pytest.raises(ValueError):
            GenRequest(0, 0.0, 4, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rejected(self, bad):
        with pytest.raises(ValueError, match="arrival time must be finite"):
            GenRequest(0, bad, 4, 4)


class TestModelConfig:
    def test_kv_bytes_per_token_formula(self):
        assert GPT2_XL.kv_bytes_per_token == 2 * 48 * 1600 * 4

    def test_step_spec_prices_at_activation_n(self, shared_engine):
        """batch_latency(step, policy, n) runs the decoder GEMMs at N=n."""
        eng = make_engine(shared_engine)
        assert eng.gemm_seconds(1) > 0
        # More tokens never serve faster on StepStone (chunked GEMV).
        assert eng.gemm_seconds(64) > eng.gemm_seconds(1)

    def test_weights_include_lm_head(self):
        step = GPT2_XL.step_spec().total_weight_bytes
        assert GPT2_XL.weight_bytes == step + 50257 * 1600 * 4

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            GenModelConfig("bad", 1600, 6400, 48, 7, 100)  # heads don't divide

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_integer_max_batch_rejected(self, shared_engine, bad):
        with pytest.raises(ValueError, match="positive integer"):
            make_engine(shared_engine, max_batch=bad)


class TestKVCacheBudget:
    def test_for_node_nets_out_weights(self):
        budget = KVCacheBudget.for_node(STEPSTONE_NODE, GPT2_XL)
        expected = int(
            (STEPSTONE_NODE.memory_bytes - GPT2_XL.weight_bytes)
            // GPT2_XL.kv_bytes_per_token
        )
        assert budget.capacity_tokens == expected

    def test_gpu_holds_far_fewer_tokens(self):
        """12 GB of device memory vs a 128 GB socket: order-of-magnitude
        fewer concurrent cached tokens — capacity bounds concurrency."""
        ss = KVCacheBudget.for_node(STEPSTONE_NODE, GPT2_XL)
        gpu = KVCacheBudget.for_node(GPU_NODE, GPT2_XL)
        assert gpu.capacity_tokens * 10 < ss.capacity_tokens

    def test_too_small_node_raises(self):
        tiny = NodeSpec(backend="stepstone", name="tiny", memory_bytes=1e9)
        with pytest.raises(ValueError):
            KVCacheBudget.for_node(tiny, GPT2_XL)

    def test_reserve_release_accounting(self):
        b = KVCacheBudget(10)
        b.reserve(6)
        assert b.fits(4) and not b.fits(5)
        with pytest.raises(RuntimeError):
            b.reserve(5)
        b.release(6)
        assert b.used_tokens == 0 and b.high_water_tokens == 6
        with pytest.raises(RuntimeError):
            b.release(1)


class TestSchedulerEquivalence:
    def test_continuous_equals_static_on_equal_lengths(self, shared_engine):
        """Closed batches + equal output lengths: request-for-request
        identical.  Slots only ever free all-at-once, so continuous
        batching degenerates to static exactly."""
        rng = random.Random(5)
        reqs = [GenRequest(i, 0.0, rng.randint(8, 40), 24) for i in range(20)]
        reports = [
            make_engine(shared_engine, scheduler=s).run(reqs)
            for s in (StaticBatcher(), ContinuousBatcher())
        ]
        assert completion_keys(reports[0]) == completion_keys(reports[1])
        assert reports[0].tokens_out == reports[1].tokens_out
        assert reports[0].sim_end_s == reports[1].sim_end_s

    def test_batch_of_one_serializes_identically(self, shared_engine):
        """max_batch=1: no slot to join mid-flight, so the schedulers
        coincide even on staggered arrivals and mixed lengths."""
        rng = random.Random(6)
        reqs = [
            GenRequest(i, i * 0.9, rng.randint(8, 24), rng.randint(4, 16))
            for i in range(8)
        ]
        a = make_engine(shared_engine, scheduler=StaticBatcher(), max_batch=1).run(reqs)
        b = make_engine(shared_engine, scheduler=ContinuousBatcher(), max_batch=1).run(reqs)
        assert completion_keys(a) == completion_keys(b)

    def test_continuous_wins_on_mixed_lengths(self, shared_engine):
        """The headline: mixed output lengths + open arrivals — continuous
        strictly better mean TTFT and at least static's goodput."""
        reqs = gen_requests(0.6, 70.0, prompt_range=(16, 32), output_range=(8, 96), seed=7)
        static = make_engine(shared_engine, scheduler=StaticBatcher()).run(reqs)
        cont = make_engine(shared_engine, scheduler=ContinuousBatcher()).run(reqs)
        assert cont.served == static.served == len(reqs)
        assert cont.mean_ttft_s < static.mean_ttft_s
        assert cont.ttft_percentile(95) < static.ttft_percentile(95)
        assert cont.tokens_per_s >= static.tokens_per_s


class TestKVPressure:
    def test_budget_never_exceeded_at_saturation(self, shared_engine):
        """Drive the budget to the wall: queueing and preemption absorb
        the pressure; the high-water mark touches capacity but never
        crosses it, and every sequence still completes."""
        reqs = [GenRequest(i, 0.05 * i, 32, 32) for i in range(20)]
        eng = make_engine(shared_engine, kv_capacity_tokens=200)
        rep = eng.run(reqs)
        assert rep.kv_high_water_tokens <= rep.kv_capacity_tokens
        assert rep.peak_waiting > 0  # admissions queued at the wall
        assert rep.served == len(reqs)  # queueing, not loss
        assert rep.rejected_count == 0

    def test_preemption_requeues_and_completes(self, shared_engine):
        reqs = [GenRequest(i, 0.05 * i, 32, 32) for i in range(20)]
        rep = make_engine(shared_engine, kv_capacity_tokens=200).run(reqs)
        assert rep.preemptions > 0
        preempted = [c for c in rep.completions if c.preemptions > 0]
        assert preempted
        # Recompute semantics: a preempted sequence still emits every token.
        assert all(c.tokens_out == c.request.max_new_tokens for c in preempted)

    def test_capacity_bounds_concurrency(self, shared_engine):
        """A budget of ~2 sequences' footprints never holds 3: peak usage
        stays within what two admitted sequences can reserve."""
        reqs = [GenRequest(i, 0.0, 16, 8) for i in range(6)]
        rep = make_engine(shared_engine, kv_capacity_tokens=50).run(reqs)
        # One sequence peaks at 16+8=24 tokens; three would need >= 72.
        assert rep.kv_high_water_tokens <= 50
        assert rep.served == 6

    def test_impossible_request_rejected_at_arrival(self, shared_engine):
        eng = make_engine(shared_engine, kv_capacity_tokens=100)
        rep = eng.run([GenRequest(0, 0.0, 80, 40), GenRequest(1, 0.0, 16, 8)])
        assert rep.rejected_count == 1
        assert rep.served == 1

    def test_lone_sequence_always_progresses(self, shared_engine):
        """The no-livelock anchor: a sequence whose worst-case footprint
        exactly fills the budget runs to completion alone."""
        rep = make_engine(shared_engine, kv_capacity_tokens=24).run(
            [GenRequest(0, 0.0, 16, 8)]
        )
        assert rep.served == 1
        assert rep.kv_high_water_tokens == 24


class TestDeterminismAndRecording:
    def test_identical_runs_identical_reports(self, shared_engine):
        reqs = gen_requests(0.5, 60.0, seed=11)
        a = make_engine(shared_engine).run(reqs)
        b = make_engine(shared_engine).run(reqs)
        assert (a.served, a.tokens_out, a.sim_end_s) == (b.served, b.tokens_out, b.sim_end_s)
        assert a.mean_ttft_s == b.mean_ttft_s
        assert a.mean_itl_s == b.mean_itl_s
        assert completion_keys(a) == completion_keys(b)

    def test_streaming_matches_full_exactly(self, shared_engine):
        """Counts, means, and (under the exact reservoir) percentiles are
        bit-identical across recording modes — same accumulation order."""
        reqs = gen_requests(0.5, 60.0, seed=11)
        full = make_engine(shared_engine).run(reqs)
        stream = make_engine(shared_engine).run(reqs, record="streaming")
        assert stream.served == full.served
        assert stream.tokens_out == full.tokens_out
        assert stream.rejected_count == full.rejected_count
        assert stream.mean_ttft_s == full.mean_ttft_s
        assert stream.mean_itl_s == full.mean_itl_s
        assert stream.ttft_percentile(95) == full.ttft_percentile(95)
        assert stream.sim_end_s == full.sim_end_s

    def test_streaming_raises_on_per_sequence_access(self, shared_engine):
        rep = make_engine(shared_engine).run(gen_requests(1.0, 10.0, seed=2), record="streaming")
        with pytest.raises(RecordingModeError):
            rep.completions

    def test_unknown_record_mode_rejected(self, shared_engine):
        with pytest.raises(ValueError):
            make_engine(shared_engine).run([], record="sometimes")


class TestPhaseAccounting:
    def test_every_emitted_token_counted(self, shared_engine):
        reqs = gen_requests(0.8, 40.0, seed=3)
        rep = make_engine(shared_engine).run(reqs)
        assert rep.tokens_out == sum(r.max_new_tokens for r in reqs)

    def test_ttft_is_prefill_completion(self, shared_engine):
        """A lone request's TTFT is exactly the prefill service time."""
        r = GenRequest(0, 0.0, 32, 4)
        eng = make_engine(shared_engine)
        rep = eng.run([r])
        c = rep.completions[0]
        from repro.genai.engine import SeqState

        assert c.ttft_s == pytest.approx(eng.prefill_seconds([SeqState(r)]))

    def test_single_token_sequence_finishes_at_prefill(self, shared_engine):
        rep = make_engine(shared_engine).run([GenRequest(0, 0.0, 16, 1)])
        c = rep.completions[0]
        assert c.tokens_out == 1
        assert c.finish_s == c.first_token_s
        assert rep.itl_samples == 0

    def test_itl_sample_per_token_after_first(self, shared_engine):
        """Without preemption every token past a sequence's first emits
        exactly one ITL gap."""
        reqs = [GenRequest(i, 0.0, 16, 12) for i in range(4)]
        rep = make_engine(shared_engine).run(reqs)
        assert rep.preemptions == 0
        assert rep.itl_samples == rep.tokens_out - rep.served

    def test_decode_step_grows_with_context(self, shared_engine):
        """Later tokens cost more: attention walks a longer cached context."""
        eng = make_engine(shared_engine)
        from repro.genai.engine import SeqState

        young = SeqState(GenRequest(0, 0.0, 16, 64))
        old = SeqState(GenRequest(1, 0.0, 16, 64))
        old.emitted = 48
        assert eng.decode_seconds(1, [old]) > eng.decode_seconds(1, [young])

    def test_stepstone_beats_gpu_at_batch_one_decode(self, shared_engine):
        """The paper's thesis at the per-event level: batch-1 decode is
        bandwidth-bound GEMV, where the 12 TF GPU roofline collapses."""
        ss = make_engine(shared_engine)
        gpu = make_engine(shared_engine, spec=GPU_NODE)
        assert ss.gemm_seconds(1) * 10 < gpu.gemm_seconds(1)
