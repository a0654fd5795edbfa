"""Timed passes of one workload in a fresh, single-threaded process.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python3 perfbench/child.py --workload NAME --seed N --mode MODE

``MODE`` is ``pass`` (set up, then run the workload's ``passes`` timed
passes, checking each), ``setup`` (set up only, for more ``setup_s``
samples) or ``traced`` (one pass with every layer wrapped by
:mod:`tracer`, spans written to ``perfbench/out/``).  The last line of
stdout is one JSON object.

``setup_s`` runs from the parent's spawn instant (``PERFBENCH_SPAWN``,
``CLOCK_MONOTONIC`` seconds) to the start of the first timed pass, so it
covers interpreter start-up, imports, construction, input generation
and any warm-up.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup", "traced"), required=True)
    args = ap.parse_args()
    spawned = float(os.environ["PERFBENCH_SPAWN"])

    import tracer as tracing
    from workloads import DEFAULT_SEED, WORKLOADS, digest
    from repro.sim import fast as sim_fast

    wl = WORKLOADS[args.workload]
    committed = None
    if args.seed == DEFAULT_SEED or not wl.seeded:
        committed = json.loads((HERE / "fingerprints.json").read_text())[wl.name]["digest"]
    result = {"attempted": 0, "walls": [], "failed": 0, "errors": []}
    tracer = None
    clean = 0  # passes that ended with every check met
    try:
        with contextlib.redirect_stdout(sys.stderr):
            if args.mode == "traced":
                tracer = tracing.Tracer()
                tracer.install()
            else:
                tracing.assert_unwrapped()
            ctx = wl.setup(args.seed)
            n_passes = wl.passes if args.mode == "pass" else 1
            for i in range(n_passes):
                gc.collect()
                t0 = _now()
                if i == 0:
                    result["setup_s"] = t0 - spawned
                    if args.mode == "setup":
                        break
                result["attempted"] += 1
                if tracer is not None:
                    tracer.pass_id = "pass"
                fast0 = sim_fast.FAST_RUNS
                out = wl.run(ctx)
                result["walls"].append(_now() - t0)
                ctx["fast_engaged"] = sim_fast.FAST_RUNS - fast0
                if tracer is not None:
                    tracer.pass_id = "read"
                    summary = tracer.call(wl.report_layer or "read", None, wl.read, (ctx, out), {})
                else:
                    summary = wl.read(ctx, out)
                del out
                if i == 0:
                    # One pass's high-water mark: later passes would add
                    # whatever garbage the collector has not yet freed.
                    result["peak_rss_mb"] = (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    )
                errors = wl.check(ctx, summary)
                fp = {"seed": args.seed, "digest": digest(summary), "summary": summary}
                if committed is not None and fp["digest"] != committed:
                    errors.append(f"fingerprint {fp['digest']} != committed {committed}")
                if result.setdefault("fingerprint", fp) != fp:
                    errors.append("passes over the same inputs disagree on the fingerprint")
                result["errors"] += errors
                clean += not errors
    except Exception:
        result["attempted"] = max(result["attempted"], 1)
        result["failed"] = result["attempted"] - clean
        result["errors"].append(traceback.format_exc())
        print(json.dumps(result), file=sys.__stdout__)
        return
    result["failed"] = result["attempted"] - clean
    if result["walls"]:
        result["work"] = wl.work(summary)
    if tracer is not None:
        tracer.uninstall()
        errors = tracer.assert_fired(wl.name)
        if errors:
            result["failed"] = 1
            result["errors"] += errors
        layer = tracer.metrics()
        setup = tracer.metrics(("setup",))
        for name in ("serving.batch_latency.misses", "serving.batch_latency.cold_s",
                     "core.plan_gemm.calls", "autoscale.traces.gen_s",
                     "autoscale.policy.self_s"):
            layer[f"setup.{name}"] = setup[name]
        layer["sim.fast.engaged"] = ctx["fast_engaged"]
        layer["sim.kernel.events"] = summary.get("events_processed", 0)
        layer["genai.kv.preemptions"] = summary.get("preemptions", 0)
        result["layers"] = layer
        tracer.write(HERE / "out" / f"spans-{wl.name}.csv")
    print(json.dumps(result), file=sys.__stdout__)


if __name__ == "__main__":
    main()
