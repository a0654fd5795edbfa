"""The repository's benchmark: one command, one workload, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``paper_figures``, ``genai_chat``, ``fleet_stream`` and
``fleet_hetero`` (see ``perfbench/WORKLOADS.md``).  Passes run in fresh
single-threaded child processes (``perfbench/child.py``), one child at a
time: one cold pass per child, or several warm passes after one set-up
on the fleets.

``--trace 0`` starts children until ``--seconds`` have gone by (at
least one) and tops the set-up samples up to three with set-up-only
children; it prints the end-to-end metrics as medians over the passes
(``wall_s``) or the children (``setup_s``, ``peak_rss_mb``).  A child
that fails a check still counts in ``attempted`` and ``failed``.
``--trace 1`` runs one untraced pass and one traced pass and prints the
per-layer metrics of the traced one, plus the tracing overhead and the
untraced pass's throughput.  Every pass checks its simulated output; a
failed check makes the command exit 1.

The last line of stdout is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402

#: End-to-end metrics of an untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
WORKLOAD_NAMES = ("paper_figures", "genai_chat", "fleet_stream", "fleet_hetero")
#: Set-up samples a run takes at least (extra children only set up).
MIN_SETUP_SAMPLES = 3
#: Whole-run deadline; the command must end within 180 s.
DEADLINE_S = 170.0

#: Environment of every child: one thread for BLAS/OpenMP, a fixed hash
#: seed, no bytecode written into the checkout, the program on the path.
CHILD_ENV = {
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONPATH": str(ROOT / "src"),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def _child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    env["PERFBENCH_SPAWN"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next child")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child of {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child of {workload} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def _report_errors(children: List[dict]) -> None:
    for c in children:
        for e in c["errors"]:
            print(e, file=sys.stderr)


def run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    children: List[dict] = []
    while not children or time.monotonic() - start < seconds:
        children.append(_child(workload, seed, "pass", deadline))
    while sum("setup_s" in c for c in children) < MIN_SETUP_SAMPLES:
        children.append(_child(workload, seed, "setup", deadline))
    _report_errors(children)
    walls = [w for c in children for w in c["walls"]]
    if not walls:
        raise BenchError(f"no {workload} pass finished")
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in children if "setup_s" in c),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children if "peak_rss_mb" in c),
    }
    return children, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def run_traced(workload: str, seed: int, deadline: float):
    plain = _child(workload, seed, "pass", deadline)
    traced = _child(workload, seed, "traced", deadline)
    children = [plain, traced]
    if not (plain["failed"] or traced["failed"]) and plain["fingerprint"] != traced["fingerprint"]:
        traced["failed"] = 1
        traced["errors"].append("traced and untraced passes disagree on the fingerprint")
    _report_errors(children)
    if plain["failed"] or traced["failed"]:
        raise BenchError(f"the traced run of {workload} failed")
    layer = dict(traced["layers"])
    wall = statistics.median(plain["walls"])
    layer["trace.overhead_share"] = (traced["walls"][0] - wall) / wall
    work = plain["work"]
    layer["requests_per_s"] = work["requests"] / wall
    layer["events_per_s"] = work["events"] / wall
    layer["tokens_per_s"] = work["tokens"] / wall
    return children, {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        if args.trace:
            children, metrics = run_traced(args.workload, args.seed, deadline)
        else:
            children, metrics = run_untraced(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = sum(c["failed"] for c in children)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(c["attempted"] for c in children),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
