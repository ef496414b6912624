"""Run one workload of the curation benchmark and print its metrics.

    python3 perfbench/run.py --workload curate-mix --seed 1 --seconds 36 --trace 0

``--workload all`` runs every workload, each in its own process.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics and the tracing overhead).
The exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import bench, checks  # noqa: E402
from perfbench.inputs import WORKLOADS, Workload, generate  # noqa: E402

HERE = os.path.join(ROOT, "perfbench")


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    """Repeat whole passes of ``workload`` for about ``seconds``, then
    check the last pass; returns the result object."""
    inputs = generate(workload, seed)
    reads = [(phase, index) for phase, ops in inputs.phases() for index, op in enumerate(ops) if op[0] == "read"]
    checked_reads = set(reads[::8])

    def keep(phase, index, op):
        """Outputs kept for the checks: every eighth read, all queries and SQL."""
        return op[0] in ("query", "sql") or (phase, index) in checked_reads

    pooled = bench.Pooled()  # the untraced passes
    traced = bench.Pooled()
    layers = []  # summaries of the traced passes
    counts = None
    errors = []
    attempted = dict.fromkeys(bench.KINDS, 0)
    failed = dict.fromkeys(bench.KINDS, 0)
    passes = 0
    last = system = tracer = None
    started = perf_counter()
    longest = 0.0
    while True:
        tracing = trace and passes % 2 == 1
        if system is not None:
            # only the last pass is checked; the previous one is dropped
            # before the next is built, so peak_rss_mb holds one pass
            bench.close(system)
            last = system = None
        begin = perf_counter()
        last, system = bench.run_pass(inputs, work_dir, tracing, keep)
        longest = max(longest, perf_counter() - begin)
        passes += 1
        if counts is None:
            counts = last.counts
        elif last.counts != counts:
            errors.append(f"pass {passes} counts {last.counts} differ from the first pass's {counts}")
        for kind in bench.KINDS:
            attempted[kind] += last.attempted[kind]
            failed[kind] += last.failed[kind]
        if tracing:
            layers.append(last.layers)
            traced.add(inputs, last)
            tracer = last.tracer  # only the last traced pass's spans are written out
            last.tracer = None
        else:
            pooled.add(inputs, last)
        # stop before a pass that would end past the deadline
        if perf_counter() - started + longest > seconds and (not trace or passes >= 2):
            break
    if trace:
        untraced_s, traced_s = (statistics.median(p.session_s) for p in (pooled, traced))
        overhead = 100.0 * (1.0 - untraced_s / traced_s)
        metrics = bench.per_layer(layers, counts, overhead)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "out", f"trace-{workload.name}-{seed}.json"))
    else:
        metrics = bench.end_to_end(inputs, pooled, counts)

    errors += checks.run_all(inputs, last, system)
    bench.close(system)
    return {
        "errors": errors,
        "passes": passes,
        "by_kind": {kind: {"attempted": attempted[kind], "failed": failed[kind]} for kind in bench.KINDS},
        "result": {
            "correct": not errors,
            "attempted": sum(attempted.values()),
            "failed": sum(failed.values()),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)  # BENCHMARK.json's run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        status = 0
        for name in sorted(WORKLOADS):
            command = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = subprocess.run(command).returncode or status
        return status

    work_root = os.path.join(HERE, "work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    try:
        outcome = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = outcome["result"]
    print(f"workload {args.workload}  seed {args.seed}  passes {outcome['passes']}")
    for kind, counts in outcome["by_kind"].items():
        print(f"  {kind:<7} attempted {counts['attempted']:>8}  failed {counts['failed']:>4}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")
    for error in outcome["errors"]:
        print(f"CHECK FAILED: {error}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
