"""The benchmark's own tests: tiny-size runs of every workload with all
correctness checks, exact repetition of the count metrics, and agreement
of the metric names with ``BENCHMARK.json``."""

import json
import os

import pytest

from perfbench import bench, checks
from perfbench.inputs import WORKLOADS, generate, tiny

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the operation kinds each workload runs besides edits and commits
EXTRA_KINDS = {"curate-mix": set(), "browse-curate": {"read"}, "prov-audit": {"query", "sql"}}


def keep_all(phase, index, op):
    return op[0] in ("read", "query", "sql")


def tiny_pass(name, work_dir, traced=False, seed=3):
    inputs = generate(tiny(WORKLOADS[name]), seed)
    result, system = bench.run_pass(inputs, str(work_dir), traced, keep_all)
    return inputs, result, system


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(name, tmp_path):
    inputs, result, system = tiny_pass(name, tmp_path)
    try:
        assert sum(result.failed.values()) == 0, result.outputs
        assert checks.run_all(inputs, result, system) == []
        # each workload runs the kinds it is defined by, so every check
        # has something to compare on one workload or another
        kinds = {op[0] for _phase, ops in inputs.phases() for op in ops}
        assert kinds == {"edit", "commit"} | EXTRA_KINDS[name]
    finally:
        bench.close(system)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(name, tmp_path):
    runs = []
    for _ in range(2):
        _inputs, result, system = tiny_pass(name, tmp_path, traced=True)
        bench.close(system)
        layers = result.layers
        runs.append((result.counts, layers["calls"], layers["roots"], layers["rows"], layers["deltas"]))
    assert runs[0] == runs[1]


def test_metric_names_match_the_benchmark_file(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    inputs, plain, system = tiny_pass("prov-audit", tmp_path)
    bench.close(system)
    _inputs, traced, system = tiny_pass("prov-audit", tmp_path, traced=True)
    bench.close(system)
    pooled = bench.Pooled()
    pooled.add(inputs, plain)
    e2e = bench.end_to_end(inputs, pooled, plain.counts)
    layers = bench.per_layer([traced.layers], traced.counts, 0.0)
    assert {name: unit for name, (_v, unit) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {name: unit for name, (_v, unit) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
