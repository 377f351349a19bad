"""Checks of the end-to-end benchmark itself (``pytest benchmarks/e2e``).

Not part of the tier-1 suite: the quick runs below take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import pools
import spans
import suite

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _final_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(suite.build_workloads(None)))
def test_quick_run_emits_every_metric(workload, trace):
    child = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--quick", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300, cwd=ROOT)
    assert child.returncode == 0, child.stdout
    final = _final_line(child.stdout)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    spec = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in final["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in spec}
    for name, metric in final["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_benchmark_json_lists_the_suite():
    spec = _benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] \
        == list(suite.build_workloads(None))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == suite.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == suite.PER_LAYER


class _Clock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children a [1, 3] and b [2, 5] (overlapping), a
    # grandchild under a [1.5, 2], and a child c [9, 12] running past
    # the root's end: the root's children cover [1, 5] and [9, 10].
    tracer = spans.Tracer(clock=_Clock(0, 1, 1.5, 2, 3, 10))
    root = tracer.begin("root")
    a = tracer.begin("a")
    grandchild = tracer.begin("g")
    tracer.end(grandchild)
    tracer.end(a)
    tracer.end(root)
    b = spans.Span(99, "b", 2.0, root.id, a.thread, {})
    b.end = 5.0
    c = spans.Span(100, "c", 9.0, root.id, a.thread, {})
    c.end = 12.0
    tracer.spans.extend([b, c])
    assert a.parent == root.id and grandchild.parent == a.id
    selfs = spans.self_times(tracer.spans)
    assert selfs[root.id] == pytest.approx(10 - 4 - 1)
    assert selfs[a.id] == pytest.approx(2 - 0.5)
    assert selfs[grandchild.id] == pytest.approx(0.5)
    assert selfs[b.id] == pytest.approx(3)
    assert selfs[c.id] == pytest.approx(3)


def test_compare_verdicts_use_bound_and_floor():
    spec = {m["name"]: m for m in _benchmark_spec()["end_to_end"]}
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    slower = [v * 0.85 for v in parent]
    assert compare.verdict(spec["exp_per_s"], parent, slower, 0.0) == "worse"
    assert compare.verdict(spec["exp_per_s"], parent, parent, 0.0) == "no-worse"
    assert compare.verdict(spec["exp_per_s"], slower, parent, 1.0) == "improved"
    # A 4 ms set-up that grows by half stays within the 0.05 s floor.
    setup = [0.004, 0.0041, 0.0039, 0.004, 0.0042]
    assert compare.verdict(spec["setup_s"], setup, [v * 1.5 for v in setup],
                           0.0) == "no-worse"
    assert compare.verdict(spec["setup_s"], [2.0] * 5, [2.6] * 5,
                           0.0) == "worse"


def _checkout(tmp_path, with_src=True):
    """A copy of the benchmark laid out like a checkout of the repo."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "runs"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return tmp_path / "benchmarks" / "e2e" / "run.py"


def test_corrupted_reference_line_fails_the_run(tmp_path):
    run = _checkout(tmp_path)
    pool = pools.POOLS["stress_transient"]
    seed = 11
    first = pools.stratified_order(pools.load(pool), seed,
                                   "%s/0" % pool.name)[0]
    path = tmp_path / "benchmarks" / "e2e" / "reference" / os.path.basename(
        pool.path)
    lines = path.read_text().splitlines()
    for number, line in enumerate(lines):
        row = json.loads(line)
        if (row["seed"], row["id"]) == (first.seed, first.experiment_id):
            row["quadrant"] = ("masked_undetected"
                               if row["quadrant"] != "masked_undetected"
                               else "unmasked_detected")
            lines[number] = json.dumps(row, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    child = subprocess.run(
        [sys.executable, str(run), "--workload", "stress_transient",
         "--seed", str(seed), "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=300, cwd=tmp_path)
    assert child.returncode == 1
    final = _final_line(child.stdout)
    assert final["correct"] is False and final["failed"] == 1
    assert first.key in child.stdout


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    run = _checkout(tmp_path, with_src=False)
    child = subprocess.run(
        [sys.executable, str(run), "--workload", "stress_transient",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=180, cwd=tmp_path)
    assert child.returncode != 0
    assert child.stdout == ""
