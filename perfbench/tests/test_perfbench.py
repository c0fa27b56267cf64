"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_changes_no_output_or_counter(name):
    wl = WORKLOADS[name]
    items = wl.setup(spans.direct_call, 0, True)
    plain = run.run_pass(wl, items)
    traced = run.run_pass(wl, items, spans.Tracer())
    assert plain.failures == {} and traced.failures == {}
    assert plain.outputs == traced.outputs
    assert plain.counters == traced.counters


@pytest.mark.parametrize("name", ["random-pairs", "duality"])
def test_inputs_follow_the_seed(name):
    def fingerprint(seed):
        items = WORKLOADS[name].setup(spans.direct_call, seed, True)
        return repr([(i, [getattr(x, "simplices", x) for x in p]) for i, p in items])

    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)


def _run(cwd: Path, *args: str):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_untraced_and_traced(name):
    """Both kinds of run succeed, print exactly the metrics that
    BENCHMARK.json lists, and count the same work (in two processes, so
    with different string hashing)."""
    counters = []
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        res = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "0",
                   "--trace", trace, "--small")
        assert res.returncode == 0, res.stderr
        *_, report, last = res.stdout.strip().splitlines()
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]}
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())
        counters.append(json.loads(report)["raw_counters"])
    assert counters[0] == counters[1]


def test_checkout_without_sources_fails():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        res = _run(bare, "--workload", "manifolds", "--seed", "0", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert res.returncode != 0
    assert res.stdout == ""


def test_tail_percentile_needs_ten_samples_beyond():
    label, value = run.tail(list(range(1000, 0, -1)))
    assert label == "p99" and value == pytest.approx(990.5, abs=0.01)
    assert run.tail(list(range(1, 301)))[0] == "p95"
    assert run.tail(list(range(1, 64)))[0] == "p75"
    assert run.tail([3, 1, 2]) == ("max", 3)


def test_harrell_davis_quantiles():
    assert run.harrell_davis([5, 1, 4, 2, 3], 0.5) == pytest.approx(3)
    assert run.harrell_davis(list(range(1, 101)), 0.9) == pytest.approx(90.5, abs=0.01)


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    tr.spans = [
        spans.Span("item", 0.0, 10.0, None, "x"),
        spans.Span("a", 1.0, 6.0, 0, "x"),
        spans.Span("b", 2.0, 3.0, 1, "x"),
        spans.Span("b", 7.0, 9.0, 0, "x"),
    ]
    assert tr.self_times() == {"item": (3.0, 1), "a": (4.0, 1), "b": (3.0, 2)}
