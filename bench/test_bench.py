"""The benchmark's own checks: layer coverage, oracles and its definition.

Run from the repository root with `python -m pytest bench -q`.  The
workloads run here at a fraction of their benchmark size.
"""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import sqadd.engine  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sqadd.poly import Poly  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402

SMALL_PLANS = {
    "deduce": [("uniqueness", 3, 60), ("uniqueness", 6, 60), ("search2", 200, 20)],
    "exceptions": workloads.exceptions_plan(2000, [5, 4], 10_000),
}


def run_small(workload, workdir, tracer=None):
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.PassContext(workdir)
    with tracer or contextlib.nullcontext():
        return [workloads.run_op(ctx, op) for op in SMALL_PLANS[workload]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_covers_its_layers_and_bypasses_the_rest(workload, tmp_path):
    tracer = Tracer()
    records = run_small(workload, tmp_path, tracer)
    assert all(r["ok"] for r in records), records
    stats, roots_s = aggregate(tracer.spans)
    assert layers.coverage_problems(workload, layers.reached(stats, tracer.counts)) == []
    assert roots_s > 0


def test_tracing_changes_no_trace_digest(tmp_path):
    plain = run_small("deduce", tmp_path / "plain")
    traced = run_small("deduce", tmp_path / "traced", Tracer())
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    assert all(r["digest"] for r in plain if r["op"].startswith("uniqueness"))


def test_renamed_layer_fails_loudly_and_restores_the_rest(monkeypatch):
    init = Poly.__init__
    monkeypatch.delattr(sqadd.engine, "eliminate")
    with pytest.raises(AttributeError):
        with Tracer():
            pass
    assert Poly.__init__ is init


def test_bypassed_layer_is_reported():
    problems = layers.coverage_problems("exceptions", {"cli.run": 1, "engine.propagate": 2})
    assert "exceptions: layer engine.propagate reached 2 times, expected bypassed" in problems
    assert "exceptions: layer squares.scan never reached" in problems


def test_wrong_answer_fails_the_operation(monkeypatch, tmp_path):
    monkeypatch.setattr(sqadd.engine, "search_nonidentity", lambda *args: None)
    (record,) = [workloads.run_op(workloads.PassContext(tmp_path), ("search2", 200, 20))]
    assert not record["ok"]
    assert "no witness" in record["error"]


def test_self_time_subtracts_children():
    spans = [(0, None, "a", 0.0, 10.0), (1, 0, "b", 1.0, 4.0), (2, 1, "c", 2.0, 3.0), (3, None, "b", 20.0, 21.0)]
    stats, roots_s = aggregate(spans)
    assert (stats["a"].calls, stats["a"].total_s, stats["a"].self_s) == (1, 10.0, 7.0)
    assert (stats["b"].calls, stats["b"].total_s, stats["b"].self_s) == (2, 4.0, 3.0)
    assert roots_s == 11.0


def test_seed_varies_order_and_size_only():
    for workload in workloads.WORKLOADS:
        canonical = workloads.plan(workload, 0)
        for seed in (1, 2, 3):
            ops = workloads.plan(workload, seed)
            assert sorted(op[0] for op in ops) == sorted(op[0] for op in canonical)
            assert ops == workloads.plan(workload, seed)
    assert sorted(workloads.plan("deduce", 5)) == sorted(workloads.DEDUCE)


def test_units_cover_the_plan_and_keep_each_cache_pair_together():
    for workload in workloads.WORKLOADS:
        for seed in (0, 1):
            units = workloads.units(workload, seed)
            assert [op for unit in units for op in unit] == workloads.plan(workload, seed)
    *pairs, hurwitz = workloads.units("exceptions", 1)
    assert hurwitz == [("hurwitz", workloads.HURWITZ_N)]
    for cold, warm in pairs:
        assert (cold[0], cold[1:3], cold[3], warm[3]) == ("exceptions", warm[1:3], "cold", "warm")


def test_merged_cycle_keeps_each_units_span_tree():
    unit = {
        "ops": [], "wall_s": 2.0, "stdout_bytes": 1, "lru": {"factorize": [1, 2]},
        "counts": {"poly.constructed": 3},
        "spans": [(0, None, "a", 0.0, 2.0), (1, 0, "b", 0.5, 1.0)],
    }
    merged = run.merge([unit, unit])
    stats, roots_s = aggregate(merged["spans"])
    assert (stats["a"].calls, stats["a"].self_s, roots_s) == (2, 3.0, 4.0)
    assert (merged["wall_s"], merged["lru"], merged["counts"]) == (4.0, {"factorize": [2, 4]}, {"poly.constructed": 6})


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better, _ in layers.LAYER_METRICS
    ]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deduce", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
