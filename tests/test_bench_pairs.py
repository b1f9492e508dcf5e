"""The paired-benchmark summary: quartiles, wins by direction, % change."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def pairs_module():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair(i, parent, change):
    return {"pair": i, "first": "parent" if i % 2 else "change", "parent": parent, "change": change}


def test_summary_counts_wins_in_the_better_direction(pairs_module):
    pairs = [
        pair(1, {"wall_s": 1.0, "ratio": 0.5, "correct": True, "failed": 0}, {"wall_s": 0.7, "ratio": 0.4, "correct": True, "failed": 0}),
        pair(2, {"wall_s": 1.2, "ratio": 0.5, "correct": True, "failed": 0}, {"wall_s": 0.8, "ratio": 0.6, "correct": True, "failed": 0}),
        pair(3, {"wall_s": 1.1, "ratio": 0.5, "correct": True, "failed": 0}, {"wall_s": 1.1, "ratio": 0.5, "correct": True, "failed": 0}),
    ]
    summary = pairs_module.summarize(pairs, {"wall_s": "lower", "ratio": "higher"})
    assert set(summary) == {"wall_s", "ratio"}
    wall = summary["wall_s"]
    assert wall["parent"] == {"median": 1.1, "q1": 1.05, "q3": 1.15}
    assert wall["change"]["median"] == 0.8
    assert wall["change_wins"] == 2  # the tie counts for neither side
    assert wall["pairs"] == 3
    assert wall["median_change_pct"] == -27.3
    assert summary["ratio"]["change_wins"] == 1


def test_one_pair_has_no_spread(pairs_module):
    assert pairs_module.spread([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def ten_pairs(parent, change):
    return [pair(i, {"wall_s": a}, {"wall_s": b}) for i, (a, b) in enumerate(zip(parent, change), 1)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize(
    "change, better, met",
    [
        # 10 wins, median 0.70 against 1.00, quartile spread 0.035
        ([0.70] * 10, "lower", True),
        # 9 wins and one loss still meet the rule
        ([0.70] * 9 + [1.20], "lower", True),
        # 8 wins do not
        ([0.70] * 8 + [1.20] * 2, "lower", False),
        # 8 wins and two ties: a tie counts for neither side
        ([0.70] * 8 + [1.02, 0.98], "lower", False),
        # every pair won, but by less than the parent's spread
        ([v - 0.01 for v in PARENT], "lower", False),
        # a metric where higher is better
        ([1.30] * 10, "higher", True),
        ([0.70] * 10, "higher", False),
        # every pair won by a wide margin, but fewer than ten pairs
        ([0.70] * 5, "lower", False),
        ([0.70] * 9, "lower", False),
    ],
)
def test_claim_rule(pairs_module, change, better, met):
    summary = pairs_module.summarize(ten_pairs(PARENT, change), {"wall_s": better})
    assert summary["wall_s"]["claim_rule_met"] is met


def test_path_length_warning(pairs_module):
    assert pairs_module.path_length_warning(Path("b/parent"), Path("b/change")) is None
    warning = pairs_module.path_length_warning(Path("parent"), Path("change-1"))
    assert warning.startswith("warning: the checkout paths differ in length (6 and 8")


def test_main_warns_on_paths_of_unequal_length(pairs_module, tmp_path, monkeypatch, capsys):
    roots = [tmp_path / "parent", tmp_path / "change-1"]
    for root in roots:
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("")
    (roots[1] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [], "per_layer": []}))
    fake = {"record": {"wall_s": 1.0, "attempted": 1, "failed": 0, "correct": True}, "digests": []}
    monkeypatch.setattr(pairs_module, "run_bench", lambda root, args: fake)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", *map(str, roots), "--workload", "deduce", "--pairs", "1"])
    assert pairs_module.main() == 0
    captured = capsys.readouterr()
    assert "warning: the checkout paths differ in length" in captured.err
    assert json.loads(captured.out)["summary"]["wall_s"]["claim_rule_met"] is False


def test_bytecode_warning(pairs_module):
    assert pairs_module.bytecode_warning({}) is None
    assert pairs_module.bytecode_warning({"PYTHONDONTWRITEBYTECODE": ""}) is None
    warning = pairs_module.bytecode_warning({"PYTHONDONTWRITEBYTECODE": "1"})
    assert warning.startswith("warning: PYTHONDONTWRITEBYTECODE is set")


def test_main_warns_when_bytecode_is_not_written(pairs_module, tmp_path, monkeypatch, capsys):
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("")
    (roots[1] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [], "per_layer": []}))
    fake = {"record": {"wall_s": 1.0, "attempted": 1, "failed": 0, "correct": True}, "digests": []}
    monkeypatch.setattr(pairs_module, "run_bench", lambda root, args: fake)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", *map(str, roots), "--workload", "deduce", "--pairs", "1"])
    for value, warned in (("1", True), (None, False)):
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        assert pairs_module.main() == 0
        err = capsys.readouterr().err
        assert ("warning: PYTHONDONTWRITEBYTECODE is set" in err) is warned
        assert "paths differ in length" not in err
