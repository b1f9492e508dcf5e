"""The paired-benchmark summary: quartiles, wins by direction, % change."""

import importlib.util
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
