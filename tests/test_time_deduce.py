"""The paired deduce timer, run end to end on one small unit."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from sqadd.engine import BudgetExhausted, EngineBudget, run_uniqueness

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "time_deduce.py"


def test_one_pair_of_one_checkout_agrees_with_itself():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "3:20", "--pairs", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["src_lines"]["parent"] == result["src_lines"]["change"] > 0
    unit = result["3:20"]
    assert unit["same_trace"] is True
    assert unit["same_steps"] is True
    for side in ("parent", "change"):
        assert unit[side]["verdict"] == "underdetermined"
        assert len(unit[side]["trace_sha256"]) == 64
        assert unit[side]["steps"] == 39
        assert len(unit[side]["seconds"]) == 1
        assert unit[side]["q1"] == unit[side]["median"] == unit[side]["q3"]
    # the step total is the least --max-steps the run fits in
    run_uniqueness(3, 20, EngineBudget(max_steps=39))
    with pytest.raises(BudgetExhausted):
        run_uniqueness(3, 20, EngineBudget(max_steps=38))


def test_malformed_unit_is_refused():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "3-20"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "expected K:N" in proc.stderr
