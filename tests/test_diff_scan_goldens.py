"""The scan-golden comparison: steps may move, verdicts and traces may not."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "diff_scan_goldens.py"


def run(tmp_path, old, new):
    for name, runs in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(runs))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "old.json"), str(tmp_path / "new.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, json.loads(proc.stdout)


def entry(k, n, verdict="forced", sha="a", steps=10):
    return {"k": k, "n": n, "verdict": verdict, "trace_sha256": sha, "steps": steps}


def test_moved_steps_alone_pass(tmp_path):
    code, out = run(tmp_path, [entry(3, 4), entry(3, 7)], [entry(3, 4), entry(3, 7, steps=8)])
    assert code == 0
    assert out == {"runs": 2, "same_runs": True, "verdict_or_trace_changed": [], "steps_moved": [[3, 7, 10, 8]]}


def test_a_changed_trace_or_run_fails(tmp_path):
    code, out = run(tmp_path, [entry(3, 4)], [entry(3, 4, sha="b")])
    assert (code, out["verdict_or_trace_changed"]) == (1, [[3, 4]])
    code, out = run(tmp_path, [entry(3, 4)], [entry(3, 5)])
    assert (code, out["same_runs"]) == (1, False)
