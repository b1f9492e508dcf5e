"""A scan of 200 uniqueness runs, each pinned by verdict, trace and steps.

`scan_goldens.json` holds, for k = 2..11 and N = k+1, k+4, ..., k+58, the
verdict kind of `run_uniqueness(k, N)`, the sha256 of its serialized trace
and its step total: the final count of the run's `--max-steps` counter, the
least `max_steps` the run fits in.  The file was written at commit def7ed9
with `PYTHONPATH=src python tests/test_scan_golden.py > tests/scan_goldens.json`.
A change that only deletes redundant code must leave every entry as it is;
unlike the few digests in `test_engine.py`, the scan also catches a change
of step order that shows at one N only, such as renumbering
`BranchState.pending`, which changes the trace of (7, 23) alone.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from sqadd import engine

GOLDENS = Path(__file__).with_name("scan_goldens.json")
RUNS = [(k, n) for k in range(2, 12) for n in range(k + 1, k + 59, 3)]


def scan() -> list[dict]:
    """Verdict, trace sha256 and step total of every run in RUNS."""
    real = engine._Counter
    made: list = []

    def counter(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    records = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_Counter", counter)
        for k, n in RUNS:
            made.clear()
            verdict = engine.run_uniqueness(k, n)
            (steps,) = [c.steps for c in made if c.flag == "--max-steps"]
            digest = hashlib.sha256(verdict.trace.serialize().encode()).hexdigest()
            records.append(
                {"k": k, "n": n, "verdict": verdict.kind, "trace_sha256": digest, "steps": steps}
            )
    return records


def test_scan_matches_the_golden():
    want = json.loads(GOLDENS.read_text())
    assert len(want) == len(RUNS) == 200
    for got, pinned in zip(scan(), want):
        assert got == pinned, f"run_uniqueness({pinned['k']}, {pinned['n']})"


if __name__ == "__main__":
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in scan()) + "\n]\n")
