#!/usr/bin/env python3
"""Compare two scan golden files run by run.

    python3 scripts/diff_scan_goldens.py OLD NEW

Both files are lists of runs as `tests/test_scan_golden.py` writes them.
The JSON printed holds the run count, the runs whose verdict or trace
sha256 differ, and the runs whose step total moved, each as
[k, n, old steps, new steps].  The exit code is 0 when the two files cover
the same runs with the same verdicts and traces, whatever the steps, and
1 otherwise.  To check a regenerated golden against the committed one:

    git show HEAD:tests/scan_goldens.json > old.json
    python3 scripts/diff_scan_goldens.py old.json tests/scan_goldens.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def diff(old: list[dict], new: list[dict]) -> dict:
    """The runs of old and new, compared in file order."""
    same_runs = [(r["k"], r["n"]) for r in old] == [(r["k"], r["n"]) for r in new]
    changed = [
        [a["k"], a["n"]]
        for a, b in zip(old, new)
        if (a["verdict"], a["trace_sha256"]) != (b["verdict"], b["trace_sha256"])
    ]
    steps = [[a["k"], a["n"], a["steps"], b["steps"]] for a, b in zip(old, new) if a["steps"] != b["steps"]]
    return {"runs": len(new), "same_runs": same_runs, "verdict_or_trace_changed": changed, "steps_moved": steps}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    result = diff(old, new)
    print(json.dumps(result))
    return 0 if result["same_runs"] and not result["verdict_or_trace_changed"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
