"""The verification matrix script: its pass rule and a quick end-to-end run."""

import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sqadd.arith import identity_table
from sqadd.engine import AllBranchesContradict, Forced, Underdetermined

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_matrix.py"


@pytest.fixture(scope="module")
def matrix():
    spec = importlib.util.spec_from_file_location("run_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_bound_passes(child_env, tmp_path):
    # at N = 20, k = 3, 5 and 6 are underdetermined: too small, not wrong
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--deduce-bound", "20"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "ALL PASS" in result.stdout
    assert "FAIL" not in result.stdout


def test_pass_rule(matrix):
    low = matrix.FORCED_FROM_BOUND - 1
    high = matrix.FORCED_FROM_BOUND
    under = Underdetermined((2,), 1, 1, 2)
    assert matrix.deduction_ok(3, low, under)
    assert not matrix.deduction_ok(3, high, under)
    assert matrix.deduction_ok(2, high, under)
    for bound in (low, high):
        assert not matrix.deduction_ok(3, bound, AllBranchesContradict())


def test_forced_must_be_the_verified_identity(matrix):
    bound = 30
    assert matrix.deduction_ok(3, bound, Forced(identity_table(bound)))
    assert not matrix.deduction_ok(2, bound, Forced(identity_table(bound)))
    wrong = identity_table(bound)
    wrong[4] = Fraction(5)
    assert not matrix.deduction_ok(3, bound, Forced(wrong))
    partial = identity_table(bound)
    del partial[29]
    assert not matrix.deduction_ok(3, bound, Forced(partial))
