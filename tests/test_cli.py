"""Command-line contract: outputs, exit codes, trace files, cache parity."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from jsonschema import validate

from sqadd.arith import identity_table
from sqadd.cache import cache_path
from sqadd.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, run


@pytest.fixture(autouse=True)
def in_tmp_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The exact stdout, stderr and exit code of each run, and the bytes of the
# files it writes, for every subcommand in each format.  A case runs its
# argvs in order (a cold then a warm cache) in a fresh working directory;
# "argv" is split on spaces.
GOLDENS = json.loads(Path(__file__).with_name("cli_goldens.json").read_text())


@pytest.mark.parametrize("case", GOLDENS, ids=[case["name"] for case in GOLDENS])
def test_golden_output(capsys, case):
    for name, text in case["files_in"].items():
        Path(name).write_text(text)
    for step in case["runs"]:
        got = invoke(step["argv"].split(), capsys)
        assert got == (step["exit"], step["stdout"], step["stderr"])
    for name, text in case["files_out"].items():
        assert Path(name).read_bytes() == text.encode()


class TestRepr:
    def test_lists_representations(self, capsys):
        code, out, _ = invoke(["repr", "28", "4"], capsys)
        assert code == EXIT_OK
        assert out.splitlines() == ["1 1 1 5", "1 3 3 3", "2 2 2 4"]

    def test_empty_for_33_into_5(self, capsys):
        code, out, _ = invoke(["repr", "33", "5"], capsys)
        assert code == EXIT_OK
        assert out == ""

    def test_json_count(self, capsys):
        code, out, _ = invoke(["repr", "33", "5", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {"n": 33, "k": 5, "count": 0, "representations": []}

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            ("text", "1 1 1 5\n1 3 3 3\n2 2 2 4\n"),
            ("csv", "1,1,1,5\n1,3,3,3\n2,2,2,4\n"),
            (
                "json",
                '{"n":28,"k":4,"count":3,'
                '"representations":[[1,1,1,5],[1,3,3,3],[2,2,2,4]]}\n',
            ),
        ],
    )
    def test_exact_output_28_into_4(self, capsys, fmt, expected):
        code, out, err = invoke(["repr", "28", "4", "--format", fmt], capsys)
        assert code == EXIT_OK
        assert out == expected
        assert err == ""

    def test_k_past_the_recursion_limit(self, capsys):
        code, out, err = invoke(["repr", "2000", "2000"], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out == " ".join(["1"] * 2000) + "\n"


class TestExceptions:
    def test_five_squares_pass(self, capsys):
        code, out, _ = invoke(["exceptions", "5", "40"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "1,2,3,4,6,7,9,10,12,15,18,33"
        assert lines[1] == "PASS"

    def test_hurwitz_mode(self, capsys):
        code, out, _ = invoke(["exceptions", "3", "1100", "--hurwitz"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "1,4,16,25,64,100,256,400,1024"
        assert lines[1] == "PASS"

    def test_json_schema(self, capsys):
        code, out, _ = invoke(
            ["exceptions", "6", "25", "--format", "json"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        schema = {
            "type": "object",
            "properties": {
                "k": {"type": "integer"},
                "N": {"type": "integer"},
                "members": {"type": "array", "items": {"type": "integer"}},
                "reference": {"type": ["array", "null"]},
                "match": {"type": "boolean"},
            },
            "required": ["k", "N", "members", "reference", "match"],
        }
        validate(payload, schema)
        assert payload["match"] is True
        assert payload["members"] == [1, 2, 3, 4, 5, 7, 8, 10, 11, 13, 16, 19]

    def test_hurwitz_requires_k3(self, capsys):
        code, _, err = invoke(["exceptions", "4", "100", "--hurwitz"], capsys)
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_cache_does_not_change_output(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        code1, out1, _ = invoke(["exceptions", "4", "300"], capsys)
        code2, out2, _ = invoke(
            ["exceptions", "4", "300", "--cache-dir", str(cache_dir)], capsys
        )
        code3, out3, _ = invoke(
            ["exceptions", "4", "300", "--cache-dir", str(cache_dir)], capsys
        )
        assert code1 == code2 == code3 == EXIT_OK
        assert out1 == out2 == out3

    def test_cache_dir_environment_variable_is_not_read(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "env-cache"
        monkeypatch.setenv("SQADD_CACHE_DIR", str(env_dir))
        code, _, _ = invoke(["exceptions", "4", "300"], capsys)
        assert code == EXIT_OK
        assert not env_dir.exists()

    def test_cache_dir_flag_writes_with_environment_set(self, capsys, tmp_path, monkeypatch):
        env_dir, flag_dir = tmp_path / "env-cache", tmp_path / "flag-cache"
        monkeypatch.setenv("SQADD_CACHE_DIR", str(env_dir))
        code, _, _ = invoke(
            ["exceptions", "4", "300", "--cache-dir", str(flag_dir)], capsys
        )
        assert code == EXIT_OK
        assert cache_path(flag_dir, 4, 300).exists()
        assert not env_dir.exists()

    def test_unwritable_cache_dir_warns(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code1, out1, _ = invoke(["exceptions", "4", "300"], capsys)
        code2, out2, err2 = invoke(
            ["exceptions", "4", "300", "--cache-dir", str(blocker / "cache")], capsys
        )
        assert code2 == code1 == EXIT_OK
        assert out2 == out1
        assert "warning:" in err2
        assert "Traceback" not in err2


class TestDeduce:
    def test_json_table_and_trace_file(self, capsys, tmp_path):
        code, out, _ = invoke(["deduce", "3", "60", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        schema = {
            "type": "object",
            "properties": {
                "verdict": {"type": "string"},
                "k": {"type": "integer"},
                "N": {"type": "integer"},
                "table": {
                    "type": "object",
                    "additionalProperties": {"type": "string"},
                },
                "trace_file": {"type": "string"},
            },
            "required": ["verdict", "k", "N", "trace_file"],
        }
        validate(payload, schema)
        assert payload["verdict"] == "forced"
        assert payload["table"]["25"] == "25"
        trace = tmp_path / payload["trace_file"]
        lines = trace.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert list(record) == ["step", "branch", "rule", "inputs", "output"]

    def test_trace_overwrite_needs_force(self, capsys):
        code1, _, _ = invoke(["deduce", "3", "20"], capsys)
        assert code1 == EXIT_OK
        code2, _, err = invoke(["deduce", "3", "20"], capsys)
        assert code2 == EXIT_USAGE
        assert "--force" in err
        code3, _, _ = invoke(["deduce", "3", "20", "--force"], capsys)
        assert code3 == EXIT_OK

    def test_underdetermined_text(self, capsys):
        code, out, _ = invoke(["deduce", "2", "40", "--force"], capsys)
        assert code == EXIT_OK
        assert "verdict: underdetermined" in out

    def test_out_file_with_trace_beside_it(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = invoke(
            ["deduce", "3", "30", "--format", "json", "--out", str(target)], capsys
        )
        assert code == EXIT_OK
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["verdict"] == "forced"
        assert (tmp_path / "result.json.trace").exists()

    def test_k_past_the_recursion_limit(self, capsys):
        code, out, err = invoke(["deduce", "1100", "1100"], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("verdict: underdetermined\n")

    def test_budget_exhaustion_exit_code(self, capsys):
        code, _, err = invoke(
            ["deduce", "5", "200", "--max-steps", "60", "--force"], capsys
        )
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, _, err = invoke(["deduce", "3", "20", "--out", str(target)], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("usage error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["out", "out.trace"])
    def test_directory_out_is_refused_before_the_run(self, capsys, tmp_path, name):
        (tmp_path / name).mkdir()
        code, _, err = invoke(
            ["deduce", "3", "10", "--out", str(tmp_path / "out"), "--force"], capsys
        )
        assert code == EXIT_USAGE
        assert err == f"usage error: {tmp_path / name} is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]


class TestVerify:
    def test_ok_table(self, capsys, tmp_path):
        table = {str(k): str(v) for k, v in identity_table(40).items()}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        code, out, _ = invoke(["verify", "3", "40", "--table", str(path)], capsys)
        assert code == EXIT_OK
        assert out.startswith("ok")

    def test_violation_exit_code(self, capsys, tmp_path):
        table = {str(k): str(v) for k, v in identity_table(30).items()}
        table["3"] = "1"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(table))
        code, out, _ = invoke(
            ["verify", "3", "30", "--table", str(path), "--format", "json"], capsys
        )
        assert code == EXIT_FAIL
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["violation"]["n"] == 3

    def test_caret_site_keys_accepted(self, capsys, tmp_path):
        table = {str(k): str(v) for k, v in identity_table(20).items()}
        del table["16"]
        table["2^4"] = "16"
        path = tmp_path / "caret.json"
        path.write_text(json.dumps(table))
        code, out, _ = invoke(["verify", "3", "20", "--table", str(path)], capsys)
        assert code == EXIT_OK

    def test_missing_table_flag(self, capsys):
        code, _, err = invoke(["verify", "3", "30"], capsys)
        assert code == EXIT_USAGE

    def test_incomplete_table(self, capsys, tmp_path):
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"2": "2"}))
        code, _, err = invoke(["verify", "3", "30", "--table", str(path)], capsys)
        assert code == EXIT_USAGE
        assert "missing" in err

    # a value is plain ASCII "n" or "n/d", as keys are plain ASCII digits
    @pytest.mark.parametrize(
        "value", [2, "1/0", None, [1], "1_0", " 2", "2 ", "+3", "1/-2", "\u0663"]
    )
    def test_malformed_value_is_a_usage_error(self, capsys, tmp_path, value):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"2": value}))
        code, _, err = invoke(["verify", "3", "10", "--table", str(path)], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("usage error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "table, bound", [({"2": "1_0"}, "2"), ({"2": " 2", "3": "+3"}, "3")]
    )
    def test_complete_table_with_int_spellings_is_refused(self, capsys, tmp_path, table, bound):
        # int() reads these as 10, 2 and 3; a complete table is checked, not refused
        path = tmp_path / "spelled.json"
        path.write_text(json.dumps(table))
        code, out, err = invoke(["verify", "3", bound, "--table", str(path)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error: rational ")

    def test_deeply_nested_value_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"2": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, _, err = invoke(["verify", "3", "10", "--table", str(path)], capsys)
        assert code == EXIT_USAGE
        assert err == f"usage error: cannot read table {path}: nested too deeply\n"

    def test_nested_value_error_names_its_type(self, capsys, tmp_path):
        # parses, and its repr alone is 800 bytes: the message names the type
        path = tmp_path / "nested.json"
        path.write_text('{"2": ' + "[" * 400 + "]" * 400 + "}")
        code, _, err = invoke(["verify", "3", "10", "--table", str(path)], capsys)
        assert code == EXIT_USAGE
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 200
        assert "got list" in err

    # every site <= 10 is present, so only the extra key can be at fault;
    # "6" would be an unchecked claim f(6) = 7 against f(2) f(3) = 6.  A key
    # is plain ASCII decimal digits, "q" or "p^e": int() would read "-2^2"
    # as site 4, "1_1" as 11 and " 7", "+7", "2^+3" and "٣" as sites too
    @pytest.mark.parametrize(
        "key", ["6", "0", "-3", "1", "2^-1", "-2^2", "1_1", " 7", "+7", "2^+3", "٣"]
    )
    def test_non_site_key_is_a_usage_error(self, capsys, tmp_path, key):
        table = {str(k): str(v) for k, v in identity_table(10).items()}
        table[key] = "7"
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(table))
        code, out, err = invoke(["verify", "3", "10", "--table", str(path)], capsys)
        assert code == EXIT_USAGE
        assert f"table key {key!r} is not a prime-power site" in err
        assert "Traceback" not in err
        assert out == ""

    # the largest prime below 2^64 and a prime power given as "p^e" pass too
    @pytest.mark.parametrize(
        "key", ["1000000000000000003", "18446744073709551557", "3^40"]
    )
    def test_large_site_key_is_checked_quickly(self, capsys, tmp_path, key):
        table = {str(k): str(v) for k, v in identity_table(10).items()}
        table[key] = "7"
        path = tmp_path / "large.json"
        path.write_text(json.dumps(table))
        start = time.perf_counter()
        code, out, _ = invoke(["verify", "3", "10", "--table", str(path)], capsys)
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK
        assert out.startswith("ok")

    @pytest.mark.parametrize("key", ["2^200000", "2^64", "18446744073709551616"])
    def test_site_of_2_64_or_more_is_a_usage_error(self, capsys, tmp_path, key):
        table = {str(k): str(v) for k, v in identity_table(10).items()}
        table[key] = "7"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(table))
        start = time.perf_counter()
        code, out, err = invoke(["verify", "3", "10", "--table", str(path)], capsys)
        assert time.perf_counter() - start < 1
        assert code == EXIT_USAGE
        assert repr(key) in err
        assert "Traceback" not in err
        assert out == ""

    # the second key claims the identity value; the first claims f(site) = 5
    @pytest.mark.parametrize("first, second", [("2^4", "16"), ("2", "2")])
    def test_two_keys_for_one_site_is_a_usage_error(self, capsys, tmp_path, first, second):
        pairs = [(str(s), str(v)) for s, v in identity_table(20).items() if str(s) != second]
        pairs += [(first, "5"), (second, second)]
        path = tmp_path / "repeat.json"
        path.write_text("{" + ", ".join(f'"{k}": "{v}"' for k, v in pairs) + "}")
        code, out, err = invoke(["verify", "3", "20", "--table", str(path)], capsys)
        assert code == EXIT_USAGE
        assert repr(first) in err and repr(second) in err
        assert "Traceback" not in err
        assert out == ""


class TestSearch2:
    def test_witness_round_trips_through_verify(self, capsys, tmp_path):
        code, out, _ = invoke(
            ["search2", "1000", "--format", "json"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["deviations"]
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(payload["witness"]))
        code2, out2, _ = invoke(
            ["verify", "2", "1000", "--table", str(path)], capsys
        )
        assert code2 == EXIT_OK


class TestUsage:
    def test_unknown_format(self, capsys):
        code, _, err = invoke(["repr", "10", "2", "--format", "yaml"], capsys)
        assert code == EXIT_USAGE

    def test_bad_k(self, capsys):
        code, _, _ = invoke(["deduce", "1", "50"], capsys)
        assert code == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        assert run([]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            "exceptions 3 0",
            "deduce 3 0",
            "search2 0",
            "deduce 3 -5",
            "repr 0 3",
            "repr 10 3 --cap 0",
            "deduce 3 20 --max-branches 0",
            "exceptions 2 50",
            "search2 100 --site-bound -5",
            "search2 100 --site-bound 0",
            # above the sieve's ceiling, refused before any bitmap is built
            "exceptions 3 100000000000",
            "exceptions 3 100000000000 --hurwitz",
        ],
    )
    def test_out_of_range_is_a_usage_error(self, capsys, argv):
        code, _, err = invoke(argv.split(), capsys)
        assert code == EXIT_USAGE
        assert "Traceback" not in err


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "sqadd", "repr", "12", "3"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2 2 2"


def test_traces_identical_across_processes(tmp_path, child_env):
    # fresh interpreters, byte-identical trace files
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "sqadd",
                "deduce", "4", "80", "--out", str(out), "--format", "json",
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / f"{name}.json.trace").read_bytes())
    assert outputs[0] == outputs[1]
