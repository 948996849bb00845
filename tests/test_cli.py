import copy
import hashlib
import json
import math
import os
import pickle
import random
import resource
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import cyclofact.cli as cli
from cyclofact.cli import COMMANDS, EXIT_BUDGET, EXIT_DOMAIN_ERROR, EXIT_OK, CliError, build_parser, main
from cyclofact.elasticity import construct_elasticity
from cyclofact.omega import IntervalMonoid
from cyclofact.polynomials import NatPoly
from cyclofact.semiring import RationalBase, length_stats
from test_contract import VALID_ARGV, parser_shapes, pinned_outcomes


def run_cli(capsys, *argv):
    """main(argv)'s exit code, or ("exit", code) for a SystemExit, and its output."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_lengths_document_matches_contract(capsys):
    doc = run_json(capsys, "lengths", "--q", "3/2", "--value", "9", "--enumerate")
    assert doc == {
        "q": "3/2",
        "value": "9",
        "min_length": 3,
        "max_length": 9,
        "elasticity": "3",
        "length_set": [3, 4, 5, 6, 7, 8, 9],
        "min_factorization": [[2, 1], [3, 2]],
    }


def test_lengths_integer_base_short_circuits(capsys):
    doc = run_json(capsys, "lengths", "--q", "2", "--value", "9")
    assert doc["min_length"] == 9
    assert doc["max_length"] == 9
    assert doc["elasticity"] == "1"


def test_regime_mismatch_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "antiprime", "--q", "3/2", "--k", "0", "--K", "2")
    assert code == EXIT_DOMAIN_ERROR
    payload = json.loads(err)
    assert "--q" in payload["error"]["message"]
    assert not out


def test_malformed_rational_names_the_flag(capsys):
    code, out, err = run_cli(capsys, "lengths", "--q", "x/y", "--value", "9")
    assert code == EXIT_DOMAIN_ERROR
    payload = json.loads(err)
    assert "--q" in payload["error"]["message"]
    assert "malformed rational" in payload["error"]["message"]


def test_unknown_flag_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "lengths", "--q", "3/2", "--value", "9", "--bogus")
    assert code == EXIT_DOMAIN_ERROR
    assert "--bogus" in json.loads(err)["error"]["message"]


def test_minimal_pair_from_string_and_rational(capsys):
    doc = run_json(capsys, "minimal-pair", "X^2 - 3X + 1")
    assert doc == {"ell": 1, "p": [[0, 1], [2, 1]], "q0": [[1, 3]]}
    doc = run_json(capsys, "minimal-pair", "--rational", "3/2")
    assert doc == {"ell": 2, "p": [[1, 2]], "q0": [[0, 3]]}
    code, _, err = run_cli(capsys, "minimal-pair")
    assert code == EXIT_DOMAIN_ERROR


def assert_one_error_line(code, out, err):
    assert code == EXIT_DOMAIN_ERROR
    assert not out
    assert "Traceback" not in err
    (line,) = err.splitlines()
    return json.loads(line)["error"]


def test_zero_denominator_in_a_polynomial_is_one_error_line(capsys):
    error = assert_one_error_line(*run_cli(capsys, "minimal-pair", "X - 1/0"))
    assert error["type"] == "ValueError"
    assert "'1/0'" in error["message"]


def test_scan_out_in_a_missing_directory_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "missing" / "scan.csv"
    argv = ("elasticity-scan", "--q", "3/2", "--bound", "4", "--out", str(path))
    error = assert_one_error_line(*run_cli(capsys, *argv))
    assert error["type"] == "CliError"
    assert error["message"].startswith("--out: ")
    assert not path.parent.exists()


def test_lengths_of_a_40000_bit_integer_is_not_per_level_quadratic(capsys):
    # Carrying the witness and the down normal form one level at a time took
    # about 3.2 s at q = 7/5 (2 vCPUs, CPython 3.11); the split carry about 0.3 s.
    n = random.Random(40000).getrandbits(40000) | 1 << 39999
    start = time.monotonic()
    doc = run_json(capsys, "lengths", "--q", "7/5", "--value", str(n))
    elapsed = time.monotonic() - start
    assert doc["max_length"] == n
    assert elapsed < 1.5, f"lengths on a 40,000-bit integer took {elapsed:.2f}s"


def test_member_and_factorize(capsys):
    doc = run_json(capsys, "member", "--q", "3/2", "--value", "13/4")
    assert doc["member"] is True
    assert doc["witness"] == [[0, 1], [2, 1]]
    doc = run_json(capsys, "member", "--q", "3/2", "--value", "1/2")
    assert doc["member"] is False and doc["witness"] is None
    doc = run_json(capsys, "factorize", "--q", "3/2", "--value", "9", "--enumerate")
    assert doc["min_factorization"] == [[2, 1], [3, 2]]
    assert doc["max_factorization"] == [[0, 9]]
    assert len(doc["factorizations"]) == 8
    code, _, err = run_cli(capsys, "factorize", "--q", "3/2", "--value", "1/2")
    assert code == EXIT_DOMAIN_ERROR


def test_budget_exhaustion_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOFACT_ORACLE_CAP", "3")
    code, out, err = run_cli(capsys, "lengths", "--q", "3/2", "--value", "9", "--enumerate")
    assert code == EXIT_BUDGET
    assert json.loads(err)["error"]["type"] == "OracleBudgetExceeded"


def test_deep_enumeration_exhausts_budget(capsys):
    # 3^1200 has 3252 ladder levels, deeper than Python's recursion limit.
    for sub in ("lengths", "factorize"):
        code, out, err = run_cli(
            capsys, sub, "--q", "3/2", "--value", str(3**1200), "--enumerate", "--oracle-cap", "5000"
        )
        assert code == EXIT_BUDGET
        assert json.loads(err)["error"]["type"] == "OracleBudgetExceeded"
        assert not out


def test_length_set_is_bounded_by_lengths_not_search_states(capsys):
    start = time.perf_counter()
    doc = run_json(
        capsys, "lengths", "--q", "3/2", "--value", "6561", "--enumerate", "--oracle-cap", "20000"
    )
    elapsed = time.perf_counter() - start
    assert doc["length_set"] == list(range(15, 6562))
    assert elapsed < 1.0, elapsed


def test_negative_value_is_one_usage_error(capsys):
    for sub in ("member", "factorize", "lengths"):
        code, out, err = run_cli(capsys, sub, "--q", "3/2", "--value", "-1")
        assert code == EXIT_DOMAIN_ERROR
        assert json.loads(err) == {
            "error": {"type": "CliError", "message": "--value: monoid elements are nonnegative, got -1"}
        }
        assert not out


def test_oracle_cap_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOFACT_ORACLE_CAP", "3")
    doc = run_json(
        capsys, "lengths", "--q", "3/2", "--value", "9", "--enumerate", "--oracle-cap", "100000"
    )
    assert doc["length_set"] == [3, 4, 5, 6, 7, 8, 9]


def test_malformed_env_cap_only_breaks_commands_with_an_oracle_cap(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOFACT_ORACLE_CAP", "abc")
    for argv in (
        ("minimal-pair", "--rational", "3/2"),
        ("omega-interval", "--q", "3/2", "--atom", "4/3"),
        ("antiprime", "--q", "2/3", "--k", "0", "--K", "2"),
        ("construct-elasticity", "--q", "3/2", "--target", "5/3"),
        ("member", "--q", "3/2", "--value", "9"),  # takes --oracle-cap, spends none
    ):
        run_json(capsys, *argv)
    for argv in (
        ("factorize", "--q", "3/2", "--value", "9"),
        ("lengths", "--q", "3/2", "--value", "9"),
        ("elasticity-scan", "--q", "3/2", "--bound", "4"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_DOMAIN_ERROR
        assert "CYCLOFACT_ORACLE_CAP" in json.loads(err)["error"]["message"]
        assert not out


def test_non_member_value_names_the_flag(capsys):
    messages = []
    for sub in ("factorize", "lengths"):
        code, out, err = run_cli(capsys, sub, "--q", "3/2", "--value", "1/2")
        assert code == EXIT_DOMAIN_ERROR and not out
        messages.append(json.loads(err)["error"])
    assert messages[0] == messages[1] == {
        "type": "NotInMonoidError",
        "message": "--value: 1/2 is not an element of the monoid at q=3/2",
    }


def run_limited(argv, address_space):
    """(completed process, seconds) of the CLI in a subprocess whose address
    space is capped, with a timeout so that a regression fails, not hangs."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cyclofact.cli", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)),
    )
    return proc, time.perf_counter() - start


def test_bases_near_one_exit_2_before_building_the_ladder():
    # q = 1 + 10^-9 puts about 6.9*10^8 levels under 2, on integers of about
    # 2*10^10 bits: the size check must refuse them before any power is taken.
    # At q = 1000/999, a value of 10^20000 needs about 4.6*10^8 bits, and the
    # message names its digit counts instead of printing all 20,001 digits.
    # Non-integers take the check too: 2000000003/1000000001, whose
    # denominator is a, before the denominator test, and 5/2 before its
    # start value is built.
    for argv in (
        ("member", "--q", "1000000001/1000000000", "--value", "2"),
        ("member", "--q", "1000000001/1000000000", "--value", "2000000003/1000000001"),
        ("member", "--q", "1000000001/1000000000", "--value", "5/2"),
        ("elasticity-scan", "--q", "1000000001/1000000000", "--bound", "2"),
        ("member", "--q", "1000/999", "--value", "1" + "0" * 20000),
    ):
        proc, elapsed = run_limited(argv, 2**31)
        assert proc.returncode == EXIT_BUDGET, proc.stderr
        assert json.loads(proc.stderr)["error"]["type"] == "OracleBudgetExceeded"
        assert len(proc.stderr) < 300
        assert not proc.stdout
        assert elapsed < 1.0, elapsed


@pytest.mark.parametrize(
    "argv, message",
    [
        # At q = 999/1000, K = 10^20000 puts N near 4.6*10^7: the threshold
        # exponent's size check must refuse it instead of multiplying up to it.
        (
            ("--q", "999/1000", "--k", "0", "--K", "1" + "0" * 20000),
            "a witness of omega(q^k) > K at q=999/1000, with k of 1 and K of 20001 digits,"
            " needs a level N past the ladder limit of 268435456 bits",
        ),
        # The same refusal names a huge k by its digit count too.
        (
            ("--q", "999/1000", "--k", "1" + "0" * 5000, "--K", "1" + "0" * 20000),
            "a witness of omega(q^k) > K at q=999/1000, with k of 5001 and K of 20001 digits,"
            " needs a level N past the ladder limit of 268435456 bits",
        ),
        # At q = 2/3 the witness's denominator 3^k has about 3.2*10^8 bits at
        # k = 2*10^8; a k of 1001 digits is past the limit before any float.
        (
            ("--q", "2/3", "--k", "200000000", "--K", "1"),
            "a witness of omega(q^k) > K at q=2/3, with k of 9 digits,"
            " needs x = a^N / b^k past the ladder limit of 268435456 bits",
        ),
        (
            ("--q", "2/3", "--k", "1" + "0" * 1000, "--K", "1"),
            "a witness of omega(q^k) > K at q=2/3, with k of 1001 digits,"
            " needs x = a^N / b^k past the ladder limit of 268435456 bits",
        ),
    ],
    ids=["K", "k-and-K", "k-bits", "k-digits"],
)
def test_huge_antiprime_bound_exits_2_before_building_the_ladder(argv, message):
    proc, elapsed = run_limited(("antiprime", *argv), 2**31)
    assert proc.returncode == EXIT_BUDGET, proc.stderr[:300]
    assert json.loads(proc.stderr)["error"] == {"type": "OracleBudgetExceeded", "message": message}
    assert len(proc.stderr) < 300
    assert not proc.stdout
    assert elapsed < 1.0, elapsed


def test_enumeration_budget_is_charged_per_child():
    # Level 0 of 10^12 at q = 3/2 admits about 3*10^11 digits, and that of
    # 3^40 about 4*10^18.  Each state is charged its path count times its
    # digit count, from its digit range's bounds, before its children are
    # built: a search that built a whole level before charging it would
    # never get to the cap of 1000.
    for value in (10**12, 3**40):
        proc, elapsed = run_limited(
            ("factorize", "--q", "3/2", "--value", str(value), "--enumerate", "--oracle-cap", "1000"), 2**31
        )
        assert proc.returncode == EXIT_BUDGET, proc.stderr[:300]
        assert proc.stderr == '{"error": {"type": "OracleBudgetExceeded", "message": "oracle budget exhausted"}}\n'
        assert not proc.stdout
        assert elapsed < 1.0, elapsed


def test_partial_scan_stops_each_level_at_the_budget():
    # At q = 99999/2 one prefix admits up to 99999 digits, so 100 prefixes
    # extended in full put about 10^7 rows in a level: past 1 GiB.
    proc, _ = run_limited(
        ("elasticity-scan", "--q", "99999/2", "--bound", "1" + "0" * 15, "--oracle-cap", "100"), 2**30
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), proc.stderr[-300:]
    assert proc.stdout.endswith("# manifest: partial rows=99\n")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "ae99e741fc995f2db32d1983a11fd2f282cdc2dd974e836a027fdb6df6d999f5"
    )


def test_partial_scans_near_one_stop_at_the_budget():
    # At bound 5, E is 1,609 at 1001/1000 and 16,095 at 10001/10000, on
    # integers of about 16k and 214k bits.  The first strings in lexicographic
    # order are zero on all but the lowest levels, so a walk that stops at the
    # budget pays for about the rows it keeps; one that carried `cap` prefixes
    # through all E + 1 levels took tens of seconds on both.  Never run these
    # bases at the default cap: 10^6 rows of 16k-bit values come to about 2.5 GB.
    for q, cap, seconds, digest in (
        ("1001/1000", 10000, 5.0, "48c26a16364f352a476ce955593f6b85d21c9da98488893beaeb366a33aad467"),
        ("10001/10000", 100, 10.0, "b6dfd5049aea766dbc9bed1a24b117e663609fcb6c84b0410ed618e4fa81d59d"),
    ):
        proc, elapsed = run_limited(("elasticity-scan", "--q", q, "--bound", "5", "--oracle-cap", str(cap)), 2**29)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), proc.stderr[-300:]
        assert proc.stdout.endswith(f"# manifest: partial rows={cap - 1}\n")
        assert elapsed < seconds, (q, elapsed)
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_huge_elasticity_targets_stop_phase_b_at_once():
    # At a target of 10^1000 every offset's shift count is far past the cap:
    # the score can fall by at most s - t per offset, so phase B stops at its
    # first offset instead of carrying 200 integers of 9k (3/2) to 19k (7/5) bits.
    for q, digest in (
        ("7/5", "8c2140c69f2729953a76277f685b96e185c2210d5c9a719ffb63a2e712049f15"),
        ("3/2", "2d0d9371f952e6118b6496b2b22bafc7ac59b9f89433ed5077e3483b12f495a5"),
    ):
        argv = ("construct-elasticity", "--q", q, "--target", "1" + "0" * 1000 + "/1")
        proc, elapsed = run_limited(argv, 2**31)
        assert (proc.returncode, proc.stdout) == (EXIT_BUDGET, ""), proc.stderr[:300]
        assert hashlib.sha256(proc.stderr.encode()).hexdigest() == digest
        assert elapsed < 2.0, elapsed


def test_construct_elasticity_near_one_exits_2_before_the_carry():
    # The first candidate a^N carries for about 6.4*10^8 levels at 10001/10000
    # and 3.7*10^9 at 100000001/100000000: the size check must refuse it
    # before its power or its carry.
    for q, target in (("10001/10000", "2"), ("100000001/100000000", "100000001/100000000")):
        proc, elapsed = run_limited(("construct-elasticity", "--q", q, "--target", target), 2**31)
        assert (proc.returncode, proc.stdout) == (EXIT_BUDGET, ""), proc.stderr[:300]
        assert json.loads(proc.stderr)["error"]["type"] == "OracleBudgetExceeded"
        assert elapsed < 2.0, elapsed


UNDERFLOW_A, UNDERFLOW_B = 10**400 + 1, 10**400  # (a-b)/b underflows a float
UNDERFLOW_Q = f"{UNDERFLOW_A}/{UNDERFLOW_B}"


@pytest.mark.parametrize(
    "argv, witness",
    [
        (("member", "--q", UNDERFLOW_Q, "--value", "2"), None),
        (("factorize", "--q", UNDERFLOW_Q, "--value", "2"), None),
        (("lengths", "--q", UNDERFLOW_Q, "--value", "2"), None),
        (("construct-elasticity", "--q", UNDERFLOW_Q, "--target", "2"), None),
        (("elasticity-scan", "--q", UNDERFLOW_Q, "--bound", "2"), None),
        (("antiprime", "--q", f"{UNDERFLOW_B}/{UNDERFLOW_A}", "--k", "0", "--K", "2"), None),
        # (a-b)/b is subnormal here, and log 2 over it overflows a float.
        (("member", "--q", f"{10**320 + 1}/{10**320}", "--value", "2"), None),
        (("member", "--q", UNDERFLOW_Q, "--value", UNDERFLOW_Q), [[1, 1]]),
        (("member", "--q", UNDERFLOW_Q, "--value", f"{UNDERFLOW_A**2}/{UNDERFLOW_B**2}"), [[2, 1]]),
    ],
)
def test_q_within_float_underflow_of_one(argv, witness, capsys):
    # log q is 0.0 as a float (or log x / log q is past any float): each input
    # answers or exits 2, with no traceback.
    code, out, err = run_cli(capsys, *argv)
    if witness is None:
        assert (code, out) == (EXIT_BUDGET, ""), err[:300]
        assert json.loads(err)["error"]["type"] == "OracleBudgetExceeded"
    else:
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["witness"] == witness


def test_construct_elasticity_scan_cap_errors(capsys):
    # The benchmark's four known construct-elasticity failures.
    for q, target in (("5/3", "19/2"), ("7/4", "17/1"), ("7/4", "18/1"), ("7/4", "19/1")):
        code, out, err = run_cli(capsys, "construct-elasticity", "--q", q, "--target", target)
        assert (code, out) == (EXIT_BUDGET, "")
        message = f"no base element with (s-t) | tL - s*ell found within scan cap 200 for target {target} at q={q}"
        assert err == json.dumps({"error": {"type": "ScanCapExceeded", "message": message}}) + "\n"


def test_integer_flag_errors(capsys):
    for argv, message in (
        (("member", "--q", "3/2", "--value", "3", "--oracle-cap", "0"),
         "argument --oracle-cap: expected a positive integer, got '0'"),
        (("construct-elasticity", "--q", "3/2", "--target", "2", "--scan-cap", "x"),
         "argument --scan-cap: expected a positive integer, got 'x'"),
        (("antiprime", "--q", "2/3", "--k", "-1", "--K", "3"),
         "argument --k: expected a nonnegative integer, got '-1'"),
        (("antiprime", "--q", "2/3", "--k", "1", "--K", "0"),
         "argument --K: expected a positive integer, got '0'"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_DOMAIN_ERROR, "")
        assert err == json.dumps({"error": {"type": "CliError", "message": message}}) + "\n"


def test_construct_elasticity_document(capsys):
    doc = run_json(capsys, "construct-elasticity", "--q", "3/2", "--target", "5/3", "--scan-cap", "200")
    assert doc["achieved"] == "5/3"
    assert doc["min_length"] == 9 and doc["max_length"] == 15
    steps = [entry["step"] for entry in doc["construction_log"]]
    assert "select" in steps and "shift" in steps


def test_scan_csv_and_manifest(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    code, out, err = run_cli(
        capsys, "elasticity-scan", "--q", "3/2", "--bound", "4", "--out", str(out_file)
    )
    assert code == EXIT_OK
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "value_num,value_den,min_len,max_len,elasticity"
    assert lines[-1].startswith("# manifest: complete")
    assert "3,1,2,3,3/2" in lines


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "elasticity-scan", "--q", "3/2", "--bound", "6")
    _, out2, _ = run_cli(capsys, "elasticity-scan", "--q", "3/2", "--bound", "6")
    assert out1 == out2
    _, again, _ = run_cli(capsys, "lengths", "--q", "3/2", "--value", "9", "--enumerate")
    _, again2, _ = run_cli(capsys, "lengths", "--q", "3/2", "--value", "9", "--enumerate")
    assert again == again2


def run_script(capsys, monkeypatch, name, *argv):
    """Run scripts/<name> in-process: (exit code, stdout, stderr)."""
    script = Path(__file__).resolve().parents[1] / "scripts" / name
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


def test_density_script_writes_the_cli_csv(capsys, tmp_path, monkeypatch):
    cli_csv, script_csv = tmp_path / "cli.csv", tmp_path / "script.csv"
    assert main(["elasticity-scan", "--q", "3/2", "--bound", "6", "--out", str(cli_csv)]) == EXIT_OK
    code, _, _ = run_script(capsys, monkeypatch, "density_scan.py", "--q", "3/2", "--bound", "6", "--out", str(script_csv))
    assert code == EXIT_OK
    assert script_csv.read_bytes() == cli_csv.read_bytes()
    # Empty scans, complete (nothing below 1) or cut by the budget, print
    # their header and no extremes.
    for argv, header in (
        (["--q", "3/2", "--bound", "1/2"], "q = 3/2: 0 elements up to 1/2 (complete)"),
        (["--q", "3/2", "--budget", "1"], "q = 3/2: 0 elements up to 30 (PARTIAL - budget hit)"),
    ):
        code, out, _ = run_script(capsys, monkeypatch, "density_scan.py", *argv)
        assert (code, out) == (EXIT_OK, f"{header}\n0 distinct elasticities\n")
    # A CLI error passes through: its JSON on stderr and its exit code.  The
    # script parses no value itself, so a malformed one is the CLI's error too.
    for q in ("1", "3/0"):
        code, out, err = run_script(capsys, monkeypatch, "density_scan.py", "--q", q)
        cli_code, _, cli_err = run_cli(capsys, "elasticity-scan", "--q", q, "--bound", "30", "--oracle-cap", "1000000")
        assert (code, out, err) == (cli_code, "", cli_err)
        assert code == EXIT_DOMAIN_ERROR


def test_density_script_reports_an_unwritable_out_path(capsys, tmp_path, monkeypatch):
    # The file is written before the summary: a path it cannot write prints
    # one line on stderr, nothing on stdout, and exits 1.
    path = tmp_path / "missing" / "scan.csv"
    code, out, err = run_script(capsys, monkeypatch, "density_scan.py", "--q", "3/2", "--bound", "6", "--out", str(path))
    assert (code, out) == (EXIT_DOMAIN_ERROR, "")
    assert err == f"--out: cannot write {str(path)!r}: No such file or directory\n"  # no traceback


def test_grid_script_matches_the_cli_certificates(capsys, monkeypatch):
    code, out, _ = run_script(capsys, monkeypatch, "full_elasticity_grid.py", "--smax", "5", "--bases", "3/2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "== q = 3/2 =="
    assert lines[-1].startswith("9 certificates, all exact")
    rows = lines[1:-2]
    assert len(rows) == 9
    for row in rows:
        target = row.split(":")[0].strip()
        doc = run_json(capsys, "construct-elasticity", "--q", "3/2", "--target", target, "--scan-cap", "200")
        assert row.endswith(f"lengths ({doc['min_length']}, {doc['max_length']})")
    # A larger grid, where some targets exceed the scan cap: each line,
    # certificate or failure, matches the CLI's answer for that target, and
    # the script exits 1 exactly when a target failed.
    code, out, _ = run_script(capsys, monkeypatch, "full_elasticity_grid.py", "--smax", "30", "--bases", "5/2")
    lines = out.strip().splitlines()
    assert lines[0] == "== q = 5/2 =="
    rows = lines[1:-2]
    failed = 0
    for row in rows:
        target = row.split(":")[0].strip()
        cli_code, cli_out, cli_err = run_cli(
            capsys, "construct-elasticity", "--q", "5/2", "--target", target, "--scan-cap", "200"
        )
        if cli_code == EXIT_OK:
            doc = json.loads(cli_out)
            assert row.endswith(f"lengths ({doc['min_length']}, {doc['max_length']})")
        else:
            failed += 1
            assert row == f"  {target}: exit {cli_code}, {json.loads(cli_err)['error']['type']}"
    assert len(rows) == sum(math.gcd(s, t) == 1 for s in range(2, 31) for t in range(1, s))
    assert code == (1 if failed else EXIT_OK)
    assert lines[-1].startswith(f"{len(rows) - failed} certificates, all exact")
    # A malformed base reaches the CLI as typed and fails there, once per target.
    code, out, _ = run_script(capsys, monkeypatch, "full_elasticity_grid.py", "--smax", "2", "--bases", "3/0")
    cli_code, _, cli_err = run_cli(capsys, "construct-elasticity", "--q", "3/0", "--target", "2/1", "--scan-cap", "200")
    error = json.loads(cli_err)["error"]["type"]
    assert out.strip().splitlines()[:2] == ["== q = 3/0 ==", f"  2/1: exit {cli_code}, {error}"]
    assert code == cli_code == EXIT_DOMAIN_ERROR


def test_omega_interval_document(capsys):
    doc = run_json(capsys, "omega-interval", "--q", "3/2", "--atom", "5/4")
    assert doc["omega"] == 4
    assert doc["conductor"] == 2
    assert doc["checks"]["blocked_outside_monoid"] is True
    assert doc["checks"]["divisible_inside_monoid"] is True


def test_antiprime_document(capsys):
    doc = run_json(capsys, "antiprime", "--q", "2/3", "--k", "0", "--K", "10")
    assert doc["N"] == 6
    assert doc["x"] == "64"
    assert doc["presentation"] == [[6, 729]]
    assert set(doc["checks"].values()) == {"pass"}


def test_antiprime_beyond_the_int_str_digit_limit(capsys):
    # x = 999^1609 has 4,826 digits, past CPython's default 4,300-digit
    # int/str conversion limit; the document must print and re-parse.  The
    # 2 s budget guards the closed-form witness (the chain took about 4 s).
    start = time.monotonic()
    doc = run_json(capsys, "antiprime", "--q", "999/1000", "--k", "0", "--K", "5")
    elapsed = time.monotonic() - start
    assert doc["N"] == 1609
    assert list(doc["checks"].values()) == ["pass"] * 4
    assert Fraction(doc["x"]) == Fraction(999**1609)
    assert len(doc["certificate"]["quotient"]) == 1609
    assert elapsed < 2.0, f"antiprime at N = 1609 took {elapsed:.2f}s"


def pairs_text(poly) -> str:
    return "".join(cli._pairs_json(poly))


def test_pairs_writer_matches_json_dumps_on_examples():
    geometric = {j: 998 * 1000**j for j in range(400)}
    broken = {**geometric, 200: geometric[200] + 1}
    for terms in (
        {},
        {5: 7},
        {0: 10**4000},
        geometric,
        broken,
        {0: 3, 1: 3 * 2**64, 2: 3 * 2**64 * 2**65, 3: 3 * 2**129 * 5},  # ratios of 2^64 and past it
        {0: 9, 4: 9, 9: 9},  # equal neighbours
        {0: 10**40, 1: 10**39, 2: 7},  # falling
        {j: 3**j for j in range(0, 3000, 7)},  # sparse degrees
    ):
        poly = NatPoly(terms)
        assert pairs_text(poly) == json.dumps(poly.to_pairs(), separators=(",", ":"))


ratio_steps = st.one_of(
    st.integers(min_value=1, max_value=2**70),  # exact multiples, short and past 2^64
    st.integers(min_value=-(2**70), max_value=2**70).map(lambda bump: ("add", bump)),
)


@given(st.integers(min_value=1, max_value=10**60), st.lists(ratio_steps, max_size=40))
@settings(max_examples=200, deadline=None)
def test_pairs_writer_matches_json_dumps(first, steps):
    coeffs = [first]
    for step in steps:
        if isinstance(step, tuple):
            coeffs.append(max(1, coeffs[-1] + step[1]))  # breaks the run, rises or falls
        else:
            coeffs.append(coeffs[-1] * step)
    poly = NatPoly({2 * j: c for j, c in enumerate(coeffs)})
    assert pairs_text(poly) == json.dumps(poly.to_pairs(), separators=(",", ":"))


@pytest.mark.parametrize("q", ["13/17", "2/3", "3/4", "5/7", "9/10", "99/100", "999/1000"])
def test_antiprime_documents_are_pinned(q):
    # The corpus pins their bytes; each document must also hold what its checks claim.
    argvs = [["antiprime", "--q", q, "--k", str(k), "--K", str(big_k)] for k in (0, 1, 3) for big_k in (1, 2, 5, 10)]
    for argv, code, out, err in pinned_outcomes("antiprime", argvs):
        assert (code, err) == (EXIT_OK, "")
        doc, base = json.loads(out), Fraction(q)
        x, atom, presentation = Fraction(doc["x"]), base ** doc["k"], NatPoly(dict(doc["presentation"]))
        assert [str(doc["k"]), str(doc["K"])] == argv[4::2] and set(doc["checks"].values()) == {"pass"}
        assert presentation.eval(base) == x and presentation.order() >= doc["N"] and doc["K"] * base ** doc["N"] < atom
        certificate = doc["certificate"]
        assert (Fraction(certificate["dividend"]), Fraction(certificate["divisor"])) == (x, atom)
        assert NatPoly(dict(certificate["quotient"])).eval(base) == x - atom


# The bench's enumerated values, 7/5, 8/5, denominators b^k (250/9, 457/16 and 121/10 with an inverse mod a
# other than 1), the integer base's one factorization and the empty factorization of 0.
ENUMERATED = [("3/2", "27"), ("3/2", "54"), ("3/2", "81"), ("5/3", "75"), ("5/3", "125"), ("7/4", "49"), ("7/4", "100")]
ENUMERATED += [("5/2", "125"), ("7/5", "49"), ("8/5", "64"), ("3/2", "339/32"), ("5/3", "250/9"), ("7/4", "457/16")]
ENUMERATED += [("11/10", "121/10"), ("3", "5"), ("3/2", "0")]


def test_factorize_enumerate_documents_are_pinned():
    # The corpus pins their bytes; each listed factorization must also be one, listed once, among them both extremes.
    argvs = [["factorize", "--q", q, "--value", value, "--enumerate"] for q, value in ENUMERATED]
    for argv, code, out, err in pinned_outcomes("enumerate", argvs):
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        found = doc["factorizations"]
        assert {NatPoly(dict(z)).eval(Fraction(argv[2])) for z in found} == {Fraction(argv[4])}, argv
        assert len({str(z) for z in found}) == len(found) and doc["min_factorization"] in found
        lengths = [NatPoly(dict(z)).length() for z in found]
        assert [NatPoly(dict(doc[f"{end}_factorization"])).length() for end in ("min", "max")] == [min(lengths), max(lengths)]


def test_antiprime_at_k_100_is_pinned_and_linear_in_its_output(capsys):
    # N = 4603 and a 32 MB document: a quotient of 4603 coefficients of up to
    # 13,800 digits.  Converting each integer in full took about 7 s.
    start = time.monotonic()
    code, out, err = run_cli(capsys, "antiprime", "--q", "999/1000", "--k", "0", "--K", "100")
    elapsed = time.monotonic() - start
    assert (code, err) == (EXIT_OK, "")
    assert len(out) == 31865730
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0ec5e28dc8b256006fb1a8973baa1c4b88c26937fcd34ea2a4512575f4c3d4e2"
    )
    assert elapsed < 2.0, f"antiprime at K = 100 took {elapsed:.2f}s"


def test_omega_interval_scales_to_huge_conductor(capsys):
    c = 10**30
    q = f"{c + 1}/{c}"
    start = time.monotonic()
    doc = run_json(capsys, "omega-interval", "--q", q, "--atom", q)
    elapsed = time.monotonic() - start
    assert doc["conductor"] == c
    assert doc["omega"] == c + 2
    assert elapsed < 1.0, f"omega-interval at c = 10^30 took {elapsed:.2f}s"


def test_documents_round_trip(capsys):
    from fractions import Fraction

    from cyclofact.polynomials import NatPoly
    from cyclofact.rationals import parse_rat

    doc = run_json(capsys, "lengths", "--q", "3/2", "--value", "9", "--enumerate")
    assert parse_rat(doc["q"]) == Fraction(3, 2)
    assert parse_rat(doc["value"]) == Fraction(9)
    assert parse_rat(doc["elasticity"]) == Fraction(3)
    witness = NatPoly(doc["min_factorization"])
    assert witness.eval(Fraction(3, 2)) == 9
    assert witness.length() == doc["min_length"]

    doc = run_json(capsys, "antiprime", "--q", "2/3", "--k", "0", "--K", "10")
    quotient = NatPoly(doc["certificate"]["quotient"])
    assert quotient.eval(Fraction(2, 3)) == parse_rat(doc["x"]) - parse_rat(
        doc["certificate"]["divisor"]
    )


def test_every_traced_layer_resolves():
    # bench/tracer.py wraps each LAYERS entry by module and attribute path;
    # a name that leaves the package would abort the traced bench run.
    tracer = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))
    for module_name, path in tracer["LAYERS"]:
        owner = sys.modules[f"{tracer['PACKAGE']}.{module_name}"]
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module_name, path)


def test_records_are_immutable_hashable_values():
    for a, b, message in ((4, 2, "lowest terms"), (2, 3, "q = a/b > 1"), (0, 1, "positive")):
        with pytest.raises(ValueError, match=message):
            RationalBase(a, b)
    base = RationalBase(3, 2)
    cert = construct_elasticity(base, Fraction(5, 3))
    for record, field in ((base, "a"), (cert, "min_len")):
        with pytest.raises(AttributeError):
            setattr(record, field, 7)
        assert not hasattr(record, "__dict__")
    stats, twin = length_stats(base, Fraction(9)), length_stats(RationalBase(3, 2), Fraction(9))
    assert stats == twin and hash(stats) == hash(twin)
    assert hash(base) == hash(RationalBase(3, 2))
    # _make and _replace validate as the constructor does; copies still round-trip.
    with pytest.raises(ValueError, match="lowest terms"):
        base._replace(a=4)
    with pytest.raises(ValueError, match="q = a/b > 1"):
        RationalBase._make((1, 5))
    for twin in (pickle.loads(pickle.dumps(base)), copy.copy(base)):
        assert (twin, type(twin)) == (base, RationalBase)
    with pytest.raises(ValueError):
        construct_elasticity(base, Fraction(1, 2))
    # The tracer rewraps a classmethod only when the class dict holds one.
    tracer = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))["Tracer"]()
    original = IntervalMonoid.__dict__["for_ratio"]
    assert isinstance(original, classmethod)
    tracer.install()
    try:
        assert IntervalMonoid.__dict__["for_ratio"] is not original
        assert IntervalMonoid.for_ratio(Fraction(3, 2)).conductor == 2
    finally:
        tracer.uninstall()
    assert IntervalMonoid.__dict__["for_ratio"] is original
    assert tracer.counts["omega.IntervalMonoid.for_ratio.conductor_sum"] == 2


def test_package_import_is_empty_and_cli_loads_every_traced_module():
    # The package re-exports nothing, so importing it loads no submodule;
    # bench/tracer.py finds each traced module in sys.modules after
    # importing cyclofact.cli alone.  The package holds only what the CLI
    # runs: that import loads every module in it.  Elasticity alone does not
    # load minimal_pair.
    tracer = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import cyclofact; "
        "bare = sorted(m for m in sys.modules if m.startswith('cyclofact.')); "
        "import cyclofact.elasticity; "
        "alone = sorted(m for m in sys.modules if m.startswith('cyclofact.')); "
        "import cyclofact.cli; print(json.dumps([bare, alone, sorted(sys.modules)]))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    bare, alone, loaded = json.loads(proc.stdout)
    assert bare == []
    assert {f"{tracer['PACKAGE']}.{m}" for m, _ in tracer["LAYERS"]} <= set(loaded)
    shipped = {f"cyclofact.{path.stem}" for path in Path(cli.__file__).parent.glob("*.py")} - {"cyclofact.__init__"}
    assert shipped <= set(loaded), shipped - set(loaded)
    assert "cyclofact.minimal_pair" not in alone
    # The records are NamedTuples: no dataclasses, and so no inspect, at startup.
    assert not {"dataclasses", "inspect"} & set(loaded)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclofact.cli", "member", "--q", "3/2", "--value", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["member"] is True


# Each run, from the repository root, writes to a pipe whose reader is
# already gone. Buffered, a short output fails only at the flush at exit; a
# long one (23 MB at bound 400), and any output unbuffered, fails at the write.
CLOSED_PIPE_RUNS = [
    ("-m", "cyclofact.cli", "member", "--q", "3/2", "--value", "9"),
    ("-m", "cyclofact.cli", "elasticity-scan", "--q", "3/2", "--bound", "20"),
    ("-m", "cyclofact.cli", "elasticity-scan", "--q", "3/2", "--bound", "400"),
    ("-m", "cyclofact.cli", "member", "--help"),
    ("-u", "-m", "cyclofact.cli", "member", "--q", "3/2", "--value", "9"),
    ("scripts/density_scan.py", "--q", "3/2", "--bound", "20"),
    ("scripts/full_elasticity_grid.py", "--smax", "3"),
]


@pytest.mark.parametrize("args", CLOSED_PIPE_RUNS, ids=" ".join)
def test_a_closed_stdout_ends_the_run_quietly(args):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            stdout=write,
            stderr=subprocess.PIPE,
            cwd=Path(__file__).resolve().parents[1],
            env=env,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (EXIT_OK, "")


# argvs that _parse_exact leaves to argparse: help, a usage error, an
# abbreviation, a store_true option given a value
FALLBACK_ARGVS = [
    ["member", "--help"],
    ["member", "--q", "3/2"],
    ["member", "--val", "3", "--q", "3/2"],
    ["factorize", "--q", "3/2", "--value", "9", "--enumerate=1"],
]


def run_via_argparse(capsys, monkeypatch, *argv):
    """run_cli(argv) with every argv left to argparse."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_exact", lambda name, argv: None)
        return run_cli(capsys, *argv)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_table_route_parses_like_argparse_on_16_shapes(name, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # elasticity-scan's valid argv writes --out
    for argv in parser_shapes(name):
        assert run_cli(capsys, *argv) == run_via_argparse(capsys, monkeypatch, *argv), argv
    assert cli._parse_exact(name, VALID_ARGV[name]) is not None


def option_tokens(name):
    """The valued options of `name`, and each option string, abbreviation and `=` spelling."""
    flags = [flag for flag, _ in COMMANDS[name][2] if flag.startswith("--")]
    valued = [flag for flag, spec in COMMANDS[name][2] if flag in flags and "action" not in spec]
    prefixes = [flag[:k] for flag in flags for k in range(3, len(flag))]
    return valued, [*flags, *prefixes, *(f"{flag}={v}" for flag in flags for v in ("3/2", "-3", ""))]


ODD_TOKENS = ["--", "-", "-h"]
VALUE_TOKENS = ["3/2", "9", "2/3", "13/4", "0", "7", "-3", "-3/2", "", "x/y", "3/0", "X^2 - 3X + 1"]


@pytest.mark.parametrize("name", list(COMMANDS))
@given(data=st.data())
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # the fixtures hold no per-example state
)
def test_exact_parse_agrees_with_argparse(name, data, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # elasticity-scan's --out writes here
    valued, options = option_tokens(name)
    value = st.one_of(st.sampled_from(["9", "7"]), st.sampled_from(VALUE_TOKENS))  # 9 and 7 pass every type

    def spelled(flag):  # flag and a drawn value, as two tokens or joined by "="
        return st.builds(lambda text, joined: [f"{flag}={text}"] if joined else [flag, text], value, st.booleans())

    # Every valued option in a drawn order, the first maybe dropped and one
    # maybe repeated, with up to two other tokens put in anywhere.
    chunks = [data.draw(spelled(flag)) for flag in data.draw(st.permutations(valued))]
    repeat = data.draw(st.lists(st.sampled_from(valued).flatmap(spelled), max_size=1))
    chunks = chunks[data.draw(st.integers(0, 1)) :] + repeat
    for token in data.draw(st.lists(st.sampled_from(options + ODD_TOKENS + VALUE_TOKENS), max_size=2)):
        chunks.insert(data.draw(st.integers(0, len(chunks))), [token])
    argv = sum(chunks, [])
    exact = cli._parse_exact(name, argv)
    if exact is not None:
        assert vars(exact) == vars(build_parser().parse_args([name, *argv])), argv
    assert run_cli(capsys, name, *argv) == run_via_argparse(capsys, monkeypatch, name, *argv), argv


def count_parsers(monkeypatch):
    """The prog of each _Parser built from here on, in order."""
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, **kw: built.append(kw["prog"]) or init(self, **kw))
    return built


def test_main_builds_only_the_named_subcommand(capsys, monkeypatch):
    # A plain argv, `=` spellings included, is read off the named
    # subcommand's rows alone and builds no parser, sys.argv included.
    built = count_parsers(monkeypatch)
    read = []
    parse_exact = cli._parse_exact
    monkeypatch.setattr(cli, "_parse_exact", lambda name, argv: read.append(name) or parse_exact(name, argv))
    plain = run_cli(capsys, "member", "--q", "3/2", "--value", "3")
    assert plain[0] == EXIT_OK
    assert run_cli(capsys, "member", "--q=3/2", "--value=3") == plain
    # A joined value may start with "-"; here it is the handler that rejects it.
    assert run_cli(capsys, "member", "--q=3/2", "--value=-3")[0] == EXIT_DOMAIN_ERROR
    assert run_cli(capsys, "minimal-pair", "X^2 - 3X + 1")[0] == EXIT_OK
    monkeypatch.setattr(sys, "argv", ["cyclofact", "lengths", "--q=3/2", "--value", "9"])
    assert main() == EXIT_OK
    capsys.readouterr()
    assert read == ["member"] * 3 + ["minimal-pair", "lengths"]
    assert built == []


def test_parsers_built_per_call(capsys, monkeypatch):
    # A plain argv and an unknown subcommand build no parser; any other argv
    # builds the whole tree once: the top-level parser and one subparser per
    # subcommand.
    built = count_parsers(monkeypatch)
    assert run_cli(capsys, "member", "--q", "3/2", "--value", "3")[0] == EXIT_OK
    assert run_cli(capsys, "bogus")[0] == EXIT_DOMAIN_ERROR
    assert built == []
    tree = ["cyclofact", *(f"cyclofact {name}" for name in COMMANDS)]
    codes = [("exit", 0), EXIT_DOMAIN_ERROR, EXIT_OK, EXIT_DOMAIN_ERROR, ("exit", 0)]
    for argv, code in zip([*FALLBACK_ARGVS, ["--help"]], codes):
        assert run_cli(capsys, *argv)[0] == code, argv
        assert built == tree, argv
        built.clear()


def test_scripts_build_no_parser(capsys, monkeypatch):
    # Every call the scripts make is plain, spelled --flag=value.
    built = count_parsers(monkeypatch)
    assert run_script(capsys, monkeypatch, "full_elasticity_grid.py", "--smax", "3")[0] == EXIT_OK
    assert run_script(capsys, monkeypatch, "density_scan.py", "--q", "3/2", "--bound", "6")[0] == EXIT_OK
    assert built == []


def test_other_first_arguments_build_the_whole_tree(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert len(COMMANDS) == 8
    choices = "{" + ",".join(COMMANDS) + "}"
    choose_from = "(choose from " + ", ".join(map(repr, COMMANDS)) + ")"
    code, out, err = run_cli(capsys)
    assert code == EXIT_DOMAIN_ERROR
    assert "required: subcommand" in json.loads(err)["error"]["message"]
    for argv in (["--help"], ["-h", "member"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert choices in capsys.readouterr().out
    # build_parser() is the whole tree, as the bench setup timer builds it.
    # Its message is argparse's own, which quotes the choices up to CPython
    # 3.13.0 and not in 3.13.13.
    with pytest.raises(CliError) as exc:
        build_parser().parse_args(["bogus"])
    assert str(exc.value) in (
        "argument subcommand: invalid choice: 'bogus' " + choose_from,
        "argument subcommand: invalid choice: 'bogus' " + choose_from.replace("'", ""),
    )


@pytest.mark.parametrize("argv", [["bogus"], ["bogus", "--help"], [""], ["bogus", "--q", "3/2"], ["Member"]])
def test_unknown_subcommand_quotes_the_choices_on_every_python(argv, capsys):
    # main refuses the first token itself, in the words of argparse up to
    # 3.13.0, and never prints help.
    choose_from = "(choose from " + ", ".join(map(repr, COMMANDS)) + ")"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_DOMAIN_ERROR, "")
    assert json.loads(err)["error"] == {
        "type": "CliError",
        "message": f"argument subcommand: invalid choice: {argv[0]!r} {choose_from}",
    }
