"""Self-tests of the benchmark: seeding, the checker, failures, the tracer.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _argvs(workload, seed):
    return [op.argv for op in workloads.generate(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv_list(workload):
    assert _argvs(workload, 11) == _argvs(workload, 11)
    assert _argvs(workload, 11) != _argvs(workload, 12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_keeps_slot_profile(workload):
    """Seeds change instances and order, not how many ops of each kind run."""

    def profile(seed):
        def base(argv):
            return argv[argv.index("--q") + 1] if "--q" in argv else ""

        return sorted((op.argv[0], base(op.argv), op.size_kind) for op in workloads.generate(workload, seed))

    assert profile(1) == profile(2)
    assert len(_argvs(workload, 1)) >= 100


def test_checker_imports_only_fractions_and_json():
    tree = ast.parse((BENCH_DIR / "checker.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"fractions", "json"}


def _set_pair(key, index, delta):
    def mutate(doc):
        doc[key][index][1] += delta

    return mutate


def _set(key, value):
    def mutate(doc):
        doc[key] = value

    return mutate


def _set_check(name, value):
    def mutate(doc):
        doc["checks"][name] = value

    return mutate


# (argv, expect, mutations that a correct program could not print)
CASES = [
    (
        ("member", "--q", "3/2", "--value", "13/4"),
        {"q": "3/2", "value": "13/4", "member": True},
        [_set_pair("witness", 0, 1), _set("member", False)],
    ),
    (
        ("member", "--q", "5/3", "--value", "1/7"),
        {"q": "5/3", "value": "1/7", "member": False},
        [_set("member", True), _set("witness", [[0, 1]])],
    ),
    (
        ("factorize", "--q", "3/2", "--value", "9", "--enumerate"),
        {"q": "3/2", "value": "9", "member": True},
        [_set_pair("max_factorization", 0, 1), _set_pair("min_factorization", -1, 2), _set("factorizations", [])],
    ),
    (
        ("lengths", "--q", "3/2", "--value", "9", "--enumerate"),
        {"q": "3/2", "value": "9", "member": True},
        [_set("elasticity", "4"), _set("max_length", 8), _set("length_set", list(range(2, 10)))],
    ),
    (
        ("construct-elasticity", "--q", "3/2", "--target", "5/3"),
        {"q": "3/2", "target": "5/3"},
        [_set("achieved", "7/4"), _set_pair("presentation", 0, 1), _set("min_length", 4)],
    ),
    (
        ("omega-interval", "--q", "3/2", "--atom", "5/4"),
        {"q": "3/2", "atom": "5/4"},
        [_set("omega", 5), _set("witness", "3/2"), _set("conductor", 3)],
    ),
    (
        ("antiprime", "--q", "2/3", "--k", "0", "--K", "10"),
        {"q": "2/3", "k": 0, "K": 10, "N": 6},
        [_set_check("K_atoms_cannot_reach", "fail"), _set_pair("presentation", 0, 1), _set("N", 5)],
    ),
    (
        ("minimal-pair", "X^2 - 3/2*X + 1"),
        {"poly": [[2, "1"], [1, "-3/2"], [0, "1"]]},
        [_set("ell", 4), _set_pair("p", 0, 1), _set("q0", [])],
    ),
]


@pytest.mark.parametrize("argv, expect, mutations", CASES, ids=[c[0][0] + ":" + c[0][-1] for c in CASES])
def test_checker_accepts_real_output_and_rejects_mutations(cli, argv, expect, mutations):
    code, out, _, _ = run.run_op(cli, argv)
    assert code == 0
    checker.check(argv, expect, out)
    for mutate in mutations:
        doc = json.loads(out)
        mutate(doc)
        with pytest.raises(checker.CheckError):
            checker.check(argv, expect, json.dumps(doc, separators=(",", ":")) + "\n")


def test_checker_rejects_mutated_scan(cli):
    argv = ("elasticity-scan", "--q", "3/2", "--bound", "10")
    expect = {"q": "3/2", "bound": "10"}
    code, out, _, _ = run.run_op(cli, argv)
    assert code == 0
    assert checker.check(argv, expect, out) == 77
    lines = out.split("\n")
    dropped = "\n".join(lines[:5] + lines[6:])
    num, den, lo, hi, _ = lines[5].split(",")
    wrong_ratio = "\n".join(lines[:5] + [f"{num},{den},{lo},{hi},{int(hi) + 1}/{lo}"] + lines[6:])
    beyond = "\n".join(lines[:-2] + ["21,2,1,1,1", lines[-2].replace("77", "78"), ""])
    for bad in (dropped, wrong_ratio, beyond):
        with pytest.raises(checker.CheckError):
            checker.check(argv, expect, bad)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_failures_are_present_and_counted(cli, workload):
    known = workloads.KNOWN_FAILURES[workload]
    ops = workloads.generate(workload, 5)
    failing = [op for op in ops if op.argv in known]
    assert sorted(op.argv for op in failing) == sorted(known)
    passing = [op for op in ops if op.argv not in known and op.argv[0] in ("member", "minimal-pair", "elasticity-scan")][:3]
    client = run.Client(cli, failing + passing, known, None)
    results = client.run_pass()
    assert [code for code, _ in results[: len(failing)]] == [known[op.argv] for op in failing]
    assert all(code == 0 for code, _ in results[len(failing) :])
    metrics = run.end_to_end([results], setup_s=0.1)
    assert metrics["ok_frac"] == len(passing) / len(results)


def test_known_failure_list_is_complete():
    certify = workloads.KNOWN_FAILURES["certify"]
    assert sorted(certify.values()) == [1, 2, 2, 2, 2]
    assert list(workloads.KNOWN_FAILURES["semiring"].values()) == [2, 2]


def test_wrong_answer_aborts_the_run(cli):
    op = workloads.Op(("member", "--q", "3/2", "--value", "13/4"), "bits", 4, {"q": "3/2", "value": "13/4", "member": False})
    with pytest.raises(run.Abort, match="wrong answer"):
        run.Client(cli, [op], {}, None).run_pass()
    good = workloads.Op(op.argv, "bits", 4, dict(op.expect, member=True))
    with pytest.raises(run.Abort, match="differs from the pinned digest"):
        run.Client(cli, [good], {}, {run.op_key(op.argv): "0" * 64}).run_pass()
    with pytest.raises(run.Abort, match="no pinned digest"):
        run.Client(cli, [good], {}, {}).run_pass()


def test_new_failure_aborts_the_run(cli):
    """An op outside the known failures that exits non-zero aborts, pinned or not."""
    (argv, code), _ = workloads.KNOWN_FAILURES["semiring"].items()
    op = workloads.Op(argv, "bits", 13, {"q": "3/2", "value": "6561", "member": True})
    assert run.Client(cli, [op], {argv: code}, {}).run_pass()[0][0] == code
    for pinned in (None, {run.op_key(argv): "0" * 64}):
        with pytest.raises(run.Abort, match=f"exits {code} and is not a known failure"):
            run.Client(cli, [op], {}, pinned).run_pass()


def test_default_seed_requires_pinned_digests(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")
    assert run.load_pinned("semiring", workloads.DEFAULT_SEED + 1) is None
    with pytest.raises(run.Abort, match="missing"):
        run.load_pinned("semiring", workloads.DEFAULT_SEED)


def test_tracer_restores_every_binding_and_counts(cli):
    import cyclofact.cli
    import cyclofact.elasticity
    import cyclofact.omega
    import cyclofact.polynomials
    import cyclofact.semiring

    before = (
        cyclofact.cli.member_witness,
        cyclofact.elasticity.member_witness,
        cyclofact.semiring.member_witness,
        cyclofact.omega.IntervalMonoid.__dict__["for_ratio"],
        "eval" in cyclofact.polynomials.NatPoly.__dict__,
    )
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cyclofact.cli.member_witness is cyclofact.elasticity.member_witness is cyclofact.semiring.member_witness
        assert cyclofact.cli.member_witness is not before[0]
        tr.op = 0
        code, out, _, _ = run.run_op(cli, ("construct-elasticity", "--q", "3/2", "--target", "5/3"))
    finally:
        tr.uninstall()
    after = (
        cyclofact.cli.member_witness,
        cyclofact.elasticity.member_witness,
        cyclofact.semiring.member_witness,
        cyclofact.omega.IntervalMonoid.__dict__["for_ratio"],
        "eval" in cyclofact.polynomials.NatPoly.__dict__,
    )
    assert after == before
    assert code == 0
    calls, self_s, per_op = tr.layer_totals()
    by_name = dict(zip(tracing.LAYER_NAMES, calls))
    assert by_name["cli.main"] == 1
    assert by_name["elasticity.construct_elasticity"] == 1
    assert by_name["elasticity.forced_atom_shift"] == 1
    assert tr.derived_counts()["candidates"] >= 1
    assert all(s >= -1e-6 for s in tr.self_times())
    assert abs(sum(self_s) - (tr.spans[0][4] - tr.spans[0][3])) < 1e-6


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.metric_specs()
