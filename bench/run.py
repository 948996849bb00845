"""cyclofact benchmark: one closed-loop client driving the real CLI in-process.

    python3 bench/run.py --workload semiring|certify --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``, and the run refuses to start without it.  One process, one thread:
each op is ``cyclofact.cli.main(argv)`` with stdout and stderr captured, and
the next op starts only after the previous one returns.  The op list of a
pass comes from ``workloads.generate(workload, seed)``; passes repeat until
``--seconds`` have gone by and at least three passes ran.

Every exit-0 output of the first pass is re-checked by ``checker`` (which
does not import cyclofact); later passes must print the same bytes.  Only
the ops in ``workloads.KNOWN_FAILURES`` may exit non-zero; they count as
failed ops.  For the default seed every other op must print exactly the
bytes whose digest ``digests.json`` pins.  A wrong answer, a new failure or
a changed or unpinned output aborts the run with exit status 1 and no
result line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* setup_s      lowest wall time over several fresh interpreters importing
               cyclofact.cli and building its parser (what every CLI
               invocation pays first)
* wall_s       one pass: the sum over ops of each op's lowest time over passes
* op_p50_ms    median over ops of each op's lowest time
* op_p90_ms    90th percentile of the same per-op times
* ok_frac      ops that exit 0 / ops attempted (1 - fail_frac)
* peak_rss_mb  peak RSS of this process, which runs only this workload

With ``--trace 1`` a warm-up pass is followed by alternating traced and
untraced passes.  The result reports the per-layer metrics of the traced
passes (per pass) and trace.overhead_frac; the spans and a per-op table of
input size and per-layer self time go to
``bench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PYCACHE = OUT_DIR / "pycache"  # bytecode of the program goes here, not under src/
DIGESTS = BENCH_DIR / "digests.json"

sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
MIN_PASSES = 3
SETUP_SPAWNS = 11  # 3 before the first pass, then 2 after each pass until 11
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import cyclofact.cli as cli; cli.build_parser()"


class Abort(Exception):
    """A wrong or unstable answer: the run stops without a result."""


def load_cli():
    """Import cyclofact.cli from this checkout's src/, and from nowhere else."""
    package = SRC / "cyclofact"
    if not (package / "cli.py").is_file():
        raise Abort(f"no cyclofact sources at {package}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(PYCACHE)
    import cyclofact.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise Abort(f"imported cyclofact from {cli.__file__}, not from {package}")
    return cli


class SetupTimer:
    """Seconds for a fresh interpreter to import the CLI and build its parser.

    Samples are spread over the run, between passes, and the lowest one is
    reported: the same estimator as the op times (see ``op_times``).
    """

    def __init__(self):
        self.cmd = [sys.executable, "-I", "-X", f"pycache_prefix={PYCACHE}", "-c", SETUP_CODE, str(SRC)]
        subprocess.run(self.cmd, check=True, timeout=60)  # writes bytecode caches, untimed
        self.times: list[float] = []

    def sample(self, count: int) -> None:
        for _ in range(min(count, SETUP_SPAWNS - len(self.times))):
            # A blocking wait: Popen.wait(timeout) polls with sleeps of up to
            # 50 ms, which would round every sample up to its polling grid.
            start = time.perf_counter()
            proc = subprocess.Popen(self.cmd)
            guard = threading.Timer(60, proc.kill)
            guard.start()
            code = proc.wait()
            seconds = time.perf_counter() - start
            guard.cancel()
            if code != 0:
                raise subprocess.CalledProcessError(code, self.cmd)
            self.times.append(seconds)


def run_op(cli, argv) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process CLI call.

    The call starts from a collected heap, as a fresh CLI process would, so
    cyclic garbage left by earlier ops (argparse builds a new parser on every
    call) is not collected, or kept, at a point that depends on the op order.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # an uncaught error ends a CLI process with status 1
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def load_pinned(workload: str, seed: int) -> dict[str, str] | None:
    """The pinned stdout digests of the default seed; None for other seeds."""
    if seed != workloads.DEFAULT_SEED:
        return None
    if not DIGESTS.is_file():
        raise Abort(f"{DIGESTS} is missing; write it with bench/pin_digests.py")
    return json.loads(DIGESTS.read_text())[workload]


def op_key(argv) -> str:
    return json.dumps(list(argv))


class Client:
    """Runs passes over one op list and checks every answer.

    known maps the argv of each op allowed to fail to its expected exit code;
    pinned maps op keys to stdout digests (None: no digests to compare).
    """

    def __init__(self, cli, ops, known: dict[tuple[str, ...], int], pinned: dict[str, str] | None):
        self.cli = cli
        self.ops = ops
        self.known = known
        self.pinned = pinned
        self.first: list[tuple[int, str] | None] = [None] * len(ops)
        self.sizes = [op.size for op in ops]
        self.stdout_bytes = [0] * len(ops)

    def verify(self, i: int, code: int, out: str) -> None:
        op = self.ops[i]
        digest = hashlib.sha256(out.encode()).hexdigest()
        first = self.first[i]
        if first is not None:
            if first != (code, digest):
                raise Abort(f"{op_key(op.argv)}: output changed between passes")
            return
        known = op.argv in self.known
        if code != 0 and not known:
            raise Abort(f"{op_key(op.argv)}: exits {code} and is not a known failure")
        if code == 0:
            try:
                rows = checker.check(op.argv, op.expect, out)
            except checker.CheckError as exc:
                raise Abort(f"{op_key(op.argv)}: wrong answer: {exc}") from None
            if rows is not None:
                self.sizes[i] = rows
        if self.pinned is not None and not known:
            pinned = self.pinned.get(op_key(op.argv))
            if pinned is None:
                raise Abort(f"{op_key(op.argv)}: no pinned digest; re-pin with bench/pin_digests.py")
            if pinned != digest:
                raise Abort(f"{op_key(op.argv)}: stdout differs from the pinned digest")
        self.first[i] = (code, digest)
        self.stdout_bytes[i] = len(out.encode())

    def run_pass(self, tracer=None) -> list[tuple[int, float]]:
        """(exit code, seconds) per op, in op-list order."""
        results = []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            code, out, _, seconds = run_op(self.cli, op.argv)
            self.verify(i, code, out)
            results.append((code, seconds))
        return results


def op_times(passes) -> list[float]:
    """Each op's lowest time over the passes.

    On shared cores the same op can take twice as long while a neighbour is
    busy, in spells of seconds to minutes.  The lowest of an op's samples,
    taken seconds apart, is the one least disturbed; it varies far less from
    run to run than the median (the estimator ``timeit`` uses for the same
    reason).
    """
    return [min(run[i][1] for run in passes) for i in range(len(passes[0]))]


def pass_time(passes) -> float:
    """One pass: the sum of the ops' lowest times."""
    return sum(op_times(passes))


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    per_op = op_times(passes)
    attempted = sum(len(run) for run in passes)
    failed = sum(code != 0 for run in passes for code, _ in run)
    return {
        "setup_s": setup_s,
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": statistics.quantiles(per_op, n=10)[8] * 1e3,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tr, client, traced, untraced) -> dict[str, float]:
    """Per-layer metrics per traced pass, plus the tracing overhead."""
    n = len(traced)
    calls, self_s, _ = tr.layer_totals()
    values: dict[str, float] = {}
    for i, name in enumerate(tracing.LAYER_NAMES):
        values[f"{name}.calls"] = calls[i] / n
        values[f"{name}.self_s"] = self_s[i] / n
    for name, count in tr.counts.items():
        values[name] = count / n
    derived = tr.derived_counts()
    rows = values.get("elasticity.elasticity_scan.rows", 0)
    values["elasticity.elasticity_scan.witness_calls_per_row"] = (
        derived["witness_calls_in_scan"] / n / rows if rows else 0.0
    )
    candidates = derived["candidates"] / n
    values["elasticity.construct_elasticity.candidates"] = candidates
    certs = values.pop("elasticity.construct_elasticity.certs", 0)
    values["elasticity.construct_elasticity.certs_per_candidate"] = certs / candidates if candidates else 0.0
    values["cli.stdout_bytes"] = sum(client.stdout_bytes)
    values["cli.exit1"] = sum(code == 1 for run in traced for code, _ in run) / n
    values["cli.exit2"] = sum(code == 2 for run in traced for code, _ in run) / n
    values["trace.overhead_frac"] = pass_time(traced) / pass_time(untraced) - 1
    metrics = {}
    for name, unit, _ in tracing.metric_specs():
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    return metrics


def write_trace(path: Path, workload: str, seed: int, tr, client, traced) -> None:
    """Spans and the per-op scaling table, written once at the end of the run."""
    _, _, per_op = tr.layer_totals()
    n = len(traced)
    origin = tr.spans[0][3] if tr.spans else 0.0
    ops = []
    for i, op in enumerate(client.ops):
        own = per_op.get(i, [0.0] * len(tracing.LAYER_NAMES))
        ops.append(
            {
                "argv": list(op.argv),
                "size_kind": op.size_kind,
                "size": client.sizes[i],
                "exit": traced[0][i][0],
                "seconds": statistics.median(run[i][1] for run in traced),
                "self_s": {name: own[j] / n for j, name in enumerate(tracing.LAYER_NAMES) if own[j]},
            }
        )
    doc = {
        "workload": workload,
        "seed": seed,
        "traced_passes": n,
        "layers": list(tracing.LAYER_NAMES),
        "ops": ops,
        "span_fields": list(tracing.SPAN_FIELDS),
        "spans": [[s[0], s[1], s[2], round(s[3] - origin, 7), round(s[4] - origin, 7)] for s in tr.spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_cli()
    os.environ.pop("CYCLOFACT_ORACLE_CAP", None)
    ops = workloads.generate(workload, seed)
    known = workloads.KNOWN_FAILURES[workload]
    client = Client(cli, ops, known, load_pinned(workload, seed))
    if not trace:
        setup = SetupTimer()
        setup.sample(3)
        start = time.perf_counter()
        passes = []
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(client.run_pass())
            setup.sample(2)
        values = end_to_end(passes, min(setup.times))
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    else:
        # The first pass is slower than later ones (the allocator grows the heap),
        # so it only warms up and checks; traced and untraced passes then alternate.
        tr = tracing.Tracer()
        start = time.perf_counter()
        warmup, untraced, traced = client.run_pass(), [], []
        while not traced or time.perf_counter() - start < seconds:
            tr.install()
            try:
                traced.append(client.run_pass(tr))
            finally:
                tr.uninstall()
            untraced.append(client.run_pass())
        passes = [warmup] + untraced + traced
        metrics = layer_metrics(tr, client, traced, untraced)
        write_trace(OUT_DIR / f"trace-{workload}-seed{seed}.json", workload, seed, tr, client, traced)
    for op, (code, _) in zip(client.ops, client.first):
        if op.argv in known and code != known[op.argv]:
            print(f"bench: known failure {op_key(op.argv)} exits {code}, expected {known[op.argv]}", file=sys.stderr)
    return {
        "correct": True,
        "attempted": sum(len(run) for run in passes),
        "failed": sum(code != 0 for run in passes for code, _ in run),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Abort as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
