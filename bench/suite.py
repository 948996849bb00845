"""Run every workload over several seeds, plus one traced run each, and report.

    python3 bench/suite.py [--seeds 1 2 3] [--seconds 20] [--out bench/BENCH_<n>.json]

Each run is a fresh ``bench/run.py`` process, so peak RSS is per workload.
Prints one row per workload with the median of every end-to-end metric over
the seeds, its spread (distance between the first and third quartile as a
share of the median, against a third of the bound in BENCHMARK.json), the
failure fraction and the known failures; then every per-layer metric of the
traced run.  --out writes all of it, with the machine it ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed with status {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpu_model": model,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[workloads.DEFAULT_SEED])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the results as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "date": time.strftime("%Y-%m-%d"), "seconds": args.seconds,
              "seeds": args.seeds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, False)
            runs.append(result)
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), file=sys.stderr, flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "unit": units[name],
                             "spread": spread(values), "bound": bounds[name], "values": values}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "why": workloads.WHY[workload],
            "known_failures": [" ".join(argv) for argv in workloads.KNOWN_FAILURES[workload]],
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "end_to_end": summary,
        }
        entry["trace"] = run_once(workload, workloads.DEFAULT_SEED, args.seconds, True)["metrics"]
        report["workloads"][workload] = entry

    names = list(bounds)
    print(f"\nend-to-end: median over seeds {args.seeds}, {args.seconds:g} s per run "
          f"(spread = IQR/median; * marks spread >= bound/3)")
    header = f"{'workload':10s}" + "".join(f"{n + ' [' + units[n] + ']':>22s}" for n in names) + f"{'fail_frac':>12s}"
    print(header)
    for workload, entry in report["workloads"].items():
        cells = []
        for n in names:
            s = entry["end_to_end"][n]
            flag = "*" if s["spread"] >= s["bound"] / 3 else " "
            cells.append(f"{s['median']:>12.5g} ±{s['spread'] * 100:5.1f}%{flag}")
        print(f"{workload:10s}" + "".join(f"{c:>22s}" for c in cells) + f"{entry['fail_frac']:>12.4f}")
    traced = {w: e["trace"] for w, e in report["workloads"].items()}
    print(f"\nper layer: traced run, seed {workloads.DEFAULT_SEED}, per traced pass")
    print(f"{'metric':58s}{'unit':>11s}" + "".join(f"{w:>14s}" for w in traced))
    first = next(iter(traced.values()))
    for name, m in first.items():
        print(f"{name:58s}{m['unit']:>11s}" + "".join(f"{traced[w][name]['value']:>14.6g}" for w in traced))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
