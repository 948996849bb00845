"""Pin the stdout digest of every default-seed op that succeeds.

    python3 bench/pin_digests.py

Runs one checked pass of each workload at the default seed and writes
``bench/digests.json``: per workload, the sha256 of each exit-0 op's stdout.
``run.py`` compares default-seed outputs against it, so any change to the
bytes of an answer that succeeds today aborts the benchmark.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    cli = run.load_cli()
    pinned = {}
    for workload in workloads.WORKLOADS:
        known = workloads.KNOWN_FAILURES[workload]
        client = run.Client(cli, workloads.generate(workload, workloads.DEFAULT_SEED), known, None)
        client.run_pass()
        pinned[workload] = {
            run.op_key(op.argv): digest
            for op, (_, digest) in zip(client.ops, client.first)
            if op.argv not in known
        }
    run.DIGESTS.write_text(json.dumps(pinned, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
