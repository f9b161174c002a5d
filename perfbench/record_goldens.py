"""Write goldens.json: the sha256 and length of every document on the default seed.

Run from the repository root, on the commit whose output is the contract:

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import sys
import time

import run
from workloads import DEFAULT_SEED, WORKLOADS, commands_for


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    goldens = {}
    for workload in sorted(WORKLOADS):
        commands = commands_for(workload, DEFAULT_SEED)
        result = run.run_pass(commands, False, time.monotonic() + 600, None)
        for cmd, outcome in zip(commands, result.outcomes):
            if outcome.failures:
                print(f"error: {cmd.name}: {outcome.failures}", file=sys.stderr)
                return 1
            if cmd.reads is None:
                goldens[cmd.name] = {"sha256": outcome.sha256, "bytes": outcome.doc_bytes}
    run.GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
