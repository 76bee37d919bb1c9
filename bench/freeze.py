"""Pin the expected output of every request the workloads can issue.

Usage, from the root of a checkout: ``python3 bench/freeze.py``.  Runs each
argv of every workload's pool through ``chesscount.cli.main`` in this process
and writes the SHA-256 of its stdout to ``bench/pins.json``.  The pins are
the benchmark's record of the right answers: regenerate them only at a
commit whose output is known to be right, and never to make a failing run
pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from chesscount import cli

    pins = {}
    for workload in sorted(workloads.SLOTS):
        for argv in workloads.pool(workload):
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
            if code != 0:
                print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
                return 1
            digest = hashlib.sha256(captured.getvalue().encode("utf-8")).hexdigest()
            pins[" ".join(argv)] = digest
        print(f"{workload}: {len(pins)} pins so far", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    path = ROOT / "bench" / "pins.json"
    frozen = {"frozen_at": commit, "pins": pins}
    path.write_text(json.dumps(frozen, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
