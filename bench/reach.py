"""One-shot reach report: the ROADMAP rows that do not finish today.

Usage, from the root of a checkout: ``python3 bench/reach.py``.  Runs each
row once as a CLI child under the benchmark's per-child limits and prints one
JSON report (also written to ``.bench_out/reach.json``) with each row's
status (``ok``, ``oom``, ``timeout`` or ``error``), wall and CPU time, peak
RSS and, when it finished, the SHA-256 of its output.  It is not part of the
timed workloads; ``reach_baseline.json`` holds the report taken when the
benchmark was defined, as the "before" for later changes.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

ROWS = (
    ["count", "bishop", "4000", "2"],
    ["table", "bishop", "80"],
    ["table", "bishop", "400"],
    ["verify", "oracle", "--m-max", "7"],
    ["verify", "all", "--m-max", "9"],
)


def main() -> int:
    rows = []
    for argv in ROWS:
        out, stderr, code, wall, cpu, rss = run.spawn([sys.executable, "-m", "chesscount", *argv])
        status = run.classify(code, stderr) or "ok"
        rows.append({
            "argv": " ".join(argv),
            "status": status,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": rss,
            "stdout_sha256": hashlib.sha256(out).hexdigest() if status == "ok" else None,
        })
        print(f"# {status:8s} {wall:8.2f} s {rss:8.1f} MiB  {' '.join(argv)}", file=sys.stderr)
    report = json.dumps({"context": run.context(), "rows": rows}, indent=1)
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "reach.json").write_text(report + "\n")
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
