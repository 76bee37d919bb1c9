"""End-to-end benchmark of the ``chesscount`` command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {queries,tables,oracle} --seed N \\
        --seconds S --trace {0,1}

Every request runs the CLI as a user does: ``python -m chesscount <argv>`` in
a fresh child process, with the checkout's ``src`` on ``PYTHONPATH``, so
interpreter start-up and cold caches are paid by every request.  One client
runs one child at a time in a closed loop.  Each child sets an address-space
limit and a wall-clock limit on itself before it starts; a request that hits
one is recorded as ``oom`` or ``timeout``, never dropped.  Every output is
checked, after its latency is taken, against the SHA-256 pinned for that argv
in ``pins.json``.

A run repeats passes (see ``workloads.py``) until ``--seconds`` have passed
and, untraced, at least three passes are done; the last pass is always
completed.  ``--trace 0`` prints the end-to-end
metrics.  ``--trace 1`` replays each pass twice more, one request per child:
once unwrapped under a CPU sampler for each layer's self time, once with
every layer boundary wrapped for spans, calls and work counts, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run also writes
``.bench_out/<workload>-seed<N>-trace<T>.json`` with the context of the run
and every request, and, when traced, ``spans-<same stem>.jsonl`` with one
line per request: its id, its argv and its spans as ``[id, name, parent id,
start ns, end ns, calls, busy ns]``.  The exit code is 1 when any request
failed or printed a wrong answer, and 2 when the checkout holds no
``src/chesscount``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
PINS = BENCH / "pins.json"

# Per-child limits.  The largest timed request peaks near 700 MB RSS and 6 s.
LIMIT_AS_BYTES = 2 << 30
LIMIT_WALL_S = 60
# Three passes give every statistic its samples, the tail's ten beyond it too.
MIN_PASSES = 3
# No pass starts that would end after this long, so a run ends within 180 s.
RUN_CAP_S = 170
SETUP_PROBES_PER_PASS = 3
# The host's speed drifts by up to 2x within a minute on a shared VM.  Each
# timed child is preceded by a fixed in-process reference workload, and every
# time the run reports is scaled by REFERENCE_NOMINAL_S over the median
# reference time of the children around it, which cancels most of the drift.
# Raw times are kept in the results file.
REFERENCE_NOMINAL_S = 0.0025
REFERENCE_WINDOW = 5  # neighbours on each side

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MiB",
}
COUNTERS = {
    "cli.output_bytes": "bytes",
    "verify.checks": "count",
    "verify.failures": "count",
    "formulas.values": "count",
    "formulas.value_bits": "bits",
    "quasipoly.coeffs": "count",
    "board.placements": "count",
    "kernel.stirling2.calls": "count",
    "kernel.stirling2.max_n": "n",
    "kernel.binomial.calls": "count",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))},
    **COUNTERS,
    "trace.overhead": "ratio",
}
# Summed over the run rather than taken as a per-pass median, so one bad pass shows.
RUN_TOTALS = {f"{layer}.errors" for layer in LAYERS} | {"verify.failures"}
PREDICTED_DOMINANT = {"queries": "kernel", "tables": "formulas", "oracle": "board"}


@dataclass
class Outcome:
    """One request: how it ended and what it cost."""

    argv: list[str]
    status: str  # ok, wrong, oom, timeout or error
    wall_s: float
    cpu_s: float
    rss_mb: float
    payload: dict = field(default_factory=dict)  # what a traced child reported
    reference_s: float = REFERENCE_NOMINAL_S  # reference time just before the child
    scale: float = 1.0  # speed normalisation, see REFERENCE_NOMINAL_S

    @property
    def wall(self) -> float:
        return self.wall_s * self.scale

    @property
    def cpu(self) -> float:
        return self.cpu_s * self.scale

    def record(self) -> dict:
        return {
            "argv": " ".join(self.argv),
            "status": self.status,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_mb": self.rss_mb,
            "reference_s": self.reference_s,
            "scale": self.scale,
        }


def _reference_work() -> int:
    acc = 0
    big = 3 ** 4000
    for i in range(1000):
        acc ^= (big * (i + 7)) % 1000003
    cells = [i * i for i in range(10000)]
    return acc + len(cells)


def reference_s() -> float:
    """Median time of three runs of the reference workload."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measured(run, *args) -> Outcome:
    """``run(*args)``, with the reference workload timed just before it."""
    reference = reference_s()
    outcome = run(*args)
    outcome.reference_s = reference
    return outcome


def set_scales(timeline: list[Outcome]) -> None:
    """Scale each outcome by the median reference time of its neighbours in run order."""
    references = [o.reference_s for o in timeline]
    for i, o in enumerate(timeline):
        window = references[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1]
        o.scale = REFERENCE_NOMINAL_S / statistics.median(window)


def _limit_self() -> None:
    # Runs in the child between fork and exec; both limits survive the exec.
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_AS_BYTES, LIMIT_AS_BYTES))
    signal.setitimer(signal.ITIMER_REAL, LIMIT_WALL_S)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list[str]) -> tuple[bytes, str, int, float, float, float]:
    """Run one child to its end: (stdout, stderr, exit code, wall s, cpu s, peak RSS MB).

    Wall time runs from spawn to reaped exit; CPU time and peak RSS come from
    the child's own rusage.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err, preexec_fn=_limit_self,
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return out, stderr, proc.returncode, wall, cpu, usage.ru_maxrss / 1024


def classify(code: int, stderr: str) -> str | None:
    """Status of a child that did not exit cleanly, else None."""
    if code == -signal.SIGALRM:
        return "timeout"
    if code == -signal.SIGKILL or "MemoryError" in stderr:
        return "oom"
    return "error" if code else None


def run_request(argv: list[str], pins: dict[str, str]) -> Outcome:
    out, stderr, code, wall, cpu, rss = spawn([sys.executable, "-m", "chesscount", *argv])
    status = classify(code, stderr)
    if status is None:
        status = "ok" if hashlib.sha256(out).hexdigest() == pins.get(" ".join(argv)) else "wrong"
    return Outcome(argv, status, wall, cpu, rss)


def run_traced(argv: list[str], pins: dict[str, str], mode: str) -> Outcome:
    out, stderr, code, wall, cpu, rss = spawn(
        [sys.executable, str(BENCH / "tracer.py"), mode, *argv])
    status = classify(code, stderr)
    payload = {}
    if status is None:
        payload = json.loads(out)
        if payload["exit"] != 0:
            status = "error"
        elif payload["sha256"] == pins.get(" ".join(argv)):
            status = "ok"
        else:
            status = "wrong"
    return Outcome(argv, status, wall, cpu, rss, payload)


def setup_probe() -> Outcome:
    """A child that starts the interpreter, imports the CLI and exits."""
    argv = ["-c", "import chesscount.cli"]
    _, stderr, code, wall, cpu, rss = spawn([sys.executable, *argv])
    if code:
        raise RuntimeError(f"importing chesscount.cli failed:\n{stderr}")
    return Outcome(argv, "ok", wall, cpu, rss)


def run_passes(workload: str, seed: int, seconds: float, executors, timeline: list,
               between=None, min_passes: int = MIN_PASSES):
    """Run passes until ``seconds`` have passed and ``min_passes`` are done.

    Every executor runs the same argv list of each pass, in the order given.
    Returns, per executor, a list of passes of outcomes; ``timeline`` gets
    every outcome in the order it ran.
    """
    start = time.monotonic()
    deadline = start + seconds
    results: list[list[list[Outcome]]] = [[] for _ in executors]
    index, last = 0, 0.0
    while index == 0 or (
        (index < min_passes or time.monotonic() < deadline)
        and time.monotonic() - start + last < RUN_CAP_S
    ):
        began = time.monotonic()
        if between is not None:
            between()
        plan = workloads.plan_pass(workload, seed, index)
        for execute, passes in zip(executors, results):
            passes.append([])
            for argv in plan:
                passes[-1].append(measured(execute, argv))
                timeline.append(passes[-1][-1])
        last = time.monotonic() - began
        index += 1
    return results


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 1982).

    A Beta-weighted mean of all order statistics: it has a much smaller
    run-to-run spread than a single order statistic, which matters for a
    tail read from a few dozen samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 16  # Simpson's rule on each interval [i/n, (i+1)/n]
    h = 1 / (n * steps)
    total = weights = 0.0
    for i, x in enumerate(ordered):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weight = (density(lo) + inner + density(lo + steps * h)) * h / 3
        total += weight * x
        weights += weight
    return total / weights


def _tail(latencies: list[float], per_pass: int) -> tuple[float, float, int]:
    """Tail latency: (value, percentile, number of samples).

    The percentile is the highest that has at least ten samples beyond it in
    a run of ``MIN_PASSES`` passes, or in this run if it is shorter.  How many
    more passes a run completes depends on the host's speed; fixing the
    percentile keeps it from moving within the costliest slot from run to run.
    """
    n = len(latencies)
    q = min(1 - 10 / (MIN_PASSES * per_pass), max(n - 10, 1) / n)
    return quantile(latencies, q), 100.0 * q, n


def end_to_end_metrics(passes: list[list[Outcome]], probes: list[Outcome]) -> tuple[dict, dict]:
    outcomes = [o for p in passes for o in p]
    latencies = [o.wall for o in outcomes]
    tail, percentile, n = _tail(latencies, len(passes[0]))
    values = {
        "setup_s": statistics.median(o.wall for o in probes),
        # Every pass holds the same work, so the run's totals are given per pass.
        "wall_s": sum(latencies) / len(passes),
        "cpu_s": sum(o.cpu for o in outcomes) / len(passes),
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_tail_s": tail,
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }
    failed = sum(o.status != "ok" for o in outcomes)
    notes = {
        "latency_tail_percentile": percentile,
        "latency_samples": n,
        "setup_probes": len(probes),
        "passes": len(passes),
        "failed_frac": failed / len(outcomes),
        "scale_median": statistics.median(o.scale for o in outcomes),
        "raw_setup_s": statistics.median(o.wall_s for o in probes),
        "raw_wall_s": sum(o.wall_s for o in outcomes) / len(passes),
        "raw_latency_p50_s": statistics.median(o.wall_s for o in outcomes),
    }
    return values, notes


def _pass_layer_values(sampled: list[Outcome], spanned: list[Outcome]) -> dict:
    values = dict.fromkeys(PER_LAYER, 0)
    for o in sampled:
        for layer in LAYERS:
            cpu_ns = o.payload.get("self_cpu_ns", {}).get(layer, 0)
            values[f"{layer}.self_s"] += cpu_ns / 1e9 * o.scale
    for o in spanned:
        p = o.payload
        if not p:
            continue
        for layer in LAYERS:
            values[f"{layer}.calls"] += p["calls"][layer]
            values[f"{layer}.errors"] += p["errors"][layer]
        values["cli.output_bytes"] += p["output_bytes"]
        for name, value in p["counters"].items():
            if name == "kernel.stirling2.max_n":
                values[name] = max(values[name], value)
            else:
                values[name] += value
    return values


def per_layer_metrics(untraced, sampled, spanned) -> tuple[dict, dict]:
    per_pass = [_pass_layer_values(s, p) for s, p in zip(sampled, spanned)]
    values = {}
    for name in PER_LAYER:
        column = [v[name] for v in per_pass]
        if name == "kernel.stirling2.max_n":
            values[name] = max(column)
        elif name in RUN_TOTALS:
            values[name] = sum(column)
        else:
            values[name] = statistics.median(column)
    values["trace.overhead"] = (sum(o.wall for p in spanned for o in p)
                                / sum(o.wall for p in untraced for o in p))
    notes = {"passes": len(per_pass), "dominant": _dominant_layers(untraced, sampled)}
    return values, notes


def _dominant(outcomes: list[Outcome]) -> tuple[str, dict]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for o in outcomes:
        for layer in LAYERS:
            totals[layer] += o.payload.get("self_cpu_ns", {}).get(layer, 0) / 1e9 * o.scale
    return max(totals, key=totals.get), totals


def _dominant_layers(untraced, sampled) -> dict:
    """Layer with the most self time: over the run, and over its slowest tenth of requests."""
    pairs = [(u, s) for up, sp in zip(untraced, sampled) for u, s in zip(up, sp)]
    slowest = sorted(pairs, key=lambda pair: pair[0].wall, reverse=True)
    slowest = [s for _, s in slowest[: max(1, len(slowest) // 10)]]
    result = {}
    for scope, outcomes in (("all", [s for _, s in pairs]), ("slowest_tenth", slowest)):
        layer, totals = _dominant(outcomes)
        result[scope] = {"layer": layer, "self_s": totals}
    return result


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def context() -> dict:
    """Where a result was measured: interpreter, code, machine and per-child limits."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "limits": {"address_space_bytes": LIMIT_AS_BYTES, "wall_s": LIMIT_WALL_S},
    }


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "chesscount" / "cli.py").is_file():
        print(f"no chesscount sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text())["pins"]
    setup_probe()  # compiles the bytecode cache; not measured

    def untraced(argv):
        return run_request(argv, pins)

    timeline: list[Outcome] = []
    if args.trace:
        untraced_passes, sampled, spanned = run_passes(
            args.workload, args.seed, args.seconds,
            [untraced,
             lambda argv: run_traced(argv, pins, "sample"),
             lambda argv: run_traced(argv, pins, "spans")],
            timeline, min_passes=1)
        set_scales(timeline)
        values, notes = per_layer_metrics(untraced_passes, sampled, spanned)
        units = PER_LAYER
        groups = {"untraced": untraced_passes, "sampled": sampled, "spanned": spanned}
    else:
        probes: list[Outcome] = []

        def probe_setup():
            for _ in range(SETUP_PROBES_PER_PASS):
                probes.append(measured(setup_probe))
                timeline.append(probes[-1])

        (untraced_passes,) = run_passes(
            args.workload, args.seed, args.seconds, [untraced], timeline,
            between=probe_setup)
        set_scales(timeline)
        values, notes = end_to_end_metrics(untraced_passes, probes)
        units = END_TO_END
        groups = {"untraced": untraced_passes}

    outcomes = [o for passes in groups.values() for p in passes for o in p]
    failed = [o for o in outcomes if o.status != "ok"]
    ctx = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **context()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps({
        "context": ctx,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "notes": notes,
        "requests": {name: [[o.record() for o in p] for p in passes]
                     for name, passes in groups.items()},
    }, indent=1))
    if args.trace:
        with open(OUT / f"spans-{stem}.jsonl", "w") as handle:
            for request_id, o in enumerate(o for p in spanned for o in p):
                handle.write(json.dumps({"request": request_id, "argv": " ".join(o.argv),
                                         "spans": o.payload.get("spans", [])}) + "\n")

    print(f"# context {json.dumps(ctx)}")
    print(f"# notes {json.dumps(notes)}")
    print("# times are in reference seconds (see REFERENCE_NOMINAL_S); "
          f"raw times are in {OUT.name}/{stem}.json")
    for name, unit in units.items():
        print(f"{name:28s} {values[name]!r} {unit}")
    if args.trace:
        for scope, found in notes["dominant"].items():
            predicted = PREDICTED_DOMINANT[args.workload]
            verdict = "as predicted" if found["layer"] == predicted else "DIFFERS from prediction"
            print(f"# dominant self-time layer ({scope}): {found['layer']}, "
                  f"predicted {predicted}: {verdict}")
    for o in failed:
        print(f"# FAILED {o.status}: {' '.join(o.argv)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
