"""Per-layer tracing of one CLI request, run in a child process.

Usage: ``python bench/tracer.py {spans|sample} <chesscount argv...>`` with
the package's ``src`` directory on ``PYTHONPATH``.  The child calls
``chesscount.cli.main(argv)`` in-process with stdout captured and prints one
JSON object: the CLI exit code, the SHA-256 and length of the captured output
and what the mode measured.  Nothing under ``src/`` is edited; any wrapping
lives in this process only.

``spans`` imports the six layer modules and wraps the public functions and
methods of each one, and every name other modules bound to them with
``from .x import y``.  A span is opened only where a call crosses from one
layer into another; calls inside a layer are counted but not timed.  Repeated
childless spans of the same function under one parent are merged into one
record that keeps the call count and the summed busy time.

``sample`` measures self time: a layer's span time minus the time of the
child spans it opened in other layers.  The wrappers cost about a microsecond
a call, on some 10^7 kernel calls in a table pass, which would swamp the
layers they sit between, so this mode runs the program unwrapped and samples
it instead: every millisecond of CPU the process uses is charged to the
innermost frame that belongs to a layer module.  Module import counts for the
module's layer, and so do library calls made from the layer's code.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import signal
import sys
import time
import types
from fractions import Fraction

LAYERS = ("cli", "verify", "formulas", "quasipoly", "board", "kernel")
SAMPLE_INTERVAL_S = 0.001


def _count_values(obj) -> tuple[int, int]:
    """(number of ints, their summed bit lengths) in a formulas result."""
    if isinstance(obj, int):
        return 1, obj.bit_length()
    if isinstance(obj, (tuple, list)):
        pairs = [_count_values(x) for x in obj]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)
    rows = getattr(obj, "rows", None)
    return _count_values(rows) if rows is not None else (0, 0)


def _count_coeffs(obj) -> int:
    """Number of Fraction coefficients in a quasipoly result."""
    if isinstance(obj, Fraction):
        return 1
    if isinstance(obj, (tuple, list)):
        return sum(_count_coeffs(x) for x in obj)
    coeffs = getattr(obj, "coeffs", None)
    return _count_coeffs(coeffs) if coeffs is not None else 0


class Sampler:
    """Charges process CPU time to the layer of the innermost layer frame."""

    def __init__(self) -> None:
        self.cpu_ns = dict.fromkeys(LAYERS + ("other",), 0)
        self._layer_of_file: dict[str, str | None] = {}
        self._last = 0

    def _layer(self, filename: str) -> str | None:
        layer = self._layer_of_file.get(filename, "")
        if layer == "":
            path = os.path.abspath(filename)
            stem = os.path.splitext(os.path.basename(path))[0]
            if os.path.basename(os.path.dirname(path)) == "chesscount" and stem in LAYERS:
                layer = stem
            else:
                layer = None
            self._layer_of_file[filename] = layer
        return layer

    def _charge(self, frame) -> None:
        now = time.process_time_ns()
        layer = None
        while frame is not None and layer is None:
            layer = self._layer(frame.f_code.co_filename)
            frame = frame.f_back
        self.cpu_ns[layer or "other"] += now - self._last
        self._last = now

    def start(self) -> None:
        self._last = time.process_time_ns()
        signal.signal(signal.SIGPROF, lambda signum, frame: self._charge(frame))
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self._charge(sys._getframe(1))


class Tracer:
    """Wraps the layer modules of an imported ``chesscount`` and records spans."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.spans: list[list] = []  # [id, name, parent id, start ns, end ns, calls, busy ns]
        # A frame is [layer, has child spans, merged leaf spans, span id].
        self.stack: list[list] = [[None, False, None, 0]]
        self.next_id = 1
        self.errors = dict.fromkeys(LAYERS, 0)
        self.call_cells: dict[str, list[int]] = {}  # "layer.name" -> [calls]
        self.counters = {
            "verify.checks": 0,
            "verify.failures": 0,
            "formulas.values": 0,
            "formulas.value_bits": 0,
            "quasipoly.coeffs": 0,
            "board.placements": 0,
            "kernel.stirling2.max_n": 0,
        }
        self._profiles_seen: set = set()

    def _formulas_result(self, result) -> None:
        values, bits = _count_values(result)
        self.counters["formulas.values"] += values
        self.counters["formulas.value_bits"] += bits

    def _quasipoly_result(self, result) -> None:
        self.counters["quasipoly.coeffs"] += _count_coeffs(result)

    def _verify_result(self, result) -> None:
        for r in result if isinstance(result, list) else ():
            self.counters["verify.checks"] += getattr(r, "checks", 0)
            self.counters["verify.failures"] += len(getattr(r, "failures", ()))

    def _stirling2_args(self, args, kwargs, result) -> None:
        n = args[0] if args else kwargs.get("n", 0)
        if n > self.counters["kernel.stirling2.max_n"]:
            self.counters["kernel.stirling2.max_n"] = n

    def _profile_result(self, args, kwargs, result) -> None:
        # Each distinct board's profile counts once: the placements enumerated.
        key = (args, tuple(sorted(kwargs.items())))
        if key not in self._profiles_seen:
            self._profiles_seen.add(key)
            self.counters["board.placements"] += sum(result)

    def _wrap(self, fn, layer: str, name: str):
        qualname = f"{layer}.{name}"
        cell = self.call_cells.setdefault(qualname, [0])
        hook = {
            "kernel.stirling2": self._stirling2_args,
            "board.placement_counts": self._profile_result,
        }.get(qualname)
        # Results that cross into another layer feed that layer's work counts.
        observe = {
            "formulas": self._formulas_result,
            "quasipoly": self._quasipoly_result,
            "verify": self._verify_result,
        }.get(layer)
        stack, spans, clock = self.stack, self.spans, self.clock
        errors, tracer = self.errors, self

        def traced(*args, **kwargs):
            cell[0] += 1
            parent = stack[-1]
            if parent[0] == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            frame = [layer, False, None, tracer.next_id]
            tracer.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                parent[1] = True
                if frame[1]:
                    spans.append([frame[3], qualname, parent[3], start, end, 1, busy])
                else:
                    leaves = parent[2]
                    if leaves is None:
                        leaves = parent[2] = {}
                    leaf = leaves.get(qualname)
                    if leaf is None:
                        leaves[qualname] = leaf = [frame[3], qualname, parent[3], start, end, 0, 0]
                        spans.append(leaf)
                    leaf[4] = end
                    leaf[5] += 1
                    leaf[6] += busy
            if hook is not None:
                hook(args, kwargs, result)
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> types.ModuleType:
        """Import and wrap the layers; returns the ``chesscount.cli`` module."""
        modules = {layer: importlib.import_module(f"chesscount.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(member, types.FunctionType):
                            setattr(obj, attr, self._wrap(member, layer, f"{name}.{attr}"))
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(obj, layer, name)
        # Rebind every module-level name and dict value that refers to a
        # wrapped function, so ``from .kernel import stirling2`` copies and
        # dispatch tables such as ``verify.SUITES`` go through the wrapper.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "chesscount" and not mod_name.startswith("chesscount."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]
        return modules["cli"]

    def report(self) -> dict:
        calls = dict.fromkeys(LAYERS, 0)
        for qualname, cell in self.call_cells.items():
            calls[qualname.split(".", 1)[0]] += cell[0]
        counters = dict(self.counters)
        counters["kernel.stirling2.calls"] = self.call_cells.get("kernel.stirling2", [0])[0]
        counters["kernel.binomial.calls"] = self.call_cells.get("kernel.binomial", [0])[0]
        return {
            "calls": calls,
            "errors": self.errors,
            "counters": counters,
            "spans": self.spans,
        }


def _run_cli(cli: types.ModuleType, argv: list[str]) -> tuple[int, bytes]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, captured.getvalue().encode("utf-8")


def main(mode: str, argv: list[str]) -> int:
    if mode == "sample":
        sampler = Sampler()
        sampler.start()
        code, out = _run_cli(importlib.import_module("chesscount.cli"), argv)
        sampler.stop()
        payload = {"self_cpu_ns": sampler.cpu_ns}
    elif mode == "spans":
        tracer = Tracer()
        code, out = _run_cli(tracer.install(), argv)
        payload = tracer.report()
    else:
        print(f"unknown mode {mode!r}; expected 'spans' or 'sample'", file=sys.stderr)
        return 2
    payload.update(exit=code, sha256=hashlib.sha256(out).hexdigest(), output_bytes=len(out))
    sys.stdout.write(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
