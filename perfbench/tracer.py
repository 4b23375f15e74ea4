"""Span tracer for one in-process `mzbw` CLI command.

Every public function of each `mzbw` module is wrapped, and the wrapper is
installed at every `mzbw.*` import site (modules import functions by name,
e.g. `cli.decompose`), so a call records a span whichever module makes it.
Private helpers are not wrapped: refactors remove them, and their work then
shows in the nearest public caller.  The FFT entry points of `numpy.fft`
(and of `scipy.fft` when scipy imports) and `numpy.roll` are wrapped as
kernels: each call is counted against every open span and attributed, for
self time and per-parent counts, to the nearest public span.

A span's self time is its duration minus the time its child spans (public
functions and kernels) cover.  Kernel bytes are computed from array sizes,
input plus output, not measured.

    python3 perfbench/tracer.py OUT.json -- decompose --config run.json --out dir/

runs `mzbw.cli.main` on the arguments after `--`, writes the trace to
OUT.json and exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = (
    "cli",
    "config",
    "states",
    "fields",
    "madelung",
    "spinhydro",
    "evolve",
    "trajectories",
    "fieldio",
    "verify",
)
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
FUNCTION_TOTALS = {"calls": 0, "s": 0.0, "self_s": 0.0, "fft_calls": 0, "roll_calls": 0, "work": 0.0}


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


class Tracer:
    """In-memory spans, per-function totals and kernel counters for one process."""

    def __init__(self):
        self._stack = []  # open spans: [name, child_seconds]
        self.functions = {}  # name -> totals
        self.kernels = {}  # "numpy.fft.fft" -> {"calls", "s", "bytes"}
        self.families = {}  # "fft" | "roll" -> {"calls", "s", "bytes"}, summed over kernels
        self.by_parent = {}  # nearest public span -> {"fft": calls, "roll": calls}

    def _function(self, name: str) -> dict:
        entry = self.functions.get(name)
        if entry is None:
            entry = self.functions[name] = dict(FUNCTION_TOTALS)
        return entry

    def _close(self, name: str, seconds: float, child_seconds: float) -> None:
        entry = self._function(name)
        entry["calls"] += 1
        entry["s"] += seconds
        entry["self_s"] += seconds - child_seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def span(self, name: str, fn, work=None):
        """Wrap `fn` as a public-function span.  `work(args, kwargs, result)`
        returns the units of work the call did (steps, particle steps, bytes)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self._stack.pop()
                self._close(name, seconds, frame[1])
            if work is not None:
                self.functions[name]["work"] += work(args, kwargs, result)
            return result

        return wrapper

    def kernel(self, family: str, name: str, fn):
        """Wrap a numerical kernel.  Only the public module attribute is replaced,
        so numpy's own internal calls (fftn's per-axis passes) are not counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            nbytes = _nbytes(args[0] if args else None) + _nbytes(result)
            for entry in (
                self.kernels.setdefault(name, {"calls": 0, "s": 0.0, "bytes": 0}),
                self.families.setdefault(family, {"calls": 0, "s": 0.0, "bytes": 0}),
            ):
                entry["calls"] += 1
                entry["s"] += seconds
                entry["bytes"] += nbytes
            counter = f"{family}_calls"
            for open_name in {frame[0] for frame in self._stack}:
                self._function(open_name)[counter] += 1
            if self._stack:
                parent = self._stack[-1]
                parent[1] += seconds
                slot = self.by_parent.setdefault(parent[0], {"fft": 0, "roll": 0})
                slot[family] += 1
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "functions": self.functions,
            "kernels": self.kernels,
            "families": self.families,
            "by_parent": self.by_parent,
        }


def _file_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0]))


def _propagate_steps(args, kwargs, result) -> float:
    config = args[1] if len(args) > 1 else kwargs["config"]
    return float(config.steps)


def _particle_steps(args, kwargs, result) -> float:
    """Particles times RK4 steps: substeps per recorded interval for a
    snapshot-series source, one step per record for a static source."""
    from mzbw.evolve import SnapshotSeries

    n, records, _ = result.paths.shape
    source = args[1] if len(args) > 1 else kwargs["source"]
    per_interval = kwargs.get("substeps", 4) if isinstance(source, SnapshotSeries) else 1
    return float(n * (records - 1) * per_interval)


WORK = {
    "evolve.propagate": _propagate_steps,
    "trajectories.advect": _particle_steps,
    "fieldio.write_field": _file_bytes,
    "fieldio.write_trajectories_csv": _file_bytes,
}


def install(tracer: Tracer) -> None:
    """Wrap every public `mzbw` function at each import site, and the kernels."""
    import numpy as np

    package = importlib.import_module("mzbw")
    modules = {layer: importlib.import_module(f"mzbw.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[obj] = tracer.span(name, obj, WORK.get(name))
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])

    for fft_name in FFT_NAMES:
        setattr(np.fft, fft_name, tracer.kernel("fft", f"numpy.fft.{fft_name}", getattr(np.fft, fft_name)))
    np.roll = tracer.kernel("roll", "numpy.roll", np.roll)
    try:
        import scipy.fft as sfft
    except ImportError:
        return
    for fft_name in FFT_NAMES:
        setattr(sfft, fft_name, tracer.kernel("fft", f"scipy.fft.{fft_name}", getattr(sfft, fft_name)))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <mzbw command and flags>", file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from mzbw import cli

    start = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - start
    with open(out_path, "w") as fh:
        json.dump({"command": cli_args[0], "exit_code": code, "wall_s": wall, **tracer.report()}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
