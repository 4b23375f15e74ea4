"""End-to-end and per-layer benchmark of the `mzbw` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is run from `src/` as it stands.
NAME is one of the workloads in `workloads.py`, or `all` to run every one
in turn.

`--trace 0` measures the end-to-end metrics with tracing off.  The workload's
command sequence, one fresh `python3 -m mzbw.cli` process per command,
repeats for about `--seconds`: after the first, a sequence starts only if
it should end within the budget.  `wall_s` is the median of the sequence
times and `peak_rss_mb` the largest max-RSS of any CLI process.  The
inputs are generated by a fresh set-up process before the first sequence
and again after each one (at least nine times in all, each writing the same
bytes); `setup_s` is the median wall time of one set-up.

`--trace 1` reports the per-layer metrics named in BENCHMARK.json: one
untraced pass (per-command wall times), one traced pass with every command
in its own process under `tracer.py`, and the kernel probes of `probes.py`.
The tracing overhead is traced over untraced sequence time.

Every invocation must exit 0 and pass its workload's output check, and the
output directories of every pass with the same seed must be byte-identical;
`error_rate` is failed invocations over invocations attempted.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9
RUN_BUDGET_S = 170.0  # a run must end within 180 s; children are killed past this
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Fatal(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def child_env(root: str, nproc: int) -> dict:
    env = dict(os.environ)
    env.pop("MZBW_OUT", None)  # would redirect every --out
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= nproc):
            env[var] = str(nproc)
    return env


def run_record(args, nproc: int, env: dict) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": {var: env[var] for var in THREAD_VARS},
    }


def spawn(argv: list, cwd: str, env: dict, log_path: str, deadline: float) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, max RSS in MB).
    The child is killed if it outlives the run's deadline."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def digest_tree(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 22), b""):
                    h.update(chunk)
    return h.hexdigest()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: wl.Workload, seed: int, root: str, env: dict):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = os.path.join(root, ".perfbench_work", workload.name)
        self.inputs = os.path.join(self.work, "inputs")
        self.log = os.path.join(self.work, "children.log")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.inputs)
        self.invocations = []  # every CLI invocation: dict(command, label, wall, rss, errors, trace)
        self.first_digest = {}  # label -> output digest of the first pass
        self.setup_walls = []
        self.input_digest = None

    def set_up(self) -> None:
        """Generate the inputs in a fresh process; every set-up must write the same bytes."""
        argv = [sys.executable, os.path.join(HERE, "workloads.py"), self.workload.name, str(self.seed)]
        code, wall, _ = spawn(argv, self.inputs, self.env, self.log, self.deadline)
        if code != 0:
            raise Fatal(f"set-up of {self.workload.name} exited {code}; see {self.log}")
        digest = digest_tree(self.inputs)
        if self.setup_walls and digest != self.input_digest:
            raise Fatal(f"set-up of {self.workload.name} is not deterministic for seed {self.seed}")
        self.input_digest = digest
        self.setup_walls.append(wall)

    def sequence(self, tag: str, traced: bool) -> list[dict]:
        """Run the workload's command sequence once; returns its invocations."""
        done = []
        for inv in self.workload.invocations(wl.cli_seed(self.seed)):
            out = os.path.join(self.work, tag, inv.label)
            cli_args = [inv.command, "--config", inv.config, "--out", out, *inv.extra]
            if traced:
                trace_path = os.path.join(self.work, f"trace_{inv.label}.json")
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path, "--", *cli_args]
            else:
                trace_path = None
                argv = [sys.executable, "-m", "mzbw.cli", *cli_args]
            code, wall, rss = spawn(argv, self.inputs, self.env, self.log, self.deadline)
            errors = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                try:
                    errors += inv.check(out)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    errors.append(f"output check raised {exc!r}")
            digest = digest_tree(out) if os.path.isdir(out) else None
            shutil.rmtree(out, ignore_errors=True)
            if self.first_digest.setdefault(inv.label, digest) != digest:
                errors.append("output directory differs from the first pass with this seed")
            done.append({"command": inv.command, "label": inv.label, "wall": wall, "rss": rss, "errors": errors, "trace": trace_path})
        self.invocations.extend(done)
        return done

    def repeat(self, seconds: float) -> list[float]:
        """Untraced sequences for about `seconds`: after the first, another
        starts only if it and the remaining set-ups should end in time.  A
        set-up follows each sequence, so set-up times sample the whole run."""
        walls = []
        start = time.monotonic()
        while True:
            walls.append(sum(r["wall"] for r in self.sequence(f"rep{len(walls)}", traced=False)))
            self.set_up()
            setups_left = max(0, SETUP_REPEATS - len(self.setup_walls) - 1)
            next_end = time.monotonic() + walls[-1] + (setups_left + 1) * statistics.median(self.setup_walls)
            if next_end > self.deadline or next_end - start > seconds:
                break
        while len(self.setup_walls) < SETUP_REPEATS:
            self.set_up()
        return walls

    def outcome(self) -> tuple[int, int]:
        """(invocations attempted, invocations failed)."""
        return len(self.invocations), sum(1 for r in self.invocations if r["errors"])


def load_trace(paths: list[str]) -> dict:
    """Sum the traces of one sequence's commands."""
    total = {"functions": {}, "kernels": {}, "families": {}, "by_parent": {}}
    for path in paths:
        with open(path) as fh:
            trace = json.load(fh)
        for section, rows in total.items():
            for name, counters in trace[section].items():
                slot = rows.setdefault(name, {})
                for key, value in counters.items():
                    slot[key] = slot.get(key, 0) + value
    return total


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metric(name: str, trace: dict, cli_wall: dict, overhead: float, probes: dict) -> float:
    """Value of one per-layer metric named in BENCHMARK.json.  Functions and
    kernels the workload never calls read 0."""
    head, _, key = name.rpartition(".")
    if name == "trace.overhead":
        return overhead
    if head.startswith("probe."):
        return float(probes[head[len("probe."):]][key])
    if head.startswith("cli.") and key == "wall_s":
        return cli_wall.get(head[len("cli."):], 0.0)
    if head in ("fields.fft", "fields.roll"):
        return float(trace["families"].get(head[len("fields."):], {}).get(key, 0))
    functions = trace["functions"]
    if head in tracer.LAYERS:
        return float(sum(row[key] for fn, row in functions.items() if fn.split(".")[0] == head))
    row = functions.get(head, tracer.FUNCTION_TOTALS)
    if key in row and key != "work":
        return float(row[key])
    if key == "bytes":
        return float(row["work"])
    if key in ("steps_per_s", "particle_steps_per_s"):
        return _rate(row["work"], row["s"])
    if key == "mb_per_s":
        return _rate(row["work"] / 1e6, row["s"])
    raise Fatal(f"BENCHMARK.json names per-layer metric {name!r}, which the benchmark cannot resolve")


def measure(run: Run, args, bench: dict) -> tuple[dict, list[str]]:
    """Run the workload; returns (metrics, human-readable report lines)."""
    if not args.trace:
        run.set_up()
        walls = run.repeat(args.seconds)
        setups = run.setup_walls
        values = {
            # The host's speed drifts over minutes, so long sequences fit one
            # or two times in a run depending on it; the median treats a run of
            # one and a run of two alike.
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["rss"] for r in run.invocations),
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        if set(units) != set(values):
            raise Fatal(f"BENCHMARK.json end_to_end names {sorted(units)}, the benchmark measures {sorted(values)}")
        attempted, failed = run.outcome()
        lines = [
            f"{run.workload.name}: "
            + "  ".join(f"{k} {v:.4f} {units[k]}" for k, v in values.items())
            + f"  error_rate {failed / attempted:.4f} ({failed}/{attempted} invocations failed)",
            f"  wall_s per sequence: {', '.join(f'{w:.3f}' for w in walls)} s (n={len(walls)})",
            f"  setup_s per set-up: {', '.join(f'{w:.3f}' for w in setups)} s (n={len(setups)})",
        ]
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, lines

    run.set_up()
    untraced = run.sequence("untraced", traced=False)
    traced = run.sequence("traced", traced=True)
    cli_wall = {}
    for record in untraced:
        cli_wall[record["command"]] = cli_wall.get(record["command"], 0.0) + record["wall"]
    untraced_wall = sum(r["wall"] for r in untraced)
    traced_wall = sum(r["wall"] for r in traced)
    overhead = traced_wall / untraced_wall
    trace = load_trace([r["trace"] for r in traced if r["trace"] and os.path.isfile(r["trace"])])
    probes_path = os.path.join(run.work, "probes.json")
    code, _, _ = spawn(
        [sys.executable, os.path.join(HERE, "probes.py"), probes_path, str(wl.cli_seed(run.seed))],
        run.work, run.env, run.log, run.deadline,
    )
    if code != 0:
        raise Fatal(f"kernel probes exited {code}; see {run.log}")
    with open(probes_path) as fh:
        probes = json.load(fh)
    metrics = {
        m["name"]: {"value": layer_metric(m["name"], trace, cli_wall, overhead, probes), "unit": m["unit"]}
        for m in bench["per_layer"]
    }
    with open(os.path.join(run.work, "trace.json"), "w") as fh:
        json.dump({"trace": trace, "probes": probes, "metrics": metrics}, fh, indent=1, sort_keys=True)
    attempted, failed = run.outcome()
    lines = [
        f"{run.workload.name}: traced wall_s {traced_wall:.4f} s over untraced {untraced_wall:.4f} s"
        f" = tracing overhead {overhead:.4f}; error_rate {failed / attempted:.4f} ({failed}/{attempted})",
        "  kernel calls by nearest public span (fft, roll):",
    ]
    for parent, counts in sorted(trace["by_parent"].items()):
        lines.append(f"    {parent}: fft {counts['fft']}  roll {counts['roll']}")
    for name, probe in probes.items():
        lines.append(
            f"  probe {name}: median {probe['median_ms']:.3f} ms, p{probe['tail_pct']:g} {probe['tail_ms']:.3f} ms"
            f" (n={probe['samples']})"
        )
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through spawn(), which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "mzbw", "cli.py")):
            raise Fatal("no mzbw source at src/mzbw; run from the repository root")
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        nproc = len(os.sched_getaffinity(0))
        env = child_env(root, nproc)
        print("run record: " + json.dumps(run_record(args, nproc, env), sort_keys=True), flush=True)
        names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            run = Run(wl.WORKLOADS[name], args.seed, root, env)
            values, lines = measure(run, args, bench)
            for line in lines:
                print(line, flush=True)
            for record in run.invocations:
                for error in record["errors"]:
                    print(f"  FAILED {record['label']}: {error}", flush=True)
            run_attempted, run_failed = run.outcome()
            attempted += run_attempted
            failed += run_failed
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + key: value for key, value in values.items()})
            shutil.rmtree(run.inputs, ignore_errors=True)
    except (Fatal, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
