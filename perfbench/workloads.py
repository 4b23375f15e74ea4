"""Benchmark workloads: their inputs, CLI command sequences and output checks.

Each workload is a closed loop with one client: the benchmark starts one
`mzbw` CLI process, waits for it, checks its outputs, then starts the next.
This module imports neither numpy nor mzbw at import time, so the
benchmark's parent process stays small; input generation runs in a fresh
set-up process:

    python3 perfbench/workloads.py WORKLOAD SEED

run inside the input directory writes the workload's configs and input
files there, then imports `mzbw.cli` and loads and builds every config the
way the CLI does.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

# The README example config, verbatim.  --seed overrides its trajectory seed.
README_CONFIG = {
    "grid": {"points": [256], "extent": [40.0]},
    "state": {"family": "gaussian", "sigma": 1.0},
    "evolution": {"dt": 1e-3, "steps": 2000, "snapshot_stride": 10, "residuals": True},
    "trajectories": {"n": 10000, "source": "evolve", "seed": 1, "equivariance": True},
}

# A z-uniform 96^3 state: grad(rho) . s = 0 for spin up, so `spin` exits 0.
# (The 3D Gaussian is the battery's known constraint violator and exits 3.)
SPECTRAL_POINTS = 96
SPECTRAL_EXTENT = 18.0
SPECTRAL_STATE = "state.mzbw"
SPECTRAL_CONFIG = {
    "grid": {"points": [SPECTRAL_POINTS] * 3, "extent": [SPECTRAL_EXTENT] * 3},
    "state": {"family": "file", "path": SPECTRAL_STATE},
    "potential": {"family": "harmonic", "omega": 0.5},
    "evolution": {"dt": 1e-3, "steps": 40, "snapshot_stride": 4, "residuals": True},
}

VERIFY_CONFIG = {"verify": {"refinements": 2}}

NORM_DRIFT_MAX = 1e-10


@dataclass(frozen=True)
class Invocation:
    """One CLI process: `mzbw <command> --config <config> --out <out> <extra>`."""

    label: str  # unique within the workload, names the output directory
    command: str
    config: str  # file name inside the input directory, the CLI's working directory
    extra: tuple
    check: Callable[[str], list]  # check(out_dir) -> list of error strings


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict  # file name -> config
    invocations: Callable[[int], list]  # invocations(seed) -> list[Invocation]
    generate: Callable[[int], None] | None = None  # generate(seed), in the set-up process


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _count_lines(path: str) -> int:
    count = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            count += chunk.count(b"\n")
    return count


def _check_trajectories(out_dir: str) -> list:
    errors = []
    manifest = _read_json(os.path.join(out_dir, "manifest.json"))
    if not manifest.get("equivariance", {}).get("passed", False):
        errors.append(f"equivariance failed: {manifest.get('equivariance')}")
    traj = README_CONFIG["trajectories"]
    evo = README_CONFIG["evolution"]
    want = traj["n"] * (evo["steps"] // evo["snapshot_stride"] + 1) + 1
    rows = _count_lines(os.path.join(out_dir, "trajectories.csv"))
    if rows != want:
        errors.append(f"trajectories.csv has {rows} rows, expected {want}")
    return errors


def _check_decompose(out_dir: str) -> list:
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    norm = summary.get("norm")
    if not (isinstance(norm, float) and math.isfinite(norm)):
        return [f"decompose norm is {norm!r}"]
    return []


def _check_spin(out_dir: str) -> list:
    constraints = _read_json(os.path.join(out_dir, "summary.json")).get("constraints", {})
    return [] if constraints.get("passed") is True else [f"spin constraints not passed: {constraints}"]


def _finite_list(values) -> bool:
    return isinstance(values, list) and bool(values) and all(
        isinstance(v, float) and math.isfinite(v) for v in values
    )


def _check_evolve(out_dir: str) -> list:
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    errors = []
    drift = summary.get("norm_drift_max")
    if not (isinstance(drift, float) and math.isfinite(drift) and drift <= NORM_DRIFT_MAX):
        errors.append(f"norm_drift_max {drift!r} is not finite and <= {NORM_DRIFT_MAX}")
    residuals = summary.get("residuals", {})
    for key in ("phase_sup", "continuity_sup"):
        if not _finite_list(residuals.get(key)):
            errors.append(f"residuals.{key} missing or not finite: {residuals.get(key)!r}")
    return errors


def _check_battery(out_dir: str) -> list:
    report = _read_json(os.path.join(out_dir, "report.json"))
    errors = []
    if report.get("passed") is not True:
        errors.append("battery did not pass")
    if report.get("tolerance_table_version") != 1:
        errors.append(f"tolerance_table_version is {report.get('tolerance_table_version')!r}, expected 1")
    return errors


def _generate_spectral_state(seed: int) -> None:
    """A seeded band-limited 2D profile times a z plane wave, from public
    mzbw.states functions only; written with fieldio.write_field."""
    import numpy as np

    from mzbw import fieldio, states
    from mzbw.fields import ComplexField, Grid

    n, extent = SPECTRAL_POINTS, SPECTRAL_EXTENT
    profile = states.random_smooth_state(Grid((n, n), (extent, extent)), seed)
    wave = states.plane_wave(Grid((n,), (extent,)), (2.0 * np.pi / extent,))
    values = profile.values[:, :, np.newaxis] * wave.values[np.newaxis, np.newaxis, :]
    fieldio.write_field(SPECTRAL_STATE, ComplexField(Grid((n,) * 3, (extent,) * 3), values))


# Why each workload was chosen, and which layers it loads and bypasses, is
# recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme_traj_1d",
            configs={"readme.json": README_CONFIG},
            invocations=lambda seed: [
                Invocation("trajectories", "trajectories", "readme.json", ("--seed", str(seed)), _check_trajectories)
            ],
        ),
        Workload(
            name="spectral_3d",
            configs={"spectral.json": SPECTRAL_CONFIG},
            invocations=lambda seed: [
                Invocation("decompose", "decompose", "spectral.json", (), _check_decompose),
                Invocation("spin", "spin", "spectral.json", (), _check_spin),
                Invocation("evolve", "evolve", "spectral.json", (), _check_evolve),
            ],
            generate=_generate_spectral_state,
        ),
        Workload(
            name="battery",
            configs={"verify.json": VERIFY_CONFIG},
            invocations=lambda seed: [
                Invocation("verify_spectral", "verify", "verify.json", (), _check_battery),
                Invocation("verify_fd2", "verify", "verify.json", ("--backend", "fd2"), _check_battery),
            ],
        ),
    )
}


def cli_seed(seed: int) -> int:
    """Map the benchmark seed onto the non-negative range numpy generators accept."""
    return seed % (2**32)


def set_up(name: str, seed: int) -> None:
    """Write the workload's inputs into the working directory, then import,
    load and build them as the CLI does."""
    from mzbw import cli  # noqa: F401  (the import is part of set-up cost)
    from mzbw import config as cfgmod

    workload = WORKLOADS[name]
    if workload.generate is not None:
        workload.generate(cli_seed(seed))
    for file_name, cfg in workload.configs.items():
        with open(file_name, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
            fh.write("\n")
        loaded = cfgmod.load_config(file_name)
        if "grid" in loaded:
            grid = cfgmod.build_grid(loaded)
            params = cfgmod.build_params(loaded)
            cfgmod.build_state(loaded, grid, params)
            cfgmod.build_potential(loaded, grid, params)
            cfgmod.build_spinor(loaded)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        print(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED", file=sys.stderr)
        sys.exit(1)
    set_up(sys.argv[1], int(sys.argv[2]))
