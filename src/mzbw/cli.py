"""Command line entry point.

    mzbw <command> --config run.json [--out DIR] [--backend spectral|fd2]
    mzbw trajectories --config run.json [--out DIR] [--backend ...] [--seed N]

Commands: decompose, spin, evolve, trajectories, verify.  The MZBW_OUT
environment variable overrides --out.  --seed, a non-negative integer and a
flag of `trajectories` only, overrides the trajectory seed from the config.

Exit codes: 0 success, 1 config or usage error (including config values that
are not finite, and an output location that cannot be written, which is
checked before any numerics and reported in one line on stderr), 2
numerical failure (non-finite or unusable data in input files or results)
or a run too large for the available memory, 3 a verification constraint
failed (battery check, spin-constraint violation, equivariance).

`evolve` writes each snapshot as the propagator reaches it and the snapshot
manifest once the last one is written; a numerical failure mid-run leaves
the snapshots written so far, without a manifest or summary.  `trajectories`
with an evolve source transports the ensemble as the snapshots arrive.

Outputs are deterministic: rerunning a command with the same config writes
byte-identical files.  No timestamps, sorted JSON keys, fixed float
formatting.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from . import config as cfgmod
from . import fieldio, trajectories, verify
from .config import ConfigError
from .evolve import iter_propagate
from .fields import RealField, integrate
from .madelung import REGION_EPS, _Jet, decompose, quantum_potential, residual_sups
from .spinhydro import CONSTRAINT_TOL, koenig_energy, spin_split
from .states import spin_vector


def _seed(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mzbw", description="Hydrodynamic wavefunction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("decompose", "density, phase gradient, and quantum potential of a state"),
        ("spin", "spin density, Pauli current, and the velocity decomposition"),
        ("evolve", "split-step time evolution, writing a snapshot series"),
        ("trajectories", "transport an ensemble along the velocity field"),
        ("verify", "run the identity battery and write a report"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default="mzbw_out", help="output directory (default mzbw_out)")
        cmd.add_argument("--backend", choices=("spectral", "fd2"), default="spectral")
        if name == "trajectories":
            cmd.add_argument("--seed", type=_seed, default=None, help="override the trajectory seed")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    out_dir = os.environ.get("MZBW_OUT", args.out)
    handler = {
        "decompose": _cmd_decompose,
        "spin": _cmd_spin,
        "evolve": _cmd_evolve,
        "trajectories": _cmd_trajectories,
        "verify": _cmd_verify,
    }[args.command]
    try:
        cfg = cfgmod.load_config(args.config)
        _check_out(out_dir)
        return handler(cfg, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an unusable --out, such as an existing file
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


def _check_out(path: str) -> None:
    """Raise the OSError that making the directory `path` would raise, without
    making it: the nearest existing ancestor must be a writable directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        code = errno.EEXIST if existing == os.path.abspath(path) else errno.ENOTDIR
        raise OSError(code, os.strerror(code), path)
    if not os.access(existing, os.W_OK | os.X_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), existing)


def _inputs(cfg: dict):
    """The grid, params and initial state every field command starts from."""
    grid = cfgmod.build_grid(cfg)
    params = cfgmod.build_params(cfg)
    return grid, params, cfgmod.build_state(cfg, grid, params)


def _grid_summary(grid) -> dict:
    return {"points": list(grid.points), "extent": [float(e) for e in grid.extents]}


def _cmd_decompose(cfg: dict, out_dir: str, args) -> int:
    grid, params, psi = _inputs(cfg)
    potential = cfgmod.build_potential(cfg, grid, params)

    jet = _Jet(psi, params, args.backend)
    md = decompose(jet, params, args.backend)
    # koenig_energy caches grad(rho), whose rows the quantum potential's bracket reads
    budget = koenig_energy(jet, potential, params, chi=cfgmod.build_spinor(cfg), backend=args.backend)
    qp = quantum_potential(jet, params, args.backend)

    os.makedirs(out_dir, exist_ok=True)
    outputs = {
        "rho.mzbw": md.rho,
        "phase.mzbw": md.phase,
        "momentum.mzbw": md.momentum,
        "qpotential.mzbw": qp.q,
    }
    for name, field in outputs.items():
        fieldio.write_field(os.path.join(out_dir, name), field)
    fieldio.write_json(
        os.path.join(out_dir, "summary.json"),
        {
            "command": "decompose",
            "backend": args.backend,
            "grid": _grid_summary(grid),
            "norm": float(integrate(md.rho)),
            "masked_fraction": float(np.mean(md.node_mask)),
            "energies": {
                "translational": budget.translational,
                "internal": budget.internal,
                "potential": budget.potential,
                "total": budget.total,
            },
            "outputs": sorted(outputs),
        },
    )
    return 0


def _cmd_spin(cfg: dict, out_dir: str, args) -> int:
    grid, params = cfgmod.build_grid(cfg), cfgmod.build_params(cfg)
    chi = cfgmod.build_spinor(cfg)
    vector_potential = cfgmod.build_vector_potential(cfg, grid)
    # the state is passed unnamed, so the split frees it once the spinor is built
    split = spin_split(cfgmod.build_state(cfg, grid, params), chi, params, vector_potential, args.backend)
    hest = split.hestenes
    constraints_pass = max(hest.div_max, hest.dot_max) <= CONSTRAINT_TOL
    outputs = {
        "spin.mzbw": split.spin.s,
        "current.mzbw": split.current,
        "drift.mzbw": split.drift,
        "zbw.mzbw": split.zbw,
        "total.mzbw": split.total,
    }

    os.makedirs(out_dir, exist_ok=True)
    for name, field in outputs.items():
        fieldio.write_field(os.path.join(out_dir, name), field)
    fieldio.write_json(
        os.path.join(out_dir, "summary.json"),
        {
            "command": "spin",
            "backend": args.backend,
            "grid": _grid_summary(grid),
            "spin_vector": [float(c) for c in spin_vector(chi, params)],
            "constraints": {
                "div_rho_s_max": hest.div_max,
                "div_rho_s_weighted": hest.div_weighted,
                "grad_rho_dot_s_max": hest.dot_max,
                "grad_rho_dot_s_weighted": hest.dot_weighted,
                "tolerance": CONSTRAINT_TOL,
                "passed": bool(constraints_pass),
            },
            "current_consistency_max": split.consistency,
            "masked_fraction": float(np.mean(split.spin.node_mask)),
            "outputs": sorted(outputs),
        },
    )
    if not constraints_pass:
        print(
            f"spin constraints violated: max |grad(rho).s| = {hest.dot_max:.3e}, "
            f"max |div(rho s)| = {hest.div_max:.3e} (tolerance {CONSTRAINT_TOL})",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_evolve(cfg: dict, out_dir: str, args) -> int:
    grid, params, psi = _inputs(cfg)
    evolution = cfgmod.build_evolution(cfg, grid, params)
    stream = iter_propagate(psi, evolution)
    del psi  # the stream holds the initial state, and yields it as snapshot 0
    snapshots = fieldio.stream_snapshot_series(os.path.join(out_dir, "snapshots"), stream, config_echo=cfg)
    phase_sup, continuity_sup = [], []
    if cfgmod.read_evolution(cfg)["residuals"]:
        phase_sup, continuity_sup = residual_sups(snapshots, evolution.potential, params, args.backend)
    for _ in snapshots:  # the rest of the run, when no residuals read it
        pass

    norms, energies = np.array(stream.norms), np.array(stream.energies)
    summary = {
        "command": "evolve",
        "backend": args.backend,
        "propagator": "split-step spectral",
        "grid": _grid_summary(grid),
        "snapshots": len(stream.times),
        "time_range": [float(stream.times[0]), float(stream.times[-1])],
        "norm_drift_max": float(np.max(np.abs(norms - norms[0]))),
        "energy_drift_max": float(np.max(np.abs(energies - energies[0]))),
    }
    if phase_sup:  # empty for fewer than three snapshots
        summary["residuals"] = {"phase_sup": phase_sup, "continuity_sup": continuity_sup, "region_eps": REGION_EPS}
    fieldio.write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0


def _cmd_trajectories(cfg: dict, out_dir: str, args) -> int:
    grid, params, psi = _inputs(cfg)
    run = cfgmod.read_trajectories(cfg)
    if run is None:
        raise ConfigError("this command requires the trajectories section")
    seed = run["seed"] if args.seed is None else args.seed
    spin = spin_vector(cfgmod.build_spinor(cfg), params) if run["mode"] == "total" else None
    # one jet of the initial state serves the sampler and, for a static
    # source, the velocity table
    jet = _Jet(psi, params, args.backend)
    source = iter_propagate(psi, cfgmod.build_evolution(cfg, grid, params)) if run["source"] == "evolve" else jet

    seeds = trajectories.sample_initial(RealField(grid, jet.rho), run["n"], seed)
    del psi, jet  # an evolve source holds the state as snapshot 0, a static one is the jet
    traj = trajectories.advect(
        seeds,
        source,
        run["mode"],
        spin=spin,
        params=params,
        substeps=run["substeps"],
        duration=run["time"],
        rk_steps=run["rk_steps"],
        backend=args.backend,
        rng_seed=seed,
    )

    os.makedirs(out_dir, exist_ok=True)
    if run["format"] == "csv":
        data_file = "trajectories.csv"
        fieldio.write_trajectories_csv(os.path.join(out_dir, data_file), traj, run["record_stride"])
    else:
        data_file = "trajectories.bin"
        fieldio.write_trajectories_binary(os.path.join(out_dir, data_file), traj, run["record_stride"])

    manifest = {
        "command": "trajectories",
        "backend": args.backend,
        "grid": _grid_summary(grid),
        "n": run["n"],
        "seed": seed,
        "mode": run["mode"],
        "source": run["source"],
        "frozen": int(np.sum(traj.frozen)),
        "time_range": [float(traj.times[0]), float(traj.times[-1])],
        "time_blend": traj.time_blend,
        "max_step_per_spacing": traj.max_step_per_spacing,
        "files": [data_file],
    }
    equiv_failed = False
    if run["equivariance"]:  # an evolve source only
        final = _Jet(source.last.state, params, args.backend)
        report = trajectories.equivariance_check(traj, RealField(grid, final.rho))
        manifest["equivariance"] = {
            "statistic": report.statistic,
            "critical_1pct": report.critical_1pct,
            "per_axis": [float(s) for s in report.per_axis],
            "passed": bool(report.passed),
        }
        equiv_failed = not report.passed
    fieldio.write_json(os.path.join(out_dir, "manifest.json"), manifest)

    if equiv_failed:
        print(
            f"equivariance check failed: statistic {manifest['equivariance']['statistic']:.4f} "
            f">= critical {manifest['equivariance']['critical_1pct']:.4f}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_verify(cfg: dict, out_dir: str, args) -> int:
    report = verify.run_battery(backend=args.backend, refinements=cfgmod.read_verify(cfg)["refinements"])
    os.makedirs(out_dir, exist_ok=True)
    fieldio.write_json(os.path.join(out_dir, "report.json"), report)
    for line in verify.format_report(report):
        print(line)
    return 0 if report["passed"] else 3


if __name__ == "__main__":
    sys.exit(main())
