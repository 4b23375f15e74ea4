"""Command line entry point.

    mzbw <command> --config run.json [--out DIR] [--backend spectral|fd2] [--seed N]

Commands: decompose, spin, evolve, trajectories, verify.  The MZBW_OUT
environment variable overrides --out.  --seed overrides the trajectory seed
from the config.

Exit codes: 0 success, 1 config or usage error (including config values that
are not finite), 2 numerical failure (non-finite or unusable data in input
files or results), 3 a verification constraint failed
(battery check, spin-constraint violation, equivariance).

Outputs are deterministic: rerunning a command with the same config writes
byte-identical files.  No timestamps, sorted JSON keys, fixed float
formatting.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from . import fieldio, trajectories, verify
from .config import ConfigError
from .evolve import propagate
from .fields import RealField, integrate
from .madelung import _Jet, continuity_residual, decompose, hj_residual, quantum_potential
from .spinhydro import (
    CONSTRAINT_TOL,
    hestenes_residual,
    koenig_energy,
    pauli_current,
    rho_total_current,
    spin_density,
    velocity_decomposition,
)
from .states import attach_spinor, spin_vector


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
        cmd.add_argument("--seed", type=int, default=None, help="override the trajectory seed")
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
        return handler(cfgmod.load_config(args.config), out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


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
    qp = quantum_potential(jet, params, args.backend)
    budget = koenig_energy(jet, potential, params, chi=cfgmod.build_spinor(cfg), backend=args.backend)

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
    grid, params, psi = _inputs(cfg)
    chi = cfgmod.build_spinor(cfg)
    vector_potential = cfgmod.build_vector_potential(cfg, grid)

    jet = _Jet(attach_spinor(psi, chi), params, args.backend)
    sv = spin_density(jet, params)
    current = pauli_current(jet, params, vector_potential, args.backend)
    decomp = velocity_decomposition(jet, params, vector_potential, args.backend)
    hest = hestenes_residual(sv.rho, sv.s, args.backend)
    consistency = float(
        np.max(np.abs(rho_total_current(decomp, sv.rho).values - current.total.values))
    )
    constraints_pass = max(hest.div_max, hest.dot_max) <= CONSTRAINT_TOL

    os.makedirs(out_dir, exist_ok=True)
    outputs = {
        "spin.mzbw": sv.s,
        "current.mzbw": current.total,
        "drift.mzbw": decomp.drift,
        "zbw.mzbw": decomp.zbw,
        "total.mzbw": decomp.total,
    }
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
            "current_consistency_max": consistency,
            "masked_fraction": float(np.mean(decomp.node_mask)),
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
    series = propagate(psi, evolution)

    os.makedirs(out_dir, exist_ok=True)
    snap_dir = os.path.join(out_dir, "snapshots")
    fieldio.write_snapshot_series(snap_dir, series, config_echo=cfg)

    summary = {
        "command": "evolve",
        "backend": args.backend,
        "grid": _grid_summary(grid),
        "snapshots": len(series.states),
        "time_range": [float(series.times[0]), float(series.times[-1])],
        "norm_drift_max": float(np.max(np.abs(series.norms - series.norms[0]))),
        "energy_drift_max": float(np.max(np.abs(series.energies - series.energies[0]))),
    }
    if cfgmod.read_evolution(cfg)["residuals"] and len(series.states) >= 3:
        # equation residuals on the interior snapshots, sup over rho >= 1e-6 max
        # so tail roundoff does not dominate; both share the middle snapshot's jet
        hj_sup, ct_sup = [], []
        for i in range(1, len(series.states) - 1):
            (prev, mid, nxt), dt = series.triple(i)
            triple = (prev, _Jet(mid, params, args.backend), nxt)
            rho = np.abs(mid.values) ** 2
            keep = rho >= verify.REGION_EPS * rho.max()
            hj = hj_residual(triple, dt, evolution.potential, params, args.backend)
            ct = continuity_residual(triple, dt, params, args.backend)
            hj_sup.append(float(np.max(np.abs(hj.values.values[keep]))))
            ct_sup.append(float(np.max(np.abs(ct.values.values[keep]))))
        summary["residuals"] = {
            "phase_sup": hj_sup,
            "continuity_sup": ct_sup,
            "region_eps": verify.REGION_EPS,
        }
    fieldio.write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0


def _cmd_trajectories(cfg: dict, out_dir: str, args) -> int:
    grid, params, psi = _inputs(cfg)
    run = cfgmod.read_trajectories(cfg)
    if run is None:
        raise ConfigError("this command requires the trajectories section")
    seed = run["seed"] if args.seed is None else args.seed
    spin = spin_vector(cfgmod.build_spinor(cfg), params) if run["mode"] == "total" else None
    source = propagate(psi, cfgmod.build_evolution(cfg, grid, params)) if run["source"] == "evolve" else psi

    # |psi|^2 by the jet's formula, the density `decompose` would give, without its momentum
    seeds = trajectories.sample_initial(RealField(grid, _Jet(psi, params, args.backend).rho), run["n"], seed)
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
        fieldio.write_trajectories_binary(os.path.join(out_dir, data_file), traj)

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
        "files": [data_file],
    }
    equiv_failed = False
    if run["equivariance"]:
        # a static source ends where it starts
        final = psi if source is psi else source.states[-1]
        report = trajectories.equivariance_check(traj, RealField(grid, _Jet(final, params, args.backend).rho))
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
