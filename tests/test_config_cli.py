"""Config validation and CLI behavior.

Configs are rejected before any numerics run: unknown keys anywhere, wrong
types (including booleans posing as numbers), and cross-section conflicts are
all ConfigErrors.  The CLI maps failure classes to exit codes: 1 config, 2
numerical, 3 constraint violation.  Reruns write byte-identical outputs.
"""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import mzbw
from mzbw import ComplexField, Grid, PhysicalParams, cli, gaussian
from mzbw.config import (
    ConfigError,
    build_evolution,
    build_potential,
    build_state,
    build_vector_potential,
    load_config,
    read_trajectories,
    validate_config,
)
from mzbw.fieldio import read_json, read_trajectories_binary, write_field


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


BASE = {
    "grid": {"points": [128], "extent": [30.0]},
    "state": {"family": "gaussian", "sigma": 1.0},
}


class TestValidation:
    def test_minimal_config_passes(self):
        validate_config(dict(BASE))

    def test_unknown_top_level_key(self):
        cfg = dict(BASE, extra={"a": 1})
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(cfg)

    def test_unknown_nested_key(self):
        cfg = {"grid": {"points": [8], "extent": [1.0], "spacing": 0.1}}
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(cfg)

    def test_odd_grid_points(self):
        cfg = {"grid": {"points": [9], "extent": [1.0]}}
        with pytest.raises(ConfigError, match="even"):
            validate_config(cfg)

    def test_extent_length_mismatch(self):
        cfg = {"grid": {"points": [8, 8], "extent": [1.0]}}
        with pytest.raises(ConfigError, match="match"):
            validate_config(cfg)

    def test_boolean_is_not_a_number(self):
        cfg = {"params": {"hbar": True}}
        with pytest.raises(ConfigError, match="number"):
            validate_config(cfg)

    def test_unknown_state_family(self):
        cfg = {"state": {"family": "soliton"}}
        with pytest.raises(ConfigError, match="family"):
            validate_config(cfg)

    def test_plane_wave_needs_k(self):
        cfg = {"state": {"family": "plane_wave"}}
        with pytest.raises(ConfigError, match="state.k"):
            validate_config(cfg)

    def test_missing_state_file(self):
        cfg = {"state": {"family": "file", "path": "/nonexistent/state.mzbw"}}
        with pytest.raises(ConfigError, match="does not exist"):
            validate_config(cfg)

    def test_stride_must_divide_steps(self):
        cfg = {"evolution": {"dt": 1e-3, "steps": 10, "snapshot_stride": 4}}
        with pytest.raises(ConfigError, match="divide"):
            validate_config(cfg)

    def test_static_knobs_rejected_for_evolve_source(self):
        cfg = {
            "evolution": {"dt": 1e-3, "steps": 10},
            "trajectories": {"n": 10, "source": "evolve", "time": 1.0},
        }
        with pytest.raises(ConfigError, match="static"):
            validate_config(cfg)

    def test_substeps_rejected_for_static_source(self):
        cfg = {"trajectories": {"n": 10, "time": 1.0, "substeps": 2}}
        with pytest.raises(ConfigError, match="substeps applies only to source 'evolve'"):
            validate_config(cfg)

    def test_equivariance_rejected_for_static_source(self):
        for traj in ({"n": 10, "time": 1.0, "equivariance": True}, {"n": 10, "equivariance": True}):
            with pytest.raises(ConfigError, match="equivariance applies only to source 'evolve'"):
                validate_config({"trajectories": traj})
        assert read_trajectories({"trajectories": {"n": 10, "time": 1.0, "equivariance": False}})["equivariance"] is False

    def test_substeps_is_none_for_static_source(self):
        for traj in ({"n": 10, "time": 1.0}, {"n": 10, "time": 1.0, "substeps": 4}):
            assert read_trajectories({"trajectories": traj})["substeps"] is None
        cfg = {"evolution": {"dt": 1e-3, "steps": 10}, "trajectories": {"n": 10, "source": "evolve", "substeps": 2}}
        assert read_trajectories(cfg)["substeps"] == 2

    def test_evolve_source_requires_evolution_section(self):
        cfg = {"trajectories": {"n": 10, "source": "evolve"}}
        with pytest.raises(ConfigError, match="evolution"):
            validate_config(cfg)

    def test_non_json_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))


class TestBuilders:
    def test_state_file_round_trip(self, tmp_path):
        grid = Grid((64,), (16.0,))
        psi = gaussian(grid, sigma=1.2)
        path = tmp_path / "state.mzbw"
        write_field(str(path), psi)
        cfg = {
            "grid": {"points": [64], "extent": [16.0]},
            "state": {"family": "file", "path": str(path)},
        }
        validate_config(cfg)
        back = build_state(cfg, grid, PhysicalParams())
        assert np.array_equal(back.values, psi.values)

    def test_state_file_grid_mismatch(self, tmp_path):
        grid = Grid((64,), (16.0,))
        path = tmp_path / "state.mzbw"
        write_field(str(path), gaussian(grid))
        cfg = {"state": {"family": "file", "path": str(path)}}
        with pytest.raises(ConfigError, match="grid"):
            build_state(cfg, Grid((64,), (20.0,)), PhysicalParams())

    def test_harmonic_potential_built(self):
        grid = Grid((64,), (16.0,))
        cfg = {"potential": {"family": "harmonic", "omega": 2.0}}
        pot = build_potential(cfg, grid, PhysicalParams())
        x = grid.axes[0]
        np.testing.assert_allclose(pot.values, 2.0 * x * x, atol=1e-12)

    def test_uniform_vector_potential_built(self):
        grid = Grid((16, 16), (4.0, 4.0))
        cfg = {"vector_potential": {"family": "uniform", "value": [0.1, -0.2, 0.0]}}
        a = build_vector_potential(cfg, grid)
        assert np.all(a.values[0] == 0.1)
        assert np.all(a.values[1] == -0.2)

    def test_evolution_built_with_potential(self):
        grid = Grid((64,), (16.0,))
        params = PhysicalParams(hbar=0.5)
        cfg = {
            "potential": {"family": "harmonic", "omega": 2.0},
            "evolution": {"dt": 1e-3, "steps": 20, "snapshot_stride": 5, "residuals": True},
        }
        evo = build_evolution(cfg, grid, params)
        assert (evo.dt, evo.steps, evo.snapshot_stride, evo.params) == (1e-3, 20, 5, params)
        assert np.array_equal(evo.potential.values, build_potential(cfg, grid, params).values)
        assert build_evolution({"evolution": {"dt": 0.1, "steps": 3}}, grid, params).potential is None
        with pytest.raises(ConfigError, match="evolution"):
            build_evolution({}, grid, params)

    def test_scalar_broadcast_in_state(self):
        grid = Grid((64, 64), (20.0, 20.0))
        cfg = {"state": {"family": "gaussian", "sigma": 1.5, "boost": [0.2, -0.1]}}
        psi = build_state(cfg, grid, PhysicalParams())
        rho = np.abs(psi.values) ** 2
        assert np.sum(rho) * grid.cell_volume == pytest.approx(1.0, abs=1e-9)


class TestCliExitCodes:
    def test_decompose_succeeds(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.json", BASE)
        out = tmp_path / "out"
        assert cli.main(["decompose", "--config", cfg_path, "--out", str(out)]) == 0
        summary = read_json(str(out / "summary.json"))
        assert summary["norm"] == pytest.approx(1.0, abs=1e-9)
        for name in ("rho.mzbw", "phase.mzbw", "momentum.mzbw", "qpotential.mzbw"):
            assert (out / name).exists()

    def test_bad_config_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.json", dict(BASE, typo=1))
        assert cli.main(["decompose", "--config", cfg_path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_1(self, tmp_path):
        assert cli.main(["decompose", "--config", str(tmp_path / "none.json")]) == 1

    def test_usage_error_exits_1(self):
        assert cli.main([]) == 1
        assert cli.main(["decompose"]) == 1

    def test_nan_state_file_exits_2(self, tmp_path, capsys):
        grid = Grid((16,), (4.0,))
        path = tmp_path / "state.mzbw"
        write_field(str(path), gaussian(grid))
        raw = bytearray(path.read_bytes())
        raw[-16:] = struct.pack("<2d", np.nan, 0.0)
        path.write_bytes(bytes(raw))
        cfg_path = write_config(
            tmp_path / "run.json",
            {
                "grid": {"points": [16], "extent": [4.0]},
                "state": {"family": "file", "path": str(path)},
            },
        )
        assert cli.main(["decompose", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", [(0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)], ids=["im-nan", "re-inf", "im-neg-inf"]
    )
    @pytest.mark.parametrize("command", ["decompose", "spin"])
    def test_non_finite_state_file_exits_2(self, tmp_path, capsys, command, value):
        """A NaN or an infinity in either part of one point of a state file
        is a numerical failure for every command that reads it."""
        grid = Grid((16,), (4.0,))
        path = tmp_path / "state.mzbw"
        write_field(str(path), gaussian(grid))
        raw = bytearray(path.read_bytes())
        raw[-16:] = struct.pack("<2d", *value)  # the last point, (real, imag)
        path.write_bytes(bytes(raw))
        cfg_path = write_config(
            tmp_path / "run.json",
            {
                "grid": {"points": [16], "extent": [4.0]},
                "state": {"family": "file", "path": str(path)},
            },
        )
        assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "spin"])
    def test_zero_state_file_exits_2(self, tmp_path, capsys, command):
        grid = Grid((16,), (4.0,))
        path = tmp_path / "state.mzbw"
        write_field(str(path), ComplexField(grid, np.zeros(16, dtype=complex)))
        cfg_path = write_config(
            tmp_path / "run.json",
            {
                "grid": {"points": [16], "extent": [4.0]},
                "state": {"family": "file", "path": str(path)},
            },
        )
        assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "zero" in err

    def test_aliased_snapshot_spacing_exits_2(self, tmp_path, capsys):
        # the k = 1 plane wave turns its phase by E * 20 dt = (1/2)(2 pi) = pi
        # between snapshots, so the residual's phase increment is ambiguous
        cfg = {
            "grid": {"points": [8], "extent": [2.0 * np.pi]},
            "state": {"family": "plane_wave", "k": [1.0]},
            "evolution": {"dt": np.pi / 10.0, "steps": 40, "snapshot_stride": 20, "residuals": True},
        }
        cfg_path = write_config(tmp_path / "run.json", cfg)
        assert cli.main(["evolve", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "phase jump" in err

    def test_spin_planar_passes(self, tmp_path):
        cfg = {
            "grid": {"points": [64, 64], "extent": [20.0, 20.0]},
            "state": {"family": "gaussian"},
        }
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["spin", "--config", cfg_path, "--out", str(out)]) == 0
        summary = read_json(str(out / "summary.json"))
        assert summary["constraints"]["passed"]
        assert summary["current_consistency_max"] < 1e-10

    def test_spin_3d_violation_exits_3(self, tmp_path, capsys):
        cfg = {
            "grid": {"points": [32, 32, 32], "extent": [16.0, 16.0, 16.0]},
            "state": {"family": "gaussian"},
        }
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["spin", "--config", cfg_path, "--out", str(out)]) == 3
        assert "constraints violated" in capsys.readouterr().err
        summary = read_json(str(out / "summary.json"))
        assert not summary["constraints"]["passed"]

    def test_verify_spectral_exits_0(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.json", {"verify": {"refinements": 0}})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
        lines = capsys.readouterr().out
        assert "[PASS]" in lines
        assert "battery: PASS" in lines
        report = read_json(str(out / "report.json"))
        assert report["passed"]


class TestCliBehavior:
    def test_reruns_are_byte_identical(self, tmp_path):
        # decompose, and the two streamed commands: evolve with residuals and
        # trajectories transported through an evolving series
        evolution = {"dt": 2e-3, "steps": 12, "snapshot_stride": 3, "residuals": True}
        runs = [
            ("decompose", BASE),
            ("evolve", dict(BASE, evolution=evolution)),
            ("trajectories", dict(BASE, evolution=evolution, trajectories={"n": 50, "source": "evolve", "seed": 2})),
        ]
        for command, cfg in runs:
            cfg_path = write_config(tmp_path / f"{command}.json", cfg)
            out_a, out_b = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
            assert cli.main([command, "--config", cfg_path, "--out", str(out_a)]) == 0
            assert cli.main([command, "--config", cfg_path, "--out", str(out_b)]) == 0
            names = sorted(str(p.relative_to(out_a)) for p in out_a.rglob("*") if p.is_file())
            assert names == sorted(str(p.relative_to(out_b)) for p in out_b.rglob("*") if p.is_file())
            assert len(names) > 1
            for name in names:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_env_var_overrides_out_flag(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path / "run.json", BASE)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("MZBW_OUT", str(env_out))
        assert cli.main(["decompose", "--config", cfg_path, "--out", str(tmp_path / "flag")]) == 0
        assert env_out.is_dir()
        assert not (tmp_path / "flag").exists()

    def test_evolve_writes_snapshots_and_residuals(self, tmp_path):
        cfg = {
            "grid": {"points": [128], "extent": [30.0]},
            "state": {"family": "harmonic_ground"},
            "potential": {"family": "harmonic"},
            "evolution": {"dt": 1e-3, "steps": 40, "snapshot_stride": 10, "residuals": True},
        }
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", cfg_path, "--out", str(out)]) == 0
        summary = read_json(str(out / "summary.json"))
        assert summary["norm_drift_max"] < 1e-12
        assert summary["energy_drift_max"] < 1e-10
        assert len(summary["residuals"]["phase_sup"]) == 3
        assert max(summary["residuals"]["phase_sup"]) < 1e-4
        manifest = read_json(str(out / "snapshots" / "manifest.json"))
        assert len(manifest["files"]) == 5
        assert manifest["config"] == cfg

    def test_evolve_summary_names_the_propagator(self, tmp_path):
        # --backend picks the residuals' derivatives; the propagation stays spectral
        cfg = {
            "grid": {"points": [64], "extent": [20.0]},
            "state": {"family": "harmonic_ground"},
            "evolution": {"dt": 1e-3, "steps": 4, "snapshot_stride": 2, "residuals": True},
        }
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", cfg_path, "--out", str(out), "--backend", "fd2"]) == 0
        summary = read_json(str(out / "summary.json"))
        assert summary["backend"] == "fd2"
        assert summary["propagator"] == "split-step spectral"

    def test_trajectories_static_csv(self, tmp_path):
        cfg = {
            "grid": {"points": [128], "extent": [30.0]},
            "state": {"family": "gaussian", "boost": [0.5]},
            "trajectories": {"n": 40, "time": 1.0, "rk_steps": 20, "seed": 5},
        }
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["trajectories", "--config", cfg_path, "--out", str(out)]) == 0
        manifest = read_json(str(out / "manifest.json"))
        assert manifest["seed"] == 5
        assert manifest["files"] == ["trajectories.csv"]
        lines = (out / "trajectories.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 40 * 21

    def test_trajectories_manifest_reports_time_blend_and_step(self, tmp_path):
        # a 64-point grid blends on the grid for 50 particles (64 <= 2 * 50)
        # and at the particles for 20; the paths round differently, the
        # largest step per spacing stays that of the same flow
        steps = {}
        for n, order in ((50, "grid"), (20, "particles")):
            cfg = {
                "grid": {"points": [64], "extent": [20.0]},
                "state": {"family": "gaussian", "boost": [0.5]},
                "evolution": {"dt": 1e-3, "steps": 20, "snapshot_stride": 5},
                "trajectories": {"n": n, "source": "evolve", "seed": 5, "format": "binary"},
            }
            cfg_path = write_config(tmp_path / f"run{n}.json", cfg)
            out = tmp_path / f"out{n}"
            assert cli.main(["trajectories", "--config", cfg_path, "--out", str(out)]) == 0
            manifest = read_json(str(out / "manifest.json"))
            assert manifest["time_blend"] == order
            steps[n] = manifest["max_step_per_spacing"]
        # boost 0.5 for 5e-3 a substep, over a spacing of 20/64
        assert steps[50] == pytest.approx(0.5 * 5e-3 / 4 / (20.0 / 64), rel=0.05)
        assert steps[20] == pytest.approx(steps[50], rel=0.05)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {
            "grid": {"points": [128], "extent": [30.0]},
            "state": {"family": "gaussian"},
            "trajectories": {"n": 10, "time": 0.5, "rk_steps": 5, "seed": 5},
        }
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        code = cli.main(
            ["trajectories", "--config", cfg_path, "--out", str(out), "--seed", "11"]
        )
        assert code == 0
        assert read_json(str(out / "manifest.json"))["seed"] == 11

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--seed=-7"], ["--seed", "x"]])
    def test_bad_seed_flag_exits_1_before_reading_config(self, tmp_path, capsys, monkeypatch, flag):
        def unreachable(path):
            raise AssertionError("config loaded despite a bad --seed")

        monkeypatch.setattr(cli.cfgmod, "load_config", unreachable)
        out = tmp_path / "out"
        assert cli.main(["trajectories", "--config", "run.json", "--out", str(out)] + flag) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decompose", "spin", "evolve", "verify"])
    def test_seed_flag_rejected_outside_trajectories(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path / "run.json", BASE)
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg_path, "--out", str(out), "--seed", "3"]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()

    def test_trajectories_evolve_source_with_equivariance(self, tmp_path):
        cfg = {
            "grid": {"points": [128], "extent": [30.0]},
            "state": {"family": "gaussian"},
            "evolution": {"dt": 2e-3, "steps": 100, "snapshot_stride": 20},
            "trajectories": {
                "n": 400,
                "source": "evolve",
                "seed": 3,
                "format": "binary",
                "equivariance": True,
            },
        }
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["trajectories", "--config", cfg_path, "--out", str(out)]) == 0
        manifest = read_json(str(out / "manifest.json"))
        assert manifest["equivariance"]["passed"]
        assert (out / "trajectories.bin").exists()


    def test_static_substeps_exits_1_without_output(self, tmp_path, capsys):
        cfg = dict(BASE, trajectories={"n": 10, "time": 0.5, "rk_steps": 5, "substeps": 8})
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["trajectories", "--config", cfg_path, "--out", str(out)]) == 1
        assert "substeps" in capsys.readouterr().err
        assert not out.exists()

    def test_static_equivariance_exits_1_without_output(self, tmp_path, capsys):
        """A static source has no final density: the ensemble moves along the
        frozen velocity and stays distributed like the initial density only
        where that flow leaves it stationary.  This boosted Gaussian,
        transported correctly, failed the check with exit 3."""
        cfg = {
            "grid": {"points": [32, 32], "extent": [16.0, 16.0]},
            "state": {"family": "gaussian", "sigma": 1.0, "boost": [0.4, -0.3]},
            "trajectories": {"n": 500, "mode": "total", "time": 0.6, "equivariance": True},
        }
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["trajectories", "--config", cfg_path, "--out", str(out)]) == 1
        assert "equivariance" in capsys.readouterr().err
        assert not out.exists()

    def test_binary_keeps_the_csv_rows_at_a_stride(self, tmp_path):
        # 7 recorded times at stride 3 keep times 0, 3 and 6
        traj = {"n": 12, "time": 0.6, "rk_steps": 6, "seed": 4, "record_stride": 3}
        base = dict(BASE, state={"family": "gaussian", "boost": [0.7]})
        rows = {}
        for fmt in ("csv", "binary"):
            cfg_path = write_config(tmp_path / f"{fmt}.json", dict(base, trajectories=dict(traj, format=fmt)))
            assert cli.main(["trajectories", "--config", cfg_path, "--out", str(tmp_path / fmt)]) == 0
        back = read_trajectories_binary(str(tmp_path / "binary" / "trajectories.bin"))
        lines = (tmp_path / "csv" / "trajectories.csv").read_text().strip().split("\n")[1:]
        table = np.array([[float(v) for v in line.split(",")[1:5]] for line in lines]).reshape(12, -1, 4)
        assert back.paths.shape == (12, 3, 3)
        np.testing.assert_array_equal(back.times, table[0, :, 0])
        np.testing.assert_array_equal(back.times, np.linspace(0.0, 0.6, 7)[[0, 3, 6]])
        np.testing.assert_array_equal(back.paths, table[:, :, 1:])

    @pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
    def test_unusable_output_location_exits_1(self, tmp_path, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker if where == "existing-file" else blocker / "out"
        cfg_path = write_config(tmp_path / "run.json", BASE)
        assert cli.main(["decompose", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("I/O error:")
        assert len(err.strip().splitlines()) == 1
        assert blocker.read_text() == "not a directory"


class TestOutputCheckedFirst:
    """An unusable --out is reported before any numerics run, and nothing is created."""

    CONFIG = dict(
        BASE,
        evolution={"dt": 1e-3, "steps": 4},
        trajectories={"n": 10, "source": "evolve"},
        verify={"refinements": 0},
    )

    @pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
    @pytest.mark.parametrize("command", ["decompose", "spin", "evolve", "trajectories", "verify"])
    def test_unusable_out_exits_1_before_numerics(self, tmp_path, capsys, monkeypatch, command, where):
        def unreachable(*args, **kwargs):
            raise AssertionError("numerics ran despite an unusable --out")

        monkeypatch.setattr(cli, "_inputs", unreachable)
        monkeypatch.setattr(cli.verify, "run_battery", unreachable)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker if where == "existing-file" else blocker / "out"
        cfg_path = write_config(tmp_path / "run.json", self.CONFIG)
        before = sorted(tmp_path.rglob("*"))
        assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and str(out) in err
        assert len(err.strip().splitlines()) == 1
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "not a directory"


class TestConfigBounds:
    """Every config number must be finite and every per-axis list must fit the
    grid; a config that breaks either exits 1 before any output is written."""

    STATIC_2D = {
        "grid": {"points": [32, 32], "extent": [12.0, 12.0]},
        "state": {"family": "gaussian", "boost": [0.3, -0.2]},
        "evolution": {"dt": 1e-3, "steps": 6, "residuals": True},
        "trajectories": {"n": 50, "mode": "total", "time": 0.2, "rk_steps": 8},
    }

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("trajectories", "trajectories", "time", np.inf),
            ("decompose", "grid", "extent", [np.inf, 12.0]),
            ("decompose", "state", "sigma", [-1.0]),
            ("decompose", "params", "hbar", np.nan),
            ("evolve", "evolution", "dt", np.inf),
            ("decompose", "state", "boost", [0.3, -np.inf]),
            ("decompose", "state", "center", [np.nan]),
            ("decompose", "params", "mass", 10**400),
        ],
        ids=[
            "time-inf", "extent-inf", "sigma-neg", "hbar-nan", "dt-inf", "boost-neg-inf", "center-nan", "mass-overflow"
        ],
    )
    def test_bad_number_exits_1_without_output(self, tmp_path, capsys, command, section, key, value):
        cfg = json.loads(json.dumps(self.STATIC_2D))
        cfg.setdefault(section, {})[key] = value
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section",
        [
            {"state": {"family": "gaussian", "center": [0.0, 1.0, 2.0]}},
            {"state": {"family": "plane_wave", "k": [0.0, 0.0, 0.0]}},
            {"potential": {"family": "harmonic", "center": [0.0, 1.0, 2.0]}},
        ],
    )
    def test_per_axis_list_must_fit_grid(self, section):
        cfg = dict(section, grid={"points": [16, 16], "extent": [4.0, 4.0]})
        with pytest.raises(ConfigError, match="1 or 2 entries"):
            validate_config(cfg)

    def test_config_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    @pytest.mark.parametrize("command", ["decompose", "spin", "evolve", "trajectories"])
    def test_spelled_out_defaults_change_no_output_byte(self, tmp_path, command):
        explicit = json.loads(json.dumps(self.STATIC_2D))
        explicit["params"] = {"hbar": 1.0, "mass": 1.0, "charge": 0.0}
        explicit["state"].update(sigma=1.0, center=[0.0])
        explicit["spinor"] = {"theta": 0.0, "phi": 0.0}
        explicit["potential"] = {"family": "none"}
        explicit["vector_potential"] = {"family": "none"}
        explicit["evolution"]["snapshot_stride"] = 1
        explicit["trajectories"].update(
            source="static", seed=0, substeps=4, record_stride=1, format="csv", equivariance=False
        )
        explicit["verify"] = {"refinements": 2}
        outs = []
        for name, cfg in (("omitted", self.STATIC_2D), ("explicit", explicit)):
            out = tmp_path / name
            cfg_path = write_config(tmp_path / f"{name}.json", cfg)
            assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 0
            files = {}
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    files[str(path.relative_to(out))] = path.read_bytes()
            outs.append(files)
        if command == "evolve":
            # the snapshot manifest echoes the config as read; all else must match
            for files, cfg in zip(outs, (self.STATIC_2D, explicit)):
                manifest = json.loads(files.pop("snapshots/manifest.json"))
                assert manifest.pop("config") == cfg
                files["snapshots/manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
        assert outs[0].keys() == outs[1].keys() and len(outs[0]) > 1
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name


class TestOutOfMemory:
    def test_oversized_ensemble_exits_2_without_traceback(self, tmp_path):
        # 10^13 x 3 float64 seeds is 218 TiB, beyond the 128 TiB x86-64 user
        # address space, so the allocation is refused at once
        cfg = dict(BASE, trajectories={"n": 10_000_000_000_000, "time": 1.0, "rk_steps": 2})
        cfg_path = write_config(tmp_path / "run.json", cfg)
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mzbw.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "mzbw.cli", "trajectories", "--config", cfg_path, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("out of memory:")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()
