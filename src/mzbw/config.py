"""Run configuration.

Configs are JSON objects validated strictly: unknown keys anywhere are an
error, as are missing required keys, out-of-range values and numbers that
are not finite.  Validation runs to completion before any numerics start, so
a bad config never produces partial output.

Top-level sections (all optional unless a command requires them):

    grid              points [..], extent [..]
    params            hbar, mass, charge
    state             family plane_wave | gaussian | harmonic_ground | file
    spinor            theta, phi  (Bloch angles; defaults give spin up)
    potential         family none | harmonic | file
    vector_potential  family none | uniform | file
    evolution         dt, steps, snapshot_stride, residuals
    trajectories      n, mode, source, seed, ...
    verify            refinements

Each section has one reader, `read_<section>`, which owns its keys, defaults
and bounds and returns the section with every default filled in (None for an
absent section that has required keys); validation, the `build_*` functions
and the CLI all read through it.  A per-axis list has 1 or grid-dims entries,
and once the grid is known one entry fills every axis.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import fieldio, states
from .evolve import EvolutionConfig
from .fields import ComplexField, Grid, PhysicalParams, RealField, VectorField
from .trajectories import MODES


class ConfigError(ValueError):
    """Invalid or unusable run configuration."""


_TOP_KEYS = {
    "grid",
    "params",
    "state",
    "spinor",
    "potential",
    "vector_potential",
    "evolution",
    "trajectories",
    "verify",
}

_FLOAT_MAX = float(np.finfo(float).max)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _section(cfg: dict, name: str, keys: set | None = None) -> dict | None:
    """cfg[name] as an object, or None when absent; `keys` are all it may hold."""
    if name not in cfg:
        return None
    section = cfg[name]
    if not isinstance(section, dict):
        raise ConfigError(f"config.{name} must be an object")
    if keys is not None:
        _check_keys(section, keys, name)
    return section


def _required(spec: dict | None, name: str) -> dict:
    if spec is None:
        raise ConfigError(f"this command requires the {name} section")
    return spec


def _get(section: dict, key: str, where: str, default):
    """section[key], or `default` when absent; a default of None means required."""
    if key in section:
        return section[key]
    if default is None:
        raise ConfigError(f"missing {where}.{key}")
    return default


def _finite(value, name: str, positive: bool = False) -> float:
    # abs(x) <= max float is False for nan, +-inf and ints too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _FLOAT_MAX:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return float(value)


def _number(section: dict, key: str, where: str, default=None, positive: bool = False) -> float:
    return _finite(_get(section, key, where, default), f"{where}.{key}", positive)


def _numbers(
    section: dict, key: str, where: str, dims=None, default=None, positive=False, scalar=False
) -> list[float]:
    """A list of finite numbers (a bare number too where `scalar`); with `dims`,
    one entry per axis, a single entry standing for all of them."""
    value = _get(section, key, where, default)
    if scalar and not isinstance(value, list):
        value = [value]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}.{key} must be a non-empty list of numbers")
    out = [_finite(v, f"{where}.{key}", positive) for v in value]
    if dims is None or len(out) == dims:
        return out
    if len(out) == 1:
        return out * dims
    raise ConfigError(f"{where}.{key} must have 1 or {dims} entries, got {len(out)}")


def _integer(section: dict, key: str, where: str, default=None, minimum: int | None = None) -> int:
    value = _get(section, key, where, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {value}")
    return value


def _flag(section: dict, key: str, where: str) -> bool:
    value = _get(section, key, where, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be a boolean")
    return value


def _choice(section: dict, key: str, where: str, allowed: tuple, default=None):
    value = _get(section, key, where, default)
    if value not in allowed:
        raise ConfigError(f"{where}.{key} must be one of {allowed}, got {value!r}")
    return value


def _family(section: dict, where: str, keys: dict) -> str:
    """The section's family, after checking its keys against those `keys[family]` allows."""
    family = _choice(section, "family", where, tuple(keys))
    _check_keys(section, {"family"} | keys[family], where)
    return family


def _existing_file(section: dict, where: str) -> str:
    path = _get(section, "path", where, None)
    if not isinstance(path, str):
        raise ConfigError(f"{where}.path must be a string")
    if not os.path.isfile(path):
        raise ConfigError(f"{where}.path does not exist: {path}")
    return path


def _field_file(path: str, kind: type, grid: Grid, where: str):
    field = fieldio.read_field(path)
    if not isinstance(field, kind):
        raise ConfigError(f"{where}.path must hold a {kind.__name__}, got {type(field).__name__}")
    if field.grid != grid:
        raise ConfigError(f"{where}.path grid does not match the grid section")
    return field


def read_grid(cfg: dict) -> dict | None:
    grid = _section(cfg, "grid", {"points", "extent"})
    if grid is None:
        return None
    points = grid.get("points")
    if not isinstance(points, list) or not 1 <= len(points) <= 3:
        raise ConfigError("grid.points must be a list of 1 to 3 integers")
    for n in points:
        if isinstance(n, bool) or not isinstance(n, int) or n < 4 or n % 2:
            raise ConfigError(f"grid.points entries must be even integers >= 4, got {n}")
    extent = _numbers(grid, "extent", "grid", positive=True)
    if len(extent) != len(points):
        raise ConfigError("grid.extent must match grid.points in length")
    return {"points": points, "extent": extent}


def read_params(cfg: dict) -> dict:
    params = _section(cfg, "params", {"hbar", "mass", "charge"}) or {}
    return {
        "hbar": _number(params, "hbar", "params", 1.0, positive=True),
        "mass": _number(params, "mass", "params", 1.0, positive=True),
        "charge": _number(params, "charge", "params", 0.0),
    }


def read_state(cfg: dict, dims: int | None = None) -> dict | None:
    state = _section(cfg, "state")
    if state is None:
        return None
    keys = {
        "plane_wave": {"k"},
        "gaussian": {"sigma", "center", "boost"},
        "harmonic_ground": {"omega"},
        "file": {"path"},
    }
    family = _family(state, "state", keys)
    if family == "plane_wave":
        return {"family": family, "k": _numbers(state, "k", "state", dims)}
    if family == "gaussian":
        return {
            "family": family,
            "sigma": _numbers(state, "sigma", "state", dims, 1.0, positive=True, scalar=True),
            "center": _numbers(state, "center", "state", dims, [0.0]),
            "boost": _numbers(state, "boost", "state", dims, [0.0]),
        }
    if family == "harmonic_ground":
        return {"family": family, "omega": _number(state, "omega", "state", 1.0, positive=True)}
    return {"family": family, "path": _existing_file(state, "state")}


def read_spinor(cfg: dict) -> dict:
    spinor = _section(cfg, "spinor", {"theta", "phi"}) or {}
    return {"theta": _number(spinor, "theta", "spinor", 0.0), "phi": _number(spinor, "phi", "spinor", 0.0)}


def read_potential(cfg: dict, dims: int | None = None) -> dict | None:
    """The potential section, or None for no potential."""
    pot = _section(cfg, "potential")
    if pot is None:
        return None
    family = _family(pot, "potential", {"none": set(), "harmonic": {"omega", "center"}, "file": {"path"}})
    if family == "harmonic":
        return {
            "family": family,
            "omega": _number(pot, "omega", "potential", 1.0, positive=True),
            "center": _numbers(pot, "center", "potential", dims, [0.0]),
        }
    if family == "file":
        return {"family": family, "path": _existing_file(pot, "potential")}
    return None


def read_vector_potential(cfg: dict) -> dict | None:
    """The vector_potential section, or None for no vector potential."""
    vp = _section(cfg, "vector_potential")
    if vp is None:
        return None
    family = _family(vp, "vector_potential", {"none": set(), "uniform": {"value"}, "file": {"path"}})
    if family == "uniform":
        value = _numbers(vp, "value", "vector_potential")
        if len(value) != 3:
            raise ConfigError(f"vector_potential.value must have 3 entries, got {len(value)}")
        return {"family": family, "value": value}
    if family == "file":
        return {"family": family, "path": _existing_file(vp, "vector_potential")}
    return None


def read_evolution(cfg: dict) -> dict | None:
    evo = _section(cfg, "evolution", {"dt", "steps", "snapshot_stride", "residuals"})
    if evo is None:
        return None
    dt = _number(evo, "dt", "evolution", positive=True)
    steps = _integer(evo, "steps", "evolution", minimum=1)
    stride = _integer(evo, "snapshot_stride", "evolution", 1, minimum=1)
    if steps % stride:
        raise ConfigError(f"evolution.snapshot_stride must divide steps, got {stride} vs {steps}")
    return {"dt": dt, "steps": steps, "snapshot_stride": stride, "residuals": _flag(evo, "residuals", "evolution")}


def read_trajectories(cfg: dict) -> dict | None:
    """The trajectories section; `time` and `rk_steps` are None for an evolve source."""
    keys = {"n", "mode", "source", "seed", "time", "rk_steps", "substeps", "record_stride", "format", "equivariance"}
    traj = _section(cfg, "trajectories", keys)
    if traj is None:
        return None
    where = "trajectories"
    run = {
        "n": _integer(traj, "n", where, minimum=1),
        "mode": _choice(traj, "mode", where, MODES, "drift"),
        "source": _choice(traj, "source", where, ("evolve", "static"), "static"),
        "seed": _integer(traj, "seed", where, 0, minimum=0),
        "substeps": _integer(traj, "substeps", where, 4, minimum=1),
        "record_stride": _integer(traj, "record_stride", where, 1, minimum=1),
        "format": _choice(traj, "format", where, ("csv", "binary"), "csv"),
        "equivariance": _flag(traj, "equivariance", where),
    }
    static = run["source"] == "static"
    if not static and ("time" in traj or "rk_steps" in traj):
        raise ConfigError("trajectories.time/rk_steps apply only to source 'static'")
    if not static and "evolution" not in cfg:
        raise ConfigError("trajectories.source 'evolve' requires an evolution section")
    run["time"] = _number(traj, "time", where, positive=True) if static else None
    run["rk_steps"] = _integer(traj, "rk_steps", where, 200, minimum=1) if static else None
    return run


def read_verify(cfg: dict) -> dict:
    ver = _section(cfg, "verify", {"refinements"}) or {}
    return {"refinements": _integer(ver, "refinements", "verify", 2, minimum=0)}


def load_config(path: str) -> dict:
    """Read and validate a JSON config file.  Returns the dict as read."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    grid = read_grid(cfg)
    dims = None if grid is None else len(grid["points"])
    read_state(cfg, dims)
    read_potential(cfg, dims)
    for read in (read_params, read_spinor, read_vector_potential, read_evolution, read_trajectories, read_verify):
        read(cfg)


def build_grid(cfg: dict) -> Grid:
    spec = _required(read_grid(cfg), "grid")
    return Grid(spec["points"], spec["extent"])


def build_params(cfg: dict) -> PhysicalParams:
    return PhysicalParams(**read_params(cfg))


def build_state(cfg: dict, grid: Grid, params: PhysicalParams) -> ComplexField:
    spec = _required(read_state(cfg, grid.dims), "state")
    family = spec["family"]
    if family == "plane_wave":
        return states.plane_wave(grid, spec["k"], params)
    if family == "gaussian":
        sigma, center, boost = spec["sigma"], spec["center"], spec["boost"]
        return states.gaussian(grid, sigma=sigma, center=center, boost=boost, params=params)
    if family == "harmonic_ground":
        return states.harmonic_ground(grid, omega=spec["omega"], params=params)
    return _field_file(spec["path"], ComplexField, grid, "state")


def build_evolution(cfg: dict, grid: Grid, params: PhysicalParams) -> EvolutionConfig:
    spec = _required(read_evolution(cfg), "evolution")
    return EvolutionConfig(
        dt=spec["dt"],
        steps=spec["steps"],
        snapshot_stride=spec["snapshot_stride"],
        potential=build_potential(cfg, grid, params),
        params=params,
    )


def build_spinor(cfg: dict) -> np.ndarray:
    return states.constant_spinor(**read_spinor(cfg))


def build_potential(cfg: dict, grid: Grid, params: PhysicalParams) -> RealField | None:
    spec = read_potential(cfg, grid.dims)
    if spec is None:
        return None
    if spec["family"] == "harmonic":
        return states.harmonic_potential(grid, omega=spec["omega"], center=spec["center"], params=params)
    return _field_file(spec["path"], RealField, grid, "potential")


def build_vector_potential(cfg: dict, grid: Grid) -> VectorField | None:
    spec = read_vector_potential(cfg)
    if spec is None:
        return None
    if spec["family"] == "uniform":
        return VectorField(grid, np.stack([np.full(grid.shape, v) for v in spec["value"]]))
    return _field_file(spec["path"], VectorField, grid, "vector_potential")
