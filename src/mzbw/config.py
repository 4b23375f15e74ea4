"""Run configuration.

Configs are JSON objects validated strictly: unknown keys anywhere are an
error, as are missing required keys and out-of-range values.  Validation runs
to completion before any numerics start, so a bad config never produces
partial output.

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
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import fieldio, states
from .evolve import EvolutionConfig
from .fields import ComplexField, Grid, PhysicalParams, RealField, VectorField


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


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _mapping(cfg: dict, key: str, where: str = "config") -> dict:
    value = cfg[key]
    if not isinstance(value, dict):
        raise ConfigError(f"{where}.{key} must be an object")
    return value


def _number(section: dict, key: str, where: str, default=None, positive: bool = False):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing {where}.{key}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    if positive and value <= 0:
        raise ConfigError(f"{where}.{key} must be positive, got {value}")
    return float(value)


def _integer(section: dict, key: str, where: str, default=None, minimum: int | None = None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing {where}.{key}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {value}")
    return value


def _choice(section: dict, key: str, where: str, allowed: tuple, default=None):
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"missing {where}.{key}")
    if value not in allowed:
        raise ConfigError(f"{where}.{key} must be one of {allowed}, got {value!r}")
    return value


def _vector(section: dict, key: str, where: str, length: int | None = None, default=None):
    if key not in section:
        return default
    value = section[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}.{key} must be a non-empty list of numbers")
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{where}.{key} must contain only numbers")
    if length is not None and len(value) != length:
        raise ConfigError(f"{where}.{key} must have {length} entries, got {len(value)}")
    return [float(v) for v in value]


def _existing_file(section: dict, where: str) -> str:
    if "path" not in section:
        raise ConfigError(f"missing {where}.path")
    path = section["path"]
    if not isinstance(path, str):
        raise ConfigError(f"{where}.path must be a string")
    if not os.path.isfile(path):
        raise ConfigError(f"{where}.path does not exist: {path}")
    return path


def load_config(path: str) -> dict:
    """Read and validate a JSON config file.  Returns the validated dict."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")

    if "grid" in cfg:
        grid = _mapping(cfg, "grid")
        _check_keys(grid, {"points", "extent"}, "grid")
        points = grid.get("points")
        extent = grid.get("extent")
        if not isinstance(points, list) or not 1 <= len(points) <= 3:
            raise ConfigError("grid.points must be a list of 1 to 3 integers")
        for n in points:
            if isinstance(n, bool) or not isinstance(n, int) or n < 4 or n % 2:
                raise ConfigError(f"grid.points entries must be even integers >= 4, got {n}")
        if not isinstance(extent, list) or len(extent) != len(points):
            raise ConfigError("grid.extent must match grid.points in length")
        for L in extent:
            if isinstance(L, bool) or not isinstance(L, (int, float)) or L <= 0:
                raise ConfigError(f"grid.extent entries must be positive, got {L}")

    if "params" in cfg:
        params = _mapping(cfg, "params")
        _check_keys(params, {"hbar", "mass", "charge"}, "params")
        _number(params, "hbar", "params", default=1.0, positive=True)
        _number(params, "mass", "params", default=1.0, positive=True)
        _number(params, "charge", "params", default=0.0)

    if "state" in cfg:
        state = _mapping(cfg, "state")
        family = _choice(state, "family", "state", ("plane_wave", "gaussian", "harmonic_ground", "file"))
        if family == "plane_wave":
            _check_keys(state, {"family", "k"}, "state")
            _vector(state, "k", "state")
            if "k" not in state:
                raise ConfigError("missing state.k")
        elif family == "gaussian":
            _check_keys(state, {"family", "sigma", "center", "boost"}, "state")
            if "sigma" in state and isinstance(state["sigma"], list):
                _vector(state, "sigma", "state")
            else:
                _number(state, "sigma", "state", default=1.0, positive=True)
            _vector(state, "center", "state")
            _vector(state, "boost", "state")
        elif family == "harmonic_ground":
            _check_keys(state, {"family", "omega"}, "state")
            _number(state, "omega", "state", default=1.0, positive=True)
        else:
            _check_keys(state, {"family", "path"}, "state")
            _existing_file(state, "state")

    if "spinor" in cfg:
        spinor = _mapping(cfg, "spinor")
        _check_keys(spinor, {"theta", "phi"}, "spinor")
        _number(spinor, "theta", "spinor", default=0.0)
        _number(spinor, "phi", "spinor", default=0.0)

    if "potential" in cfg:
        pot = _mapping(cfg, "potential")
        family = _choice(pot, "family", "potential", ("none", "harmonic", "file"))
        if family == "none":
            _check_keys(pot, {"family"}, "potential")
        elif family == "harmonic":
            _check_keys(pot, {"family", "omega", "center"}, "potential")
            _number(pot, "omega", "potential", default=1.0, positive=True)
            _vector(pot, "center", "potential")
        else:
            _check_keys(pot, {"family", "path"}, "potential")
            _existing_file(pot, "potential")

    if "vector_potential" in cfg:
        vp = _mapping(cfg, "vector_potential")
        family = _choice(vp, "family", "vector_potential", ("none", "uniform", "file"))
        if family == "none":
            _check_keys(vp, {"family"}, "vector_potential")
        elif family == "uniform":
            _check_keys(vp, {"family", "value"}, "vector_potential")
            _vector(vp, "value", "vector_potential", length=3)
            if "value" not in vp:
                raise ConfigError("missing vector_potential.value")
        else:
            _check_keys(vp, {"family", "path"}, "vector_potential")
            _existing_file(vp, "vector_potential")

    if "evolution" in cfg:
        evo = _mapping(cfg, "evolution")
        _check_keys(evo, {"dt", "steps", "snapshot_stride", "residuals"}, "evolution")
        _number(evo, "dt", "evolution", positive=True)
        steps = _integer(evo, "steps", "evolution", minimum=1)
        stride = _integer(evo, "snapshot_stride", "evolution", default=1, minimum=1)
        if steps % stride:
            raise ConfigError(f"evolution.snapshot_stride must divide steps, got {stride} vs {steps}")
        if "residuals" in evo and not isinstance(evo["residuals"], bool):
            raise ConfigError("evolution.residuals must be a boolean")

    if "trajectories" in cfg:
        traj = _mapping(cfg, "trajectories")
        _check_keys(
            traj,
            {"n", "mode", "source", "seed", "time", "rk_steps", "substeps", "record_stride", "format", "equivariance"},
            "trajectories",
        )
        _integer(traj, "n", "trajectories", minimum=1)
        _choice(traj, "mode", "trajectories", ("drift", "total"), default="drift")
        source = _choice(traj, "source", "trajectories", ("evolve", "static"), default="static")
        _integer(traj, "seed", "trajectories", default=0, minimum=0)
        _integer(traj, "substeps", "trajectories", default=4, minimum=1)
        _integer(traj, "record_stride", "trajectories", default=1, minimum=1)
        _choice(traj, "format", "trajectories", ("csv", "binary"), default="csv")
        if "equivariance" in traj and not isinstance(traj["equivariance"], bool):
            raise ConfigError("trajectories.equivariance must be a boolean")
        if source == "static":
            _number(traj, "time", "trajectories", positive=True)
            _integer(traj, "rk_steps", "trajectories", default=200, minimum=1)
        else:
            if "time" in traj or "rk_steps" in traj:
                raise ConfigError("trajectories.time/rk_steps apply only to source 'static'")
            if "evolution" not in cfg:
                raise ConfigError("trajectories.source 'evolve' requires an evolution section")

    if "verify" in cfg:
        ver = _mapping(cfg, "verify")
        _check_keys(ver, {"refinements"}, "verify")
        _integer(ver, "refinements", "verify", default=2, minimum=0)


def build_grid(cfg: dict) -> Grid:
    if "grid" not in cfg:
        raise ConfigError("this command requires a grid section")
    return Grid(cfg["grid"]["points"], cfg["grid"]["extent"])


def build_params(cfg: dict) -> PhysicalParams:
    section = cfg.get("params", {})
    return PhysicalParams(
        hbar=float(section.get("hbar", 1.0)),
        mass=float(section.get("mass", 1.0)),
        charge=float(section.get("charge", 0.0)),
    )


def _padded(values, dims: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 1:
        return np.full(dims, arr.item())
    if arr.size != dims:
        raise ConfigError(f"{name} must have 1 or {dims} entries, got {arr.size}")
    return arr


def build_state(cfg: dict, grid: Grid, params: PhysicalParams) -> ComplexField:
    if "state" not in cfg:
        raise ConfigError("this command requires a state section")
    section = cfg["state"]
    family = section["family"]
    if family == "plane_wave":
        k = _padded(section["k"], grid.dims, "state.k")
        return states.plane_wave(grid, k, params)
    if family == "gaussian":
        sigma = _padded(section.get("sigma", 1.0), grid.dims, "state.sigma")
        center = _padded(section.get("center", 0.0), grid.dims, "state.center")
        boost = _padded(section.get("boost", 0.0), grid.dims, "state.boost")
        return states.gaussian(grid, sigma=sigma, center=center, boost=boost, params=params)
    if family == "harmonic_ground":
        return states.harmonic_ground(grid, omega=float(section.get("omega", 1.0)), params=params)
    field = fieldio.read_field(section["path"])
    if not isinstance(field, ComplexField):
        raise ConfigError(f"state.path must hold a complex field, got {type(field).__name__}")
    if field.grid != grid:
        raise ConfigError("state.path grid does not match the grid section")
    return field


def build_evolution(cfg: dict, grid: Grid, params: PhysicalParams) -> EvolutionConfig:
    if "evolution" not in cfg:
        raise ConfigError("this command requires an evolution section")
    evo = cfg["evolution"]
    return EvolutionConfig(
        dt=float(evo["dt"]),
        steps=int(evo["steps"]),
        snapshot_stride=int(evo.get("snapshot_stride", 1)),
        potential=build_potential(cfg, grid, params),
        params=params,
    )


def build_spinor(cfg: dict) -> np.ndarray:
    section = cfg.get("spinor", {})
    return states.constant_spinor(
        theta=float(section.get("theta", 0.0)),
        phi=float(section.get("phi", 0.0)),
    )


def build_potential(cfg: dict, grid: Grid, params: PhysicalParams) -> RealField | None:
    section = cfg.get("potential")
    if section is None or section["family"] == "none":
        return None
    if section["family"] == "harmonic":
        center = _padded(section.get("center", 0.0), grid.dims, "potential.center")
        return states.harmonic_potential(grid, omega=float(section.get("omega", 1.0)), center=center, params=params)
    field = fieldio.read_field(section["path"])
    if not isinstance(field, RealField):
        raise ConfigError(f"potential.path must hold a real field, got {type(field).__name__}")
    if field.grid != grid:
        raise ConfigError("potential.path grid does not match the grid section")
    return field


def build_vector_potential(cfg: dict, grid: Grid) -> VectorField | None:
    section = cfg.get("vector_potential")
    if section is None or section["family"] == "none":
        return None
    if section["family"] == "uniform":
        comps = np.zeros((3,) + grid.shape)
        for i, v in enumerate(section["value"]):
            comps[i] = v
        return VectorField(grid, comps)
    field = fieldio.read_field(section["path"])
    if not isinstance(field, VectorField):
        raise ConfigError(f"vector_potential.path must hold a vector field, got {type(field).__name__}")
    if field.grid != grid:
        raise ConfigError("vector_potential.path grid does not match the grid section")
    return field
