"""File formats.

Field binary (.mzbw): a little-endian header

    magic   5 bytes  b"MZBW1"
    dims    uint8    1..3
    points  dims x uint32
    extents dims x float64
    kind    uint8    0 real, 1 complex, 2 vector, 3 spinor
    ncomp   uint8    1, 1, 3, 2 respectively

followed by float64 data, component-major, row-major over the grid within a
component.  Complex values are stored as (re, im) pairs.  Round-trips are
bit-identical.

Snapshot series: a directory of psi_NNNNNN.mzbw files plus manifest.json with
times, the conserved-quantity log, and an echo of the run configuration.

Trajectories: CSV with one row per (particle, time): particle, t, x, y, z,
mode, frozen, every float as %.17g.  The writer formats one %-template of
all kept rows per particle (times pre-formatted once) and writes each
particle's block in one call.  The binary variant mirrors the field header
idea: magic b"MZBWT", mode code (0 drift, 1 total), n, nt and seed, then
times, paths, seeds and frozen flags; like field files it is rejected on a
bad header, an unknown mode code, a wrong size or trailing bytes.  All JSON
is dumped with sorted keys so reruns are byte-identical.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .evolve import SnapshotSeries
from .fields import ComplexField, Grid, RealField, SpinorField, VectorField
from .trajectories import TrajectorySet

MAGIC = b"MZBW1"
TRAJ_MAGIC = b"MZBWT"
_TRAJ_MODES = {0: "drift", 1: "total"}

_KIND_REAL, _KIND_COMPLEX, _KIND_VECTOR, _KIND_SPINOR = 0, 1, 2, 3
_KINDS = {
    _KIND_REAL: (RealField, 1, False),
    _KIND_COMPLEX: (ComplexField, 1, True),
    _KIND_VECTOR: (VectorField, 3, False),
    _KIND_SPINOR: (SpinorField, 2, True),
}


def _field_kind(field) -> int:
    if isinstance(field, RealField):
        return _KIND_REAL
    if isinstance(field, ComplexField):
        return _KIND_COMPLEX
    if isinstance(field, VectorField):
        if np.iscomplexobj(field.values):
            raise ValueError("only real vector fields are serializable")
        return _KIND_VECTOR
    if isinstance(field, SpinorField):
        return _KIND_SPINOR
    raise TypeError(f"not a field: {type(field)}")


def write_field(path: str, field) -> None:
    kind = _field_kind(field)
    _, ncomp, is_complex = _KINDS[kind]
    grid = field.grid
    header = struct.pack(
        f"<5sB{grid.dims}I{grid.dims}dBB",
        MAGIC,
        grid.dims,
        *grid.points,
        *grid.extents,
        kind,
        ncomp,
    )
    data = np.ascontiguousarray(field.values).astype("<c16" if is_complex else "<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_field(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != MAGIC:
        raise ValueError(f"{path}: not a field file (bad magic {raw[:5]!r})")
    if len(raw) < 6:
        raise ValueError(f"{path}: truncated header")
    dims = raw[5]
    if not 1 <= dims <= 3:
        raise ValueError(f"{path}: bad dims {dims}")
    head_fmt = f"<5sB{dims}I{dims}dBB"
    head_size = struct.calcsize(head_fmt)
    if len(raw) < head_size:
        raise ValueError(f"{path}: truncated header")
    parts = struct.unpack_from(head_fmt, raw)
    points = parts[2 : 2 + dims]
    extents = parts[2 + dims : 2 + 2 * dims]
    kind, ncomp = parts[-2], parts[-1]
    if kind not in _KINDS:
        raise ValueError(f"{path}: unknown field kind {kind}")
    cls, want_ncomp, is_complex = _KINDS[kind]
    if ncomp != want_ncomp:
        raise ValueError(f"{path}: kind {kind} expects {want_ncomp} components, header says {ncomp}")
    grid = Grid(points, extents)
    count = ncomp * grid.size
    dtype = "<c16" if is_complex else "<f8"
    expected = head_size + count * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(raw)}")
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=head_size)
    shape = grid.shape if ncomp == 1 else (ncomp,) + grid.shape
    return cls(grid, flat.reshape(shape).copy())


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_snapshot_series(directory: str, series: SnapshotSeries, config_echo: dict | None = None) -> None:
    os.makedirs(directory, exist_ok=True)
    files = []
    for i, state in enumerate(series.states):
        name = f"psi_{i:06d}.mzbw"
        write_field(os.path.join(directory, name), state)
        files.append(name)
    write_json(
        os.path.join(directory, "manifest.json"),
        {
            "format": "mzbw-snapshots",
            "version": 1,
            "times": [float(t) for t in series.times],
            "files": files,
            "conserved": {
                "norm": [float(v) for v in series.norms],
                "energy": [float(v) for v in series.energies],
            },
            "config": config_echo or {},
        },
    )


def read_snapshot_series(directory: str) -> SnapshotSeries:
    try:
        manifest = read_json(os.path.join(directory, "manifest.json"))
        if not isinstance(manifest, dict) or manifest.get("format") != "mzbw-snapshots":
            raise ValueError("not a snapshot series")
        files, conserved = manifest["files"], manifest["conserved"]
        logs = [np.asarray(v, dtype=float) for v in (manifest["times"], conserved["norm"], conserved["energy"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{directory}: malformed manifest ({type(exc).__name__}: {exc})") from None
    if not (isinstance(files, list) and files and all(isinstance(name, str) for name in files)):
        raise ValueError(f"{directory}: manifest files must be a non-empty list of names")
    if any(log.shape != (len(files),) for log in logs):
        raise ValueError(f"{directory}: times, norm and energy need one entry per file ({len(files)})")
    times, norms, energies = logs
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
        raise ValueError(f"{directory}: snapshot times must be finite and increasing")
    states = []
    for name in files:
        state = read_field(os.path.join(directory, name))
        if not isinstance(state, ComplexField):
            raise ValueError(f"{directory}/{name}: snapshot is not a complex field")
        if states and state.grid != states[0].grid:
            raise ValueError(f"{directory}/{name}: snapshot grid differs from the first snapshot's")
        states.append(state)
    return SnapshotSeries(times=times, states=states, norms=norms, energies=energies)


def write_trajectories_csv(path: str, traj: TrajectorySet, record_stride: int = 1) -> None:
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    keep = list(range(0, len(traj.times), record_stride))
    if keep[-1] != len(traj.times) - 1:
        keep.append(len(traj.times) - 1)  # always keep the endpoint
    # one %-template per particle block: "\0" stands for the particle index
    # and "\1" for the ",mode,frozen" tail, both spliced in after formatting
    block = "".join(f"\0,{traj.times[i]:.17g},%.17g,%.17g,%.17g\1" for i in keep)
    with open(path, "w") as fh:
        fh.write("particle,t,x,y,z,mode,frozen\n")
        for p in range(traj.paths.shape[0]):
            rows = block % tuple(traj.paths[p, keep].ravel().tolist())
            tail = f",{traj.mode},{int(traj.frozen[p])}\n"
            fh.write(rows.replace("\0", str(p)).replace("\1", tail))


def write_trajectories_binary(path: str, traj: TrajectorySet) -> None:
    n, nt, _ = traj.paths.shape
    mode_code = 0 if traj.mode == "drift" else 1
    seed = -1 if traj.rng_seed is None else int(traj.rng_seed)
    header = struct.pack("<5sBIIq", TRAJ_MAGIC, mode_code, n, nt, seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(traj.times.astype("<f8").tobytes())
        fh.write(np.ascontiguousarray(traj.paths).astype("<f8").tobytes())
        fh.write(np.ascontiguousarray(traj.seeds).astype("<f8").tobytes())
        fh.write(traj.frozen.astype("<u1").tobytes())


def read_trajectories_binary(path: str) -> TrajectorySet:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != TRAJ_MAGIC:
        raise ValueError(f"{path}: not a trajectory file (bad magic {raw[:5]!r})")
    head_fmt = "<5sBIIq"
    head = struct.calcsize(head_fmt)
    if len(raw) < head:
        raise ValueError(f"{path}: truncated header")
    _, mode_code, n, nt, seed = struct.unpack_from(head_fmt, raw)
    if mode_code not in _TRAJ_MODES:
        raise ValueError(f"{path}: unknown mode code {mode_code}")
    expected = head + 8 * (nt + 3 * n * nt + 3 * n) + n
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(raw)}")
    offset = head
    times = np.frombuffer(raw, dtype="<f8", count=nt, offset=offset).copy()
    offset += nt * 8
    paths = np.frombuffer(raw, dtype="<f8", count=n * nt * 3, offset=offset).reshape(n, nt, 3).copy()
    offset += n * nt * 3 * 8
    seeds = np.frombuffer(raw, dtype="<f8", count=n * 3, offset=offset).reshape(n, 3).copy()
    offset += n * 3 * 8
    frozen = np.frombuffer(raw, dtype="<u1", count=n, offset=offset)
    if np.any(frozen > 1):
        raise ValueError(f"{path}: frozen flags must be 0 or 1")
    return TrajectorySet(
        seeds=seeds,
        times=times,
        paths=paths,
        mode=_TRAJ_MODES[mode_code],
        frozen=frozen.astype(bool),
        rng_seed=None if seed == -1 else int(seed),
    )
