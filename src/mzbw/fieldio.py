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
Each file is written as its snapshot arrives and the manifest last.

Trajectories: CSV with one row per (particle, time): particle, t, x, y, z,
mode, frozen, every float as %.17g.  The writer formats one %-template of
all kept rows per particle (times pre-formatted once) and writes each
particle's block in one call.  Both trajectory writers read the paths a
block of particles at a time, whatever their memory layout, and never copy
the whole set.  `_format_g17` formats the live coordinates of a block of
particles at once, in numpy, with the bytes of %.17g for finite
1e-4 <= |x| < 1e16 (no exponent): x * 10**(16 - X), X the decimal exponent,
is formed exactly as a Dekker product hi + lo and rounded half-even to 17
digits as hi + rint(lo), hi being an even integer.  Zeros,
subnormals, non-finite and out-of-range values, and a rounding that carries
into an 18th digit, go through b"%.17g" one by one.  The binary variant
mirrors the field header idea: magic b"MZBWT", mode code (0 drift, 1 total),
n, nt and seed, then times, paths, seeds and frozen flags; like field files
it is rejected on a bad header, an unknown mode code, a wrong size or
trailing bytes.  All JSON is dumped with sorted keys so reruns are
byte-identical.
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
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<c16" if is_complex else "<f8"))


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
    try:
        grid = Grid(points, extents)
        count = ncomp * grid.size
        dtype = "<c16" if is_complex else "<f8"
        expected = head_size + count * np.dtype(dtype).itemsize
        if len(raw) != expected:
            raise ValueError(f"expected {expected} bytes, got {len(raw)}")
        flat = np.frombuffer(raw, dtype=dtype, count=count, offset=head_size)
        shape = grid.shape if ncomp == 1 else (ncomp,) + grid.shape
        return cls(grid, flat.reshape(shape).copy())
    except ValueError as exc:  # a bad grid, size or non-finite data
        raise ValueError(f"{path}: {exc}") from None


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class _Passing:
    """An iterator over snapshots that carries their series' `times`."""

    def __init__(self, times, snapshots):
        self.times = times
        self._snapshots = snapshots

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._snapshots)


def stream_snapshot_series(directory: str, series, config_echo: dict | None = None) -> _Passing:
    """Write each snapshot of `series` (a SnapshotSeries or SnapshotStream)
    as it passes through, yielding it on; the manifest is written after the
    last one, so a series cut short by an error has no manifest.  The
    returned iterator has the series' `times`, so a reader such as
    `residual_sups` knows the count up front."""
    return _Passing(series.times, _write_each(directory, series, config_echo))


def _write_each(directory, series, config_echo):
    os.makedirs(directory, exist_ok=True)
    files = []
    for i, snap in enumerate(series):
        name = f"psi_{i:06d}.mzbw"
        write_field(os.path.join(directory, name), snap.state)
        files.append(name)
        yield snap
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
    if not (np.all(np.isfinite(norms)) and np.all(np.isfinite(energies))):
        raise ValueError(f"{directory}: conserved norm and energy must be finite")
    states = []
    for name in files:
        state = read_field(os.path.join(directory, name))
        if not isinstance(state, ComplexField):
            raise ValueError(f"{directory}/{name}: snapshot is not a complex field")
        if states and state.grid != states[0].grid:
            raise ValueError(f"{directory}/{name}: snapshot grid differs from the first snapshot's")
        states.append(state)
    return SnapshotSeries(times=times, states=states, norms=norms, energies=energies)


def _kept_times(nt: int, record_stride: int) -> list:
    """The recorded-time indices a trajectory writer keeps: every
    `record_stride`-th one, and always the endpoint."""
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    if nt < 1:
        raise ValueError("a trajectory set needs at least one recorded time")
    keep = list(range(0, nt, record_stride))
    if keep[-1] != nt - 1:
        keep.append(nt - 1)
    return keep


def _pattern(neg: int, X: int, length: int) -> bytes:
    """The characters around the digits of a value with sign `neg`, decimal
    exponent X and `length` digit bytes, with "0" on each digit."""
    if X < 0:
        return b"-" * neg + b"0." + b"0" * (length - X - 1)
    return b"-" * neg + b"0" * (X + 1) + (b"." + b"0" * (length - X - 2) if length > X + 1 else b"")


_POW10 = np.array([float(10**k) for k in range(23)])  # exact up to 10**22
_IPOW10 = 10 ** np.arange(17, dtype=np.int64)
# _pattern of row (20 * neg + X + 4) * 19 + length as three little-endian
# words, one column per row
_PATTERNS = np.frombuffer(
    b"".join(_pattern(n, X, k).ljust(24, b"\0") for n in (0, 1) for X in range(-4, 16) for k in range(19)),
    dtype="<u8",
).reshape(-1, 3).T.astype(np.uint64, order="C")
_CSV_BLOCK_VALUES = 4096  # keeps a block's arrays under glibc's 128 KiB mmap threshold


def _digit_words(values: np.ndarray):
    """The 17 significant digits of each value, rounded half-even, with a
    zero digit for "." after the X + 1 integer digits (after all 17 if
    X < 0), as bytes 0..17 (each 0..9) of three little-endian words, one row
    per word; X, the decimal exponent; and the indices to format one by one,
    where the rounded digits D fall outside (10**16, 10**17): values out of
    range (set to 1, so 10**16), an X that log10 put one off near a power of
    ten, and a carry into an 18th digit."""
    a = np.abs(values)
    a[~((a >= 1e-4) & (a < 1e16))] = 1.0
    X = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int64)
    # Dekker's exact product hi + lo = a * p, by Veltkamp's split at 2**27 + 1
    p = _POW10[16 - X]
    c = 134217729.0 * a
    ah = c - (c - a)
    c = 134217729.0 * p
    ph = c - (c - p)
    hi = a * p
    lo = ((ah * ph - hi) + ah * (p - ph) + (a - ah) * ph) + (a - ah) * (p - ph)
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # hi is even: half-even
    slow = np.flatnonzero((D <= 10**16) | (D >= 10**17)).tolist()
    D = (10 * D - 9 * (D % _IPOW10[np.where(X >= 0, 16 - X, 0)])).astype(np.uint64)
    g = np.empty((2, len(D)), dtype=np.uint64)
    g[0] = D // 10**8 % 10**8
    g[1] = D % 10**8
    # 8 digits to 8 bytes in one word: // 10**4, then // 100 in each 32-bit
    # half and // 10 in each 16-bit quarter, by multiply and shift
    g = (g // 10000) | ((g % 10000) << 32)
    q = ((g * 5243) >> 19) & 0x0000007F0000007F
    g = q | ((g - q * 100) << 16)
    q = ((g * 103) >> 10) & 0x000F000F000F000F
    g = q | ((g - q * 10) << 8)
    w = np.empty((3, len(D)), dtype=np.uint64)
    w[0] = (D // 10**17) | ((D // 10**16 % 10) << 8) | (g[0] << 16)
    w[1] = (g[0] >> 48) | (g[1] << 16)
    w[2] = g[1] >> 48
    return w, X, slow


def _format_g17(values: np.ndarray) -> list:
    """[b"%.17g" % v for v in values], vectorized (see the module docstring)."""
    w, X, slow = _digit_words(values)
    # digits up to the last nonzero one: the highest nonzero byte, from the
    # float exponent of its word (no byte exceeds 9, so rounding cannot cross one)
    nbytes = (np.frexp(w.astype(np.float64))[1] + 7) // 8
    length = np.where(w[2] != 0, 16 + nbytes[2], np.where(w[1] != 0, 8 + nbytes[1], nbytes[0]))
    # room on the left for the sign and "0.000", then OR in the characters
    neg = np.signbit(values)
    shift = (8 * (neg + np.where(X < 0, 1 - X, 0))).astype(np.uint64)
    out = w << shift
    out[1:] |= w[:-1] >> (64 - shift)
    out |= _PATTERNS.take((20 * neg + X + 4) * 19 + length, axis=1)
    out = out.T.astype("<u8", order="C")
    strs = out.view("S24").ravel().tolist()
    for i in slow:
        strs[i] = b"%.17g" % values[i]
    return strs


def write_trajectories_csv(path: str, traj: TrajectorySet, record_stride: int = 1) -> None:
    keep = _kept_times(len(traj.times), record_stride)
    paths = np.asarray(traj.paths, dtype=np.float64)
    # a column that is +0.0 at every recorded time is written as the literal
    # "0" (what %.17g gives); the bit test reads each column in place
    bits = paths.view(np.uint64)
    cells = ["0" if not np.any(bits[:, :, c]) else "%s" for c in range(3)]
    # one %-template per particle block for each frozen flag, row tails in
    # place; "\0" stands for the particle index, spliced in after formatting
    cols = ",".join(cells)
    heads = [f"\0,{traj.times[i]:.17g},{cols}" for i in keep]
    tails = [f",{traj.mode},{flag}\n".replace("%", "%%") for flag in (0, 1)]
    blocks = ["".join(head + tail for head in heads).encode() for tail in tails]
    live = [c for c in range(3) if cells[c] != "0"]
    at = np.array(keep, dtype=np.intp)
    k = len(keep) * len(live)
    step = max(1, _CSV_BLOCK_VALUES // max(k, 1))  # particles formatted together
    with open(path, "wb") as fh:
        fh.write(b"particle,t,x,y,z,mode,frozen\n")
        for first in range(0, len(paths), step):
            part = paths[first : first + step]
            # the block's values, particle by particle and time by time, each
            # gathered from its own column, so a view of per-coordinate
            # planes is read in place and never copied whole
            values = [np.take(part[:, :, c], at, axis=1) for c in live]
            strs = _format_g17(np.stack(values, axis=-1).ravel()) if live else []
            for j in range(len(part)):
                rows = blocks[int(traj.frozen[first + j])] % tuple(strs[j * k : (j + 1) * k])
                fh.write(rows.replace(b"\0", b"%d" % (first + j)))


def write_trajectories_binary(path: str, traj: TrajectorySet, record_stride: int = 1) -> None:
    """The binary container of `traj` at the recorded times the CSV writer keeps."""
    keep = _kept_times(len(traj.times), record_stride)
    n = traj.paths.shape[0]
    mode_code = 0 if traj.mode == "drift" else 1
    seed = -1 if traj.rng_seed is None else int(traj.rng_seed)
    header = struct.pack("<5sBIIq", TRAJ_MAGIC, mode_code, n, len(keep), seed)
    step = max(1, _CSV_BLOCK_VALUES // (3 * len(keep)))  # particles copied and written together
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(traj.times[keep], dtype="<f8"))
        for first in range(0, n, step):
            fh.write(np.ascontiguousarray(np.take(traj.paths[first : first + step], keep, axis=1), dtype="<f8"))
        fh.write(np.ascontiguousarray(traj.seeds, dtype="<f8"))
        fh.write(np.ascontiguousarray(traj.frozen, dtype="<u1"))


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
    if nt == 0:
        raise ValueError(f"{path}: no recorded times")
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
