"""Ensemble transport along the hydrodynamic velocity fields.

Seeds are drawn from rho (quantum equilibrium) and advected with a classical
RK4 step through grid-sampled velocity tables: multilinear interpolation in
space, linear interpolation in time between snapshots.  Two velocity modes:

* ``drift``: v = p/m from the phase gradient (the guidance law),
* ``total``: v = p/m + grad(rho) x s / (m rho) with a constant spin vector,
  which adds the internal circulation around density gradients.

A step that lands in the node region (rho below the mask threshold) freezes
the particle and flags it instead of dividing by ~0.  Positions are stored
unwrapped; the box is only used to evaluate fields.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .evolve import SnapshotSeries
from .fields import ComplexField, PhysicalParams, RealField
from .madelung import NODE_EPS, _Jet, decompose
from .spinhydro import zbw_velocity_uniform

KS_COEFF_1PCT = 1.63  # asymptotic Kolmogorov-Smirnov critical coefficient at the 1% level

MODES = ("drift", "total")


def sample_initial(rho0: RealField, n: int, seed: int) -> np.ndarray:
    """Draw n positions with probability density rho0.

    1D uses exact inverse-CDF sampling through the piecewise-linear cell CDF;
    2D and 3D use rejection sampling against max(rho).  Returns shape (n, 3)
    with zeros on absent axes; bit-identical for a fixed seed."""
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    grid = rho0.grid
    values = rho0.values
    if np.min(values) < 0 or np.max(values) == 0.0:
        raise ValueError("density must be non-negative and not identically zero")
    rng = np.random.default_rng(seed)
    out = np.zeros((n, 3))
    if grid.dims == 1:
        h = grid.spacing[0]
        edges = np.concatenate([[grid.axes[0][0] - h / 2.0], grid.axes[0] + h / 2.0])
        cdf = np.concatenate([[0.0], np.cumsum(values) * h])
        cdf /= cdf[-1]
        out[:, 0] = np.interp(rng.random(n), cdf, edges)
        return out
    peak = np.max(values)
    lows = np.array([ax[0] - h / 2.0 for ax, h in zip(grid.axes, grid.spacing)])
    spans = np.array(grid.extents)
    table = values.reshape(1, -1)
    accepted = []
    remaining = n
    while remaining > 0:
        batch = max(4 * remaining, 1024)
        props = np.zeros((batch, 3))
        props[:, : grid.dims] = lows + spans * rng.random((batch, grid.dims))
        keep = rng.random(batch) * peak <= _interp_components(grid, table, props)[0]
        good = props[keep]
        accepted.append(good[:remaining])
        remaining -= min(len(good), remaining)
    return np.concatenate(accepted)[:n]


def _interp_components(grid, flat: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Periodic multilinear interpolation of (C, grid.size) data at (n, 3)
    positions; returns (C, n).

    The table is the row-major flattening of (C, *grid.shape) data.  Each of
    the 2^dims corners gets one linear index and one weight, and all C
    components are gathered at once with ``np.take`` along the flat axis.
    Corners accumulate in a fixed order onto zeros, so results are
    bit-identical to per-axis fancy indexing of the unflattened table."""
    dims = grid.dims
    strides = [int(np.prod(grid.points[axis + 1 :])) for axis in range(dims)]
    offsets = []
    weights = []
    for axis in range(dims):
        n_axis = grid.points[axis]
        f = (positions[:, axis] - grid.axes[axis][0]) / grid.spacing[axis]
        i0 = np.floor(f).astype(np.int64)
        w = f - i0
        offsets.append(((i0 % n_axis) * strides[axis], ((i0 + 1) % n_axis) * strides[axis]))
        weights.append((1.0 - w, w))
    out = np.zeros((flat.shape[0], positions.shape[0]))
    for corner in itertools.product((0, 1), repeat=dims):
        lin = offsets[0][corner[0]]
        w = weights[0][corner[0]]
        for a in range(1, dims):
            lin = lin + offsets[a][corner[a]]
            w = w * weights[a][corner[a]]
        out += np.take(flat, lin, axis=1) * w
    return out


class _VelocityTable:
    """Velocity and density samples at a sequence of times, evaluable anywhere.

    Only the live velocity components, those nonzero somewhere in the series,
    are interpolated; the rest are exact zeros on the grid and evaluate to
    0.0 (a 1D drift table interpolates one component, not three).  Each
    adjacent snapshot pair is pre-stacked into one flat table, [v_j; v_j+1]
    and [rho_j; rho_j+1], and an evaluation between snapshots is a single
    `_interp_components` call whose halves are blended (1-theta) a + theta b.
    A single-snapshot table holds just that snapshot."""

    def __init__(self, grid, times, velocities, densities):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.live = [c for c in range(3) if any(np.any(v[c] != 0) for v in velocities)]
        nt, size = len(self.times), grid.size
        vel = np.stack([v[self.live] for v in velocities]).reshape(nt, len(self.live), size)
        rho = np.stack(densities).reshape(nt, 1, size)
        # rows [j; j+1] of a stacked series are contiguous, so each pair is a view
        pairs = range(max(nt - 1, 1))
        self.vel_pairs = [vel[j : j + 2].reshape(-1, size) for j in pairs]
        self.rho_pairs = [rho[j : j + 2].reshape(-1, size) for j in pairs]
        self.thresholds = [NODE_EPS * np.max(d) for d in densities]

    def _bracket(self, t: float):
        if len(self.times) == 1:
            return 0, 0.0
        j = min(max(int(np.searchsorted(self.times, t)) - 1, 0), len(self.times) - 2)
        span = self.times[j + 1] - self.times[j]
        theta = min(max(float((t - self.times[j]) / span), 0.0), 1.0)
        return j, theta

    def _blend(self, pairs, width, j, theta, positions):
        """The `width` rows of snapshot j at theta == 0, else the theta-blend of j and j+1."""
        if theta == 0.0:
            return _interp_components(self.grid, pairs[j][:width], positions)
        both = _interp_components(self.grid, pairs[j], positions)
        return (1.0 - theta) * both[:width] + theta * both[width:]

    def velocity(self, positions: np.ndarray, t: float) -> np.ndarray:
        j, theta = self._bracket(t)
        out = np.zeros((3, positions.shape[0]))
        out[self.live] = self._blend(self.vel_pairs, len(self.live), j, theta, positions)
        return out.T

    def density(self, positions: np.ndarray, t: float):
        j, theta = self._bracket(t)
        rho = self._blend(self.rho_pairs, 1, j, theta, positions)[0]
        if theta == 0.0:
            return rho, self.thresholds[j]
        return rho, (1.0 - theta) * self.thresholds[j] + theta * self.thresholds[j + 1]


def _build_table(source, mode, spin, params, backend) -> tuple[_VelocityTable, np.ndarray]:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "total":
        spin = np.asarray(spin, dtype=float) if spin is not None else None
        if spin is None or spin.shape != (3,):
            raise ValueError("total mode needs a constant spin vector of shape (3,)")
    if isinstance(source, SnapshotSeries):
        states, times = source.states, source.times
    elif isinstance(source, ComplexField):
        states, times = [source], np.array([0.0])
    else:
        raise TypeError(f"source must be a SnapshotSeries or ComplexField, got {type(source)}")
    grid = states[0].grid
    velocities = []
    densities = []
    for state in states:
        jet = _Jet(state, params, backend)
        md = decompose(jet, params, backend)
        v = md.momentum.values / params.mass
        if mode == "total":
            v = v + zbw_velocity_uniform(jet, spin, params, backend).values
        velocities.append(v)
        densities.append(md.rho.values)
    return _VelocityTable(grid, times, velocities, densities), times


@dataclass
class TrajectorySet:
    seeds: np.ndarray  # (n, 3)
    times: np.ndarray  # (nt,)
    paths: np.ndarray  # (n, nt, 3), unwrapped
    mode: str
    frozen: np.ndarray  # (n,) True where the particle hit the node region
    rng_seed: int | None = None


def advect(
    seeds: np.ndarray,
    source,
    mode: str = "drift",
    *,
    spin=None,
    params: PhysicalParams = PhysicalParams(),
    substeps: int = 4,
    duration: float | None = None,
    rk_steps: int | None = None,
    backend: str = "spectral",
    rng_seed: int | None = None,
) -> TrajectorySet:
    """Integrate seed positions through the velocity field of `source`.

    A SnapshotSeries source is integrated over its own time range with
    `substeps` RK4 steps per snapshot interval and recorded at snapshot times.
    A static ComplexField source needs `duration` and `rk_steps` and is
    recorded after every step."""
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if seeds.shape[1] > 3:
        raise ValueError(f"seeds must have at most 3 columns, got {seeds.shape[1]}")
    if not np.all(np.isfinite(seeds)):
        raise ValueError("seeds contain non-finite values")
    full = np.zeros((seeds.shape[0], 3))
    full[:, : seeds.shape[1]] = seeds
    seeds = full

    table, source_times = _build_table(source, mode, spin, params, backend)
    if isinstance(source, SnapshotSeries):
        if substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {substeps}")
        record_times = source_times
        intervals = [
            (record_times[j], record_times[j + 1], substeps)
            for j in range(len(record_times) - 1)
        ]
    else:
        if duration is None or rk_steps is None:
            raise ValueError("static sources need duration and rk_steps")
        if not np.isfinite(duration) or duration <= 0 or rk_steps < 1:
            raise ValueError(f"bad duration/rk_steps: {duration}, {rk_steps}")
        record_times = np.linspace(0.0, duration, rk_steps + 1)
        intervals = [(record_times[j], record_times[j + 1], 1) for j in range(rk_steps)]

    n = seeds.shape[0]
    paths = np.empty((n, len(record_times), 3))
    paths[:, 0] = seeds
    pos = seeds.copy()
    rho0, thr0 = table.density(pos, record_times[0])
    frozen = rho0 < thr0

    for rec, (t0, t1, nsub) in enumerate(intervals, start=1):
        h = (t1 - t0) / nsub
        for i in range(nsub):
            t = t0 + i * h
            active = ~frozen
            if np.any(active):
                p = pos[active]
                k1 = table.velocity(p, t)
                k2 = table.velocity(p + 0.5 * h * k1, t + 0.5 * h)
                k3 = table.velocity(p + 0.5 * h * k2, t + 0.5 * h)
                k4 = table.velocity(p + h * k3, t + h)
                new = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                rho_new, thr = table.density(new, t + h)
                hit_node = rho_new < thr
                new[hit_node] = p[hit_node]
                pos[active] = new
                active_idx = np.flatnonzero(active)
                frozen[active_idx[hit_node]] = True
        paths[:, rec] = pos

    return TrajectorySet(
        seeds=seeds,
        times=np.asarray(record_times, dtype=float),
        paths=paths,
        mode=mode,
        frozen=frozen,
        rng_seed=rng_seed,
    )


@dataclass(frozen=True)
class EquivarianceReport:
    statistic: float  # max KS distance across axes
    per_axis: np.ndarray
    critical_1pct: float
    n: int

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_1pct


def equivariance_check(traj: TrajectorySet, rho_t: RealField) -> EquivarianceReport:
    """Kolmogorov-Smirnov distance between trajectory endpoints and rho_t.

    Endpoints are wrapped into the box and compared per axis against the
    marginal of rho_t through its piecewise-linear cell CDF.  The 1% critical
    value is 1.63/sqrt(n); equivariant transport should sit well below it."""
    grid = rho_t.grid
    n = traj.paths.shape[0]
    stats = np.empty(grid.dims)
    for axis in range(grid.dims):
        h = grid.spacing[axis]
        edges = np.concatenate([[grid.axes[axis][0] - h / 2.0], grid.axes[axis] + h / 2.0])
        marginal = rho_t.values
        for other in range(grid.dims - 1, -1, -1):
            if other != axis:
                marginal = marginal.sum(axis=other)
        cdf = np.concatenate([[0.0], np.cumsum(marginal) * h])
        cdf /= cdf[-1]
        x = traj.paths[:, -1, axis]
        span = grid.extents[axis]
        x = (x - edges[0]) % span + edges[0]
        f_at = np.sort(np.interp(x, edges, cdf))
        i = np.arange(1, n + 1)
        stats[axis] = max(np.max(i / n - f_at), np.max(f_at - (i - 1) / n))
    return EquivarianceReport(
        statistic=float(np.max(stats)),
        per_axis=stats,
        critical_1pct=KS_COEFF_1PCT / np.sqrt(n),
        n=n,
    )
