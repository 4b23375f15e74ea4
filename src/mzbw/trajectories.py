"""Ensemble transport along the hydrodynamic velocity fields.

Seeds are drawn from rho (quantum equilibrium) and advected with a classical
RK4 step through grid-sampled velocity tables: multilinear interpolation in
space, linear interpolation in time between snapshots.  The time blend is
done on the grid, once per RK4 stage time, when the grid has no more points
than the corner values one evaluation gathers per row (n * 2**dims for n
particles), and at the particles otherwise; the two orders round
differently, and each table keeps one.  Two velocity modes:

* ``drift``: v = p/m from the phase gradient (the guidance law),
* ``total``: v = p/m + grad(rho) x s / (m rho) with a constant spin vector,
  which adds the internal circulation around density gradients.

A step that lands in the node region (rho below the mask threshold) freezes
the particle and flags it instead of dividing by ~0.  Positions are stored
unwrapped; the box is only used to evaluate fields.  Everything is
deterministic for a fixed seed.

The RK4 loop steps the whole ensemble every substep, frozen particles
included, and keeps a new position only where the particle still moves.  A
substep allocates no per-particle array.  A `_Workspace` holds, sized for
the ensemble, the stage positions, k1-k4, the per-axis interpolation
intermediates, the corner index/weight, the gather and the blend result
(sized for the grid, the time blends of a grid-order table); every substep
writes into it with ``out=``.  The node check after a step interpolates the
velocity with the density, which is the next step's k1 whenever that step
starts at the checked time, as it does unless rounding moves it.  Only the
live velocity columns are integrated: the others have velocity +0.0 and
keep their seed value.
A static state's live columns are its nonzero ones; a snapshot series is
read a few snapshots at a time, so its live columns are the ones the grid
axes, the mode and the spin can move.  Gathers use ``np.take(..., mode="clip")``:
the offsets are already wrapped into range, so clipping changes no index,
while the default ``mode="raise"`` gathers into a hidden copy first.
Reusing the buffers also keeps the allocator from trimming and re-faulting
heap pages every substep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .evolve import SnapshotSeries, SnapshotStream
from .fields import ComplexField, PhysicalParams, RealField
from .madelung import NODE_EPS, _Jet, _jet
from .spinhydro import zbw_velocity_uniform

KS_COEFF_1PCT = 1.63  # asymptotic Kolmogorov-Smirnov critical coefficient at the 1% level

MODES = ("drift", "total")
_SERIES = (SnapshotSeries, SnapshotStream)


def _cell_cdf(grid, axis: int, marginal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cell edges, normalized CDF at the edges) of a 1D density along `axis`;
    linear interpolation between them is the piecewise-linear cell CDF."""
    h = grid.spacing[axis]
    edges = np.concatenate([[grid.axes[axis][0] - h / 2.0], grid.axes[axis] + h / 2.0])
    cdf = np.concatenate([[0.0], np.cumsum(marginal) * h])
    cdf /= cdf[-1]
    return edges, cdf


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
        edges, cdf = _cell_cdf(grid, 0, values)
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


def _time_blend(grid, n: int) -> str:
    """Where a table on `grid` evaluated at n positions blends snapshots in
    time: "grid" when the grid has no more points than one evaluation
    gathers corner values per row (n * 2**dims), else "particles"."""
    return "grid" if grid.size <= n * 2**grid.dims else "particles"


class _Workspace:
    """Work arrays for evaluating tables at `n` positions, allocated once.

    Each array, and each row prefix of one, is C-contiguous: `np.take(...,
    out=)` copies into a hidden array otherwise.  `rows` bounds the
    components gathered at once; `live` sizes the RK4 stage buffers (`k`
    for k2-k4, `stage`, and `step`, k1 over the density).  A grid-order
    table (`blend` rows per snapshot) keeps its time blends here instead of
    `both`: two (blend, grid.size) buffers, each under the (snapshot,
    theta) key it was blended for, and a scratch one."""

    def __init__(self, grid, n: int, rows: int, live: int = 0, blend: int = 0):
        dims = grid.dims
        self.grid = grid
        self.strides = [int(np.prod(grid.points[axis + 1 :])) for axis in range(dims)]
        self.corners = list(itertools.product((0, 1), repeat=dims))
        self.real = np.empty((dims, 3, n))  # f, w, 1 - w
        self.int = np.empty((dims, 3, n), dtype=np.int64)  # i0 and the two offsets
        self.lin = np.empty(n, dtype=np.int64)
        self.weight = np.empty(n)
        self.wrap = np.empty(n, dtype=bool)
        self.gather = np.empty((rows, n))
        self.both = np.empty((0 if blend else rows, n))
        self.k = np.empty((3, live, n))
        self.step = np.empty((live + 1, n))
        self.stage = np.empty((live, n))
        self.hit = np.empty(n, dtype=bool)
        self.blends = np.empty((3, blend, grid.size if blend else 0))
        self.blend_keys = [None, None]
        self.blend_next = 0  # the buffer that holds the older blend


def _interp_into(ws: _Workspace, tables, cols, out: np.ndarray) -> None:
    """Periodic multilinear interpolation of (C_i, grid.size) tables, stacked
    in order, into out (sum C_i, m).

    `cols[axis]` holds the m positions along each grid axis.  Each table is
    the row-major flattening of (C_i, *grid.shape) data.  Each of the 2^dims
    corners gets one linear index and one weight, shared by every table, and
    each table's components are gathered at once with ``np.take`` along the
    flat axis.  Corners accumulate in a fixed order onto zeros, so results
    are bit-identical to per-axis fancy indexing of the unflattened tables,
    whichever tables share the call."""
    grid = ws.grid
    offsets = []
    weights = []
    for axis in range(grid.dims):
        f, w, w_lo = ws.real[axis]
        i0, lo, hi = ws.int[axis]
        n_axis, stride = grid.points[axis], ws.strides[axis]
        np.subtract(cols[axis], grid.axes[axis][0], out=f)
        np.divide(f, grid.spacing[axis], out=f)
        np.floor(f, out=w)
        np.copyto(i0, w, casting="unsafe")
        np.subtract(f, w, out=w)  # f - i0, without casting i0 back
        np.subtract(1.0, w, out=w_lo)
        # lo = i0 % n_axis and hi = (i0 + 1) % n_axis, exactly; numpy's
        # floor_divide by a scalar is several times faster than remainder
        np.floor_divide(i0, n_axis, out=hi)
        np.multiply(hi, n_axis, out=hi)
        np.subtract(i0, hi, out=lo)
        np.add(lo, 1, out=hi)
        np.copyto(hi, 0, where=np.equal(hi, n_axis, out=ws.wrap))
        if stride != 1:
            np.multiply(lo, stride, out=lo)
            np.multiply(hi, stride, out=hi)
        offsets.append((lo, hi))
        weights.append((w_lo, w))
    gather = ws.gather[: out.shape[0]]
    parts, row = [], 0
    for flat in tables:
        parts.append((flat, gather[row : row + flat.shape[0]]))
        row += flat.shape[0]
    out.fill(0.0)
    for corner in ws.corners:
        lin = offsets[0][corner[0]]
        w = weights[0][corner[0]]
        for a in range(1, grid.dims):
            lin = np.add(lin, offsets[a][corner[a]], out=ws.lin)
            w = np.multiply(w, weights[a][corner[a]], out=ws.weight)
        # the offsets are already wrapped into range, so "clip" changes no
        # index; the default "raise" would gather into a hidden copy
        for flat, rows in parts:
            np.take(flat, lin, axis=1, out=rows, mode="clip")
        np.multiply(gather, w, out=gather)
        np.add(out, gather, out=out)


def _columns(positions: np.ndarray, dims: int) -> list:
    return [positions[:, axis] for axis in range(dims)]


def _interp_components(grid, flat: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Periodic multilinear interpolation of (C, grid.size) data at (n, 3)
    positions; returns (C, n).  See `_interp_into`."""
    n = positions.shape[0]
    out = np.empty((flat.shape[0], n))
    _interp_into(_Workspace(grid, n, flat.shape[0]), (flat,), _columns(positions, grid.dims), out)
    return out


class _VelocityTable:
    """Velocity and density samples at a sequence of times, evaluable anywhere.

    `velocities` and `densities` hold or yield one (3, *grid) velocity and
    one density per time; with `densities` omitted, `velocities` yields
    (velocity, density) pairs.  They are read forward: the table copies at
    most three consecutive snapshots into a window, one block of rows
    [v_live; rho] per snapshot.  The window holds three because an RK4 stage
    time t + h in [t_j, t_j+1] can round just past t_j+1 and read pair j+1,
    while the next interval starts at t_j+1 itself, which reads pair j at
    theta 1.  The window moves on one snapshot when an evaluation reads past
    it, and never back.

    An evaluation reads the velocity rows, the density row or both (`vel`,
    `rho`, `vel_rho`) with one `_interp_into` call.  Between snapshots j and
    j+1, at theta > 0, it blends them (1-theta) a + theta b in the order
    `blend` fixes for the table:

    * "particles": the call gathers both snapshots' rows and the two
      interpolated halves are blended at the positions;
    * "grid": the blocks are blended on the grid into a workspace buffer,
      once per (j, theta), so once per RK4 stage time, and the call gathers
      the blend.  This halves the gathered rows and costs a pass over the
      grid, so `_time_blend` picks it when the grid is small next to the
      ensemble.  It rounds differently from "particles".

    At theta == 0 both orders read snapshot j itself, so a one-snapshot
    (static) table evaluates identically in both.

    Only the live velocity components are interpolated; the rest evaluate to
    0.0 (a 1D drift table interpolates one component, not three).  `live`
    defaults to the components nonzero somewhere in `velocities`, which must
    then be a sequence."""

    def __init__(self, grid, times, velocities, densities=None, live=None, blend="particles"):
        if blend not in ("grid", "particles"):
            raise ValueError(f"blend must be 'grid' or 'particles', got {blend!r}")
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        if live is None:
            live = [c for c in range(3) if any(np.any(v[c] != 0) for v in velocities)]
        self.live = live
        self.blend = blend
        width = len(live)
        self.vel, self.rho, self.vel_rho = slice(0, width), slice(width, width + 1), slice(0, width + 1)
        held = min(len(self.times), 3)
        self._rows = iter(velocities) if densities is None else zip(velocities, densities)
        self._window = np.empty((held, width + 1, grid.size))
        self.thresholds = []
        for slot in range(held):
            self._load(slot)
        self.base = 0  # the snapshot in slot 0

    def _load(self, slot: int) -> None:
        v, rho = next(self._rows)
        for row, c in enumerate(self.live):
            self._window[slot, row] = v[c].reshape(-1)
        self._window[slot, -1] = rho.reshape(-1)
        self.thresholds.append(NODE_EPS * np.max(rho))

    def _advance(self) -> None:
        """Move the window on by one snapshot."""
        for slot in range(len(self.thresholds) - 1):
            self._window[slot] = self._window[slot + 1]
        del self.thresholds[0]
        self._load(len(self.thresholds))
        self.base += 1

    def workspace(self, n: int) -> _Workspace:
        """Buffers for evaluating this table, and integrating it, at n positions."""
        rows = len(self.live) + 1
        if self.blend == "grid":
            return _Workspace(self.grid, n, rows, len(self.live), blend=rows)
        return _Workspace(self.grid, n, 2 * rows, len(self.live))

    def _bracket(self, t: float):
        """(window slot i, theta) of the snapshots j = base + i and j + 1 around t."""
        if len(self.times) == 1:
            return 0, 0.0
        j = min(max(int(np.searchsorted(self.times, t)) - 1, 0), len(self.times) - 2)
        if j < self.base:
            raise ValueError(f"time {t} lies behind the table's window, which only moves forward")
        while j > self.base + 1:
            self._advance()
        span = self.times[j + 1] - self.times[j]
        theta = min(max(float((t - self.times[j]) / span), 0.0), 1.0)
        return j - self.base, theta

    def _grid_blend(self, ws: _Workspace, i: int, theta: float) -> np.ndarray:
        """Window slots i and i + 1 blended on the grid, in the workspace
        buffer keyed by (snapshot index, theta): each stage time blends
        once, and a window advance cannot serve a stale blend."""
        key = (self.base + i, theta)
        if key in ws.blend_keys:
            slot = ws.blend_keys.index(key)
        else:
            slot = ws.blend_next
            ws.blend_keys[slot] = key
            out, scratch = ws.blends[slot], ws.blends[2]
            np.multiply(self._window[i], 1.0 - theta, out=out)
            np.multiply(self._window[i + 1], theta, out=scratch)
            np.add(out, scratch, out=out)
        ws.blend_next = 1 - slot
        return ws.blends[slot]

    def _into(self, ws: _Workspace, cols, t: float, rows: slice, out: np.ndarray):
        """Rows `rows` of [v_live; rho] at t into out (width, m); returns the
        node threshold at t.  No rows evaluate nothing and return None."""
        width = out.shape[0]
        if width == 0:
            return None
        i, theta = self._bracket(t)
        a = self._window[i]
        if theta == 0.0:
            _interp_into(ws, (a[rows],), cols, out)
            return self.thresholds[i]
        if self.blend == "grid":
            _interp_into(ws, (self._grid_blend(ws, i, theta)[rows],), cols, out)
        else:
            both = ws.both[: 2 * width]
            _interp_into(ws, (a[rows], self._window[i + 1][rows]), cols, both)
            np.multiply(both[:width], 1.0 - theta, out=both[:width])
            np.multiply(both[width:], theta, out=both[width:])
            np.add(both[:width], both[width:], out=out)
        return (1.0 - theta) * self.thresholds[i] + theta * self.thresholds[i + 1]

    def velocity(self, positions: np.ndarray, t: float) -> np.ndarray:
        n = positions.shape[0]
        out = np.zeros((3, n))
        live = np.empty((len(self.live), n))
        self._into(self.workspace(n), _columns(positions, self.grid.dims), t, self.vel, live)
        out[self.live] = live
        return out.T

    def density(self, positions: np.ndarray, t: float):
        rho = np.empty((1, positions.shape[0]))
        thr = self._into(self.workspace(positions.shape[0]), _columns(positions, self.grid.dims), t, self.rho, rho)
        return rho[0], thr


def _row(state, mode, spin, params, backend) -> tuple[np.ndarray, np.ndarray]:
    """The (3, *grid) velocity and the density of one state or jet."""
    jet = _jet(state, params, backend).nonzero()
    v = jet.momentum / params.mass
    if mode == "total":
        v = v + zbw_velocity_uniform(jet, spin, params, backend).values
    return v, jet.rho


def _live_columns(dims: int, mode: str, spin) -> list:
    """The velocity components a series can move: the grid axes and, in total
    mode, the components grad(rho) x s reaches from them (row a of the cross
    products below is e_a x s).  A superset of the nonzero components, known
    before any snapshot is: a live column that is exactly zero integrates to
    the same bits as a dead one (see `_transport`)."""
    if mode == "drift":
        return list(range(dims))
    reach = np.cross(np.eye(3)[:dims], spin)
    return [c for c in range(3) if c < dims or np.any(reach[:, c])]


def _build_table(source, mode, spin, params, backend, n: int) -> tuple[_VelocityTable, np.ndarray]:
    """The velocity table of `source` for an ensemble of n, and its record times."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "total":
        spin = np.asarray(spin, dtype=float) if spin is not None else None
        if spin is None or spin.shape != (3,):
            raise ValueError("total mode needs a constant spin vector of shape (3,)")
    if isinstance(source, _SERIES):
        # one (velocity, density) row per snapshot, computed when the window reads it
        rows = (_row(snap.state, mode, spin, params, backend) for snap in source)
        live = _live_columns(source.grid.dims, mode, spin)
        blend = _time_blend(source.grid, n)
        return _VelocityTable(source.grid, source.times, rows, live=live, blend=blend), source.times
    if isinstance(source, ComplexField) or (isinstance(source, _Jet) and isinstance(source.state, ComplexField)):
        v, rho = _row(source, mode, spin, params, backend)
        return _VelocityTable(source.grid, [0.0], [v], [rho], blend=_time_blend(source.grid, n)), np.array([0.0])
    raise TypeError(f"source must be a SnapshotSeries, SnapshotStream or ComplexField, got {type(source)}")


def _transport(table: _VelocityTable, seeds: np.ndarray, record_times, intervals):
    """RK4 transport of (n, 3) seeds through `table`; returns paths (n, nt, 3),
    the frozen flags (n,) and the largest accepted step per grid spacing.

    The paths are a view of one zero-filled (n, nt) plane per coordinate,
    not C-contiguous.  A plane is written only for a live column or for a
    dead column whose seeds hold a nonzero bit pattern (-0.0 included); the
    plane of a dead column of +0.0 seeds is never written, so its pages are
    never faulted in.

    Positions live in rows, pos[c] for coordinate c.  Every substep steps the
    whole ensemble and keeps a new position only where the particle still
    moves; a step into the node region freezes the particle where it was,
    and stepping stops once none moves.  Each particle's arithmetic is elementwise, so the
    frozen ones change no bit of the others.  Only the live velocity columns
    are integrated; the others have velocity +0.0 and keep their value,
    except that a particle's first accepted step adds (h/6)*0.0 there,
    turning a -0.0 seed into +0.0 when h > 0.  A substep allocates no
    per-particle array.

    The node check at t + h reads the velocity with the density, from one
    interpolation, when the next substep starts at t + h exactly: that is
    the next k1, at the positions the moving particles take (a particle the
    check freezes moves no more, so its k1 goes unused).  Otherwise k1 is
    evaluated on its own.  The step size is the largest |increment| of an
    accepted step along a grid axis over that axis's spacing."""
    n = seeds.shape[0]
    dims = table.grid.dims
    live = table.live
    ws = table.workspace(n)
    pos = seeds.T.copy()
    store = np.zeros((3, n, len(record_times)))
    written = [c for c in range(3) if c in live or np.any(pos[c].view(np.uint64))]
    for c in written:
        store[c, :, 0] = pos[c]
    # each substep's start time, then None for the end of the run
    starts = [t0 + i * h for t0, t1, nsub in intervals for h in [(t1 - t0) / nsub] for i in range(nsub)]
    starts.append(None)
    s = 0  # the next substep

    def node_check(cols, t):
        """The node threshold at t, with the density at cols in rho and, when
        substep s starts at t, k1 in step; and whether it did k1."""
        ready = starts[s] == t
        rows = table.vel_rho if ready else table.rho
        return table._into(ws, cols, t, rows, ws.step[rows]), ready

    k1, rho = ws.step[table.vel], ws.step[table.rho]
    k2, k3, k4 = ws.k
    stage, hit = ws.stage, ws.hit
    here = [pos[axis] for axis in range(dims)]
    moved = [stage[live.index(axis)] if axis in live else pos[axis] for axis in range(dims)]
    spacings = [(row, table.grid.spacing[c]) for row, c in enumerate(live) if c < dims]
    max_step = 0.0

    thr, ready = node_check(here, record_times[0])
    frozen = rho[0] < thr
    moving = ~frozen
    dead = [c for c in range(3) if c not in live]
    negzero = [(c, np.flatnonzero((pos[c] == 0.0) & np.signbit(pos[c]) & moving)) for c in dead]
    negzero = [(c, rows) for c, rows in negzero if rows.size]

    for rec, (t0, t1, nsub) in enumerate(intervals, start=1):
        h = (t1 - t0) / nsub
        for i in range(nsub):
            if not moving.any():
                break
            t = t0 + i * h
            s += 1
            if not ready:
                table._into(ws, here, t, table.vel, k1)
            for k_in, k_out, dt in ((k1, k2, 0.5 * h), (k2, k3, 0.5 * h), (k3, k4, h)):
                np.multiply(k_in, dt, out=stage)
                for row, c in enumerate(live):
                    np.add(pos[c], stage[row], out=stage[row])
                table._into(ws, moved, t + dt, table.vel, k_out)
            # pos + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right into
            # k2, so that the node check can take the next k1
            np.multiply(k2, 2.0, out=k2)
            np.add(k1, k2, out=k2)
            np.multiply(k3, 2.0, out=k3)
            np.add(k2, k3, out=k2)
            np.add(k2, k4, out=k2)
            np.multiply(k2, h / 6.0, out=k2)
            for row, c in enumerate(live):
                np.add(pos[c], k2[row], out=stage[row])
            thr, ready = node_check(moved, t + h)
            # a step into the node region freezes the particle where it was
            np.logical_or(frozen, np.less(rho[0], thr, out=hit), out=frozen)
            np.logical_not(frozen, out=moving)
            for row, c in enumerate(live):
                np.copyto(pos[c], stage[row], where=moving)
            for row, spacing in spacings:
                largest = np.max(np.abs(k2[row], out=k2[row]), where=moving, initial=0.0)
                max_step = max(max_step, float(largest) / spacing)
            if negzero:
                # the dead columns of an accepted step get pos + (h/6)*0.0
                zero = (h / 6.0) * 0.0
                negzero = [(c, rows[moving[rows]]) for c, rows in negzero]
                if not np.signbit(zero):
                    for c, rows in negzero:
                        pos[c, rows] += zero
                    negzero = []
        for c in written:
            store[c, :, rec] = pos[c]
    return store.transpose(1, 2, 0), frozen, max_step


@dataclass
class TrajectorySet:
    seeds: np.ndarray  # (n, 3)
    times: np.ndarray  # (nt,)
    paths: np.ndarray  # (n, nt, 3), unwrapped; from advect, a view of (3, n, nt) planes, not C-contiguous
    mode: str
    frozen: np.ndarray  # (n,) True where the particle hit the node region
    rng_seed: int | None = None
    time_blend: str | None = None  # where the table blended snapshots in time: "grid" or "particles"
    max_step_per_spacing: float | None = None  # largest accepted RK4 step along a grid axis, in spacings


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

    `seeds` is an (n, k) array of n >= 1 positions with k = 1 to 3
    coordinates; the absent ones are zero.  A SnapshotSeries or
    SnapshotStream source is integrated over its own time range with
    `substeps` RK4 steps per snapshot interval and recorded at snapshot
    times; a stream is read as the transport reaches each snapshot, so at
    most three of its snapshots are held at once.  A static ComplexField
    source (or its jet) needs `duration` and `rk_steps` and is recorded
    after every step.

    `paths` is an (n, nt, 3) view of one (n, nt) plane per coordinate, not
    C-contiguous.  The planes of coordinates the transport cannot move and
    whose seeds are +0.0 (y and z of a 1D drift run, z of a 2D one) are
    never written, so they take no resident memory."""
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 2 or seeds.shape[0] < 1 or not 1 <= seeds.shape[1] <= 3:
        raise ValueError(f"seeds must be an (n, k) array, n >= 1 and k = 1 to 3 columns; got shape {seeds.shape}")
    if not np.all(np.isfinite(seeds)):
        raise ValueError("seeds contain non-finite values")
    full = np.zeros((seeds.shape[0], 3))
    full[:, : seeds.shape[1]] = seeds
    seeds = full

    # settings are checked before a stream source runs its propagator
    series = isinstance(source, _SERIES)
    if series:
        if substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {substeps}")
    elif isinstance(source, (ComplexField, _Jet)):
        if duration is None or rk_steps is None:
            raise ValueError("static sources need duration and rk_steps")
        if not np.isfinite(duration) or duration <= 0 or rk_steps < 1:
            raise ValueError(f"bad duration/rk_steps: {duration}, {rk_steps}")

    table, record_times = _build_table(source, mode, spin, params, backend, seeds.shape[0])
    if series:
        intervals = [
            (record_times[j], record_times[j + 1], substeps)
            for j in range(len(record_times) - 1)
        ]
    else:
        record_times = np.linspace(0.0, duration, rk_steps + 1)
        intervals = [(record_times[j], record_times[j + 1], 1) for j in range(rk_steps)]

    paths, frozen, max_step = _transport(table, seeds, record_times, intervals)
    return TrajectorySet(
        seeds=seeds,
        times=np.asarray(record_times, dtype=float),
        paths=paths,
        mode=mode,
        frozen=frozen,
        rng_seed=rng_seed,
        time_blend=table.blend,
        max_step_per_spacing=max_step,
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
        marginal = rho_t.values
        for other in range(grid.dims - 1, -1, -1):
            if other != axis:
                marginal = marginal.sum(axis=other)
        edges, cdf = _cell_cdf(grid, axis, marginal)
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
