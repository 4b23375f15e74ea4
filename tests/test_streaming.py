"""One snapshot stream: propagator -> writer, residual window, transport table.

`iter_propagate` hands each snapshot on as it is reached.  The residual sups
come from a window of three jets and the trajectory table holds a window of
three snapshots, so neither keeps the series.  The references below are the
materialized designs they replaced: the velocity table stacked over the
whole series, with its live columns scanned over every snapshot, and the
command line's residual loop over snapshot triples with fresh neighbour
states.  Streamed results must equal them bit for bit, compared through
`tobytes()`.

The memory tests bound the traced peak of a streamed run in units of one
snapshot, S = 16 bytes per grid point; the bound is derived from the design
and must hold for 11 and for 41 snapshots alike.
"""

import gc
import json
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzbw import (
    ComplexField,
    EvolutionConfig,
    Grid,
    PhysicalParams,
    RealField,
    advect,
    cli,
    continuity_residual,
    gaussian,
    harmonic_potential,
    hj_residual,
    internal_kinetic_density,
    iter_propagate,
    lagrangian_density,
    propagate,
    quantum_potential,
    random_smooth_state,
    zbw_velocity_uniform,
)
from mzbw import evolve, madelung
from mzbw.evolve import SnapshotStream, observables
from mzbw.fieldio import read_json, stream_snapshot_series
from mzbw.fields import _laplacian_values
from mzbw.madelung import NODE_EPS, REGION_EPS, _Jet, residual_sups
from mzbw.trajectories import _build_table, _interp_into, _time_blend, _transport, _Workspace

PARAMS = PhysicalParams(hbar=0.9, mass=1.1)


# ---------------------------------------------------------------------------
# reference: the whole-series velocity table


class WholeSeriesTable:
    """The velocity table as it was before streaming: every snapshot's
    live columns and density stacked into one array, live columns scanned
    over the whole series, and each time blend computed afresh, on the grid
    or at the particles as `blend` says."""

    def __init__(self, grid, times, velocities, densities, blend):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.live = [c for c in range(3) if any(np.any(v[c] != 0) for v in velocities)]
        self.blend = blend
        width = len(self.live)
        self.vel, self.rho, self.vel_rho = slice(0, width), slice(width, width + 1), slice(0, width + 1)
        self.blocks = np.stack(
            [np.concatenate([v[self.live], d[np.newaxis]]).reshape(width + 1, -1) for v, d in zip(velocities, densities)]
        )
        self.thresholds = [NODE_EPS * np.max(d) for d in densities]

    def workspace(self, n):
        width = len(self.live)
        return _Workspace(self.grid, n, 2 * (width + 1), width)

    def _bracket(self, t):
        if len(self.times) == 1:
            return 0, 0.0
        j = min(max(int(np.searchsorted(self.times, t)) - 1, 0), len(self.times) - 2)
        span = self.times[j + 1] - self.times[j]
        return j, min(max(float((t - self.times[j]) / span), 0.0), 1.0)

    def _into(self, ws, cols, t, rows, out):
        width = out.shape[0]
        if width == 0:
            return None
        j, theta = self._bracket(t)
        a = self.blocks[j]
        if theta == 0.0:
            _interp_into(ws, (a[rows],), cols, out)
            return self.thresholds[j]
        b = self.blocks[j + 1]
        if self.blend == "grid":
            _interp_into(ws, (((1.0 - theta) * a + theta * b)[rows],), cols, out)
        else:
            both = np.empty((2 * width, out.shape[1]))
            _interp_into(ws, (a[rows], b[rows]), cols, both)
            out[...] = (1.0 - theta) * both[:width] + theta * both[width:]
        return (1.0 - theta) * self.thresholds[j] + theta * self.thresholds[j + 1]


def whole_series_transport(seeds, series, mode, spin, substeps, backend):
    """Paths and frozen flags of `seeds` through the whole-series table, in
    the time-blend order `advect` picks for them."""
    velocities, densities = [], []
    for state in series.states:
        jet = _Jet(state, PARAMS, backend).nonzero()
        v = jet.momentum / PARAMS.mass
        if mode == "total":
            v = v + zbw_velocity_uniform(jet, spin, PARAMS, backend).values
        velocities.append(v)
        densities.append(jet.rho)
    blend = _time_blend(series.grid, seeds.shape[0])
    table = WholeSeriesTable(series.grid, series.times, velocities, densities, blend)
    times = series.times
    intervals = [(times[j], times[j + 1], substeps) for j in range(len(times) - 1)]
    full = np.zeros((seeds.shape[0], 3))
    full[:, : seeds.shape[1]] = seeds
    return table, _transport(table, full, times, intervals)[:2]


# ---------------------------------------------------------------------------
# reference: the command line's residual loop over snapshot triples


def triple_loop_sups(series, potential, backend):
    """Per interior snapshot: fresh (prev, jet of mid, next), sup over the
    |psi|^2 >= REGION_EPS max region, spacing times[1] - times[0]."""
    hj_sup, ct_sup = [], []
    dt = float(series.times[1] - series.times[0])
    for i in range(1, len(series.states) - 1):
        prev, mid, nxt = series.states[i - 1], series.states[i], series.states[i + 1]
        triple = (prev, _Jet(mid, PARAMS, backend), nxt)
        rho = np.abs(mid.values) ** 2
        keep = rho >= REGION_EPS * rho.max()
        hj = hj_residual(triple, dt, potential, PARAMS, backend)
        ct = continuity_residual(triple, dt, PARAMS, backend)
        hj_sup.append(float(np.max(np.abs(hj.values.values[keep]))))
        ct_sup.append(float(np.max(np.abs(ct.values.values[keep]))))
    return hj_sup, ct_sup


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# streamed == materialized


@settings(max_examples=30, deadline=None)
@given(
    dims=st.integers(1, 2),
    mode=st.sampled_from(["drift", "total"]),
    backend=st.sampled_from(["spectral", "fd2"]),
    steps=st.integers(2, 6),
    stride=st.integers(1, 2),
    substeps=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_streamed_residuals_and_transport_match_materialized(dims, mode, backend, steps, stride, substeps, seed):
    rng = np.random.default_rng(seed)
    points = tuple(int(p) for p in rng.choice([8, 12, 16], dims))
    grid = Grid(points, tuple(float(e) for e in rng.uniform(4.0, 7.0, dims)))
    psi = random_smooth_state(grid, seed, params=PARAMS, max_mode=2, amplitude=0.6)
    config = EvolutionConfig(dt=2e-3, steps=steps * stride, snapshot_stride=stride, params=PARAMS)
    spin = rng.standard_normal(3) if mode == "total" else None
    seeds = rng.uniform(-3.0, 3.0, (int(rng.integers(1, 30)), dims))
    series = propagate(psi, config)

    got = residual_sups(iter_propagate(psi, config), None, PARAMS, backend)
    want = triple_loop_sups(series, None, backend)
    assert same(got, want)

    _, (paths, frozen) = whole_series_transport(seeds, series, mode, spin, substeps, backend)
    for source in (iter_propagate(psi, config), series):
        traj = advect(seeds, source, mode, spin=spin, params=PARAMS, substeps=substeps, backend=backend)
        assert same(traj.paths, paths) and same(traj.frozen, frozen)
        assert same(traj.times, series.times)


def test_structurally_live_zero_column_integrates_like_a_dead_one():
    # a y-uniform 2D state: fd2 differences along y are exact zeros (some
    # -0.0), so y is live for a series table but dead for the scan over it
    grid = Grid((24, 12), (12.0, 6.0))
    x = grid.coords()[0]
    values = np.exp(-x * x / 3.0 + 0.9j * x)
    psi = ComplexField(grid, values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume))
    config = EvolutionConfig(dt=2e-3, steps=12, snapshot_stride=3, params=PARAMS)
    series = propagate(psi, config)
    momentum = _Jet(series.states[-1], PARAMS, "fd2").momentum
    assert np.all(momentum[1] == 0.0) and np.any(np.signbit(momentum[1]))

    seeds = np.random.default_rng(3).uniform(-4.0, 4.0, (200, 2))
    table, _ = _build_table(iter_propagate(psi, config), "drift", None, PARAMS, "fd2", len(seeds))
    assert table.live == [0, 1] and table.blend == "grid"
    seeds[::3, 1] = -0.0
    reference, (paths, frozen) = whole_series_transport(seeds, series, "drift", None, 2, "fd2")
    assert reference.live == [0]
    traj = advect(seeds, iter_propagate(psi, config), "drift", params=PARAMS, substeps=2, backend="fd2")
    assert same(traj.paths, paths) and same(traj.frozen, frozen)


# ---------------------------------------------------------------------------
# the stream itself


def small_run(nt: int, dims: int = 1):
    grid = Grid((32,) * dims, (10.0,) * dims)
    psi = random_smooth_state(grid, 5, params=PARAMS)
    return psi, EvolutionConfig(dt=1e-3, steps=2 * (nt - 1), snapshot_stride=2, params=PARAMS)


def test_stream_yields_what_propagate_collects():
    psi, config = small_run(6)
    series = propagate(psi, config)
    stream = iter_propagate(psi, config)
    assert isinstance(stream, SnapshotStream) and same(stream.times, series.times)
    assert stream.grid == psi.grid and stream.norms == [] and stream.last is None
    snaps = list(stream)
    assert [s.time for s in snaps] == list(series.times)
    for snap, state in zip(snaps, series.states):
        assert same(snap.state.values, state.values)
    assert same(stream.norms, series.norms) and same(stream.energies, series.energies)
    assert [s.norm for s in snaps] == stream.norms and stream.last is snaps[-1]
    with pytest.raises(ValueError, match="only once"):
        advect(np.zeros((1, 1)), stream, params=PARAMS)


def reference_strang_states(psi0, config):
    """The split-step loop out of place: every kick and transform makes a new
    array, and the kinetic factor is the first operand of its product."""
    p = config.params
    kinetic_factor = np.exp(-1j * (p.hbar * psi0.grid.k_squared() * config.dt / (2.0 * p.mass)))
    kicks = [] if config.potential is None else [np.exp(-0.5j * config.potential.values * config.dt / p.hbar)]
    psi = psi0.values.copy()
    states = [psi]
    for _ in range(config.steps // config.snapshot_stride):
        for _ in range(config.snapshot_stride):
            for kick in kicks:
                psi = np.multiply(kick, psi)
            psi = np.fft.ifftn(np.multiply(kinetic_factor, np.fft.fftn(psi)))
            for kick in kicks:
                psi = np.multiply(kick, psi)
        states.append(psi)
    return states


@pytest.mark.parametrize("points", [(256,), (32, 32, 32)])  # below and above numpy's 256 KiB elision size
@pytest.mark.parametrize("potential", [False, True])
def test_held_snapshots_match_the_out_of_place_loop(points, potential):
    grid = Grid(points, (10.0,) * len(points))
    psi = random_smooth_state(grid, 4, params=PARAMS)
    pot = harmonic_potential(grid, 0.7, params=PARAMS) if potential else None
    config = EvolutionConfig(dt=1e-3, steps=6, snapshot_stride=2, potential=pot, params=PARAMS)
    held = [snap.state.values for snap in iter_propagate(psi, config)]  # every state kept to the end
    want = reference_strang_states(psi, config)
    assert len(held) == len(want) == 4
    for got, ref in zip(held, want):
        assert same(got, ref)


def test_stream_checks_inputs_before_any_step():
    psi, config = small_run(3)
    elsewhere = RealField(Grid((16,), (10.0,)), np.zeros(16))
    with pytest.raises(ValueError, match="potential"):
        iter_propagate(psi, EvolutionConfig(dt=1e-3, steps=2, potential=elsewhere))
    with pytest.warns(RuntimeWarning, match="kinetic phase"):
        iter_propagate(psi, EvolutionConfig(dt=5.0, steps=1))


def test_writer_writes_as_snapshots_pass_and_the_manifest_last(tmp_path):
    psi, config = small_run(4)
    out = tmp_path / "snaps"
    written = stream_snapshot_series(str(out), iter_propagate(psi, config), {"k": 1})
    first = next(written)
    assert first.time == 0.0
    assert sorted(p.name for p in out.iterdir()) == ["psi_000000.mzbw"]
    rest = list(written)
    assert len(rest) == 3
    manifest = read_json(str(out / "manifest.json"))
    assert manifest["files"] == [f"psi_{i:06d}.mzbw" for i in range(4)] and manifest["config"] == {"k": 1}


def test_evolve_failing_mid_run_leaves_the_snapshots_so_far(tmp_path, capsys):
    # the k = 1 plane wave turns its phase by pi between snapshots; the first
    # residual window fails once its third snapshot is written
    cfg = {
        "grid": {"points": [8], "extent": [2.0 * np.pi]},
        "state": {"family": "plane_wave", "k": [1.0]},
        "evolution": {"dt": np.pi / 10.0, "steps": 80, "snapshot_stride": 20, "residuals": True},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 2
    assert "phase jump" in capsys.readouterr().err
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [f"psi_{i:06d}.mzbw" for i in range(3)]
    assert not (out / "summary.json").exists()


def count_snapshots(monkeypatch, fail_at=None, exc=None):
    """A list that grows by one as the stream's worker computes each
    snapshot; the worker raises a copy of `exc` computing snapshot
    `fail_at`, a new exception that nothing outside the stream holds."""
    real = evolve._norm_energy
    calls = []

    def norm_energy(psi, potential, params):
        calls.append(None)
        if len(calls) - 1 == fail_at:
            raise type(exc)(*exc.args)
        return real(psi, potential, params)

    monkeypatch.setattr(evolve, "_norm_energy", norm_energy)
    return calls


def new_threads(before):
    return [t for t in threading.enumerate() if t not in before]


@pytest.mark.parametrize("exc", [ValueError("injected"), MemoryError("injected")], ids=["ValueError", "MemoryError"])
def test_worker_failure_is_raised_by_the_consumer(monkeypatch, exc):
    count_snapshots(monkeypatch, 2, exc)
    psi, config = small_run(6)
    before = threading.enumerate()
    stream = iter_propagate(psi, config)
    got = []
    with pytest.raises(type(exc), match="^injected$"):
        for snap in stream:
            got.append(snap.time)
    assert got == list(stream.times[:2]) and len(stream.norms) == 2
    assert new_threads(before) == []


@pytest.mark.parametrize("command", ["evolve", "trajectories"])
def test_out_of_memory_in_the_worker_exits_2(tmp_path, capsys, monkeypatch, command):
    count_snapshots(monkeypatch, 2, MemoryError("injected"))
    cfg = {
        "grid": {"points": [16], "extent": [10.0]},
        "state": {"family": "gaussian", "sigma": 1.0},
        "evolution": {"dt": 1e-3, "steps": 8, "snapshot_stride": 2, "residuals": True},
        "trajectories": {"n": 10, "source": "evolve"},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    before = threading.enumerate()
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["out of memory: injected"]
    assert new_threads(before) == []  # joined before main returns
    if command == "evolve":
        assert sorted(p.name for p in (out / "snapshots").iterdir()) == ["psi_000000.mzbw", "psi_000001.mzbw"]


def test_stream_computes_one_snapshot_ahead_and_no_further(monkeypatch):
    computed = count_snapshots(monkeypatch)
    psi, config = small_run(6)
    snaps = iter(iter_propagate(psi, config))
    for n in range(4):
        next(snaps)
        deadline = time.monotonic() + 10.0
        while len(computed) < n + 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)  # ample time to run further ahead on a 32-point grid
        assert len(computed) == n + 2
    snaps.close()


def test_streams_read_at_once_hand_over_every_snapshot_once():
    psi, config = small_run(12)
    want = propagate(psi, config).states
    got = {}

    def read(k):
        got[k] = [snap.state.values for snap in iter_propagate(psi, config)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read, args=(k,)) for k in range(4)]  # and four workers
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(reader.is_alive() for reader in readers)
    for k in range(4):
        assert len(got[k]) == len(want) and all(same(a, b.values) for a, b in zip(got[k], want))


@pytest.mark.parametrize("how", ["close", "abandon"])
def test_a_stream_left_half_read_stops_its_worker(how):
    psi, config = small_run(6)
    baseline = threading.active_count()
    before = threading.enumerate()
    snaps = iter(iter_propagate(psi, config))
    next(snaps), next(snaps)
    workers = new_threads(before)
    assert len(workers) == 1 and threading.active_count() == baseline + 1
    if how == "close":
        snaps.close()
    else:
        del snaps
        gc.collect()
    after = threading.active_count()  # the stream joined its worker as it stopped
    workers[0].join(timeout=10.0)
    assert not workers[0].is_alive()
    assert after == baseline


def test_a_worker_failure_leaves_no_snapshot_in_a_reference_cycle(monkeypatch):
    # with the collector off, what a failed 64^3 stream still holds is only
    # the grid's cached |k|^2, S/2; a snapshot state held through a cycle
    # between the exception, its traceback and a frame would add S or more
    count_snapshots(monkeypatch, 2, MemoryError("injected"))
    grid = Grid((64, 64, 64), (10.0,) * 3)
    psi = random_smooth_state(grid, 4, params=PARAMS)
    config = EvolutionConfig(dt=1e-3, steps=5, params=PARAMS)

    def read():
        for _ in iter_propagate(psi, config):
            pass

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            read()
        except MemoryError:
            pass
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert kept < 16 * grid.size


ENERGY_GRIDS = [(256,), (128, 128), (48, 40, 36)]


@pytest.mark.parametrize("points", ENERGY_GRIDS)
@pytest.mark.parametrize("potential", [False, True])
def test_snapshot_norm_and_energy_are_those_of_observables(points, potential):
    grid = Grid(points, (10.0,) * len(points))
    psi = random_smooth_state(grid, 4, params=PARAMS)
    pot = harmonic_potential(grid, 0.7, params=PARAMS) if potential else None
    obs = observables(psi, pot, PARAMS)
    assert same(evolve._norm_energy(psi, pot, PARAMS), (obs.norm, obs.energy))


def laplacian_form_energy(psi, potential, params):
    """dV Re sum conj(psi) (-(hbar^2/2m) lap(psi) + U psi), the snapshot
    energy with the spectral Laplacian, as it was before Parseval."""
    h_psi = _laplacian_values(psi.values, psi.grid, "spectral")
    h_psi *= -(params.hbar * params.hbar / (2.0 * params.mass))
    if potential is not None:
        h_psi += potential.values * psi.values
    return float((np.sum(np.conj(psi.values) * h_psi) * psi.grid.cell_volume).real)


@pytest.mark.parametrize("points", ENERGY_GRIDS)
@pytest.mark.parametrize("potential", [False, True])
def test_parseval_energy_matches_the_laplacian_form(points, potential):
    grid = Grid(points, (10.0,) * len(points))
    psi = random_smooth_state(grid, 4, params=PARAMS)
    pot = harmonic_potential(grid, 0.7, params=PARAMS) if potential else None
    want = laplacian_form_energy(psi, pot, PARAMS)
    assert abs(evolve._norm_energy(psi, pot, PARAMS)[1] - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("backend", ["spectral", "fd2"])
def test_residual_sups_are_the_same_from_every_source(tmp_path, backend):
    # a stream, a series and the writer's iterator have `times`, so the
    # last snapshot is not worked on; a plain generator has none, and its
    # last snapshot gets the same work as the others
    psi, config = small_run(7, dims=2)
    series = propagate(psi, config)
    want = residual_sups(series, None, PARAMS, backend)
    assert len(want[0]) == 5
    sources = [
        iter_propagate(psi, config),
        (snap for snap in iter_propagate(psi, config)),
        stream_snapshot_series(str(tmp_path / "snaps"), iter_propagate(psi, config)),
    ]
    for source in sources:
        assert same(residual_sups(source, None, PARAMS, backend), want)


def test_residual_sups_reject_a_nonuniform_spacing():
    psi, config = small_run(5)
    series = propagate(psi, config)
    assert same(series.times, [0.0, 0.002, 0.004, 0.006, 0.008])
    assert len(residual_sups(series, None, PARAMS)[0]) == 3
    series.times = np.array([0.0, 0.002, 0.004, 0.010, 0.012])
    with pytest.raises(ValueError, match="spacing 0.006.* differs from the first, 0.002"):
        residual_sups(series, None, PARAMS)


MOVING_MASK_GRIDS = {1: Grid((256,), (48.0,)), 2: Grid((64, 64), (24.0, 24.0)), 3: Grid((32, 32, 32), (14.0,) * 3)}


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("backend", ["spectral", "fd2"])
@pytest.mark.parametrize("potential", [False, True], ids=["free", "harmonic"])
def test_window_sups_equal_the_public_residuals_where_the_masks_move(dims, backend, potential, monkeypatch):
    # the window divides its terms by the middle jet's own safe density and
    # `hj_residual` by the triple's union-mask one; a narrow boosted Gaussian
    # in a wide box moves its node mask between snapshots, so the two differ
    # at some points of every triple, and the union mask must zero them all.
    # Those points lie outside the sups' region, so the whole residual
    # fields the window takes its sups of are compared too
    grid = MOVING_MASK_GRIDS[dims]
    pot = harmonic_potential(grid, 0.4, params=PARAMS) if potential else None
    psi = gaussian(grid, sigma=0.8, center=-1.0, boost=5.0, params=PARAMS)
    series = propagate(psi, EvolutionConfig(dt=5e-3, steps=30, snapshot_stride=10, potential=pot, params=PARAMS))
    masks = [_Jet(state, PARAMS, backend).mask for state in series.states]
    for prev, mid, nxt in zip(masks, masks[1:], masks[2:]):
        assert np.any((prev | nxt) & ~mid)

    fields = []
    sup = madelung._sup

    def recording(field, keep):
        fields.append(field.values.copy())
        return sup(field, keep)

    monkeypatch.setattr(madelung, "_sup", recording)
    got = residual_sups(series, pot, PARAMS, backend)
    assert len(got[0]) == 2
    assert same(got, triple_loop_sups(series, pot, backend))
    dt = float(series.times[1] - series.times[0])
    states = series.states
    for i in range(1, len(states) - 1):
        triple = (states[i - 1], _Jet(states[i], PARAMS, backend), states[i + 1])
        assert same(fields[2 * i - 2], hj_residual(triple, dt, pot, PARAMS, backend).values.values)
        assert same(fields[2 * i - 1], continuity_residual(triple, dt, PARAMS, backend).values.values)


def poison_density_derivative(monkeypatch):
    """Make madelung's axis derivative of a real field, such as d_a rho,
    return an infinity at its first point."""
    derivative = madelung._axis_derivative

    def poisoned(values, grid, axis, backend):
        out = derivative(values, grid, axis, backend)
        if not np.iscomplexobj(values):
            out[(0,) * out.ndim] = np.inf
        return out

    monkeypatch.setattr(madelung, "_axis_derivative", poisoned)


def test_window_rejects_a_non_finite_density_derivative(monkeypatch):
    poison_density_derivative(monkeypatch)
    psi, config = small_run(5, dims=2)
    with pytest.raises(ValueError, match=r"grad\(rho\) contains non-finite values"):
        residual_sups(iter_propagate(psi, config), None, PARAMS)


@pytest.mark.parametrize(
    "reader",
    [
        lambda t, rho, u: hj_residual(t, 1e-3, u, PARAMS),
        lambda t, rho, u: quantum_potential(rho, PARAMS),
        lambda t, rho, u: lagrangian_density(t, 1e-3, u, PARAMS),
        lambda t, rho, u: internal_kinetic_density(rho, PARAMS),
    ],
    ids=["hj_residual", "quantum_potential", "lagrangian_density", "internal_kinetic_density"],
)
def test_every_reader_rejects_a_non_finite_density_derivative(reader, monkeypatch):
    # each reader forms d_a rho through the jet's terms, which scan it
    poison_density_derivative(monkeypatch)
    psi, _ = small_run(2, dims=2)
    triple = (psi, psi, psi)
    rho = RealField(psi.grid, np.abs(psi.values) ** 2)
    u = RealField(psi.grid, np.zeros(psi.grid.shape))
    with pytest.raises(ValueError, match=r"grad\(rho\) contains non-finite values"):
        reader(triple, rho, u)


def test_evolve_exits_2_on_a_non_finite_density_derivative(tmp_path, capsys, monkeypatch):
    poison_density_derivative(monkeypatch)
    cfg = {
        "grid": {"points": [32, 32], "extent": [16.0, 16.0]},
        "state": {"family": "gaussian", "sigma": 1.0},
        "evolution": {"dt": 1e-3, "steps": 4, "residuals": True},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 2
    assert "grad(rho) contains non-finite values" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_table_window_only_moves_forward():
    psi, config = small_run(6)
    table, times = _build_table(iter_propagate(psi, config), "drift", None, PARAMS, "spectral", 4)
    pos = np.zeros((4, 3))
    table.density(pos, times[4])  # pair 3 at theta 1: the window starts at snapshot 2
    assert table.base == 2 and len(table.thresholds) == 3
    with pytest.raises(ValueError, match="behind"):
        table.density(pos, times[1])


# ---------------------------------------------------------------------------
# memory: O(grid), not O(snapshots x grid)


class InlineExecutor:
    """A stand-in for the stream's one-worker executor that runs each
    submitted call inside `submit`: the read-ahead's snapshot is complete,
    energy and all, before the reader gets the one before it.  The traced
    peak of a streamed run then no longer depends on how two threads
    interleave."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestStreamMemory:
    """Peak traced bytes of a streamed 2D run on a 128^2 grid, in units of
    one snapshot S = 16 bytes per point (a real field is S/2).

    Transport through the stream (total mode, three live columns):
    * held for the whole run, 7.5 S: the kinetic phase factor S, the grid's
      |k|^2 S/2, and the table's window of three snapshots of three velocity
      columns and a density, 6 S (the coordinate meshes are views);
    * the heaviest step, 12 S: building one snapshot's row while the
      previous state is still referenced, 2 S, with its jet's density, safe
      density, current, momentum and grad(rho), 5.5 S (and the mask), the
      drift and internal velocities and their sum, 4.5 S;
    * the read-ahead, 2.5 S: the next snapshot S, which the stream's worker
      thread computes while the consumer works, and its energy's spectrum
      psi_k S and power |psi_k|^2 S/2;
    * a margin of 2 S for numpy's FFT scratch and small objects.
    Bound: paths + workspace + the ensemble's (n,) arrays + 24 S; over 20
    runs the traced peak read 19.6 to 21.1 S (11 snapshots) and 20.2 to
    21.7 S (41).

    Residual sups through the stream:
    * held, 1.5 S: the phase factor and |k|^2;
    * the window at its heaviest step, an interior snapshot's own work as
      it arrives, 6 S: its state S (each state is freed once the phase
      increment out of it exists), the previous density and the kept phase
      increment into it S, its density and safe density S, the three real
      fields its residuals read (kinetic term, bracket, flux divergence)
      1.5 S, and one axis of its current with that axis's flux and the
      flux's transform 1.5 S; no vector of the snapshot is held;
    * the read-ahead, 2.5 S, as above;
    * a margin of 8 S, since the bound was set when the window held the
      middle snapshot's current, grad(rho) and lap(rho) (3.5 S).
    Bound: 18 S.  Holding those three, the traced peak read 12.4 to 14.4 S
    over 20 runs, and 12.4 to 14.9 S when the window worked on the middle
    snapshot only once the next one had arrived; holding the three real
    fields instead, 9.7 to 11.3 S over 18 runs.

    Both peaks also move with how the worker's and the reader's allocations
    interleave, not only with the inputs: identical runs spread over
    1.5 to 2.5 S, about 1.2 real fields on the 48^3 trajectories command
    below, so each bound keeps that much above the measured peaks.

    The materialized design held every state and, for transport, the
    stacked tables, so its peak grew by at least 2.5 S per snapshot."""

    GRID = Grid((128, 128), (16.0, 16.0))
    S = 16 * GRID.size

    def run(self, nt):
        psi = random_smooth_state(self.GRID, 9, params=PARAMS)
        return psi, EvolutionConfig(dt=1e-3, steps=nt - 1, params=PARAMS)

    @pytest.mark.parametrize("nt", [11, 41])
    def test_transport(self, nt):
        psi, config = self.run(nt)
        n = 200
        seeds = np.random.default_rng(1).uniform(-3.0, 3.0, (n, 2))
        spin = np.array([0.3, -0.2, 0.4])
        traj, peak = traced_peak(
            lambda: advect(seeds, iter_propagate(psi, config), "total", spin=spin, params=PARAMS, substeps=1)
        )
        ws = _Workspace(self.GRID, n, 8, 3)  # the particle-order workspace of three live columns
        ws_bytes = sum(a.nbytes for a in vars(ws).values() if isinstance(a, np.ndarray))
        assert len(traj.times) == nt
        assert peak <= traj.paths.nbytes + ws_bytes + 5 * 8 * n + 24 * self.S

    @pytest.mark.parametrize("nt", [11, 41])
    def test_residuals(self, nt):
        psi, config = self.run(nt)
        (phase, _), peak = traced_peak(lambda: residual_sups(iter_propagate(psi, config), None, PARAMS))
        assert len(phase) == nt - 2
        assert peak <= 18 * self.S


EVOLVE_48 = {
    "grid": {"points": [48, 48, 48], "extent": [16.0, 16.0, 16.0]},
    "state": {"family": "gaussian", "sigma": 1.5},
    "potential": {"family": "harmonic", "omega": 0.5},
    "evolution": {"dt": 1e-2, "steps": 40, "snapshot_stride": 4, "residuals": True},
}


def evolve_48_peak(tmp_path, monkeypatch, backend):
    """Traced peak of the 48^3 `EVOLVE_48` command in real fields R of the
    grid, with the read-ahead run inside `submit` (InlineExecutor)."""
    monkeypatch.setattr(evolve, "ThreadPoolExecutor", InlineExecutor)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(EVOLVE_48))
    argv = ["evolve", "--config", str(path), "--out", str(tmp_path / "out"), "--backend", backend]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    return peak / (8 * 48**3)


def test_evolve_command_works_on_each_snapshot_as_it_arrives(tmp_path, monkeypatch):
    # a 48^3 evolve with residuals, in units of one real field R.  With the
    # worker thread the traced peak moved with the threads' interleaving:
    # 30.8 to 32.3 R over 20 runs with the window computing the middle
    # snapshot's current and derivatives only once the next snapshot had
    # arrived, 27.7 to 28.0 R over 20 runs with that work done as the middle
    # snapshot arrives, and 29.7 and 30.0 R in 2 of 12 runs on a loaded
    # host.  The read-ahead now runs inside `submit` (InlineExecutor), so
    # the peak is the reader's heaviest step with the next snapshot held:
    # 27.84 R in a fresh process, 27.68 R when a run before it warmed numpy.
    # The window's own bound is in the test below
    assert evolve_48_peak(tmp_path, monkeypatch, "spectral") <= 28.5


@pytest.mark.parametrize("backend", ["spectral", "fd2"])
def test_evolve_window_reduces_each_snapshot_to_its_residual_terms(tmp_path, monkeypatch, backend):
    # the run above on both backends.  Holding the middle snapshot's current
    # (3 R), grad(rho) (3 R) and lap(rho) (1 R) into its triple, the peak
    # read 27.84 R on both, inside the triple's sups.  Reducing the snapshot
    # to its three residual terms one axis at a time, as it arrives, moves
    # the peak into that reduction: 21.63 R (spectral) and 21.59 R (fd2) in
    # a fresh process
    assert evolve_48_peak(tmp_path, monkeypatch, backend) <= 22.5


def test_trajectories_command_frees_the_initial_state(tmp_path, monkeypatch):
    # a 48^3 evolve-source total run, in units of one real field R, with the
    # read-ahead run inside `submit` (InlineExecutor), so that the threads'
    # interleaving does not move the peak: with the initial state and its
    # jet held to the end the traced peak read 43.80 R in a fresh process
    # and 42.90 R after a warm-up run, and 40.80 and 39.90 R once they are
    # dropped after sampling; the bound lies between.  With the worker
    # thread the two read 46.0 to 47.2 and 43.0 to 44.1 R over 20 runs
    monkeypatch.setattr(evolve, "ThreadPoolExecutor", InlineExecutor)
    cfg = {
        "grid": {"points": [48, 48, 48], "extent": [16.0, 16.0, 16.0]},
        "state": {"family": "gaussian", "sigma": 1.5},
        "spinor": {"theta": 0.7, "phi": 0.3},
        "evolution": {"dt": 1e-2, "steps": 40, "snapshot_stride": 4},
        "trajectories": {"n": 2000, "mode": "total", "source": "evolve", "format": "binary", "seed": 3},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    argv = ["trajectories", "--config", str(path), "--out", str(tmp_path / "out")]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    assert peak <= 42.0 * 8 * 48**3
