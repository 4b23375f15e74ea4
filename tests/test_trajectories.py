"""Trajectory transport checks.

The free sigma=1 packet carries the exact drift map x(t) = x0 sqrt(1+t^2/4),
so the seed at x0=1 must land on sqrt(2) at t=2.  The 2D spin-up packet's
circulation velocity is the rigid rotation (hbar/2 m sigma^2)(-y, x), giving
closed circular orbits of period 4 pi.  Transported ensembles must stay
distributed like |psi|^2 (equivariance), and 1D flow lines never cross.
"""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import mzbw
from mzbw import (
    ComplexField,
    Grid,
    PhysicalParams,
    TrajectorySet,
    advect,
    constant_spinor,
    decompose,
    equivariance_check,
    gaussian,
    plane_wave,
    sample_initial,
    spin_vector,
)
from mzbw.spinhydro import zbw_velocity_uniform
from mzbw import trajectories
from mzbw.trajectories import KS_COEFF_1PCT, _interp_components, _VelocityTable
from mzbw.trajectories import _build_table, _time_blend, _transport


def node_state(grid):
    """First-excited-like profile x exp(-x^2/4): a density zero at x = 0."""
    x = grid.axes[0]
    values = x * np.exp(-x * x / 4.0)
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume)
    return ComplexField(grid, (values / norm).astype(complex))


class TestSampler:
    def test_1d_inverse_cdf_matches_density(self, free_gaussian_series, params):
        rho0 = decompose(free_gaussian_series.states[0], params).rho
        samples = np.sort(sample_initial(rho0, 4000, seed=123)[:, 0])
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(samples / np.sqrt(2.0)))
        i = np.arange(1, 4001)
        ks = max(np.max(i / 4000 - cdf), np.max(cdf - (i - 1) / 4000))
        assert ks < KS_COEFF_1PCT / np.sqrt(4000)

    def test_sampler_is_deterministic(self, free_gaussian_series, params):
        rho0 = decompose(free_gaussian_series.states[0], params).rho
        a = sample_initial(rho0, 100, seed=9)
        b = sample_initial(rho0, 100, seed=9)
        assert np.array_equal(a, b)
        c = sample_initial(rho0, 100, seed=10)
        assert not np.array_equal(a, c)

    def test_2d_rejection_sampling_moments(self, params):
        grid = Grid((96, 96), (20.0, 20.0))
        rho = decompose(gaussian(grid, sigma=1.2), params).rho
        samples = sample_initial(rho, 3000, seed=21)
        assert samples.shape == (3000, 3)
        assert np.max(np.abs(samples[:, 2])) == 0.0
        for axis in range(2):
            assert abs(np.mean(samples[:, axis])) < 0.15
            assert 1.05 < np.std(samples[:, axis]) < 1.35


class TestDriftTransport:
    def test_plane_wave_lines_are_straight(self, params):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 2 / 8.0
        psi = plane_wave(grid, k)
        traj = advect(
            np.array([[-3.0], [0.0], [2.0]]), psi, mode="drift", duration=2.0, rk_steps=50
        )
        exact = traj.seeds[:, 0:1] + k * traj.times[None, :]
        assert np.max(np.abs(traj.paths[:, :, 0] - exact)) < 1e-12

    def test_spreading_packet_scaling_map(self, free_gaussian_series):
        # x(t) = x0 sqrt(1 + t^2/4) for the sigma=1 free packet
        traj = advect(np.array([[1.0]]), free_gaussian_series, mode="drift", substeps=4)
        assert abs(traj.paths[0, -1, 0] - np.sqrt(2.0)) < 1e-4
        mid = traj.paths[0, 100, 0]
        assert abs(mid - np.sqrt(1.25)) < 1e-4

    def test_flow_lines_never_cross_in_1d(self, free_gaussian_series):
        seeds = np.linspace(-3.0, 3.0, 25)[:, None]
        traj = advect(seeds, free_gaussian_series, mode="drift", substeps=2)
        assert not traj.frozen.any()
        for j in range(traj.paths.shape[1]):
            assert np.all(np.diff(traj.paths[:, j, 0]) > 0.0)

    def test_advect_is_deterministic(self, free_gaussian_series):
        seeds = np.array([[0.5], [-1.5]])
        a = advect(seeds, free_gaussian_series, mode="drift", substeps=2)
        b = advect(seeds, free_gaussian_series, mode="drift", substeps=2)
        assert np.array_equal(a.paths, b.paths)


@pytest.fixture(scope="module")
def packet_2d():
    grid = Grid((128, 128), (20.0, 20.0))
    return gaussian(grid)


class TestCirculationTransport:
    def test_orbit_period_and_radius(self, packet_2d):
        s_up = spin_vector(constant_spinor(0.0))
        period_exact = 4.0 * np.pi
        traj = advect(
            np.array([[1.0, 0.0]]),
            packet_2d,
            mode="total",
            spin=s_up,
            duration=period_exact,
            rk_steps=1200,
        )
        p = traj.paths[0]
        radius = np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2)
        assert np.max(np.abs(radius - 1.0)) < 1e-10
        theta = np.unwrap(np.arctan2(p[:, 1], p[:, 0]))
        period = np.interp(2.0 * np.pi, theta - theta[0], traj.times)
        assert abs(period - period_exact) < 1e-3 * period_exact

    def test_rk4_fourth_order_convergence(self, packet_2d):
        s_up = spin_vector(constant_spinor(0.0))
        errors = []
        for n in (100, 200):
            traj = advect(
                np.array([[1.0, 0.0]]),
                packet_2d,
                mode="total",
                spin=s_up,
                duration=np.pi,
                rk_steps=n,
            )
            end = traj.paths[0, -1, :2]
            errors.append(np.linalg.norm(end - np.array([0.0, 1.0])))
        assert errors[0] / errors[1] > 8.0

    def test_total_mode_requires_spin(self, packet_2d):
        with pytest.raises(ValueError, match="spin"):
            advect(np.array([[1.0, 0.0]]), packet_2d, mode="total", duration=1.0, rk_steps=10)


class TestNodeHandling:
    def test_seed_in_node_region_is_frozen(self):
        grid = Grid((256,), (40.0,))
        psi = node_state(grid)
        traj = advect(
            np.array([[0.0], [2.0]]), psi, mode="drift", duration=1.0, rk_steps=20
        )
        assert traj.frozen.tolist() == [True, False]
        assert np.all(traj.paths[0] == traj.paths[0, 0])
        # the real state carries no drift current, so the live particle
        # holds position too
        assert np.max(np.abs(traj.paths[1, :, 0] - 2.0)) < 1e-12


class TestEquivariance:
    def test_transported_ensemble_matches_final_density(
        self, free_gaussian_series, params
    ):
        rho0 = decompose(free_gaussian_series.states[0], params).rho
        seeds = sample_initial(rho0, 2000, seed=42)
        traj = advect(seeds, free_gaussian_series, mode="drift", substeps=2)
        rho_t = decompose(free_gaussian_series.states[-1], params).rho
        report = equivariance_check(traj, rho_t)
        assert report.passed
        assert report.critical_1pct == pytest.approx(KS_COEFF_1PCT / np.sqrt(2000))

    def test_check_rejects_stale_density(self, free_gaussian_series, params):
        # the same endpoints against the initial density must fail: the
        # packet has visibly spread, and the test must be able to see that
        rho0 = decompose(free_gaussian_series.states[0], params).rho
        seeds = sample_initial(rho0, 2000, seed=42)
        traj = advect(seeds, free_gaussian_series, mode="drift", substeps=2)
        report = equivariance_check(traj, rho0)
        assert not report.passed
        assert report.statistic > 2.0 * report.critical_1pct


class TestAdvectValidation:
    def test_bad_mode(self, free_gaussian_series):
        with pytest.raises(ValueError, match="mode"):
            advect(np.array([[0.0]]), free_gaussian_series, mode="sideways")

    def test_static_source_needs_duration(self):
        psi = gaussian(Grid((64,), (20.0,)))
        with pytest.raises(ValueError, match="duration"):
            advect(np.array([[0.0]]), psi, mode="drift")

    @pytest.mark.parametrize("duration", [np.inf, -np.inf, np.nan])
    def test_static_duration_must_be_finite(self, duration):
        psi = gaussian(Grid((64,), (20.0,)))
        with pytest.raises(ValueError, match="duration"):
            advect(np.array([[0.0]]), psi, mode="drift", duration=duration, rk_steps=4)

    def test_too_many_seed_columns(self, free_gaussian_series):
        with pytest.raises(ValueError, match="columns"):
            advect(np.zeros((2, 4)), free_gaussian_series, mode="drift")

    @pytest.mark.parametrize(
        "seeds",
        [np.empty(0), np.array([0.5, 1.0]), np.empty((0, 1)), np.zeros((3, 0)), np.zeros((2, 1, 1))],
        ids=["empty", "flat", "no-rows", "no-columns", "3d"],
    )
    def test_seeds_must_be_n_by_k(self, seeds):
        psi = gaussian(Grid((64,), (20.0,)))
        with pytest.raises(ValueError, match=re.escape(f"shape {seeds.shape}")):
            advect(seeds, psi, mode="drift", duration=0.5, rk_steps=4)

    def test_non_finite_seeds(self, free_gaussian_series):
        with pytest.raises(ValueError, match="finite"):
            advect(np.array([[np.nan]]), free_gaussian_series, mode="drift")

    def test_source_type_checked(self):
        with pytest.raises(TypeError, match="source"):
            advect(np.array([[0.0]]), object(), mode="drift")


def fancy_index_interp(grid, stacked, positions):
    """Reference interpolator: per-corner fancy indexing of (C, *grid.shape)
    data, the layout the flat gather replaced.  The flat gather must match it
    bit for bit."""
    dims = grid.dims
    base_idx = []
    weights = []
    for axis in range(dims):
        n_axis = grid.points[axis]
        f = (positions[:, axis] - grid.axes[axis][0]) / grid.spacing[axis]
        i0 = np.floor(f).astype(np.int64)
        w = f - i0
        base_idx.append(np.stack([i0 % n_axis, (i0 + 1) % n_axis]))
        weights.append(np.stack([1.0 - w, w]))
    out = np.zeros((stacked.shape[0], positions.shape[0]))
    for corner in itertools.product((0, 1), repeat=dims):
        idx = tuple(base_idx[a][c] for a, c in enumerate(corner))
        w = weights[0][corner[0]].copy()
        for a in range(1, dims):
            w *= weights[a][corner[a]]
        out += stacked[(slice(None),) + idx] * w
    return out


def unwrapped_positions(grid, n, seed):
    """Positions up to three box lengths outside the box on every present
    axis, plus exact grid nodes and cell midpoints; zeros on absent axes."""
    rng = np.random.default_rng(seed)
    pos = np.zeros((n + 2, 3))
    for axis in range(grid.dims):
        span = grid.extents[axis]
        pos[:n, axis] = rng.uniform(-3.0 * span, 3.0 * span, n)
        pos[n, axis] = grid.axes[axis][1]
        pos[n + 1, axis] = grid.axes[axis][-1] + 0.5 * grid.spacing[axis]
    return pos


GATHER_GRIDS = [((16,), (5.0,)), ((8, 12), (3.0, 4.5)), ((6, 8, 10), (2.0, 3.0, 4.0))]


class TestFlatGather:
    @pytest.mark.parametrize("points,extents", GATHER_GRIDS, ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("ncomp", [1, 3])
    def test_matches_fancy_index_bitwise(self, points, extents, ncomp):
        grid = Grid(points, extents)
        data = np.random.default_rng(7).standard_normal((ncomp,) + grid.shape)
        data[0].flat[::5] = 0.0
        data[0].flat[1::5] = -0.0
        if ncomp == 3:
            data[1] = 0.0  # an exact-zero component, like an absent axis
            data[2].flat[::2] = -0.0
        pos = unwrapped_positions(grid, 500, seed=len(points))
        flat = data.reshape(ncomp, -1)
        got = _interp_components(grid, flat, pos)
        assert got.tobytes() == fancy_index_interp(grid, data, pos).tobytes()

    def test_negative_zero_cross_product_component(self, params):
        # 1D grad(rho) has exact-zero y and z components, so with s_z < 0 the
        # x component of grad(rho) x s is 0*s_z - 0*s_y = -0.0 everywhere
        grid = Grid((32,), (10.0,))
        rho = decompose(gaussian(grid), params).rho
        zbw = zbw_velocity_uniform(rho, np.array([0.0, 0.6, -0.8]), params).values
        assert np.all(zbw[0] == 0.0) and np.all(np.signbit(zbw[0]))
        pos = unwrapped_positions(grid, 300, seed=3)
        got = _interp_components(grid, zbw.reshape(3, -1), pos)
        assert got.tobytes() == fancy_index_interp(grid, zbw, pos).tobytes()


class TestVelocityTable:
    def test_live_components_and_pairs_match_full_blend(self):
        # a y-only velocity: x and z are dead and must evaluate to exact 0.0,
        # and the live blend must equal interpolating all three components
        grid = Grid((8, 12), (3.0, 4.5))
        rng = np.random.default_rng(5)
        times = np.array([0.0, 0.5, 1.25])
        velocities = [np.zeros((3,) + grid.shape) for _ in times]
        for v in velocities:
            v[1] = rng.standard_normal(grid.shape)
        densities = [rng.uniform(0.5, 1.0, grid.shape) for _ in times]
        table = _VelocityTable(grid, times, velocities, densities)
        assert table.live == [1]
        pos = unwrapped_positions(grid, 200, seed=11)
        for t in (0.0, 0.2, 0.5, 0.9, 1.25, 2.0):
            j = int(np.clip(np.searchsorted(times, t) - 1, 0, len(times) - 2))
            theta = float(np.clip((t - times[j]) / (times[j + 1] - times[j]), 0.0, 1.0))
            v0 = fancy_index_interp(grid, velocities[j], pos)
            d0 = fancy_index_interp(grid, densities[j][np.newaxis], pos)[0]
            if theta == 0.0:
                want_v, want_d = v0.T, d0
            else:
                v1 = fancy_index_interp(grid, velocities[j + 1], pos)
                d1 = fancy_index_interp(grid, densities[j + 1][np.newaxis], pos)[0]
                want_v = ((1.0 - theta) * v0 + theta * v1).T
                want_d = (1.0 - theta) * d0 + theta * d1
            got_v = table.velocity(pos, t)
            assert got_v.tobytes() == np.ascontiguousarray(want_v).tobytes()
            assert not np.any(np.signbit(got_v[:, [0, 2]]))
            assert table.density(pos, t)[0].tobytes() == want_d.tobytes()

    def test_all_dead_static_table(self, params):
        # no live component: nothing is interpolated and velocity is all 0.0
        grid = Grid((64,), (20.0,))
        rho = decompose(gaussian(grid), params).rho.values
        table = _VelocityTable(grid, [0.0], [np.zeros((3,) + grid.shape)], [rho])
        assert table.live == []
        pos = np.array([[0.3, 0.0, 0.0], [-27.0, 0.0, 0.0]])
        assert table.velocity(pos, 0.0).tobytes() == np.zeros((2, 3)).tobytes()
        got_rho = table.density(pos, 0.0)[0]
        assert got_rho.tobytes() == fancy_index_interp(grid, rho[np.newaxis], pos)[0].tobytes()


def masked_rk4_reference(table, seeds, record_times, intervals):
    """Reference transport: the masked, full-column RK4 loop the workspace
    loop replaced.  Every substep gathers pos[active] through a boolean mask,
    integrates all three columns and scatters the result back."""
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
    return paths, frozen


def reference_advect(seeds, source, mode, spin=None, substeps=4, duration=None, rk_steps=None):
    """`advect`'s table, built for the same ensemble size, and schedule run
    through the reference loop."""
    seeds = np.asarray(seeds, dtype=float)
    table, times = _build_table(source, mode, spin, PhysicalParams(), "spectral", seeds.shape[0])
    if duration is None:
        intervals = [(times[j], times[j + 1], substeps) for j in range(len(times) - 1)]
    else:
        times = np.linspace(0.0, duration, rk_steps + 1)
        intervals = [(times[j], times[j + 1], 1) for j in range(rk_steps)]
    return table, masked_rk4_reference(table, seeds, times, intervals)


def both_orders(monkeypatch):
    """Yields each time-blend order in turn, forced on every table that
    `_build_table` makes meanwhile (so on `advect`'s and the reference's)."""
    for order in ("grid", "particles"):
        monkeypatch.setattr(trajectories, "_time_blend", lambda grid, n, order=order: order)
        yield order


def assert_same_transport(got, want):
    paths, frozen = want
    assert got.paths.tobytes() == paths.tobytes()
    assert got.frozen.tobytes() == frozen.tobytes()


def seeds_with_negative_zeros(n, dims, seed, spread=3.0):
    """n seeds on the present axes; a -0.0 in every other row of each absent axis."""
    rng = np.random.default_rng(seed)
    seeds = np.zeros((n, 3))
    seeds[:, :dims] = rng.uniform(-spread, spread, (n, dims))
    seeds[::2, dims:] = -0.0
    return seeds


class TestWorkspaceTransport:
    """`advect` against the masked reference loop, bit for bit, with the
    tables of both sides blending in time on the grid, then at the
    particles."""

    def test_1d_drift_one_live_column(self, free_gaussian_series, monkeypatch):
        seeds = seeds_with_negative_zeros(300, 1, seed=1)
        assert _time_blend(free_gaussian_series.grid, 300) == "grid"
        for order in both_orders(monkeypatch):
            table, want = reference_advect(seeds, free_gaussian_series, "drift", substeps=2)
            assert table.live == [0] and table.blend == order
            got = advect(seeds, free_gaussian_series, mode="drift", substeps=2)
            assert got.time_blend == order
            assert_same_transport(got, want)
            # the first step turns the -0.0 seeds of the dead columns into +0.0
            assert np.all(np.signbit(got.paths[::2, 0, 1:]))
            assert not np.any(np.signbit(got.paths[:, 1:, 1:]))

    def test_1d_total_moves_y(self, monkeypatch):
        psi = gaussian(Grid((128,), (30.0,)), boost=0.5)
        spin = spin_vector(constant_spinor(0.4, 1.1))
        seeds = seeds_with_negative_zeros(200, 1, seed=2)
        for _ in both_orders(monkeypatch):
            table, want = reference_advect(seeds, psi, "total", spin=spin, duration=1.0, rk_steps=15)
            assert 1 in table.live
            assert_same_transport(advect(seeds, psi, mode="total", spin=spin, duration=1.0, rk_steps=15), want)

    def test_2d_total(self, monkeypatch):
        psi = gaussian(Grid((32, 32), (16.0, 16.0)), boost=[0.3, -0.2])
        spin = spin_vector(constant_spinor(0.7, 0.3))
        seeds = seeds_with_negative_zeros(150, 2, seed=3)
        for _ in both_orders(monkeypatch):
            table, want = reference_advect(seeds, psi, "total", spin=spin, duration=1.5, rk_steps=12)
            assert table.live == [0, 1, 2]
            assert_same_transport(advect(seeds, psi, mode="total", spin=spin, duration=1.5, rk_steps=12), want)

    def test_2d_dead_axis_inside_the_grid(self, monkeypatch):
        # a plane wave along x: y is a grid axis whose velocity is dead, and
        # the -0.0 seeds there are read by the interpolation
        psi = plane_wave(Grid((16, 12), (8.0, 6.0)), [2.0 * np.pi / 8.0, 0.0])
        seeds = seeds_with_negative_zeros(40, 1, seed=4)
        for _ in both_orders(monkeypatch):
            table, want = reference_advect(seeds, psi, "drift", duration=1.0, rk_steps=7)
            assert table.live == [0]
            assert_same_transport(advect(seeds, psi, mode="drift", duration=1.0, rk_steps=7), want)

    def test_3d_static(self, monkeypatch):
        psi = gaussian(Grid((16, 16, 16), (14.0, 14.0, 14.0)), boost=[0.2, 0.0, -0.3])
        spin = spin_vector(constant_spinor(1.9, 2.5))
        seeds = seeds_with_negative_zeros(120, 3, seed=5, spread=2.0)
        for _ in both_orders(monkeypatch):
            table, want = reference_advect(seeds, psi, "total", spin=spin, duration=1.0, rk_steps=9)
            assert table.live == [0, 1, 2]
            assert_same_transport(advect(seeds, psi, mode="total", spin=spin, duration=1.0, rk_steps=9), want)

    def test_all_dead_table(self):
        # no live column: nothing is integrated, the seed in the node is
        # frozen at the start and one more freezes when the node widens
        grid = Grid((16, 8), (8.0, 4.0))
        x = grid.coords()[0]
        times = np.array([0.0, 1.0])
        densities = [np.where(np.abs(x) < 0.5 + t, 0.0, 1.0) for t in times]
        seeds = np.array([[0.0, -0.0, 0.0], [0.75, -0.0, -0.0], [-3.0, 0.0, -0.0]])
        for order in ("grid", "particles"):
            table = _VelocityTable(grid, times, [np.zeros((3,) + grid.shape)] * 2, densities, blend=order)
            assert table.live == []
            paths, frozen, step = _transport(table, seeds, times, [(0.0, 1.0, 4)])
            want = masked_rk4_reference(table, seeds, times, [(0.0, 1.0, 4)])
            assert_same_transport(TrajectorySet(seeds, times, paths, "drift", frozen), want)
            assert frozen.tolist() == [True, True, False]
            assert step == 0.0

    def test_frozen_at_start(self, monkeypatch):
        grid = Grid((64,), (20.0,))
        x = grid.axes[0]
        values = x * np.exp(-x * x / 4.0 + 0.8j * x)
        psi = ComplexField(grid, values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume))
        seeds = np.array([[0.0, -0.0, 0.0], [1.5, -0.0, 0.0], [-2.0, 0.0, -0.0], [0.0, 0.0, -0.0]])
        for _ in both_orders(monkeypatch):
            _, want = reference_advect(seeds, psi, "drift", duration=0.5, rk_steps=6)
            got = advect(seeds, psi, mode="drift", duration=0.5, rk_steps=6)
            assert_same_transport(got, want)
            assert got.frozen.tolist() == [True, False, False, True]
            assert np.signbit(got.paths[0, -1, 1]) and not np.signbit(got.paths[1, -1, 1])

    def test_n_equals_one(self, free_gaussian_series, monkeypatch):
        seeds = np.array([[0.7, -0.0, 0.0]])
        for _ in both_orders(monkeypatch):
            _, want = reference_advect(seeds, free_gaussian_series, "drift", substeps=1)
            got = advect(seeds, free_gaussian_series, mode="drift", substeps=1)
            assert_same_transport(got, want)
            # the returned seeds are the input, not the moved positions
            assert got.seeds.tobytes() == seeds.tobytes()


def ramp_table(grid, times, rng, blend="particles"):
    """A table whose density vanishes beyond x = 1 and whose x velocity
    pushes every particle there, so particles freeze at different substeps;
    y moves too and z is dead."""
    x = grid.coords()[0]
    velocities, densities = [], []
    for t in times:
        v = np.zeros((3,) + grid.shape)
        v[0] = 1.0 + 0.5 * rng.random(grid.shape)
        v[1] = np.sin(x + t)
        velocities.append(v)
        densities.append(np.where(x < 1.0 + 0.5 * t, 1.0 + 0.2 * rng.random(grid.shape), 0.0))
    return _VelocityTable(grid, times, velocities, densities, blend=blend)


class TestWorkspaceFreezing:
    """`_transport` against the masked reference loop, bit for bit, in both
    time-blend orders."""

    @pytest.mark.parametrize("points,extents", [((40,), (20.0,)), ((20, 8), (20.0, 4.0))], ids=["1d", "2d"])
    def test_particles_freeze_mid_run(self, points, extents):
        grid = Grid(points, extents)
        times = np.array([0.0, 1.0, 2.0])
        seeds = seeds_with_negative_zeros(60, grid.dims, seed=7, spread=4.5)
        seeds[:, 0] -= 3.0
        intervals = [(0.0, 1.0, 5), (1.0, 2.0, 5)]
        for order in ("grid", "particles"):
            table = ramp_table(grid, times, np.random.default_rng(6), order)
            paths, frozen, _ = _transport(table, seeds, times, intervals)
            want = masked_rk4_reference(table, seeds, times, intervals)
            assert_same_transport(TrajectorySet(seeds, times, paths, "drift", frozen), want)
            # some froze at the start, more later, and some still move at the end
            start = masked_rk4_reference(table, seeds, times[:1], [])[1]
            assert 0 < start.sum() < frozen.sum() < len(seeds)

    def test_every_particle_freezes(self):
        grid = Grid((40,), (20.0,))
        times = np.array([0.0, 1.0, 2.0, 8.0])
        seeds = seeds_with_negative_zeros(25, 1, seed=9, spread=2.0)
        intervals = [(times[j], times[j + 1], 4) for j in range(3)]
        for order in ("grid", "particles"):
            table = ramp_table(grid, times, np.random.default_rng(8), order)
            paths, frozen, _ = _transport(table, seeds, times, intervals)
            assert frozen.all()
            # a table's window only moves forward, so the reference reads its own
            reference = ramp_table(grid, times, np.random.default_rng(8), order)
            assert_same_transport(
                TrajectorySet(seeds, times, paths, "drift", frozen),
                masked_rk4_reference(reference, seeds, times, intervals),
            )

    def test_every_particle_frozen_at_start(self):
        grid = Grid((40,), (20.0,))
        times = np.array([0.0, 1.0])
        seeds = seeds_with_negative_zeros(9, 1, seed=11, spread=0.5)
        seeds[:, 0] += 6.0
        for order in ("grid", "particles"):
            table = ramp_table(grid, times, np.random.default_rng(10), order)
            paths, frozen, step = _transport(table, seeds, times, [(0.0, 1.0, 3)])
            assert frozen.all() and step == 0.0
            assert paths.tobytes() == np.repeat(seeds[:, None, :], 2, axis=1).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.integers(1, 3),
        nt=st.integers(1, 3),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        backward=st.booleans(),
        order=st.sampled_from(["grid", "particles"]),
    )
    def test_random_tables_match_reference(self, dims, nt, n, seed, backward, order):
        rng = np.random.default_rng(seed)
        grid = Grid(tuple(int(p) for p in rng.choice([4, 6], dims)), tuple(rng.uniform(2.0, 5.0, dims)))
        times = np.cumsum(rng.uniform(0.2, 1.0, nt)) - 0.5
        velocities, densities = [], []
        dead = rng.random(3) < 0.4
        for _ in times:
            v = rng.standard_normal((3,) + grid.shape)
            v[dead] = 0.0
            v[rng.random(v.shape) < 0.2] = -0.0
            velocities.append(v)
            rho = rng.uniform(0.0, 1.0, grid.shape)
            rho[rng.random(grid.shape) < 0.3] = 0.0
            densities.append(rho)
        table = _VelocityTable(grid, times, velocities, densities, blend=order)
        seeds = rng.uniform(-6.0, 6.0, (n, 3))
        seeds[rng.random((n, 3)) < 0.3] = -0.0
        seeds[rng.random((n, 3)) < 0.2] = 0.0
        edges = np.sort(rng.uniform(times[0] - 0.3, times[-1] + 0.3, 3))
        if backward:
            edges = edges[::-1]
        intervals = [(edges[j], edges[j + 1], int(rng.integers(1, 4))) for j in range(2)]
        paths, frozen, _ = _transport(table, seeds.copy(), edges, intervals)
        want = masked_rk4_reference(table, seeds, edges, intervals)
        assert_same_transport(TrajectorySet(seeds, edges, paths, "drift", frozen), want)
        assert paths[:, 0].tobytes() == seeds.tobytes()


class TestTimeBlend:
    def test_rule_compares_the_grid_with_the_corner_values_an_evaluation_gathers(self):
        assert _time_blend(Grid((256,), (40.0,)), 10**4) == "grid"
        # the 48^3, 2000-particle trajectories command of the streaming tests
        assert _time_blend(Grid((48, 48, 48), (16.0, 16.0, 16.0)), 2000) == "particles"
        assert _time_blend(Grid((8, 8), (4.0, 4.0)), 16) == "grid"
        assert _time_blend(Grid((8, 8), (4.0, 4.0)), 15) == "particles"

    @pytest.mark.parametrize("points,extents", GATHER_GRIDS, ids=["1d", "2d", "3d"])
    def test_grid_blend_matches_particle_blend(self, points, extents):
        # the two orders round the same multilinear sum differently; the
        # tolerance, 64 ulps of each table's largest value, is fixed here
        # before any evaluation, and theta == 0 reads the snapshot in both
        grid = Grid(points, extents)
        rng = np.random.default_rng(12)
        times = np.array([0.0, 0.5, 1.25])
        velocities = [rng.standard_normal((3,) + grid.shape) for _ in times]
        densities = [rng.uniform(0.5, 1.0, grid.shape) for _ in times]
        tol_v = 64 * np.spacing(max(np.max(np.abs(v)) for v in velocities))
        tol_d = 64 * np.spacing(1.0)
        table = _VelocityTable(grid, times, velocities, densities, blend="grid")
        assert table.live == [0, 1, 2]
        pos = unwrapped_positions(grid, 300, seed=13)
        for t in (0.0, 0.2, 0.5, 0.9, 1.1, 1.25):
            j = int(np.clip(np.searchsorted(times, t) - 1, 0, len(times) - 2))
            theta = float(np.clip((t - times[j]) / (times[j + 1] - times[j]), 0.0, 1.0))
            v0 = fancy_index_interp(grid, velocities[j], pos)
            d0 = fancy_index_interp(grid, densities[j][np.newaxis], pos)[0]
            v1 = fancy_index_interp(grid, velocities[j + 1], pos)
            d1 = fancy_index_interp(grid, densities[j + 1][np.newaxis], pos)[0]
            got_v, got_d = table.velocity(pos, t), table.density(pos, t)[0]
            if theta == 0.0:
                assert got_v.tobytes() == np.ascontiguousarray(v0.T).tobytes()
                assert got_d.tobytes() == d0.tobytes()
            else:
                assert np.max(np.abs(got_v - ((1.0 - theta) * v0 + theta * v1).T)) <= tol_v
                assert np.max(np.abs(got_d - ((1.0 - theta) * d0 + theta * d1))) <= tol_d

    def test_node_check_takes_the_next_k1(self, monkeypatch):
        # a substep interpolates 4 times when it starts at the time of the
        # node check before it (k2, k3, k4 and the check, which also gives
        # the next k1), and 5 when rounding moves its start (k1 on its own)
        calls = []
        interp = trajectories._interp_into
        monkeypatch.setattr(trajectories, "_interp_into", lambda *args: calls.append(1) or interp(*args))
        grid = Grid((40,), (20.0,))
        seeds = seeds_with_negative_zeros(30, 1, seed=14, spread=0.5)
        seeds[:, 0] -= 8.0
        unchained = []
        for times, nsub in ((np.array([0.0, 1.0, 2.0]), 4), (np.array([0.0, 0.5, 1.3, 2.2]), 5)):
            intervals = [(times[j], times[j + 1], nsub) for j in range(len(times) - 1)]
            starts, checks = [], [times[0]]
            for t0, t1, _ in intervals:
                h = (t1 - t0) / nsub
                starts += [t0 + i * h for i in range(nsub)]
                checks += [t0 + i * h + h for i in range(nsub)]
            unchained.append(sum(start != check for start, check in zip(starts, checks)))
            for order in ("grid", "particles"):
                table = ramp_table(grid, times, np.random.default_rng(15), order)
                calls.clear()
                _, frozen, _ = _transport(table, seeds, times, intervals)
                assert not frozen.any()
                # the first node check, then 4 or 5 per substep
                assert len(calls) == 1 + 4 * len(starts) + unchained[-1]
        assert unchained[0] == 0 and unchained[1] > 0

    def test_max_step_per_spacing(self):
        # a plane wave along y moves every particle by v h along y each step
        grid = Grid((16, 12), (8.0, 6.0))
        k = 2.0 * 2.0 * np.pi / 6.0
        psi = plane_wave(grid, [0.0, k])
        seeds = np.random.default_rng(16).uniform(-3.0, 3.0, (20, 2))
        traj = advect(seeds, psi, mode="drift", duration=1.0, rk_steps=7)
        v = PhysicalParams().hbar * k / PhysicalParams().mass
        assert traj.max_step_per_spacing == pytest.approx(v * (1.0 / 7.0) / grid.spacing[1], rel=1e-12)


class TestTransportMemory:
    @pytest.mark.parametrize("substeps", [2, 16])
    def test_substeps_allocate_no_per_particle_array(self, free_gaussian_series, params, substeps):
        # the traced peak is the output, the workspace and a few (n,) arrays
        # (positions, flags) whatever the substep count: a (3, n) temporary
        # per substep would add 3 * 8n
        n = 10**4
        table, _ = _build_table(free_gaussian_series, "drift", None, params, "spectral", n)
        seeds = sample_initial(decompose(free_gaussian_series.states[0], params).rho, n, seed=17)
        times = free_gaussian_series.times[:3]
        intervals = [(times[j], times[j + 1], substeps) for j in range(2)]
        ws = table.workspace(n)
        ws_bytes = sum(a.nbytes for a in vars(ws).values() if isinstance(a, np.ndarray))
        tracemalloc.start()
        try:
            paths, _, _ = _transport(table, seeds, times, intervals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= paths.nbytes + ws_bytes + 5 * 8 * n

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the Linux peak resident set size")
    def test_unmoved_coordinates_stay_out_of_resident_memory(self):
        # a 1D drift run moves x only, and y and z keep their +0.0 seeds:
        # paths are one zero-filled (n, nt) plane per coordinate, and a plane
        # that is never written is never faulted in.  The peak resident set
        # rose by 1.12-1.20 planes here over three runs, and by 3.08 when all
        # three columns were written at every record; tracemalloc counts the
        # whole np.zeros either way.  The child reads VmHWM, its own memory's
        # high-water mark: its ru_maxrss starts at this process's peak, which
        # Linux carries across the exec
        n, nt = 10**4, 201
        script = f"""
import numpy as np
from mzbw import Grid, advect, gaussian

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

psi = gaussian(Grid((256,), (40.0,)))
seeds = np.random.default_rng(1).normal(0.0, 1.0, ({n}, 1))
advect(seeds[:8], psi, duration=0.1, rk_steps=2)
before = peak()
traj = advect(seeds, psi, duration=2.0, rk_steps={nt - 1})
after = peak()
assert traj.paths.shape == ({n}, {nt}, 3) and np.all(traj.paths[:, :, 1:] == 0.0)
print(1024 * (after - before))
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mzbw.__file__)))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        rise = int(run.stdout.split()[-1])
        assert rise < 2 * 8 * n * nt
