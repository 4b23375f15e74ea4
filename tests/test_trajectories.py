"""Trajectory transport checks.

The free sigma=1 packet carries the exact drift map x(t) = x0 sqrt(1+t^2/4),
so the seed at x0=1 must land on sqrt(2) at t=2.  The 2D spin-up packet's
circulation velocity is the rigid rotation (hbar/2 m sigma^2)(-y, x), giving
closed circular orbits of period 4 pi.  Transported ensembles must stay
distributed like |psi|^2 (equivariance), and 1D flow lines never cross.
"""

import itertools
import math

import numpy as np
import pytest

from mzbw import (
    ComplexField,
    Grid,
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
from mzbw.trajectories import KS_COEFF_1PCT, _interp_components, _VelocityTable


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
