"""State constructors: normalization, closed-form spin vectors, rejection of
non-periodic or degenerate inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzbw import (
    Grid,
    PhysicalParams,
    attach_spinor,
    constant_spinor,
    gaussian,
    harmonic_ground,
    harmonic_potential,
    integrate,
    plane_wave,
    random_smooth_state,
    random_spinor_field,
    spin_vector,
)
from mzbw.evolve import _norm_energy
from mzbw.fields import RealField
from mzbw.madelung import NODE_EPS


def _coordinate_outputs(grid: Grid) -> list[bytes]:
    """Bytes of every constructor that reads the grid's coordinates, and of
    the norm and energy of a state in a potential built from them."""
    params = PhysicalParams(hbar=0.9, mass=1.3)
    k = tuple(2.0 * np.pi * (a + 1) / L for a, L in enumerate(grid.extents))
    psi = gaussian(grid, sigma=(0.9, 1.1, 0.7)[: grid.dims], center=0.3, boost=(0.5, -0.4, 0.2)[: grid.dims])
    pot = harmonic_potential(grid, omega=1.7, center=(-0.2, 0.1, 0.4)[: grid.dims], params=params)
    return [
        plane_wave(grid, k).values.tobytes(),
        psi.values.tobytes(),
        harmonic_ground(grid, omega=0.8, params=params).values.tobytes(),
        random_smooth_state(grid, seed=5, params=params).values.tobytes(),
        pot.values.tobytes(),
        np.array(_norm_energy(psi, pot, params)).tobytes(),
    ]


@pytest.mark.parametrize("points", [(16,), (12, 10), (8, 6, 10)])
def test_coordinate_views_give_the_meshgrid_bytes(points, monkeypatch):
    grid = Grid(points, (6.0, 5.0, 7.0)[: len(points)])
    views = _coordinate_outputs(grid)
    monkeypatch.setattr(Grid, "coords", lambda self: tuple(np.meshgrid(*self.axes, indexing="ij")))
    assert _coordinate_outputs(grid) == views


# The separable builders as they were written on broadcast coordinates
# (`grid.coords()`), kept as bitwise references for the per-axis forms.


def ref_plane_wave(grid, k):
    phase = np.zeros(grid.shape)
    for ka, x in zip(k, grid.coords()):
        phase = phase + ka * x
    return np.exp(1j * phase) / np.sqrt(float(np.prod(grid.extents)))


def ref_gaussian(grid, sigma, center, boost, params=PhysicalParams()):
    amp = np.ones(grid.shape)
    phase = np.zeros(grid.shape)
    for s, c, p, x in zip(sigma, center, boost, grid.coords()):
        amp = amp * (2.0 * np.pi * s * s) ** (-0.25) * np.exp(-((x - c) ** 2) / (4.0 * s * s))
        phase = phase + p * x / params.hbar
    return amp * np.exp(1j * phase)


def ref_harmonic_ground(grid, omega, params=PhysicalParams()):
    a = params.mass * omega / params.hbar
    amp = np.ones(grid.shape)
    for x in grid.coords():
        amp = amp * (a / np.pi) ** 0.25 * np.exp(-a * x * x / 2.0)
    return amp.astype(complex)


def ref_harmonic_potential(grid, omega, center, params=PhysicalParams()):
    u = np.zeros(grid.shape)
    for c, x in zip(center, grid.coords()):
        u = u + 0.5 * params.mass * omega * omega * (x - c) ** 2
    return u


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


@st.composite
def separable_cases(draw):
    dims = draw(st.integers(1, 3))
    points = tuple(draw(st.sampled_from([2, 4, 6, 8, 12, 16])) for _ in range(dims))
    extents = tuple(draw(st.floats(1.0, 30.0)) for _ in range(dims))

    def per_axis(lo, hi):
        return tuple(draw(st.floats(lo, hi)) for _ in range(dims))

    modes = tuple(draw(st.integers(-4, 4)) for _ in range(dims))
    return {
        "grid": Grid(points, extents),
        "params": PhysicalParams(hbar=draw(st.floats(0.3, 3.0)), mass=draw(st.floats(0.3, 3.0))),
        "sigma": per_axis(0.05, 5.0),
        "center": per_axis(-5.0, 5.0),
        "boost": per_axis(-5.0, 5.0),
        "omega": draw(st.floats(0.05, 5.0)),
        "k": tuple(2.0 * np.pi * n / L for n, L in zip(modes, extents)),
    }


@given(case=separable_cases())
@settings(max_examples=80, deadline=None)
def test_per_axis_builders_match_the_broadcast_coordinate_bytes(case):
    """Each separable builder evaluates its axis factors on the 1D axes;
    its bits equal the broadcast-coordinate bodies above on random 1-3D
    grids."""
    grid, params = case["grid"], case["params"]
    sigma, center, boost, omega = case["sigma"], case["center"], case["boost"], case["omega"]
    pairs = [
        (plane_wave(grid, case["k"], params), ref_plane_wave(grid, case["k"])),
        (gaussian(grid, sigma, center, boost, params), ref_gaussian(grid, sigma, center, boost, params)),
        (harmonic_ground(grid, omega, params), ref_harmonic_ground(grid, omega, params)),
        (harmonic_potential(grid, omega, center, params), ref_harmonic_potential(grid, omega, center, params)),
    ]
    for field, want in pairs:
        assert field.values.shape == grid.shape
        assert np.array_equal(bits(field.values), bits(want))


def test_sparse_coordinates_are_read_only_views_of_the_axes():
    grid = Grid((4, 6, 8), (2.0, 3.0, 4.0))
    for axis, x in enumerate(grid.sparse_coords()):
        assert x.shape == tuple(n if a == axis else 1 for a, n in enumerate(grid.shape))
        assert not x.flags.writeable and np.shares_memory(x, grid.axes[axis])
        assert np.array_equal(np.broadcast_to(x, grid.shape), grid.coords()[axis])


class TestScalarStates:
    def test_plane_wave_rejects_non_lattice_k(self):
        grid = Grid((32,), (8.0,))
        with pytest.raises(ValueError, match="lattice mode"):
            plane_wave(grid, 1.0)

    def test_plane_wave_norm(self):
        grid = Grid((32,), (8.0,))
        psi = plane_wave(grid, 2.0 * np.pi * 3 / 8.0)
        rho = RealField(grid, np.abs(psi.values) ** 2)
        assert integrate(rho) == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_norm_and_moments(self):
        grid = Grid((256,), (40.0,))
        psi = gaussian(grid, sigma=1.5, center=2.0)
        rho, x = np.abs(psi.values) ** 2, grid.axes[0]
        norm = integrate(RealField(grid, rho))
        mean = integrate(RealField(grid, x * rho)) / norm
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(2.0, abs=1e-10)
        # sigma parametrizes the density standard deviation
        assert np.sqrt(integrate(RealField(grid, (x - mean) ** 2 * rho)) / norm) == pytest.approx(1.5, abs=1e-10)

    def test_gaussian_rejects_bad_sigma(self):
        grid = Grid((32,), (8.0,))
        with pytest.raises(ValueError, match="sigma"):
            gaussian(grid, sigma=0.0)

    def test_harmonic_ground_energy(self):
        grid = Grid((256,), (40.0,))
        psi = harmonic_ground(grid, omega=1.0)
        pot = harmonic_potential(grid, omega=1.0)
        norm, energy = _norm_energy(psi, pot, PhysicalParams())
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert energy == pytest.approx(0.5, abs=1e-10)

    def test_harmonic_ground_energy_scales_with_dims(self):
        grid = Grid((48, 48), (16.0, 16.0))
        psi = harmonic_ground(grid, omega=2.0)
        pot = harmonic_potential(grid, omega=2.0)
        # dims * hbar * omega / 2
        assert _norm_energy(psi, pot, PhysicalParams())[1] == pytest.approx(2.0, abs=1e-8)

    def test_harmonic_potential_closed_form(self):
        grid = Grid((64,), (16.0,))
        pot = harmonic_potential(grid, omega=2.0, center=1.0)
        x = grid.axes[0]
        np.testing.assert_allclose(pot.values, 0.5 * 4.0 * (x - 1.0) ** 2, atol=1e-13)

    def test_random_smooth_state_has_no_nodes(self):
        grid = Grid((64, 64), (20.0, 20.0))
        psi = random_smooth_state(grid, seed=7)
        rho = np.abs(psi.values) ** 2
        assert integrate(RealField(grid, rho)) == pytest.approx(1.0, abs=1e-12)
        assert np.min(rho) > NODE_EPS * np.max(rho)

    def test_random_smooth_state_is_deterministic(self):
        grid = Grid((32,), (10.0,))
        a = random_smooth_state(grid, seed=3)
        b = random_smooth_state(grid, seed=3)
        assert np.array_equal(a.values, b.values)


class TestSpinors:
    def test_poles(self):
        up = constant_spinor(0.0)
        assert np.allclose(up, [1.0, 0.0], atol=1e-15)
        down = constant_spinor(np.pi, 0.0)
        assert abs(down[0]) < 1e-15
        assert abs(down[1]) == pytest.approx(1.0, abs=1e-15)

    def test_bloch_vector_closed_form(self):
        # s = (hbar/2)(sin t cos p, sin t sin p, cos t)
        chi = constant_spinor(np.pi / 3, 0.0)
        s = spin_vector(chi)
        np.testing.assert_allclose(
            s, [0.5 * np.sqrt(3.0) / 2.0, 0.0, 0.25], atol=1e-15
        )

    @given(
        theta=st.floats(min_value=0.0, max_value=np.pi),
        phi=st.floats(min_value=0.0, max_value=2.0 * np.pi, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_spin_vector_magnitude_is_half_hbar(self, theta, phi):
        s = spin_vector(constant_spinor(theta, phi))
        assert np.linalg.norm(s) == pytest.approx(0.5, abs=1e-12)
        assert s[2] == pytest.approx(0.5 * np.cos(theta), abs=1e-12)

    def test_spin_vector_normalizes_input(self):
        s = spin_vector(np.array([3.0, 4.0j]))
        # |up|^2-|down|^2 = (9-16)/25
        assert s[2] == pytest.approx(0.5 * (-7.0 / 25.0), abs=1e-15)

    def test_attach_spinor_preserves_density(self):
        grid = Grid((64,), (20.0,))
        psi = gaussian(grid)
        spinor = attach_spinor(psi, np.array([3.0, 4.0j]))
        rho = np.sum(np.abs(spinor.values) ** 2, axis=0)
        np.testing.assert_allclose(rho, np.abs(psi.values) ** 2, atol=1e-15)

    def test_attach_spinor_rejects_zero(self):
        grid = Grid((16,), (4.0,))
        psi = gaussian(grid)
        with pytest.raises(ValueError, match="zero"):
            attach_spinor(psi, np.zeros(2))

    def test_random_spinor_field_norm(self):
        grid = Grid((48,), (12.0,))
        psi = random_spinor_field(grid, seed=11)
        rho = np.sum(np.abs(psi.values) ** 2, axis=0)
        assert integrate(RealField(grid, rho)) == pytest.approx(1.0, abs=1e-12)
