"""Grid and differential-operator checks against closed forms.

Spectral derivatives of band-limited functions are exact to roundoff;
second-order finite differences must converge at h^2.  Vector calculus
identities (div grad = lap, curl grad = 0, div curl = 0) hold up to the
commutation roundoff of repeated transforms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzbw import (
    ComplexField,
    Grid,
    RealField,
    VectorField,
    cross,
    curl,
    divergence,
    dot,
    gradient,
    integrate,
    laplacian,
    magnitude,
    overlap,
    plane_wave,
)
from mzbw.fields import _axis_derivative, _laplacian_values


class TestGrid:
    @pytest.mark.parametrize("points", [(6,), (4, 6), (4, 6, 8)])
    def test_coords_are_read_only_axis_views(self, points):
        grid = Grid(points, 5.0)
        coords = grid.coords()
        assert len(coords) == grid.dims
        for axis, x in enumerate(coords):
            assert x.shape == grid.shape
            assert not x.flags.writeable
            # stride 0 on every other axis: no dense mesh is built or cached
            assert all(stride == 0 for a, stride in enumerate(x.strides) if a != axis)
            assert x.strides[axis] == x.itemsize
            index = [0] * grid.dims
            index[axis] = slice(None)
            assert x[tuple(index)].tobytes() == grid.axes[axis].tobytes()
        assert not any(isinstance(v, np.ndarray) and v.shape == grid.shape for v in vars(grid).values())

    def test_axes_are_origin_centered(self):
        grid = Grid((8,), (4.0,))
        assert grid.spacing == (0.5,)
        np.testing.assert_allclose(grid.axes[0], -2.0 + 0.5 * np.arange(8))
        assert 0.0 in grid.axes[0]

    def test_cell_volume(self):
        grid = Grid((8, 16), (4.0, 8.0))
        assert grid.cell_volume == pytest.approx(0.25)
        assert grid.size == 128

    def test_scalar_extent_broadcasts(self):
        grid = Grid((8, 8), 4.0)
        assert grid.extents == (4.0, 4.0)

    def test_odd_points_rejected(self):
        with pytest.raises(ValueError, match="even"):
            Grid((9,), (4.0,))

    def test_too_many_axes_rejected(self):
        with pytest.raises(ValueError, match="1 to 3"):
            Grid((8, 8, 8, 8), (4.0, 4.0, 4.0, 4.0))

    def test_bad_extent_rejected(self):
        with pytest.raises(ValueError):
            Grid((8,), (-1.0,))
        with pytest.raises(ValueError):
            Grid((8,), (np.inf,))

    def test_equality_is_by_value(self):
        assert Grid((8,), (4.0,)) == Grid((8,), (4.0,))
        assert Grid((8,), (4.0,)) != Grid((8,), (5.0,))


class TestFieldValidation:
    def test_wrong_shape_rejected(self):
        grid = Grid((8,), (4.0,))
        with pytest.raises(ValueError):
            RealField(grid, np.zeros(9))

    def test_non_finite_rejected(self):
        grid = Grid((8,), (4.0,))
        values = np.zeros(8)
        values[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RealField(grid, values)

    def test_vector_needs_three_components(self):
        grid = Grid((8,), (4.0,))
        with pytest.raises(ValueError):
            VectorField(grid, np.zeros((2, 8)))

    def test_spinor_needs_two_components(self):
        grid = Grid((8,), (4.0,))
        with pytest.raises(ValueError):
            ComplexField(grid, np.zeros((2, 8), dtype=complex))


class TestSpectralDerivatives:
    def test_single_mode_is_exact(self):
        grid = Grid((64,), (5.0,))
        k = 2.0 * np.pi * 3 / 5.0
        x = grid.axes[0]
        f = RealField(grid, np.sin(k * x))
        df = gradient(f).values[0]
        assert np.max(np.abs(df - k * np.cos(k * x))) < 1e-12

    def test_gaussian_derivative(self):
        # exp(-x^2/2) on a box wide enough that the periodic images are
        # below roundoff, so the spectral derivative matches -x exp(-x^2/2)
        grid = Grid((256,), (40.0,))
        x = grid.axes[0]
        f = RealField(grid, np.exp(-0.5 * x * x))
        df = gradient(f).values[0]
        assert np.max(np.abs(df + x * np.exp(-0.5 * x * x))) < 1e-10

    def test_plane_wave_derivative_is_ik(self):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 2 / 8.0
        psi = plane_wave(grid, k)
        dpsi = gradient(psi).values[0]
        assert np.max(np.abs(dpsi - 1j * k * psi.values)) < 1e-12

    def test_div_grad_equals_laplacian(self):
        # agreement is exact only below the Nyquist mode: the first-derivative
        # route zeroes that mode while the -k^2 laplacian keeps it, so the
        # test field is a resolved trig polynomial
        grid = Grid((32, 32), (6.0, 6.0))
        x, y = grid.coords()
        f = RealField(
            grid,
            np.cos(2 * np.pi * x / 6.0) * np.sin(4 * np.pi * y / 6.0)
            + 0.3 * np.sin(6 * np.pi * x / 6.0),
        )
        lhs = divergence(gradient(f)).values
        rhs = laplacian(f).values
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_curl_of_gradient_vanishes(self):
        grid = Grid((24, 24, 24), (5.0, 5.0, 5.0))
        x, y, z = grid.coords()
        f = RealField(
            grid,
            np.cos(2 * np.pi * x / 5.0) * np.sin(2 * np.pi * y / 5.0)
            + np.sin(4 * np.pi * z / 5.0),
        )
        g = gradient(f)
        scale = np.max(magnitude(g).values)
        assert np.max(np.abs(curl(g).values)) < 1e-12 * scale

    def test_div_of_curl_vanishes(self):
        grid = Grid((24, 24, 24), (5.0, 5.0, 5.0))
        x, y, z = grid.coords()
        comps = np.stack(
            [
                np.sin(2 * np.pi * y / 5.0),
                np.cos(2 * np.pi * z / 5.0) * np.sin(2 * np.pi * x / 5.0),
                np.cos(4 * np.pi * x / 5.0),
            ]
        )
        v = VectorField(grid, comps)
        scale = np.max(magnitude(v).values)
        assert np.max(np.abs(divergence(curl(v)).values)) < 1e-11 * scale

    def test_nyquist_mode_derivative_is_zero(self):
        # the unpaired Nyquist cosine has no well-defined odd derivative on
        # the lattice; the convention here zeroes it
        grid = Grid((16,), (4.0,))
        x = grid.axes[0]
        k_nyq = np.pi / grid.spacing[0]
        f = RealField(grid, np.cos(k_nyq * x))
        assert np.max(np.abs(gradient(f).values[0])) < 1e-12

    @given(
        points=st.lists(st.sampled_from([2, 4, 6, 8, 10, 16]), min_size=1, max_size=3),
        extent=st.floats(min_value=0.5, max_value=20.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        white=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_real_input_transforms_match_the_complex_path(self, points, extent, seed, white):
        # real fields take rfft/irfft; the complex path on the same values is
        # the reference, up to roundoff scaled by k_max^p max|f| for order p
        grid = Grid(points, extent)
        rng = np.random.default_rng(seed)
        if white:  # every mode up to and including Nyquist
            values = rng.standard_normal(grid.shape)
        else:  # a few resolved modes
            values = np.zeros(grid.shape)
            for _ in range(3):
                phase = rng.uniform(0.0, 2.0 * np.pi)
                for axis, x in enumerate(grid.coords()):
                    m = rng.integers(0, points[axis] // 2 + 1)
                    phase = phase + 2.0 * np.pi * m * x / extent
                values = values + rng.standard_normal() * np.cos(phase)
        scale = np.max(np.abs(values))

        def agrees(got, want, k_max_p):
            assert got.dtype == np.float64 and got.shape == grid.shape and got.base is None
            return np.max(np.abs(got - want.real)) <= 1e-14 * k_max_p * scale

        as_complex = values.astype(complex)
        for axis in range(grid.dims):
            k_max = np.max(np.abs(grid.wavenumbers()[axis]))
            want = _axis_derivative(as_complex, grid, axis, "spectral")
            assert agrees(_axis_derivative(values, grid, axis, "spectral"), want, k_max)
        want = _laplacian_values(as_complex, grid, "spectral")
        assert agrees(_laplacian_values(values, grid, "spectral"), want, np.max(grid.k_squared()))


class TestFiniteDifferences:
    def test_fd2_matches_single_mode(self):
        grid = Grid((128,), (5.0,))
        k = 2.0 * np.pi * 2 / 5.0
        x = grid.axes[0]
        f = RealField(grid, np.sin(k * x))
        df = gradient(f, backend="fd2").values[0]
        # central difference of sin(kx) is sin(kh)/h * cos(kx), a ~0.1%
        # wavenumber error at this resolution
        keff = np.sin(k * grid.spacing[0]) / grid.spacing[0]
        assert np.max(np.abs(df - keff * np.cos(k * x))) < 1e-12

    def test_fd2_gradient_second_order(self):
        errors = []
        for n in (64, 128, 256):
            grid = Grid((n,), (5.0,))
            k = 2.0 * np.pi * 3 / 5.0
            x = grid.axes[0]
            f = RealField(grid, np.sin(k * x))
            df = gradient(f, backend="fd2").values[0]
            errors.append(np.max(np.abs(df - k * np.cos(k * x))))
        assert errors[0] / errors[1] > 3.5
        assert errors[1] / errors[2] > 3.5

    def test_fd2_laplacian_second_order(self):
        errors = []
        for n in (64, 128, 256):
            grid = Grid((n,), (5.0,))
            k = 2.0 * np.pi * 3 / 5.0
            x = grid.axes[0]
            f = RealField(grid, np.cos(k * x))
            lap = laplacian(f, backend="fd2").values
            errors.append(np.max(np.abs(lap + k * k * np.cos(k * x))))
        assert errors[0] / errors[1] > 3.5
        assert errors[1] / errors[2] > 3.5

    @pytest.mark.parametrize("points", [(8,), (2,), (6, 4), (2, 10), (4, 6, 8), (6, 2, 4)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_fd2_stencils_match_the_roll_form_bytes(self, points, dtype):
        grid = Grid(points, (3.0, 5.0, 7.0)[: len(points)])
        rng = np.random.default_rng(sum(points))
        values = rng.standard_normal(points)
        if dtype is complex:
            values = values + 1j * rng.standard_normal(points)
        # signed zeros next to each other and next to nonzero values
        values[rng.random(points) < 0.3] = -0.0
        values[rng.random(points) < 0.2] = 0.0
        if dtype is complex:
            values[rng.random(points) < 0.2] = complex(-0.0, -0.0)

        def same(got, want):
            return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

        lap = np.zeros_like(values)
        for axis in range(grid.dims):
            h = grid.spacing[axis]
            up, down = np.roll(values, -1, axis=axis), np.roll(values, 1, axis=axis)
            assert same(_axis_derivative(values, grid, axis, "fd2"), (up - down) / (2.0 * h))
            lap = lap + (up - 2.0 * values + down) / (h * h)
        assert same(_laplacian_values(values, grid, "fd2"), lap)

    def test_unknown_backend_rejected(self):
        grid = Grid((8,), (4.0,))
        f = RealField(grid, np.ones(8))
        with pytest.raises(ValueError, match="backend"):
            gradient(f, backend="fd4")


class TestQuadrature:
    def test_gaussian_density_integrates_to_one(self):
        grid = Grid((256,), (40.0,))
        x = grid.axes[0]
        rho = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        assert integrate(RealField(grid, rho)) == pytest.approx(1.0, abs=1e-12)

    def test_plane_wave_is_normalized(self):
        grid = Grid((32, 32), (7.0, 9.0))
        psi = plane_wave(grid, (2.0 * np.pi / 7.0, 0.0))
        rho = RealField(grid, np.abs(psi.values) ** 2)
        assert integrate(rho) == pytest.approx(1.0, abs=1e-13)

    def test_distinct_modes_are_orthogonal(self):
        grid = Grid((64,), (8.0,))
        a = plane_wave(grid, 2.0 * np.pi / 8.0)
        b = plane_wave(grid, 4.0 * np.pi / 8.0)
        assert abs(overlap(a, b)) < 1e-13
        assert abs(overlap(a, a) - 1.0) < 1e-13


finite3 = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=3, max_size=3
)


class TestVectorAlgebra:
    @given(a=finite3, b=finite3)
    @settings(max_examples=60, deadline=None)
    def test_cross_square_identity(self, a, b):
        # (a x b).(a x b) = a^2 b^2 - (a.b)^2, the identity behind reducing
        # the squared circulation velocity
        grid = Grid((4,), (1.0,))
        va = VectorField(grid, np.tile(np.asarray(a)[:, None], (1, 4)))
        vb = VectorField(grid, np.tile(np.asarray(b)[:, None], (1, 4)))
        c = cross(va, vb)
        lhs = dot(c, c).values
        rhs = dot(va, va).values * dot(vb, vb).values - dot(va, vb).values ** 2
        # near-parallel vectors cancel a^2 b^2 down by many orders, so the
        # roundoff scale is the intermediate product, not the result
        scale = max(np.max(dot(va, va).values * dot(vb, vb).values), 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_magnitude(self):
        grid = Grid((4,), (1.0,))
        v = VectorField(grid, np.tile(np.array([3.0, 4.0, 12.0])[:, None], (1, 4)))
        np.testing.assert_allclose(magnitude(v).values, 13.0)

    def test_cross_is_antisymmetric(self):
        grid = Grid((6,), (2.0,))
        rng = np.random.default_rng(5)
        va = VectorField(grid, rng.standard_normal((3, 6)))
        vb = VectorField(grid, rng.standard_normal((3, 6)))
        np.testing.assert_allclose(cross(va, vb).values, -cross(vb, va).values, atol=1e-15)

    def test_grid_mismatch_rejected(self):
        a = VectorField(Grid((4,), (1.0,)), np.zeros((3, 4)))
        b = VectorField(Grid((6,), (1.0,)), np.zeros((3, 6)))
        with pytest.raises(ValueError):
            dot(a, b)
