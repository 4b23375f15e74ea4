"""Grids, fields, and discrete differential operators on periodic lattices.

Everything downstream works on these types.  A Grid is a uniform rectangular
lattice in 1 to 3 dimensions with periodic boundaries on every axis; fields
store one value (or one 3-vector, or one 2-spinor) per grid point.  Two
differentiation backends are provided:

* ``spectral``: FFT wavenumber multiplication.  Exact for band-limited data,
  used as the verification reference.  Real fields go through the real-input
  transforms (``rfft``/``irfft``, ``rfftn``/``irfftn``) and come back real;
  complex fields use the full complex transforms.  Odd derivatives drop the
  Nyquist mode on both paths.
* ``fd2``: second-order central differences with periodic wrap-around.

All operations are pure functions of immutable inputs; reductions use a fixed
summation order, so results are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BACKENDS = ("spectral", "fd2")


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def _axis_tuple(value, dims: int, name: str) -> tuple:
    if np.isscalar(value):
        return (value,) * dims
    out = tuple(value)
    if len(out) != dims:
        raise ValueError(f"{name} must have one entry per axis (got {len(out)}, need {dims})")
    return out


class Grid:
    """Uniform periodic lattice.

    Axis a carries points[a] samples spaced extents[a]/points[a] apart and
    centered on the origin: x_i = -L/2 + i*h, so x = 0 is always a grid point.
    Point counts must be even; the spectral backend needs a paired Nyquist
    mode and this release is periodic-only.
    """

    def __init__(self, points, extents):
        if np.isscalar(points):
            points = (points,)
        pts = tuple(int(p) for p in points)
        dims = len(pts)
        if not 1 <= dims <= 3:
            raise ValueError(f"grid must have 1 to 3 axes, got {dims}")
        exts = tuple(float(L) for L in _axis_tuple(extents, dims, "extents"))
        for p in pts:
            if p <= 0 or p % 2:
                raise ValueError(f"points per axis must be positive and even, got {pts}")
        for L in exts:
            if not math.isfinite(L) or L <= 0:
                raise ValueError(f"extents must be positive and finite, got {exts}")
        self.points = pts
        self.extents = exts
        self.dims = dims
        self.shape = pts
        self.spacing = tuple(L / n for L, n in zip(exts, pts))
        self.size = int(np.prod(pts))
        self.cell_volume = float(np.prod(self.spacing))
        self.axes = tuple(
            -L / 2.0 + h * np.arange(n) for L, h, n in zip(exts, self.spacing, pts)
        )
        self._wavenumbers = None
        self._k_squared = None

    def coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays, one per axis, each of shape grid.shape.

        Each is a read-only broadcast view of its axis (stride 0 along the
        other axes), so a grid holds no dense meshes; arithmetic on them gives
        the same values as on `np.meshgrid(*axes, indexing="ij")`."""
        return tuple(
            np.broadcast_to(self._axis_shape(x, axis), self.shape) for axis, x in enumerate(self.axes)
        )

    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        if self._wavenumbers is None:
            self._wavenumbers = tuple(
                2.0 * np.pi * np.fft.fftfreq(n, d=h)
                for n, h in zip(self.points, self.spacing)
            )
        return self._wavenumbers

    def k_squared(self) -> np.ndarray:
        """|k|^2 on the full lattice, broadcast to grid.shape."""
        if self._k_squared is None:
            total = np.zeros(self.shape)
            for axis, k in enumerate(self.wavenumbers()):
                total = total + self._axis_shape(k, axis) ** 2
            self._k_squared = total
        return self._k_squared

    def _axis_shape(self, arr: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * self.dims
        shape[axis] = arr.size
        return arr.reshape(shape)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.points == other.points
            and self.extents == other.extents
        )

    def __hash__(self) -> int:
        return hash((self.points, self.extents))

    def __repr__(self) -> str:
        return f"Grid(points={self.points}, extents={self.extents})"


@dataclass(frozen=True)
class PhysicalParams:
    """hbar and mass must be positive; charge is a dimensionless coupling (may be 0)."""

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not math.isfinite(self.charge):
            raise ValueError(f"charge must be finite, got {self.charge}")


def _validated(values, grid: Grid, lead_shape: tuple, dtype, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    want = lead_shape + grid.shape
    if arr.shape != want:
        raise ValueError(f"{name} values must have shape {want}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class RealField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _validated(self.values, self.grid, (), float, "RealField")
        )


@dataclass(frozen=True)
class ComplexField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _validated(self.values, self.grid, (), complex, "ComplexField")
        )


@dataclass(frozen=True)
class VectorField:
    """Always three components, whatever the grid dimensionality; components
    along absent axes are zero.  Physical vectors (momentum, velocities, spin)
    are real; gradients of complex fields keep a complex dtype."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.values) else float
        object.__setattr__(
            self, "values", _validated(self.values, self.grid, (3,), dtype, "VectorField")
        )


def _uniform(grid: Grid, s) -> VectorField:
    """The constant 3-vector s at every grid point, as a read-only broadcast view."""
    s = np.asarray(s, dtype=float)
    return VectorField(grid, np.broadcast_to(s.reshape((3,) + (1,) * grid.dims), (3,) + grid.shape))


@dataclass(frozen=True)
class SpinorField:
    """Two complex components per point, (up, down)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _validated(self.values, self.grid, (2,), complex, "SpinorField")
        )


# ---------------------------------------------------------------------------
# raw-array derivative cores


def _along(axis: int, start: int | None = None, stop: int | None = None) -> tuple:
    """Index of the slice start:stop along `axis`, everything along the axes before it."""
    return (slice(None),) * axis + (slice(start, stop),)


def _axis_derivative(values: np.ndarray, grid: Grid, axis: int, backend: str) -> np.ndarray:
    if backend == "spectral":
        k = grid.wavenumbers()[axis].copy()
        k[k.size // 2] = 0.0  # unpaired Nyquist mode carries no sign; drop it in odd derivatives
        if np.iscomplexobj(values):
            fhat = np.fft.fft(values, axis=axis)
            return np.fft.ifft(1j * grid._axis_shape(k, axis) * fhat, axis=axis)
        # real input: the half spectrum, whose last bin is the zeroed Nyquist mode
        n = values.shape[axis]
        fhat = np.fft.rfft(values, axis=axis)
        fhat *= 1j * grid._axis_shape(k[: n // 2 + 1], axis)
        return np.fft.irfft(fhat, n=n, axis=axis)
    # (a[i+1] - a[i-1]) / 2h with periodic wrap: the interior from shifted
    # slices, the two wrap rows from one-row slices.  These are the
    # subtractions of the rolled-copy form, so the bits are the same.
    out = np.empty_like(values)
    np.subtract(values[_along(axis, 2)], values[_along(axis, None, -2)], out=out[_along(axis, 1, -1)])
    np.subtract(values[_along(axis, 1, 2)], values[_along(axis, -1)], out=out[_along(axis, None, 1)])
    np.subtract(values[_along(axis, None, 1)], values[_along(axis, -2, -1)], out=out[_along(axis, -1)])
    out /= 2.0 * grid.spacing[axis]
    return out


def _laplacian_values(values: np.ndarray, grid: Grid, backend: str) -> np.ndarray:
    if backend == "spectral":
        if np.iscomplexobj(values):
            return np.fft.ifftn(-grid.k_squared() * np.fft.fftn(values))
        fhat = np.fft.rfftn(values)
        fhat *= -grid.k_squared()[..., : values.shape[-1] // 2 + 1]
        return np.fft.irfftn(fhat, s=values.shape, axes=tuple(range(values.ndim)))
    # per axis ((a[i+1] - 2 a[i]) + a[i-1]) / h^2, added onto zero: the
    # rolled-copy form's operations in its order, from slices into one
    # scratch array
    out = np.zeros_like(values)
    twice = 2.0 * values
    term = np.empty_like(values)
    for axis in range(grid.dims):
        h = grid.spacing[axis]
        head, tail = _along(axis, None, -1), _along(axis, 1)
        first, last = _along(axis, None, 1), _along(axis, -1)
        np.subtract(values[tail], twice[head], out=term[head])
        np.subtract(values[first], twice[last], out=term[last])
        np.add(term[tail], values[head], out=term[tail])
        np.add(term[first], values[last], out=term[first])
        term /= h * h
        out += term
    return out


# ---------------------------------------------------------------------------
# public operators


def gradient(f: RealField | ComplexField, backend: str = "spectral") -> VectorField:
    """Per-axis partial derivatives in the first grid.dims components; the rest are zero."""
    _check_backend(backend)
    grid = f.grid
    dtype = complex if np.iscomplexobj(f.values) else float
    out = np.zeros((3,) + grid.shape, dtype=dtype)
    for axis in range(grid.dims):
        out[axis] = _axis_derivative(f.values, grid, axis, backend)
    return VectorField(grid, out)


def laplacian(f: RealField | ComplexField, backend: str = "spectral"):
    _check_backend(backend)
    vals = _laplacian_values(f.values, f.grid, backend)
    return type(f)(f.grid, vals)


def divergence(v: VectorField, backend: str = "spectral"):
    _check_backend(backend)
    grid = v.grid
    dtype = complex if np.iscomplexobj(v.values) else float
    out = np.zeros(grid.shape, dtype=dtype)
    for axis in range(grid.dims):
        out = out + _axis_derivative(v.values[axis], grid, axis, backend)
    return ComplexField(grid, out) if dtype is complex else RealField(grid, out)


def curl(v: VectorField, backend: str = "spectral") -> VectorField:
    """3-component curl; derivatives along axes the grid does not have are zero."""
    _check_backend(backend)
    grid = v.grid

    def d(component: int, axis: int) -> np.ndarray:
        if axis >= grid.dims:
            return 0.0
        return _axis_derivative(v.values[component], grid, axis, backend)

    out = np.zeros_like(v.values)
    out[0] = d(2, 1) - d(1, 2)
    out[1] = d(0, 2) - d(2, 0)
    out[2] = d(1, 0) - d(0, 1)
    return VectorField(grid, out)


def integrate(f: RealField | ComplexField):
    """Riemann sum times cell volume.  On a periodic grid this is the trapezoid
    rule, spectrally accurate for smooth fields.  Summation order is fixed."""
    total = np.sum(f.values) * f.grid.cell_volume
    return complex(total) if np.iscomplexobj(f.values) else float(total)


def overlap(f: ComplexField, g: ComplexField) -> complex:
    """<f|g> with the same quadrature as integrate()."""
    if f.grid != g.grid:
        raise ValueError("overlap requires fields on the same grid")
    return complex(np.sum(np.conj(f.values) * g.values) * f.grid.cell_volume)


def cross(a: VectorField, b: VectorField) -> VectorField:
    if a.grid != b.grid:
        raise ValueError("cross requires fields on the same grid")
    av, bv = a.values, b.values
    out = np.empty_like(av)
    out[0] = av[1] * bv[2] - av[2] * bv[1]
    out[1] = av[2] * bv[0] - av[0] * bv[2]
    out[2] = av[0] * bv[1] - av[1] * bv[0]
    return VectorField(a.grid, out)


def dot(a: VectorField, b: VectorField) -> RealField:
    if a.grid != b.grid:
        raise ValueError("dot requires fields on the same grid")
    if np.iscomplexobj(a.values) or np.iscomplexobj(b.values):
        raise ValueError("dot is defined for real vector fields")
    return RealField(a.grid, np.einsum("c...,c...->...", a.values, b.values))


def magnitude(v: VectorField) -> RealField:
    if np.iscomplexobj(v.values):
        raise ValueError("magnitude is defined for real vector fields")
    return RealField(v.grid, np.sqrt(np.einsum("c...,c...->...", v.values, v.values)))
