"""Built-in wavefunctions, spinors, and potentials used by the CLI and tests.

The separable builders (plane wave, Gaussian, harmonic ground state and
potential) evaluate each axis factor on its 1D axis (`Grid.sparse_coords`)
and broadcast the product or sum, so only the last combination and what
follows it run on the full grid.  Every elementwise operation is the one the
broadcast-coordinate form does, in its order, so the bytes are the same."""

from __future__ import annotations

import numpy as np

from .fields import ComplexField, Grid, PhysicalParams, RealField, SpinorField, _axis_tuple

DEFAULT_PARAMS = PhysicalParams()


def _per_axis(value, grid: Grid, name: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _axis_tuple(value, grid.dims, name))


def plane_wave(grid: Grid, k, params: PhysicalParams = DEFAULT_PARAMS) -> ComplexField:
    """exp(i k.x)/sqrt(V).  k must hit lattice modes 2*pi*n/L exactly, else the
    state is not periodic on the box and is rejected."""
    kvec = _per_axis(k, grid, "k")
    for ka, L in zip(kvec, grid.extents):
        n = ka * L / (2.0 * np.pi)
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"k component {ka} is not a lattice mode (k*L/2pi = {n})")
    phase = 0.0
    for ka, x in zip(kvec, grid.sparse_coords()):
        phase = phase + ka * x
    volume = float(np.prod(grid.extents))
    return ComplexField(grid, np.exp(1j * phase) / np.sqrt(volume))


def gaussian(
    grid: Grid,
    sigma=1.0,
    center=0.0,
    boost=0.0,
    params: PhysicalParams = DEFAULT_PARAMS,
) -> ComplexField:
    """Normalized Gaussian packet.  sigma is the density standard deviation per
    axis; boost multiplies by exp(i p.x / hbar)."""
    sig = _per_axis(sigma, grid, "sigma")
    cen = _per_axis(center, grid, "center")
    mom = _per_axis(boost, grid, "boost")
    if any(s <= 0 for s in sig):
        raise ValueError(f"sigma must be positive, got {sig}")
    amp, phase = 1.0, 0.0
    for s, c, p, x in zip(sig, cen, mom, grid.sparse_coords()):
        amp = amp * (2.0 * np.pi * s * s) ** (-0.25) * np.exp(-((x - c) ** 2) / (4.0 * s * s))
        phase = phase + p * x / params.hbar
    return ComplexField(grid, amp * np.exp(1j * phase))


def harmonic_ground(
    grid: Grid, omega: float = 1.0, params: PhysicalParams = DEFAULT_PARAMS
) -> ComplexField:
    """Ground state of the isotropic oscillator; energy dims*hbar*omega/2."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    a = params.mass * omega / params.hbar
    amp = 1.0
    for x in grid.sparse_coords():
        amp = amp * (a / np.pi) ** 0.25 * np.exp(-a * x * x / 2.0)
    return ComplexField(grid, amp.astype(complex))


def harmonic_potential(
    grid: Grid, omega: float = 1.0, center=0.0, params: PhysicalParams = DEFAULT_PARAMS
) -> RealField:
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    cen = _per_axis(center, grid, "center")
    u = 0.0
    for c, x in zip(cen, grid.sparse_coords()):
        u = u + 0.5 * params.mass * omega * omega * (x - c) ** 2
    return RealField(grid, u)


def constant_spinor(theta: float, phi: float = 0.0) -> np.ndarray:
    """Bloch spinor (cos(theta/2), exp(i phi) sin(theta/2))."""
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def spin_vector(chi: np.ndarray, params: PhysicalParams = DEFAULT_PARAMS) -> np.ndarray:
    """s = (hbar/2) <chi|sigma|chi> / <chi|chi> for a constant spinor."""
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (2,):
        raise ValueError(f"spinor must have shape (2,), got {chi.shape}")
    norm = np.vdot(chi, chi).real
    if norm == 0.0:
        raise ValueError("spinor is zero")
    up, down = chi
    cross_term = np.conj(up) * down
    return (params.hbar / 2.0) * np.array(
        [2.0 * cross_term.real, 2.0 * cross_term.imag, (abs(up) ** 2 - abs(down) ** 2)]
    ) / norm


def attach_spinor(psi: ComplexField, chi: np.ndarray) -> SpinorField:
    """psi times a constant unit spinor; the scalar normalization is preserved."""
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (2,):
        raise ValueError(f"spinor must have shape (2,), got {chi.shape}")
    norm = np.sqrt(np.vdot(chi, chi).real)
    if norm == 0.0:
        raise ValueError("spinor is zero")
    values = np.stack([psi.values * (chi[0] / norm), psi.values * (chi[1] / norm)])
    return SpinorField(psi.grid, values)


def _band_limited(grid: Grid, rng: np.random.Generator, max_mode: int, amplitude: float) -> np.ndarray:
    """Random real field built from a handful of low lattice modes, peak-scaled
    to the requested amplitude.  Deterministic for a given generator state."""
    out = np.zeros(grid.shape)
    coords = grid.coords()
    for _ in range(6):
        modes = rng.integers(-max_mode, max_mode + 1, size=grid.dims)
        shift = rng.uniform(0.0, 2.0 * np.pi)
        weight = rng.normal()
        arg = np.zeros(grid.shape)
        for n, x, L in zip(modes, coords, grid.extents):
            arg = arg + 2.0 * np.pi * n * x / L
        out = out + weight * np.cos(arg + shift)
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= amplitude / peak
    return out


def random_smooth_state(
    grid: Grid,
    seed: int,
    params: PhysicalParams = DEFAULT_PARAMS,
    max_mode: int = 3,
    amplitude: float = 0.8,
) -> ComplexField:
    """Node-free random state: rho = exp(g)/Z and a band-limited phase, both
    built from low modes so every derivative is fully resolved."""
    rng = np.random.default_rng(seed)
    log_rho = _band_limited(grid, rng, max_mode, amplitude)
    theta = _band_limited(grid, rng, max_mode, amplitude)
    rho = np.exp(log_rho)
    rho /= np.sum(rho) * grid.cell_volume
    return ComplexField(grid, np.sqrt(rho) * np.exp(1j * theta))


def random_spinor_field(grid: Grid, seed: int, max_mode: int = 2) -> SpinorField:
    """Fully position-dependent spinor (non-uniform spin direction), normalized."""
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(2):
        re = _band_limited(grid, rng, max_mode, 0.7)
        im = _band_limited(grid, rng, max_mode, 0.7)
        comps.append((1.0 + re) + 1j * im)
    values = np.stack(comps)
    total = np.sum(np.einsum("c...,c...->...", np.conj(values), values).real) * grid.cell_volume
    return SpinorField(grid, values / np.sqrt(total))
