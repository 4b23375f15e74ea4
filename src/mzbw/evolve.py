"""Split-step Fourier propagation of scalar wavefunctions.

One step of Strang splitting for i hbar d(psi)/dt = (-hbar^2/2m lap + U) psi:

    psi <- exp(-i U dt / 2 hbar) psi          (half potential kick)
    psi <- IFFT( exp(-i hbar k^2 dt / 2m) FFT(psi) )   (full kinetic step)
    psi <- exp(-i U dt / 2 hbar) psi          (half potential kick)

Each factor is a pointwise phase, so the map is unitary to round-off and the
splitting error is O(dt^2).  Snapshots are recorded every snapshot_stride
steps together with norm and energy so conservation can be audited.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fields import ComplexField, PhysicalParams, RealField, laplacian, overlap


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    snapshot_stride: int = 1
    potential: RealField | None = None
    params: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.steps % self.snapshot_stride:
            raise ValueError(
                f"snapshot_stride {self.snapshot_stride} must divide steps {self.steps}"
            )


@dataclass(frozen=True)
class Observables:
    norm: float
    energy: float
    mean: np.ndarray  # per axis
    width: np.ndarray  # per axis


@dataclass
class SnapshotSeries:
    times: np.ndarray
    states: list[ComplexField]
    norms: np.ndarray
    energies: np.ndarray

    @property
    def grid(self):
        return self.states[0].grid

    @property
    def snapshot_dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def triple(self, i: int):
        """(previous, middle, next) snapshots around index i plus their spacing,
        for the finite-difference equation residuals."""
        if not 1 <= i < len(self.states) - 1:
            raise IndexError(f"triple needs an interior index, got {i}")
        return (self.states[i - 1], self.states[i], self.states[i + 1]), self.snapshot_dt


def observables(
    psi: ComplexField, potential: RealField | None, params: PhysicalParams
) -> Observables:
    """Norm, energy expectation, and per-axis centroid and width."""
    grid = psi.grid
    rho = psi.values.real**2 + psi.values.imag**2
    norm = float(np.sum(rho) * grid.cell_volume)
    if norm == 0.0:
        raise ValueError("wavefunction is identically zero")
    h_psi = -(params.hbar * params.hbar / (2.0 * params.mass)) * laplacian(psi).values
    if potential is not None:
        if potential.grid != grid:
            raise ValueError("potential must live on the wavefunction grid")
        h_psi = h_psi + potential.values * psi.values
    energy = float((np.sum(np.conj(psi.values) * h_psi) * grid.cell_volume).real)
    mean = np.empty(grid.dims)
    width = np.empty(grid.dims)
    for axis, x in enumerate(grid.coords()):
        mean[axis] = float(np.sum(x * rho) * grid.cell_volume) / norm
        second = float(np.sum((x - mean[axis]) ** 2 * rho) * grid.cell_volume) / norm
        width[axis] = np.sqrt(second)
    return Observables(norm=norm, energy=energy, mean=mean, width=width)


def propagate(psi0: ComplexField, config: EvolutionConfig) -> SnapshotSeries:
    """Run the split-step scheme and return the recorded snapshot series.

    The initial state is snapshot 0.  A warning is raised when the highest
    grid mode advances more than pi of kinetic phase per step (dt too large
    for the grid), and when psi0 is not normalized."""
    grid = psi0.grid
    params = config.params
    norm0 = float(np.sum(psi0.values.real**2 + psi0.values.imag**2) * grid.cell_volume)
    if abs(norm0 - 1.0) > 1e-6:
        warnings.warn(f"initial norm is {norm0:.8g}, not 1", RuntimeWarning, stacklevel=2)

    if config.potential is None:
        u_values = None
        half_kick = None
    else:
        if config.potential.grid != grid:
            raise ValueError("potential must live on the wavefunction grid")
        u_values = config.potential.values
        half_kick = np.exp(-0.5j * u_values * config.dt / params.hbar)

    k_sq = grid.k_squared()
    kinetic_phase = params.hbar * k_sq * config.dt / (2.0 * params.mass)
    if np.max(kinetic_phase) > np.pi:
        warnings.warn(
            "kinetic phase of the highest grid mode exceeds pi per step; "
            "time step under-resolves the grid",
            RuntimeWarning,
            stacklevel=2,
        )
    kinetic_factor = np.exp(-1j * kinetic_phase)

    n_snapshots = config.steps // config.snapshot_stride + 1
    times = config.dt * config.snapshot_stride * np.arange(n_snapshots)
    states = [ComplexField(grid, psi0.values.copy())]

    psi = psi0.values.copy()
    for step in range(config.steps):
        if half_kick is not None:
            psi = half_kick * psi
        psi = np.fft.ifftn(kinetic_factor * np.fft.fftn(psi))
        if half_kick is not None:
            psi = half_kick * psi
        if (step + 1) % config.snapshot_stride == 0:
            states.append(ComplexField(grid, psi.copy()))

    norms = np.empty(n_snapshots)
    energies = np.empty(n_snapshots)
    for i, state in enumerate(states):
        obs = observables(state, config.potential, params)
        norms[i] = obs.norm
        energies[i] = obs.energy
    return SnapshotSeries(times=times, states=states, norms=norms, energies=energies)


def stationary_residual(
    psi: ComplexField, energy: float, params: PhysicalParams, backend: str = "spectral"
) -> RealField:
    """| -(hbar^2/2m) lap(psi) - E psi |, the free stationary-equation residual."""
    return _stationary_residual(psi, energy, params.hbar * params.hbar / (2.0 * params.mass), backend)


def _stationary_residual(psi: ComplexField, energy: float, coeff: float, backend: str) -> RealField:
    res = -coeff * laplacian(psi, backend).values - energy * psi.values
    return RealField(psi.grid, np.abs(res))


def fidelity(a: ComplexField, b: ComplexField) -> float:
    """|<a|b>|, using the grid quadrature."""
    return abs(overlap(a, b))


__all__ = [
    "EvolutionConfig",
    "Observables",
    "SnapshotSeries",
    "observables",
    "propagate",
    "stationary_residual",
    "fidelity",
]
