"""Split-step Fourier propagation of scalar wavefunctions.

One step of Strang splitting for i hbar d(psi)/dt = (-hbar^2/2m lap + U) psi:

    psi <- exp(-i U dt / 2 hbar) psi          (half potential kick)
    psi <- IFFT( exp(-i hbar k^2 dt / 2m) FFT(psi) )   (full kinetic step)
    psi <- exp(-i U dt / 2 hbar) psi          (half potential kick)

Each factor is a pointwise phase, so the map is unitary to round-off and the
splitting error is O(dt^2).  Snapshots are recorded every snapshot_stride
steps together with norm and energy so conservation can be audited; the
energy's kinetic part comes from one forward transform of the snapshot, by
Parseval, rather than from its Laplacian.

`iter_propagate` is the one stepping loop, run on a one-worker executor one
snapshot ahead of its reader: it hands each snapshot on as soon as it is
reached, so a consumer that writes, measures or transports it holds no more
of the run than it needs.  `propagate` collects it into a `SnapshotSeries`.
"""

from __future__ import annotations

import warnings
from collections.abc import Generator, Iterator
from concurrent.futures import ThreadPoolExecutor, wait
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


@dataclass(frozen=True)
class Snapshot:
    time: float
    state: ComplexField
    norm: float
    energy: float


@dataclass
class SnapshotSeries:
    times: np.ndarray
    states: list[ComplexField]
    norms: np.ndarray
    energies: np.ndarray

    @property
    def grid(self):
        return self.states[0].grid

    def __iter__(self) -> Iterator[Snapshot]:
        return map(Snapshot, self.times, self.states, self.norms, self.energies)


class SnapshotStream:
    """The snapshots of one run in the order the propagator reaches them.

    `grid` and `times` are known up front.  Iterating, which can be done
    once, runs the propagator and yields each `Snapshot`; `norms` and
    `energies` log the snapshots yielded so far, and `last` is the latest.
    A one-worker executor computes snapshot n+1 while the reader holds n,
    then waits; numpy releases the GIL in the FFTs and elementwise work, so
    the two overlap.  The worker's exceptions are raised to the reader, and
    an iterator closed or dropped half-read waits for the snapshot in
    progress and joins the worker, whose thread is no daemon: interpreter
    exit waits for it too."""

    def __init__(self, grid, times: np.ndarray, snapshots: Generator[Snapshot, None, None]):
        self.grid = grid
        self.times = times
        self.norms: list[float] = []
        self.energies: list[float] = []
        self.last: Snapshot | None = None
        self._snapshots = snapshots
        self._read = False

    def __iter__(self) -> Iterator[Snapshot]:
        if self._read:
            raise ValueError("a snapshot stream can be read only once")
        self._read = True
        snapshots, self._snapshots = self._snapshots, None
        with ThreadPoolExecutor(1, thread_name_prefix="mzbw-snapshots") as worker:
            pending = worker.submit(next, snapshots, None)
            try:
                while (snap := pending.result()) is not None:
                    pending = worker.submit(next, snapshots, None)
                    self.norms.append(snap.norm)
                    self.energies.append(snap.energy)
                    self.last = snap
                    yield snap
            finally:
                wait([pending])  # a generator cannot be closed while the worker runs it
                pending = None  # it may hold an exception, whose traceback holds this frame
                snapshots.close()


def observables(
    psi: ComplexField, potential: RealField | None, params: PhysicalParams
) -> Observables:
    """Norm and energy expectation, those of each snapshot, and per-axis
    centroid and width."""
    grid = psi.grid
    if potential is not None and potential.grid != grid:
        raise ValueError("potential must live on the wavefunction grid")
    norm, energy = _norm_energy(psi, potential, params)
    rho = psi.values.real**2 + psi.values.imag**2
    mean = np.empty(grid.dims)
    width = np.empty(grid.dims)
    for axis, x in enumerate(grid.coords()):
        mean[axis] = float(np.sum(x * rho) * grid.cell_volume) / norm
        second = float(np.sum((x - mean[axis]) ** 2 * rho) * grid.cell_volume) / norm
        width[axis] = np.sqrt(second)
    return Observables(norm=norm, energy=energy, mean=mean, width=width)


def iter_propagate(psi0: ComplexField, config: EvolutionConfig) -> SnapshotStream:
    """The split-step run as a stream of snapshots, each with its norm and energy.

    The initial state is snapshot 0.  The inputs are checked, and the
    warnings raised, before any step: a warning when the highest grid mode
    advances more than pi of kinetic phase per step (dt too large for the
    grid), and when psi0 is not normalized.  No yielded state is written to
    afterwards, so a consumer may keep any of them; snapshot 0 is psi0
    itself."""
    grid = psi0.grid
    params = config.params
    norm0 = float(np.sum(psi0.values.real**2 + psi0.values.imag**2) * grid.cell_volume)
    if abs(norm0 - 1.0) > 1e-6:
        warnings.warn(f"initial norm is {norm0:.8g}, not 1", RuntimeWarning, stacklevel=2)

    if config.potential is None:
        half_kick = None
    else:
        if config.potential.grid != grid:
            raise ValueError("potential must live on the wavefunction grid")
        half_kick = np.exp(-0.5j * config.potential.values * config.dt / params.hbar)

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
    return SnapshotStream(grid, times, _snapshots(psi0, config, times, half_kick, kinetic_factor))


def _snapshots(psi0, config, times, half_kick, kinetic_factor) -> Generator[Snapshot, None, None]:
    grid = psi0.grid
    state = psi0  # snapshot 0 is the initial state itself, not a copy
    del psi0
    for record, time in enumerate(times):
        if record:
            # one new array per interval, the state it yields: every kick and
            # transform of the interval writes into it, so a state already
            # yielded is never written to.  The kinetic factor is always the
            # first operand: the two orders of a complex product round
            # differently, and an out-of-place `K * fftn(psi)` leaves the order
            # to numpy's temporary elision, which swaps it above 256 KiB.
            psi = state.values.copy()
            for _ in range(config.snapshot_stride):
                if half_kick is not None:
                    np.multiply(half_kick, psi, out=psi)
                np.fft.fftn(psi, out=psi)
                np.multiply(kinetic_factor, psi, out=psi)
                np.fft.ifftn(psi, out=psi)
                if half_kick is not None:
                    np.multiply(half_kick, psi, out=psi)
            state = ComplexField(grid, psi)
        yield Snapshot(time, state, *_norm_energy(state, config.potential, config.params))


def _norm_energy(psi: ComplexField, potential: RealField | None, params: PhysicalParams) -> tuple[float, float]:
    """The norm and energy expectation of a state, the one definition behind
    each snapshot and `observables`.  The energy is kinetic plus potential,
    the kinetic part by Parseval from one forward transform:

        (hbar^2/2m) (dV/N) sum_k |k|^2 |psi_k|^2  +  dV sum_x U |psi|^2"""
    grid, values = psi.grid, psi.values
    density = values.real**2 + values.imag**2
    norm = float(np.sum(density) * grid.cell_volume)
    if norm == 0.0:
        raise ValueError("wavefunction is identically zero")
    potential_energy = 0.0
    if potential is not None:
        density *= potential.values
        potential_energy = float(np.sum(density) * grid.cell_volume)
    del density
    fhat = np.fft.fftn(values, out=np.empty_like(values))
    # the power spectrum is formed in the spectrum's own real part, so no third field is held
    power = np.square(fhat.real, out=fhat.real)
    power += np.square(fhat.imag, out=fhat.imag)
    del fhat
    power *= grid.k_squared()
    kinetic = params.hbar * params.hbar / (2.0 * params.mass) * grid.cell_volume / grid.size * float(np.sum(power))
    energy = kinetic + potential_energy
    if not np.isfinite(energy):
        raise ValueError(f"energy of the snapshot is not finite ({energy})")
    return norm, energy


def propagate(psi0: ComplexField, config: EvolutionConfig) -> SnapshotSeries:
    """Run the split-step scheme and return the recorded snapshot series,
    collected from `iter_propagate`."""
    stream = iter_propagate(psi0, config)
    states = [snap.state for snap in stream]
    return SnapshotSeries(
        times=stream.times, states=states, norms=np.array(stream.norms), energies=np.array(stream.energies)
    )


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
    "Snapshot",
    "SnapshotSeries",
    "SnapshotStream",
    "iter_propagate",
    "observables",
    "propagate",
    "stationary_residual",
    "fidelity",
]
