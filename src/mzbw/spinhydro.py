"""Pauli-spinor hydrodynamics.

A spinor wavefunction carries, besides density and phase, a local spin
direction s(x) with |s| = hbar/2.  The probability current then splits into a
drift part (p - eA)/m and an internal circulation

    V = curl(rho s) / (m rho)

whose divergence-free current curl(rho s)/m is the magnetization current of
the spin density.  For a position-independent s this reduces to
V = grad(rho) x s / (m rho), and |V| = (hbar/2) |grad rho| / (m rho): the
Zitterbewegung speed of the scalar theory.

Quadratic identities, constraint residuals, and the kinetic-energy split are
provided as measured fields so each one can be gated and reported.  They read
the spinor's density, current hbar Im(psi^dag grad psi), rho s and curl(rho s)
from the jet of `madelung`, so `pauli_current` and `velocity_decomposition`
given one jet compute those once, in the same arithmetic order as alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import _stationary_residual
from .fields import (
    ComplexField,
    PhysicalParams,
    RealField,
    SpinorField,
    VectorField,
    _check_backend,
    cross,
    divergence,
    dot,
)
from .madelung import ResidualField, _hj_residual, _jet
from .states import spin_vector

# max |div(rho s)| and |grad(rho).s| that count as zero: below it the Hestenes
# constraints hold and the uniform-spin identities apply
CONSTRAINT_TOL = 1e-10


@dataclass(frozen=True)
class SpinVector:
    s: VectorField  # |s| = hbar/2 wherever rho is unmasked
    rho: RealField
    node_mask: np.ndarray


@dataclass(frozen=True)
class PauliCurrent:
    total: VectorField
    convective: VectorField
    diamagnetic: VectorField
    spin: VectorField  # curl(rho s)/m, divergence-free


@dataclass(frozen=True)
class VelocityDecomposition:
    drift: VectorField  # (p - eA)/m
    zbw: VectorField  # curl(rho s)/(m rho)
    total: VectorField
    momentum: VectorField
    spin_current: VectorField  # rho * zbw without the divide, = curl(rho s)/m
    node_mask: np.ndarray


@dataclass(frozen=True)
class HestenesResidual:
    div_rho_s: RealField
    grad_rho_dot_s: RealField
    div_max: float
    div_weighted: float
    dot_max: float
    dot_weighted: float


@dataclass(frozen=True)
class VsqForms:
    full: RealField  # ((grad rho)^2 s^2 - (grad rho . s)^2) / (m rho)^2
    reduced: RealField  # s^2 (grad rho / m rho)^2
    reduced_valid: bool  # reduced form asserted only when grad(rho).s ~ 0
    gate_residual: float  # measured max |grad(rho) . s|
    node_mask: np.ndarray


@dataclass(frozen=True)
class EnergyBudget:
    translational: float
    internal: float
    potential: float
    total: float
    internal_zbw: float  # same internal energy through the zbw speed


def _uniform(grid, s: np.ndarray) -> VectorField:
    """The constant vector s at every grid point, as a read-only broadcast view."""
    return VectorField(grid, np.broadcast_to(s.reshape((3,) + (1,) * grid.dims), (3,) + grid.shape))


def spin_density(psi: SpinorField, params: PhysicalParams) -> SpinVector:
    """Local spin vector s = psi^dag s_op psi / rho; zero on the node mask."""
    jet = _jet(psi, params)
    if np.max(jet.rho) == 0.0:
        raise ValueError("spinor wavefunction is identically zero")
    s = jet.rho_s / jet.safe
    s[:, jet.mask] = 0.0
    return SpinVector(s=VectorField(jet.grid, s), rho=RealField(jet.grid, jet.rho), node_mask=jet.mask)


def pauli_current(
    psi: SpinorField,
    params: PhysicalParams,
    vector_potential: VectorField | None = None,
    backend: str = "spectral",
) -> PauliCurrent:
    """j = (hbar/m) Im(psi^dag grad psi) - (e A / m) rho + curl(rho s)/m."""
    _check_backend(backend)
    jet = _jet(psi, params, backend)
    grid = jet.grid
    convective = jet.current / params.mass
    if vector_potential is None:
        diamagnetic = np.zeros((3,) + grid.shape)
    else:
        if vector_potential.grid != grid:
            raise ValueError("vector potential must live on the wavefunction grid")
        diamagnetic = -(params.charge / params.mass) * vector_potential.values * jet.rho
    total = convective + diamagnetic + jet.spin_current
    return PauliCurrent(
        total=VectorField(grid, total),
        convective=VectorField(grid, convective),
        diamagnetic=VectorField(grid, diamagnetic),
        spin=VectorField(grid, jet.spin_current),
    )


def velocity_decomposition(
    psi: SpinorField,
    params: PhysicalParams,
    vector_potential: VectorField | None = None,
    backend: str = "spectral",
) -> VelocityDecomposition:
    """Split the local velocity into drift (p - eA)/m and internal circulation
    curl(rho s)/(m rho).  rho * total reproduces the Pauli current."""
    _check_backend(backend)
    jet = _jet(psi, params, backend)
    grid = jet.grid
    if np.max(jet.rho) == 0.0:
        raise ValueError("spinor wavefunction is identically zero")
    mask, safe = jet.mask, jet.safe

    momentum = jet.current / safe
    momentum[:, mask] = 0.0

    if vector_potential is None:
        drift = momentum / params.mass
    else:
        if vector_potential.grid != grid:
            raise ValueError("vector potential must live on the wavefunction grid")
        drift = (momentum - params.charge * vector_potential.values) / params.mass
        drift[:, mask] = 0.0

    zbw = jet.spin_current / safe
    zbw[:, mask] = 0.0

    return VelocityDecomposition(
        drift=VectorField(grid, drift),
        zbw=VectorField(grid, zbw),
        total=VectorField(grid, drift + zbw),
        momentum=VectorField(grid, momentum),
        spin_current=VectorField(grid, jet.spin_current),
        node_mask=mask,
    )


def zbw_velocity_uniform(
    rho: RealField, s, params: PhysicalParams, backend: str = "spectral"
) -> VectorField:
    """V = grad(rho) x s / (m rho) for a position-independent spin vector s.
    Agrees with the curl form because curl(rho s) = grad(rho) x s when s is
    constant."""
    _check_backend(backend)
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise ValueError(f"constant spin vector must have shape (3,), got {s.shape}")
    jet = _jet(rho, params, backend)
    out = cross(jet.grad_rho, _uniform(jet.grid, s)).values
    out /= params.mass * jet.safe
    out[:, jet.mask] = 0.0
    return VectorField(jet.grid, out)


def hestenes_residual(
    rho: RealField, s: VectorField, backend: str = "spectral"
) -> HestenesResidual:
    """Residuals of the non-relativistic Hestenes constraints div(rho s) = 0
    and grad(rho) . s = 0.  Both vanish identically for planar densities with
    spin normal to the plane; a generic 3D density violates the second."""
    _check_backend(backend)
    if rho.grid != s.grid:
        raise ValueError("rho and s must share a grid")
    jet = _jet(rho, backend=backend)
    grid = jet.grid
    div_vals = divergence(VectorField(grid, jet.rho * s.values), backend).values
    dot_vals = dot(jet.grad_rho, s).values

    def weighted(res: np.ndarray) -> float:
        return float(np.sqrt(np.sum(jet.rho * res * res) * grid.cell_volume))

    return HestenesResidual(
        div_rho_s=RealField(grid, div_vals),
        grad_rho_dot_s=RealField(grid, dot_vals),
        div_max=float(np.max(np.abs(div_vals))),
        div_weighted=weighted(div_vals),
        dot_max=float(np.max(np.abs(dot_vals))),
        dot_weighted=weighted(dot_vals),
    )


def vsq_from_spin(
    rho: RealField,
    s: VectorField,
    params: PhysicalParams,
    backend: str = "spectral",
) -> VsqForms:
    """V^2 from the cross-product identity (a x b)^2 = a^2 b^2 - (a.b)^2:

        V^2 = ((grad rho)^2 s^2 - (grad rho . s)^2) / (m rho)^2

    and its reduced form s^2 (grad rho / m rho)^2, which drops the (grad rho . s)
    term and is only asserted when the measured grad(rho).s residual passes the
    gate."""
    _check_backend(backend)
    if rho.grid != s.grid:
        raise ValueError("rho and s must share a grid")
    jet = _jet(rho, params, backend)
    mask = jet.mask
    grad_sq = dot(jet.grad_rho, jet.grad_rho).values
    s_sq = dot(s, s).values
    dot_term = dot(jet.grad_rho, s).values
    denom = (params.mass * jet.safe) ** 2
    full = np.where(mask, 0.0, (grad_sq * s_sq - dot_term**2) / denom)
    reduced = np.where(mask, 0.0, s_sq * grad_sq / denom)
    gate = float(np.max(np.abs(dot_term)))
    return VsqForms(
        full=RealField(jet.grid, full),
        reduced=RealField(jet.grid, reduced),
        reduced_valid=bool(gate <= CONSTRAINT_TOL),
        gate_residual=gate,
        node_mask=mask,
    )


def koenig_energy(
    psi: ComplexField | SpinorField,
    potential: RealField | None,
    params: PhysicalParams,
    chi=None,
    backend: str = "spectral",
) -> EnergyBudget:
    """Kinetic-energy split E = translational + internal + potential.

    translational integrates rho p^2 / 2m, internal integrates
    (hbar^2/8m)(grad rho)^2/rho.  internal_zbw recomputes the internal part as
    integral of rho m V^2 / 2; for a scalar psi the velocity V comes from the
    constant spinor chi (default spin-up) via the uniform-s form, for a full
    spinor field from curl(rho s)/(m rho)."""
    _check_backend(backend)
    jet = _jet(psi, params, backend)
    grid = jet.grid
    rho = jet.rho
    if np.max(rho) == 0.0:
        raise ValueError("wavefunction is identically zero")
    if isinstance(jet.state, SpinorField):
        spin_cur = jet.spin_current
    else:
        if chi is None:
            s_const = np.array([0.0, 0.0, params.hbar / 2.0])
        else:
            s_const = spin_vector(np.asarray(chi), params)
        spin_cur = cross(jet.grad_rho, _uniform(grid, s_const)).values / params.mass

    mask, safe = jet.mask, jet.safe
    vol = grid.cell_volume

    p_sq_rho = np.einsum("c...,c...->...", jet.current, jet.current) / safe
    translational = float(np.sum(np.where(mask, 0.0, p_sq_rho)) * vol / (2.0 * params.mass))

    internal_density = np.where(mask, 0.0, jet.grad_sq() / safe)
    internal = float(
        np.sum(internal_density) * vol * params.hbar * params.hbar / (8.0 * params.mass)
    )

    zbw_density = np.einsum("c...,c...->...", spin_cur, spin_cur) / safe
    internal_zbw = float(np.sum(np.where(mask, 0.0, zbw_density)) * vol * params.mass / 2.0)

    if potential is None:
        pot = 0.0
    else:
        if potential.grid != grid:
            raise ValueError("potential must live on the wavefunction grid")
        pot = float(np.sum(rho * potential.values) * vol)

    return EnergyBudget(
        translational=translational,
        internal=internal,
        potential=pot,
        total=translational + internal + pot,
        internal_zbw=internal_zbw,
    )


def spin_schrodinger_residual(
    psi: ComplexField,
    energy: float,
    params: PhysicalParams,
    s_mag: float | None = None,
    backend: str = "spectral",
) -> RealField:
    """| -(2 s^2 / m) lap(psi) - E psi |.  With 2|s| = hbar the coefficient is
    hbar^2/2m and this is the free stationary Schroedinger residual."""
    if s_mag is None:
        s_mag = params.hbar / 2.0
    return _stationary_residual(psi, energy, 2.0 * s_mag * s_mag / params.mass, backend)


def spin_hj_residual(
    snapshots,
    dt: float,
    potential: RealField | None,
    params: PhysicalParams,
    s_mag: float | None = None,
    backend: str = "spectral",
) -> ResidualField:
    """Phase-evolution residual with the quantum term written through the spin
    magnitude, coefficient s^2/m instead of hbar^2/4m.  At s = hbar/2 it is
    the plain Madelung residual."""
    if s_mag is None:
        s_mag = params.hbar / 2.0
    return _hj_residual(snapshots, dt, potential, params, backend, (s_mag * s_mag) / params.mass)


def rho_total_current(decomp: VelocityDecomposition, rho: RealField) -> VectorField:
    """rho * total velocity, for direct comparison with the Pauli current."""
    return VectorField(rho.grid, rho.values * decomp.total.values)
