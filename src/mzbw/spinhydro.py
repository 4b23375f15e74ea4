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
    _axis_derivative,
    _uniform,
    cross,
    dot,
)
from .madelung import ResidualField, _hj_residual, _jet, _Jet, hj_terms
from .states import attach_spinor, spin_vector

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
class SpinSplit:
    """What `spin_split` returns: the fields of `VelocityDecomposition`
    except the momentum, whose node mask is the spin vector's."""

    spin: SpinVector
    current: VectorField  # the Pauli current's total
    drift: VectorField  # (p - eA)/m
    zbw: VectorField  # curl(rho s)/(m rho)
    total: VectorField  # drift + zbw
    spin_current: VectorField  # curl(rho s)/m
    consistency: float  # max |rho * total velocity - Pauli current|
    hestenes: HestenesResidual


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


def spin_density(psi: SpinorField, params: PhysicalParams) -> SpinVector:
    """Local spin vector s = psi^dag s_op psi / rho; zero on the node mask."""
    jet = _jet(psi, params).nonzero()
    s = jet.divided(jet.rho_s)
    return SpinVector(s=VectorField(jet.grid, s), rho=RealField(jet.grid, jet.rho), node_mask=jet.mask)


def pauli_current(
    psi: SpinorField,
    params: PhysicalParams,
    vector_potential: VectorField | None = None,
    backend: str = "spectral",
) -> PauliCurrent:
    """j = (hbar/m) Im(psi^dag grad psi) - (e A / m) rho + curl(rho s)/m."""
    jet = _jet(psi, params, backend)
    grid = jet.grid
    convective = jet.current / params.mass
    diamagnetic = _diamagnetic(jet, params, vector_potential)
    total = convective + diamagnetic.values + jet.spin_current
    return PauliCurrent(
        total=VectorField(grid, total),
        convective=VectorField(grid, convective),
        diamagnetic=diamagnetic,
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
    jet = _jet(psi, params, backend).nonzero()
    grid = jet.grid
    drift = _drift(jet, params, vector_potential)
    zbw = jet.divided(jet.spin_current)
    return VelocityDecomposition(
        drift=VectorField(grid, drift),
        zbw=VectorField(grid, zbw),
        total=VectorField(grid, drift + zbw),
        momentum=VectorField(grid, jet.momentum),
        spin_current=VectorField(grid, jet.spin_current),
        node_mask=jet.mask,
    )


def _diamagnetic(jet: _Jet, params: PhysicalParams, vector_potential: VectorField | None) -> VectorField:
    """-(e A / m) rho, or a read-only zero view when A is absent."""
    if vector_potential is None:
        return _uniform(jet.grid, (0.0, 0.0, 0.0))
    if vector_potential.grid != jet.grid:
        raise ValueError("vector potential must live on the wavefunction grid")
    return VectorField(jet.grid, -(params.charge / params.mass) * vector_potential.values * jet.rho)


def _drift(jet: _Jet, params: PhysicalParams, vector_potential: VectorField | None) -> np.ndarray:
    """(p - eA)/m, zero on the node mask."""
    if vector_potential is None:
        return jet.momentum / params.mass
    if vector_potential.grid != jet.grid:
        raise ValueError("vector potential must live on the wavefunction grid")
    drift = (jet.momentum - params.charge * vector_potential.values) / params.mass
    np.copyto(drift, 0.0, where=jet.mask)
    return drift


def zbw_velocity_uniform(
    rho: RealField, s, params: PhysicalParams, backend: str = "spectral"
) -> VectorField:
    """V = grad(rho) x s / (m rho) for a position-independent spin vector s.
    Agrees with the curl form because curl(rho s) = grad(rho) x s when s is
    constant."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise ValueError(f"constant spin vector must have shape (3,), got {s.shape}")
    jet = _jet(rho, params, backend)
    out = cross(jet.grad_rho, _uniform(jet.grid, s)).values
    out /= params.mass * jet.safe
    np.copyto(out, 0.0, where=jet.mask)
    return VectorField(jet.grid, out)


def hestenes_residual(
    rho: RealField, s: VectorField, backend: str = "spectral"
) -> HestenesResidual:
    """Residuals of the non-relativistic Hestenes constraints div(rho s) = 0
    and grad(rho) . s = 0.  Both vanish identically for planar densities with
    spin normal to the plane; a generic 3D density violates the second."""
    if rho.grid != s.grid:
        raise ValueError("rho and s must share a grid")
    jet = _jet(rho, backend=backend)
    grid = jet.grid
    dot_vals = dot(jet.grad_rho, s).values
    jet.drop("grad_rho")
    # div(rho s) one component of the flux at a time, added onto zero in
    # the order of `divergence`
    div_vals = np.zeros(grid.shape)
    for axis in range(grid.dims):
        div_vals += _axis_derivative(jet.rho * s.values[axis], grid, axis, backend)

    def weighted(res: np.ndarray) -> float:
        term = jet.rho * res
        term *= res
        return float(np.sqrt(np.sum(term) * grid.cell_volume))

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
    jet = _jet(psi, params, backend).nonzero()
    grid = jet.grid
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
        pot = float(np.sum(jet.rho * potential.values) * vol)

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
    terms = hj_terms(snapshots, dt, potential, params, backend)
    return _hj_residual(terms, snapshots[1].grid, (s_mag * s_mag) / params.mass)


def rho_total_current(decomp: VelocityDecomposition, rho: RealField) -> VectorField:
    """rho * total velocity, for direct comparison with the Pauli current."""
    return VectorField(rho.grid, rho.values * decomp.total.values)


def spin_split(
    psi: ComplexField,
    chi,
    params: PhysicalParams,
    vector_potential: VectorField | None = None,
    backend: str = "spectral",
) -> SpinSplit:
    """The scalar state `psi` with the constant spinor `chi` attached, taken
    from the spin density and Pauli current through the velocity split to the
    Hestenes constraints, in the arithmetic of those public calls.

    One jet holds the spinor, and each of its intermediates is freed once
    nothing returned reads it: rho s once curl(rho s)/m is cached, the state
    once the current is, and the current and momentum once the drift is
    formed.  The Pauli total is built in one buffer, current/m, then the
    diamagnetic term and curl(rho s)/m added in place.  The Hestenes check
    runs before the velocity split, while fewer fields are alive, and the
    consistency gap rho * total - current is formed one component at a
    time."""
    jet = _Jet(attach_spinor(psi, chi), params, backend)
    del psi  # freed here if the caller holds no other reference
    spin = spin_density(jet, params)
    jet.spin_current  # cached, so rho s can go
    jet.drop("rho_s")
    current = jet.current / params.mass
    jet.drop("state")  # the jet's current is cached
    current += _diamagnetic(jet, params, vector_potential).values
    current += jet.spin_current
    hestenes = hestenes_residual(spin.rho, spin.s, backend)
    drift = _drift(jet, params, vector_potential)
    jet.drop("current", "momentum")
    zbw = jet.divided(jet.spin_current)
    total = drift + zbw
    spin_current = jet.spin_current
    del jet  # its safe density
    gap = np.empty(total.shape[1:])  # rho * total velocity, less the Pauli current
    maxima = []
    for total_c, current_c in zip(total, current):
        np.multiply(spin.rho.values, total_c, out=gap)
        gap -= current_c
        maxima.append(np.max(np.abs(gap, out=gap)))
    del gap
    grid = spin.rho.grid
    return SpinSplit(
        spin=spin,
        current=VectorField(grid, current),
        drift=VectorField(grid, drift),
        zbw=VectorField(grid, zbw),
        total=VectorField(grid, total),
        spin_current=VectorField(grid, spin_current),
        consistency=float(np.max(maxima)),
        hestenes=hestenes,
    )
