"""Shared derivative intermediates: bit-identical to per-function derivation.

The Madelung and spin layers read the current bilinear, grad(rho), lap(rho)
and lap(sqrt(rho)) of a state from one per-state jet instead of deriving
them in each function.  The reference implementations below derive every
quantity function by function, with its own loops, in the arithmetic order
the shared version must keep; every output is compared through `tobytes()`,
so a re-associated sum or a different density formula shows as a failure
even where it stays within rounding.

The FFT-count tests pin how many transforms the CLI commands make on a small
3D grid, which is what sharing the intermediates buys.
"""

import json
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzbw import (
    ComplexField,
    EvolutionConfig,
    Grid,
    PhysicalParams,
    RealField,
    SpinorField,
    VectorField,
    advect,
    attach_spinor,
    cli,
    constant_spinor,
    continuity_residual,
    curl,
    decompose,
    dot,
    hestenes_residual,
    hj_residual,
    internal_kinetic_density,
    koenig_energy,
    lagrangian_density,
    pauli_current,
    propagate,
    quantum_potential,
    random_smooth_state,
    random_spinor_field,
    rho_total_current,
    spin_density,
    spin_hj_residual,
    spin_schrodinger_residual,
    spin_vector,
    stationary_residual,
    velocity_decomposition,
    vsq_from_spin,
    zbw_speed,
    zbw_velocity_uniform,
)
from mzbw.fields import _axis_derivative, _laplacian_values
from mzbw.madelung import _conj_product, _Jet, node_mask
from mzbw.spinhydro import spin_split
from mzbw.trajectories import _build_table, _VelocityTable

PARAMS = PhysicalParams(hbar=0.7, mass=1.3, charge=0.45)
GRIDS = {
    1: Grid((48,), (12.0,)),
    2: Grid((24, 20), (9.0, 8.0)),
    3: Grid((12, 10, 8), (7.0, 6.0, 5.0)),
}
S_CONST = np.array([0.2, -0.25, 0.15])  # |s| != hbar/2 on purpose


# ---------------------------------------------------------------------------
# reference: every quantity derived in its own function, as one loop per axis


def ref_axis_derivative(values, grid, axis, backend):
    if backend == "spectral":
        k = grid.wavenumbers()[axis].copy()
        k[k.size // 2] = 0.0
        if np.iscomplexobj(values):
            fhat = np.fft.fft(values, axis=axis)
            return np.fft.ifft(1j * grid._axis_shape(k, axis) * fhat, axis=axis)
        n = values.shape[axis]
        fhat = np.fft.rfft(values, axis=axis)
        return np.fft.irfft(1j * grid._axis_shape(k[: n // 2 + 1], axis) * fhat, n=n, axis=axis)
    h = grid.spacing[axis]
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


def ref_laplacian(values, grid, backend):
    if backend == "spectral":
        if np.iscomplexobj(values):
            return np.fft.ifftn(-grid.k_squared() * np.fft.fftn(values))
        half = grid.k_squared()[..., : values.shape[-1] // 2 + 1]
        return np.fft.irfftn(
            -half * np.fft.rfftn(values), s=values.shape, axes=tuple(range(values.ndim))
        )
    out = np.zeros_like(values)
    for axis in range(grid.dims):
        h = grid.spacing[axis]
        out = out + (
            np.roll(values, -1, axis=axis) - 2.0 * values + np.roll(values, 1, axis=axis)
        ) / (h * h)
    return out


def ref_grad_rho(rho, grid, backend):
    out = np.zeros((3,) + grid.shape)
    for axis in range(grid.dims):
        out[axis] = ref_axis_derivative(rho, grid, axis, backend)
    return out


def ref_bracket(rho, safe, grid, backend):
    grad_sq = np.zeros(grid.shape)
    for axis in range(grid.dims):
        d = ref_axis_derivative(rho, grid, axis, backend)
        grad_sq = grad_sq + (d / safe) ** 2
    lap = ref_laplacian(rho, grid, backend)
    return 0.5 * grad_sq - lap / safe


def ref_decompose(psi, p, backend):
    grid = psi.grid
    rho = psi.values.real**2 + psi.values.imag**2
    mask = node_mask(rho)
    safe = np.where(mask, 1.0, rho)
    momentum = np.zeros((3,) + grid.shape)
    for axis in range(grid.dims):
        dpsi = ref_axis_derivative(psi.values, grid, axis, backend)
        bilinear = (np.conj(psi.values) * dpsi).imag
        momentum[axis] = np.where(mask, 0.0, p.hbar * bilinear / safe)
    return rho, p.hbar * np.angle(psi.values), momentum, mask


def ref_quantum_potential(rho, p, backend):
    grid = rho.grid
    mask = node_mask(rho.values)
    safe = np.where(mask, 1.0, rho.values)
    sqrt_rho = np.sqrt(rho.values)
    safe_sqrt = np.where(mask, 1.0, sqrt_rho)
    lap_sqrt = ref_laplacian(sqrt_rho, grid, backend)
    q_sqrt = np.where(mask, 0.0, -(p.hbar**2 / (2.0 * p.mass)) * lap_sqrt / safe_sqrt)
    coeff = (p.hbar * p.hbar) / (4.0 * p.mass)
    q_log = np.where(mask, 0.0, coeff * ref_bracket(rho.values, safe, grid, backend))
    return q_sqrt, q_log


def ref_internal_kinetic_density(rho, p, backend):
    grid = rho.grid
    mask = node_mask(rho.values)
    safe = np.where(mask, 1.0, rho.values)
    grad_sq = np.zeros(grid.shape)
    for axis in range(grid.dims):
        d = ref_axis_derivative(rho.values, grid, axis, backend)
        grad_sq = grad_sq + (d / safe) ** 2
    return np.where(mask, 0.0, p.hbar * p.hbar / (8.0 * p.mass) * grad_sq)


def ref_zbw_speed(rho, p, backend):
    grid = rho.grid
    mask = node_mask(rho.values)
    safe = np.where(mask, 1.0, rho.values)
    grad_sq = np.zeros(grid.shape)
    for axis in range(grid.dims):
        d = ref_axis_derivative(rho.values, grid, axis, backend)
        grad_sq = grad_sq + d * d
    return np.where(mask, 0.0, 0.5 * p.hbar * np.sqrt(grad_sq) / (p.mass * safe))


def ref_hj_terms(triple, dt, potential, p, backend):
    prev, mid, nxt = triple
    grid = mid.grid
    rho = mid.values.real**2 + mid.values.imag**2
    mask = (
        node_mask(rho)
        | node_mask(prev.values.real**2 + prev.values.imag**2)
        | node_mask(nxt.values.real**2 + nxt.values.imag**2)
    )
    safe = np.where(mask, 1.0, rho)
    d_plus = np.angle(nxt.values * np.conj(mid.values))
    d_minus = np.angle(mid.values * np.conj(prev.values))
    dphi_dt = p.hbar * (d_plus + d_minus) / (2.0 * dt)
    kinetic = np.zeros(grid.shape)
    for axis in range(grid.dims):
        dpsi = ref_axis_derivative(mid.values, grid, axis, backend)
        p_axis = p.hbar * (np.conj(mid.values) * dpsi).imag / safe
        kinetic = kinetic + p_axis * p_axis
    kinetic = kinetic / (2.0 * p.mass)
    bracket = ref_bracket(rho, safe, grid, backend)
    u = np.zeros(grid.shape) if potential is None else potential.values
    return dphi_dt, kinetic, bracket, u, mask


def ref_hj_residual(triple, dt, potential, p, backend, coeff):
    dphi_dt, kinetic, bracket, u, mask = ref_hj_terms(triple, dt, potential, p, backend)
    return np.where(mask, 0.0, dphi_dt + kinetic + coeff * bracket + u)


def ref_continuity_residual(triple, dt, p, backend):
    prev, mid, nxt = triple
    grid = mid.grid
    drho_dt = (
        (nxt.values.real**2 + nxt.values.imag**2) - (prev.values.real**2 + prev.values.imag**2)
    ) / (2.0 * dt)
    div_flux = np.zeros(grid.shape)
    for axis in range(grid.dims):
        dpsi = ref_axis_derivative(mid.values, grid, axis, backend)
        flux = p.hbar * (np.conj(mid.values) * dpsi).imag / p.mass
        div_flux = div_flux + ref_axis_derivative(flux, grid, axis, backend)
    return drho_dt + div_flux


def ref_lagrangian_density(triple, dt, potential, p, backend):
    dphi_dt, kinetic, _, u, mask = ref_hj_terms(triple, dt, potential, p, backend)
    grid = triple[1].grid
    rho = triple[1].values.real**2 + triple[1].values.imag**2
    safe = np.where(mask, 1.0, rho)
    grad_sq = np.zeros(grid.shape)
    for axis in range(grid.dims):
        d = ref_axis_derivative(rho, grid, axis, backend)
        grad_sq = grad_sq + (d / safe) ** 2
    internal = (p.hbar * p.hbar / (8.0 * p.mass)) * grad_sq
    speed = 0.5 * p.hbar * np.sqrt(grad_sq) / p.mass
    internal_koenig = 0.5 * p.mass * speed * speed
    common = dphi_dt + kinetic + u
    return (
        np.where(mask, 0.0, -(common + internal) * rho),
        np.where(mask, 0.0, -(common + internal_koenig) * rho),
    )


def ref_spinor_density(psi):
    return np.einsum("c...,c...->...", np.conj(psi.values), psi.values).real


def ref_spin_bilinear(psi, hbar):
    up, down = psi.values[0], psi.values[1]
    mixed = np.conj(up) * down
    out = np.empty((3,) + psi.grid.shape)
    out[0] = 2.0 * mixed.real
    out[1] = 2.0 * mixed.imag
    out[2] = (up.real**2 + up.imag**2) - (down.real**2 + down.imag**2)
    return (hbar / 2.0) * out


def ref_convective_bilinear(psi, p, backend):
    grid = psi.grid
    out = np.zeros((3,) + grid.shape)
    for axis in range(grid.dims):
        acc = np.zeros(grid.shape)
        for c in range(2):
            dpsi = ref_axis_derivative(psi.values[c], grid, axis, backend)
            acc = acc + (np.conj(psi.values[c]) * dpsi).imag
        out[axis] = p.hbar * acc
    return out


def ref_spin_current(psi, p, backend):
    return curl(VectorField(psi.grid, ref_spin_bilinear(psi, p.hbar)), backend).values / p.mass


def ref_spin_density(psi, p):
    rho = ref_spinor_density(psi)
    mask = node_mask(rho)
    s = ref_spin_bilinear(psi, p.hbar) / np.where(mask, 1.0, rho)
    s[:, mask] = 0.0
    return s, rho, mask


def ref_pauli_current(psi, p, a, backend):
    rho = ref_spinor_density(psi)
    convective = ref_convective_bilinear(psi, p, backend) / p.mass
    if a is None:
        diamagnetic = np.zeros((3,) + psi.grid.shape)
    else:
        diamagnetic = -(p.charge / p.mass) * a.values * rho
    spin = ref_spin_current(psi, p, backend)
    return convective + diamagnetic + spin, convective, diamagnetic, spin


def ref_velocity_decomposition(psi, p, a, backend):
    rho = ref_spinor_density(psi)
    mask = node_mask(rho)
    safe = np.where(mask, 1.0, rho)
    momentum = ref_convective_bilinear(psi, p, backend) / safe
    momentum[:, mask] = 0.0
    if a is None:
        drift = momentum / p.mass
    else:
        drift = (momentum - p.charge * a.values) / p.mass
        drift[:, mask] = 0.0
    spin_current = ref_spin_current(psi, p, backend)
    zbw = spin_current / safe
    zbw[:, mask] = 0.0
    return drift, zbw, drift + zbw, momentum, spin_current, mask


def ref_zbw_velocity_uniform(rho, s, p, backend):
    grid = rho.grid
    mask = node_mask(rho.values)
    safe = np.where(mask, 1.0, rho.values)
    grad_rho = ref_grad_rho(rho.values, grid, backend)
    out = np.empty((3,) + grid.shape)
    out[0] = grad_rho[1] * s[2] - grad_rho[2] * s[1]
    out[1] = grad_rho[2] * s[0] - grad_rho[0] * s[2]
    out[2] = grad_rho[0] * s[1] - grad_rho[1] * s[0]
    out /= p.mass * safe
    out[:, mask] = 0.0
    return out


def ref_hestenes_residual(rho, s, backend):
    grid = rho.grid
    rho_s = rho.values * s.values
    div_vals = np.zeros(grid.shape)
    for axis in range(grid.dims):
        div_vals = div_vals + ref_axis_derivative(rho_s[axis], grid, axis, backend)
    grad_rho = VectorField(grid, ref_grad_rho(rho.values, grid, backend))
    dot_vals = dot(grad_rho, s).values

    def weighted(res):
        return float(np.sqrt(np.sum(rho.values * res * res) * grid.cell_volume))

    return div_vals, dot_vals, weighted(div_vals), weighted(dot_vals)


def ref_vsq_from_spin(rho, s, p, backend):
    grid = rho.grid
    mask = node_mask(rho.values)
    safe = np.where(mask, 1.0, rho.values)
    grad_rho = VectorField(grid, ref_grad_rho(rho.values, grid, backend))
    grad_sq = dot(grad_rho, grad_rho).values
    s_sq = dot(s, s).values
    dot_term = dot(grad_rho, s).values
    denom = (p.mass * safe) ** 2
    full = np.where(mask, 0.0, (grad_sq * s_sq - dot_term**2) / denom)
    reduced = np.where(mask, 0.0, s_sq * grad_sq / denom)
    return full, reduced, float(np.max(np.abs(dot_term)))


def ref_koenig_energy(psi, potential, p, chi, backend):
    grid = psi.grid
    if isinstance(psi, SpinorField):
        rho = ref_spinor_density(psi)
        rho_p = ref_convective_bilinear(psi, p, backend)
        spin_cur = ref_spin_current(psi, p, backend)
    else:
        rho = psi.values.real**2 + psi.values.imag**2
        rho_p = np.zeros((3,) + grid.shape)
        for axis in range(grid.dims):
            dpsi = ref_axis_derivative(psi.values, grid, axis, backend)
            rho_p[axis] = p.hbar * (np.conj(psi.values) * dpsi).imag
        s_const = np.array([0.0, 0.0, p.hbar / 2.0]) if chi is None else spin_vector(chi, p)
        grad_rho = ref_grad_rho(rho, grid, backend)
        spin_cur = np.empty((3,) + grid.shape)
        spin_cur[0] = grad_rho[1] * s_const[2] - grad_rho[2] * s_const[1]
        spin_cur[1] = grad_rho[2] * s_const[0] - grad_rho[0] * s_const[2]
        spin_cur[2] = grad_rho[0] * s_const[1] - grad_rho[1] * s_const[0]
        spin_cur /= p.mass
    mask = node_mask(rho)
    safe = np.where(mask, 1.0, rho)
    vol = grid.cell_volume
    p_sq_rho = np.einsum("c...,c...->...", rho_p, rho_p) / safe
    translational = float(np.sum(np.where(mask, 0.0, p_sq_rho)) * vol / (2.0 * p.mass))
    grad_rho_sq = np.zeros(grid.shape)
    for axis in range(grid.dims):
        d = ref_axis_derivative(rho, grid, axis, backend)
        grad_rho_sq = grad_rho_sq + d * d
    internal = float(
        np.sum(np.where(mask, 0.0, grad_rho_sq / safe)) * vol * p.hbar * p.hbar / (8.0 * p.mass)
    )
    zbw_density = np.einsum("c...,c...->...", spin_cur, spin_cur) / safe
    internal_zbw = float(np.sum(np.where(mask, 0.0, zbw_density)) * vol * p.mass / 2.0)
    pot = 0.0 if potential is None else float(np.sum(rho * potential.values) * vol)
    return translational, internal, pot, translational + internal + pot, internal_zbw


def ref_stationary(psi, energy, coeff, backend):
    return np.abs(-coeff * ref_laplacian(psi.values, psi.grid, backend) - energy * psi.values)


# ---------------------------------------------------------------------------
# inputs


def scalar_state(dims: int, nodes: bool) -> ComplexField:
    psi = random_smooth_state(GRIDS[dims], 3 + dims)
    if not nodes:
        return psi
    values = psi.values.copy()
    n = values.shape[0]
    values[n // 4 : n // 4 + max(n // 6, 2)] = 0.0
    return ComplexField(psi.grid, values)


def spinor_state(dims: int, nodes: bool) -> SpinorField:
    psi = random_spinor_field(GRIDS[dims], 20 + dims)
    if not nodes:
        return psi
    values = psi.values.copy()
    n = values.shape[1]
    values[:, n // 4 : n // 4 + max(n // 6, 2)] = 0.0
    return SpinorField(psi.grid, values)


def triple_of(psi: ComplexField):
    return (
        ComplexField(psi.grid, psi.values * np.exp(0.011j)),
        psi,
        ComplexField(psi.grid, psi.values * np.exp(-0.013j) * 1.002),
    )


def uniform_a(grid: Grid) -> VectorField:
    return VectorField(grid, np.stack([np.full(grid.shape, c) for c in (0.3, -0.2, 0.5)]))


CASES = [
    pytest.param(dims, backend, nodes, id=f"{dims}d-{backend}-{'nodes' if nodes else 'smooth'}")
    for dims in (1, 2, 3)
    for backend in ("spectral", "fd2")
    for nodes in (False, True)
]


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


pytestmark = pytest.mark.filterwarnings("ignore:wavefunction norm:RuntimeWarning")


# ---------------------------------------------------------------------------
# complex spectral cores, which transform in place in one owned buffer


@pytest.mark.parametrize(
    "grid",
    [*GRIDS.values(), Grid((32, 24, 24), (7.0, 6.0, 5.0))],  # the last one above numpy's 256 KiB elision size
    ids=["1d", "2d", "3d", "3d-large"],
)
def test_complex_spectral_cores_match_reference(grid):
    values = random_smooth_state(grid, 11).values
    for axis in range(grid.dims):
        assert same(_axis_derivative(values, grid, axis, "spectral"), ref_axis_derivative(values, grid, axis, "spectral"))
    assert same(_laplacian_values(values, grid, "spectral"), ref_laplacian(values, grid, "spectral"))


def complex_layout(rng, shape, layout):
    """Random complex values of `shape`, held as a contiguous array, as a view
    with stride 2 along every axis, or as one component of a spinor array.
    Magnitudes span many binades, so that a rounding difference would show."""

    def draw(full):
        scale = 2.0 ** rng.integers(-40, 40, full)
        return scale * (rng.standard_normal(full) + 1j * rng.standard_normal(full))

    if layout == "strided":
        return draw(tuple(2 * n + 1 for n in shape))[tuple(slice(1, None, 2) for _ in shape)]
    if layout == "spinor":
        return draw((2,) + shape)[int(rng.integers(2))]
    return draw(shape)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
    c_layout=st.sampled_from(["contiguous", "strided", "spinor"]),
    d_layout=st.sampled_from(["contiguous", "strided", "spinor"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_conj_product_is_the_whole_array_product(shape, c_layout, d_layout, seed):
    # slab by slab, conj(c) d must round as the whole-array product does,
    # odd sizes and one-element slabs included: an in-place product of one
    # element takes numpy's scalar loop, which rounds differently
    rng = np.random.default_rng(seed)
    c, d = complex_layout(rng, shape, c_layout), complex_layout(rng, shape, d_layout)
    c_before = c.copy()
    want = np.multiply(np.conj(c), d)
    got = _conj_product(c, d)
    assert got is d
    assert same(np.ascontiguousarray(got), want)
    assert same(c, c_before)


# ---------------------------------------------------------------------------
# scalar quantities


@pytest.mark.parametrize("dims, backend, nodes", CASES)
@pytest.mark.parametrize("shared", [False, True], ids=["fields", "jet"])
def test_scalar_quantities_match_reference(dims, backend, nodes, shared):
    psi = scalar_state(dims, nodes)
    if nodes:
        assert np.any(node_mask(np.abs(psi.values) ** 2))
    state = _Jet(psi, PARAMS, backend) if shared else psi
    rho_arg = state if shared else RealField(psi.grid, psi.values.real**2 + psi.values.imag**2)

    md = decompose(state, PARAMS, backend)
    rho, phase, momentum, mask = ref_decompose(psi, PARAMS, backend)
    assert same(md.rho.values, rho) and same(md.phase.values, phase)
    assert same(md.momentum.values, momentum) and same(md.node_mask, mask)

    qp = quantum_potential(rho_arg, PARAMS, backend)
    q_sqrt, q_log = ref_quantum_potential(RealField(psi.grid, rho), PARAMS, backend)
    assert same(qp.q.values, q_sqrt) and same(qp.q_log_form.values, q_log)

    ref_rho = RealField(psi.grid, rho)
    assert same(
        internal_kinetic_density(rho_arg, PARAMS, backend).values,
        ref_internal_kinetic_density(ref_rho, PARAMS, backend),
    )
    assert same(zbw_speed(rho_arg, PARAMS, backend).values, ref_zbw_speed(ref_rho, PARAMS, backend))
    assert same(
        zbw_velocity_uniform(rho_arg, S_CONST, PARAMS, backend).values,
        ref_zbw_velocity_uniform(ref_rho, S_CONST, PARAMS, backend),
    )

    s = VectorField(psi.grid, np.stack([np.full(psi.grid.shape, c) for c in S_CONST]))
    vsq = vsq_from_spin(rho_arg, s, PARAMS, backend)
    full, reduced, gate = ref_vsq_from_spin(ref_rho, s, PARAMS, backend)
    assert same(vsq.full.values, full) and same(vsq.reduced.values, reduced)
    assert vsq.gate_residual == gate

    for chi in (None, constant_spinor(0.9, 2.1)):
        budget = koenig_energy(state, None, PARAMS, chi=chi, backend=backend)
        want = ref_koenig_energy(psi, None, PARAMS, chi, backend)
        got = (budget.translational, budget.internal, budget.potential, budget.total, budget.internal_zbw)
        assert same(got, want)


@pytest.mark.parametrize("dims, backend, nodes", CASES)
@pytest.mark.parametrize("shared", [False, True], ids=["fields", "jet"])
def test_residuals_match_reference(dims, backend, nodes, shared):
    psi = scalar_state(dims, nodes)
    triple = triple_of(psi)
    if shared:
        triple = (triple[0], _Jet(psi, PARAMS, backend), triple[2])
    dt = 1e-3
    u = RealField(psi.grid, 0.5 * sum(x * x for x in psi.grid.coords()))
    ref_triple = triple_of(psi)

    hj = hj_residual(triple, dt, u, PARAMS, backend)
    coeff = (PARAMS.hbar * PARAMS.hbar) / (4.0 * PARAMS.mass)
    assert same(hj.values.values, ref_hj_residual(ref_triple, dt, u, PARAMS, backend, coeff))

    for s_mag in (None, 0.41):
        spin_hj = spin_hj_residual(triple, dt, u, PARAMS, s_mag=s_mag, backend=backend)
        s = PARAMS.hbar / 2.0 if s_mag is None else s_mag
        want = ref_hj_residual(ref_triple, dt, u, PARAMS, backend, (s * s) / PARAMS.mass)
        assert same(spin_hj.values.values, want)

    ct = continuity_residual(triple, dt, PARAMS, backend)
    assert same(ct.values.values, ref_continuity_residual(ref_triple, dt, PARAMS, backend))

    lag = lagrangian_density(triple, dt, u, PARAMS, backend)
    base, koenig = ref_lagrangian_density(ref_triple, dt, u, PARAMS, backend)
    assert same(lag.density.values, base) and same(lag.density_koenig.values, koenig)


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("backend", ["spectral", "fd2"])
def test_stationary_residuals_match_reference(dims, backend):
    psi = scalar_state(dims, False)
    res = stationary_residual(psi, 0.37, PARAMS, backend)
    coeff = PARAMS.hbar * PARAMS.hbar / (2.0 * PARAMS.mass)
    assert same(res.values, ref_stationary(psi, 0.37, coeff, backend))
    for s_mag in (None, 0.41):
        res = spin_schrodinger_residual(psi, 0.37, PARAMS, s_mag=s_mag, backend=backend)
        s = PARAMS.hbar / 2.0 if s_mag is None else s_mag
        assert same(res.values, ref_stationary(psi, 0.37, 2.0 * s * s / PARAMS.mass, backend))


# ---------------------------------------------------------------------------
# spinor quantities


@pytest.mark.parametrize("dims, backend, nodes", CASES)
@pytest.mark.parametrize("shared", [False, True], ids=["fields", "jet"])
@pytest.mark.parametrize("with_a", [False, True], ids=["no-A", "uniform-A"])
def test_spinor_quantities_match_reference(dims, backend, nodes, shared, with_a):
    psi = spinor_state(dims, nodes)
    a = uniform_a(psi.grid) if with_a else None
    state = _Jet(psi, PARAMS, backend) if shared else psi

    sv = spin_density(state, PARAMS)
    s, rho, mask = ref_spin_density(psi, PARAMS)
    assert same(sv.s.values, s) and same(sv.rho.values, rho) and same(sv.node_mask, mask)

    current = pauli_current(state, PARAMS, a, backend)
    want = ref_pauli_current(psi, PARAMS, a, backend)
    got = (current.total, current.convective, current.diamagnetic, current.spin)
    assert all(same(g.values, w) for g, w in zip(got, want))

    decomp = velocity_decomposition(state, PARAMS, a, backend)
    want = ref_velocity_decomposition(psi, PARAMS, a, backend)
    got = (decomp.drift, decomp.zbw, decomp.total, decomp.momentum, decomp.spin_current)
    assert all(same(g.values, w) for g, w in zip(got, want[:5]))
    assert same(decomp.node_mask, want[5])

    hest = hestenes_residual(sv.rho, sv.s, backend)
    div_vals, dot_vals, div_w, dot_w = ref_hestenes_residual(RealField(psi.grid, rho), VectorField(psi.grid, s), backend)
    assert same(hest.div_rho_s.values, div_vals) and same(hest.grad_rho_dot_s.values, dot_vals)
    assert (hest.div_weighted, hest.dot_weighted) == (div_w, dot_w)

    u = RealField(psi.grid, 0.5 * sum(x * x for x in psi.grid.coords()))
    budget = koenig_energy(state, u, PARAMS, backend=backend)
    got = (budget.translational, budget.internal, budget.potential, budget.total, budget.internal_zbw)
    assert same(got, ref_koenig_energy(psi, u, PARAMS, None, backend))


@pytest.mark.parametrize("dims, backend, nodes", CASES)
@pytest.mark.parametrize("with_a", [False, True], ids=["no-A", "uniform-A"])
def test_spin_split_matches_the_separate_calls(dims, backend, nodes, with_a):
    """`spin_split` frees intermediates as it goes, builds the Pauli total
    in one buffer and the consistency gap one component at a time; what it
    returns equals the public calls made one by one, each on the spinor
    field itself."""
    psi = scalar_state(dims, nodes)
    chi = constant_spinor(0.8, 0.3)
    a = uniform_a(psi.grid) if with_a else None
    split = spin_split(psi, chi, PARAMS, a, backend)

    spinor = attach_spinor(psi, chi)
    sv = spin_density(spinor, PARAMS)
    current = pauli_current(spinor, PARAMS, a, backend).total
    decomp = velocity_decomposition(spinor, PARAMS, a, backend)
    hest = hestenes_residual(sv.rho, sv.s, backend)
    consistency = np.max(np.abs(rho_total_current(decomp, sv.rho).values - current.values))

    assert same(split.spin.s.values, sv.s.values) and same(split.spin.rho.values, sv.rho.values)
    assert same(split.spin.node_mask, sv.node_mask) and same(split.spin.node_mask, decomp.node_mask)
    assert bool(np.any(decomp.node_mask)) == nodes
    assert same(split.current.values, current.values)
    for name in ("drift", "zbw", "total", "spin_current"):
        assert same(getattr(split, name).values, getattr(decomp, name).values), name
    assert same(split.consistency, consistency)
    assert same(split.hestenes.div_rho_s.values, hest.div_rho_s.values)
    assert same(split.hestenes.grad_rho_dot_s.values, hest.grad_rho_dot_s.values)
    for name in ("div_max", "div_weighted", "dot_max", "dot_weighted"):
        assert same(getattr(split.hestenes, name), getattr(hest, name)), name


def test_jet_is_rebuilt_for_other_settings():
    psi = scalar_state(2, False)
    jet = _Jet(psi, PARAMS, "spectral")
    md_fd2 = decompose(jet, PARAMS, "fd2")
    assert same(md_fd2.momentum.values, ref_decompose(psi, PARAMS, "fd2")[2])
    other = PhysicalParams(hbar=1.9, mass=0.4)
    md_other = decompose(jet, other, "spectral")
    assert same(md_other.momentum.values, ref_decompose(psi, other, "spectral")[2])


def test_spinor_and_scalar_jet_densities_stay_apart():
    """For psi with a constant spinor attached, the spinor jet's density is the
    einsum psi^dag psi and the scalar jet's is |psi|^2; they round differently."""
    psi = scalar_state(2, True)
    spinor = attach_spinor(psi, constant_spinor(0.8, 0.3))
    jet = _Jet(spinor, PARAMS, "spectral")
    assert same(jet.rho, ref_spinor_density(spinor))
    assert same(_Jet(psi, PARAMS, "spectral").rho, psi.values.real**2 + psi.values.imag**2)


def test_dropped_intermediates_are_freed_and_recomputed():
    spinor = attach_spinor(scalar_state(3, False), constant_spinor(0.8, 0.3))
    jet = _Jet(spinor, PARAMS, "spectral")
    rho_s, spin_current = jet.rho_s.copy(), jet.spin_current
    jet.drop("rho_s", "lap_rho")  # one cached, one never computed
    assert "rho_s" not in vars(jet) and jet.spin_current is spin_current
    assert same(jet.rho_s, rho_s)


def test_dropped_state_leaves_the_cached_intermediates():
    spinor = attach_spinor(scalar_state(2, False), constant_spinor(0.8, 0.3))
    jet = _Jet(spinor, PARAMS, "spectral")
    momentum = jet.momentum
    jet.drop("state", "current")
    assert "state" not in vars(jet) and "current" not in vars(jet)
    assert jet.momentum is momentum
    with pytest.raises(AttributeError):
        jet.spin_current  # needs rho s, which needs the state


# ---------------------------------------------------------------------------
# per-state rules: backend check, zero-density guard, trajectory table


def decompose_table(source, mode, spin, p, backend):
    """The velocity table built through `decompose`, one call per snapshot."""
    states = source.states if hasattr(source, "states") else [source]
    times = source.times if hasattr(source, "states") else np.array([0.0])
    velocities, densities = [], []
    for state in states:
        md = decompose(state, p, backend)
        v = md.momentum.values / p.mass
        if mode == "total":
            v = v + zbw_velocity_uniform(state, spin, p, backend).values
        velocities.append(v)
        densities.append(md.rho.values)
    return _VelocityTable(state.grid, times, velocities, densities), times


def small_series(psi: ComplexField):
    norm = np.sqrt(np.sum(np.abs(psi.values) ** 2) * psi.grid.cell_volume)
    start = ComplexField(psi.grid, psi.values / norm)
    return propagate(start, EvolutionConfig(dt=2e-3, steps=6, snapshot_stride=2, params=PARAMS))


def faint_node_state(dims: int) -> ComplexField:
    """A band of `scalar_state` scaled by 1e-7: masked, but with a nonzero
    current there, so an unmasked divide would show."""
    psi = scalar_state(dims, False)
    values = psi.values.copy()
    n = values.shape[0]
    values[n // 4 : n // 4 + max(n // 6, 2)] *= 1e-7
    return ComplexField(psi.grid, values)


@pytest.mark.parametrize("backend", ["spectral", "fd2"])
@pytest.mark.parametrize("nodes", [False, True], ids=["smooth", "nodes"])
@pytest.mark.parametrize("mode", ["drift", "total"])
@pytest.mark.parametrize("series", [False, True], ids=["static", "series"])
def test_build_table_matches_decompose_reference(backend, nodes, mode, series):
    psi = faint_node_state(2) if nodes else scalar_state(2, False)
    source = small_series(psi) if series else psi
    spin = S_CONST if mode == "total" else None
    got, got_times = _build_table(source, mode, spin, PARAMS, backend, 1)
    want, want_times = decompose_table(source, mode, spin, PARAMS, backend)
    if nodes and not series:
        mask = node_mask(np.abs(psi.values) ** 2)
        assert np.any(mask) and np.all(_Jet(psi, PARAMS, backend).current[:2, mask] != 0.0)
    assert same(got_times, want_times)
    assert got.live == want.live
    assert same(got.thresholds, want.thresholds)
    assert same(got._window, want._window)


def test_advect_rejects_all_zero_state():
    zero = ComplexField(GRIDS[1], np.zeros(GRIDS[1].shape, dtype=complex))
    with pytest.raises(ValueError, match="^wavefunction is identically zero$"):
        advect(np.array([[0.5]]), zero, duration=1.0, rk_steps=2)


ZERO_STATES = [
    pytest.param(RealField(GRIDS[2], np.zeros(GRIDS[2].shape)), "density", id="real"),
    pytest.param(ComplexField(GRIDS[2], np.zeros(GRIDS[2].shape, dtype=complex)), "wavefunction", id="complex"),
    pytest.param(
        SpinorField(GRIDS[2], np.zeros((2,) + GRIDS[2].shape, dtype=complex)), "spinor wavefunction", id="spinor"
    ),
]


@pytest.mark.parametrize("state, kind", ZERO_STATES)
def test_nonzero_names_the_state(state, kind):
    jet = _Jet(state, PARAMS, "spectral")
    with pytest.raises(ValueError, match=f"^{kind} is identically zero$"):
        jet.nonzero()
    live = _Jet(scalar_state(2, True), PARAMS, None)
    assert live.nonzero() is live


def test_public_functions_share_the_zero_guard():
    real, scalar, spinor = (p.values[0] for p in ZERO_STATES)
    cases = [
        (lambda: decompose(scalar, PARAMS), "wavefunction"),
        (lambda: quantum_potential(real, PARAMS), "density"),
        (lambda: spin_density(spinor, PARAMS), "spinor wavefunction"),
        (lambda: velocity_decomposition(spinor, PARAMS), "spinor wavefunction"),
        (lambda: koenig_energy(scalar, None, PARAMS), "wavefunction"),
        (lambda: koenig_energy(spinor, None, PARAMS), "spinor wavefunction"),
    ]
    for call, kind in cases:
        with pytest.raises(ValueError, match=f"^{kind} is identically zero$"):
            call()


def test_every_backend_taking_function_checks_it():
    psi = scalar_state(2, False)
    spinor = spinor_state(2, False)
    rho = RealField(psi.grid, np.abs(psi.values) ** 2)
    s = VectorField(psi.grid, np.zeros((3,) + psi.grid.shape))
    calls = [
        lambda b: decompose(psi, PARAMS, b),
        lambda b: quantum_potential(rho, PARAMS, b),
        lambda b: internal_kinetic_density(rho, PARAMS, b),
        lambda b: zbw_speed(rho, PARAMS, b),
        lambda b: hj_residual(triple_of(psi), 0.01, None, PARAMS, b),
        lambda b: continuity_residual(triple_of(psi), 0.01, PARAMS, b),
        lambda b: lagrangian_density(triple_of(psi), 0.01, None, PARAMS, b),
        lambda b: pauli_current(spinor, PARAMS, None, b),
        lambda b: velocity_decomposition(spinor, PARAMS, None, b),
        lambda b: zbw_velocity_uniform(rho, S_CONST, PARAMS, b),
        lambda b: hestenes_residual(rho, s, b),
        lambda b: vsq_from_spin(rho, s, PARAMS, b),
        lambda b: koenig_energy(psi, None, PARAMS, backend=b),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            call("bogus")
    # a jet built for one backend is not reused for another
    with pytest.raises(ValueError, match="unknown backend"):
        decompose(_Jet(psi, PARAMS, "spectral"), PARAMS, "bogus")


# ---------------------------------------------------------------------------
# FFT counts of the CLI commands on a small 3D grid


FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


@pytest.fixture
def fft_calls(monkeypatch):
    """Count calls to the numpy.fft entry points, as the perfbench tracer does.
    The count is kept under a lock: the snapshot stream's worker thread makes
    the propagator's and the snapshot energies' calls."""
    counter = {"calls": 0}
    lock = threading.Lock()

    def wrap(fn):
        def counted(*args, **kwargs):
            with lock:
                counter["calls"] += 1
            return fn(*args, **kwargs)

        return counted

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, wrap(getattr(np.fft, name)))
    return counter


def _run(tmp_path, command, cfg, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / name)])


BASE_3D = {
    "grid": {"points": [12, 12, 12], "extent": [16.0, 16.0, 16.0]},
    "state": {"family": "gaussian", "sigma": [1.5, 1.5, 1.5]},
    "potential": {"family": "harmonic", "omega": 0.5},
}


EVOLVE_3D = dict(BASE_3D, evolution={"dt": 1e-3, "steps": 4, "snapshot_stride": 2, "residuals": True})


@pytest.mark.parametrize("command, calls", [("decompose", 16), ("spin", 36), ("evolve", 31)])
def test_cli_fft_counts(tmp_path, fft_calls, command, calls):
    """evolve makes 8 transforms for its 4 steps, one forward transform per
    snapshot for its energy (3) and 20 for its one residual triple; the last
    snapshot, which has no successor, is never differentiated."""
    code = _run(tmp_path, command, EVOLVE_3D if command == "evolve" else BASE_3D, command)
    assert code in (0, 3)  # the isotropic 3D Gaussian violates grad(rho).s = 0
    assert fft_calls["calls"] == calls


@pytest.mark.parametrize("backend", ["spectral", "fd2"])
def test_spin_command_peak(tmp_path, backend):
    """Traced peak of `spin` at 32^3 in real fields of the grid.  The
    command's `spin_split` frees psi once the spinor is built, the Pauli
    current's convective and spin parts at once, rho s once curl(rho s) is
    cached, and the spinor's state and current once the momentum is cached;
    the peak is in its Hestenes check.  Holding every intermediate until the
    end measured 50.4 (spectral) and 47.3 (fd2); the command freeing them
    itself, with the spinor's state and current alive through the velocity
    split, 32.7 and 31.7; the split 30.4 and 29.3; with the spinor density
    an owned real array, 29.5 and 28.3."""
    cfg = dict(BASE_3D, grid={"points": [32, 32, 32], "extent": [16.0, 16.0, 16.0]})
    path = tmp_path / "spin.json"
    path.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        code = cli.main(["spin", "--config", str(path), "--out", str(tmp_path / "out"), "--backend", backend])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3  # the isotropic 3D Gaussian violates grad(rho).s = 0
    assert peak <= 40 * 8 * 32**3


def test_evolve_residual_triple_fft_count(tmp_path, fft_calls):
    """One residual triple costs 20 transforms, all on the middle snapshot:
    its current (6), grad rho (6), lap rho (2) and flux divergence (6)."""
    evolution = {"dt": 1e-3, "steps": 2, "snapshot_stride": 1}
    assert _run(tmp_path, "evolve", dict(BASE_3D, evolution=evolution), "plain") == 0
    plain = fft_calls["calls"]
    fft_calls["calls"] = 0
    with_residuals = dict(BASE_3D, evolution=dict(evolution, residuals=True))
    assert _run(tmp_path, "evolve", with_residuals, "residuals") == 0
    assert fft_calls["calls"] - plain == 20
