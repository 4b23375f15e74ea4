"""Hydrodynamic decomposition checks against closed forms.

For a Gaussian density exp(-x^2/2s^2) the quantum potential is
(hbar^2/4ms^2)(1 - x^2/2s^2) and the circulation speed is (hbar/2ms^2)|x|;
for the oscillator ground state Q + U is the flat eigenvalue.  The
finite-difference equation residuals vanish on analytic snapshot triples up
to the O(dt^2) phase-rate error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzbw import (
    ComplexField,
    Grid,
    PhysicalParams,
    continuity_residual,
    decompose,
    gaussian,
    harmonic_ground,
    harmonic_potential,
    hj_residual,
    integrate,
    lagrangian_density,
    plane_wave,
    quantum_potential,
    zbw_speed,
)
from mzbw.fields import RealField


def resolved_region(grid, rho, frac=1e-6):
    return rho >= frac * np.max(rho)


def analytic_triple(psi, energy, dt):
    """Snapshots of a stationary state at t = -dt, 0, dt."""
    grid = psi.grid
    states = []
    for t in (-dt, 0.0, dt):
        states.append(ComplexField(grid, psi.values * np.exp(-1j * energy * t)))
    return tuple(states)


class TestDecompose:
    def test_plane_wave(self, params):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 3 / 8.0
        md = decompose(plane_wave(grid, k), params)
        np.testing.assert_allclose(md.rho.values, 1.0 / 8.0, rtol=1e-13)
        np.testing.assert_allclose(md.momentum.values[0], k, atol=1e-11)
        assert not md.node_mask.any()

    def test_boosted_gaussian_momentum_is_uniform(self, params):
        grid = Grid((256,), (40.0,))
        md = decompose(gaussian(grid, boost=1.0), params)
        live = ~md.node_mask
        assert np.max(np.abs(md.momentum.values[0][live] - 1.0)) < 1e-6
        x = grid.axes[0]
        core = np.abs(x) < 5.0
        assert np.max(np.abs(md.momentum.values[0][core] - 1.0)) < 1e-10

    def test_polar_form_reconstructs_state(self, params):
        grid = Grid((256,), (40.0,))
        psi = gaussian(grid, boost=0.7)
        md = decompose(psi, params)
        rebuilt = np.sqrt(md.rho.values) * np.exp(1j * md.phase.values / params.hbar)
        assert np.max(np.abs(rebuilt - psi.values)) < 1e-12

    def test_zero_state_rejected(self, params):
        grid = Grid((16,), (4.0,))
        with pytest.raises(ValueError, match="zero"):
            decompose(ComplexField(grid, np.zeros(16, dtype=complex)), params)

    def test_unnormalized_state_warns(self, params):
        grid = Grid((64,), (20.0,))
        psi = gaussian(grid)
        doubled = ComplexField(grid, 2.0 * psi.values)
        with pytest.warns(RuntimeWarning, match="norm"):
            decompose(doubled, params)

    @given(alpha=st.floats(min_value=-3.1, max_value=3.1))
    @settings(max_examples=25, deadline=None)
    def test_momentum_is_gauge_invariant(self, alpha):
        # compare where the density resolves; dividing by tail densities
        # amplifies the transform roundoff of the constant-phase factor
        params = PhysicalParams()
        grid = Grid((128,), (30.0,))
        psi = gaussian(grid, boost=0.5)
        shifted = ComplexField(grid, psi.values * np.exp(1j * alpha))
        md0 = decompose(psi, params)
        md1 = decompose(shifted, params)
        region = resolved_region(grid, md0.rho.values)
        assert np.max(np.abs(md1.momentum.values[0] - md0.momentum.values[0])[region]) < 1e-9
        flux0 = md0.rho.values * md0.momentum.values[0]
        flux1 = md1.rho.values * md1.momentum.values[0]
        assert np.max(np.abs(flux1 - flux0)) < 1e-13 * np.max(np.abs(flux0))


class TestQuantumPotential:
    def test_gaussian_closed_form(self, params):
        grid = Grid((256,), (40.0,))
        md = decompose(gaussian(grid), params)
        qp = quantum_potential(md.rho, params)
        x = grid.axes[0]
        core = np.abs(x) < 5.0
        exact = 0.25 * (1.0 - 0.5 * x * x)
        assert np.max(np.abs(qp.q.values[core] - exact[core])) < 1e-10

    def test_oscillator_ground_state_is_on_shell(self, params):
        # Q + U must equal the eigenvalue hbar*omega/2 wherever rho resolves
        grid = Grid((256,), (40.0,))
        psi = harmonic_ground(grid)
        md = decompose(psi, params)
        qp = quantum_potential(md.rho, params)
        u = harmonic_potential(grid).values
        x = grid.axes[0]
        core = np.abs(x) < 4.0
        assert np.max(np.abs(qp.q.values[core] + u[core] - 0.5)) < 1e-8

    def test_two_forms_agree_on_resolved_region(self, params):
        grid = Grid((128, 128), (20.0, 20.0))
        md = decompose(gaussian(grid), params)
        qp = quantum_potential(md.rho, params)
        region = resolved_region(grid, md.rho.values)
        err = np.max(np.abs(qp.q.values[region] - qp.q_log_form.values[region]))
        assert err < 1e-8 * np.max(np.abs(qp.q.values[region]))

    def test_negative_density_rejected(self, params):
        grid = Grid((16,), (4.0,))
        values = np.ones(16)
        values[3] = -0.1
        with pytest.raises(ValueError, match="non-negative"):
            quantum_potential(RealField(grid, values), params)


class TestInternalKinematics:
    def test_zbw_speed_gaussian(self, params):
        grid = Grid((256,), (40.0,))
        md = decompose(gaussian(grid), params)
        speed = zbw_speed(md.rho, params)
        x = grid.axes[0]
        core = np.abs(x) < 5.0
        assert np.max(np.abs(speed.values[core] - 0.5 * np.abs(x[core]))) < 1e-8

    def test_internal_energy_density_gaussian(self, params):
        # the internal kinetic energy density m V^2 / 2 = (hbar^2/8m)(grad rho/rho)^2
        grid = Grid((256,), (40.0,))
        md = decompose(gaussian(grid), params)
        density = 0.5 * params.mass * zbw_speed(md.rho, params).values ** 2
        x = grid.axes[0]
        core = np.abs(x) < 5.0
        assert np.max(np.abs(density[core] - x[core] ** 2 / 8.0)) < 1e-8
        energy = integrate(RealField(grid, density * md.rho.values))
        assert energy == pytest.approx(0.125, abs=1e-10)

    def test_internal_density_is_half_m_vsq(self, params):
        # a frozen real state has no phase rate and no current, so each
        # Lagrangian form is -internal * rho: (hbar^2/8m)(grad rho/rho)^2 in
        # `density`, m V^2 / 2 in `density_koenig`
        grid = Grid((128,), (30.0,))
        psi = gaussian(grid, sigma=1.3)
        md = decompose(psi, params)
        lag = lagrangian_density((psi, psi, psi), 1e-3, None, params)
        other = 0.5 * params.mass * zbw_speed(md.rho, params).values ** 2 * md.rho.values
        for form in (lag.density, lag.density_koenig):
            assert np.max(np.abs(form.values + other)) < 1e-12 * np.max(other)


class TestResiduals:
    def test_oscillator_triple(self, params):
        grid = Grid((256,), (40.0,))
        psi = harmonic_ground(grid)
        pot = harmonic_potential(grid)
        dt = 1e-3
        res = hj_residual(analytic_triple(psi, 0.5, dt), dt, pot, params)
        rho = np.abs(psi.values) ** 2
        region = resolved_region(grid, rho)
        # phase-rate bias is E(E dt)^2/6 ~ 2e-8 on the resolved region; the
        # unresolved tail divides roundoff by vanishing density
        assert np.max(np.abs(res.values.values[region])) < 1e-7

    def test_plane_wave_triple(self, params):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 3 / 8.0
        energy = 0.5 * k * k
        psi = plane_wave(grid, k)
        dt = 1e-3
        triple = analytic_triple(psi, energy, dt)
        hj = hj_residual(triple, dt, None, params)
        assert np.max(np.abs(hj.values.values)) < 1e-6
        cont = continuity_residual(triple, dt, params)
        assert np.max(np.abs(cont.values.values)) < 1e-13

    def test_evolved_triples(self, residual_triples, params):
        triple = residual_triples[1e-3]
        hj = hj_residual(triple, 1e-3, None, params)
        rho = np.abs(triple[1].values) ** 2
        region = resolved_region(triple[1].grid, rho)
        assert np.max(np.abs(hj.values.values[region])) < 1e-5
        cont = continuity_residual(triple, 1e-3, params)
        assert np.max(np.abs(cont.values.values[region])) < 1e-5

    def test_aliased_phase_step_rejected(self, params):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 3 / 8.0
        energy = 0.5 * k * k
        psi = plane_wave(grid, k)
        dt = np.pi / energy  # one half-turn of phase per snapshot
        with pytest.raises(ValueError, match="phase jump"):
            hj_residual(analytic_triple(psi, energy, dt), dt, None, params)

    def test_bad_spacing_rejected(self, params):
        grid = Grid((64,), (8.0,))
        psi = plane_wave(grid, 2.0 * np.pi / 8.0)
        triple = analytic_triple(psi, 0.3, 1e-3)
        with pytest.raises(ValueError, match="positive"):
            hj_residual(triple, -1e-3, None, params)

    def test_mismatched_grids_rejected(self, params):
        a = plane_wave(Grid((64,), (8.0,)), 2.0 * np.pi / 8.0)
        b = plane_wave(Grid((32,), (8.0,)), 2.0 * np.pi / 8.0)
        with pytest.raises(ValueError, match="grid"):
            hj_residual((a, b, a), 1e-3, None, params)


class TestLagrangian:
    def test_plane_wave_vanishes_pointwise(self, params):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 3 / 8.0
        energy = 0.5 * k * k
        dt = 1e-3
        lag = lagrangian_density(
            analytic_triple(plane_wave(grid, k), energy, dt), dt, None, params
        )
        assert np.max(np.abs(lag.density.values)) < 1e-8
        assert np.max(np.abs(lag.density_koenig.values)) < 1e-8

    def test_oscillator_closed_form(self, params):
        # the internal term replaces Q, so on shell the density is
        # (E - x^2) rho rather than zero; its integral still vanishes
        # because <x^2> = E for the ground state
        grid = Grid((256,), (40.0,))
        psi = harmonic_ground(grid)
        pot = harmonic_potential(grid)
        dt = 1e-3
        lag = lagrangian_density(analytic_triple(psi, 0.5, dt), dt, pot, params)
        rho = np.abs(psi.values) ** 2
        x = grid.axes[0]
        exact = (0.5 - x * x) * rho
        assert np.max(np.abs(lag.density.values - exact)) < 1e-6
        assert abs(integrate(lag.density)) < 1e-6

    def test_two_internal_forms_agree(self, params):
        grid = Grid((128,), (30.0,))
        psi = gaussian(grid, sigma=1.2, boost=0.4)
        dt = 1e-3
        energy = 0.5 * 0.4**2 + 1.0 / (8.0 * 1.2**2)
        lag = lagrangian_density(analytic_triple(psi, energy, dt), dt, None, params)
        scale = np.max(np.abs(lag.density.values))
        diff = np.max(np.abs(lag.density.values - lag.density_koenig.values))
        assert diff < 1e-12 * scale
