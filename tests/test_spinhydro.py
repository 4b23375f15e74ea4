"""Spin hydrodynamics: the local spin vector, the Pauli current split, the
circulation velocity routes, the constraint residuals, and the kinetic energy
budget.

Closed forms used throughout: a sigma=1 Gaussian density has grad(rho) =
-x rho, so the spin-up circulation velocity in 2D is (hbar/2m)(-y, x) and the
internal energy of a 1D packet is hbar^2/(8 m sigma^2) = 0.125.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzbw import (
    Grid,
    PhysicalParams,
    VectorField,
    attach_spinor,
    constant_spinor,
    cross,
    divergence,
    gaussian,
    gradient,
    harmonic_ground,
    harmonic_potential,
    hestenes_residual,
    hj_residual,
    koenig_energy,
    pauli_current,
    plane_wave,
    quantum_potential,
    rho_total_current,
    spin_density,
    spin_hj_residual,
    spin_schrodinger_residual,
    spin_vector,
    stationary_residual,
    vsq_from_spin,
    velocity_decomposition,
    zbw_velocity_uniform,
    decompose,
    random_spinor_field,
)
from mzbw.fields import RealField

UP = constant_spinor(0.0)


def resolved(rho_values, frac=1e-6):
    return rho_values >= frac * np.max(rho_values)


class TestSpinDensity:
    def test_uniform_spinor_reproduces_bloch_vector(self, params):
        grid = Grid((64,), (20.0,))
        chi = constant_spinor(np.pi / 3, np.pi / 2)
        psi = attach_spinor(gaussian(grid), chi)
        sv = spin_density(psi, params)
        expected = spin_vector(chi)
        live = ~sv.node_mask
        for axis in range(3):
            assert np.max(np.abs(sv.s.values[axis][live] - expected[axis])) < 1e-13

    @given(
        theta=st.floats(min_value=0.0, max_value=np.pi),
        phi=st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_magnitude_is_half_hbar_everywhere(self, theta, phi):
        params = PhysicalParams()
        grid = Grid((32,), (12.0,))
        psi = attach_spinor(gaussian(grid, sigma=1.5), constant_spinor(theta, phi))
        sv = spin_density(psi, params)
        mag = np.sqrt(np.sum(sv.s.values**2, axis=0))
        live = ~sv.node_mask
        assert np.max(np.abs(mag[live] - 0.5)) < 1e-12

    def test_position_dependent_spinor_keeps_magnitude(self, params):
        # a single-component spinor field is fully polarized at every point,
        # so |s| = (hbar/2) wherever rho resolves even when the direction turns
        grid = Grid((48,), (12.0,))
        psi = random_spinor_field(grid, seed=11)
        sv = spin_density(psi, params)
        mag = np.sqrt(np.sum(sv.s.values**2, axis=0))
        region = resolved(sv.rho.values)
        assert np.max(np.abs(mag[region] - 0.5)) < 1e-11

    def test_zero_spinor_rejected(self, params):
        grid = Grid((16,), (4.0,))
        from mzbw.fields import SpinorField

        with pytest.raises(ValueError, match="zero"):
            spin_density(SpinorField(grid, np.zeros((2, 16), dtype=complex)), params)


class TestPauliCurrent:
    def test_spin_term_closed_form_2d(self, params):
        grid = Grid((128, 128), (20.0, 20.0))
        psi = attach_spinor(gaussian(grid), UP)
        cur = pauli_current(psi, params)
        x, y = grid.coords()
        rho = np.sum(np.abs(psi.values) ** 2, axis=0)
        exact = np.stack([-0.5 * y * rho, 0.5 * x * rho, np.zeros(grid.shape)])
        assert np.max(np.abs(cur.spin.values - exact)) < 1e-10
        # no drift: the packet is at rest
        assert np.max(np.abs(cur.convective.values)) < 1e-13

    def test_total_is_sum_of_parts(self, params):
        grid = Grid((64,), (20.0,))
        psi = attach_spinor(gaussian(grid, boost=0.8), constant_spinor(1.0, 0.7))
        a = VectorField(grid, np.tile(np.array([0.3, -0.2, 0.1])[:, None], (1, 64)))
        cur = pauli_current(psi, PhysicalParams(charge=2.0), vector_potential=a)
        total = cur.convective.values + cur.diamagnetic.values + cur.spin.values
        assert np.array_equal(cur.total.values, total)

    def test_absent_diamagnetic_term_is_a_zero_view(self, params):
        grid = Grid((16, 12), (8.0, 6.0))
        psi = attach_spinor(gaussian(grid, boost=(0.3, 0.2)), constant_spinor(0.9, 0.4))
        cur = pauli_current(psi, params)
        dia = cur.diamagnetic.values
        assert dia.shape == (3,) + grid.shape and not dia.flags.writeable
        assert not np.any(dia) and not np.any(np.signbit(dia))

    def test_diamagnetic_term(self):
        params = PhysicalParams(charge=2.0)
        grid = Grid((64,), (20.0,))
        psi = attach_spinor(gaussian(grid), UP)
        rho = np.sum(np.abs(psi.values) ** 2, axis=0)
        a = VectorField(grid, np.tile(np.array([0.3, -0.2, 0.1])[:, None], (1, 64)))
        cur = pauli_current(psi, params, vector_potential=a)
        exact = -(2.0 / 1.0) * a.values * rho
        assert np.max(np.abs(cur.diamagnetic.values - exact)) < 1e-15

    def test_spin_current_is_divergence_free(self, params):
        grid = Grid((96, 96), (20.0, 20.0))
        psi = attach_spinor(gaussian(grid, sigma=1.2, boost=(0.5, -0.3)), UP)
        cur = pauli_current(psi, params)
        div = divergence(cur.spin).values
        scale = np.max(np.sqrt(np.sum(cur.spin.values**2, axis=0)))
        assert np.max(np.abs(div)) < 1e-11 * scale

    def test_density_times_velocity_matches_current(self, params):
        grid = Grid((96, 96), (20.0, 20.0))
        psi = attach_spinor(gaussian(grid, boost=(0.4, 0.0)), UP)
        cur = pauli_current(psi, params)
        dec = velocity_decomposition(psi, params)
        rho = spin_density(psi, params).rho
        rebuilt = rho_total_current(dec, rho)
        scale = np.max(np.abs(cur.total.values))
        assert np.max(np.abs(rebuilt.values - cur.total.values)) < 1e-8 * scale


class TestVelocityDecomposition:
    def test_zbw_closed_form_2d(self, params):
        grid = Grid((128, 128), (20.0, 20.0))
        psi = attach_spinor(gaussian(grid), UP)
        dec = velocity_decomposition(psi, params)
        x, y = grid.coords()
        rho = np.sum(np.abs(psi.values) ** 2, axis=0)
        region = resolved(rho) & (x**2 + y**2 < 16.0)
        assert np.max(np.abs(dec.zbw.values[0] + 0.5 * y)[region]) < 1e-8
        assert np.max(np.abs(dec.zbw.values[1] - 0.5 * x)[region]) < 1e-8
        assert np.max(np.abs(dec.drift.values)[:, region].max()) < 1e-10

    def test_drift_is_boost_velocity(self, params):
        grid = Grid((256,), (40.0,))
        psi = attach_spinor(gaussian(grid, boost=1.3), UP)
        dec = velocity_decomposition(psi, params)
        rho = np.sum(np.abs(psi.values) ** 2, axis=0)
        region = resolved(rho)
        assert np.max(np.abs(dec.drift.values[0][region] - 1.3)) < 1e-9

    def test_curl_route_matches_uniform_cross_route(self, params):
        # for constant spin, curl(rho s) = grad(rho) x s; the two velocity
        # routes then agree to roundoff wherever the density resolves
        grid = Grid((256,), (40.0,))
        psi = attach_spinor(gaussian(grid), UP)
        dec = velocity_decomposition(psi, params)
        md = decompose(gaussian(grid), params)
        other = zbw_velocity_uniform(md.rho, spin_vector(UP), params)
        rho = md.rho.values
        region = resolved(rho)
        speed = np.sqrt(np.sum(dec.zbw.values**2, axis=0))
        diff = np.sqrt(np.sum((dec.zbw.values - other.values) ** 2, axis=0))
        scale = np.maximum(speed, 1e-13 * np.max(speed))
        assert np.max((diff / scale)[region]) < 1e-10

    def test_flux_routes_for_tilted_spin(self, params):
        # velocity-level division amplifies tail roundoff for spin components
        # that are not exact binary fractions, so compare at the flux level
        grid = Grid((256,), (40.0,))
        chi = constant_spinor(np.pi / 3, np.pi / 4)
        psi = attach_spinor(gaussian(grid), chi)
        dec = velocity_decomposition(psi, params)
        md = decompose(gaussian(grid), params)
        s_const = spin_vector(chi)
        grad_rho = gradient(md.rho)
        s_field = VectorField(grid, np.tile(s_const[:, None], (1, 256)))
        flux = cross(grad_rho, s_field).values / params.mass
        scale = np.max(np.abs(flux))
        assert np.max(np.abs(dec.spin_current.values - flux)) < 1e-12 * scale


class TestVsq:
    def test_planar_spin_up_closed_form(self, params):
        grid = Grid((128, 128), (20.0, 20.0))
        psi = attach_spinor(gaussian(grid), UP)
        sv = spin_density(psi, params)
        forms = vsq_from_spin(sv.rho, sv.s, params)
        # grad(rho).s is identically zero here, so the reduced form is exact
        assert forms.gate_residual == 0.0
        assert forms.reduced_valid
        x, y = grid.coords()
        r_sq = x**2 + y**2
        region = resolved(sv.rho.values) & (r_sq < 16.0)
        assert np.max(np.abs(forms.full.values - 0.25 * r_sq)[region]) < 1e-8
        assert np.array_equal(forms.full.values, forms.reduced.values)

    def test_in_plane_spin_fails_gate(self, params):
        # spin along the density gradient: the full form collapses to zero
        # and the reduced form is not asserted
        grid = Grid((256,), (40.0,))
        chi = constant_spinor(np.pi / 2, 0.0)
        psi = attach_spinor(gaussian(grid), chi)
        sv = spin_density(psi, params)
        forms = vsq_from_spin(sv.rho, sv.s, params)
        assert not forms.reduced_valid
        assert forms.gate_residual > 1e-2
        # the difference of the two large squares cancels to its roundoff
        # floor, thirteen orders below the (invalid) reduced form
        assert np.max(forms.full.values) < 1e-12
        assert np.max(forms.reduced.values) > 1.0


class TestHestenes:
    def test_planar_1d_with_tilted_normal_spin(self, params):
        # 1D density, spin in the y-z plane: both constraints vanish exactly
        grid = Grid((256,), (40.0,))
        chi = constant_spinor(1.0, np.pi / 2)
        psi = attach_spinor(gaussian(grid), chi)
        sv = spin_density(psi, params)
        res = hestenes_residual(sv.rho, sv.s)
        assert res.div_max < 1e-12
        assert res.dot_max < 1e-12

    def test_planar_2d_spin_up(self, params):
        grid = Grid((96, 96), (20.0, 20.0))
        psi = attach_spinor(gaussian(grid, sigma=1.4), UP)
        sv = spin_density(psi, params)
        res = hestenes_residual(sv.rho, sv.s)
        assert res.div_max < 1e-12
        assert res.dot_max < 1e-12

    def test_3d_violation_closed_form(self, params):
        # grad(rho).s = (hbar/2) d(rho)/dz = -(hbar/2) z rho for sigma=1
        grid = Grid((48, 48, 48), (18.0, 18.0, 18.0))
        psi = attach_spinor(gaussian(grid), UP)
        sv = spin_density(psi, params)
        res = hestenes_residual(sv.rho, sv.s)
        z = grid.coords()[2]
        expected = -0.5 * z * sv.rho.values
        assert np.max(np.abs(res.grad_rho_dot_s.values - expected)) < 1e-10
        assert res.dot_max > 0.5 * np.max(np.abs(expected))
        # div(rho s) = d(rho s_z)/dz picks up the same term
        assert res.div_max > 1e-3


class TestKoenigEnergy:
    def test_oscillator_budget(self, params):
        grid = Grid((256,), (40.0,))
        psi = harmonic_ground(grid)
        pot = harmonic_potential(grid)
        budget = koenig_energy(psi, pot, params)
        assert budget.translational == pytest.approx(0.0, abs=1e-10)
        assert budget.internal == pytest.approx(0.25, abs=1e-8)
        assert budget.potential == pytest.approx(0.25, abs=1e-8)
        assert budget.total == pytest.approx(0.5, abs=1e-8)
        assert budget.internal_zbw == pytest.approx(budget.internal, rel=1e-10)

    def test_boosted_packet_budget(self, params):
        grid = Grid((256,), (40.0,))
        psi = gaussian(grid, boost=2.0)
        budget = koenig_energy(psi, None, params)
        assert budget.translational == pytest.approx(2.0, abs=1e-8)
        assert budget.internal == pytest.approx(0.125, abs=1e-8)
        assert budget.potential == 0.0

    def test_internal_zbw_sees_only_transverse_spin(self, params):
        # the cross product keeps the spin component normal to grad(rho):
        # spins in the y-z plane of a 1D density all give the full internal
        # energy, while an in-plane component removes its share
        grid = Grid((256,), (40.0,))
        psi = gaussian(grid)
        up = koenig_energy(psi, None, params)
        assert up.internal_zbw == pytest.approx(up.internal, rel=1e-10)
        normal = koenig_energy(psi, None, params, chi=constant_spinor(1.1, np.pi / 2))
        assert normal.internal_zbw == pytest.approx(up.internal_zbw, rel=1e-12)
        theta = 1.1
        tilted = koenig_energy(psi, None, params, chi=constant_spinor(theta, 0.0))
        transverse = np.cos(theta) ** 2  # s_y^2 + s_z^2 at phi = 0, over |s|^2
        assert tilted.internal_zbw == pytest.approx(transverse * up.internal, rel=1e-9)

    def test_spinor_input_matches_scalar_route(self, params):
        grid = Grid((128,), (30.0,))
        chi = constant_spinor(0.9, 1.7)
        scalar = gaussian(grid, boost=0.6)
        from_spinor = koenig_energy(attach_spinor(scalar, chi), None, params)
        from_scalar = koenig_energy(scalar, None, params, chi=chi)
        assert from_spinor.translational == pytest.approx(from_scalar.translational, rel=1e-12)
        assert from_spinor.internal == pytest.approx(from_scalar.internal, rel=1e-12)
        assert from_spinor.internal_zbw == pytest.approx(from_scalar.internal_zbw, rel=1e-10)


class TestSpinEquations:
    def test_plane_wave_dispersion(self, params):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 3 / 8.0
        psi = plane_wave(grid, k)
        s_mag = params.hbar / 2.0
        energy = 2.0 * s_mag**2 * k**2 / params.mass
        res = spin_schrodinger_residual(psi, energy, params)
        assert np.max(res.values) < 1e-10

    def test_dispersion_with_unit_spin_magnitude(self, params):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 2 / 8.0
        psi = plane_wave(grid, k)
        energy = 2.0 * 1.0 * k**2 / params.mass
        res = spin_schrodinger_residual(psi, energy, params, s_mag=1.0)
        assert np.max(res.values) < 1e-10

    def test_wrong_energy_leaves_proportional_residual(self, params):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 3 / 8.0
        psi = plane_wave(grid, k)
        energy = 0.5 * k * k
        res = spin_schrodinger_residual(psi, 0.9 * energy, params)
        expected = 0.1 * energy * np.abs(psi.values)
        assert np.max(np.abs(res.values - expected)) < 1e-12

    def test_matches_standard_stationary_residual_bitwise(self, params):
        grid = Grid((128,), (30.0,))
        psi = gaussian(grid, sigma=1.2)
        res_spin = spin_schrodinger_residual(psi, 0.3, params)
        res_std = stationary_residual(psi, 0.3, params)
        assert np.array_equal(res_spin.values, res_std.values)

    def test_spin_hj_matches_plain_hj_bitwise(self, residual_triples, params):
        triple = residual_triples[1e-3]
        plain = hj_residual(triple, 1e-3, None, params)
        spin = spin_hj_residual(triple, 1e-3, None, params)
        assert np.array_equal(plain.values.values, spin.values.values)

    def test_spin_hj_scales_with_s_squared(self, residual_triples, params):
        # doubling |s| multiplies only the internal-energy bracket by 4
        triple = residual_triples[1e-3]
        base = spin_hj_residual(triple, 1e-3, None, params)
        scaled = spin_hj_residual(triple, 1e-3, None, params, s_mag=params.hbar)
        # same bilinear density expression as the residuals use, so the
        # brackets agree to addition roundoff rather than to re-derived FFTs
        mid = triple[1].values
        rho = mid.real**2 + mid.imag**2
        qp = quantum_potential(RealField(triple[1].grid, rho), params)
        region = resolved(rho)
        diff = (scaled.values.values - base.values.values)[region]
        expected = 3.0 * qp.q_log_form.values[region]
        assert np.max(np.abs(diff - expected)) < 1e-12
