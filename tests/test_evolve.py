"""Split-step propagation checks.

With no potential every Fourier mode advances by its exact kinetic phase, so
free evolution matches the analytic spreading packet pointwise and a plane
wave only picks up exp(-iEt).  With a potential the scheme is unitary and
second order: the norm is conserved to roundoff, the energy to O(dt^2).
"""

import numpy as np
import pytest

from mzbw import (
    ComplexField,
    EvolutionConfig,
    Grid,
    gaussian,
    harmonic_ground,
    harmonic_potential,
    integrate,
    overlap,
    plane_wave,
    propagate,
)
from mzbw.evolve import _norm_energy
from mzbw.fields import RealField


def analytic_free_gaussian(grid, t):
    """sigma0 = 1 packet: psi = (2pi)^(-1/4) (1+it/2)^(-1/2) exp(-x^2/(4(1+it/2)))."""
    x = grid.axes[0]
    w = 1.0 + 0.5j * t
    return (2.0 * np.pi) ** (-0.25) / np.sqrt(w) * np.exp(-x * x / (4.0 * w))


class TestFreeEvolution:
    def test_plane_wave_picks_up_eigenphase(self, params):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 3 / 8.0
        psi0 = plane_wave(grid, k)
        series = propagate(psi0, EvolutionConfig(dt=1e-3, steps=200, snapshot_stride=200))
        t = series.times[-1]
        energy = 0.5 * k * k
        exact = psi0.values * np.exp(-1j * energy * t)
        assert np.max(np.abs(series.states[-1].values - exact)) < 1e-12

    def test_gaussian_matches_analytic_spreading(self, free_gaussian_series):
        series = free_gaussian_series
        grid = series.grid
        mid = series.states[100]
        assert np.max(np.abs(mid.values - analytic_free_gaussian(grid, 1.0))) < 1e-9
        last = series.states[-1]
        assert np.max(np.abs(last.values - analytic_free_gaussian(grid, 2.0))) < 1e-9

    def test_width_growth_law(self, free_gaussian_series, params):
        # sigma(t) = sigma0 sqrt(1 + (hbar t / 2 m sigma0^2)^2) -> sqrt(2) at t=2
        series = free_gaussian_series
        grid, x = series.grid, series.grid.axes[0]

        def width(psi):
            rho = np.abs(psi.values) ** 2
            mean = integrate(RealField(grid, x * rho))
            return np.sqrt(integrate(RealField(grid, (x - mean) ** 2 * rho)))

        w0, w2 = width(series.states[0]), width(series.states[-1])
        assert w2 / w0 == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_norm_and_energy_flat_for_free_packet(self, free_gaussian_series):
        series = free_gaussian_series
        assert np.max(np.abs(series.norms - 1.0)) < 1e-12
        drift = np.max(np.abs(series.energies - series.energies[0]))
        assert drift < 1e-10


class TestHarmonicEvolution:
    def test_ground_state_conservation(self, params):
        grid = Grid((256,), (40.0,))
        psi0 = harmonic_ground(grid)
        pot = harmonic_potential(grid)
        series = propagate(
            psi0,
            EvolutionConfig(dt=1e-3, steps=1000, snapshot_stride=100, potential=pot),
        )
        assert np.max(np.abs(series.norms - series.norms[0])) < 1e-12
        assert np.max(np.abs(series.energies - series.energies[0])) < 1e-8
        assert series.energies[0] == pytest.approx(0.5, abs=1e-8)

    def test_ground_state_stays_put(self, params):
        grid = Grid((256,), (40.0,))
        psi0 = harmonic_ground(grid)
        pot = harmonic_potential(grid)
        series = propagate(
            psi0, EvolutionConfig(dt=1e-3, steps=1000, snapshot_stride=1000, potential=pot)
        )
        assert abs(overlap(series.states[-1], psi0)) > 1.0 - 1e-8

    def test_potential_grid_mismatch_rejected(self):
        psi0 = harmonic_ground(Grid((64,), (20.0,)))
        pot = harmonic_potential(Grid((32,), (20.0,)))
        with pytest.raises(ValueError, match="grid"):
            propagate(psi0, EvolutionConfig(dt=1e-3, steps=10, potential=pot))


class TestConfigValidation:
    def test_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            EvolutionConfig(dt=0.0, steps=10)
        with pytest.raises(ValueError, match="dt"):
            EvolutionConfig(dt=np.nan, steps=10)

    def test_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            EvolutionConfig(dt=1e-3, steps=0)

    def test_stride_must_divide_steps(self):
        with pytest.raises(ValueError, match="stride"):
            EvolutionConfig(dt=1e-3, steps=10, snapshot_stride=3)


class TestWarnings:
    def test_unnormalized_initial_state_warns(self):
        grid = Grid((64,), (20.0,))
        psi = gaussian(grid)
        doubled = ComplexField(grid, np.sqrt(2.0) * psi.values)
        with pytest.warns(RuntimeWarning, match="norm"):
            propagate(doubled, EvolutionConfig(dt=1e-3, steps=1))

    def test_underresolved_time_step_warns(self):
        grid = Grid((64,), (20.0,))
        psi = gaussian(grid)
        with pytest.warns(RuntimeWarning, match="kinetic phase"):
            propagate(psi, EvolutionConfig(dt=0.2, steps=1))


class TestSeriesAccess:
    def test_times_and_snapshot_count(self, free_gaussian_series):
        series = free_gaussian_series
        assert len(series.states) == 201
        np.testing.assert_allclose(series.times, 0.01 * np.arange(201), atol=1e-14)


class TestObservables:
    """The norm and energy each snapshot records, and the fidelity |<a|b>|."""

    def test_plane_wave_energy(self, params):
        grid = Grid((64,), (8.0,))
        k = 2.0 * np.pi * 3 / 8.0
        norm, energy = _norm_energy(plane_wave(grid, k), None, params)
        assert energy == pytest.approx(0.5 * k * k, abs=1e-12)
        assert norm == pytest.approx(1.0, abs=1e-13)

    def test_zero_state_rejected(self, params):
        grid = Grid((16,), (4.0,))
        with pytest.raises(ValueError, match="zero"):
            _norm_energy(ComplexField(grid, np.zeros(16, dtype=complex)), None, params)

    def test_fidelity_bounds(self, params):
        grid = Grid((64,), (8.0,))
        a = plane_wave(grid, 2.0 * np.pi / 8.0)
        b = plane_wave(grid, 4.0 * np.pi / 8.0)
        assert abs(overlap(a, a)) == pytest.approx(1.0, abs=1e-13)
        assert abs(overlap(a, b)) < 1e-13
