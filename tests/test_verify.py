"""Identity battery on the fixed state family.

The battery must pass on both backends, report per-identity errors against
the versioned tolerance table, gate uniform-spin identities off states with a
position-dependent spin projection, and detect a deliberately injected fault.
"""

import tracemalloc

import pytest

from mzbw.fields import PhysicalParams
from mzbw.verify import _battery_entries, _check_entry, format_report, run_battery, tolerance


@pytest.fixture(scope="module")
def spectral_report():
    return run_battery(backend="spectral")


@pytest.fixture(scope="module")
def fd2_report():
    return run_battery(backend="fd2", refinements=2)


class TestSpectralBattery:
    def test_battery_passes(self, spectral_report):
        assert spectral_report["passed"]
        assert all(info["passed"] for info in spectral_report["identities"].values())

    def test_all_identities_measured(self, spectral_report):
        names = set(spectral_report["identities"])
        assert "quantum_potential_two_forms" in names
        assert "zbw_curl_vs_cross" in names
        assert "current_decomposition" in names
        assert "spin_constraint_violation_3d" in names
        assert "spin_hj_vs_standard" in names
        assert "spin_dispersion" in names
        assert "cross_square" in names

    def test_uniform_spin_identities_gated(self, spectral_report):
        # the tilted-spinor 2D state and the 3D violator cannot satisfy the
        # uniform-spin route equalities; they are listed, not silently skipped
        gated = spectral_report["levels"][0]["gated_out"]
        states = {entry["state"] for entry in gated}
        assert states == {"random_2d", "gaussian_3d"}
        assert all(entry["gate_residual"] > 1e-10 for entry in gated)

    def test_violation_is_detected_not_excused(self, spectral_report):
        checks = spectral_report["levels"][0]["checks"]
        rec = next(
            c for c in checks if c["identity"] == "spin_constraint_violation_3d"
        )
        assert rec["state"] == "gaussian_3d"
        assert rec["passed"]

    def test_single_level_for_spectral(self, spectral_report):
        assert len(spectral_report["levels"]) == 1
        assert spectral_report["refinement"] == {}

    def test_report_lines(self, spectral_report):
        lines = format_report(spectral_report)
        assert lines[-1] == "battery: PASS (backend spectral)"
        assert all(line.startswith("[PASS]") for line in lines[:-1])


class TestFaultInjection:
    def test_flipped_sign_caught(self):
        report = run_battery(backend="spectral", fault="flip_q_sign")
        assert not report["passed"]
        failed = {
            name for name, info in report["identities"].items() if not info["passed"]
        }
        assert failed == {"quantum_potential_two_forms"}
        lines = format_report(report)
        assert any(line.startswith("[FAIL] quantum_potential_two_forms") for line in lines)
        assert lines[-1] == "battery: FAIL (backend spectral)"


class TestFd2Battery:
    def test_battery_passes(self, fd2_report):
        assert fd2_report["passed"]

    def test_three_refinement_levels(self, fd2_report):
        assert [level["refine"] for level in fd2_report["levels"]] == [1, 2, 4]

    def test_stencil_errors_fall_second_order(self, fd2_report):
        refinement = fd2_report["refinement"]
        assert set(refinement) == {
            "quantum_potential_two_forms",
            "spin_constraint_violation_3d",
            "spin_dispersion",
        }
        for data in refinement.values():
            assert data["order_ok"]
            judged = [s for s, info in data["per_state"].items() if info["judged"]]
            assert judged, "at least one state must sit above the floor"
            for state in judged:
                ratio = data["per_state"][state]["ratios"][-1]
                assert 2.5 <= ratio <= 10.0

    def test_single_refinement_reports_preasymptotic_3d(self):
        # one halving leaves the steep 3D state outside the h^2 window for the
        # two-form check; the battery must say so rather than pass it
        report = run_battery(backend="fd2", refinements=1)
        assert not report["passed"]
        two_form = report["refinement"]["quantum_potential_two_forms"]
        assert not two_form["order_ok"]
        assert two_form["per_state"]["gaussian_3d"]["ratios"][-1] < 2.5
        # the magnitude checks themselves still pass; only the order fails
        assert all(info["passed"] for info in report["identities"].values())


class TestToleranceTable:
    def test_spectral_uses_floor(self):
        assert tolerance("zbw_curl_vs_cross", "spectral", h=0.1) == 1e-12
        assert tolerance("spin_dispersion", "spectral", h=0.5) == 1e-10

    def test_fd2_quadratic_scaling(self):
        # stencil-limited identities loosen as C h^2, never below the floor
        loose = tolerance("spin_dispersion", "fd2", h=0.3)
        tight = tolerance("spin_dispersion", "fd2", h=0.15)
        assert loose == pytest.approx(1.5e-3 * 0.09)
        assert loose / tight == pytest.approx(4.0)
        assert tolerance("spin_dispersion", "fd2", h=1e-6) == 1e-10

    def test_fd2_two_form_scales_with_edge_wavenumber(self):
        assert tolerance(
            "quantum_potential_two_forms", "fd2", h=0.1, k_edge=3.0
        ) == pytest.approx(0.09)

    def test_algebraic_identities_keep_floor_on_fd2(self):
        assert tolerance("cross_square", "fd2", h=0.3) == 1e-12


class TestEntryMemory:
    """Traced peak of one entry's checks, in real fields of its grid (8
    bytes per point): the fd2 3D Gaussian at 32^3, the level whose 128^3
    twin sets the battery's peak memory.

    At the peak, inside `velocity_decomposition`, these are alive:
    * the scalar jet's density, safe density, grad(rho), lap(rho) and
      lap(sqrt(rho)), 7 fields (its state is the entry's, built before);
    * the spinor jet: state 4, density and safe density 2, current,
      momentum, rho s and curl(rho s) 12, so 18 fields;
    * the spin vector 3 and the Pauli total 3;
    * drift, internal velocity and their sum, 9.
    That is 40 fields and the masks; the bound leaves 8 for temporaries.
    Keeping every section's arrays alive until the entry ends measured 65.7."""

    def test_gaussian_3d_fd2_peak(self):
        entry = next(e for e in _battery_entries("fd2", 1) if e.name == "gaussian_3d")
        records: list = []
        tracemalloc.start()
        try:
            _check_entry(entry, PhysicalParams(), "fd2", None, records, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(rec["passed"] for rec in records)
        assert peak <= 48 * 8 * entry.psi.grid.size

    def test_gaussian_3d_fd2_peak_without_dead_intermediates(self):
        """The spinor jet's rho s (3 fields) is freed once curl(rho s) is
        cached, and the scalar jet's lap(sqrt(rho)) (1) once the two-form
        check is done, both before `velocity_decomposition` sets the peak.
        Keeping them measured 41.7 fields; freeing them 37.7."""
        entry = next(e for e in _battery_entries("fd2", 1) if e.name == "gaussian_3d")
        records: list = []
        tracemalloc.start()
        try:
            _check_entry(entry, PhysicalParams(), "fd2", None, records, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(rec["passed"] for rec in records)
        assert peak <= 40 * 8 * entry.psi.grid.size
