"""Identity battery on the fixed state family.

The battery must pass on both backends, report per-identity errors against
the versioned tolerance table, gate uniform-spin identities off states with a
position-dependent spin projection, and detect a deliberately injected fault.
"""

import tracemalloc

import numpy as np
import pytest

from mzbw import madelung, verify
from mzbw.fields import ComplexField, PhysicalParams
from mzbw.madelung import _Jet, hj_residual
from mzbw.spinhydro import spin_hj_residual
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


@pytest.fixture(scope="class")
def gaussian_3d_fd2_trace():
    """Records and traced peak, in real fields of the grid, of one
    `_check_entry` call on the fd2 3D Gaussian at 32^3.  Traced once and
    shared by the `TestEntryMemory` bounds."""
    entry = next(e for e in _battery_entries("fd2", 1) if e.name == "gaussian_3d")
    records: list = []
    tracemalloc.start()
    try:
        _check_entry(entry, PhysicalParams(), "fd2", None, records, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return records, peak / (8 * entry.psi.grid.size)


class TestEntryMemory:
    def test_gaussian_3d_fd2_peak(self, gaussian_3d_fd2_trace):
        """Traced peak of one entry's checks, in real fields of its grid (8
        bytes per point): the fd2 3D Gaussian at 32^3, the level whose
        128^3 twin sets the battery's peak memory.  The entry's state is
        built before tracing starts, so it is not counted.

        `_check_entry` runs the two-form check, the stationary section and
        then the spin section, and frees the scalar jet's grad(rho),
        lap(rho) and safe density between the last two.  Peaks per
        section: two-form 11.27, stationary 17.77 (the kinetic term and
        the bracket formed one row at a time by `_Jet.terms`, which reads
        the grad(rho) and lap(rho) the two-form check holds; both HJ
        residuals from one set of terms, with copies of the two buffers
        the assembly writes), spin 23.28 and cross-square 11.02 fields.
        With the scalar jet's whole current formed before the triple's
        outer states, and grad(rho) formed inside the quantum potential,
        the stationary section read 21.53 and the two-form check 12.90.
        The spin section starts with 1.14 fields alive: the jet's density
        and mask.  Its peak, 23.28 fields, is the consistency gap; the
        velocity split reaches 23.27 (the split's 21 fields: spin vector,
        density, Pauli total, drift, internal velocity, their sum,
        curl(rho s)/m and the two Hestenes residuals), the Hestenes check
        20.03, and `divergence(curl(rho s)/m)` in `_check_spin`, after the
        split is dropped, 13.90.  The spinor jet's current in `spin_split`
        reaches 21.78; with a whole conjugate (2 fields) held it set the
        peak at 23.78:
        * the scalar jet's density and mask, 1.13;
        * the spinor's state 4, spin vector 3, density, mask and safe
          density 2.13, and curl(rho s)/m 3;
        * the current's output 3, one conjugate 2, two axis derivatives 4
          and the fd2 last-axis stencil's temporary 1.5.

        Earlier layouts of the same entry: every section's arrays alive
        until the entry ends, 65.7 fields; the spinor jet's rho s and the
        scalar jet's lap(sqrt(rho)) kept through the velocity split, 41.7,
        and freed, 37.7 (bound 48 and 40); the spin functions called one by one, 37.65, and one
        `spin_split` that frees the spinor's state and current once the
        momentum is cached, 35.28 (bound 36.5); the spin section before the
        stationary one, with the scalar jet's derivatives alive (6.13
        fields at its start), 34.29; the section order alone 29.29; and
        with the in-place gaps of `spin_split`, `hestenes_residual` and
        `_check_spin` 28.04 (bound 29.0); with a split that holds only
        what its readers use 23.78 (bound 25.5)."""
        records, peak_fields = gaussian_3d_fd2_trace
        assert all(rec["passed"] for rec in records)
        assert peak_fields <= 29.0

    def test_gaussian_3d_fd2_peak_without_dead_intermediates(self, gaussian_3d_fd2_trace):
        """The spinor jet's rho s (3 fields) is freed once curl(rho s) is
        cached, and the scalar jet's lap(sqrt(rho)) (1) once the two-form
        check is done, both before the velocity split.  Keeping them
        measured 41.7 fields; freeing them 37.7."""
        records, peak_fields = gaussian_3d_fd2_trace
        assert all(rec["passed"] for rec in records)
        assert peak_fields <= 40

    def test_gaussian_3d_fd2_peak_with_one_spin_pass(self, gaussian_3d_fd2_trace):
        """`spin_split` also frees the spinor's state (4 fields) and current
        (3) once the momentum is cached, so the velocity split no longer
        sets the peak.  Calling the spin functions one by one measured 37.65
        fields; the split 35.28."""
        records, peak_fields = gaussian_3d_fd2_trace
        assert all(rec["passed"] for rec in records)
        assert peak_fields <= 36.5

    def test_gaussian_3d_fd2_peak_with_derivatives_freed_before_the_spin_pass(
        self, gaussian_3d_fd2_trace
    ):
        """The stationary section runs before the spin section, so the
        scalar jet's grad(rho), lap(rho) and safe density (5 fields) are
        freed before `spin_split` (its current is never held); `spin_split` and
        `hestenes_residual` form their gaps and the flux divergence in
        place, and `_check_spin` the violation gap.  The spin section
        before the stationary one measured 34.29 fields, the section order
        alone 29.29, and all of it 28.04."""
        records, peak_fields = gaussian_3d_fd2_trace
        assert all(rec["passed"] for rec in records)
        assert peak_fields <= 29.0


    def test_gaussian_3d_fd2_peak_with_a_split_that_holds_only_what_its_readers_use(
        self, gaussian_3d_fd2_trace
    ):
        """`spin_split` holds no momentum, builds the Pauli total in one
        buffer, forms the consistency gap one component at a time and runs
        the Hestenes check before the velocity split; `_check_spin` drops
        the split, all but s, curl(rho s)/m, the internal velocity and the
        grad(rho).s field, before `divergence(curl(rho s)/m)`; the
        stationary section forms the scalar jet's current one row at a
        time.  The split holding 24 fields measured 28.04, and all of it
        23.78 (23.28 once `_conj_product` freed the spinor current of a
        whole conjugate)."""
        records, peak_fields = gaussian_3d_fd2_trace
        assert all(rec["passed"] for rec in records)
        assert peak_fields <= 25.5


@pytest.mark.parametrize("backend", ["spectral", "fd2"])
@pytest.mark.parametrize("name", ["plane_wave_1d", "gaussian_3d"])
def test_stationary_section_builds_both_residuals_from_one_set_of_terms(name, backend, monkeypatch):
    """The section's spin and plain HJ residuals, assembled from one
    `hj_terms` call, are bit-identical to separate `spin_hj_residual` and
    `hj_residual` calls on the same triple, and their recorded difference
    is exactly 0.0.  The fd2 entries (32^3 for the Gaussian) run on both
    backends."""
    entry = next(e for e in _battery_entries("fd2", 1) if e.name == name)
    params = PhysicalParams()
    built, records = [], []

    def spy(terms, grid, coeff):
        residual = madelung._hj_residual(terms, grid, coeff)
        built.append(residual.values.values.copy())
        return residual

    monkeypatch.setattr(verify, "_hj_residual", spy)
    verify._check_stationary(
        entry, _Jet(entry.psi, params, backend), params, backend, lambda *rec, **kw: records.append(rec)
    )
    grid, dt = entry.psi.grid, 1e-3
    phase = np.exp(-1j * 0.7 * dt / params.hbar)
    triple = (ComplexField(grid, entry.psi.values / phase), entry.psi, ComplexField(grid, entry.psi.values * phase))
    separate = (
        spin_hj_residual(triple, dt, None, params, backend=backend).values.values,
        hj_residual(triple, dt, None, params, backend).values.values,
    )
    assert len(built) == 2
    for got, want in zip(built, separate):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert records[0] == ("spin_hj_vs_standard", 0.0)


@pytest.mark.parametrize("report_name", ["spectral_report", "fd2_report"])
def test_spin_hj_form_equals_the_standard_form_exactly(report_name, request):
    """s^2/m at s = hbar/2 and hbar^2/4m scale one bracket to the same
    bits, so every entry's `spin_hj_vs_standard` error is exactly 0.0."""
    report = request.getfixturevalue(report_name)
    errors = [
        rec["error"] for level in report["levels"] for rec in level["checks"] if rec["identity"] == "spin_hj_vs_standard"
    ]
    assert len(errors) == 8 * len(report["levels"])
    assert errors == [0.0] * len(errors)


_UNIFORM_SPIN = (
    "zbw_curl_vs_cross",
    "zbw_speed_vs_field",
    "vsq_full_vs_reduced",
    "vsq_full_vs_flux_square",
    "internal_energy_two_forms",
)


def _expected_identities(entry, gated_states: set) -> list:
    """An entry's identities in report order: the two-form check, the spin
    section, the stationary section, `cross_square`."""
    spin = ["current_decomposition", "spin_current_divergence"]
    if entry.violation:
        spin.append("spin_constraint_violation_3d")
    elif entry.planar:
        spin.append("spin_constraints_planar")
    if entry.name not in gated_states:
        spin.extend(_UNIFORM_SPIN)
    stationary = ["spin_hj_vs_standard"]
    if entry.plane_k is not None:
        stationary += ["spin_dispersion", "spin_dispersion_vs_standard"]
    return ["quantum_potential_two_forms", *spin, *stationary, "cross_square"]


@pytest.mark.parametrize("report_name", ["spectral_report", "fd2_report"])
def test_records_keep_the_identity_order_in_every_level(report_name, request):
    """The stationary section runs before the spin section, but its records
    follow the spin section's, so each state's records read in the order
    the report has always had, and the states follow the entry order."""
    report = request.getfixturevalue(report_name)
    for level in report["levels"]:
        entries = _battery_entries(report["backend"], level["refine"])
        gated = {rec["state"] for rec in level["gated_out"]}
        assert {"random_2d", "gaussian_3d"} <= gated
        expected = [(e.name, identity) for e in entries for identity in _expected_identities(e, gated)]
        assert [(rec["state"], rec["identity"]) for rec in level["checks"]] == expected
