"""Self-check battery: every identity the toolkit relies on, measured on a
fixed family of states and compared against a versioned tolerance table.

States: 1D plane wave, centered/boosted Gaussians, the harmonic ground state,
a node-free random state, a 2D Gaussian and random state, and a 3D Gaussian.
Spin is attached as a constant spinor per state; the 2D random state gets a
tilted spinor so its grad(rho).s residual is genuinely nonzero, which
exercises the gating, and the 3D Gaussian is the known constraint violator.

Measurement conventions:

* Two-form quantum-potential agreement is relative, measured where
  rho >= 1e-6 max(rho).  Below that the subtracted Laplacian terms are pure
  roundoff divided by a vanishing density and carry no information.
* Route equivalences (curl(rho s) versus grad(rho) x s, and the squared
  magnitudes) are compared at flux level, i.e. before dividing by rho.
  Velocity-level comparison would divide grid-global derivative roundoff by
  tail densities and report noise instead of the identity.
* Relative errors are taken against the measured field scale, floored at the
  smallest flux resolvable on the box (density varying on the extent scale),
  so states with no structure (a plane wave's gradient is pure roundoff)
  do not produce noise-over-noise ratios.
* Identities that only hold for a position-independent spin direction are
  gated on the measured grad(rho).s residual; gated-out states are listed in
  the report rather than silently skipped.

With the fd2 backend the battery runs at several grid refinements.
Stencil-limited checks get tolerances C h^2 from the table below and their
errors must fall accordingly; algebraic and route-parallel checks keep their
floors.  `fault` is a test hook that corrupts one quantity on purpose so the
battery's ability to catch a wrong sign can itself be tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states
from .evolve import stationary_residual
from .fields import (
    ComplexField,
    Grid,
    PhysicalParams,
    VectorField,
    _uniform,
    cross,
    divergence,
    dot,
    magnitude,
)
from .madelung import REGION_EPS, _hj_residual, _Jet, hj_terms, quantum_potential, zbw_speed
from .spinhydro import (
    CONSTRAINT_TOL,
    koenig_energy,
    spin_schrodinger_residual,
    spin_split,
    vsq_from_spin,
)

TOLERANCE_TABLE_VERSION = 1

DETECTION_FRACTION = 0.5  # violation must register at least this fraction of its analytic size
ORDER_WINDOW = (2.5, 10.0)  # error ratio per refinement consistent with h^2 falls in here

# floors applied by both backends; relative or absolute per the metric used
_FLOORS = {
    # limited by Laplacian roundoff divided by the density at the region edge;
    # measured 3.3e-8 on the 48^3 Gaussian, so 1e-7 keeps 3x headroom
    "quantum_potential_two_forms": 1e-7,
    "zbw_speed_vs_field": 1e-10,
    "zbw_curl_vs_cross": 1e-12,
    "current_decomposition": 1e-8,
    "spin_current_divergence": 1e-10,
    "spin_constraints_planar": 1e-12,
    "spin_constraint_violation_3d": 1e-8,
    "vsq_full_vs_reduced": 1e-12,
    "vsq_full_vs_flux_square": 1e-12,
    "internal_energy_two_forms": 1e-10,
    "spin_hj_vs_standard": 1e-14,
    "spin_dispersion": 1e-10,
    "spin_dispersion_vs_standard": 0.0,
    "cross_square": 1e-12,
}

# fd2 tolerance becomes max(floor, C h^2) for checks limited by the stencil.
# The two-form check instead scales by the measured log-density gradient at
# the comparison-region edge, (k_edge h)^2, because its truncation error is
# dominated by fourth derivatives of rho there; a flat constant would either
# fail the steep states or be too loose to catch a sign error on the mild ones.
_QUADRATIC_COEFF = {
    "quantum_potential_two_forms": 1.0,  # times (k_edge h)^2
    "spin_constraint_violation_3d": 0.05,
    "spin_dispersion": 1.5e-3,
}

_STENCIL_LIMITED = tuple(sorted(_QUADRATIC_COEFF))


def tolerance(identity: str, backend: str, h: float, k_edge: float | None = None) -> float:
    floor = _FLOORS[identity]
    if backend == "fd2" and identity in _QUADRATIC_COEFF:
        scale = h * k_edge if identity == "quantum_potential_two_forms" and k_edge else h
        return max(floor, _QUADRATIC_COEFF[identity] * scale * scale)
    return floor


@dataclass(frozen=True)
class _Entry:
    name: str
    psi: ComplexField
    chi: np.ndarray
    plane_k: tuple | None = None  # set for plane waves: the wavevector
    violation: bool = False  # known grad(rho).s violator with an analytic residual
    planar: bool = False  # constraints vanish identically (up to roundoff)


def _battery_entries(backend: str, refine: int) -> list[_Entry]:
    base_1d = 256
    base_2d = 128 if backend == "spectral" else 64
    base_3d = 48 if backend == "spectral" else 32
    g1 = Grid((base_1d * refine,), (40.0,))
    g2 = Grid((base_2d * refine,) * 2, (20.0, 20.0))
    g3 = Grid((base_3d * refine,) * 3, (18.0,) * 3)

    up = states.constant_spinor(0.0)
    k1 = (2.0 * np.pi * 3.0 / 40.0,)

    return [
        _Entry("plane_wave_1d", states.plane_wave(g1, k1), up, plane_k=k1, planar=True),
        _Entry(
            "gaussian_1d",
            states.gaussian(g1),
            states.constant_spinor(np.pi / 3.0, np.pi / 2.0),
            planar=True,
        ),
        _Entry("boosted_gaussian_1d", states.gaussian(g1, boost=1.0), up, planar=True),
        _Entry(
            "harmonic_ground_1d",
            states.harmonic_ground(g1),
            states.constant_spinor(np.pi / 2.0, np.pi / 2.0),
            planar=True,
        ),
        _Entry(
            "random_1d",
            states.random_smooth_state(g1, seed=7),
            states.constant_spinor(1.1, np.pi / 2.0),
            planar=True,
        ),
        _Entry("gaussian_2d", states.gaussian(g2), up, planar=True),
        _Entry("random_2d", states.random_smooth_state(g2, seed=11), states.constant_spinor(0.8, 0.3)),
        _Entry("gaussian_3d", states.gaussian(g3), up, violation=True),
    ]


_UNIFORM_SPIN_IDENTITIES = (
    "zbw_curl_vs_cross",
    "zbw_speed_vs_field",
    "vsq_full_vs_reduced",
    "vsq_full_vs_flux_square",
    "internal_energy_two_forms",
)


def _check_entry(
    entry: _Entry,
    params: PhysicalParams,
    backend: str,
    fault: str | None,
    records: list,
    gated_out: list,
) -> None:
    """Append the entry's records to `records` in a fixed order: the two-form
    check, the spin section, the stationary section, `cross_square`.

    Each section is its own function, so its arrays are freed when it
    returns; only the scalar jet passes between them.  The stationary
    section runs before the spin section, and its records are appended after
    the spin section's, so the scalar jet's current, grad(rho), lap(rho) and
    safe density are freed before the spin pass: that section starts with
    only the density and mask alive, and a uniform-spin check that reads a
    freed derivative computes it again.  Within the spin section only the
    fields its checks read outlive `spin_split`.  The 128^3 fd2 level sets
    the battery's peak memory, now inside the spinor current that
    `spin_split` forms."""
    grid = entry.psi.grid
    h = float(max(grid.spacing))

    def recorder(into: list):
        def record(identity: str, error: float, passed: bool | None = None, tol: float | None = None) -> None:
            if tol is None:
                tol = tolerance(identity, backend, h)
            ok = bool(error <= tol) if passed is None else bool(passed)
            into.append(
                {
                    "identity": identity,
                    "state": entry.name,
                    "error": float(error),
                    "tolerance": tol,
                    "passed": ok,
                }
            )

        return record

    # every scalar quantity below reads the derivatives of this one jet
    jet = _Jet(entry.psi, params, backend)
    _check_two_forms(jet, params, backend, h, fault, recorder(records))
    jet.drop("lap_sqrt_rho")  # only the two-form check reads it; the stationary triple reads lap(rho)
    stationary: list = []
    _check_stationary(entry, jet, params, backend, recorder(stationary))
    jet.drop("grad_rho", "lap_rho", "safe")
    _check_spin(entry, jet, params, backend, recorder(records), gated_out)
    del jet
    records.extend(stationary)
    _check_cross_square(entry, recorder(records))


def _check_two_forms(jet: _Jet, params: PhysicalParams, backend: str, h: float, fault: str | None, record) -> None:
    grid = jet.grid
    rho = jet.nonzero().rho
    region = rho >= REGION_EPS * float(np.max(rho))
    k_edge = float(np.max(magnitude(jet.grad_rho).values[region] / rho[region]))
    jet.lap_rho  # held with grad(rho) before the bracket reads both, here and in the stationary triple
    qp = quantum_potential(jet, params, backend)

    q_vals = qp.q.values
    if fault == "flip_q_sign":
        q_vals = -q_vals
    q_scale = max(
        float(np.max(np.abs(qp.q_log_form.values[region]))),
        params.hbar**2 / (2.0 * params.mass * max(grid.extents) ** 2),
    )
    record(
        "quantum_potential_two_forms",
        float(np.max(np.abs(q_vals - qp.q_log_form.values)[region])) / q_scale,
        tol=tolerance("quantum_potential_two_forms", backend, h, k_edge=k_edge),
    )


def _check_spin(entry: _Entry, jet: _Jet, params: PhysicalParams, backend: str, record, gated_out: list) -> None:
    """The Pauli current against rho * (drift + internal velocity), the
    Hestenes constraints and, where the measured max |grad(rho).s| passes
    the gate, the uniform-spin route equalities.

    Only what these checks read outlives the split: s, curl(rho s)/m, the
    internal velocity, the consistency value and the grad(rho).s field and
    maxima.  The Pauli total, drift, their sum, the spinor's density and
    div(rho s) are freed before div(curl(rho s)/m) is formed."""
    split = spin_split(entry.psi, entry.chi, params, backend=backend)
    s, spin_current, zbw, hest = split.spin.s, split.spin_current, split.zbw, split.hestenes
    dot_field, div_max, dot_max = hest.grad_rho_dot_s.values, hest.div_max, hest.dot_max
    record("current_decomposition", split.consistency)
    del split, hest
    record("spin_current_divergence", float(np.max(np.abs(divergence(spin_current, backend).values))))
    if entry.violation:
        # isotropic unit-width Gaussian with spin up: grad(rho).s = -(hbar/2) z rho
        z = jet.grid.coords()[2]
        expected = -(params.hbar / 2.0) * z * jet.rho
        gap = dot_field - expected
        err = float(np.max(np.abs(gap, out=gap)))
        del gap
        detected = dot_max >= DETECTION_FRACTION * float(np.max(np.abs(expected)))
        tol = tolerance("spin_constraint_violation_3d", backend, float(max(jet.grid.spacing)))
        record("spin_constraint_violation_3d", err, passed=(err <= tol and detected))
    elif entry.planar:
        record("spin_constraints_planar", max(div_max, dot_max))
    if dot_max <= CONSTRAINT_TOL:
        _check_uniform_spin(entry, jet, s, spin_current, zbw, params, backend, record)
    else:
        for identity in _UNIFORM_SPIN_IDENTITIES:
            gated_out.append({"state": entry.name, "identity": identity, "gate_residual": dot_max})


def _check_uniform_spin(
    entry: _Entry, jet: _Jet, s: VectorField, spin_current: VectorField, zbw: VectorField, params, backend, record
) -> None:
    """Route equalities that hold only for a position-independent spin."""
    grid = jet.grid
    rho = jet.rho
    grad_rho = jet.grad_rho
    s_const = states.spin_vector(entry.chi, params)
    s_mag = float(np.sqrt(np.sum(s_const * s_const)))
    # smallest resolvable flux: density of this size varying on the box scale
    flux_floor = s_mag * float(np.max(rho)) / (max(grid.extents) * params.mass)

    flux_cross = cross(grad_rho, _uniform(grid, s_const)).values / params.mass
    flux_scale = max(float(np.max(np.abs(flux_cross))), flux_floor)
    record(
        "zbw_curl_vs_cross",
        float(np.max(np.abs(spin_current.values - flux_cross))) / flux_scale,
    )

    speed = zbw_speed(jet, params, backend)
    rho_speed = rho * speed.values
    rho_vmag = rho * magnitude(zbw).values
    record(
        "zbw_speed_vs_field",
        float(np.max(np.abs(rho_vmag - rho_speed))) / max(float(np.max(rho_speed)), flux_floor),
    )

    vsq = vsq_from_spin(jet, s, params, backend)
    grad_sq = dot(grad_rho, grad_rho).values
    dot_term = dot(grad_rho, s).values
    reduced_flux_sq = dot(s, s).values * grad_sq / params.mass**2
    flux_sq_scale = max(float(np.max(reduced_flux_sq)), flux_floor**2)
    if vsq.reduced_valid:
        # full - reduced is exactly the dropped (grad rho . s)^2 term
        record(
            "vsq_full_vs_reduced",
            float(np.max(dot_term**2)) / params.mass**2 / flux_sq_scale,
        )
    flux_sq = np.einsum("c...,c...->...", spin_current.values, spin_current.values)
    safe = np.where(vsq.node_mask, 1.0, rho)
    full_flux_sq = np.where(vsq.node_mask, 0.0, vsq.full.values * (params.mass * safe) ** 2)
    flux_sq = np.where(vsq.node_mask, 0.0, flux_sq)
    record(
        "vsq_full_vs_flux_square",
        float(np.max(np.abs(full_flux_sq - flux_sq))) / flux_sq_scale,
    )

    budget = koenig_energy(jet, None, params, chi=entry.chi, backend=backend)
    scale = max(abs(budget.internal), abs(budget.total), 1e-300)
    record("internal_energy_two_forms", abs(budget.internal - budget.internal_zbw) / scale)


def _check_stationary(entry: _Entry, jet: _Jet, params: PhysicalParams, backend: str, record) -> None:
    """The spin and plain HJ residuals of an analytic stationary triple and,
    for a plane wave, the spin and plain dispersion residuals.  Both HJ
    residuals come from one `hj_terms` call (the jet's current formed one
    row at a time), each in the arithmetic of `spin_hj_residual` (s =
    hbar/2) and `hj_residual`; the first is assembled in copies of the
    phase rate and the bracket, the two buffers the assembly writes."""
    grid = jet.grid
    # the phase rotates at e0, everything else frozen
    e0, dt = 0.7, 1e-3
    phase = np.exp(-1j * e0 * dt / params.hbar)
    triple = (
        ComplexField(grid, entry.psi.values / phase),
        jet,
        ComplexField(grid, entry.psi.values * phase),
    )
    dphi_dt, kinetic, bracket, u, mask = hj_terms(triple, dt, None, params, backend)
    half = params.hbar / 2.0
    spin_coeff, plain_coeff = (half * half) / params.mass, (params.hbar * params.hbar) / (4.0 * params.mass)
    spin_hj = _hj_residual((dphi_dt.copy(), kinetic, bracket.copy(), u, mask), grid, spin_coeff)
    plain_hj = _hj_residual((dphi_dt, kinetic, bracket, u, mask), grid, plain_coeff)
    record(
        "spin_hj_vs_standard",
        float(np.max(np.abs(spin_hj.values.values - plain_hj.values.values))),
    )

    if entry.plane_k is not None:
        energy = 2.0 * half * half * sum(k * k for k in entry.plane_k) / params.mass
        res_spin = spin_schrodinger_residual(entry.psi, energy, params, backend=backend)
        record("spin_dispersion", float(np.max(res_spin.values)))
        res_std = stationary_residual(entry.psi, energy, params, backend)
        record(
            "spin_dispersion_vs_standard",
            float(np.max(np.abs(res_spin.values - res_std.values))),
        )


def _check_cross_square(entry: _Entry, record) -> None:
    """|a x b|^2 = |a|^2 |b|^2 - (a.b)^2 on random fields, in the arithmetic
    of magnitude(cross(a, b))**2 and dot(a, a) * dot(b, b) - dot(a, b)**2,
    each step after a component sum written into the buffer it reads."""
    grid = entry.psi.grid
    rng = np.random.default_rng(1000 + len(entry.name))
    a = VectorField(grid, rng.standard_normal((3,) + grid.shape))
    b = VectorField(grid, rng.standard_normal((3,) + grid.shape))
    pairwise = "c...,c...->..."  # the component sum of `dot` and `magnitude`
    axb = cross(a, b).values
    lhs = np.einsum(pairwise, axb, axb)
    del axb
    np.square(np.sqrt(lhs, out=lhs), out=lhs)
    rhs = np.einsum(pairwise, a.values, a.values)
    rhs *= np.einsum(pairwise, b.values, b.values)
    ab = np.einsum(pairwise, a.values, b.values)
    rhs -= np.square(ab, out=ab)
    del ab
    lhs -= rhs
    record("cross_square", float(np.max(np.abs(lhs, out=lhs))) / float(np.max(np.abs(rhs, out=rhs))))


def run_battery(
    backend: str = "spectral",
    refinements: int | None = None,
    fault: str | None = None,
    params: PhysicalParams = PhysicalParams(),
) -> dict:
    """Run the identity battery; returns a JSON-ready report.

    With backend 'fd2' the battery repeats at `refinements` extra grid
    refinements (default 2, i.e. spacings h, h/2, h/4) and reports how the
    stencil-limited errors fall."""
    if backend == "spectral":
        levels = [1]
    else:
        n = 2 if refinements is None else refinements
        levels = [2**i for i in range(n + 1)]

    level_reports = []
    for refine in levels:
        records: list[dict] = []
        gated_out: list[dict] = []
        for entry in _battery_entries(backend, refine):
            _check_entry(entry, params, backend, fault, records, gated_out)
        level_reports.append({"refine": refine, "checks": records, "gated_out": gated_out})

    identities: dict[str, dict] = {}
    for level in level_reports:
        for rec in level["checks"]:
            name = rec["identity"]
            info = identities.setdefault(
                name, {"passed": True, "max_error": 0.0, "tolerance": rec["tolerance"]}
            )
            info["passed"] = info["passed"] and rec["passed"]
            ratio = rec["error"] / rec["tolerance"] if rec["tolerance"] > 0 else None
            best = info["max_error"] / info["tolerance"] if info["tolerance"] > 0 else None
            if ratio is None:
                if rec["error"] >= info["max_error"]:
                    info["max_error"], info["tolerance"] = rec["error"], rec["tolerance"]
            elif best is None or ratio >= best:
                info["max_error"], info["tolerance"] = rec["error"], rec["tolerance"]

    # Convergence is judged per state: the coarsest 3D level is preasymptotic
    # for the steepest check while the 1D states are already in the h^2 regime,
    # so aggregating the max across states would wash the order out.  A state
    # counts only while its finest error sits well above the floor, and its
    # finest-pair ratio must land in the h^2 window.
    refinement = {}
    if backend == "fd2" and len(levels) > 1:
        for name in _STENCIL_LIMITED:
            per_state: dict[str, dict] = {}
            order_ok = True
            for level in level_reports:
                for rec in level["checks"]:
                    if rec["identity"] == name:
                        per_state.setdefault(rec["state"], {"errors": []})["errors"].append(
                            rec["error"]
                        )
            for state, data in per_state.items():
                errs = data["errors"]
                data["ratios"] = [
                    errs[i] / errs[i + 1] if errs[i + 1] > 0 else float("inf")
                    for i in range(len(errs) - 1)
                ]
                judged = errs[-1] > 10.0 * _FLOORS[name]
                data["judged"] = judged
                if judged:
                    order_ok = order_ok and ORDER_WINDOW[0] <= data["ratios"][-1] <= ORDER_WINDOW[1]
            refinement[name] = {"per_state": per_state, "order_ok": order_ok}

    passed = all(info["passed"] for info in identities.values()) and all(
        data["order_ok"] for data in refinement.values()
    )
    return {
        "backend": backend,
        "tolerance_table_version": TOLERANCE_TABLE_VERSION,
        "fault": fault,
        "passed": passed,
        "identities": {name: identities[name] for name in sorted(identities)},
        "levels": level_reports,
        "refinement": refinement,
    }


def format_report(report: dict) -> list[str]:
    lines = []
    for name, info in report["identities"].items():
        flag = "PASS" if info["passed"] else "FAIL"
        lines.append(
            f"[{flag}] {name}: max error {info['max_error']:.3e} (tolerance {info['tolerance']:.3e})"
        )
    for name, data in report.get("refinement", {}).items():
        flag = "PASS" if data["order_ok"] else "FAIL"
        finest = [
            f"{state} {info['ratios'][-1]:.2f}"
            for state, info in data["per_state"].items()
            if info["judged"]
        ]
        lines.append(f"[{flag}] {name} refinement ratios: {', '.join(finest)}")
    lines.append(f"battery: {'PASS' if report['passed'] else 'FAIL'} (backend {report['backend']})")
    return lines
