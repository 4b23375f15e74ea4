"""Hydrodynamic decomposition of scalar wavefunctions.

psi = sqrt(rho) exp(i phi / hbar) splits a wavefunction into a density rho and
an action-valued phase phi.  The local momentum p = grad(phi) is computed from
the probability-current bilinear

    p = hbar * Im(conj(psi) grad(psi)) / rho

which needs no phase unwrapping and is exact wherever rho > 0.  The quantum
potential comes in two algebraically equal forms,

    Q = (hbar^2 / 4m) [ (grad(rho)/rho)^2 / 2 - lap(rho)/rho ]
      = -(hbar^2 / 2m) lap(sqrt(rho)) / sqrt(rho)

and both are computed so they can be checked against each other.  Points with
rho <= NODE_EPS * max(rho) are node points: every divided quantity is set to
zero there and reported through a boolean mask.

Everything here and in `spinhydro` derives from intermediates of one state,
held by a private `_Jet` that computes each on first use: the current
j_a = hbar Im(psi^dag d_a psi) = rho p_a, grad(rho), lap(rho), lap(sqrt(rho)).
Public functions accept a jet wherever they accept the field it was built
from.  Sharing never re-associates arithmetic, so results are bit-identical
to computing each quantity alone.  The jet also owns the per-state rules:
it checks the backend it is given, `nonzero()` rejects an identically zero
density, and `divided(flux)` divides by rho and zeroes the node mask, which
gives the momentum p = j / rho.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    ComplexField,
    PhysicalParams,
    RealField,
    SpinorField,
    VectorField,
    _axis_derivative,
    _check_backend,
    _laplacian_values,
    curl,
    gradient,
)

NODE_EPS = 1e-12
REGION_EPS = 1e-6  # residual sups and two-form comparisons are measured where rho >= REGION_EPS * max


def node_mask(rho_values: np.ndarray) -> np.ndarray:
    """True where the density is too small to divide by."""
    return rho_values <= NODE_EPS * np.max(rho_values)


class _Jet:
    """A ComplexField, SpinorField or bare density RealField and its real
    intermediates, each computed on first use and kept (never complex grad psi).
    A window over a series may also set `phase_in`, the phase increment into
    this state from the previous jet's, `keep`, the region its residual sups
    are taken over, and the three real fields its residuals read (see
    `residual_sups` and `_own_work`)."""

    def __init__(self, state, params: PhysicalParams | None, backend: str | None):
        if backend is not None:
            _check_backend(backend)
        self.state = state
        self.grid = state.grid
        self.params = params
        self.backend = backend

    @cached_property
    def rho(self) -> np.ndarray:
        v = self.state.values
        if isinstance(self.state, RealField):
            return v
        if isinstance(self.state, SpinorField):
            # psi^dag psi by einsum; it rounds differently from |up|^2 + |down|^2.
            # The copy owns one real field; the .real view would keep both halves.
            return np.einsum("c...,c...->...", np.conj(v), v).real.copy()
        return v.real**2 + v.imag**2

    @cached_property
    def mask(self) -> np.ndarray:
        return node_mask(self.rho)

    @cached_property
    def safe(self) -> np.ndarray:
        return np.where(self.mask, 1.0, self.rho)

    def nonzero(self) -> _Jet:
        """This jet; a ValueError naming the state if its density is identically zero."""
        if np.max(self.rho) == 0.0:
            if isinstance(self.state, RealField):
                raise ValueError("density is identically zero")
            kind = "spinor wavefunction" if isinstance(self.state, SpinorField) else "wavefunction"
            raise ValueError(f"{kind} is identically zero")
        return self

    def drop(self, *names: str) -> None:
        """Free the cached intermediates `names`; a later read computes them
        again.  The state may be dropped too, as "state", but it cannot be
        recomputed: every intermediate read after that must be cached."""
        for name in names:
            self.__dict__.pop(name, None)

    def divided(self, flux: np.ndarray) -> np.ndarray:
        """flux / rho for a (3, *grid) flux, zero on the node mask."""
        out = flux / self.safe
        np.copyto(out, 0.0, where=self.mask)
        return out

    @cached_property
    def momentum(self) -> np.ndarray:
        """p = j / rho, zero on the node mask."""
        return self.divided(self.current)

    @cached_property
    def current(self) -> np.ndarray:
        """j_a = hbar Im(psi^dag d_a psi) = rho p_a, smooth through nodes.

        conj(c) d_a c is formed in the derivative's buffer slab by slab
        (`_conj_product`), so no whole conjugate is held.  A spinor's row is
        hbar ((0 + up) + down), a scalar's hbar times its one part, with no
        zero added (0 + -0.0 would be +0.0)."""
        spinor = isinstance(self.state, SpinorField)
        comps = self.state.values if spinor else (self.state.values,)
        out = np.zeros((3,) + self.grid.shape)
        rows = out[: self.grid.dims]
        for c in comps:
            for axis, row in enumerate(rows):
                part = _conj_product(c, _axis_derivative(c, self.grid, axis, self.backend)).imag
                if spinor:
                    row += part
                else:
                    np.multiply(self.params.hbar, part, out=row)
        if spinor:
            rows *= self.params.hbar
        return out

    @cached_property
    def grad_rho(self) -> VectorField:
        return gradient(RealField(self.grid, self.rho), self.backend)

    def grad_sq(self, safe: np.ndarray | None = None) -> np.ndarray:
        """sum_a (d_a rho)^2, or sum_a (d_a rho / safe)^2, added axis by axis onto zero."""
        total = np.zeros(self.grid.shape)
        for d in self.grad_rho.values[: self.grid.dims]:
            total = total + (d * d if safe is None else (d / safe) ** 2)
        return total

    @cached_property
    def lap_rho(self) -> np.ndarray:
        return _laplacian_values(self.rho, self.grid, self.backend)

    @cached_property
    def lap_sqrt_rho(self) -> np.ndarray:
        return _laplacian_values(np.sqrt(self.rho), self.grid, self.backend)

    @cached_property
    def rho_s(self) -> np.ndarray:
        """rho * s = (hbar/2) psi^dag sigma psi of a spinor, without dividing by rho."""
        up, down = self.state.values[0], self.state.values[1]
        mixed = np.conj(up) * down
        out = np.empty((3,) + self.grid.shape)
        out[0] = 2.0 * mixed.real
        out[1] = 2.0 * mixed.imag
        out[2] = (up.real**2 + up.imag**2) - (down.real**2 + down.imag**2)
        return (self.params.hbar / 2.0) * out

    @cached_property
    def spin_current(self) -> np.ndarray:
        """curl(rho s)/m, the divergence-free magnetization current of a spinor."""
        return curl(VectorField(self.grid, self.rho_s), self.backend).values / self.params.mass


def _conj_product(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """conj(c) * d written into d and returned: for 2D and 3D one slab along
    axis 0 at a time, so that no whole conjugate is held, and in 1D whole.
    The product goes through a buffer of its own, then into d: numpy's
    in-place product of one element skips the vector loop and rounds
    differently."""
    slabs = zip(c, d) if c.ndim > 1 else ((c, d),)
    shape = c.shape[1:] if c.ndim > 1 else c.shape
    conj, prod = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for cs, ds in slabs:
        np.multiply(np.conjugate(cs, out=conj), ds, out=prod)
        ds[...] = prod
    return d


def _jet(state, params: PhysicalParams | None = None, backend: str | None = None) -> _Jet:
    """`state` if it is a jet with these settings (None matches any), else a new jet of its field."""
    if isinstance(state, _Jet):
        if backend in (None, state.backend) and params in (None, state.params):
            return state
        state = state.state
    return _Jet(state, params, backend)


@dataclass(frozen=True)
class MadelungFields:
    rho: RealField
    phase: RealField  # hbar * principal arg(psi); diagnostic, wrapped to (-pi*hbar, pi*hbar]
    momentum: VectorField
    node_mask: np.ndarray


@dataclass(frozen=True)
class QuantumPotential:
    q: RealField  # sqrt-rho form
    q_log_form: RealField  # log-derivative (bracket) form
    node_mask: np.ndarray


@dataclass(frozen=True)
class ResidualField:
    values: RealField
    node_mask: np.ndarray


def decompose(
    psi: ComplexField, params: PhysicalParams, backend: str = "spectral"
) -> MadelungFields:
    jet = _jet(psi, params, backend).nonzero()
    grid = jet.grid
    norm = float(np.sum(jet.rho) * grid.cell_volume)
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"wavefunction norm is {norm:.8g}, not 1", RuntimeWarning, stacklevel=2)
    phase = params.hbar * np.angle(jet.state.values)
    return MadelungFields(
        rho=RealField(grid, jet.rho),
        phase=RealField(grid, phase),
        momentum=VectorField(grid, jet.momentum),
        node_mask=jet.mask,
    )


def quantum_potential(
    rho: RealField, params: PhysicalParams, backend: str = "spectral"
) -> QuantumPotential:
    jet = _jet(rho, params, backend)
    if np.min(jet.rho) < 0.0:
        raise ValueError("density must be non-negative")
    jet.nonzero()

    safe_sqrt = np.where(jet.mask, 1.0, np.sqrt(jet.rho))
    q_sqrt = np.where(
        jet.mask, 0.0, -(params.hbar**2 / (2.0 * params.mass)) * jet.lap_sqrt_rho / safe_sqrt
    )

    bracket = _log_form_bracket(jet, jet.safe)
    coeff = (params.hbar * params.hbar) / (4.0 * params.mass)
    q_log = np.where(jet.mask, 0.0, coeff * bracket)

    return QuantumPotential(
        q=RealField(jet.grid, q_sqrt),
        q_log_form=RealField(jet.grid, q_log),
        node_mask=jet.mask,
    )


def _log_form_bracket(jet: _Jet, safe_rho: np.ndarray) -> np.ndarray:
    """(grad rho / rho)^2 / 2 - lap(rho)/rho, with safe division."""
    return 0.5 * jet.grad_sq(safe_rho) - jet.lap_rho / safe_rho


def internal_kinetic_density(
    rho: RealField, params: PhysicalParams, backend: str = "spectral"
) -> RealField:
    """(hbar^2 / 8m) (grad rho / rho)^2, the kinetic energy density of the
    internal (Zitterbewegung) motion.  Equal to m * zbw_speed^2 / 2 pointwise."""
    jet = _jet(rho, params, backend)
    coeff = params.hbar * params.hbar / (8.0 * params.mass)
    return RealField(jet.grid, np.where(jet.mask, 0.0, coeff * jet.grad_sq(jet.safe)))


def zbw_speed(rho: RealField, params: PhysicalParams, backend: str = "spectral") -> RealField:
    """|V| = (hbar/2) |grad rho| / (m rho)."""
    jet = _jet(rho, params, backend)
    speed = 0.5 * params.hbar * np.sqrt(jet.grad_sq()) / (params.mass * jet.safe)
    return RealField(jet.grid, np.where(jet.mask, 0.0, speed))


# ---------------------------------------------------------------------------
# snapshot-based residuals


def _phase_rate(prev: _Jet, mid: _Jet, nxt: _Jet, dt: float, mask: np.ndarray, hbar: float) -> np.ndarray:
    """Central-difference d(phi)/dt from phase increments between snapshots.

    Increments are principal args of ratio bilinears, so no global unwrapping
    is needed; a pointwise increment at the +/-pi boundary means the snapshot
    spacing aliases the phase evolution and the input is rejected."""
    d_minus = _phase_increment(prev, mid)
    mid.drop("phase_in")  # a kept increment into the middle snapshot serves this triple only
    d_plus = _phase_increment(mid, nxt)
    live = ~mask
    jump = max(np.max(np.abs(d), where=live, initial=0.0) for d in (d_plus, d_minus))
    if jump >= np.pi * (1.0 - 1e-9):
        raise ValueError(
            f"phase jump {jump:.6f} rad between snapshots reaches pi; time spacing too large"
        )
    return hbar * (d_plus + d_minus) / (2.0 * dt)


def _phase_increment(earlier: _Jet, later: _Jet) -> np.ndarray:
    """angle(psi_later conj(psi_earlier)), or the increment `later` keeps as
    `phase_in` = (earlier, increment) for this pair (see `residual_sups`)."""
    kept = later.__dict__.get("phase_in")
    if kept is not None and kept[0] is earlier:
        return kept[1]
    return np.angle(later.state.values * np.conj(earlier.state.values))


def _triple_jet(snapshots, dt: float, params: PhysicalParams, backend: str) -> tuple:
    """Jets of (prev, middle, next); the middle one carries params and backend.
    Any of the three may already be a jet, so snapshots that appear in several
    triples share their densities, masks and derivatives."""
    if dt <= 0:
        raise ValueError(f"snapshot spacing must be positive, got {dt}")
    prev, mid, nxt = snapshots
    if not (prev.grid == mid.grid == nxt.grid):
        raise ValueError("snapshots must share a grid")
    return _jet(prev), _jet(mid, params, backend), _jet(nxt)


def hj_terms(
    snapshots,
    dt: float,
    potential: RealField | None,
    params: PhysicalParams,
    backend: str = "spectral",
):
    """Shared pieces of the phase-evolution residual: (dphi_dt, kinetic,
    bracket, u, mask) evaluated at the middle snapshot.  The bracket is the
    log-derivative quantum-potential form without its hbar^2/4m coefficient."""
    prev, jet, nxt = _triple_jet(snapshots, dt, params, backend)
    mask = jet.mask | prev.mask | nxt.mask
    safe = np.where(mask, 1.0, jet.rho)

    dphi_dt = _phase_rate(prev, jet, nxt, dt, mask, params.hbar)

    kinetic = np.zeros(jet.grid.shape)
    for j_axis in jet.current[: jet.grid.dims]:
        p_axis = j_axis / safe
        kinetic += np.multiply(p_axis, p_axis, out=p_axis)
    kinetic /= 2.0 * params.mass

    bracket = _log_form_bracket(jet, safe)
    u = np.zeros(jet.grid.shape) if potential is None else potential.values
    return dphi_dt, kinetic, bracket, u, mask


def _hj_residual(terms: tuple, grid, coeff: float) -> ResidualField:
    """d(phi)/dt + kinetic + coeff * bracket + U from the `hj_terms` of one
    triple, zero on the node mask.  The sum is chained left to right in the
    phase rate's buffer and the bracket is scaled in its own, so a caller
    that builds a second residual from the same terms passes copies of
    those two."""
    residual, kinetic, bracket, u, mask = terms
    residual += kinetic
    bracket *= coeff
    residual += bracket
    residual += u
    np.copyto(residual, 0.0, where=mask)
    return ResidualField(values=RealField(grid, residual), node_mask=mask)


def hj_residual(
    snapshots,
    dt: float,
    potential: RealField | None,
    params: PhysicalParams,
    backend: str = "spectral",
) -> ResidualField:
    """d(phi)/dt + (grad phi)^2/2m + Q + U at the middle snapshot, Q in the
    log-derivative form.  Zero (to discretization error) along solutions."""
    terms = hj_terms(snapshots, dt, potential, params, backend)
    return _hj_residual(terms, snapshots[1].grid, (params.hbar * params.hbar) / (4.0 * params.mass))


def continuity_residual(
    snapshots, dt: float, params: PhysicalParams, backend: str = "spectral"
) -> ResidualField:
    """d(rho)/dt + div(rho grad(phi)/m) at the middle snapshot.  The flux is the
    probability current hbar Im(conj(psi) grad psi)/m, which is smooth through
    nodes, so the residual carries no masked-out points."""
    prev, jet, nxt = _triple_jet(snapshots, dt, params, backend)
    grid = jet.grid
    drho_dt = (nxt.rho - prev.rho) / (2.0 * dt)
    div_flux = np.zeros(grid.shape)  # div(j / m), one axis of the flux at a time
    for axis in range(grid.dims):
        div_flux = div_flux + _axis_derivative(jet.current[axis] / params.mass, grid, axis, backend)
    values = RealField(grid, drho_dt + div_flux)
    return ResidualField(values=values, node_mask=np.zeros(grid.shape, dtype=bool))


def residual_sups(snapshots, potential: RealField | None, params: PhysicalParams, backend: str = "spectral"):
    """Sups of |phase residual| and |continuity residual| at each interior
    snapshot of a series, over the points where |psi|^2 >= REGION_EPS times
    its maximum, so tail roundoff does not dominate.  The sups are those of
    `hj_residual` and `continuity_residual` on each triple, bit for bit.

    `snapshots` yields `Snapshot`s at a uniform spacing: a ValueError is
    raised when a spacing differs from the first by more than 1e-9 of it.
    One pass keeps a window of three jets, so each snapshot's density and
    mask are computed once.  A snapshot with a successor gets everything
    that depends on it alone as it arrives, which on a stream overlaps the
    propagation of the next one: its mask and, for an interior snapshot,
    the region and the three real fields its residuals read (see
    `_own_work`).  Whether it has one is read from the series' `times` (a
    `SnapshotSeries`, a `SnapshotStream` or
    `fieldio.stream_snapshot_series`); an iterable without them gets that
    work for its last snapshot too, giving the same sups.  The phase
    increment into each snapshot is computed once, as it arrives, and its
    jet keeps it for the two triples that read it.  A jet's state is freed
    once the increment out of it exists.  Returns two lists with one entry
    per interior snapshot, empty for fewer than three snapshots."""
    count = len(snapshots.times) if hasattr(snapshots, "times") else None
    phase_sup, continuity_sup = [], []
    window, dt, last_time = [], None, None
    for index, snap in enumerate(snapshots):
        if last_time is not None:
            spacing = float(snap.time - last_time)
            if dt is None:
                dt = spacing
            elif abs(spacing - dt) > 1e-9 * abs(dt):
                raise ValueError(
                    f"snapshot spacing {spacing!r} at time {snap.time!r} differs from the first, {dt!r}"
                )
        last_time = snap.time
        jet = _Jet(snap.state, params, backend)
        if window:
            prev = window[-1]
            jet.phase_in = (prev, _phase_increment(prev, jet))
            prev.drop("state")
        window.append(jet)
        if len(window) == 3:
            hj_sup, ct_sup = _sups(window, dt, potential, params, backend)
            phase_sup.append(hj_sup)
            continuity_sup.append(ct_sup)
            window[1].drop("keep", "div_flux")  # the next triples read only its density and mask
            window = window[1:]
        if count is None or index + 1 < count:
            _own_work(jet, middle=index > 0)
    return phase_sup, continuity_sup


def _own_work(jet: _Jet, middle: bool) -> None:
    """What the window needs of one snapshot alone, computed while its state
    is there: the mask and, for a middle snapshot, the region its sups are
    taken over (`keep`) and the three real fields its residuals read, each
    formed by the operations of `hj_terms` and `continuity_residual` in
    their order:
    * `bracket`, (1/2) sum_a (d_a rho/safe)^2 - lap(rho)/safe;
    * `kinetic`, sum_a (j_a/safe)^2 / 2m;
    * `div_flux`, sum_a d_a(j_a/m).
    The density's derivatives come first, then one complex derivative of
    psi and one j_a per axis, so no vector is held.  `safe` is the jet's
    own, not the triple's union-mask one; the two differ only where the
    union mask zeroes the phase residual.  Each d_a rho is scanned for
    non-finite values and raises a ValueError, as the VectorField that
    `hj_residual` builds of grad(rho) does."""
    jet.mask
    if not middle:
        return
    psi, grid, backend, params = jet.state.values, jet.grid, jet.backend, jet.params
    rho = np.abs(psi) ** 2  # not the jet's rho: it rounds differently, moving the region
    jet.keep = rho >= REGION_EPS * rho.max()
    del rho
    safe = np.where(jet.mask, 1.0, jet.rho)
    bracket = np.zeros(grid.shape)
    for axis in range(grid.dims):
        d = _axis_derivative(jet.rho, grid, axis, backend)
        if not np.all(np.isfinite(d)):
            raise ValueError("grad(rho) contains non-finite values")
        d /= safe
        bracket += np.square(d, out=d)
    del d
    bracket *= 0.5
    lap = _laplacian_values(jet.rho, grid, backend)
    lap /= safe
    bracket -= lap
    del lap
    kinetic, div_flux = np.zeros(grid.shape), np.zeros(grid.shape)
    for axis in range(grid.dims):
        j = np.multiply(params.hbar, _conj_product(psi, _axis_derivative(psi, grid, axis, backend)).imag)
        div_flux += _axis_derivative(j / params.mass, grid, axis, backend)
        j /= safe
        kinetic += np.multiply(j, j, out=j)
    kinetic /= 2.0 * params.mass
    jet.bracket, jet.kinetic, jet.div_flux = bracket, kinetic, div_flux


def _sups(window, dt, potential, params, backend) -> tuple[float, float]:
    """The two residual sups of one (prev, mid, next) window, assembled from
    the middle jet's terms as `_hj_residual` and `continuity_residual` do,
    each taken as soon as its residual exists; the continuity residual runs
    without the HJ terms."""
    prev, mid, nxt = _triple_jet(window, dt, params, backend)
    mask = mid.mask | prev.mask | nxt.mask
    terms = (
        _phase_rate(prev, mid, nxt, dt, mask, params.hbar),
        mid.kinetic,
        mid.bracket,
        np.zeros(mid.grid.shape) if potential is None else potential.values,
        mask,
    )
    mid.drop("kinetic", "bracket")
    hj = _sup(_hj_residual(terms, mid.grid, (params.hbar * params.hbar) / (4.0 * params.mass)).values, mid.keep)
    del terms
    drho_dt = (nxt.rho - prev.rho) / (2.0 * dt)
    drho_dt += mid.div_flux
    return hj, _sup(RealField(mid.grid, drho_dt), mid.keep)


def _sup(field: RealField, keep: np.ndarray) -> float:
    values = field.values
    return float(np.max(np.abs(values, out=values), where=keep, initial=0.0))


@dataclass(frozen=True)
class LagrangianDensity:
    density: RealField  # internal term as (hbar^2/8m)(grad rho/rho)^2
    density_koenig: RealField  # internal term as m V^2 / 2 with V the zbw speed
    node_mask: np.ndarray


def lagrangian_density(
    snapshots,
    dt: float,
    potential: RealField | None,
    params: PhysicalParams,
    backend: str = "spectral",
) -> LagrangianDensity:
    """-(d(phi)/dt + (grad phi)^2/2m + internal + U) rho, in both internal-term
    forms.  Vanishes pointwise for on-shell plane waves; for general on-shell
    states only its integral vanishes (the internal term differs from Q by a
    total divergence)."""
    prev, jet, nxt = _triple_jet(snapshots, dt, params, backend)
    dphi_dt, kinetic, bracket, u, mask = hj_terms((prev, jet, nxt), dt, potential, params, backend)
    rho = jet.rho
    grad_sq = jet.grad_sq(np.where(mask, 1.0, rho))
    internal = (params.hbar * params.hbar / (8.0 * params.mass)) * grad_sq

    speed = 0.5 * params.hbar * np.sqrt(grad_sq) / params.mass
    internal_koenig = 0.5 * params.mass * speed * speed

    common = dphi_dt + kinetic + u
    base = np.where(mask, 0.0, -(common + internal) * rho)
    koenig = np.where(mask, 0.0, -(common + internal_koenig) * rho)
    return LagrangianDensity(
        density=RealField(jet.grid, base),
        density_koenig=RealField(jet.grid, koenig),
        node_mask=mask,
    )
