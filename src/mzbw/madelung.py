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

The four terms the residuals and energies are built from, (grad rho/rho)^2,
the log-form bracket, (j/rho)^2/2m and div(j/m), come from `_Jet.terms`, which
reads the rows the jet holds and forms the others one axis at a time; a jet
holds nothing else, and `residual_sups` keeps its terms in a window record.
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
    intermediates, each computed on first use and kept (never complex grad
    psi); `terms` reduces them to residual terms and keeps nothing it forms."""

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
        """j_a = hbar Im(psi^dag d_a psi) = rho p_a, smooth through nodes."""
        out = np.zeros((3,) + self.grid.shape)
        for axis, row in enumerate(out[: self.grid.dims]):
            self._current_row(axis, row)
        return out

    def _current_row(self, axis: int, row: np.ndarray) -> np.ndarray:
        """j_a written into the zeroed `row`, conj(c) d_a c formed slab by slab
        (`_conj_product`).  A spinor's row is hbar ((0 + up) + down), a
        scalar's hbar times its one part, with no zero added (0 + -0.0
        would be +0.0)."""
        spinor = isinstance(self.state, SpinorField)
        for c in self.state.values if spinor else (self.state.values,):
            part = _conj_product(c, _axis_derivative(c, self.grid, axis, self.backend)).imag
            if spinor:
                row += part
            else:
                np.multiply(self.params.hbar, part, out=row)
        if spinor:
            row *= self.params.hbar
        return row

    @cached_property
    def grad_rho(self) -> VectorField:
        return gradient(RealField(self.grid, self.rho), self.backend)

    def grad_sq(self) -> np.ndarray:
        """sum_a (d_a rho)^2, added axis by axis onto zero."""
        total = np.zeros(self.grid.shape)
        for d in self.grad_rho.values[: self.grid.dims]:
            total = total + d * d
        return total

    def _row(self, name: str, axis: int = 0) -> np.ndarray:
        """Row `axis` of "grad_rho", "current" or "lap_rho" (one row), in an
        array of its own: a copy of the jet's row if it holds `name`, else
        that row formed alone.  A d_a rho formed here is scanned for
        non-finite values, as the VectorField of a held grad(rho) is."""
        held = self.__dict__.get(name)
        if held is not None:
            row = held if name == "lap_rho" else (held.values if name == "grad_rho" else held)[axis]
            return row.copy()
        if name == "current":
            return self._current_row(axis, np.zeros(self.grid.shape))
        if name == "lap_rho":
            return _laplacian_values(self.rho, self.grid, self.backend)
        d = _axis_derivative(self.rho, self.grid, axis, self.backend)
        if not np.all(np.isfinite(d)):
            raise ValueError("grad(rho) contains non-finite values")
        return d

    def terms(self, *names: str) -> tuple:
        """The named terms, in the order named, each added one axis at a
        time onto zero and divided by this jet's safe density:
        * "grad_sq", sum_a (d_a rho/safe)^2;
        * "bracket", (1/2) grad_sq - lap(rho)/safe, the log-form bracket;
        * "kinetic", sum_a (j_a/safe)^2 / 2m;
        * "div_flux", sum_a d_a(j_a/m), the one term not divided.
        Each row comes from `_row` and is freed before the next: the
        density's derivatives, lap(rho), then one j_a at a time."""
        grid, safe, found = self.grid, self.safe, {}
        if "grad_sq" in names or "bracket" in names:
            found["grad_sq"] = total = np.zeros(grid.shape)
            for axis in range(grid.dims):
                d = self._row("grad_rho", axis)
                d /= safe
                total += np.square(d, out=d)
                del d
        if "bracket" in names:
            found["bracket"] = bracket = np.multiply(0.5, total, out=None if "grad_sq" in names else total)
            lap = self._row("lap_rho")
            bracket -= np.divide(lap, safe, out=lap)
            del lap
        flux = {name: np.zeros(grid.shape) for name in ("kinetic", "div_flux") if name in names}
        for axis in range(grid.dims if flux else 0):
            j = self._row("current", axis)
            if "div_flux" in flux:
                flux["div_flux"] += _axis_derivative(j / self.params.mass, grid, axis, self.backend)
            if "kinetic" in flux:
                j /= safe
                flux["kinetic"] += np.multiply(j, j, out=j)
            del j
        if "kinetic" in flux:
            flux["kinetic"] /= 2.0 * self.params.mass
        found.update(flux)
        return tuple(found[name] for name in names)

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
    q_sqrt = np.where(jet.mask, 0.0, -(params.hbar**2 / (2.0 * params.mass)) * jet.lap_sqrt_rho / safe_sqrt)
    coeff = (params.hbar * params.hbar) / (4.0 * params.mass)
    q_log = np.where(jet.mask, 0.0, coeff * jet.terms("bracket")[0])
    return QuantumPotential(
        q=RealField(jet.grid, q_sqrt),
        q_log_form=RealField(jet.grid, q_log),
        node_mask=jet.mask,
    )


def zbw_speed(rho: RealField, params: PhysicalParams, backend: str = "spectral") -> RealField:
    """|V| = (hbar/2) |grad rho| / (m rho)."""
    jet = _jet(rho, params, backend)
    speed = 0.5 * params.hbar * np.sqrt(jet.grad_sq()) / (params.mass * jet.safe)
    return RealField(jet.grid, np.where(jet.mask, 0.0, speed))


# ---------------------------------------------------------------------------
# snapshot-based residuals


def _phase_rate(d_minus: np.ndarray, d_plus: np.ndarray, mask: np.ndarray, dt: float, hbar: float) -> np.ndarray:
    """Central-difference d(phi)/dt from the phase increments into and out of
    the middle snapshot (`_phase_increment`).

    Increments are principal args of ratio bilinears, so no global unwrapping
    is needed; a pointwise increment at the +/-pi boundary means the snapshot
    spacing aliases the phase evolution and the input is rejected."""
    live = ~mask
    jump = max(np.max(np.abs(d), where=live, initial=0.0) for d in (d_plus, d_minus))
    if jump >= np.pi * (1.0 - 1e-9):
        raise ValueError(
            f"phase jump {jump:.6f} rad between snapshots reaches pi; time spacing too large"
        )
    return hbar * (d_plus + d_minus) / (2.0 * dt)


def _phase_increment(earlier: _Jet, later: _Jet) -> np.ndarray:
    """angle(psi_later conj(psi_earlier))."""
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


def _rate(snapshots, dt: float, params: PhysicalParams, backend: str) -> tuple:
    """(middle jet, d(phi)/dt, union node mask) of a triple."""
    prev, mid, nxt = _triple_jet(snapshots, dt, params, backend)
    mask = mid.mask | prev.mask | nxt.mask
    return mid, _phase_rate(_phase_increment(prev, mid), _phase_increment(mid, nxt), mask, dt, params.hbar), mask


def hj_terms(
    snapshots,
    dt: float,
    potential: RealField | None,
    params: PhysicalParams,
    backend: str = "spectral",
):
    """Shared pieces of the phase-evolution residual: (dphi_dt, kinetic,
    bracket, u, mask) evaluated at the middle snapshot, u None when there is
    no potential.  The bracket is the log-derivative quantum-potential form
    without its hbar^2/4m coefficient.
    The kinetic term and the bracket are the middle jet's `terms`, over its
    own safe density, which differs from the union mask's only where every
    reader zeroes its result."""
    jet, dphi_dt, mask = _rate(snapshots, dt, params, backend)
    kinetic, bracket = jet.terms("kinetic", "bracket")
    return dphi_dt, kinetic, bracket, None if potential is None else potential.values, mask


def _hj_residual(terms: tuple, grid, coeff: float) -> ResidualField:
    """d(phi)/dt + kinetic + coeff * bracket + U from the `hj_terms` of one
    triple, zero on the node mask.  The sum is chained left to right in the
    phase rate's buffer and the bracket is scaled in its own, so a caller
    that builds a second residual from the same terms passes copies of
    those two.  An absent U (None) adds nothing, which is what adding zeros
    would give: a sum is -0.0 only where both addends are, and the kinetic
    term is >= +0.0, so no partial sum is -0.0 for a +0.0 to change."""
    residual, kinetic, bracket, u, mask = terms
    residual += kinetic
    bracket *= coeff
    residual += bracket
    if u is not None:
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
    values = RealField(jet.grid, (nxt.rho - prev.rho) / (2.0 * dt) + jet.terms("div_flux")[0])
    return ResidualField(values=values, node_mask=np.zeros(jet.grid.shape, dtype=bool))


def residual_sups(snapshots, potential: RealField | None, params: PhysicalParams, backend: str = "spectral"):
    """Sups of |phase residual| and |continuity residual| at each interior
    snapshot of a series, over the points where |psi|^2 >= REGION_EPS times
    its maximum, so tail roundoff does not dominate.  The sups are those of
    `hj_residual` and `continuity_residual` on each triple, bit for bit.

    `snapshots` is a `SnapshotSeries`, a `SnapshotStream` or what
    `fieldio.stream_snapshot_series` returns: its `times` must be uniformly
    spaced, and a ValueError is raised, before any snapshot is read, when a
    spacing differs from the first by more than 1e-9 of it.
    One pass keeps a window of three records, one per snapshot, so each
    snapshot's density and mask are computed once.  A record holds the
    snapshot's jet, the phase increment into it, computed once as the
    snapshot arrives and read by the two triples around it, and what
    `_own_work` finds of the snapshot alone: every snapshot but the last gets
    that work as it arrives, which on a stream overlaps the propagation of
    the next one.  A jet's state is freed once the increment out of it
    exists.  Returns two lists with one entry per interior snapshot, empty
    for fewer than three snapshots."""
    times = snapshots.times
    dt = float(times[1] - times[0]) if len(times) > 1 else None
    for before, time in zip(times, times[1:]):
        spacing = float(time - before)
        if abs(spacing - dt) > 1e-9 * abs(dt):
            raise ValueError(f"snapshot spacing {spacing!r} at time {time!r} differs from the first, {dt!r}")
    phase_sup, continuity_sup, window = [], [], []
    for index, snap in enumerate(snapshots):
        record = {"jet": _Jet(snap.state, params, backend)}
        if window:
            prev = window[-1]["jet"]
            record["phase_in"] = _phase_increment(prev, record["jet"])
            prev.drop("state")
        window.append(record)
        if len(window) == 3:
            hj_sup, ct_sup = _sups(window, dt, potential, params, backend)
            phase_sup.append(hj_sup)
            continuity_sup.append(ct_sup)
            window = window[1:]
        if index + 1 < len(times):
            record.update(_own_work(record["jet"], middle=index > 0))
    return phase_sup, continuity_sup


def _own_work(jet: _Jet, middle: bool) -> dict:
    """What the window needs of one snapshot alone, computed while its state
    is there: the jet's mask and, for a middle snapshot, the record entries
    its sups read: `keep`, the region they are taken over, and the jet's
    `kinetic`, `bracket` and `div_flux` terms."""
    jet.mask
    if not middle:
        return {}
    rho = np.abs(jet.state.values) ** 2  # not the jet's rho: it rounds differently, moving the region
    keep = rho >= REGION_EPS * rho.max()
    del rho
    kinetic, bracket, div_flux = jet.terms("kinetic", "bracket", "div_flux")
    jet.drop("safe")  # the window reads only the mask
    return {"keep": keep, "kinetic": kinetic, "bracket": bracket, "div_flux": div_flux}


def _sups(window, dt, potential, params, backend) -> tuple[float, float]:
    """The two residual sups of one (prev, mid, next) window of records,
    assembled from the middle record's terms as `_hj_residual` and
    `continuity_residual` do, each taken as soon as its residual exists.
    Every entry of the middle record but its jet is taken out of it, for
    the later triples read only the jet's density and mask; the continuity
    residual runs without the HJ terms."""
    prev, mid, nxt = _triple_jet([record["jet"] for record in window], dt, params, backend)
    own = window[1]
    keep, div_flux = own.pop("keep"), own.pop("div_flux")
    mask = mid.mask | prev.mask | nxt.mask
    dphi_dt = _phase_rate(own.pop("phase_in"), window[2]["phase_in"], mask, dt, params.hbar)
    terms = (dphi_dt, own.pop("kinetic"), own.pop("bracket"), None if potential is None else potential.values, mask)
    hj = _sup(_hj_residual(terms, mid.grid, (params.hbar * params.hbar) / (4.0 * params.mass)).values, keep)
    del terms, dphi_dt
    drho_dt = (nxt.rho - prev.rho) / (2.0 * dt)
    drho_dt += div_flux
    return hj, _sup(RealField(mid.grid, drho_dt), keep)


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
    jet, dphi_dt, mask = _rate(snapshots, dt, params, backend)
    kinetic, grad_sq = jet.terms("kinetic", "grad_sq")
    internal = (params.hbar * params.hbar / (8.0 * params.mass)) * grad_sq
    speed = 0.5 * params.hbar * np.sqrt(grad_sq) / params.mass
    internal_koenig = 0.5 * params.mass * speed * speed
    common = dphi_dt + kinetic  # never -0.0, so an absent U needs no zeros added (`_hj_residual`)
    if potential is not None:
        common += potential.values
    base = np.where(mask, 0.0, -(common + internal) * jet.rho)
    koenig = np.where(mask, 0.0, -(common + internal_koenig) * jet.rho)
    return LagrangianDensity(
        density=RealField(jet.grid, base),
        density_koenig=RealField(jet.grid, koenig),
        node_mask=mask,
    )
