"""Decay rates, level shifts, plasmon-resonance fits and collective structure
for a pair of two-level emitters near the wire.

Everything dimensionful cancels against the free-space rate: with c = 1 and
lengths in vacuum wavelengths,

    Gamma0(omega)          = omega^3 / (3 pi)            (reduced units)
    Gamma_mn / Gamma0      = (6 pi / omega) Im[d1 . G(r_m, r_n, omega) . d2]
    shift_resonant/Gamma0  = (3 pi / omega) Re[d1 . Gmed(omega) . d2]
    shift_integral/Gamma0  = (3 / omega^3) int dk k^2 Re[d1 . Gmed(ik) . d2]
                                               * omega / (k^2 + omega^2)

Rates use the full tensor (vacuum + scattered); shifts use the scattered
part only, which keeps them finite without any ultraviolet regulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .errors import DomainError, FitError
from .frequencies import OMEGA_A, SpectralPoint
from .green_vacuum import cyl_to_cart_point, cylindrical_basis, green_vacuum_im_coincident
# settle_azimuthal_order is unused here; perfbench's traced runs look it up in this module
from .green_wire import (_MIRROR, WireGeometry, WireSpectralTable, settle_azimuthal_order,
                         wire_green)
from .quadrature import _GL_W, _GL_X, _KIDX, _NPTS, _PROJ

_P_EVEN = _MIRROR.ravel() > 0   # components the -kz mirror keeps
# a fold sums the components the mirror keeps into one column and those it
# flips into another: _SPLIT picks them
_SPLIT = np.stack([_P_EVEN, ~_P_EVEN], axis=1).astype(float)   # (9, 2)
# i^k e^{it} = (c cos t - s sin t) + i (s cos t + c sin t) for i^k = c + i s: _ROT
# (cos, sin; 16; re, im) takes a moment's Re and Im multipliers to cos and sin
_C, _S = np.real(1j ** _KIDX), np.imag(1j ** _KIDX)
_ROT = np.array([[_C, _S], [-_S, _C]]).transpose(0, 2, 1)
# a t panel's fold: rows 0, 13, 14 and 15 of _PROJ times 2 and 4 t
# half-widths, as ``legendre_error`` counts them, over the half * _GL_W that
# a node's columns carry
_T_FOLD = _PROJ[[0, 13, 14, 15]] / _GL_W * [[2.0], [4.0], [4.0], [4.0]]

_COINCIDENT = 1e-12
_Z = np.array([0.0, 0.0, 1.0])   # the direction between two points on one axial line

KAPPA_TABLE_BUDGET = 420   # most t panels (one kz panel set for 16 kappa each) one integral holds
FIT_MAX_STEPS = 100        # Levenberg-Marquardt steps, rejected ones included
FIT_POLISH_STEPS = 8       # Gauss-Newton steps after them, at most
FIT_MAX_RESIDUAL = 0.1     # largest relative residual of an accepted plasmon fit
_LOG_MAX = math.log(np.finfo(float).max)   # the largest log g that math.exp takes


@dataclass(frozen=True)
class EmitterPair:
    """Two emitters in cylindrical coordinates with unit dipole orientations
    given in the local (rho, phi, z) basis at each position."""

    position_1: tuple
    position_2: tuple
    dipole_1: tuple = (1.0, 0.0, 0.0)
    dipole_2: tuple = (1.0, 0.0, 0.0)
    omega_a: float = OMEGA_A

    def __post_init__(self):
        for d in (self.dipole_1, self.dipole_2):
            v = np.asarray(d, float)
            if v.shape != (3,) or not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
                raise DomainError(f"dipole orientation {d} is not a unit 3-vector to 1e-12")
        if not 0.0 < self.omega_a < math.inf:
            raise DomainError("transition frequency must be finite and positive")
        for p in (self.position_1, self.position_2):
            v = np.asarray(p, float)
            if v.shape != (3,) or not (np.all(np.isfinite(v)) and v[0] > 0.0):
                raise DomainError("emitter positions must be three finite numbers (rho, phi, "
                                  f"z) with positive radial coordinates, got {p}")

    @property
    def dz(self) -> float:
        return self.position_2[2] - self.position_1[2]


@dataclass
class RateShiftResult:
    """Rates and decomposed shifts, all scaled by the free-space rate.

    shift*_total = shift*_resonant + shift*_integral holds exactly by
    construction; shift11_* is the wire-induced single-emitter (Lamb) part.
    ``diagnostics["failed_checks"]`` of a ``PairInteraction`` row maps each
    check that kept it from converging to its (value, bound).
    """

    gamma11: float
    gamma12: float
    shift12_resonant: float
    shift12_integral: float
    shift11_resonant: float
    shift11_integral: float
    converged: bool = True
    diagnostics: dict = field(default_factory=dict)

    @property
    def shift12_total(self):
        return self.shift12_resonant + self.shift12_integral

    @property
    def shift11_total(self):
        return self.shift11_resonant + self.shift11_integral

    @property
    def gamma12_over_gamma11(self):
        return self.gamma12 / self.gamma11

    @property
    def shift12_total_over_gamma11(self):
        return self.shift12_total / self.gamma11

    @property
    def shift12_resonant_over_gamma11(self):
        return self.shift12_resonant / self.gamma11

    @property
    def shift12_integral_over_gamma11(self):
        return self.shift12_integral / self.gamma11


@dataclass
class LorentzianFit:
    """Symmetric two-Lorentzian description of the plasmon peak in the
    radial spectral density: amplitude, half-width and center (+/- mirror)."""

    amplitude_a: float
    width_gamma: float
    center_kz_pl: float
    fit_residual: float


def _light_cone(w, d1, d2, rhat):
    """(c_0, c_2), with Im d1 . G0(r rhat) . d2 = j_0(w r) c_0 + j_2(w r) c_2:
    (w / 6 pi) (d1 . d2, (3 (d1 . rhat)(d2 . rhat) - d1 . d2) / 2).  Im G0
    is the kz integral over the light cone [-w, w] of a quadratic, so these
    are the moments of one Legendre panel of half-width w (DLMF 10.54.2)."""
    d12 = float(d1 @ d2)
    return green_vacuum_im_coincident(w) * np.array(
        [d12, 1.5 * float(d1 @ rhat) * float(d2 @ rhat) - 0.5 * d12])


def _same_column(p1, p2):
    return abs(p1[0] - p2[0]) < _COINCIDENT and abs(p1[1] - p2[1]) < _COINCIDENT


def check_pair_geometry(geom: WireGeometry, pair: EmitterPair):
    """Raise DomainError unless both emitters sit outside the wire on one
    axial line, the geometry the pair tables cover."""
    if not min(pair.position_1[0], pair.position_2[0]) > geom.radius:
        raise DomainError("emitters must sit outside the wire")
    if not _same_column(pair.position_1, pair.position_2):
        raise DomainError("pair tables require emitters on one axial line; "
                          "use wire_green directly for general geometry")


def _rates(w, g11, g12):
    """(gamma11, gamma12) per free-space rate, gamma_mn = (6 pi / w) Im g_mn
    from the whole g_mn = d_m . G(p_m, p_n) . d_n, by one formula for both."""
    return tuple((6.0 * math.pi / w) * g.imag for g in (g11, g12))


class PairInteraction:
    """Shared spectral tables for one geometry; cheap per-separation results.

    Building this object performs every expensive wavenumber integration:
    a real-frequency table at omega_a plus one kz panel set per imaginary
    t panel (``WireSpectralTable`` and ``_kappa_panel_job``, both from the
    one kz-table builder), each built once at the azimuthal order ``nmax``
    or, when that is None, at the order its own prediction gives.  The
    pair's dipoles are folded into both tables as they are built, so each
    holds two columns, of d1 . G . d2 and of d1 . G . d1, instead of nine
    components.  ``at(dz)`` then produces a full RateShiftResult from one
    real spherical-Bessel ladder over the d1 . d2 columns of both tables,
    which is what makes dense distance sweeps and oscillation-phase
    measurements affordable.

    The t panels' sets (``_kappa_sets``) come back folded over their t
    panel: four column sets per kz panel, the t panel's integral and its
    c_13..c_15.  Building lays every row out here, in one flat table in
    ascending half-width, each row with one read: Re g, Im g, the d . T . d
    integral, or one t panel's c_13, c_14 or c_15.  ``reads`` (3 + 3 t
    panels, rows) is that index as a 0/1 matrix, and every pair number is
    its product with the rows' values (``_read``): g, the integral and each
    t panel's c_13..c_15, whose absolute sum is its Legendre bound.  One
    more row, read with Im g, is the light-cone row of the free-space part
    (``_light_cone``: half-width w, midpoint 0), so g is the whole
    d . G . d, vacuum and scattered part, at every dz, 0 included.  The
    d1 . d2 columns at dz (``_phase_rows``) give g12 and i12, the d1 . d1
    columns at dz = 0 give ``coincident`` (g11, i11, its bound) once.  A set
    out of its node budget, or a t grid stopped short of its target by
    KAPPA_TABLE_BUDGET t panels, clears ``kappa_ok``, which the rows report
    as unconverged.  ``kz_err``, the sum of the sets' error bounds (kz and
    azimuthal, in the integral's units), enters the error the rows report.
    ``kappa_panels``, ``kappa_nodes`` and ``kappa_orders`` are the t panels,
    their node count and each set's azimuthal order, in grid order;
    ``kappa_kz_nodes`` counts the kz nodes of every set built, those of
    split t panels included, as ``kappa_nodes`` counts their t nodes.
    """

    def __init__(self, geom: WireGeometry, pair: EmitterPair, *, tol=1e-6,
                 nmax=None, dz_refs=(0.0, 0.5, 2.0, 4.0), parallel=None):
        check_pair_geometry(geom, pair)
        if not np.isfinite(dz_refs).all():
            raise DomainError(f"reference separations must be finite, got {dz_refs}")
        self.tol = float(tol)
        self.omega_a = w = pair.omega_a
        rho = pair.position_1[0]

        point = SpectralPoint.real_axis(w)
        self.table_res = tab = WireSpectralTable(geom, point, rho, rho, 0.0, nmax=nmax,
                                                 tol=tol)
        self.nmax = tab.nmax

        d1, d2 = (np.asarray(d, float) for d in (pair.dipole_1, pair.dipole_2))
        dd = np.stack([np.outer(d1, d).ravel() for d in (d2, d1)], axis=1)
        self.kappa_panels, self.kappa_nodes, self.kappa_kz_nodes, grid_ok, sets = _kappa_sets(
            geom, rho, w, dd, tol=tol, nmax=nmax, dz_refs=tuple(dz_refs), parallel=parallel)
        kz_halves, kz_mids, kz_cols, _, kz_errs, self.kappa_orders, oks, _ = zip(*sets)
        kz_cols12, kz_cols11 = zip(*kz_cols)
        self.kz_err = float(sum(kz_errs))
        self.kappa_ok = grid_ok and all(oks)
        # the rows: the real-axis rows of C, which sum to Re g (read 0), and
        # of -i C and the light-cone row, which sum to Im g (1), then four per
        # kz panel of t panel p: its integral (2) and c_13..c_15 (3p + 3 .. 5);
        # each row has a d1 . d2 column (0) and a d1 . d1 column (1)
        n = len(tab.halves)
        cone = np.zeros((2, _NPTS, 1, 2))
        cone[0, [0, 2], 0] = np.stack([_light_cone(w, d1, d, _Z) for d in (d2, d1)], axis=1)
        res = np.concatenate([_fold(np.concatenate([tab.coefs, -1j * tab.coefs]),
                                    np.tile(tab.halves, 2), dd), cone], axis=2)
        read = np.concatenate([np.repeat([0, 1], n), [1]] + [
            np.tile([2, 3 * p + 3, 3 * p + 4, 3 * p + 5], len(h)) for p, h in enumerate(kz_halves)])
        reads = (read == np.arange(3 + 3 * len(sets))[:, None]).astype(float)
        halves, mids = (np.concatenate([np.tile(x, 2), [c], np.repeat(np.concatenate(y), 4)])
                        for x, c, y in ((tab.halves, w, kz_halves), (tab.mids, 0.0, kz_mids)))
        order = np.argsort(halves, kind="stable")
        self._halves, self._mids = halves[order], mids[order]
        self._reads = np.ascontiguousarray(reads[:, order])
        self._cols = np.ascontiguousarray(np.concatenate(
            [res[..., 0]] + [c.reshape(2, _NPTS, -1) for c in kz_cols12], axis=2)[:, :, order])
        # the d1 . d1 numbers at dz = 0, where each row's value is its j_0
        # cos column (``_phase_rows``): g11, the d1 . T . d1 integral, its bound
        self.coincident = self._read(np.concatenate(
            [res[0, 0, :, 1]] + [c.ravel() for c in kz_cols11])[order])

    def _read(self, rows):
        """(g, d . T . d integral, its t bound) from the rows' values."""
        out = self._reads @ rows
        return complex(out[0], out[1]), float(out[2]), float(np.abs(out[3:]).sum())

    def _pass(self, dz):
        """(d1 . G(p1, p2) . d2, d1 . T . d2 integral, its t bound) at dz."""
        return self._read(_phase_rows(self._halves, self._mids, self._cols, dz))

    def at(self, dz: float) -> RateShiftResult:
        """Rates and shifts at separation dz: one ladder pass (``_pass``)
        over the real-axis, light-cone and kappa rows, then closed forms."""
        if not math.isfinite(dz):
            raise DomainError(f"separation dz must be finite, got {dz}")
        w = self.omega_a
        g12, i12, e12 = self._pass(float(dz))
        g11, i11, e11 = self.coincident
        tab = self.table_res
        res_err = 2.0 * tab.err   # g12's and g11's, both from the one table

        gamma11, gamma12 = _rates(w, g11, g12)

        shift12_res = (3.0 * math.pi / w) * g12.real
        shift11_res = (3.0 * math.pi / w) * g11.real

        ierr = e12 + e11 + self.kz_err
        shift12_int = (3.0 / w**3) * i12
        shift11_int = (3.0 / w**3) * i11

        scale = max(1.0, abs(gamma11) * w / (6.0 * math.pi))
        # each check's (value, bound): a flag passes when true, a number when
        # at most its bound
        checks = {
            "real_panels_ok": (tab.panels_ok, True),
            "resonant_tensor_err": (res_err, 100.0 * self.tol * scale),
            "kappa_panels_ok": (self.kappa_ok, True),
            "kappa_err": (ierr, 100.0 * self.tol * max(1.0, abs(i12), abs(i11))),
        }
        failed = {name: (value, bound) for name, (value, bound) in checks.items()
                  if not (value if bound is True else value <= bound)}
        return RateShiftResult(
            gamma11=gamma11, gamma12=gamma12,
            shift12_resonant=shift12_res, shift12_integral=shift12_int,
            shift11_resonant=shift11_res, shift11_integral=shift11_int,
            converged=not failed,
            diagnostics={
                "resonant_tensor_err": res_err,
                "kappa_err": ierr,
                "kappa_nodes": self.kappa_nodes,
                "kappa_kz_nodes": self.kappa_kz_nodes,
                "nmax": self.nmax,
                "kappa_nmax": max(self.kappa_orders),
                "failed_checks": failed,
            },
        )


def _kappa_sets(geom, rho, omega_a, dd, *, tol, nmax, dz_refs, parallel):
    """t-substituted imaginary-axis integral, one kz panel set per t panel.

    Panels live in t = kappa / (omega_a + kappa).  The integral is linear in
    the spectra at i*kappa(t), so the 16 Gauss nodes of a t panel share one
    kz panel set (``_kappa_panel_job``), each node's spectrum times its
    substitution and t-rule weights, folded with the dipole pairs dd (9, 2),
    d1 d2 and d1 d1, into one column each.  The t panels follow the t rule
    of every imaginary-axis integral (``quadrature.imag_axis_panels``: at
    most five coarse seed panels, with no sliver panel at the cut, then
    splits of the worst panel, graded toward t = 0), cut at the kappa
    cutoff; at tol 1e-6 the default sweep's five seed panels need no split.
    Their node values, which each job returns, are what the rows report,
    d1 . T . d2 at each of the reference separations ``dz_refs`` and
    d1 . T . d1 at 0, so the Legendre-coefficient decay that drives their
    splits is that of the rows' own integrands.

    A t panel is the unit of work, and ``parallel`` (a map) spreads the
    panels of one build step over worker processes.  Each job settles its t
    panel's order from its own arguments alone, so the orders, like the
    sets, do not depend on the worker count.  At most KAPPA_TABLE_BUDGET t
    panels are built.  Returns the t panels, their node count, the kz nodes
    of every job run, the grid's converged flag and each t panel's job
    result, in grid order.
    """
    gap = 2.0 * (rho - geom.radius)   # summed emitter-to-surface distance
    kap_cut = max(6.0 * omega_a, 20.0 / max(gap, 1e-6))
    run = parallel or (lambda fn, xs: [fn(x) for x in xs])
    # each t panel's job result, keyed by its first node
    sets = {}

    def values(t):
        t = t.reshape(-1, _NPTS)
        # each panel's half-width, from its outermost Gauss nodes
        halves = (t[:, -1] - t[:, 0]) / (2.0 * _GL_X[-1])
        jobs = [(geom, rho, *quadrature.t_substitution(nodes, omega_a), half, tol, nmax, dd,
                 dz_refs) for nodes, half in zip(t, halves)]
        sets.update(zip(t[:, 0], run(_kappa_panel_job, jobs)))
        return np.concatenate([sets[a][3] for a in t[:, 0]])

    grid, grid_ok = quadrature.imag_axis_panels(
        values, tol, kap_cut / (omega_a + kap_cut), KAPPA_TABLE_BUDGET * _NPTS)
    panels = [(p[0], p[1]) for p in grid.panels]
    return (panels, grid.nodes_used, sum(job[-1] for job in sets.values()), grid_ok,
            [sets[quadrature._panel_nodes(a, b)[0]] for a, b in panels])


def _kappa_panel_job(job):
    """The kz panel set that one t panel's 16 kappa nodes share, a
    ``WireSpectralTable`` of their imaginary-axis points, folded with the
    dipole pairs dd (``_fold``) and over the t panel (``_T_FOLD``), and the
    nodes' values.

    Each node's spectrum enters the set times its substitution weight and
    its weight in the t rule (``half`` times the Gauss weight), so the set
    is refined, and its error reported, in the units of the t panel's part
    of the integral, at the order ``nmax`` or, when that is None, the one
    its probe predicts for that part.  The budget is 30,000 kz nodes, each
    evaluated at all 16 frequencies.  The nodes' values (16, len(dz_refs) +
    1) are d1 . T . d2 at each of ``dz_refs`` and d1 . T . d1 at 0, over
    the t-rule weight half * _GL_W.  Returns (halves, mids, the columns the
    rows read, d1 . d2's (cos, sin; 16; kz panels; 4) and d1 . d1's j_0 cos
    (kz panels; 4): the t panel's integral and its c_13..c_15; the node
    values, the set's whole error ``err`` (kz and azimuthal), its order,
    whether it stayed within its budget, its kz nodes).
    Module-level with picklable arguments and result, so a sweep can run it
    in worker processes; the arithmetic, the order included, is the same for
    any worker count, which keeps outputs bit-reproducible.
    """
    geom, rho, kappas, weights, half, tol, nmax, dd, dz_refs = job
    tab = WireSpectralTable(geom, [SpectralPoint.imaginary_axis(k) for k in kappas], rho, rho,
                            0.0, weights=half * _GL_W * weights, tol=tol, budget=30000,
                            nmax=nmax)
    n, panels = len(kappas), len(tab.halves)
    # one row per kz panel and node, panel-major
    coefs = tab.coefs.reshape(panels, _NPTS, n, 9).transpose(0, 2, 1, 3).reshape(-1, _NPTS, 9)
    cols = _fold(coefs, np.repeat(tab.halves, n), dd).reshape(2, _NPTS, panels, n, -1)
    halves, mids = np.repeat(tab.halves, n), np.repeat(tab.mids, n)
    # each node's value, summed over the kz panels: d1 . T . d2 (column 0) at
    # each reference separation, then d1 . T . d1 (column 1) at 0
    vals = [_phase_rows(halves, mids, cols[..., c].reshape(2, _NPTS, -1), dz)
            .reshape(-1, n).sum(axis=0) for dz, c in [(dz, 0) for dz in dz_refs] + [(0.0, 1)]]
    folded = np.einsum("skpnc,rn->skprc", cols, _T_FOLD)
    return (tab.halves, tab.mids, (folded[..., 0], folded[0, 0, :, :, 1]),
            np.stack(vals, axis=1) / (half * _GL_W)[:, None], tab.err, tab.nmax, tab.panels_ok,
            tab.nodes_used)


def _fold(coefs, halves, dd):
    """Columns (cos, sin; 16; rows; C) of the real part of kz panels with +kz
    coefficients (rows, 16, 9) and their -kz mirror P, weighted by dd (9, C).

    With m_k = 2 i^k j_k(dz half) half e^{i dz mid}, a panel contributes
    Re(m C + conj(m) P C): 2 Re m Re C where P = +1 and -2 Im m Im C where
    P = -1.  With the i^k signs (``_ROT``) and 2 half folded in, its value at
    dz is sum_k j_k(dz half) (cos(dz mid) cols[0, k] + sin(dz mid) cols[1, k])."""
    rows = np.where(_P_EVEN, 2.0 * coefs.real, -2.0 * coefs.imag)
    weights = np.einsum("skj,ij,ic->skic", _ROT, _SPLIT, dd)       # (2, 16, 9, C)
    return (rows.transpose(1, 0, 2) @ weights) * (2.0 * halves)[:, None]


def _phase_rows(halves, mids, cols, dz):
    """Each row's value at separation dz from its ``_fold`` columns (2, 16,
    rows): one real ladder j_0..j_15 at dz times the half-widths, fastest
    with the rows in ascending half-width (``quadrature.jn_ladder``)."""
    cos_sin = np.einsum("kr,skr->sr", quadrature.jn_ladder(dz * halves), cols)
    return np.cos(dz * mids) * cos_sin[0] + np.sin(dz * mids) * cos_sin[1]


def decay_rates(geom: WireGeometry, pair: EmitterPair, *, tol=1e-6):
    """(gamma11, gamma12) scaled by the free-space rate.

    Uses the full tensor, vacuum plus scattered part, at the transition
    frequency, both rates by one formula (``_rates``).  Coincident
    positions build one ``wire_green`` table and read it for both rates, so
    with d1 = d2, gamma12 = gamma11 exactly.  The vacuum part is
    the light-cone quadratic (``_light_cone``) in Cartesian axes, exact at
    every separation, coincidence included.
    """
    w = pair.omega_a
    point = SpectralPoint.real_axis(w)
    p1, p2 = pair.position_1, pair.position_2
    d1, d2 = np.asarray(pair.dipole_1, float), np.asarray(pair.dipole_2, float)
    g11 = wire_green(geom, p1, p1, point, tol=tol).value
    g12 = g11 if np.array_equal(p1, p2) else wire_green(geom, p1, p2, point, tol=tol).value

    def contraction(pb, g, db):
        r = cyl_to_cart_point(*p1) - cyl_to_cart_point(*pb)
        dist = float(np.linalg.norm(r))
        ca, cb = (cylindrical_basis(p[1]) @ d for p, d in ((p1, d1), (pb, db)))
        # at dist 0 any rhat will do, since j_2(0) = 0
        vac = quadrature.jn_ladder(w * dist)[[0, 2], 0] @ _light_cone(w, ca, cb, r / (dist or 1.0))
        return complex(d1 @ g @ db) + 1j * vac

    return _rates(w, contraction(p1, g11, d1), contraction(p2, g12, d2))


def dipole_shift(geom: WireGeometry, pair: EmitterPair, *, tol=1e-6) -> RateShiftResult:
    """Full decomposed result (rates, dipole-dipole shift, wire Lamb shift)
    for one emitter pair; see PairInteraction for sweeping separations."""
    engine = PairInteraction(geom, pair, tol=tol, dz_refs=(0.0, max(abs(pair.dz), 0.02)))
    return engine.at(pair.dz)


# -- plasmon resonance fit and analytic approximations -------------------


def fit_two_lorentzian(kz, values, guess) -> LorentzianFit:
    """Least-squares fit of A/(1+(k-kc)^2/g^2) + A/(1+(k+kc)^2/g^2).

    Variable projection (Golub & Pereyra 1973): for fixed (g, kc) the model
    is A phi, so A = phi.y / phi.phi, and Levenberg-Marquardt runs on
    (log g, kc) with Kaufman's projected Jacobian -A (I - phi phi^T/phi.phi)
    dphi.  It stops when an accepted step no longer lowers the cost or moves
    each parameter by at most 4 ulps.  The cost is then at its roundoff floor
    but the parameters need not be at its minimum, so Gauss-Newton steps
    follow while each is under half the one before: they converge to the
    zero of the gradient J^T r, which roundoff in the data moves only by
    its condition number (Kaufman's J gives the exact gradient, since r is
    orthogonal to phi).  ``guess`` is (A, g, kc); its A is not
    used.  A trial point whose g, amplitude, residual or Jacobian leaves
    the float range is a rejected step, and a singular Gauss-Newton matrix
    or such a trial point ends the polish.  Raises FitError, and no other
    error, for a non-finite guess or one with g < 1e-12, all-zero or
    non-finite data, a guess outside the float range, a non-positive
    amplitude, or no stop within FIT_MAX_STEPS.
    """
    kz = np.asarray(kz, float)
    y = np.asarray(values, float)
    guess = np.asarray(guess, float)
    if not (np.isfinite(guess).all() and guess[1] >= 1e-12):
        raise FitError(f"fit guess (A, gamma, kc) = {tuple(guess.tolist())} is not finite "
                       "with gamma >= 1e-12")
    if not (np.isfinite(kz).all() and np.isfinite(y).all() and y.any()):
        raise FitError("fit data must be finite and not all zero")

    def project(p):
        """Amplitude, projected residual and Kaufman's Jacobian at p = (log g,
        kc), or None where g or any of them leaves the float range."""
        gam = math.exp(p[0]) if p[0] < _LOG_MAX else math.inf
        if not 0.0 < gam < math.inf:
            return None
        u, v = (kz - p[1]) / gam, (kz + p[1]) / gam
        lu, lv = 1.0 / (1.0 + u * u), 1.0 / (1.0 + v * v)
        phi = lu + lv
        amp = (phi @ y) / (phi @ phi)
        # d phi / d log g and d phi / d kc
        dphi = np.stack([2.0 * (lu * (1.0 - lu) + lv * (1.0 - lv)),
                         (2.0 / gam) * (u * lu * lu - v * lv * lv)], axis=1)
        jac = -amp * (dphi - np.outer(phi, phi @ dphi) / (phi @ phi))
        r = y - amp * phi
        return (amp, r, jac) if np.isfinite(jac).all() and np.isfinite(r @ r) else None

    # an overflow on the way to a non-finite trial point is that point's
    # rejection, not an error
    with np.errstate(all="ignore"):
        p = np.array([math.log(guess[1]), guess[2]])
        if (trial := project(p)) is None:
            raise FitError(f"fit guess {tuple(guess.tolist())} leaves the float range")
        amp, r, jac = trial
        cost, lam = r @ r, 1e-3
        for _ in range(FIT_MAX_STEPS):
            jtj = jac.T @ jac
            try:
                step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -jac.T @ r)
            except np.linalg.LinAlgError:
                raise FitError("fit Jacobian is singular") from None
            trial = project(p + step)
            if trial is None or not (t_cost := trial[1] @ trial[1]) <= cost:
                lam *= 10.0
                continue
            done = t_cost == cost or (np.abs(step) <= 4.0 * np.spacing(p)).all()
            p, (amp, r, jac), cost, lam = p + step, trial, t_cost, 0.1 * lam
            if done:
                break
        else:
            raise FitError(f"fit did not stop within {FIT_MAX_STEPS} steps")
        last = np.inf
        for _ in range(FIT_POLISH_STEPS):
            try:
                step = np.linalg.solve(jac.T @ jac, -jac.T @ r)
            except np.linalg.LinAlgError:
                break
            size = float(np.abs(step).max())
            if not size < 0.5 * last or (trial := project(p + step)) is None:
                break
            p, last = p + step, size
            amp, r, jac = trial
    if not amp > 0.0:
        raise FitError(f"fitted amplitude {amp} is not positive")
    return LorentzianFit(amplitude_a=float(amp), width_gamma=math.exp(p[0]),
                         center_kz_pl=abs(float(p[1])),
                         fit_residual=float(np.linalg.norm(r) / np.linalg.norm(y)))


def fit_plasmon_lorentzian(omega: float, spectrum, pole) -> LorentzianFit:
    """Fit the symmetric two-Lorentzian model to Im G~_rr(kz) of ``spectrum``
    (kz nodes -> (K, 3, 3): a kz table's ``spectrum`` or an evaluator) at
    real omega.  The fit window [omega, 4 * kz_peak] excludes the radiative
    continuum kz < omega that the model does not describe.  Initial guesses
    are the TM0 root ``pole`` (kz, width) that the spectrum's ``_k_window``
    found (a table's ``pole``), or, when it is None, the sampled peak
    location and half width, and the peak value; no root is searched here.
    Raises DomainError unless 0 < omega < inf, and FitError without a
    bound-mode maximum, with a fitted center outside (omega, 4 * kz_peak),
    the kz range the fit sampled, or with a relative residual above
    FIT_MAX_RESIDUAL, where one Lorentzian pair does not describe the peak.
    """
    w = float(omega)
    if not 0.0 < w < math.inf:
        raise DomainError(f"the plasmon fit needs omega > 0 and finite, got {omega}")

    if pole is not None:
        k_guess, width_guess = pole
    else:
        # a scan with local refinement around the maximum
        scan = w * np.geomspace(1.003, 40.0, 200)
        im_scan = spectrum(scan)[:, 0, 0].imag
        ipk = int(np.argmax(im_scan))
        if ipk in (0, len(scan) - 1) or im_scan[ipk] <= 0:
            raise FitError("no interior spectral maximum beyond the light line; "
                           "no bound plasmon to fit")
        k_guess = float(scan[ipk])
        width_guess = float(scan[ipk + 1] - scan[ipk])
        for _ in range(4):
            local = k_guess + width_guess * np.linspace(-2.0, 2.0, 41)
            local = local[local > w]
            im_loc = spectrum(local)[:, 0, 0].imag
            j = int(np.argmax(im_loc))
            k_guess = float(local[j])
            above = local[im_loc > 0.5 * im_loc[j]]
            width_guess = max(0.5 * (above[-1] - above[0]), 1e-4 * w)
    peak = float(spectrum(np.asarray([k_guess]))[0, 0, 0].imag)
    if peak <= 0 or not k_guess > w:
        raise FitError("no bound-mode peak beyond the light line")

    window = np.linspace(1.0001 * w, 4.0 * k_guess, 180)
    dense = k_guess + width_guess * np.linspace(-15, 15, 180)
    kz = np.unique(np.concatenate([window, dense[(dense > w) & (dense < 4 * k_guess)]]))
    vals = spectrum(kz)[:, 0, 0].imag
    fit = fit_two_lorentzian(kz, vals, (peak, width_guess, k_guess))
    if not w < fit.center_kz_pl < 4.0 * k_guess:
        raise FitError(f"fitted center {fit.center_kz_pl:.6g} is outside the sampled kz "
                       f"range ({w:.6g}, {4.0 * k_guess:.6g})")
    if not fit.fit_residual <= FIT_MAX_RESIDUAL:
        raise FitError(f"fit residual {fit.fit_residual:.3g} exceeds {FIT_MAX_RESIDUAL:g}: "
                       "one Lorentzian pair does not describe the peak")
    return fit


@dataclass
class ApproxRates:
    """Single-resonance analytic approximations, reported as ratios."""

    gamma11_over_gamma0: float
    gamma12_over_gamma11: float
    shift12_over_gamma11: float


def analytic_approximations(fit: LorentzianFit, dz: float,
                            omega_a: float = OMEGA_A) -> ApproxRates:
    """Plasmon-channel rates and shift from the fitted Lorentzian.

    gamma11 ~ (12 pi^2 A gamma / omega) Gamma0;
    gamma12/gamma11 = exp(-gamma dz) cos(kpl dz);
    shift12/gamma11 = -(1/2) exp(-gamma dz) sin(kpl dz), lagging the decay
    coupling by a quarter period.
    """
    if not (0.0 <= dz < math.inf and 0.0 < omega_a < math.inf):
        raise DomainError(f"need finite dz >= 0 and omega_a > 0, got {dz}, {omega_a}")
    a, gam, kpl = fit.amplitude_a, fit.width_gamma, fit.center_kz_pl
    envelope = math.exp(-gam * dz)
    return ApproxRates(
        gamma11_over_gamma0=12.0 * math.pi**2 * a * gam / omega_a,
        gamma12_over_gamma11=envelope * math.cos(kpl * dz),
        shift12_over_gamma11=-0.5 * envelope * math.sin(kpl * dz),
    )


# -- collective structure and validity diagnostics -----------------------


@dataclass
class DickeLevels:
    """Symmetric / antisymmetric channel decay rates and shifts (per Gamma0)."""

    symmetric_decay: float
    symmetric_shift: float
    antisymmetric_decay: float
    antisymmetric_shift: float
    superradiance_factor: float


def dicke_levels(result: RateShiftResult) -> DickeLevels:
    """Collective singly-excited channels: decays Gamma11 +/- Gamma12 and
    level shifts +/- shift12."""
    g11, g12 = result.gamma11, result.gamma12
    s12 = result.shift12_total
    sub = g11 - g12
    factor = math.inf if sub < 1e-12 * g11 else (g11 + g12) / sub
    return DickeLevels(
        symmetric_decay=g11 + g12,
        symmetric_shift=s12,
        antisymmetric_decay=sub,
        antisymmetric_shift=-s12,
        superradiance_factor=factor,
    )


@dataclass
class MarkovDiagnostic:
    bandwidth: float
    max_rate: float
    warn: bool


def markov_diagnostic(result: RateShiftResult, dz: float,
                      gamma0_abs: float) -> MarkovDiagnostic:
    """Retardation-bandwidth check of the Markov approximation.

    The reservoir correlation seen by a separated pair has spectral width
    c / dz = 1 / dz; when the computed couplings (converted to absolute
    frequency units through ``gamma0_abs``, the physical free-space rate)
    exceed a tenth of it, the flat-reservoir assumption is strained.
    Exactly at threshold no warning is raised (strict inequality).
    """
    if not (0 < dz < math.inf and 0 < gamma0_abs < math.inf):
        raise DomainError(f"diagnostic needs a finite dz > 0 and gamma0_abs > 0, "
                          f"got {dz} and {gamma0_abs}")
    bandwidth = 1.0 / dz
    max_rate = max(abs(result.gamma12), abs(result.shift12_total)) * gamma0_abs
    return MarkovDiagnostic(bandwidth=bandwidth, max_rate=max_rate,
                            warn=bool(max_rate > 0.1 * bandwidth))
