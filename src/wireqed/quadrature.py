"""Frequency- and wavenumber-domain quadrature.

Everything here is built on one primitive: panels carrying a 16-point
Legendre expansion of a smooth envelope, integrated against an oscillatory
phase factor exp(i*lambda*x) analytically through spherical-Bessel moments

    integral_{-1}^{1} P_k(t) e^{i c t} dt = 2 i^k j_k(c).

The node count is therefore independent of how many oscillation periods a
panel spans, and a finished panel set can be re-integrated against any
phase without touching the integrand again -- which is what makes dense
distance sweeps affordable.  With lambda = 0 the panels reduce to plain
Gauss-Legendre quadrature.

Every panel set is built one way: its seed panels, then ``PanelSet.refine``,
one rule that splits the worst panel until the summed bound meets a target
read again after each round of splits while it falls.  A set holds its
integrand and calls it in one place, ``PanelSet.take``, on the nodes of the
panel taken and of the panels asked for ahead, whose records wait for their
own take.  The kz tables, the t grid of the pair engine's imaginary-frequency
integral and the validation integrals differ only in their seed panels and
their node values, and the kz tables add geometric tail blocks between their
seeds and the refinement, placed with the cuts by one kz window.  Their
blocks and splits look ahead (``build_spectral_panels``), so every table is
the one that one panel per step builds, bit for bit.

Public operations:

* ``build_spectral_panels`` -- panels of a +kz spectrum, shaped by its kz
                               window; a per-component mirror sign supplies
                               the -kz side, and the components may be
                               several spectra sharing one set of panels
* ``imag_axis_panels``      -- the t grid of every imaginary-axis integral:
                               the pair engine's and the one below differ
                               only in cut and budget
* ``imag_axis_integrate``   -- the damped integral over imaginary frequencies
                               entering the level-shift formula
* ``pv_shift_oracle``       -- brute-force principal-value evaluation of the
                               real-axis shift integral (the independent check
                               of the contour-rotated route)
* ``kk_check``              -- numerical Kramers-Kronig closure residual

The integrands of ``imag_axis_integrate`` and ``pv_shift_oracle`` are array
functions, called once per build step on an array of nodes; ``kk_check``
takes a tensor component of one SpectralPoint and loops it itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .frequencies import SpectralPoint

_NPTS = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_NPTS)
# P_k(x_i) for k = 0..15
_LEG_V = np.polynomial.legendre.legvander(_GL_X, _NPTS - 1)  # [i, k]
# coefficient projection: a_k = (2k+1)/2 * sum_i w_i f(x_i) P_k(x_i)
_PROJ = ((2 * np.arange(_NPTS) + 1) / 2.0)[:, None] * (_LEG_V.T * _GL_W[None, :])
_KIDX = np.arange(_NPTS)
_TWO_IPOW = 2.0 * 1j ** _KIDX[:, None]

#: Most nodes that one spectrum evaluation of ``build_spectral_panels``
#: carries at azimuthal order 40, NODE_CAP * 41 // (nmax + 1) at order nmax:
#: the evaluator's working arrays stay near 3.5 MB.  On a 2-core Xeon VM with
#: 2 MB of L2 per core, order-40 kappa-table builds ran about 12% faster at
#: 128 nodes per call than at 256; at order 15, 328 nodes cut the calls 42%.
NODE_CAP = 128

#: The look-ahead of ``build_spectral_panels``: the most tail blocks one step
#: evaluates, and the share of the worst panel's bound from which a
#: split step evaluates another panel's parts along with the worst one's
#: (``PanelSet.refine``).
BLOCKS_AHEAD = 3
SPLIT_AHEAD = 0.1


@dataclass
class QuadratureReport:
    """Outcome of an adaptive integration."""

    value: complex
    abs_error_estimate: float
    nodes_used: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def _jn_upward(x):
    """j_0..j_15 at x >= 16 from sin and cos by the upward recurrence
    j_{k+1} = (2k+1)/x j_k - j_{k-1}: every order lies below x, where j_k and
    y_k oscillate alike and neither dominates, so errors do not grow."""
    # f[k] = (2k+1)/x, formed once: each step is one product and one
    # difference, written in place
    f = np.multiply.outer(2.0 * np.arange(_NPTS - 1) + 1.0, 1.0 / x)
    j = np.empty((_NPTS, x.size))
    j[0] = np.sin(x) * f[0]
    j[1] = (j[0] - np.cos(x)) * f[0]
    for k in range(1, _NPTS - 1):
        np.multiply(f[k], j[k], out=j[k + 1])
        j[k + 1] -= j[k - 1]
    return j


def _jn_miller(x):
    """j_0..j_15 at 1e-3 < x < 16 by Miller's algorithm (DLMF 10.51, 3.6):
    j_{k-1} = (2k+1)/x j_k - j_{k+1} run downward from 1e-30 at order
    16 + 12 + ceil(max x), where j_k is the minimal solution and the start
    values' error dies out, then scaled to the exact j_0 = sin(x)/x or
    j_1 = (j_0 - cos x)/x, whichever is larger (the other may sit at a zero)."""
    top = _NPTS + 12 + math.ceil(x.max())
    f = np.multiply.outer(2.0 * np.arange(top + 1) + 1.0, 1.0 / x)   # (2k+1)/x
    j = np.empty((top + 2, x.size))
    j[top + 1] = 0.0
    j[top] = 1e-30
    for k in range(top, 0, -1):
        np.multiply(f[k], j[k], out=j[k - 1])
        j[k - 1] -= j[k + 1]
    j = j[:_NPTS]
    j0 = np.sin(x) * f[0]
    j1 = (j0 - np.cos(x)) * f[0]
    use0 = np.abs(j0) >= np.abs(j1)
    j *= np.where(use0, j0, j1) / np.where(use0, j[0], j[1])
    return j


def _jn_series(x):
    """j_0..j_15 at 0 <= x <= 1e-3 from three terms of the ascending series
    x^k/(2k+1)!! (1 - x^2/(2(2k+3)) + x^4/(8(2k+3)(2k+5))) (DLMF 10.53.1);
    the first omitted term is below 1e-19 of the kept ones (none at x = 0)."""
    x2 = (x * x)[None, :]
    k = _KIDX[:, None]
    lead = x[None, :] ** k / np.cumprod(2 * _KIDX + 1.0)[:, None]
    return lead * (1.0 - x2 / (2 * (2 * k + 3)) + x2 * x2 / (8 * (2 * k + 3) * (2 * k + 5)))


def jn_ladder(c):
    """j_k(c), k = 0..15, shape (16, c.size), for real c, from recurrences
    and no special-function call: the ascending series up to |c| = 1e-3,
    where 1/c grows large (j_k(0) = delta_k0 exactly), Miller's downward
    recurrence up to 16, and the upward one from sin and cos beyond; then
    j_k(-x) = (-1)^k j_k(x).  Each range is one slice of the arguments in
    ascending |c|, sorted here unless they come that way."""
    c = np.atleast_1d(np.asarray(c, float))
    x = np.abs(c)
    order = np.argsort(x, kind="stable") if (x[1:] < x[:-1]).any() else None
    xs = x if order is None else x[order]
    lo, hi = np.searchsorted(xs, 1e-3, side="right"), np.searchsorted(xs, float(_NPTS))
    jk = np.empty((_NPTS, c.size))
    for part, ladder in ((slice(0, lo), _jn_series), (slice(lo, hi), _jn_miller),
                         (slice(hi, None), _jn_upward)):
        if xs[part].size:
            jk[:, part] = ladder(xs[part])
    if order is not None:
        jk[:, order] = jk.copy()
    jk[1::2, c < 0] *= -1.0
    return jk


def moments_for(c):
    """2 i^k j_k(c), k = 0..15, vectorized over c: the phase moments of the
    Legendre polynomials, from the one ladder ``jn_ladder``."""
    return _TWO_IPOW * jn_ladder(c)


def legendre_error(half, coef):
    """Error bound of panels of half-width ``half`` from the last three of
    their Legendre coefficients (axis -2 of ``coef``), largest over the
    components (axis -1): |int_a^b P_k((x-mid)/half) e^{i lam x} dx| <= 2*half
    for every lam."""
    return 4.0 * half * np.abs(coef[..., -3:, :]).sum(axis=-2).max(axis=-1)


def t_substitution(t, omega_a):
    """kappa = omega_a t / (1 - t) and the weight that turns
    dkappa kappa^2 omega_a / (kappa^2 + omega_a^2) into dt."""
    kap = omega_a * t / (1.0 - t)
    weight = omega_a * omega_a * t * t / ((1.0 - t) ** 2 * (t * t + (1.0 - t) ** 2))
    return kap, weight


def _panel_nodes(a, b):
    return 0.5 * (b + a) + 0.5 * (b - a) * _GL_X


def _records(panels, vals):
    """``PanelSet`` records of panels [(a, b), ...] from their node values
    (panels, 16, n_comp), or a row per node, in one pass with each panel's
    own numbers; projected as reals, which takes a third of the time."""
    a, b = np.array(panels, float).T
    vals = np.ascontiguousarray(vals, complex).reshape(len(panels), _NPTS, -1)
    coef = np.einsum("ki,pic->pkc", _PROJ, vals.view(float)).view(complex)
    err = legendre_error(0.5 * (b - a), coef)
    fmax = np.abs(vals).max(axis=(1, 2))
    return [[p[0], p[1], c, float(e), float(m), None]
            for p, c, e, m in zip(panels, coef, err, fmax)]


class PanelSet:
    """Adaptive Legendre-coefficient panels of a spectrum f held at +kz only.

    Each panel's record holds the Legendre coefficients, shape (16, n_comp),
    of its values at its Gauss nodes.  ``take`` appends them, and is the one
    place f is called; ``refine`` splits the panels through it.
    ``integral`` integrates them against exp(+i phase x).  With a
    per-component ``mirror`` sign the -kz side mirror * f(x) is integrated
    against exp(-i phase x) as well; ``None`` makes the integral one-sided.
    Panel refinement is driven purely by the decay of the Legendre
    coefficients, so the frozen panels (``_freeze``) of a refined set are
    valid for every phase at once.
    """

    def __init__(self, f, budget=20000, mirror=None, phase=0.0):
        self.f = f
        self.mirror = mirror
        self.budget = budget
        self.phase = phase
        self.nodes_used = 0
        self.panels = []  # records [a, b, coef(16, comp), err, fmax, integral]
        self.waiting = {}  # records evaluated ahead, by (a, b)

    def append(self, rec):
        self.nodes_used += _NPTS
        self.panels.append(rec)
        return rec

    def take(self, panel, ahead=()):
        """Append and return the record of ``panel`` = (a, b): the one waiting
        or, when none is, one from a call of f on its nodes and those of the
        ``ahead`` panels not waiting, in that order, whose records then wait."""
        if panel not in self.waiting:
            want = [panel, *(p for p in ahead if p not in self.waiting)]
            x = _panel_nodes(*np.array(want, float).T[:, :, None]).ravel()
            self.waiting.update(zip(want, _records(want, self.f(x))))
        return self.append(self.waiting.pop(panel))

    @property
    def err(self):
        return float(sum(p[3] for p in self.panels))

    def refine(self, target, split=None, pairs=1):
        """Split the worst panel until the summed bound meets
        ``target(self)``, read again after each round of splits and met again
        while it falls: each split drops that panel [a, b] and takes its two
        parts, cut at ``split(a, b)`` (its midpoint by default).  Returns the
        converged flag, False once the budget or a panel's width leaves none.

        A call of f evaluates the parts of up to ``pairs`` panels: the worst
        one's and, worst first, those of other panels whose bound is at least
        SPLIT_AHEAD times the worst, as far as the budget has room beside the
        parts waiting, which wait over every round until their panel's split
        takes them; so the splits are those of one split per step.
        """
        cut = split or (lambda a, b: 0.5 * (a + b))

        def ahead(m, b, bound):
            # the worst one's other part, then those of the other splits, run
            # only when ``take`` calls f
            yield m, b
            room = (self.budget - self.nodes_used - _NPTS * len(self.waiting)) // (2 * _NPTS)
            others = sorted((p for p in self.panels if p[3] >= bound
                             and (p[0], cut(p[0], p[1])) not in self.waiting
                             and not _too_narrow(p[0], p[1])), key=lambda p: -p[3])
            for pa, pb, *_ in others[:max(min(room, pairs) - 1, 0)]:
                yield from ((pa, cut(pa, pb)), (cut(pa, pb), pb))

        met, goal = math.inf, target(self)
        while goal < met:
            if self.err <= goal:
                met, goal = goal, target(self)
                continue
            if self.nodes_used + 2 * _NPTS > self.budget:
                return False
            worst = max(range(len(self.panels)), key=lambda i: self.panels[i][3])
            a, b, _, bound, *_ = self.panels[worst]
            if _too_narrow(a, b):
                return False
            del self.panels[worst]
            m = cut(a, b)
            self.take((a, m), ahead(m, b, SPLIT_AHEAD * bound))
            self.take((m, b))
        return True

    def _freeze(self):
        """(half-widths, midpoints, coefficients (P, 16, comp)) of the panels
        in kz order, as ``panel_terms`` takes them."""
        order = np.argsort([p[0] for p in self.panels])
        a = np.array([self.panels[i][0] for i in order])
        b = np.array([self.panels[i][1] for i in order])
        coef = np.stack([self.panels[i][2] for i in order])
        return 0.5 * (b - a), 0.5 * (a + b), coef

    def integral(self):
        """Sum of panel integrals at the set's phase (and -phase on the
        mirrored side); shape (n_comp,).  Each record keeps its panel's
        integral (its last slot), so a panel is integrated once however often
        the sum is asked for."""
        new = [p for p in self.panels if p[5] is None]
        if new:
            a, b = np.array([(p[0], p[1]) for p in new]).T
            terms = panel_terms(0.5 * (b - a), 0.5 * (a + b), np.stack([p[2] for p in new]),
                                self.phase, self.mirror)
            for p, term in zip(new, terms):
                p[5] = term
        return np.sum([p[5] for p in self.panels], axis=0)


def _too_narrow(a, b):
    """True when panel [a, b] is too narrow to split."""
    return b - a < 1e-14 * max(1.0, abs(a))


def panel_terms(half, mid, coef, lam, mirror=None):
    """Per-panel integrals of frozen panels (half-widths, midpoints, +kz
    coefficients (P, 16, comp)) against exp(+i lam x) and, with a
    per-component ``mirror`` sign, of the mirrored -kz side against
    exp(-i lam x); shape (P, comp)."""
    if lam == 0.0:
        # the moments are 2 delta_k0 there, as moments_for gives them
        out = 2.0 * half[:, None] * coef[:, 0]
        return out if mirror is None else out + mirror * out
    mom = moments_for(lam * half)  # (16, P)
    out = np.einsum("p,kp,pkc->pc", half * np.exp(1j * lam * mid), mom, coef)
    if mirror is not None:
        out = out + mirror * np.einsum("p,kp,pkc->pc", half * np.exp(-1j * lam * mid),
                                       np.conj(mom), coef)
    return out


def _seed_breaks(window):
    k_start, pole_hint, branch_point, _ = window
    pts = {0.0, float(k_start)}
    if branch_point is not None and 0.0 < branch_point < k_start:
        bp = float(branch_point)
        for x in (0.5 * bp, 0.85 * bp, bp, 1.15 * bp, 1.6 * bp):
            if 0.0 < x < k_start:
                pts.add(x)
    if pole_hint is not None:
        kp, gam = pole_hint
        gam = max(abs(gam), 1e-6 * max(kp, 1.0))
        for m in (-12.0, -5.0, -2.0, -0.7, 0.0, 0.7, 2.0, 5.0, 12.0):
            x = kp + m * gam
            if 0.0 < x < k_start:
                pts.add(x)
    return sorted(pts)


def build_spectral_panels(fpanel, window, *, tol, mirror=None, budget=20000, phase=0.0,
                          orders=41):
    """Panels of one +kz spectrum, shaped by its kz ``window`` =
    (k_start, pole_hint, branch_point, gap): seed panels on [0, k_start] at
    the branch point and the pole (kz_pole, width), either of them None
    (``_seed_breaks``); tail blocks to k_start + 200 / gap until they stop
    mattering, each bounded by its largest value over gap (the tail decays
    like e^(-gap kz)); then ``PanelSet.refine`` toward ``_relative_target``.
    One shape serves both axes: a block from k ends at max(1.6 k,
    k + 2 / gap), and a split of a panel that ends at the window's singular
    point cuts it at a fixed share of its width from there
    (``_graded_split``), every other split bisecting.  That point is the
    branch point |omega| on the real kz axis, cut at KZ_BRANCH_GRADE from
    either side, and kz = 0 without one (the imaginary axis, whose branch
    points sit above kz = 0), cut at KZ_GRADE.

    ``fpanel`` and ``mirror`` are as for ``PanelSet``: the +kz spectrum and,
    optionally, the sign pattern that maps it onto -kz.  Each step's nodes
    are evaluated in calls of fpanel of at most per_call = NODE_CAP * 41 //
    orders nodes, ``orders`` being the azimuthal-order terms that fpanel
    sums per node.  The set integrates at ``phase``, the separation its
    tail blocks are judged at.

    The rule adds one tail block, or splits one panel, at a time, and its
    takes (``PanelSet.take``) look ahead as far as one call of fpanel
    carries, since a call costs more the fewer nodes it carries: a block
    takes the next ones with it, at most BLOCKS_AHEAD in all, which are
    appended and judged one by one, those still waiting dropped once the
    blocks stop; a split takes the parts of up to per_call // 32 panels.  So
    the panels kept, their order and every number read from them are those
    of one panel per step.  Returns (PanelSet, tail_bound, converged_flag).
    """
    _check_tol(tol)
    k_start, _, branch_point, gap = window
    split = (_graded_split(KZ_GRADE) if branch_point is None
             else _graded_split(KZ_BRANCH_GRADE, float(branch_point)))
    per_call = NODE_CAP * 41 // orders

    def f(x):
        return np.concatenate([fpanel(x[c:c + per_call]) for c in range(0, len(x), per_call)])

    ps = _seeded(f, _seed_breaks(window), budget, mirror, phase)

    # the tail blocks, each 1.6 times as far out as the one before and at
    # least two decay lengths, 2 / gap, wide, to k_end
    k_end = k_start + 200.0 / gap
    ends = [float(k_start)]
    while (b := min(max(ends[-1] * 1.6, ends[-1] + 2.0 / gap), k_end)) > ends[-1] * 1.0000001:
        ends.append(b)
    blocks = list(zip(ends[:-1], ends[1:]))
    ahead = min(BLOCKS_AHEAD, max(1, per_call // _NPTS))
    block_mags, tail_bound = [], math.inf
    for i in range(len(blocks)):
        rec = ps.take(blocks[i], blocks[i + 1:i + ahead])
        scale = max(1.0, float(np.abs(ps.integral()).max()))
        # the block's phase-aware contribution, which ``integral`` keeps in
        # its record; oscillatory cancellation is real and must be credited
        # or algebraic tails never terminate
        block_mags.append(max(float(np.abs(rec[5]).max()), 1e-300))
        tail_bound = block_mags[-1]
        if len(block_mags) >= 2:
            q = min(max(block_mags[-1] / max(block_mags[-2], 1e-300), 0.05), 0.9)
            tail_bound = block_mags[-1] * q / (1.0 - q)
        tail_bound = min(tail_bound, rec[4] / gap)
        if ((tail_bound < 0.25 * tol * scale and len(block_mags) >= 2)
                or ps.nodes_used > 0.8 * ps.budget):
            break
    ps.waiting.clear()   # blocks evaluated ahead past the last one kept
    ok = ps.refine(_relative_target(tol), split, pairs=max(1, per_call // (2 * _NPTS)))
    return ps, tail_bound, ok


def _relative_target(tol):
    """The target of a set refined to a relative ``tol``: half of tol times
    the largest component of its integral, at least 1."""
    return lambda ps: 0.5 * tol * max(1.0, float(np.abs(ps.integral()).max()))


def _seeded(f, breaks, budget, mirror=None, phase=0.0):
    """A PanelSet of f holding the panels between ``breaks``, taken in one
    call of f: each takes those after it as ``ahead``."""
    ps = PanelSet(f, budget, mirror, phase)
    seeds = list(zip(breaks[:-1], breaks[1:]))
    for i, panel in enumerate(seeds):
        ps.take(panel, seeds[i + 1:])
    return ps


def _check_tol(tol):
    if not (math.isfinite(tol) and tol >= 1e-12):
        raise DomainError(f"tol must be finite and >= 1e-12, got {tol}")


def _check_budget(budget):
    # NaN and inf would turn off every budget check of a build
    if not 0 < budget < math.inf:
        raise DomainError(f"node budget must be finite and positive, got {budget}")


def _checked_frequency(omega_a, tol):
    """float(omega_a) of a validation integral, once it and ``tol`` pass."""
    _check_tol(tol)
    if not 0.0 < omega_a < math.inf:
        raise DomainError(f"omega_a must be finite and positive, got {omega_a}")
    return float(omega_a)


#: Seed breaks of every t grid: five coarse panels below a cut above 0.9.
#: The refinement sizes the grid from them and grades it toward the static
#: end t -> 0, where the medium response is largest (``T_GRADE``).
T_SEEDS = (0.0, 0.1, 0.35, 0.65, 0.9)

#: Where a refined t panel that starts at t = 0 is cut, as a fraction of its
#: width (``_graded_split``).
T_GRADE = 0.125
#: Where a kz panel that starts at kz = 0 is cut, as a fraction of its width,
#: in a window without a branch point (``build_spectral_panels``).
KZ_GRADE = 0.25
#: Where a kz panel that ends at the branch point kz = |omega| of a real-axis
#: window is cut, as a fraction of its width from that point, on either side.
KZ_BRANCH_GRADE = 0.125


def _graded_split(grade, point=0.0):
    """The cut of a panel [a, b] at ``grade`` of its width from ``point``
    when it ends there, on either side, and at its midpoint otherwise: a
    geometric mesh toward an endpoint singularity near which the integrand
    varies fastest, where bisection would spend one parent panel per level
    (Trefethen, ATAP, ch. 8)."""
    def cut(a, b):
        if a == point:
            return a + grade * (b - a)
        if b == point:
            return b - grade * (b - a)
        return a + 0.5 * (b - a)
    return cut


def imag_axis_panels(values, tol, t_cut, budget):
    """(PanelSet, converged flag) of an imaginary-axis integral over
    t in [0, t_cut]: the panels between the T_SEEDS below t_cut, the last of
    them dropped when it lies closer to t_cut than a quarter of its gap to
    the seed before it (so no sliver panel ends the grid), then
    ``PanelSet.refine`` toward the relative target (``_relative_target``),
    a split of a panel from t = 0 cutting it at T_GRADE of its width.
    values(t) gives the node values at the t nodes, 16 per panel: it is
    called once for the seed panels and once per step of the refinement."""
    seeds = [t for t in T_SEEDS if t < t_cut]
    if len(seeds) > 1 and t_cut - seeds[-1] < 0.25 * (seeds[-1] - seeds[-2]):
        seeds.pop()
    ps = _seeded(values, [*seeds, t_cut], budget)
    return ps, ps.refine(_relative_target(tol), _graded_split(T_GRADE))


def imag_axis_integrate(g, omega_a, tol=1e-8) -> QuadratureReport:
    """Evaluate int_0^inf dkappa kappa^2 g(kappa) omega_a / (kappa^2 + omega_a^2).

    Uses the substitution kappa = omega_a * t / (1 - t) mapping onto
    t in [0, 1], on the t rule of the pair engine (``imag_axis_panels``)
    cut at t = 1.  The substituted integrand is finite at t = 1 whenever g
    decays at least as fast as 1/kappa^2, so the full interval is
    integrable.  g maps an array of kappa to an array of values.
    """
    wa = _checked_frequency(omega_a, tol)

    def integrand(t):
        kap, w = t_substitution(t, wa)
        return w * np.asarray(g(kap), float)

    ps, ok = imag_axis_panels(integrand, tol, 1.0, 20000)
    val = float(np.real(ps.integral()[0]))
    converged = ok and ps.err <= tol * max(1.0, abs(val))
    return QuadratureReport(value=val, abs_error_estimate=ps.err,
                            nodes_used=ps.nodes_used, converged=bool(converged))


def _plain(f, breaks, tol_abs, budget):
    ps = _seeded(f, breaks, budget)
    ok = ps.refine(lambda ps: tol_abs)
    return float(np.real(ps.integral()[0])), ps.err, ps.nodes_used, ok


def pv_shift_oracle(imG, omega_a, tol=1e-9, *, omega_max=None,
                    budget=60000) -> float:
    """Principal value of int_0^inf w^2 imG(w) / (w - omega_a) dw.

    The pole is removed by symmetric-interval subtraction: on the window
    (omega_a - h, omega_a + h) the integrand is replaced by
    [F(w) - F(omega_a)] / (w - omega_a) with F(w) = w^2 imG(w), whose
    subtracted constant has a vanishing symmetric principal value.  Two
    window half-widths are evaluated and compared; disagreement beyond the
    requested tolerance raises ConvergenceError.  imG maps an array of
    frequencies to an array of values.

    ``omega_max=None`` integrates the far tail exactly through the
    substitution u = 1/w, which requires imG to be evaluable at arbitrarily
    large arguments (true for all model functions used in validation).  A
    given ``omega_max`` ends the integral, and must be finite and at least
    20*omega_a, where the fixed pieces end.
    """
    wa = _checked_frequency(omega_a, tol)
    _check_budget(budget)
    if omega_max is not None and not 20.0 * wa <= omega_max < math.inf:
        raise DomainError(f"omega_max must be None or finite and >= 20*omega_a, got {omega_max}")
    F = lambda w: w**2 * np.asarray(imG(w), float)
    FA = float(F(np.asarray([wa]))[0])

    h0, w1 = 0.25 * wa, 20.0 * wa
    nodes = 0

    def one_pass(h):
        nonlocal nodes
        tol_abs = 0.2 * tol * max(1.0, abs(FA) * wa)
        outside = lambda w: F(w) / (w - wa)
        parts = [
            _plain(outside, [0.0, 0.5 * (wa - h), wa - h], tol_abs, budget),
            _plain(lambda u: (F(wa + u) - FA) / u, [-h, -0.3 * h, 0.0, 0.3 * h, h],
                   tol_abs, budget),
            _plain(outside, [wa + h, wa + 3 * h, 2 * wa + h, 6 * wa, w1], tol_abs, budget)]
        # past w1: to infinity through u = 1/w, or on to omega_max
        if omega_max is None:
            parts.append(_plain(lambda u: outside(1.0 / u) / u**2,
                                [1e-9, 0.25 / w1, 0.5 / w1, 1.0 / w1], tol_abs, budget))
        elif omega_max > w1:
            parts.append(_plain(outside, [w1, omega_max], tol_abs, budget))
        vals, errs, used, oks = zip(*parts)
        nodes += sum(used)
        if not all(oks):
            raise ConvergenceError("principal-value quadrature exhausted its node budget",
                                   {"nodes": nodes})
        return sum(vals), sum(errs)

    v1, err1 = one_pass(h0)
    v2, err2 = one_pass(0.5 * h0)
    scale = max(1.0, abs(v2))
    if abs(v1 - v2) > 200.0 * tol * scale + 10.0 * (err1 + err2):
        raise ConvergenceError(
            "window extrapolation did not converge",
            {"h": h0, "value_h": v1, "value_h2": v2, "diff": abs(v1 - v2)},
        )
    return v2


@dataclass
class KKReport:
    """Result of a Kramers-Kronig closure check."""

    residual: float
    lhs: float
    rhs: float
    degenerate: bool = False
    truncation_warning: bool = False
    tail_estimate: float = 0.0


def kk_check(G_component, omega_a, grid=None, *, arc_limit=0.0, tol=1e-8) -> KKReport:
    """Closure residual of the w^2-weighted Kramers-Kronig relation.

    Checks
        omega_a^2 Re G(omega_a) =
            (2/pi) PV int_0^inf w^2 * w Im G(w) / (w^2 - omega_a^2) dw
            + arc_limit

    where ``arc_limit`` is the large-frequency plateau of w^2 G(w).  For a
    medium-induced Green's tensor between separated points the plateau is
    zero (the retardation phase kills the large-arc contribution); rational
    few-resonance models have a nonzero plateau that the caller supplies.

    By partial fractions the right-hand side's integral is one principal
    value, (2/pi) PV int w^2 f(w) / (w - omega_a) dw with
    f(w) = w Im G(w) / (w + omega_a), which ``pv_shift_oracle`` evaluates.

    G_component takes one SpectralPoint.  With ``grid`` given, Im G is
    sampled on that real-frequency grid, a monotone spline (SciPy's PCHIP,
    imported on first use, so no other path loads scipy.interpolate) stands
    in for the function, and a truncation estimate is attached; otherwise
    G_component is integrated directly out to the analytic tail.  The grid
    must be 1-D, finite and strictly increasing, start in
    [0, 0.05*omega_a] (below it the spline holds its first sample) and
    reach 20*omega_a.  A constant (zero-Im) input is flagged degenerate
    instead of producing a meaningless residual.
    """
    wa = _checked_frequency(omega_a, tol)
    if grid is not None:
        grid = np.asarray(grid, float)
        if (grid.ndim != 1 or grid.size < 2 or not np.isfinite(grid).all()
                or (np.diff(grid) <= 0.0).any() or not 0.0 <= grid[0] <= 0.05 * wa
                or grid[-1] < 20.0 * wa):
            raise DomainError("grid must be 1-D, finite and strictly increasing, "
                              "from [0, 0.05*omega_a] to at least 20*omega_a")

    def im_g(ws):
        return np.array([complex(G_component(SpectralPoint.real_axis(float(w)))).imag
                         for w in ws])

    lhs = wa * wa * complex(G_component(SpectralPoint.real_axis(wa))).real

    if grid is not None:
        from scipy.interpolate import PchipInterpolator   # only this branch needs it

        samples = im_g(grid)
        im_fun = PchipInterpolator(grid, samples, extrapolate=False)
        omega_max = float(grid[-1])

        def imG(w):
            out = im_fun(np.clip(w, grid[0], omega_max))
            return np.where(w > omega_max, 0.0, out)

        # remainder of (2/pi) int F~ with F~ ~ C/w^2 beyond the grid
        ftail = abs(omega_max**3 * samples[-1] / (omega_max**2 - wa**2))
        tail_estimate = (2.0 / math.pi) * ftail * omega_max
    else:
        if np.abs(im_g([0.7 * wa, 1.9 * wa, 6.1 * wa])).max() < 1e-14 * max(1.0, abs(lhs) / wa**2):
            return KKReport(residual=math.nan, lhs=lhs, rhs=0.0, degenerate=True)
        imG = im_g
        omega_max = None
        tail_estimate = 0.0

    # spline-backed integrands have kinks at every knot; refining below the
    # interpolation fidelity would only chase them
    tol_eff = max(tol, 1e-6) if grid is not None else tol
    budget = 200000 if grid is not None else 60000
    pv_part = pv_shift_oracle(lambda w: w * imG(w) / (w + wa), wa, tol=tol_eff,
                              omega_max=omega_max, budget=budget)
    rhs = (2.0 / math.pi) * pv_part + arc_limit
    residual = abs(lhs - rhs) / abs(lhs) if lhs != 0.0 else math.inf
    warn = tail_estimate > abs(lhs - rhs) and tail_estimate > 0
    return KKReport(residual=float(residual), lhs=float(lhs), rhs=float(rhs),
                    truncation_warning=bool(warn), tail_estimate=float(tail_estimate))
