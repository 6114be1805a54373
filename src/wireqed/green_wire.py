"""Scattered dyadic Green's tensor of an infinite metallic cylinder.

Both points outside the wire.  The tensor is assembled from cylindrical
vector waves M, N indexed by azimuthal order n and axial wavenumber kz,
with outgoing radial functions H_n^(1)(eta rho) outside and regular J_n
inside, joined by 2x2 hybrid-mode reflection coefficients per order.  The
tangential-continuity conditions at rho = a are reduced in closed form: the
E_z and H_z rows eliminate the interior amplitudes and the remaining 2x2
system is solved by Cramer's rule in scaled log-derivative form.

Two exact symmetries make each kz node one solve and one assembly over the
orders 0..nmax.  Negating n or kz negates the M-N coupling entries of the
reflection matrix and keeps its diagonal, and the vector-wave components
change sign in the same pattern.  So, with B_n the order-n term without its phase
exp(i n dphi), the order -n term is Sigma B_n Sigma with
Sigma = diag(-1, 1, -1) in (rho, phi, z), and the -kz tensor is P T(+kz) P
with P = diag(1, 1, -1).  The +-n pair therefore enters as the weights
2 cos(n dphi) (n > 0) on the components even under Sigma and 2i sin(n dphi)
on the odd ones (rho-phi, phi-z and their transposes).

Normalization convention (pinned by the free-space expansion reproducing
the closed-form vacuum tensor, see tests):

    G(r1, r2) = (i / 8 pi) sum_n int dkz (1 / eta^2)
                [ V_M(r1) (x) Mt(r2) + V_N(r1) (x) Nt(r2) ]
                e^{i n (phi1 - phi2)} e^{i kz (z1 - z2)}

with field vectors M = D M', N = D N' and source vectors Mt = D* M',
Nt = D* N', where D = diag(i, 1, 1) and the real forms are
M' = (n Z / rho, -eta Z', 0) and N' = (kz eta Z' / k, -n kz Z / (k rho),
eta^2 Z / k); D* flips the sign of every explicitly imaginary coefficient,
the analytic continuation of phase conjugation.  So on both frequency axes
each tensor component is the sum over the real forms times the fixed phase
d_a d*_b.  The radial wavenumber branch is Im(eta) >= 0 everywhere, which
makes every field outgoing or decaying and the imaginary-axis tensor real.

On the imaginary axis eps is real, eta = i y and k = i kappa, and every
radial function and reflection coefficient is a real number times a fixed
power of i (J_n(iy) = i^n I_n(y), H_n(iy) = (2/pi) i^(-n-1) K_n(y);
DLMF 10.27.6, 10.27.8).  There M' = c_n m and N' = i c_n P n, where
c_n = (2/pi) i^(-n-1) and m, n are the real forms of K_n(y rho) at eta -> y
and k -> -kappa; R_MM, R_NN are i^n and R_MN, R_NM i^(n-1) times reals.
With R_NN's sign flipped every order term has the same constant -(2/pi) i,
so the sum runs in float64 and P joins the phase: T(+kz) is real on the
components even under P and imaginary on the others.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# jh_orders is unused here; perfbench's traced runs look it up in this module
from .bessel import (N_MAX, OVERFLOW_GUARD, h_orders, ive_orders, j_orders, jh_orders,
                     kve_orders, safe_min_arg)
from .errors import ConvergenceError, DomainError, FitError, OverflowGuardError
from .frequencies import SpectralPoint, as_spectral_point
from .green_vacuum import DyadicGreen
from .material import DrudeModel, permittivity
from .quadrature import (_NPTS, QuadratureReport, _check_budget, _check_tol, _seed_breaks,
                         build_spectral_panels, panel_terms)

#: Share of ``tol`` times the integral's scale that the azimuthal tail of a
#: settled order may take.
AZIMUTHAL_SHARE = 0.2
#: The probe that settles the order, per spectral point: a Gauss rule of
#: this many nodes on each seed panel of the point's kz table, and as many
#: nodes again spaced geometrically over its tail, out to PROBE_REACH decay
#: lengths (the summed distance of the points from the surface) past it.
PROBE_NODES = 4
PROBE_REACH = 30.0
_PROBE_X, _PROBE_W = np.polynomial.legendre.leggauss(PROBE_NODES)
#: Factor on the probe's sums of order terms, which stand for integrals: a
#: tail of terms of one sign moves an integral by nearly the whole of it,
#: and the probe's few nodes may miss a part.
PROBE_MARGIN = 2.0
#: Highest order a prediction looks at; beyond it the order reads as inf.
ORDER_SCAN = 4 * N_MAX
#: The pointwise test of ``wire_spectral_green``: the largest order-nmax term
#: at the nodes asked for, relative to the largest |G~| there.
NODE_TAIL_TOL = 1e-10

# Sign patterns of Sigma B Sigma (order -n) and P T P (-kz) on the
# (rho, phi, z) components; see the module docstring.
_SIGMA = np.outer([-1.0, 1.0, -1.0], [-1.0, 1.0, -1.0])
_MIRROR = np.outer([1.0, 1.0, -1.0], [1.0, 1.0, -1.0])
# The phase of each component against the real-form sum of __call__: d_a d*_b
# with d = (i, 1, 1), times the i of the sin weights where _SIGMA is odd.
_PHASE = np.array([[1, -1, 1j], [1, 1, 1j], [-1j, 1j, 1]])


@dataclass(frozen=True)
class WireGeometry:
    """Wire radius (units of the vacuum wavelength) and its metal."""

    radius: float
    model: DrudeModel

    def __post_init__(self):
        if not 0.0 < self.radius < np.inf:
            raise DomainError(f"wire radius must be finite and positive, got {self.radius}")
        if self.radius >= 0.5:
            warnings.warn(
                f"radius {self.radius} is not sub-wavelength; the plasmon "
                "approximation layer may not apply", stacklevel=3)


def _radial_wavenumber(k2, kz):
    """sqrt(k^2 - kz^2) on the Im >= 0 branch, vectorized."""
    eta = np.sqrt(np.asarray(k2, complex) - np.asarray(kz, complex) ** 2)
    flip = eta.imag < 0.0
    return np.where(flip, -eta, eta)


def _check_order(nmax):
    # a bool is an int to isinstance, and numpy's integers are not
    if isinstance(nmax, bool) or not isinstance(nmax, (int, np.integer)) or not 1 <= nmax <= N_MAX:
        raise DomainError(f"azimuthal order must be an integer in 1..{N_MAX}, got {nmax!r}")


def _wall_matrix(k1, k2k, a, n, kz, e1, e2, uH, uJ):
    """(A00, A11, c2k, c, wJ, wJk): the order-n wall system at signed kz, of
    determinant A00 A11 - c2k, from uH, uJ = H_n'/H_n at e1 a, J_n'/J_n at e2 a;
    at n = 0, A11 = 0 is the TM0 plasmon's dispersion relation."""
    r = e1**2 / e2**2
    c = n * kz * (r - 1.0) / a
    c2k = -(c * c / k1) if np.isrealobj(e1) else c * c / k1
    wJ = e2 * uJ * r
    wJk = k2k * wJ
    return -e1 * uH + wJ, -k1 * e1 * uH + wJk, c2k, c, wJ, wJk


class SpectralEvaluator:
    """Vectorized scattered-spectrum evaluation at fixed geometry.

    ``s`` is one spectral point or a list of them.  Calling with an array of
    nonnegative kz nodes returns the tensor integrand at +kz, shape
    (n_nodes, 3, 3), in the local cylindrical bases of the two points; the
    -kz spectrum is _MIRROR times it.  With several points, ``which`` gives
    each node's point by index (default: the first), so spectra at several
    frequencies share one call; node by node the arithmetic is that of a
    one-point evaluator.  The exp(i kz dz) phase and the kz integral itself
    belong to the caller.

    Each node is solved once and assembled once, over the orders 0..nmax;
    the module docstring gives the two symmetries that supply the negative
    orders and -kz.  The (-1)^n of H_-n cancels in every bilinear
    term, so the order -n term needs no radial functions of its own.  With
    ``orders=True`` a call also returns each node's largest component of
    every order's term, shape (n_nodes, nmax + 1), the +-n pair folded as in
    the sum: ``settle_azimuthal_order`` reads the series' decay from it.

    A real-axis point needs omega > 0, where the branch Im eta >= 0 is the
    retarded one: G(-omega) is conj G(omega), which that branch does not
    give, so omega <= 0 raises DomainError.

    All points share one axis, which selects the ladders: complex J_n and
    H_n^(1) on the real axis, scaled I_n and K_n on the imaginary axis, where
    the wall solve and the sum run in float64 (``_ladders``, ``_solve``).
    Both axes sum the real-form waves of the module docstring in one batched
    product over the orders.  Next to the branch point the roundoff of the
    wall solve is amplified like 1/eta1^4 (see ``_ladders``): against a
    50-digit signed-order sum a real-axis node is off by about 5e-13 to
    5e-10 of its own size at |eta1| = 0.5 and up to 1.5e-6 at 0.08, and the
    clamped imaginary-axis node of the tests by 7e-14.
    """

    def __init__(self, geom: WireGeometry, s, rho1, rho2, dphi, nmax):
        _check_order(nmax)
        if not np.isfinite([rho1, rho2, dphi]).all():
            raise DomainError(f"coordinates must be finite, got {rho1}, {rho2}, {dphi}")
        if min(rho1, rho2) <= geom.radius:
            raise DomainError("both points must lie outside the wire")
        self.geom = geom
        points = [as_spectral_point(p) for p in (s if isinstance(s, list) else [s])]
        axes = {p.is_imaginary for p in points}
        if len(axes) != 1:
            raise DomainError("the spectral points of one evaluator must share one axis")
        self.imaginary = axes.pop()
        if not self.imaginary and min(p.omega for p in points) <= 0.0:
            raise DomainError("a real-axis spectral point needs omega > 0; "
                              "G(-omega) is the complex conjugate of G(omega)")
        self.rho1 = float(rho1)
        self.rho2 = float(rho2)
        self.dphi = float(dphi)
        self.nmax = int(nmax)
        # per point: permittivity, wavenumbers outside and inside the wire
        self.eps2 = np.array([permittivity(geom.model, p) for p in points])
        self.k1 = np.array([p.value for p in points])
        self.k2 = self.k1 * np.sqrt(self.eps2 + 0j)

        # the +n and -n terms folded onto order n: 2 cos(n dphi) on the
        # components even under _SIGMA, 2i sin(n dphi) on the odd ones
        # (the i goes into _phase), per order over [VM, VN]
        n = np.arange(self.nmax + 1)
        self._cos = np.tile(np.where(n > 0, 2.0, 1.0) * np.cos(n * self.dphi), 2)
        self._sin = np.tile(2.0 * np.sin(n * self.dphi), 2)
        # per axis: the real forms' k per point, c of the prefactor
        # c / eta1^2 and the phase put back after the sum (see __call__)
        if self.imaginary:
            self._k, self._pref = -self.k1.imag, -1.0 / (4.0 * np.pi**2)
            self._phase = _PHASE * _MIRROR
        else:
            self._k, self._pref, self._phase = self.k1.real, 1j / (8.0 * np.pi), _PHASE

    def _ladders(self, kz, which=0):
        a = self.geom.radius
        k1, k2 = self.k1[which], self.k2[which]
        eta1 = _radial_wavenumber(k1**2, kz)
        eta2 = _radial_wavenumber(k2**2, kz)
        # Nodes too close to the branch point are poison twice over: the
        # high-order ladder overflows (H_n ~ (2/eta a)^n), and the solved
        # reflection amplitudes scale as eta1^2 so roundoff in them is
        # amplified like 1/eta1^4 in the assembled tensor.  The spectrum
        # approaches its branch limit as eta1^2 log(eta1), so clamping the
        # radial wavenumber at the floor below only perturbs the integral
        # at the 1e-10 level.  The clamp bounds the amplification, it does
        # not remove it: a clamped node at kz = k is still off by about 1e-3
        # of its own size against a 60-digit evaluation of the same node.
        abs_k1 = np.abs(k1)
        floor = np.maximum(safe_min_arg(self.nmax + 1) / a, 1e-3 * np.maximum(abs_k1, 1.0))
        bad = np.abs(eta1) < floor
        if np.any(bad):
            # constant directional clamp: propagating side stays real, the
            # evanescent side stays on +i, so panels inside the window see a
            # flat function instead of noise.  On the imaginary axis eta1 =
            # i sqrt(kappa^2 + kz^2) has no propagating side.
            propagating = (np.abs(kz) <= abs_k1) & (not self.imaginary)
            direction = np.where(propagating, 1.0 + 0j, 1j)
            eta1 = np.where(bad, floor * direction, eta1)
        # one J ladder at eta1 a and eta2 a, one H ladder at eta1 a and eta1
        # rho (once when rho1 = rho2; J would overflow first there in the
        # evanescent tail)
        K = kz.size
        rhos = (self.rho1,) if self.rho2 == self.rho1 else (self.rho1, self.rho2)
        if self.imaginary:
            # eta1 = i y1 and eta2 = i y2.  With J_n(iy) = i^n I_n(y) and
            # H_n(iy) = (2/pi) i^(-n-1) K_n(y), each complex quantity below is
            # a fixed power of i times a real one, and the real ones come from
            # the exponentially scaled I and K ladders: eta1 and eta2 as y1
            # and y2; the wall inputs K_n'/K_n at y1 a (the complex one is -i
            # times it), I_n'/I_n at y2 a (-i times), and I_n, I_n' at y1 a
            # over m = max(I_n, I_n') (i^n and i^(n-1) times); outside, K_n
            # and K_n' at y1 rho1 over K_n(y1 a) times m (1 and -i times), and
            # K_n, K_n' at y1 rho2 ((2/pi) i^(-n-1) and -(2/pi) i^(-n) times).
            # The scalings e^(y1 a) in m and over K_n(y1 a) and e^(-y1 rho) in
            # each K_n(y1 rho) leave one factor per node,
            # exp(-y1 (rho1 - a) - y1 (rho2 - a)) <= 1, which goes onto the
            # rho1 side.
            eta1, eta2 = eta1.imag, eta2.imag
            j, jp = ive_orders(self.nmax, np.concatenate([eta1 * a, eta2 * a]))
            h, hp = kve_orders(self.nmax, np.concatenate([eta1 * r for r in (a,) + rhos]))
            decay = np.exp(-eta1 * (self.rho1 + self.rho2 - 2.0 * a))
        else:
            j, jp = j_orders(self.nmax, np.concatenate([eta1 * a, eta2 * a]))
            h, hp = h_orders(self.nmax, np.concatenate([eta1 * r for r in (a,) + rhos]))
            decay = 1.0
        j1a, j1ap, j2a, j2ap = j[:, :K], jp[:, :K], j[:, K:], jp[:, K:]
        h1a, h1ap, hr, hrp = h[:, :K], hp[:, :K], h[:, K:], hp[:, K:]
        hr1, hr1p = hr[:, :K], hrp[:, :K]
        hr2, hr2p = (hr[:, K:], hrp[:, K:]) if len(rhos) == 2 else (hr1, hr1p)
        # The wall solve takes log-derivatives and the J_n(eta1 a) pair
        # divided by m, so no product of raw ladders can overflow (H_n(eta1 a)
        # reaches 1e152 at the branch floor, J_n(eta2 a) 1e76 deep in the
        # evanescent tail); it returns R H_n(eta1 a) / m.  The inverse factor
        # goes onto the rho1-side ladder as a ratio to H_n(eta1 a) first:
        # R and m / H_n(eta1 a) are both subnormal at high order next to the
        # light line, where the tensor depends on the differences of R's
        # four nearly equal components.
        m = np.maximum(np.abs(j1a), np.abs(j1ap))
        wall = (h1ap / h1a, j2ap / j2a, j1a / m, j1ap / m)
        return eta1, eta2, wall, (hr1 / h1a * m * decay, hr1p / h1a * m * decay, hr2, hr2p)

    def _solve(self, kz_signed, eta1, eta2, wall, which=0):
        """Scaled reflection coefficients for orders 0..nmax at signed kz.

        Returns array (K, nmax+1, 2, 2): [[R_MM, R_MN], [R_NM, R_NN]] times
        H_n(eta1 a) / max(|J_n(eta1 a)|, |J_n'(eta1 a)|); ``_ladders`` folds
        the inverse factor into the rho1-side radial functions.  The 2x2
        system of the module docstring, with ``_wall_matrix``'s entries, is
        solved by Cramer's rule.  The sign of kz enters only through the
        coupling c, so R(-kz) is R(+kz) with R_MN and R_NM negated, bit for bit.

        Real inputs are the imaginary-axis forms of ``_ladders``.
        There k1, k2^2/k1 and c^2/k1 are i times real numbers, and the same
        arithmetic on those reals returns, in float64, r with R_MM = i^n r_MM,
        R_NN = i^n r_NN, R_MN = i^(n-1) r_MN and R_NM = i^(n-1) r_NM.
        """
        # (K, n), copied so the arithmetic below runs on contiguous rows
        uH, uJ, q, qp = (np.ascontiguousarray(x.T) for x in wall)
        k1 = self.k1[which][..., None]
        k2k = self.k2[which][..., None] ** 2 / k1
        e1 = eta1[:, None]
        if np.isrealobj(e1):
            k1, k2k = k1.imag, k2k.imag
        A00, A11, c2k, c, wJ, wJk = _wall_matrix(k1, k2k, self.geom.radius, np.arange(
            self.nmax + 1), kz_signed[:, None], e1, eta2[:, None], uH, uJ)
        bM0 = e1 * qp - wJ * q
        bN1 = k1 * e1 * qp - wJk * q
        inv_det = 1.0 / (A00 * A11 - c2k)

        R = np.empty(A00.shape + (2, 2), A00.dtype)
        R[..., 0, 0] = (bM0 * A11 + c2k * q) * inv_det            # R_MM
        R[..., 0, 1] = -c * (q * A11 + bN1) * inv_det / k1        # R_MN
        R[..., 1, 0] = -c * (A00 * q + bM0) * inv_det             # R_NM
        R[..., 1, 1] = (A00 * bN1 + c2k * q) * inv_det            # R_NN
        return R

    def __call__(self, kz_nodes, which=0, orders=False):
        kz = np.asarray(kz_nodes, float)
        if not np.all((kz >= 0.0) & (kz < np.inf)):
            raise DomainError("kz nodes must be finite and nonnegative; signs are internal")
        which = np.broadcast_to(which, kz.shape)
        eta1, eta2, wall, outside = self._ladders(kz, which)
        R = self._solve(kz, eta1, eta2, wall, which)   # (K, N, 2, 2)
        # (K, N), orders 0..nmax, as contiguous rows
        hr1, hr1p, hr2, hr2p = (np.ascontiguousarray(f.T) for f in outside)
        N = self.nmax + 1
        n = np.arange(N)
        # The real-form vectors of the module docstring on both axes.  On the
        # imaginary axis eta1 is y1, k is -kappa, the ladders are real, and
        # r_NN changes sign (_solve's r stand for R_MM, R_NN over i^n and
        # R_MN, R_NM over i^(n-1)).
        e1, k = eta1[:, None], self._k[which][:, None]
        cf = (-e1, kz[:, None] * e1 / k, -kz[:, None] / k, e1**2 / k)

        def waves(f, fp, rho):
            m_rho = (n / rho) * f
            return m_rho, cf[0] * fp, cf[1] * fp, cf[2] * m_rho, cf[3] * f

        field, source = waves(hr1, hr1p, self.rho1), waves(hr2, hr2p, self.rho2)
        r_mm, r_mn, r_nm, r_nn = R[..., 0, 0], R[..., 0, 1], R[..., 1, 0], R[..., 1, 1]
        if self.imaginary:
            r_nn = -r_nn
        pref = self._pref / eta1**2

        # Each ``waves`` gives (M_rho, M_phi, N_rho, N_phi, N_z); M_z = 0.  T
        # sums VM (x) Mt + VN (x) Nt over the orders, which is one product of
        # [VM, VN] (K, 3, 2N), weighted per order, with [Mt, Nt] (K, 2N, 3).
        m_rho, m_phi, n_rho, n_phi, n_z = field
        left = np.empty((len(kz), 3, 2 * N), np.result_type(r_mm, m_rho))
        for o, (ra, rb) in ((0, (r_mm, r_nm)), (N, (r_mn, r_nn))):
            left[:, 0, o:o + N] = ra * m_rho + rb * n_rho
            left[:, 1, o:o + N] = ra * m_phi + rb * n_phi
            left[:, 2, o:o + N] = rb * n_z
        m_rho, m_phi, n_rho, n_phi, n_z = source
        right = np.zeros((len(kz), 3, 2 * N), m_rho.dtype)
        right[:, 0, :N], right[:, 1, :N] = m_rho, m_phi
        right[:, 0, N:], right[:, 1, N:], right[:, 2, N:] = n_rho, n_phi, n_z
        right = right.transpose(0, 2, 1)

        # Each node's sum over orders takes the cos weights on the Sigma-even
        # components and the sin weights on the odd ones; their phases come
        # last (_phase).
        T = (left * self._cos) @ right
        if self.dphi == 0.0:
            T[:, _SIGMA < 0] = 0.0
        else:
            T = np.where(_SIGMA > 0, T, (left * self._sin) @ right)
        T = T * pref[:, None, None] * self._phase
        if not np.all(np.isfinite(T)):
            raise OverflowGuardError(
                "spectral tensor evaluation lost finiteness; the requested "
                "(geometry, frequency, kz) reach beyond the representable range")
        if not orders:
            return T
        # order n alone, (3, 3, nodes, orders): columns n and N + n of
        # [VM, VN] and [Mt, Nt], with its weight
        lt, rt = left.transpose(1, 0, 2)[:, None], right.transpose(2, 0, 1)[None]
        terms = lt[..., :N] * rt[..., :N] + lt[..., N:] * rt[..., N:]
        terms *= np.where(_SIGMA > 0, self._cos[:N, None, None],
                          self._sin[:N, None, None]).transpose(1, 2, 0)[:, :, None]
        return T, np.abs(terms).max(axis=(0, 1)) * np.abs(pref)[:, None]


def wire_spectral_green(geom: WireGeometry, rho1: float, rho2: float, dphi: float,
                        s, kz, nmax: int = N_MAX):
    """Scattered spectrum G~(kz) at fixed radial/azimuthal geometry.

    Accepts scalar or array kz of either sign and returns the 3x3 tensor(s)
    in local cylindrical components; a negative kz is the mirror P T(|kz|) P.
    The azimuthal series runs to order ``nmax`` in one evaluation, and raises
    ConvergenceError when its order-nmax term at the nodes exceeds
    NODE_TAIL_TOL of the largest |G~| there.
    """
    kz_arr = np.atleast_1d(np.asarray(kz, float))
    if kz_arr.size == 0 or not np.isfinite(kz_arr).all():
        raise DomainError(f"kz nodes must be finite and at least one, got {kz}")
    vals, terms = SpectralEvaluator(geom, s, rho1, rho2, dphi, nmax=nmax)(
        np.abs(kz_arr), orders=True)
    peak = float(np.abs(vals).max())
    ratio = float(terms[:, -1].max()) / peak if peak > 0 else 0.0
    if ratio > NODE_TAIL_TOL:
        raise ConvergenceError(
            f"azimuthal series still has tail ratio {ratio:.2e} at n = {nmax}",
            {"nmax": nmax, "tail_ratio": ratio})
    out = np.where((kz_arr < 0)[:, None, None], _MIRROR * vals, vals)
    return out[0] if np.isscalar(kz) or np.ndim(kz) == 0 else out


def plasmon_wavenumber(geom: WireGeometry, omega: float):
    """Locate the fundamental (n = 0, TM) guided plasmon pole at real omega.

    Returns (kz_pl, width): the real part of the complex pole of the
    reflection coefficients and its imaginary part (the propagation decay
    rate, which doubles as the Lorentzian width of the spectral peak).
    It is the zero of the wall solve's n = 0 TM entry (``_wall_matrix``) on
    order-0 surface ladders.  Raises FitError when there is no bound mode.
    """
    w = float(omega)
    eps2 = permittivity(geom.model, SpectralPoint.real_axis(w))
    k1, k2 = w, w * np.sqrt(eps2 + 0j)
    a = geom.radius
    # near the eps -> -1 accumulation the mode index diverges like
    # kz a ~ 1/|eps + 1|; stretch the scan accordingly
    x_est = 1.0 / max(abs(eps2 + 1.0), 1e-3) + 5.0
    scan_max_ratio = max(60.0, 3.0 * x_est / (w * a))

    squares, k2k = np.array([[k1**2], [k2**2]]), k2**2 / k1

    def tm0(kz):   # (A11, its interior term wJk)
        e1, e2 = _radial_wavenumber(squares, kz)
        (j,), (jp,), (h,), (hp,) = *j_orders(0, e2 * a), *h_orders(0, e1 * a)
        _, a11, _, _, _, wjk = _wall_matrix(k1, k2k, a, 0, kz, e1, e2, hp / h, jp / j)
        return a11, wjk

    # both terms die exponentially at large kz, so the root search scans the
    # entry normalized by their magnitude scale
    scan = 1.002 * w * (scan_max_ratio / 1.002) ** np.linspace(0.0, 1.0, 300)
    a11, wjk = tm0(scan)
    mags = np.abs(a11) / (np.abs(a11 - wjk) + np.abs(wjk))
    i0 = int(np.argmin(mags))
    if i0 in (0, len(scan) - 1) or mags[i0] > 0.3:
        raise FitError("no interior minimum of the TM0 dispersion function; "
                       "no bound plasmon for this permittivity")
    kz = complex(scan[i0])
    for _ in range(60):
        h = 1e-7 * abs(kz)
        d, dplus, dminus = tm0(np.array([kz, kz + h, kz - h]))[0]
        dp = (dplus - dminus) / (2 * h)
        if dp == 0:
            break
        step = d / dp
        if abs(step) > 0.25 * abs(kz):
            step *= 0.25 * abs(kz) / abs(step)
        kz = complex(kz - step)
        if abs(step) < 1e-13 * abs(kz):
            break
    if not (kz.real > w and abs(kz.imag) < kz.real):
        raise FitError(f"TM0 root search landed at {kz}, not a bound mode")
    return float(kz.real), float(abs(kz.imag))


def _k_window(geom, point, rho1, rho2):
    """(k_start, pole_hint, branch_point, gap): the kz window of the
    spectrum at ``point``, as ``build_spectral_panels`` takes it; gap is the
    summed emitter-to-surface distance that scales its tail.

    On the real axis the branch point is |omega| and, where Re eps < -1 and
    ``plasmon_wavenumber`` finds it, the guided plasmon (width floored at
    1e-4 omega) seeds the panels; on the imaginary axis there is neither.  A
    mode whose fields have decayed to nothing at the emitters (huge kz near
    the mode-index divergence) is not seeded: it only inflates the window
    and can push nodes past the overflow guard of the special functions.
    On the real axis k_start is also capped so that the window's arguments
    stay inside that guard; the scaled I and K ladders of the imaginary axis
    cannot overflow at large argument and have no such cap.
    """
    gap = (rho1 - geom.radius) + (rho2 - geom.radius)
    sabs = abs(point.value)
    eps2 = permittivity(geom.model, point)
    k_start = max(3.0 * sabs + 10.0, 1.3 * abs(np.sqrt(eps2 + 0j)) * sabs)
    pole_hint = branch_point = None
    if not point.is_imaginary:
        branch_point = abs(point.omega)
        try:
            if eps2.real < -1.0:
                kp, width = plasmon_wavenumber(geom, point.omega)
                if (kp - sabs) * gap <= 30.0:
                    pole_hint = kp, max(width, 1e-4 * point.omega)
                    k_start = max(k_start, 1.2 * (kp + 6.0 * pole_hint[1]))
        except (FitError, OverflowGuardError):
            pass
        arg_scale = max(rho1, rho2, geom.radius * abs(np.sqrt(eps2 + 0j)))
        k_start = min(k_start, 0.8 * OVERFLOW_GUARD / arg_scale)
    return k_start, pole_hint, branch_point, gap


def _probe_nodes(window):
    """(kz nodes, weights) of the order probe of the spectrum whose
    ``_k_window`` is ``window``: the Gauss rule of PROBE_NODES nodes on each
    seed panel that its kz table starts from (``quadrature._seed_breaks`` of
    the window), so a seeded pole and the branch point are resolved as the
    table resolves them, then PROBE_NODES nodes spaced geometrically from
    k_start over PROBE_REACH decay lengths of the evanescent fields, beyond
    which every order term has fallen by e^-PROBE_REACH, each standing for
    the cell between the midpoints to its neighbours, the first from
    k_start."""
    k_start, _, _, gap = window
    breaks = np.array(_seed_breaks(window))
    half, mid = 0.5 * np.diff(breaks)[:, None], 0.5 * (breaks[1:] + breaks[:-1])[:, None]
    tail = k_start * (1.0 + PROBE_REACH / (gap * k_start)) ** (
        np.arange(1, PROBE_NODES + 1) / PROBE_NODES)
    cells = np.diff(np.concatenate([[k_start], 0.5 * (tail[1:] + tail[:-1]), tail[-1:]]))
    return (np.concatenate([(mid + half * _PROBE_X).ravel(), tail]),
            np.concatenate([(half * _PROBE_W).ravel(), cells]))


def settle_azimuthal_order(geom, s, rho1, rho2, dphi, *, tol=1e-6, weights=None,
                           nmax=None, dz=0.0, windows=None):
    """(order, tails, scale): the azimuthal order of the kz integrals of the
    spectra at the spectral point(s) ``s``, predicted from one probe.

    One evaluator call at N_MAX on every point's ``_probe_nodes`` gives each
    order's largest term at each node.  Weighted by the nodes' weights over
    both kz signs, and by PROBE_MARGIN, these give A_p(m), a bound on the
    integral of point p's order-m term in magnitude, and the tensors give
    point p's integral.  The tail beyond order n is the probed terms above n
    plus their geometric continuation,
    sum_{m=n+1}^{N_MAX} A_p(m) + A_p(N_MAX) q^(k+1) / (1 - q) with
    k = max(n - N_MAX, 0) and q the decay per order over the last four
    probed orders.  Each point counts with ``weights`` (default 1), its
    weight in the integral that the caller forms from the tables, and the
    order is the smallest n >= 1 whose weighted tail is at most
    AZIMUTHAL_SHARE * tol * scale.  The scale is the largest component of
    the weighted sum of the integrals, and at least 1; a prediction above
    N_MAX raises ConvergenceError carrying it.  At a separation ``dz`` other
    than 0 the phase can cancel most of the integral, where so few nodes
    cannot follow it: the scale is then its floor 1 alone, and the order is
    capped at N_MAX for the caller to judge the tail it reports.  A given
    ``nmax`` is used as it is.  ``windows``, each point's ``_k_window``, are
    found here when not given.  Returns (order, each point's tail at that
    order, scale).
    """
    _check_tol(tol)
    if nmax is not None:
        _check_order(nmax)
    points = [as_spectral_point(p) for p in (s if isinstance(s, list) else [s])]
    if windows is None:
        windows = [_k_window(geom, p, rho1, rho2) for p in points]
    probe = SpectralEvaluator(geom, points, rho1, rho2, dphi, nmax=N_MAX)
    probes = [_probe_nodes(w) for w in windows]
    counts = [x.size for x, _ in probes]
    T, terms = probe(np.concatenate([x for x, _ in probes]),
                     np.repeat(np.arange(len(points)), counts), orders=True)
    cells = [slice(end - count, end) for end, count in zip(np.cumsum(counts), counts)]
    A = np.array([2.0 * PROBE_MARGIN * (w[:, None] * terms[c]).sum(axis=0)
                  for c, (_, w) in zip(cells, probes)])
    weights = np.ones(len(points)) if weights is None else np.asarray(weights, float)
    scale = 1.0
    if dz == 0.0:
        both = T + _MIRROR * T
        total = sum(v * (w[:, None, None] * both[c]).sum(axis=0)
                    for v, c, (_, w) in zip(weights, cells, probes))
        scale = max(scale, float(np.abs(total).max()))

    n = np.arange(ORDER_SCAN + 1)
    tails = np.zeros((len(points), n.size))
    tails[:, :N_MAX] = np.cumsum(A[:, :0:-1], axis=1)[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.minimum(np.nan_to_num((A[:, -1] / A[:, -5]) ** 0.25), 1.0)[:, None]
        tails += A[:, -1:] * q ** (np.maximum(n - N_MAX, 0) + 1) / (1.0 - q)
    weighted = np.abs(weights) @ tails
    if nmax is None:
        met = weighted[1:] <= AZIMUTHAL_SHARE * tol * scale
        nmax = 1 + int(np.argmax(met)) if met.any() else math.inf
        if dz != 0.0:
            nmax = min(nmax, N_MAX)
        elif nmax > N_MAX:
            raise ConvergenceError(
                f"the azimuthal series needs order {nmax} > N_MAX = {N_MAX} at tol {tol:g}",
                {"nmax": nmax, "tail_ratio": float(weighted[N_MAX] / scale)})
    # an order beyond the scan is left to the evaluator to reject
    return nmax, tails[:, min(nmax, ORDER_SCAN)], scale


def wire_green(geom: WireGeometry, p1, p2, s, *, tol: float = 1e-6,
               budget: int = 60000) -> DyadicGreen:
    """kz integral of the scattered spectrum between two cylindrical points.

    Parameters
    ----------
    p1, p2 : (rho, phi, z)
        Cylindrical coordinates, both with rho > radius.
    s : SpectralPoint or number
        Real or imaginary frequency; at a real frequency the guided plasmon
        pole, when there is one, seeds the kz panels.

    One WireSpectralTable is built, the one-point case of the kz-table
    builder, at the azimuthal order that ``settle_azimuthal_order`` predicts
    for it, its tail blocks judged at the points' separation.  Returns a
    cylindrical-frame DyadicGreen whose ``report`` carries the quadrature
    diagnostics; its error estimate includes the azimuthal tail.  An
    unconverged integral, or an order predicted above N_MAX, raises
    ConvergenceError with its diagnostics attached.
    """
    point = as_spectral_point(s)
    rho1, phi1, z1 = p1
    rho2, phi2, z2 = p2
    dz = float(z1) - float(z2)
    if not np.isfinite(dz):
        raise DomainError(f"axial separation must be finite, got z1 - z2 = {dz}")
    table = WireSpectralTable(geom, point, rho1, rho2, phi1 - phi2, tol=tol, budget=budget,
                              phase_ref=dz)
    tensor, abs_err = table.integrate(dz)
    scale = max(1.0, float(np.abs(tensor).max()))
    report = QuadratureReport(
        value=None, abs_error_estimate=abs_err, nodes_used=table.nodes_used,
        converged=bool(table.panels_ok and abs_err <= tol * scale),
        diagnostics={"n_panels": len(table.halves), "tail_bound": table.tail_bound,
                     "azimuthal_err": table.azimuthal_err, "nmax": table.nmax,
                     "k_start": table.k_start})
    if not report.converged:
        raise ConvergenceError(
            "kz quadrature for the wire tensor did not converge",
            {"nodes_used": report.nodes_used, **report.diagnostics})
    return DyadicGreen(value=tensor, frame="cylindrical", report=report,
                       converged=report.converged)


@dataclass
class FrozenSpectralTable:
    """The frozen panels of one kz panel set shared by several weighted
    spectra at one azimuthal order: the fields of every kz table, which its
    subclass ``WireSpectralTable`` builds.

    ``coefs`` holds spectrum s's nine components, times its weight, in
    columns 9 s to 9 s + 8, and every error is of the weighted sum, so in
    the units of the integral that the weights form.  ``err`` is the whole
    error: the kz panels' and tail's plus the azimuthal tail.
    """

    halves: np.ndarray        # (P,)
    mids: np.ndarray          # (P,)
    coefs: np.ndarray         # (P, 16, 9 * spectra), the +kz side
    panel_err: float
    tail_bound: float
    panels_ok: bool
    nodes_used: int           # kz nodes, each evaluated at every spectrum
    nmax: int
    azimuthal_err: float      # the spectra's predicted tails, weighted
    k_start: float            # where the geometric tail blocks begin

    @property
    def err(self):
        return self.panel_err + self.tail_bound + self.azimuthal_err

    def integrate(self, dz: float):
        """(3x3 tensor, abs error ``err``) of the weighted sum over the
        spectra of int_{-inf}^{inf} G~(kz) e^{i kz dz} dkz."""
        if not math.isfinite(dz):
            raise DomainError(f"separation dz must be finite, got {dz}")
        mirror = np.tile(_MIRROR.ravel(), self.coefs.shape[-1] // 9)
        vec = panel_terms(self.halves, self.mids, self.coefs, float(dz), mirror)
        return vec.sum(axis=0).reshape(-1, 3, 3).sum(axis=0), self.err

    def spectrum(self, kz):
        """(K, 3, 3): the panels' Legendre series at kz, summed over the
        spectra as ``integrate`` sums them; kz outside the panels raises.

        ``err`` bounds the integral, not these values: on the default pair's
        real-axis table Re G~_rr at kz = 1.0001 omega is off by 5.7e-3
        against err 2.2e-3, while Im G~_rr, which the plasmon fit reads,
        stays within 5.1e-6 on the fit's grid."""
        kz, end = np.atleast_1d(np.asarray(kz, float)), self.mids[-1] + self.halves[-1]
        if not np.all((kz >= 0.0) & (kz <= end)):
            raise DomainError(f"kz must lie in the table's panels [0, {end:.6g}]")
        p = np.searchsorted(self.mids - self.halves, kz, side="right") - 1
        leg = np.polynomial.legendre.legvander((kz - self.mids[p]) / self.halves[p], _NPTS - 1)
        return np.einsum("kj,kjc->kc", leg, self.coefs[p]).reshape(kz.size, -1, 3, 3).sum(axis=1)


class WireSpectralTable(FrozenSpectralTable):
    """The one kz-table builder: the frozen panels of the spectra at the
    spectral point(s) ``points`` (one point or a list, on one axis), each
    times its weight in ``weights`` (default 1), at the order ``nmax`` or,
    when that is None, the one ``settle_azimuthal_order`` predicts from one
    probe for the weighted sum at separation ``phase_ref``.  Away from
    phase_ref = 0 the phase may cancel most of the integral, so there the
    prediction takes the scale's floor 1 alone.  Its components are the
    weighted spectra side by side, so its steps (``build_spectral_panels``)
    judge them in the units of that sum.  Its window, which shapes it,
    starts at the largest k_start of the points and takes the first point's
    pole, branch point and gap; its tail blocks are judged at
    ``phase_ref``.  Each kz node is evaluated at every point in one
    evaluator call (``which``).  With one point of weight 1 every value
    keeps its bits.  A budget that is not finite and positive, or a
    phase_ref that is not finite, raises DomainError before any node is
    evaluated; a lossless metal's pole, seeded on the real kz axis, raises
    ConvergenceError.

    Build once, then ``integrate(dz)`` for any number of separations: the
    separation only enters through analytic phase moments, so each call
    costs a few matrix-vector products instead of new Bessel evaluations.
    """

    def __init__(self, geom: WireGeometry, points, rho1, rho2, dphi, *, tol, weights=None,
                 nmax=None, budget=60000, phase_ref=0.0):
        _check_budget(budget)
        if not math.isfinite(phase_ref):
            raise DomainError(f"phase_ref must be finite, got {phase_ref}")
        points = [as_spectral_point(p) for p in (points if isinstance(points, list) else [points])]
        weights = np.ones(len(points)) if weights is None else np.asarray(weights, float)
        found = [_k_window(geom, p, rho1, rho2) for p in points]
        if geom.model.gamma_p == 0.0 and (poles := [w[1][0] for w in found if w[1]]):
            raise ConvergenceError(f"the lossless metal puts the plasmon pole on the real kz "
                                   f"axis at kz = {poles[0]:.6g}", {"kz_pole": poles[0]})
        nmax, tails, _ = settle_azimuthal_order(geom, points, rho1, rho2, dphi, tol=tol,
                                                weights=weights, nmax=nmax, dz=phase_ref,
                                                windows=found)
        evaluator = SpectralEvaluator(geom, points, rho1, rho2, dphi, nmax=nmax)
        n = len(points)
        # on the real and imaginary parts apart: a complex product would turn
        # some signed zeros, and with weights of 1 the values must keep their bits
        spread = np.repeat(weights, 18)

        def weighted(x):
            vals = evaluator(np.repeat(x, n), np.arange(n * x.size) % n)
            return (vals.reshape(x.size, 9 * n).view(float) * spread).view(complex)

        k_start = max(w[0] for w in found)
        ps, tail_bound, ok = build_spectral_panels(
            weighted, (k_start, *found[0][1:]), tol=tol, mirror=np.tile(_MIRROR.ravel(), n),
            budget=budget, phase=phase_ref, orders=n * (nmax + 1))
        super().__init__(*ps._freeze(), panel_err=ps.err, tail_bound=float(tail_bound),
                         panels_ok=bool(ok), nodes_used=ps.nodes_used, nmax=nmax,
                         azimuthal_err=float(np.abs(weights) @ tails), k_start=k_start)

    # its own attribute, so that the traced benchmark's hook on this class
    # (perfbench/spans.py) wraps the calls of its tables once
    integrate = FrozenSpectralTable.integrate
