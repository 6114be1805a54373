"""Cylindrical Bessel and Hankel functions of integer order, complex argument.

The wire Green's tensor needs J_n, H_n^(1) and their derivatives at real
arguments (propagating radial waves), purely imaginary ones (the imaginary
frequency axis) and general complex ones (inside the lossy metal, and at the
complex kz of the plasmon pole search).  Every value here comes from numpy
arithmetic on the three-term recurrence f_{n-1} + f_{n+1} = (2n/z) f_n, run
in the direction in which its function is dominant (Gautschi, SIAM Rev. 9,
1967; DLMF 10.74(iv)), and no special-function library is called.

J_n is the minimal solution as n grows, so it comes from Miller's algorithm:
the recurrence runs downward from 0 and a tiny value at a start order set
per argument from |z| (``_start_orders``), and the trial ladder is scaled
to e^(-iz) = J_0 + 2 sum_k (-i)^k J_k (DLMF 10.12.1 at t = -i), whose terms
do not cancel for Im z >= 0.  Below |z| = ``SERIES_MAX`` a start would
overflow, so the ascending series gives every order there; at real z far
beyond nmax every order lies in the oscillating range, where the upward
recurrence from J = Re H^(1) is as good and much shorter (``_real_upward``).

H_n^(1) is the dominant solution as n grows, so it is recurred upward from
orders 0 and 1, which come from H_n^(1)(z) = (2/pi) i^(-n-1) K_n(-iz)
(DLMF 10.27.8) and one routine for e^w K_0(w) and e^w K_1(w) on Re w >= 0
(``_k01``): Temme's series below |w| = ``TEMME_MAX`` (Temme, J. Comput. Phys. 19, 1975)
and above it the trapezoidal rule on the steepest-descent form
e^w K_0(w) = int e^(-v^2) (2w + v^2)^(-1/2) dv over the real line, whose
step is set per argument from the distance of its branch point to the real
axis.  That routine takes Re w >= 0, i.e. Im z >= 0; a lower-half-plane
argument goes through J_n(conj z) = conj J_n(z) and H_n^(1)(conj z) =
conj(2 J_n(z) - H_n^(1)(z)).  ``h_orders`` and ``j_orders`` give either
ladder alone, for arguments where the other is not needed.  The module also
supplies the derivative recurrence f' = (f_{n-1} - f_{n+1})/2,
negative-order reflection J_{-n} = (-1)^n J_n, and explicit domain/overflow
guards.

On the imaginary axis, J_n(iy) = i^n I_n(y) and H_n^(1)(iy) =
(2/pi) i^(-n-1) K_n(y) for y > 0 (DLMF 10.27.6, 10.27.8), so there the
real ladders ``ive_orders`` and ``kve_orders`` replace them.  They hold the
exponentially scaled e^(-y) I_n(y) and e^(y) K_n(y), which cannot overflow
where I_n does (I_0(750) = inf), and run the recurrences
f_{n-1} - f_{n+1} = (2n/y) f_n for I and f_{n+1} - f_{n-1} = (2n/y) f_n for K
(DLMF 10.29.1).  These differ from the J and H recurrences by one sign, so
one downward routine (``_downward``) serves J and I, the I ladder scaled to
e^(-y) (I_0 + 2 sum_k I_k) = 1 (DLMF 10.35.1 at t = 1), and one upward routine
(``_upward``) serves H and K, started from ``_k01`` at real argument.
Every term of the I and K recurrences and of the I scaling is positive, so
none loses digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, OverflowGuardError

#: Largest azimuthal order the wire series will ever request.
N_MAX = 40

#: Arguments beyond this magnitude risk overflow in the unscaled routines.
OVERFLOW_GUARD = 1.0e3

#: Below this |z| the ascending series gives every order (its third term is
#: below 1e-31 of the first): Miller's trial ladder grows like (2/|z|)^n n!
#: down to order 0 and would soon leave the double range.
SERIES_MAX = 1.0e-5

#: Below this |w| Temme's series gives K_0 and K_1 (to 6e-16; it loses a
#: digit by |w| = 2 on the real axis), above it the trapezoidal rule.
TEMME_MAX = 1.5

#: Miller's trial value at the start order.  The trial ladder grows by at
#: most e^660 down to order 0 (|z| = SERIES_MAX at order 40) and by at least
#: e^40 times e^(Im z) (``_NORM_FALL``), so it and the scale
#: e^(-iz)/sum, below 1e80 e^-40, stay in the double range.
_MILLER_START = 1.0e-80

#: Start orders, in natural-log units of the model ladder's fall: the terms
#: left out of the scaling sum are below e^-40 of it, and the start's error,
#: which shrinks as the square of that fall, is below e^-42 at order nmax+1.
_NORM_FALL, _TOP_FALL = 40.0, 21.0

#: (-i)^k for J and 1 for I by order k mod 4: the scaling weights are 1 at
#: order 0 and twice these above it.
_PHASES = {False: np.array([1.0, -1j, -1.0, 1j]), True: np.ones(4)}

_EULER = 0.57721566490153286


def _temme_coefficients(terms=11):
    """Temme's series below TEMME_MAX as three polynomials in t = w^2/4 of
    degree 10 (the next term is below 2e-18 of the first):
    I_0 = sum_k t^k/(k!)^2; the sum sum_k H_k t^k/(k!)^2 over the harmonic
    numbers H_k, which gives K_0 = -(ln(w/2) + gamma) I_0 + that sum; and
    2 I_1 / w = sum_k t^k/(k! (k+1)!), which gives K_1 through the Wronskian
    I_0 K_1 + I_1 K_0 = 1/w.  Highest degree first, as (3, 1) columns for
    Horner's rule."""
    k = np.arange(terms, dtype=float)
    factorial = np.cumprod(np.maximum(k, 1.0))
    harmonic = np.cumsum(1.0 / np.maximum(k, 1.0)) - 1.0
    coef = np.stack([np.ones(terms), harmonic, 1.0 / (k + 1.0)]) / factorial ** 2
    return list(coef.T[::-1, :, None])


_TEMME = _temme_coefficients()

#: Trapezoid steps for e^w K(w) at |w| >= TEMME_MAX, smallest first.  A step
#: h is exact to e^-42 where the branch point of (2w + v^2)^(-1/2) lies at least
#: sigma_min(h) = pi/h - sqrt(pi^2/h^2 - 42) from the real v axis (the
#: rule's error is about exp(sigma^2 - 2 pi sigma / h), and exp(-pi^2/h^2)
#: from the Gaussian alone); that distance is sqrt(|w| + Re w) >= 1.22.
#: The nodes reach v = 7, where e^(-v^2) is 5e-22.
_STEPS = (0.153, 0.216, 0.29, 0.38, 0.45)
_SIGMA_MIN = np.array([math.pi / h - math.sqrt((math.pi / h) ** 2 - 42.0) for h in _STEPS])


def _trapezoid_tables():
    """Per step of ``_STEPS``: its node count and, down the rows, the nodes'
    v^2 and the weights of the K_0 and K_1 sums, at v_j = j h >= 0 (both
    integrands are even, so the half line counts twice).  Steps with fewer
    nodes are padded with zero weights, which leave a sum unchanged."""
    counts = np.array([math.ceil(7.0 / h) + 1 for h in _STEPS])
    v = np.arange(counts.max())[:, None] * np.array(_STEPS)[None, :]
    wt = np.where(v > 0, 2.0, 1.0) * np.array(_STEPS) * np.exp(-v * v)
    wt[np.arange(counts.max())[:, None] >= counts[None, :]] = 0.0
    return counts, v * v, np.stack([wt, wt * v * v], axis=1)


_NODES, _V2, _WEIGHTS = _trapezoid_tables()


@dataclass(frozen=True)
class CylFunValue:
    """J_n, H_n^(1) and derivatives at a single (order, argument) pair."""

    order: int
    argument: complex
    j: complex
    h1: complex
    jprime: complex
    h1prime: complex

    def wronskian(self) -> complex:
        """J_n h1' - J_n' h1; equals 2i/(pi z) for any valid argument."""
        return self.j * self.h1prime - self.jprime * self.h1


def safe_min_arg(order: int) -> float:
    """Smallest |z| for which H_order(z) stays below ~1e280.

    From the small-argument growth |H_n(z)| ~ (n-1)! (2/|z|)^n / pi; the
    bound is vanishingly small for low orders and only bites for deep
    ladders evaluated next to a branch point.
    """
    m = max(int(order), 1)
    return 2.0 * math.exp(-(280.0 * math.log(10.0) - math.lgamma(m)) / m)


def _with_derivatives(f, nmax, z, modified=False):
    """Orders 0..nmax of a ladder f holding orders 0..nmax+1, and of its
    derivative, both shaped (nmax+1,) + shape(z), once f is finite.

    The derivative is f'_n = (f_{n-1} - f_{n+1}) / 2 with f_{-1} = -f_1 for
    J and H^(1), and f'_n = (f_{n-1} + f_{n+1}) / 2 with f_{-1} = f_1 for
    I (``modified``); K'_n is minus the latter.
    """
    if not np.isfinite(f).all():
        raise OverflowGuardError("Bessel evaluation overflowed the representable range")
    fp = np.empty_like(f[: nmax + 1])
    if modified:
        fp[0] = f[1]
        np.add(f[: nmax], f[2: nmax + 2], out=fp[1:])
    else:
        fp[0] = -f[1]
        np.subtract(f[: nmax], f[2: nmax + 2], out=fp[1:])
    fp[1:] *= 0.5
    shape = (nmax + 1,) + np.shape(z)
    return f[: nmax + 1].reshape(shape), fp.reshape(shape)


def _column_sum(a):
    """Sum over axis 0, adding the rows one after another in every column, so
    that a column's value does not depend on the batch it came in, and zero
    rows past its last term leave it unchanged bit for bit.  numpy adds
    pairwise only along contiguous memory, which axis 0 is here only for a
    single real column; cumsum adds that one in order too."""
    flat = a.reshape(len(a), -1)
    if flat.dtype.kind == "c":
        flat = flat.view(float)
    if flat.shape[1] == 1:
        return np.cumsum(a, axis=0)[-1]
    return flat.sum(axis=0).view(a.dtype).reshape(a.shape[1:])


def _arguments(nmax, z, dtype):
    """z as a flat array of ``dtype`` (complex for J and H, float for the
    scaled I and K), once the order range and z pass the guards."""
    if not 0 <= nmax <= N_MAX:
        raise DomainError(f"order ladder must satisfy 0 <= nmax <= {N_MAX}, got {nmax}")
    zarr = np.atleast_1d(np.asarray(z, dtype=dtype))
    if dtype is float:
        if not (zarr.min() > 0.0 and zarr.max() < np.inf):     # False for NaN
            raise DomainError("modified Bessel arguments must be finite and positive")
        return zarr
    size = np.abs(zarr)
    largest = size.max()             # NaN if any is NaN
    if not largest < np.inf:
        raise DomainError("Bessel arguments must be finite")
    if size.min() == 0:
        raise DomainError("Bessel argument z = 0 is outside the domain")
    if largest >= OVERFLOW_GUARD:
        raise OverflowGuardError(f"|z| = {largest:.3g} exceeds the overflow "
                                 f"guard {OVERFLOW_GUARD:g}")
    return zarr


def _fall(modified, u):
    """A model ladder's log-fall from order 0 to order u |z|, over |z|: the
    integral of its step asinh(x/|z|) for I, and of acosh(max(x/|z|, 1)) for
    J, whose real axis falls slowest (not at all until x = |z|, DLMF 10.20)
    and so serves every phase.  The integral and the sum of the steps at
    half-integer orders agree to within one order of start."""
    if modified:
        return u * np.arcsinh(u) - np.sqrt(1.0 + u * u) + 1.0
    u = np.maximum(u, 1.0)
    return u * np.arccosh(u) - np.sqrt(u * u - 1.0)


@lru_cache(maxsize=None)
def _start_table(modified, nmax):
    """(log |z| grid, start orders): per grid point the smallest start order
    M > nmax at which the model ladder falls by _NORM_FALL from order 0
    and by _TOP_FALL from order nmax+1 to M+1, found by bisection."""
    t = np.geomspace(SERIES_MAX, 1e4 if modified else OVERFLOW_GUARD, 71 if modified else 61)
    n0 = nmax + 1
    lo, hi = np.full(t.size, n0), np.full(t.size, 4 * n0 + 4096)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        ok = ((t * _fall(modified, mid / t) >= _NORM_FALL)
              & (t * (_fall(modified, (mid + 1) / t) - _fall(modified, n0 / t)) >= _TOP_FALL))
        lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
    return np.log(t), lo


def _start_orders(modified, nmax, t):
    """Miller start orders at |z| = t >= SERIES_MAX, interpolated in log t on
    ``_start_table`` with two orders to spare; the I table's last point
    scales as sqrt(t) beyond its end (the fall is Gaussian there)."""
    logt, table = _start_table(modified, nmax)
    lt = np.log(t)
    top = np.interp(lt, logt, table)
    if modified and lt.max() > logt[-1]:
        top = np.where(lt > logt[-1], table[-1] * np.exp(0.5 * (lt - logt[-1])), top)
    return np.ceil(top).astype(np.intp) + 2


def _series(nmax, z, modified, t):
    """Orders 0..nmax+1 of J (or e^-z I, ``modified``) at flat |z| = t <
    SERIES_MAX from three terms of (z/2)^n/n! sum_k (-+z^2/4)^k/(k!(n+k)!)
    (DLMF 10.2.2, 10.25.2)."""
    n = np.arange(nmax + 2.0)[:, None]
    lead = np.empty((nmax + 2, z.size), z.dtype)
    lead[0] = np.exp(-z) if modified else 1.0
    lead[1:] = (z / 2.0)[None, :] / n[1:]
    lead = np.cumprod(lead, axis=0)
    q = (z * z / 4.0 if modified else -z * z / 4.0)[None, :]
    return lead * (1.0 + q / (n + 1.0) * (1.0 + q / (2.0 * (n + 2.0))))


def _steps(count, z):
    """Rows 2n/z, n = 0..count-1, as a list.  A ladder grows like (2/z)^n,
    so n (2/z) would carry the rounding of 2/z into f_n n times over; real
    rows are therefore divided out one by one.  A complex division costs
    four multiplies, so complex rows take 2n (1/z): their n-fold rounding
    stays below SciPy's own error at every order (tests/test_bessel.py)."""
    twice = np.arange(0.0, 2 * count, 2)
    if z.dtype.kind == "f":
        return list(np.divide.outer(twice, z))
    return list(np.multiply.outer(twice, 1.0 / z))


def _miller(nmax, z, modified, t):
    """Orders 0..nmax+1 of J (complex z, Im z >= 0) or e^-y I (real y > 0)
    at flat |z| = t >= SERIES_MAX by Miller's algorithm.

    f_{n-1} = (2n/z) f_n -+ f_{n+1} runs down from f_M = _MILLER_START,
    f_{M+1} = 0 at each column's start order M.  Every step runs on the
    whole batch: a column is zero above its own start, which the recurrence
    keeps, so its values do not depend on the batch.  The trial ladder is then
    scaled to e^(-iz) = J_0 + 2 sum (-i)^k J_k or to 1 = e^-y (I_0 + 2 sum I_k).
    """
    combine = np.add if modified else np.subtract
    tops = _start_orders(modified, nmax, t)
    top, lowest = int(tops.max()), int(tops.min())
    f = np.zeros((top + 2, z.size), z.dtype)
    f[tops, np.arange(z.size)] = _MILLER_START
    rows = list(f)
    step = _steps(top + 1, z)
    scratch = np.empty(z.size, z.dtype)
    for n in range(top, lowest, -1):
        # added to the row, which holds _MILLER_START where a column starts
        # and zero elsewhere; adding zero leaves the other columns' values
        np.multiply(step[n], rows[n], out=scratch)
        np.add(rows[n - 1], scratch, out=rows[n - 1])
        combine(rows[n - 1], rows[n + 1], out=rows[n - 1])
    for n in range(lowest, 0, -1):
        np.multiply(step[n], rows[n], out=rows[n - 1])
        combine(rows[n - 1], rows[n + 1], out=rows[n - 1])
    weights = 2.0 * _PHASES[modified][np.arange(top + 1) % 4]
    weights[0] = 1.0
    total = _column_sum(weights[:, None] * f[: top + 1])
    f = f[: nmax + 2]
    with np.errstate(over="ignore", invalid="ignore"):    # _with_derivatives rejects it
        f *= (1.0 if modified else np.exp(-1j * z)) / total
    return f


def _real_upward(nmax, z, modified, t):
    """Orders 0..nmax+1 of J at flat real z (complex dtype) with
    |z| >= 1.5 nmax + 12: all of them lie below |z|, where J and Y oscillate
    alike and the upward recurrence neither gains nor loses, so it starts
    from J_0, J_1 = Re H_0^(1), Re H_1^(1) at |z| (``_k01``) and
    J_n(-x) = (-1)^n J_n(x) gives the negative axis.  Miller's sum would
    gather about sqrt(|z|) ulps over its |z| + 12 |z|^(1/3) steps here."""
    k0, k1 = _k01(-1j * t, scaled=False)
    first = ((-2j / math.pi * k0).real, (-2.0 / math.pi * k1).real)
    f = _upward(nmax, t.astype(complex), first, np.subtract)
    f[1::2, z.real < 0] *= -1.0
    return f


def _downward(nmax, z, modified=False):
    """Orders 0..nmax+1 of J (complex z, Im z >= 0) or of e^-y I (real y,
    ``modified``) at flat z: the series below SERIES_MAX, ``_real_upward``
    for J at large real z, Miller elsewhere."""
    t = np.abs(z)
    upward = not modified and t.max() >= 1.5 * nmax + 12
    if t.min() >= SERIES_MAX and not upward:
        return _miller(nmax, z, modified, t)
    small = t < SERIES_MAX
    real = (z.imag == 0) & (t >= 1.5 * nmax + 12) if upward else None
    rest = ~small if real is None else ~(small | real)
    f = np.empty((nmax + 2, z.size), z.dtype)
    for mask, route in ((small, _series), (real, _real_upward), (rest, _miller)):
        if mask is not None and mask.any():
            f[:, mask] = route(nmax, z[mask], modified, t[mask])
    return f


def _k01(w, scaled):
    """K_0(w) and K_1(w), times e^w when ``scaled``, shape (2, w.size), at
    flat w != 0 with Re w >= 0 (complex) or w > 0 (real): Temme's series
    below |w| = TEMME_MAX, the trapezoidal rule above it.  Each form takes
    its exponential factor only where the caller needs it."""
    temme = np.abs(w) < TEMME_MAX
    count = np.count_nonzero(temme)
    k = np.empty((2, w.size), w.dtype)
    for part, rows, form in ((temme, count, _k01_temme),
                             (~temme, w.size - count, _k01_trapezoid)):
        if rows:
            sel = slice(None) if rows == w.size else part
            k[:, sel] = form(w[sel], scaled)
    return k


def _k01_temme(x, scaled):
    """``_k01`` from I_0, the H_k sum and 2 I_1 / x of ``_TEMME``, by Horner's
    rule in t = x^2/4."""
    t = x * x / 4.0
    p = np.empty((3, x.size), x.dtype)
    p[:] = _TEMME[0]
    for coef in _TEMME[1:]:
        p *= t
        p += coef
    i0, harmonic, i1 = p
    i1 *= x / 2.0
    k0 = harmonic - (_EULER + np.log(x / 2.0)) * i0
    e = np.exp(x) if scaled else 1.0
    return k0 * e, (1.0 / x - i1 * k0) / i0 * e


def _k01_trapezoid(x, scaled):
    """``_k01`` from e^x K_0(x) = int e^(-v^2) (2x + v^2)^(-1/2) dv and
    e^x K_1(x) = int e^(-v^2) (1 + v^2/x) (2x + v^2)^(-1/2) dv, each
    argument at its own step of ``_STEPS``, all in one zero-padded array."""
    step = np.searchsorted(_SIGMA_MIN, np.sqrt(np.abs(x) + x.real), side="right") - 1
    rows = _NODES[step].max()
    root = np.sqrt(_V2[:rows, step] + 2.0 * x)
    s0, s2 = _column_sum(_WEIGHTS[:rows, :, step] / root[:, None, :])
    e = 1.0 if scaled else np.exp(-x)
    return s0 * e, (s0 + s2 / x) * e


def _upward(nmax, z, first, combine):
    """Orders 0..nmax+1 of the dominant solution at flat z, from its orders
    0 and 1 (``first``) and f_{n+1} = combine((2n/z) f_n, f_{n-1}):
    np.subtract for H^(1), np.add for e^(z) K.  A column that overflows is
    left non-finite, for ``_with_derivatives`` to reject."""
    f = np.empty((nmax + 2, z.size), z.dtype)
    f[:2] = first
    rows = list(f)
    step = _steps(nmax + 1, z)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nmax + 1):
            np.multiply(step[n], rows[n], out=rows[n + 1])
            combine(rows[n + 1], rows[n - 1], out=rows[n + 1])
    return f


def _upper(z):
    """Flat z reflected into Im z >= 0, and the mask of reflected columns
    (None when there are none)."""
    if z.imag.min() >= 0:
        return z, None
    lower = z.imag < 0
    return np.where(lower, z.conj(), z), lower


def h_orders(nmax: int, z):
    """H^(1) and its derivative for all orders 0..nmax at argument(s) z.

    The Hankel half of ``jh_orders``, for arguments where J is not needed:
    deep in the evanescent tail J_n(z) overflows (J_0(750i) = inf) while
    H_n^(1)(z) underflows harmlessly to zero.

    Returns
    -------
    h, hp : ndarray, shape (nmax+1,) + shape(z)
    """
    zarr, lower = _upper(_arguments(nmax, z, complex))
    # H_0 = (2/pi) (-i) K_0(-iz) and H_1 = -(2/pi) K_1(-iz)
    k0, k1 = _k01(-1j * zarr, scaled=False)
    h = _upward(nmax, zarr, ((-2j / math.pi) * k0, (-2.0 / math.pi) * k1), np.subtract)
    if lower is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            h[:, lower] = np.conj(2.0 * _downward(nmax, zarr[lower]) - h[:, lower])
    return _with_derivatives(h, nmax, z)


def j_orders(nmax: int, z):
    """J and its derivative for all orders 0..nmax at argument(s) z.

    The J half of ``jh_orders``, and the whole ladder for arguments where
    H^(1) is not needed (inside the metal).  J_n(z) grows like e^|Im z|, and
    beyond |Im z| = 709.78, where that overflows, the ladder raises
    OverflowGuardError.

    Returns
    -------
    j, jp : ndarray, shape (nmax+1,) + shape(z)
    """
    zarr, lower = _upper(_arguments(nmax, z, complex))
    j = _downward(nmax, zarr)
    if lower is not None:
        j[:, lower] = j[:, lower].conj()
    return _with_derivatives(j, nmax, z)


def ive_orders(nmax: int, y):
    """e^(-y) I_n(y) and its derivative e^(-y) I_n'(y) for all orders
    0..nmax at real argument(s) y > 0, by the downward routine that gives J
    in ``j_orders``.

    Returns
    -------
    i, ip : ndarray, shape (nmax+1,) + shape(y)
    """
    yarr = _arguments(nmax, y, float)
    return _with_derivatives(_downward(nmax, yarr, modified=True), nmax, y, modified=True)


def kve_orders(nmax: int, y):
    """e^(y) K_n(y) and its derivative e^(y) K_n'(y) for all orders
    0..nmax at real argument(s) y > 0, recurred upward from orders 0 and 1
    (``_k01``).

    Returns
    -------
    k, kp : ndarray, shape (nmax+1,) + shape(y)
    """
    yarr = _arguments(nmax, y, float)
    k = _upward(nmax, yarr, _k01(yarr, scaled=True), np.add)
    k, kp = _with_derivatives(k, nmax, y, modified=True)
    return k, -kp


def jh_orders(nmax: int, z):
    """J, H^(1) and derivatives for all orders 0..nmax at argument(s) z.

    Parameters
    ----------
    nmax : int
        Highest order required, 0 <= nmax <= N_MAX.
    z : complex or complex ndarray
        Argument(s); z = 0 is rejected.

    Returns
    -------
    j, h, jp, hp : ndarray, shape (nmax+1,) + shape(z)
    """
    h, hp = h_orders(nmax, z)
    j, jp = j_orders(nmax, z)
    return j, h, jp, hp


def bessel_jh(order: int, z: complex) -> CylFunValue:
    """J_n(z), H_n^(1)(z) and their derivatives for one integer order.

    Negative orders are reflected through J_{-n} = (-1)^n J_n (and the same
    relation for H^(1) and the derivatives).
    """
    n = int(order)
    if abs(n) > N_MAX:
        raise DomainError(f"|order| = {abs(n)} exceeds N_MAX = {N_MAX}")
    z = complex(z)
    j, h, jp, hp = jh_orders(abs(n), np.array([z]))
    sign = -1.0 if (n < 0 and n % 2 != 0) else 1.0
    return CylFunValue(
        order=n,
        argument=z,
        j=sign * complex(j[abs(n), 0]),
        h1=sign * complex(h[abs(n), 0]),
        jprime=sign * complex(jp[abs(n), 0]),
        h1prime=sign * complex(hp[abs(n), 0]),
    )
