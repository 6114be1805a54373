"""Cylindrical Bessel and Hankel functions of integer order, complex argument.

The wire Green's tensor needs J_n, H_n^(1) and their derivatives for
arguments anywhere in the closed upper half-plane: real for propagating
radial waves, purely imaginary on the imaginary frequency axis, and general
complex inside the lossy metal.  Both ladders come from the three-term
recurrence f_{n-1} + f_{n+1} = (2n/z) f_n, each run in the direction in
which its function is dominant (Gautschi, SIAM Rev. 9, 1967; DLMF
10.74(iv)).  H_n^(1) comes from scipy.special.hankel1 at orders 0 and 1 and
is recurred upward, since for Im z >= 0 it is the dominant solution as n
grows.  J_n comes from scipy.special.jv at orders nmax and nmax+1 and is
recurred downward, J_{n-1} = (2n/z) J_n - J_{n+1}, since it is the minimal
solution as n grows and hence dominant as n falls.  Where J_{nmax+1}
underflows (|z| below about 1e-6 at nmax = 40) the downward start holds no
information, so those columns keep scipy.special.jv at every order.
``h_orders`` and ``j_orders`` give either ladder alone, for arguments where
the other is not needed.  The module also supplies the derivative
recurrence f' = (f_{n-1} - f_{n+1})/2, negative-order reflection
J_{-n} = (-1)^n J_n, and explicit domain/overflow guards.

On the imaginary axis, J_n(iy) = i^n I_n(y) and H_n^(1)(iy) =
(2/pi) i^(-n-1) K_n(y) for y > 0 (DLMF 10.27.6, 10.27.8), so there the
real ladders ``ive_orders`` and ``kve_orders`` replace them.  They hold the
exponentially scaled e^(-y) I_n(y) and e^(y) K_n(y), which cannot overflow
where I_n does (I_0(750) = inf), and run the recurrences
f_{n-1} - f_{n+1} = (2n/y) f_n for I and f_{n+1} - f_{n-1} = (2n/y) f_n for K
(DLMF 10.29.1).  These differ from the J and H recurrences by one sign, so
one downward routine (``_downward``) serves J and I, started from jv or ive
at orders nmax and nmax+1 with the one underflow fallback, and one upward
routine (``_upward``) serves H and K, started from hankel1 or from
scipy.special.k0e and k1e (kve at orders 0 and 1).  Every term of the I and
K recurrences is positive, so neither loses digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, OverflowGuardError

#: Largest azimuthal order the wire series will ever request.
N_MAX = 40

#: Arguments beyond this magnitude risk overflow in the unscaled routines.
OVERFLOW_GUARD = 1.0e3


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
    if not np.all(np.isfinite(f)):
        raise OverflowGuardError("Bessel evaluation overflowed the representable range")
    fp = np.empty_like(f[: nmax + 1])
    if modified:
        fp[0] = f[1]
        fp[1:] = (f[: nmax] + f[2: nmax + 2]) / 2.0
    else:
        fp[0] = -f[1]
        fp[1:] = (f[: nmax] - f[2: nmax + 2]) / 2.0
    shape = (nmax + 1,) + np.shape(z)
    return f[: nmax + 1].reshape(shape), fp.reshape(shape)


def _arguments(nmax, z, dtype):
    """z as a flat array of ``dtype`` (complex for J and H, float for the
    scaled I and K), once the order range and z pass the guards."""
    if not 0 <= nmax <= N_MAX:
        raise DomainError(f"order ladder must satisfy 0 <= nmax <= {N_MAX}, got {nmax}")
    zarr = np.atleast_1d(np.asarray(z, dtype=dtype))
    if dtype is float:
        if not np.all((zarr > 0.0) & (zarr < np.inf)):
            raise DomainError("modified Bessel arguments must be finite and positive")
        return zarr
    if np.any(zarr == 0):
        raise DomainError("Bessel argument z = 0 is outside the domain")
    if np.any(np.abs(zarr) >= OVERFLOW_GUARD):
        raise OverflowGuardError(f"|z| = {np.abs(zarr).max():.3g} exceeds the overflow "
                                 f"guard {OVERFLOW_GUARD:g}")
    return zarr


def _downward(nmax, z, start, combine):
    """Orders 0..nmax+1 of the minimal solution at flat z, from
    start(orders, z) at orders nmax and nmax+1 and
    f_{n-1} = combine((2n/z) f_n, f_{n+1}): np.subtract for J (start jv),
    np.add for e^(-z) I (start ive)."""
    f = np.empty((nmax + 2, z.size), z.dtype)
    f[nmax:] = start(np.arange(nmax, nmax + 2.0)[:, None], z[None, :])
    two_over_z = 2.0 / z
    for n in range(nmax, 0, -1):
        f[n - 1] = combine((n * two_over_z) * f[n], f[n + 1])
    # an underflowed top order carries no information down the ladder
    lost = np.abs(f[nmax + 1]) < np.finfo(float).tiny
    if np.any(lost):
        f[:, lost] = start(np.arange(nmax + 2.0)[:, None], z[None, lost])
    return f


def _upward(nmax, z, first, combine):
    """Orders 0..nmax+1 of the dominant solution at flat z, from its orders
    0 and 1 (``first``) and f_{n+1} = combine((2n/z) f_n, f_{n-1}):
    np.subtract for H^(1), np.add for e^(z) K.  A column that overflows is
    left non-finite, for ``_with_derivatives`` to reject."""
    f = np.empty((nmax + 2, z.size), z.dtype)
    f[:2] = first
    two_over_z = 2.0 / z
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nmax + 1):
            f[n + 1] = combine((n * two_over_z) * f[n], f[n - 1])
    return f


def h_orders(nmax: int, z):
    """H^(1) and its derivative for all orders 0..nmax at argument(s) z.

    The Hankel half of ``jh_orders``, for arguments where J is not needed:
    deep in the evanescent tail J_n(z) overflows (J_0(750i) = inf) while
    H_n^(1)(z) underflows harmlessly to zero.

    Returns
    -------
    h, hp : ndarray, shape (nmax+1,) + shape(z)
    """
    zarr = _arguments(nmax, z, complex)
    first = special.hankel1(np.arange(2.0)[:, None], zarr[None, :])
    return _with_derivatives(_upward(nmax, zarr, first, np.subtract), nmax, z)


def j_orders(nmax: int, z):
    """J and its derivative for all orders 0..nmax at argument(s) z.

    The J half of ``jh_orders``, and the whole ladder for arguments where
    H^(1) is not needed (inside the metal).

    Returns
    -------
    j, jp : ndarray, shape (nmax+1,) + shape(z)
    """
    zarr = _arguments(nmax, z, complex)
    return _with_derivatives(_downward(nmax, zarr, special.jv, np.subtract), nmax, z)


def ive_orders(nmax: int, y):
    """e^(-y) I_n(y) and its derivative e^(-y) I_n'(y) for all orders
    0..nmax at real argument(s) y > 0, recurred downward as ``j_orders``
    recurs J, with the same underflow fallback (y below about 1e-6 at
    nmax = 40).

    Returns
    -------
    i, ip : ndarray, shape (nmax+1,) + shape(y)
    """
    yarr = _arguments(nmax, y, float)
    return _with_derivatives(_downward(nmax, yarr, special.ive, np.add), nmax, y,
                             modified=True)


def kve_orders(nmax: int, y):
    """e^(y) K_n(y) and its derivative e^(y) K_n'(y) for all orders
    0..nmax at real argument(s) y > 0, recurred upward from orders 0 and 1
    (scipy.special.k0e and k1e, which are kve at those orders).

    Returns
    -------
    k, kp : ndarray, shape (nmax+1,) + shape(y)
    """
    yarr = _arguments(nmax, y, float)
    first = special.k0e(yarr), special.k1e(yarr)
    k, kp = _with_derivatives(_upward(nmax, yarr, first, np.add), nmax, y, modified=True)
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
