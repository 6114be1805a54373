"""Closed-form free-space dyadic Green's tensor and frame helpers.

The tensor follows the convention in which the transverse part behaves as
exp(i w r) / (4 pi r) (1 - rhat rhat) at large |w| r and the coincident-point
imaginary part is Im G_ii = w / (6 pi) with c = 1.  The delta-function
contact term is never evaluated numerically: it only feeds the free-space
self-energy, which the medium-relative formulation removes by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidenceError, DomainError
from .frequencies import as_spectral_point

_COINCIDENCE_GUARD = 1e-9


@dataclass
class DyadicGreen:
    """A 3x3 complex Green's-tensor value, tagged with its basis frame.

    frame: "cartesian", or "cylindrical" meaning the row index lives in the
    local (rho, phi, z) basis of the first point and the column index in
    that of the second point.
    """

    value: np.ndarray
    frame: str = "cartesian"
    report: object = None
    converged: bool = True

    def __post_init__(self):
        self.value = np.asarray(self.value, complex).reshape(3, 3)


def cylindrical_basis(phi: float) -> np.ndarray:
    """Columns are the local (rho_hat, phi_hat, z_hat) in Cartesian axes."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def cyl_to_cart_point(rho: float, phi: float, z: float) -> np.ndarray:
    return np.array([rho * np.cos(phi), rho * np.sin(phi), z])


def tensor_cart_to_cyl(g: np.ndarray, phi1: float, phi2: float) -> np.ndarray:
    """Re-express a Cartesian two-point tensor in the local cylindrical bases."""
    b1 = cylindrical_basis(phi1)
    b2 = cylindrical_basis(phi2)
    return b1.T @ np.asarray(g) @ b2


def green_vacuum(r1, r2, s) -> DyadicGreen:
    """Free-space tensor between two distinct Cartesian points.

    Valid on both frequency axes: for s = i*kappa every component is real
    and exponentially damped.  Raises CoincidenceError when the points are
    closer than 1e-9 wavelengths; coincident-point users need
    ``green_vacuum_im_coincident``.
    """
    point = as_spectral_point(s)
    r1 = np.asarray(r1, float)
    r2 = np.asarray(r2, float)
    d = r1 - r2
    r = float(np.linalg.norm(d))
    if r < _COINCIDENCE_GUARD:
        raise CoincidenceError(f"|r1 - r2| = {r:.3g} is below the coincidence guard")
    rhat = d / r
    pre, t_iso, t_rad = _terms(point.value, r)
    g = pre * (t_iso * np.eye(3) + t_rad * np.outer(rhat, rhat))
    return DyadicGreen(value=g, frame="cartesian")


def _terms(k, r):
    """(pre, t_iso, t_rad) of G = pre (t_iso 1 + t_rad rhat rhat) at
    wavenumber k and distance r."""
    if k == 0:
        raise DomainError("the free-space tensor needs a nonzero frequency")
    kr = k * r
    pre = np.exp(1j * kr) / (4.0 * np.pi * r)
    t_iso = 1.0 + 1j / kr - 1.0 / (kr * kr)
    t_rad = -1.0 - 3j / kr + 3.0 / (kr * kr)
    return pre, t_iso, t_rad


def green_vacuum_axial(dz, s, d12, d12_z) -> complex:
    """d1 . G(r1, r2, s) . d2 for two distinct points dz apart on one line
    parallel to the z axis, from d12 = d1 . d2 and d12_z = d1_z d2_z.

    There rhat rhat = z z, which the local bases at a common phi leave as it
    is, so in the cylindrical frame of ``green_vacuum_cyl`` the contraction is
    pre (t_iso d12 + t_rad d12_z): two numbers per separation instead of a
    tensor.  Raises CoincidenceError as ``green_vacuum`` does.
    """
    r = abs(float(dz))
    if r < _COINCIDENCE_GUARD:
        raise CoincidenceError(f"|r1 - r2| = {r:.3g} is below the coincidence guard")
    pre, t_iso, t_rad = _terms(as_spectral_point(s).value, r)
    return complex(pre * (t_iso * d12 + t_rad * d12_z))


def green_vacuum_cyl(p1, p2, s) -> DyadicGreen:
    """Same tensor with cylindrical (rho, phi, z) points and local bases."""
    rho1, phi1, z1 = p1
    rho2, phi2, z2 = p2
    g = green_vacuum(cyl_to_cart_point(rho1, phi1, z1),
                     cyl_to_cart_point(rho2, phi2, z2), s)
    return DyadicGreen(value=tensor_cart_to_cyl(g.value, phi1, phi2), frame="cylindrical")


def green_vacuum_im_coincident(omega: float) -> float:
    """Im G_ii(r, r, omega) = omega / (6 pi) for real finite omega > 0 (c = 1)."""
    omega = float(omega)
    if not 0.0 < omega < np.inf:
        raise DomainError(f"coincident-point limit needs a finite omega > 0, got {omega}")
    return omega / (6.0 * np.pi)


def free_space_rate(omega: float) -> float:
    """Free-space decay rate in the reduced units where the dipole-moment
    and hbar*eps0 prefactors cancel: Gamma0 = 2 omega^2 * Im G_ii(r,r,omega)
    = omega^3 / (3 pi).  Scales exactly as omega^3."""
    return 2.0 * omega * omega * green_vacuum_im_coincident(omega)
