"""Free-space tensor rebuilt from the cylindrical vector-wave expansion.

This pins the normalization convention of the whole wire construction: the
same prefactor (i / 8 pi), the 1/eta^2 weight, and the conjugate-phase
source vectors are used for the scattered part, so agreement with the
closed form here fixes the sign and scale of everything downstream.
"""

import numpy as np
import pytest

from wireqed import OMEGA_A, SpectralPoint, green_vacuum
from wireqed.bessel import jh_orders
from wireqed.green_vacuum import cyl_to_cart_point, tensor_cart_to_cyl
from wireqed.green_wire import _radial_wavenumber
from wireqed.quadrature import build_spectral_panels

_MIRROR = np.outer([1.0, 1.0, -1.0], [1.0, 1.0, -1.0])


def free_space_spectrum(kz_signed, s, rho1, rho2, dphi, nmax=24):
    """Spectral tensor of the free-space expansion for rho1 > rho2."""
    k = complex(s.value)
    out = np.zeros((len(kz_signed), 3, 3), complex)
    for idx, kz in enumerate(kz_signed):
        eta = _radial_wavenumber(k * k, np.asarray([kz]))[0]
        _, h1, _, h1p = jh_orders(nmax, np.asarray([eta * rho1]))
        j2, _, j2p, _ = jh_orders(nmax, np.asarray([eta * rho2]))
        acc = np.zeros((3, 3), complex)
        for n in range(-nmax, nmax + 1):
            sign = -1.0 if (n < 0 and n % 2 != 0) else 1.0
            H, Hp = sign * h1[abs(n), 0], sign * h1p[abs(n), 0]
            J, Jp = sign * j2[abs(n), 0], sign * j2p[abs(n), 0]
            M1 = np.array([1j * n / rho1 * H, -eta * Hp, 0.0])
            N1 = np.array([1j * kz * eta * Hp / k, -n * kz * H / (k * rho1),
                           eta**2 * H / k])
            M2 = np.array([-1j * n / rho2 * J, -eta * Jp, 0.0])
            N2 = np.array([-1j * kz * eta * Jp / k, -n * kz * J / (k * rho2),
                           eta**2 * J / k])
            acc += (np.outer(M1, M2) + np.outer(N1, N2)) / eta**2 * np.exp(1j * n * dphi)
        out[idx] = 1j / (8 * np.pi) * acc
    return out


@pytest.mark.parametrize("s,tol", [
    (SpectralPoint.real_axis(OMEGA_A), 2e-6),
    (SpectralPoint.imaginary_axis(OMEGA_A), 1e-8),
])
def test_expansion_reproduces_closed_form(s, tol):
    rho1, phi1, z1 = 0.43, 0.3, 0.11
    rho2, phi2, z2 = 0.17, -0.5, -0.06
    dphi, dz = phi1 - phi2, z1 - z2

    # the -kz spectrum is P T(+kz) P, so the +kz side and mirror P carry it all
    nodes = np.array([0.0, 0.3, 0.8, 1.7, 3.0]) * abs(s.value)
    plus = free_space_spectrum(nodes, s, rho1, rho2, dphi)
    np.testing.assert_array_equal(free_space_spectrum(-nodes, s, rho1, rho2, dphi),
                                  _MIRROR * plus)

    branch = None if s.is_imaginary else abs(s.omega)
    ps, tail_bound, ok = build_spectral_panels(
        lambda kz: free_space_spectrum(kz, s, rho1, rho2, dphi), tol=1e-9,
        k_start=4.0 * abs(s.value) + 20.0, mirror=_MIRROR.ravel(), branch_point=branch,
        tail_scale=rho1 - rho2, budget=60000, phase_for_blocks=dz)
    value = ps.integral().reshape(3, 3)
    assert ok and ps.err + tail_bound <= 1e-9 * max(1.0, np.abs(value).max())

    closed = green_vacuum(cyl_to_cart_point(rho1, phi1, z1),
                          cyl_to_cart_point(rho2, phi2, z2), s).value
    expected = tensor_cart_to_cyl(closed, phi1, phi2)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(value - expected)) <= tol * scale
    if s.is_imaginary:
        assert np.max(np.abs(value.imag)) <= 1e-10 * scale
