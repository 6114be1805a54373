"""Dispersive permittivity of the wire metal.

A single free-electron (Drude) model covers everything the acceptance
suite needs; tabulated data can be added later behind the same
``permittivity`` call.  The model is evaluated on the real axis and on the
positive imaginary axis, where causality makes it purely real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .frequencies import OMEGA_A, as_spectral_point

_MIN_ABS = 1e-12


@dataclass(frozen=True)
class DrudeModel:
    """eps(omega) = eps_inf - omega_p^2 / (omega^2 + i*gamma_p*omega).

    Frequencies are in natural units (c = 1, lengths in wavelengths), the
    same units as the SpectralPoint values fed to ``permittivity``.

    The form obeys the reflection symmetry eps(-conj(omega)) = conj(eps(omega))
    in the closed upper half-plane, is passive (Im eps >= 0 for real
    omega > 0), and is real and monotonically decreasing toward eps_inf on
    the imaginary axis.
    """

    eps_inf: float = 1.0
    omega_p: float = 6.0 * OMEGA_A
    gamma_p: float = 0.012 * OMEGA_A  # 0.002 * omega_p for the defaults

    def __post_init__(self):
        if not 1.0 <= self.eps_inf < math.inf:
            raise DomainError(f"eps_inf must be finite and >= 1, got {self.eps_inf}")
        if not 0.0 < self.omega_p < math.inf:
            raise DomainError(f"omega_p must be finite and > 0, got {self.omega_p}")
        if not 0.0 <= self.gamma_p < math.inf:
            raise DomainError(f"gamma_p must be finite and >= 0, got {self.gamma_p}")

    @classmethod
    def from_relative(cls, eps_inf: float, omega_p_over_omega_a: float,
                      gamma_p_over_omega_p: float) -> "DrudeModel":
        """Build from the ratios used in run configurations."""
        wp = float(omega_p_over_omega_a) * OMEGA_A
        return cls(eps_inf=float(eps_inf), omega_p=wp,
                   gamma_p=float(gamma_p_over_omega_p) * wp)


def permittivity(model: DrudeModel, s) -> complex:
    """Evaluate eps at a spectral point (real omega or i*kappa).

    On the imaginary axis the value is purely real:
    eps(i*kappa) = eps_inf + omega_p^2 / (kappa * (kappa + gamma_p)).
    """
    point = as_spectral_point(s)
    v = point.value
    if abs(v) < _MIN_ABS:
        raise DomainError("permittivity is singular at s = 0")
    if point.is_imaginary:
        kappa = point.kappa
        if kappa <= 0:
            raise DomainError("imaginary-axis evaluation needs kappa > 0")
        return complex(model.eps_inf + model.omega_p**2 / (kappa * (kappa + model.gamma_p)))
    return permittivity_upper_half_plane(model, v)


def permittivity_upper_half_plane(model: DrudeModel, omega: complex) -> complex:
    """Analytic continuation to arbitrary points with Im(omega) >= 0; on the
    real axis it is ``permittivity`` itself."""
    omega = complex(omega)
    if omega.imag < -1e-15:
        raise DomainError("model is defined on the closed upper half-plane only")
    if abs(omega) < _MIN_ABS:
        raise DomainError("permittivity is singular at omega = 0")
    return model.eps_inf - model.omega_p**2 / (omega * omega + 1j * model.gamma_p * omega)
