"""Frequency arguments on the real or positive imaginary axis.

All lengths are measured in units of the vacuum transition wavelength and
c = 1, so the transition frequency is always OMEGA_A = 2*pi and wave numbers
carry the same unit as frequencies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError

OMEGA_A = 2.0 * math.pi

_AXIS_TOL = 1e-14


@dataclass(frozen=True)
class SpectralPoint:
    """A frequency that lies on the real axis (omega) or the positive
    imaginary axis (i*kappa, kappa > 0).

    Every Green's-tensor evaluation is driven by one of these; the two axes
    select the oscillatory and the exponentially damped regime respectively.
    """

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not cmath.isfinite(v):
            raise DomainError(f"spectral point must be finite, got {v}")
        if abs(v.real) > _AXIS_TOL * max(1.0, abs(v)) and abs(v.imag) > _AXIS_TOL * max(1.0, abs(v)):
            raise DomainError(f"spectral point must be purely real or purely imaginary, got {v}")
        object.__setattr__(self, "value", v)

    @classmethod
    def real_axis(cls, omega: float) -> "SpectralPoint":
        return cls(complex(float(omega), 0.0))

    @classmethod
    def imaginary_axis(cls, kappa: float) -> "SpectralPoint":
        kappa = float(kappa)
        if kappa <= 0.0:
            raise DomainError(f"imaginary-axis point needs kappa > 0, got {kappa}")
        return cls(complex(0.0, kappa))

    @property
    def is_imaginary(self) -> bool:
        v = self.value
        return abs(v.imag) > abs(v.real)

    @property
    def omega(self) -> float:
        """Real-axis frequency; only meaningful when not imaginary."""
        return self.value.real

    @property
    def kappa(self) -> float:
        """Imaginary-axis coordinate; only meaningful when imaginary."""
        return self.value.imag


def as_spectral_point(s) -> SpectralPoint:
    """Coerce a float (real omega), complex, or SpectralPoint."""
    if isinstance(s, SpectralPoint):
        return s
    return SpectralPoint(complex(s))
