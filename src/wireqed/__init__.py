"""Collective decay rates and plasmon-mediated dipole-dipole shifts for
two-level emitters near a metallic nanowire.

Natural units throughout: c = 1, lengths in vacuum transition wavelengths,
so the transition frequency is OMEGA_A = 2*pi.  Rates and shifts are
reported as ratios to the free-space rate or to the total single-emitter
rate; absolute SI output is out of scope.
"""

from .bessel import CylFunValue, N_MAX, bessel_jh
from .errors import (ConfigError, ConvergenceError, CoincidenceError, DomainError,
                     FitError, OverflowGuardError, WireQEDError)
from .frequencies import OMEGA_A, SpectralPoint
from .green_vacuum import (DyadicGreen, free_space_rate, green_vacuum,
                           green_vacuum_cyl, green_vacuum_im_coincident)
from .green_wire import (WireGeometry, WireSpectralTable, plasmon_wavenumber,
                         wire_green, wire_spectral_green)
from .material import DrudeModel, permittivity
from .quadrature import (KKReport, QuadratureReport, imag_axis_integrate,
                         kk_check, pv_shift_oracle)

__all__ = [
    "OMEGA_A", "SpectralPoint", "CylFunValue", "N_MAX", "bessel_jh",
    "DrudeModel", "permittivity", "DyadicGreen", "green_vacuum",
    "green_vacuum_cyl", "green_vacuum_im_coincident", "free_space_rate",
    "WireGeometry", "WireSpectralTable", "wire_green", "wire_spectral_green",
    "plasmon_wavenumber", "QuadratureReport", "KKReport", "imag_axis_integrate",
    "pv_shift_oracle", "kk_check",
    "WireQEDError", "DomainError", "OverflowGuardError", "CoincidenceError",
    "ConvergenceError", "FitError", "ConfigError",
]

__version__ = "0.1.0"

from .emitters import (ApproxRates, DickeLevels, EmitterPair, LorentzianFit,
                       MarkovDiagnostic, PairInteraction, RateShiftResult,
                       analytic_approximations, decay_rates, dicke_levels,
                       dipole_shift, fit_plasmon_lorentzian, fit_two_lorentzian,
                       markov_diagnostic)
from .config import RunConfig, SweepSpec, load_config

__all__ += [
    "EmitterPair", "RateShiftResult", "LorentzianFit", "ApproxRates",
    "DickeLevels", "MarkovDiagnostic", "PairInteraction", "decay_rates",
    "dipole_shift", "fit_plasmon_lorentzian", "fit_two_lorentzian",
    "analytic_approximations", "dicke_levels", "markov_diagnostic",
    "RunConfig", "SweepSpec", "load_config",
]
