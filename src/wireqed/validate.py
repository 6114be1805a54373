"""Built-in validation suites: the contour-rotation equivalence theorem on
closed-form causal models, Kramers-Kronig residuals, Wronskian sweeps,
free-space normalization and the two-Lorentzian fit round trip.  They take
no inputs, run in seconds and back the ``validate`` CLI command; the
expensive wire-level closure checks live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_jh
from .emitters import fit_two_lorentzian
from .frequencies import OMEGA_A, SpectralPoint
from .green_vacuum import free_space_rate, green_vacuum, green_vacuum_im_coincident
from .material import DrudeModel, permittivity
from .quadrature import imag_axis_integrate, kk_check, pv_shift_oracle


@dataclass(frozen=True)
class ResonanceModel:
    """Sum of causal resonances c_j / (w_j^2 - w^2 - i g_j w), at a
    frequency or elementwise over an array of them.

    Analytic in the upper half-plane, real on the imaginary axis, with
    large-frequency plateau f_inf = lim w^2 G(w) = -sum(c_j).  A vanishing
    plateau (zero-sum amplitudes) mimics a medium-minus-vacuum difference,
    for which the rotated shift formula needs no arc correction.
    """

    amplitudes: tuple
    centers: tuple
    widths: tuple

    def __call__(self, w):
        return sum(c / (w0 * w0 - w * w - 1j * g * w)
                   for c, w0, g in zip(self.amplitudes, self.centers, self.widths))

    def imag_axis(self, kappa):
        return sum(c / (w0 * w0 + kappa * kappa + g * kappa)
                   for c, w0, g in zip(self.amplitudes, self.centers, self.widths))

    @property
    def arc_limit(self) -> float:
        return -float(sum(self.amplitudes))


EQUIVALENCE_MODELS = (
    ResonanceModel((1.3,), (2.0,), (0.3,)),
    ResonanceModel((1.3, 0.7), (2.0, 5.0), (0.3, 0.8)),
    ResonanceModel((1.3, -0.5, 0.9), (2.0, 5.0, 9.0), (0.3, 0.8, 0.2)),
    ResonanceModel((1.0, -1.0), (2.0, 6.0), (0.4, 0.4)),  # zero-sum: no arc term
)


def rotated_shift(model, omega_a: float) -> float:
    """Shift integrand via the imaginary-axis route:
    pi w^2 Re G(w) + int dk k^2 G(ik) w/(k^2+w^2)  [- arc plateau]."""
    res = math.pi * omega_a**2 * complex(model(omega_a)).real
    rep = imag_axis_integrate(model.imag_axis, omega_a, tol=1e-10)
    return res + rep.value - 0.5 * math.pi * model.arc_limit


def pv_shift(model, omega_a: float) -> float:
    """The same quantity by brute force: PV int w^2 Im G/(w - w_a) dw."""
    return pv_shift_oracle(lambda w: model(w).imag, omega_a, tol=1e-10)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: residual {self.residual:.3e} "
                f"(tolerance {self.tolerance:.1e}) {self.detail}".rstrip())


def equivalence_suite():
    """Imaginary-axis route against the principal-value oracle for the
    built-in causal models at omega_a = 3.3, to 1e-6 relative."""
    omega_a, tol = 3.3, 1e-6
    results = []
    for i, model in enumerate(EQUIVALENCE_MODELS, start=1):
        rotated = rotated_shift(model, omega_a)
        pv = pv_shift(model, omega_a)
        rel = abs(rotated - pv) / abs(pv)
        tag = "zero-sum" if model.arc_limit == 0 else f"{len(model.amplitudes)} resonance(s)"
        results.append(SuiteResult(
            name=f"equivalence model {i} ({tag})", passed=rel < tol,
            residual=rel, tolerance=tol,
            detail=f"pv={pv:+.9g} rotated={rotated:+.9g}"))
    return results


def kk_suite():
    """Weighted Kramers-Kronig closure, to 1e-4 relative, on a causal
    resonance and on a Drude permittivity with omega_p = 4 omega_A,
    eps_inf = 1 and the default loss gamma_p = 0.002 omega_p."""
    tol = 1e-4
    results = []
    w0, g = 2.0, 0.1
    wa = 1.0
    model = ResonanceModel((1.0,), (w0,), (g,))
    rep = kk_check(lambda s: model(s.value), wa, arc_limit=model.arc_limit, tol=1e-8)
    results.append(SuiteResult(
        name="kramers-kronig causal resonance", passed=rep.residual < tol,
        residual=rep.residual, tolerance=tol))

    drude = DrudeModel(eps_inf=1.0, omega_p=4.0 * OMEGA_A, gamma_p=0.008 * OMEGA_A)

    def eps_med(s):
        return permittivity(drude, s) - drude.eps_inf

    rep2 = kk_check(eps_med, 1.7 * OMEGA_A, arc_limit=-drude.omega_p**2, tol=1e-8)
    results.append(SuiteResult(
        name="kramers-kronig drude permittivity", passed=rep2.residual < tol,
        residual=rep2.residual, tolerance=tol))
    return results


def wronskian_suite():
    """J_n H'_n - J'_n H_n against 2i/(pi z), to 1e-10 relative, on a
    randomized upper-half-plane grid of 200 orders and magnitudes."""
    tol = 1e-10
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 21))
        r = float(np.exp(rng.uniform(np.log(0.01), np.log(50.0))))
        phase = float(rng.uniform(0.0, np.pi))
        z = r * complex(np.cos(phase), np.sin(phase))
        val = bessel_jh(n, z)
        target = 2j / (math.pi * z)
        worst = max(worst, abs(val.wronskian() - target) / abs(target))
    return [SuiteResult(name="wronskian randomized sweep", passed=worst < tol,
                        residual=worst, tolerance=tol)]


def normalization_suite():
    """Free-space rate: exact w^3 scaling and the coincident-point limit of
    the transverse imaginary part, Richardson-extrapolated in separation."""
    results = []
    ratio = free_space_rate(2.0 * OMEGA_A) / free_space_rate(OMEGA_A)
    res = abs(ratio - 8.0) / 8.0
    results.append(SuiteResult(name="rate scaling w^3", passed=res < 1e-12,
                               residual=res, tolerance=1e-12))

    w = OMEGA_A
    target = green_vacuum_im_coincident(w)

    def im_xx(r):
        g = green_vacuum(np.array([0.0, 0.0, r]), np.zeros(3), SpectralPoint.real_axis(w))
        return g.value[0, 0].imag

    # deviation is O((wr)^2): two-point Richardson removes it
    f1, f2 = im_xx(1e-3), im_xx(0.5e-3)
    extrap = (4.0 * f2 - f1) / 3.0
    res2 = abs(extrap - target) / target
    results.append(SuiteResult(name="coincident-point limit w/(6 pi)",
                               passed=res2 < 1e-6, residual=res2, tolerance=1e-6))
    return results


def fit_suite():
    """``fit_two_lorentzian`` on 600 samples, over [0.2, 4 kc], of its own
    model with (A, gamma, kc) = (3, 0.2, 9.42), from the guess (0.7 A,
    2 gamma, 1.2 kc): each parameter back to 1e-6 relative."""
    tol = 1e-6
    amp, width, center = 3.0, 0.2, 9.42
    kz = np.linspace(0.2, 4.0 * center, 600)
    vals = sum(amp / (1 + (kz - c) ** 2 / width**2) for c in (center, -center))
    fit = fit_two_lorentzian(kz, vals, (0.7 * amp, 2.0 * width, 1.2 * center))
    rel = max(abs(got - want) / want for got, want in
              ((fit.amplitude_a, amp), (fit.width_gamma, width), (fit.center_kz_pl, center)))
    return [SuiteResult(name="two-lorentzian fit round trip", passed=rel < tol,
                        residual=rel, tolerance=tol)]


def run_all():
    """Every suite, in a fixed order, each at its own inputs and tolerance."""
    suites = []
    suites += equivalence_suite()
    suites += kk_suite()
    suites += wronskian_suite()
    suites += normalization_suite()
    suites += fit_suite()
    return suites
