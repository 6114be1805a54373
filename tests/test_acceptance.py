"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its measured figure and pinned tolerance.

The metal parameters behind the published distance sweeps are not known, so
the sweep-level criteria are structural: oscillation period locked to the
fitted plasmon wavenumber, quarter-period phase lag, bounded shift extrema,
near-field breakdown of the single-resonance approximation, and the
crossover of the imaginary-axis integral term at wire-radius separations.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from wireqed import (DrudeModel, OMEGA_A, SpectralPoint, WireGeometry,
                     free_space_rate, green_vacuum, green_vacuum_im_coincident,
                     kk_check, wire_green, wire_spectral_green)
from wireqed.config import SCHEMA_TAG
from wireqed.emitters import analytic_approximations, fit_two_lorentzian
from wireqed.validate import EQUIVALENCE_MODELS, pv_shift, rotated_shift

from conftest import subprocess_env

REAL = SpectralPoint.real_axis(OMEGA_A)


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] acceptance {criterion}: {detail}")
    assert passed, f"acceptance {criterion}: {detail}"


def _kk_sample(job):
    geom, w = job
    s = SpectralPoint.real_axis(float(w))
    g = wire_green(geom, (0.015, 0.0, 0.0), (0.015, 0.0, 0.0), s,
                   tol=1e-6, budget=160000)
    return complex(g.value[0, 0])


def test_criterion_1_equivalence_theorem():
    """Imaginary-axis route equals the brute-force principal value for the
    one-, two- and three-resonance causal models, 1e-6 relative, < 10 s."""
    t0 = time.time()
    worst = 0.0
    for model in EQUIVALENCE_MODELS[:3]:
        wa = 3.3
        pv = pv_shift(model, wa)
        rot = rotated_shift(model, wa)
        worst = max(worst, abs(rot - pv) / abs(pv))
    elapsed = time.time() - t0
    report("1 (equivalence theorem)",
           worst < 1e-6 and elapsed < 10.0,
           f"worst relative gap {worst:.2e} (tol 1e-6), runtime {elapsed:.1f}s (< 10 s)")


def test_criterion_2_kk_closure_on_wire():
    """Re G_rr^med at the transition frequency against the Kramers-Kronig
    transform of the sampled imaginary part, 1e-3 relative, < 5 min.

    Geometry is the sweep default (radius 0.01, emitter at 0.015), evaluated
    at the coincident point where the medium response is strongest and the
    high-frequency reflection is off grazing incidence.  The metal uses a
    collision rate of 2% of the plasma frequency: the closure identity is
    loss-independent, but the near-lossless default develops band-edge cusps
    in the surface-mode continuum far narrower than any affordable
    real-frequency grid, while at ordinary metal loss every feature is
    resolvable and the transform closes tightly.
    """
    t0 = time.time()
    geom = WireGeometry(radius=0.01, model=DrudeModel(
        eps_inf=1.0, omega_p=6.0 * OMEGA_A, gamma_p=0.12 * OMEGA_A))

    # grid: smooth background, the surface-mode band, fast-decaying tail
    grid = np.unique(np.concatenate([
        np.linspace(0.02, 3.8, 70),
        np.linspace(0.6, 1.5, 30),
        np.linspace(3.8, 4.6, 260),
        np.linspace(4.6, 12.0, 60),
        np.linspace(12.0, 60.0, 40),
        np.geomspace(60.0, 350.0, 40),
    ])) * OMEGA_A

    from concurrent.futures import ProcessPoolExecutor
    jobs = [(geom, w) for w in grid]
    with ProcessPoolExecutor(max_workers=2) as pool:
        values = dict(zip(grid, pool.map(_kk_sample, jobs, chunksize=16)))
    values[OMEGA_A] = _kk_sample((geom, OMEGA_A))

    def g_rr(s):
        return values[s.value.real]

    rep = kk_check(g_rr, OMEGA_A, grid=grid, tol=1e-6)
    elapsed = time.time() - t0
    report("2 (kk closure on wire)",
           rep.residual < 1e-3 and elapsed < 300.0,
           f"residual {rep.residual:.2e} (tol 1e-3), crude tail estimate "
           f"{rep.tail_estimate:.2e}, {len(grid)} samples, runtime {elapsed:.0f}s (< 300 s)")


def test_criterion_3_free_space_normalization():
    """Gamma0 scales exactly as omega^3 and the coincident-point transverse
    imaginary part reproduces omega/(6 pi) through the small-r limit."""
    ratio = free_space_rate(2.0 * OMEGA_A) / free_space_rate(OMEGA_A)
    scaling_ok = abs(ratio - 8.0) <= 8.0 * 1e-12

    target = green_vacuum_im_coincident(OMEGA_A)

    def im_xx(r):
        g = green_vacuum(np.array([0.0, 0.0, r]), np.zeros(3), REAL)
        return g.value[0, 0].imag

    f1, f2 = im_xx(1e-3), im_xx(0.5e-3)
    extrap = (4.0 * f2 - f1) / 3.0
    limit_res = abs(extrap - target) / target
    report("3 (free-space normalization)",
           scaling_ok and limit_res < 1e-6,
           f"omega^3 ratio deviation {abs(ratio - 8.0) / 8.0:.1e} (tol 1e-12), "
           f"coincident-limit residual {limit_res:.1e} (tol 1e-6)")


@pytest.fixture(scope="module")
def sweep_rows(pair_engine):
    t0 = time.time()
    dzs = np.geomspace(0.02, 4.0, 100)
    rows = [(float(dz), pair_engine.at(float(dz))) for dz in dzs]
    elapsed = time.time() - t0
    return rows, elapsed


def test_criterion_4_sweep_structure(pair_engine, plasmon_fit, sweep_rows):
    """Distance-sweep structure at the default geometry: oscillation period
    from the fitted plasmon wavenumber (2%), quarter-period lag (5% of the
    period), extrema of |shift|/Gamma11 bounded by 0.55 on [1, 4], and the
    single-resonance approximation good to 10% beyond one wavelength while
    breaking down by more than 50% at wire-radius separations.  < 30 min."""
    rows, sweep_elapsed = sweep_rows
    t0 = time.time()
    period_fit = 2.0 * math.pi / plasmon_fit.center_kz_pl

    # (a) oscillation period from zero crossings of the shift
    dz_grid = np.linspace(1.0, 1.0 + 3.2 * period_fit, 460)
    shift = np.array([pair_engine.at(float(z)).shift12_total_over_gamma11
                      for z in dz_grid])
    coupling = np.array([pair_engine.at(float(z)).gamma12_over_gamma11
                         for z in dz_grid])
    def crossings_of(signal):
        idx = np.where(np.diff(np.sign(signal)) != 0)[0]
        return [dz_grid[i] - signal[i] * (dz_grid[i + 1] - dz_grid[i])
                / (signal[i + 1] - signal[i]) for i in idx]

    period_measured = 2.0 * float(np.mean(np.diff(crossings_of(shift))))
    period_coupling = 2.0 * float(np.mean(np.diff(crossings_of(coupling))))
    period_ok = (abs(period_measured - period_fit) <= 0.02 * period_fit
                 and abs(period_coupling - period_fit) <= 0.02 * period_fit)

    # (b) quarter-period lag between shift and coupling (largest |xcorr|)
    lags = np.arange(1, len(dz_grid) // 3)
    corr = [abs(float(np.dot(shift[k:], coupling[:-k]))) for k in lags]
    lag = float(lags[int(np.argmax(corr))] * (dz_grid[1] - dz_grid[0]))
    lag_ok = abs(lag - period_measured / 4.0) <= 0.05 * period_measured

    # (c) shift extrema on [1, 4]
    far = [(dz, r) for dz, r in rows if dz >= 1.0]
    dense_max = float(np.max(np.abs(shift)))
    row_max = max(abs(r.shift12_total_over_gamma11) for _, r in far)
    extrema_ok = max(dense_max, row_max) <= 0.55

    # (d) approximation quality: within 10% of the window maximum beyond
    # one wavelength, worse than 50% somewhere below three wire radii
    peak = max(abs(r.shift12_total_over_gamma11) for _, r in far)
    dev_far = max(abs(r.shift12_total_over_gamma11
                      - analytic_approximations(plasmon_fit, dz).shift12_over_gamma11)
                  for dz, r in far)
    near = [0.010, 0.012, 0.015, 0.02, 0.025]
    dev_near = 0.0
    for dz in near:
        r = pair_engine.at(dz)
        ap = analytic_approximations(plasmon_fit, dz)
        dev_near = max(dev_near, abs(r.shift12_total_over_gamma11
                                     - ap.shift12_over_gamma11)
                       / abs(r.shift12_total_over_gamma11))
    appr_ok = dev_far <= 0.10 * peak and dev_near > 0.50

    elapsed = sweep_elapsed + (time.time() - t0)
    report("4 (sweep structure)",
           period_ok and lag_ok and extrema_ok and appr_ok and elapsed < 1800.0,
           f"period {period_measured:.4f} vs 2pi/kz_pl {period_fit:.4f} "
           f"({abs(period_measured - period_fit) / period_fit * 100:.2f}%, tol 2%); "
           f"lag {lag:.4f} vs T/4 {period_measured / 4:.4f} "
           f"({abs(lag - period_measured / 4) / period_measured * 100:.2f}% of T, tol 5%); "
           f"max|shift|/g11 {max(dense_max, row_max):.3f} (<= 0.55); "
           f"far deviation {dev_far / peak * 100:.1f}% (< 10%), near deviation "
           f"{dev_near * 100:.0f}% (> 50%); runtime {elapsed:.0f}s (< 1800 s, "
           f"100-point sweep {sweep_elapsed:.0f}s)")


def test_criterion_5_integral_term_crossover(sweep_rows, pair_engine, plasmon_fit):
    """The imaginary-axis integral term rivals the resonant term at
    separations of order the wire radius and is negligible beyond one
    wavelength.  The resonant term oscillates through zero, so the far-side
    comparison uses its oscillation envelope within half a period rather
    than the pointwise value."""
    rows, _ = sweep_rows
    near_ratio = 0.0
    for dz in (0.012, 0.015, 0.02, 0.025, 0.03):
        r = pair_engine.at(dz)
        near_ratio = max(near_ratio,
                         abs(r.shift12_integral) / abs(r.shift12_resonant))

    far = [(dz, r) for dz, r in rows if dz > 1.0]
    half_period = math.pi / plasmon_fit.center_kz_pl
    far_ratio = 0.0
    for dz, r in far:
        envelope = max(abs(q.shift12_resonant) for dq, q in far
                       if abs(dq - dz) <= half_period)
        far_ratio = max(far_ratio, abs(r.shift12_integral) / envelope)
    report("5 (integral-term crossover)",
           near_ratio > 0.1 and far_ratio < 0.02,
           f"max ratio {near_ratio:.2f} at dz <= 3a (> 0.1); max "
           f"envelope-normalized ratio {far_ratio:.5f} for dz > 1 (< 0.02)")


def test_criterion_6_lorentzian_fit(default_geom, pair_engine, plasmon_fit,
                                    sweep_rows):
    """Synthetic two-Lorentzian spectra recover their parameters to 1e-6 and
    the fitted plasmon model tracks the exact decay coupling to 10% beyond
    one wavelength."""
    kz = np.linspace(0.5, 40.0, 400)
    a, g, kpl = 3.0, 0.2, 1.5 * OMEGA_A
    synth = a / (1 + (kz - kpl) ** 2 / g**2) + a / (1 + (kz + kpl) ** 2 / g**2)
    fit = fit_two_lorentzian(kz, synth, (2.0, 0.4, 0.7 * kpl))
    roundtrip = max(abs(fit.amplitude_a - a) / a, abs(fit.width_gamma - g) / g,
                    abs(fit.center_kz_pl - kpl) / kpl)

    rows, _ = sweep_rows
    far = [(dz, r) for dz, r in rows if dz > 1.0]
    peak = max(abs(r.gamma12_over_gamma11) for _, r in far)
    dev = max(abs(r.gamma12_over_gamma11
                  - analytic_approximations(plasmon_fit, dz).gamma12_over_gamma11)
              for dz, r in far)
    report("6 (lorentzian fit)",
           roundtrip < 1e-6 and dev <= 0.10 * peak,
           f"round-trip error {roundtrip:.1e} (tol 1e-6); coupling deviation "
           f"{dev / peak * 100:.1f}% of window max (< 10%); fit residual "
           f"{plasmon_fit.fit_residual:.3f}")


def test_criterion_7_invariant_suites(default_geom, sweep_rows, tmp_path):
    """Wronskian, reciprocity, imaginary-axis reality, decay-matrix positive
    semidefiniteness, and byte-identical CSV across worker counts."""
    from wireqed.validate import wronskian_suite

    wronskian = wronskian_suite()[0]

    rng = np.random.default_rng(99)
    recip_worst = 0.0
    for _ in range(4):
        rho1, rho2 = rng.uniform(0.012, 0.05, 2)
        dphi = float(rng.uniform(-np.pi, np.pi))
        kzv = float(rng.uniform(0.2, 3.0)) * OMEGA_A
        fwd = wire_spectral_green(default_geom, rho1, rho2, dphi, REAL, kzv) \
            + wire_spectral_green(default_geom, rho1, rho2, dphi, REAL, -kzv)
        rev = wire_spectral_green(default_geom, rho2, rho1, -dphi, REAL, kzv) \
            + wire_spectral_green(default_geom, rho2, rho1, -dphi, REAL, -kzv)
        recip_worst = max(recip_worst,
                          float(np.max(np.abs(fwd - rev.T)) / np.max(np.abs(fwd))))

    reality_worst = 0.0
    for dz, kap in ((0.3, OMEGA_A), (1.0, 2.0 * OMEGA_A)):
        g = wire_green(default_geom, (0.015, 0.0, 0.0), (0.015, 0.0, dz),
                       SpectralPoint.imaginary_axis(kap), tol=1e-6)
        reality_worst = max(reality_worst,
                            float(np.max(np.abs(g.value.imag)) / np.max(np.abs(g.value))))

    rows, _ = sweep_rows
    psd_ok = all(abs(r.gamma12) <= r.gamma11 * (1.0 + 1e-10) for _, r in rows)

    cfg = {"schema": SCHEMA_TAG,
           "sweep": {"z_min": 0.5, "z_max": 2.0, "n_points": 5, "log_spacing": False},
           "tol_wire": 1e-5}
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"det{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "wireqed.cli", "sweep", "--config", str(cfg_path),
             "--out", str(out), "--threads", threads],
            capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    deterministic = outs[0] == outs[1]

    report("7 (invariant suites)",
           wronskian.passed and recip_worst < 1e-10 and reality_worst < 1e-8
           and psd_ok and deterministic,
           f"wronskian {wronskian.residual:.1e} (tol 1e-10); reciprocity "
           f"{recip_worst:.1e} (tol 1e-10); imaginary-axis reality "
           f"{reality_worst:.1e} (tol 1e-8); decay matrix PSD at all "
           f"{len(rows)} sweep points: {psd_ok}; CSV byte-identical across "
           f"worker counts: {deterministic}")
