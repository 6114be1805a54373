import numpy as np
import pytest
from scipy import special

from wireqed import (ConvergenceError, DomainError, DrudeModel, EmitterPair, FitError, N_MAX,
                     OMEGA_A, PairInteraction, SpectralPoint, WireGeometry,
                     green_vacuum_im_coincident, plasmon_wavenumber, wire_green,
                     wire_spectral_green)
from wireqed import emitters, green_wire
from wireqed.green_wire import SpectralEvaluator

from conftest import load_fixture

REAL = SpectralPoint.real_axis(OMEGA_A)
IMAG = SpectralPoint.imaginary_axis(OMEGA_A)
# P T P with P = diag(1, 1, -1): the -kz spectrum from the +kz one
_MIRROR = np.outer([1.0, 1.0, -1.0], [1.0, 1.0, -1.0])


def test_geometry_validation():
    for radius in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            WireGeometry(radius=radius, model=DrudeModel())
    with pytest.warns(UserWarning):
        WireGeometry(radius=0.6, model=DrudeModel())
    geom = WireGeometry(radius=0.01, model=DrudeModel())
    with pytest.raises(DomainError):
        wire_green(geom, (0.005, 0.0, 0.0), (0.015, 0.0, 0.0), REAL)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["rho2", "phi2", "z2", "kz"])
def test_non_finite_coordinates_raise_before_any_evaluation(default_geom, monkeypatch,
                                                           where, bad):
    # without the checks a NaN z2 fails in the phase moments' Miller ladder, a
    # non-finite phi2 as an overflow, an infinite z2 as unconverged, and a NaN
    # rho or kz node gets evaluated
    def evaluated(*args, **kwargs):
        raise AssertionError("a spectrum node was evaluated")

    monkeypatch.setattr(SpectralEvaluator, "_ladders", evaluated)
    with pytest.raises(DomainError, match="finite"):
        if where == "kz":
            wire_spectral_green(default_geom, 0.015, 0.015, 0.0, REAL, np.array([1.0, bad]))
        else:
            p2 = {"rho2": 0.015, "phi2": 0.0, "z2": 1.0, where: bad}
            wire_green(default_geom, (0.015, 0.0, 0.0), tuple(p2.values()), REAL)


def _evaluated(*args, **kwargs):
    raise AssertionError("a spectrum node was evaluated")


@pytest.mark.parametrize("budget", [np.nan, np.inf, 0, -5], ids=["nan", "inf", "0", "-5"])
@pytest.mark.parametrize("build", [
    lambda geom, budget: wire_green(geom, (0.015, 0.0, 0.0), (0.015, 0.0, 1.0),
                                    4.2 * OMEGA_A, budget=budget),
    lambda geom, budget: green_wire.WireSpectralTable(geom, REAL, 0.015, 0.015, 0.0,
                                                      tol=1e-6, budget=budget),
], ids=["wire_green", "table"])
def test_budget_checked_before_any_evaluation(default_geom, monkeypatch, build, budget):
    # a build stops on nodes_used > 0.8 budget and nodes_used + 32 > budget,
    # both False at NaN: the wire_green case at budget NaN ran one set past
    # 270,000 nodes, and a budget <= 0 samples the spectrum before it fails
    monkeypatch.setattr(SpectralEvaluator, "_ladders", _evaluated)
    with pytest.raises(DomainError, match="budget must be finite and positive"):
        build(default_geom, budget)


@pytest.mark.parametrize("build", [
    lambda geom: SpectralEvaluator(geom, REAL, 0.015, 0.015, 0.0, nmax=2.5),
    lambda geom: SpectralEvaluator(geom, REAL, 0.015, 0.015, 0.0, nmax=True),
    lambda geom: wire_spectral_green(geom, 0.015, 0.015, 0.0, REAL, 1.0, nmax=2.5),
    lambda geom: green_wire.settle_azimuthal_order(geom, REAL, 0.015, 0.015, 0.0, nmax=2.5),
    lambda geom: green_wire.WireSpectralTable(geom, REAL, 0.015, 0.015, 0.0, tol=1e-6,
                                              nmax=2.5),
    lambda geom: PairInteraction(geom, EmitterPair((0.015, 0.0, 0.0), (0.015, 0.0, 0.5)),
                                 tol=1e-6, nmax=2.5),
], ids=["evaluator", "evaluator_bool", "spectral_green", "settle", "table", "pair"])
def test_fractional_order_raises_before_any_evaluation(default_geom, monkeypatch, build):
    # 2.5 ran at order 2 in the evaluator (True at order 1), was reported as
    # "n = 2.5" by wire_spectral_green, and failed in numpy indexing in the
    # order search of the tables
    monkeypatch.setattr(SpectralEvaluator, "_ladders", _evaluated)
    with pytest.raises(DomainError, match="must be an integer"):
        build(default_geom)


_NEGATIVE = SpectralPoint.real_axis(-OMEGA_A)


@pytest.mark.parametrize("build", [
    lambda geom: wire_green(geom, (0.015, 0.0, 0.0), (0.015, 0.0, 0.0), _NEGATIVE),
    lambda geom: green_wire.WireSpectralTable(geom, _NEGATIVE, 0.015, 0.015, 0.0, tol=1e-6),
    lambda geom: wire_spectral_green(geom, 0.015, 0.015, 0.0, _NEGATIVE, 1.0, nmax=8),
    lambda geom: green_wire.settle_azimuthal_order(geom, _NEGATIVE, 0.015, 0.015, 0.0),
    lambda geom: emitters.fit_plasmon_lorentzian(geom, -OMEGA_A, _evaluated),
    lambda geom: emitters.fit_plasmon_lorentzian(
        geom, -OMEGA_A, SpectralEvaluator(geom, REAL, 0.015, 0.015, 0.0, nmax=8)),
], ids=["wire_green", "table", "spectral_green", "settle", "fit", "fit_evaluator"])
def test_negative_real_frequency_raises_before_any_evaluation(default_geom, monkeypatch,
                                                              build):
    # on the default metal at -omega_A, wire_green returned a converged
    # tensor 2e-4 of its size away from conj G(omega_A): the outgoing branch
    # Im eta >= 0 is the retarded one only for omega > 0
    monkeypatch.setattr(SpectralEvaluator, "__call__", _evaluated)
    with pytest.raises(DomainError, match="needs omega > 0"):
        build(default_geom)


def _table_nodes(table):
    from wireqed.quadrature import _GL_X
    return (table.mids[:, None] + table.halves[:, None] * _GL_X).ravel()


def test_table_spectrum_reproduces_its_nodes(default_geom):
    # the frozen Legendre panels give back the values they were projected from
    table = green_wire.WireSpectralTable(default_geom, REAL, 0.015, 0.015, 0.0, tol=1e-6)
    nodes = _table_nodes(table)
    got = table.spectrum(nodes).reshape(len(table.halves), -1, 9)
    want = SpectralEvaluator(default_geom, REAL, 0.015, 0.015, 0.0, nmax=table.nmax)(
        nodes).reshape(got.shape)
    # per panel, relative to its largest component
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * np.abs(want).max(axis=(1, 2)))


def test_table_spectrum_is_within_its_error_on_the_fit_grid(default_geom):
    # the kz grid of fit_plasmon_lorentzian on the default pair's real-axis
    # table, and the component it fits, Im G~_rr: in sweep the table stands
    # in for an evaluator there
    table = green_wire.WireSpectralTable(default_geom, REAL, 0.015, 0.015, 0.0, tol=1e-6)
    kp, width = plasmon_wavenumber(default_geom, OMEGA_A)
    dense = kp + width * np.linspace(-15.0, 15.0, 180)
    kz = np.unique(np.concatenate([np.linspace(1.0001 * OMEGA_A, 4.0 * kp, 180),
                                   dense[(dense > OMEGA_A) & (dense < 4.0 * kp)]]))
    ev = SpectralEvaluator(default_geom, REAL, 0.015, 0.015, 0.0, nmax=table.nmax)
    seen = np.abs(table.spectrum(kz)[:, 0, 0].imag - ev(kz)[:, 0, 0].imag).max()
    assert seen <= table.err


def test_table_spectrum_outside_its_panels_raises(default_geom):
    table = green_wire.WireSpectralTable(default_geom, REAL, 0.015, 0.015, 0.0, tol=1e-6)
    end = table.mids[-1] + table.halves[-1]
    assert table.spectrum([0.0, end]).shape == (2, 3, 3)
    for bad in (-1e-9, 1.01 * end, np.nan, np.inf):
        with pytest.raises(DomainError, match="table's panels"):
            table.spectrum([1.0, bad])


def test_weighted_table_spectrum_is_the_weighted_sum(default_geom):
    points = [SpectralPoint.imaginary_axis(k * OMEGA_A) for k in (0.5, 2.0)]
    table = green_wire.WireSpectralTable(default_geom, points, 0.015, 0.015, 0.0, tol=1e-6,
                                         weights=[0.3, -1.2], nmax=8)
    nodes = _table_nodes(table)
    one, two = (SpectralEvaluator(default_geom, p, 0.015, 0.015, 0.0, nmax=8)(nodes)
                for p in points)
    want = 0.3 * one - 1.2 * two
    assert np.abs(table.spectrum(nodes) - want).max() <= 1e-12 * np.abs(want).max()


def test_numpy_integer_order_is_an_order(default_geom):
    ev = SpectralEvaluator(default_geom, REAL, 0.015, 0.015, 0.0, nmax=np.int64(8))
    assert ev.nmax == 8 and type(ev.nmax) is int


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_table_separations_must_be_finite(default_geom, monkeypatch, bad):
    # a NaN phase_ref built a table with tail_bound NaN and panels_ok True, and
    # integrate returned an all-NaN tensor at NaN and warned at +-inf
    table = green_wire.WireSpectralTable(default_geom, REAL, 0.015, 0.015, 0.0, tol=1e-6)
    with pytest.raises(DomainError, match="dz must be finite"):
        table.integrate(bad)
    monkeypatch.setattr(SpectralEvaluator, "_ladders", _evaluated)
    with pytest.raises(DomainError, match="phase_ref must be finite"):
        green_wire.WireSpectralTable(default_geom, REAL, 0.015, 0.015, 0.0, tol=1e-6,
                                     phase_ref=bad)


def test_spectral_green_needs_a_node(default_geom):
    # numpy's "zero-size array" ValueError before the check
    with pytest.raises(DomainError, match="at least one"):
        wire_spectral_green(default_geom, 0.015, 0.015, 0.0, REAL, [])


def test_vanishing_scatterer_limit():
    geom = WireGeometry(radius=1e-6, model=DrudeModel())
    g = wire_green(geom, (0.05, 0.0, 0.0), (0.05, 0.0, 0.25), REAL, tol=1e-6)
    assert np.max(np.abs(g.value)) < 1e-8


def test_spectral_reciprocity_random_draws(default_geom):
    rng = np.random.default_rng(42)
    for _ in range(6):
        rho1 = float(rng.uniform(0.012, 0.05))
        rho2 = float(rng.uniform(0.012, 0.05))
        dphi = float(rng.uniform(-np.pi, np.pi))
        kz = float(rng.uniform(0.1, 4.0)) * OMEGA_A
        s = REAL if rng.random() < 0.5 else IMAG
        fwd = wire_spectral_green(default_geom, rho1, rho2, dphi, s, kz) \
            + wire_spectral_green(default_geom, rho1, rho2, dphi, s, -kz)
        rev = wire_spectral_green(default_geom, rho2, rho1, -dphi, s, kz) \
            + wire_spectral_green(default_geom, rho2, rho1, -dphi, s, -kz)
        scale = np.max(np.abs(fwd))
        assert np.max(np.abs(fwd - rev.T)) <= 1e-10 * scale


def test_rr_component_even_in_kz(default_geom):
    for kz in (0.4 * OMEGA_A, 2.3 * OMEGA_A, 7.0 * OMEGA_A):
        plus = wire_spectral_green(default_geom, 0.016, 0.021, 0.7, REAL, kz)
        minus = wire_spectral_green(default_geom, 0.016, 0.021, 0.7, REAL, -kz)
        assert abs(plus[0, 0] - minus[0, 0]) <= 1e-12 * abs(plus[0, 0])
        assert abs(plus[2, 2] - minus[2, 2]) <= 1e-12 * abs(plus[2, 2])


def test_branch_point_evaluation_does_not_blow_up(default_geom):
    val = wire_spectral_green(default_geom, 0.015, 0.015, 0.0, REAL, OMEGA_A)
    assert np.all(np.isfinite(val))


def test_clamped_imaginary_axis_nodes_stay_on_the_axis(default_geom):
    # |eta1| = sqrt(kappa^2 + kz^2) is below the clamp floor (1e-3) at the
    # first three nodes; the clamp must keep eta1 on +i even where kz <= kappa,
    # so the tensor keeps the imaginary-axis pattern: real on the
    # components the -kz mirror keeps, imaginary on the others
    ev = SpectralEvaluator(default_geom, SpectralPoint.imaginary_axis(5e-4), 0.015,
                           0.015, 0.0, nmax=40)
    out = ev(np.array([0.0, 1e-4, 4e-4, 2e-3]))
    off = np.where(_MIRROR > 0, np.abs(out.imag), np.abs(out.real))
    assert np.all(off.max(axis=(1, 2)) <= 1e-15 * np.abs(out).max(axis=(1, 2)))


def test_imaginary_axis_reality(default_geom):
    for dz, kap in ((0.0, OMEGA_A), (0.5, OMEGA_A), (0.25, 3.0 * OMEGA_A)):
        g = wire_green(default_geom, (0.015, 0.0, 0.0), (0.015, 0.0, dz),
                       SpectralPoint.imaginary_axis(kap), tol=1e-6)
        norm = np.max(np.abs(g.value))
        assert np.max(np.abs(g.value.imag)) <= 1e-8 * norm


def test_plasmon_pole_signature(default_geom):
    kp, width = plasmon_wavenumber(default_geom, OMEGA_A)
    assert kp > OMEGA_A          # bound mode, slower than light
    assert width > 0.0           # ohmic loss gives it a finite lifetime

    ev = SpectralEvaluator(default_geom, REAL, 0.015, 0.015, 0.0, nmax=30)
    kz = np.linspace(1.01 * OMEGA_A, 8.0 * OMEGA_A, 400)
    im = ev(kz)[:, 0, 0].imag
    ipk = int(np.argmax(im))
    assert abs(kz[ipk] - kp) < 4.0 * width
    # single dominant maximum: nothing else comes within a tenth of the peak
    away = np.abs(kz - kz[ipk]) > 10.0 * width
    assert im[away].max() < 0.1 * im[ipk]


def test_no_bound_mode_for_transparent_wire():
    geom = WireGeometry(radius=0.01,
                        model=DrudeModel(eps_inf=1.0, omega_p=0.1, gamma_p=0.01))
    with pytest.raises(FitError):
        plasmon_wavenumber(geom, OMEGA_A)


def _reference_plasmon(geom, omega):
    """The TM0 pole search on its own determinant, written out as
    plasmon_wavenumber had it before it read the wall solve's entry:
    det = (eta1^2/k1) H_0 k2 eta2 J_0' - (eta2^2/k2) J_0 k1 eta1 H_0', with
    the same scan and Newton step."""
    from wireqed.bessel import h_orders, j_orders
    from wireqed.material import permittivity

    w = float(omega)
    eps2 = permittivity(geom.model, SpectralPoint.real_axis(w))
    k1, k2 = w, w * np.sqrt(eps2 + 0j)
    a = geom.radius
    x_est = 1.0 / max(abs(eps2 + 1.0), 1e-3) + 5.0
    scan_max_ratio = max(60.0, 3.0 * x_est / (w * a))

    def terms(kz):
        kz = np.atleast_1d(np.asarray(kz, complex))
        e1 = np.sqrt(k1**2 - kz**2)
        e1 = np.where(e1.imag < 0.0, -e1, e1)
        e2 = np.sqrt(k2**2 - kz**2)
        e2 = np.where(e2.imag < 0.0, -e2, e2)
        j2, j2p = j_orders(0, e2 * a)
        h1, h1p = h_orders(0, e1 * a)
        return ((e1**2 / k1) * h1[0] * k2 * e2 * j2p[0],
                (e2**2 / k2) * j2[0] * k1 * e1 * h1p[0])

    scan = w * np.geomspace(1.002, scan_max_ratio, 300)
    t1, t2 = terms(scan)
    mags = np.abs(t1 - t2) / (np.abs(t1) + np.abs(t2))
    i0 = int(np.argmin(mags))
    if i0 in (0, len(scan) - 1) or mags[i0] > 0.3:
        raise FitError("no interior minimum of the reference determinant")
    kz = complex(scan[i0])
    for _ in range(60):
        h = 1e-7 * abs(kz)
        t1, t2 = terms(np.array([kz, kz + h, kz - h]))
        d, dplus, dminus = t1 - t2
        step = d / ((dplus - dminus) / (2 * h))
        if abs(step) > 0.25 * abs(kz):
            step *= 0.25 * abs(kz) / abs(step)
        kz = complex(kz - step)
        if abs(step) < 1e-13 * abs(kz):
            break
    if not (kz.real > w and abs(kz.imag) < kz.real):
        raise FitError(f"reference root search landed at {kz}")
    return float(kz.real), float(abs(kz.imag))


@pytest.mark.parametrize("metal, f", [("default", f) for f in (0.5, 1.0, 2.0, 3.5, 4.0, 4.2)]
                         + [("kk", f) for f in (0.5, 1.0, 2.5, 4.11)])
def test_pole_search_matches_an_independent_determinant(metal, f):
    # plasmon_wavenumber finds the zero of the wall solve's n = 0 TM entry;
    # the determinant written out on its own has the same zero
    geom = WireGeometry(radius=0.01, model=DrudeModel() if metal == "default" else _KK_METAL)
    got, want = plasmon_wavenumber(geom, f * OMEGA_A), _reference_plasmon(geom, f * OMEGA_A)
    assert np.abs(np.array(got) / np.array(want) - 1.0).max() <= 1e-13


@pytest.mark.parametrize("model, radius", [
    (DrudeModel(eps_inf=1.0, omega_p=0.1, gamma_p=0.01), 0.01),
    (DrudeModel.from_relative(1.0, 1.3, 0.05), 0.1),
], ids=["transparent", "scan_fallback"])
def test_no_bound_mode_on_either_determinant(model, radius):
    geom = WireGeometry(radius=radius, model=model)
    for search in (plasmon_wavenumber, _reference_plasmon):
        with pytest.raises(FitError):
            search(geom, OMEGA_A)


def test_k_window_seeds_the_plasmon_only_below_the_accumulation(default_geom):
    from wireqed.green_wire import _k_window
    kp, width = plasmon_wavenumber(default_geom, OMEGA_A)
    # 4.5 omega_A is above omega_p / sqrt(2): Re eps > -1, no bound mode to seed
    above = SpectralPoint.real_axis(4.5 * OMEGA_A)
    for s, seed, branch in ((REAL, (kp, max(width, 1e-4 * OMEGA_A)), OMEGA_A),
                            (above, None, 4.5 * OMEGA_A), (IMAG, None, None)):
        k_start, pole, bp, gap = _k_window(default_geom, s, 0.015, 0.015)
        assert (pole, bp) == (seed, branch) and k_start > 0.0
        assert gap == pytest.approx(0.01)


def test_azimuthal_convergence(default_geom):
    # compare the two order ladders on one shared quadrature grid so the
    # truncation effect is isolated from panel-placement differences
    from numpy.polynomial.legendre import leggauss

    x16, w16 = leggauss(16)
    breaks = np.concatenate([
        np.linspace(0.0, 2.0 * OMEGA_A, 25),
        np.geomspace(2.0 * OMEGA_A, 60.0 * OMEGA_A, 40),
    ])
    for s, dz in [(REAL, 0.5), (IMAG, 0.02)]:
        ev_lo = SpectralEvaluator(default_geom, s, 0.015, 0.015, 0.0, nmax=30)
        ev_hi = SpectralEvaluator(default_geom, s, 0.015, 0.015, 0.0, nmax=40)
        tot_lo = np.zeros((3, 3), complex)
        tot_hi = np.zeros((3, 3), complex)
        for aa, bb in zip(breaks[:-1], breaks[1:]):
            half, mid = 0.5 * (bb - aa), 0.5 * (bb + aa)
            nodes = mid + half * x16
            phase = np.exp(1j * nodes * dz)
            for ev, acc in ((ev_lo, tot_lo), (ev_hi, tot_hi)):
                vals = ev(nodes)
                acc += half * np.einsum(
                    "k,kij->ij", w16 * phase, vals) + half * np.einsum(
                    "k,kij->ij", w16 * np.conj(phase), _MIRROR * vals)
        scale = np.max(np.abs(tot_hi))
        assert np.max(np.abs(tot_lo - tot_hi)) <= 1e-8 * scale


def test_azimuthal_tail_failure_raises():
    # emitter close enough to the surface that the series still has a
    # 1e-7-level tail at the n = 40 ceiling
    geom = WireGeometry(radius=0.01, model=DrudeModel())
    with pytest.raises(ConvergenceError):
        wire_green(geom, (0.012, 0.0, 0.0), (0.012, 0.0, 0.1), REAL)


def test_spectral_green_tail_failure_raises():
    # the same near-surface emitter: the order-40 term at the node is still
    # above NODE_TAIL_TOL of the spectrum there
    geom = WireGeometry(radius=0.01, model=DrudeModel())
    with pytest.raises(ConvergenceError) as failure:
        wire_spectral_green(geom, 0.012, 0.012, 0.0, REAL, 2.0 * OMEGA_A)
    assert failure.value.diagnostics["nmax"] == N_MAX
    assert failure.value.diagnostics["tail_ratio"] > green_wire.NODE_TAIL_TOL


def test_spectral_green_checks_a_large_kz_node_against_itself(default_geom, monkeypatch):
    # far out in kz the azimuthal series converges slowly: at kappa = omega_A
    # the order-24 cut is 2.3e-6 of the node's own value at kz = 1000 and
    # 1.7e-5 at kz = 1500.  A node asked for alone is evaluated once, at
    # N_MAX, and its order-40 term is judged against its own value: 2e-11
    # at kz = 1000 passes, 3e-10 at kz = 1500 raises
    s = SpectralPoint.imaginary_axis(OMEGA_A)
    reference = SpectralEvaluator(default_geom, s, 0.015, 0.015, 0.0, nmax=N_MAX)([1000.0])
    calls = []
    call = SpectralEvaluator.__call__

    def recorded(self, kz_nodes, which=0, **kwargs):
        calls.append((self.nmax, len(kz_nodes)))
        return call(self, kz_nodes, which, **kwargs)

    monkeypatch.setattr(SpectralEvaluator, "__call__", recorded)
    val = wire_spectral_green(default_geom, 0.015, 0.015, 0.0, s, 1000.0)
    assert calls == [(N_MAX, 1)]
    np.testing.assert_allclose(val, reference[0], rtol=1e-13, atol=0.0)
    with pytest.raises(ConvergenceError) as failure:
        wire_spectral_green(default_geom, 0.015, 0.015, 0.0, s, 1500.0)
    assert failure.value.diagnostics["nmax"] == N_MAX
    assert failure.value.diagnostics["tail_ratio"] > green_wire.NODE_TAIL_TOL


def test_wire_green_builds_exactly_one_table(default_geom, monkeypatch):
    # one probe call at N_MAX settles the order, and the one table is built
    # at that order: no table is rebuilt
    orders, probe_calls = [], []
    call = SpectralEvaluator.__call__

    def recorded(self, kz, which=0, **kwargs):
        if self.nmax == N_MAX:
            probe_calls.append(len(kz))
        return call(self, kz, which, **kwargs)

    class Recording(green_wire.WireSpectralTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            orders.append(self.nmax)

    monkeypatch.setattr(SpectralEvaluator, "__call__", recorded)
    monkeypatch.setattr(green_wire, "WireSpectralTable", Recording)
    g = wire_green(default_geom, (0.015, 0.0, 0.0), (0.015, 0.0, 0.5), REAL)
    assert g.converged and orders == [g.report.diagnostics["nmax"]]
    assert orders[0] < N_MAX and len(probe_calls) == 1


@pytest.mark.parametrize("f, dz", [(4.035, 1.5), (4.11, 1.5), (4.19, 1.5), (1.0, 0.0)])
def test_bisection_target_is_read_again(default_geom, monkeypatch, f, dz):
    # just above the surface-plasmon band, 1.5 apart, the integral read after
    # the tail blocks lies far above the refined one, so a target read once
    # stopped the table short of tol and these calls raised.  Read again
    # after the bisections, the target follows the integral down: each table
    # meets half of tol times its final integral at its own phase_ref
    tables = []

    class Recording(green_wire.WireSpectralTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append((self, kwargs["phase_ref"]))

    monkeypatch.setattr(green_wire, "WireSpectralTable", Recording)
    g = wire_green(default_geom, (0.015, 0.0, 0.0), (0.015, 0.0, dz),
                   SpectralPoint.real_axis(f * OMEGA_A), tol=1e-6)
    assert g.converged
    ((tab, phase_ref),) = tables
    scale = max(1.0, float(np.abs(tab.integrate(phase_ref)[0]).max()))
    assert tab.panels_ok
    assert tab.panel_err <= 0.5e-6 * scale * (1.0 + 1e-12)


def test_purcell_enhancement_and_regression(default_geom):
    g = wire_green(default_geom, (0.015, 0.0, 0.0), (0.015, 0.0, 0.0), REAL, tol=1e-6)
    purcell = 1.0 + 6.0 * np.pi / OMEGA_A * g.value[0, 0].imag
    assert purcell > 5.0
    # frozen regression value for the default geometry and material
    assert purcell == pytest.approx(317.0257617993, rel=1e-6)


def test_total_coincident_imaginary_part_positive(default_geom):
    # scattered part alone has no sign constraint; the total must be passive
    g = wire_green(default_geom, (0.015, 0.0, 0.0), (0.015, 0.0, 0.0), REAL, tol=1e-6)
    for i in range(3):
        total = green_vacuum_im_coincident(OMEGA_A) + g.value[i, i].imag
        assert total > 0.0


def test_report_attached(default_geom):
    g = wire_green(default_geom, (0.015, 0.0, 0.0), (0.015, 0.0, 1.0), REAL, tol=1e-6)
    assert g.converged
    assert g.report.nodes_used > 0
    assert g.report.abs_error_estimate >= 0.0


def _complex_ladders(ev, kz):
    """eta1, eta2 and the wall and outside inputs of ``_solve`` and the
    assembly in complex arithmetic: the evaluator's own ``_ladders`` on the
    real axis; on the imaginary axis, where the evaluator runs real I and K
    ladders, rebuilt from jh_orders, j_orders and h_orders as the complex
    ladders are formed (no node may lie below the clamp floor)."""
    if not ev.imaginary:
        return ev._ladders(kz)
    from wireqed.bessel import h_orders, j_orders, jh_orders
    a, K = ev.geom.radius, kz.size
    eta1 = 1j * np.sqrt(ev.k1[0].imag ** 2 + kz**2)
    eta2 = np.sqrt(ev.k2[0] ** 2 - kz.astype(complex) ** 2)
    assert np.all(eta2.imag > 0.0)
    assert np.all(np.abs(eta1) >= 1e-3 * max(abs(ev.k1[0]), 1.0))
    j, h, jp, hp = jh_orders(ev.nmax, eta1 * a)
    j2, j2p = j_orders(ev.nmax, eta2 * a)
    hr, hrp = h_orders(ev.nmax, np.concatenate([eta1 * ev.rho1, eta1 * ev.rho2]))
    m = np.maximum(np.abs(j), np.abs(jp))
    wall = (hp / h, j2p / j2, j / m, jp / m)
    return eta1, eta2, wall, (hr[:, :K] / h * m, hrp[:, :K] / h * m, hr[:, K:], hrp[:, K:])


# i^n, exactly, for integer n
_I_POW = np.array([1.0, 1j, -1.0, -1j])


def _reference_wall_solve(ev, kz_signed, eta1, eta2):
    """R_n H_n(eta1 rho1) and R_n H_n'(eta1 rho1) from the full 4x4
    tangential-continuity system, with J and H evaluated directly.

    The unknowns are H_n(eta1 a) (a_M, b_N) and the interior (c_M, d_N):
    R_n alone is subnormal at high order next to the light line.
    """
    a, k1, k2 = ev.geom.radius, ev.k1, ev.k2
    n = np.arange(ev.nmax + 1, dtype=float)[None, :]
    e1, e2 = eta1[:, None], eta2[:, None]
    cpl = n * np.asarray(kz_signed)[:, None]

    def ladder(fn, z):
        return fn(n, z), (fn(n - 1, z) - fn(n + 1, z)) / 2.0

    J1, J1p = ladder(special.jv, e1 * a)
    H1, H1p = ladder(special.hankel1, e1 * a)
    J2, J2p = ladder(special.jv, e2 * a)
    Hr, Hrp = ladder(special.hankel1, e1 * ev.rho1)
    A = np.zeros(J1.shape + (4, 4), complex)
    B = np.zeros(J1.shape + (4, 2), complex)
    # rows: E_z, H_z, E_phi, H_phi continuity; cols: (a_M, b_N, c_M, d_N)
    A[..., 0, 1] = e1**2 / k1 * H1
    A[..., 0, 3] = -(e2**2) / k2 * J2
    A[..., 1, 0] = e1**2 * H1
    A[..., 1, 2] = -(e2**2) * J2
    A[..., 2, 0] = -e1 * H1p
    A[..., 2, 1] = -cpl / (k1 * a) * H1
    A[..., 2, 2] = e2 * J2p
    A[..., 2, 3] = cpl / (k2 * a) * J2
    A[..., 3, 0] = -cpl / a * H1
    A[..., 3, 1] = -k1 * e1 * H1p
    A[..., 3, 2] = cpl / a * J2
    A[..., 3, 3] = k2 * e2 * J2p
    B[..., 0, 1] = -(e1**2) / k1 * J1
    B[..., 1, 0] = -(e1**2) * J1
    B[..., 2, 0] = e1 * J1p
    B[..., 2, 1] = cpl / (k1 * a) * J1
    B[..., 3, 0] = cpl / a * J1
    B[..., 3, 1] = k1 * e1 * J1p
    A[..., :2] /= H1[..., None, None]
    RH = np.linalg.solve(A, B)[..., :2, :]
    return (RH * (Hr / H1)[..., None, None], RH * (Hrp / H1)[..., None, None])


_KK_METAL = DrudeModel(eps_inf=1.0, omega_p=6.0 * OMEGA_A, gamma_p=0.12 * OMEGA_A)


@pytest.mark.parametrize("model, s, kz", [
    # H_38(eta1 a) ~ 1e152 next to the light line
    (DrudeModel(), REAL, [6.27819]),
    # J_n(eta2 a) ~ 1e76 and H_n(eta1 a) ~ 1e-79 deep in the evanescent tail
    (DrudeModel(), SpectralPoint.imaginary_axis(4.18 * OMEGA_A), [17871.0]),
    # |eta1| = 0.26, just outside the roundoff ring: R_40 is subnormal
    *[(_KK_METAL, SpectralPoint.real_axis(w), [np.sqrt(w**2 - 0.26**2)])
      for w in (0.91 * OMEGA_A, 1.06 * OMEGA_A, 1.28 * OMEGA_A)],
    # lossless metal above its plasma frequency: real eta2 below k2
    (DrudeModel(gamma_p=0.0), SpectralPoint.real_axis(8.0 * OMEGA_A), [0.5, 3.0, 20.0, 60.0]),
], ids=["branch_floor", "evanescent_tail", "kk_0.91", "kk_1.06", "kk_1.28", "lossless"])
def test_closed_form_wall_solve_matches_4x4(model, s, kz):
    ev = SpectralEvaluator(WireGeometry(radius=0.01, model=model), s, 0.015, 0.015, 0.0,
                           nmax=40)
    kz = np.asarray(kz, float)
    eta1, eta2, wall, (hr1, hr1p, _, _) = _complex_ladders(ev, kz)
    for sgn in (1.0, -1.0):
        ref = _reference_wall_solve(ev, sgn * kz, eta1, eta2)
        scaled = ev._solve(sgn * kz, eta1, eta2, wall)
        folded = [(scaled * hr1.T[..., None, None], scaled * hr1p.T[..., None, None])]
        if ev.imaginary:
            # the real path: _solve's r with its powers of i put back, and the
            # rho1-side K ladders with their phases (1 and -i) and the scale
            # exp(y1 rho2) that _ladders leaves out on the imaginary axis
            y1, y2, real_wall, (g1, g1p, _, _) = ev._ladders(kz)
            n = np.arange(ev.nmax + 1)
            phase = np.stack([np.stack([_I_POW[n % 4], _I_POW[(n - 1) % 4]], axis=-1),
                              np.stack([_I_POW[(n - 1) % 4], _I_POW[n % 4]], axis=-1)],
                             axis=-2)
            R = ev._solve(sgn * kz, y1, y2, real_wall) * phase
            unscale = np.exp(y1 * ev.rho2)[:, None, None, None]
            folded.append((R * g1.T[..., None, None] * unscale,
                           -1j * R * g1p.T[..., None, None] * unscale))
        for pair in folded:
            for got, want in zip(pair, ref):
                # per (node, order), relative to the largest of the four components
                scale = np.abs(want).max(axis=(2, 3))
                assert np.all(np.abs(got - want).max(axis=(2, 3)) <= 1e-10 * scale)


def test_evanescent_node_past_the_j_overflow(default_geom):
    # eta1 rho2 = 750i: J_0 there is inf but only H_n(eta1 rho) is used,
    # and H_0(750i) underflows to zero
    kappa = 30.0 * OMEGA_A
    ev = SpectralEvaluator(default_geom, SpectralPoint.imaginary_axis(kappa),
                           0.015, 0.021, 0.0, nmax=15)
    out = ev(np.array([np.sqrt((750.0 / 0.021) ** 2 - kappa**2)]))
    assert np.all(np.isfinite(out))


def _signed_order_reference(ev, kz):
    """The evaluator's tensor and order terms summed the long way: a wall
    solve at each kz sign and, for each sign, every signed order
    -nmax..nmax; the order terms are each +kz node's largest component of
    the n and -n terms summed, per |n|.  It runs in complex arithmetic on
    both axes (``_complex_ladders``)."""
    eta1, eta2, wall, (hr1, hr1p, hr2, hr2p) = _complex_ladders(ev, kz)
    Rp, Rm = ev._solve(kz, eta1, eta2, wall), ev._solve(-kz, eta1, eta2, wall)
    ns = np.arange(-ev.nmax, ev.nmax + 1)
    absn = np.abs(ns)
    refl = np.where((absn % 2 == 1) & (ns < 0), -1.0, 1.0)[:, None]
    phase = np.exp(1j * ns * ev.dphi)[:, None]
    H1, H1p, H2, H2p = (x[absn] * refl for x in (hr1, hr1p, hr2, hr2p))
    out = np.empty((kz.size, 2, 3, 3), complex)
    for side, (sgn, Rpos, Rother) in enumerate(((1.0, Rp, Rm), (-1.0, Rm, Rp))):
        kzs = sgn * kz[None, :]
        Rsel = np.where((ns < 0)[:, None, None, None],
                        Rother[:, absn].transpose(1, 0, 2, 3),
                        Rpos[:, absn].transpose(1, 0, 2, 3))
        nsk = ns[:, None]
        e1 = eta1[None, :]
        M1 = np.stack([1j * nsk / ev.rho1 * H1, -e1 * H1p, np.zeros_like(H1)])
        N1 = np.stack([1j * kzs * e1 * H1p / ev.k1, -nsk * kzs * H1 / (ev.k1 * ev.rho1),
                       e1**2 * H1 / ev.k1])
        Mt = np.stack([-1j * nsk / ev.rho2 * H2, -e1 * H2p, np.zeros_like(H2)])
        Nt = np.stack([-1j * kzs * e1 * H2p / ev.k1, -nsk * kzs * H2 / (ev.k1 * ev.rho2),
                       e1**2 * H2 / ev.k1])
        VM = Rsel[None, :, :, 0, 0] * M1 + Rsel[None, :, :, 1, 0] * N1
        VN = Rsel[None, :, :, 0, 1] * M1 + Rsel[None, :, :, 1, 1] * N1
        pref = (1j / (8.0 * np.pi)) * phase / e1**2
        Tn = (np.einsum("imk,jmk->mkij", VM, Mt)
              + np.einsum("imk,jmk->mkij", VN, Nt)) * pref[:, :, None, None]
        out[:, side] = Tn.sum(axis=0)
        if side == 0:
            folded = np.zeros((ev.nmax + 1,) + Tn.shape[1:], complex)
            np.add.at(folded, absn, Tn)
            sizes = np.abs(folded).max(axis=(2, 3)).T
    return out, sizes


_SCANS = {"real": (REAL, np.append(np.linspace(0.05, 6.0, 40), 1.0) * OMEGA_A),
          "imag": (IMAG, np.geomspace(0.05, 60.0, 40) * OMEGA_A)}


@pytest.mark.parametrize("axis", sorted(_SCANS))
def test_minus_kz_is_the_mirror_of_plus_kz(default_geom, axis):
    s, kz = _SCANS[axis]
    plus = wire_spectral_green(default_geom, 0.015, 0.03, 0.7, s, kz, nmax=20)
    minus = wire_spectral_green(default_geom, 0.015, 0.03, 0.7, s, -kz, nmax=20)
    np.testing.assert_array_equal(minus, _MIRROR * plus)


def _both_sides(T):
    """(K, 2, 3, 3) +kz and -kz spectra from the evaluator's +kz output."""
    return np.stack([T, _MIRROR * T], axis=1)


@pytest.mark.parametrize("nmax", [15, 40])
@pytest.mark.parametrize("axis", sorted(_SCANS))
@pytest.mark.parametrize("rho2, dphi", [(0.015, 0.0), (0.03, 0.7)])
def test_folded_orders_match_signed_order_sum(default_geom, axis, nmax, rho2, dphi):
    s, kz = _SCANS[axis]
    ev = SpectralEvaluator(default_geom, s, 0.015, rho2, dphi, nmax=nmax)
    T, sizes = ev(kz, orders=True)
    got = _both_sides(T)
    want, want_sizes = _signed_order_reference(ev, kz)
    # clamped nodes next to the branch point carry ~1e-3 roundoff of their own
    eta1 = np.abs(np.sqrt(complex(s.value) ** 2 - kz.astype(complex) ** 2))
    kept = eta1 >= 1e-3 * max(abs(s.value), 1.0)
    assert np.abs(got - want)[kept].max() <= 1e-12 * np.abs(want).max()
    np.testing.assert_allclose(sizes[kept], want_sizes[kept], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("axis", sorted(_SCANS))
def test_coplanar_points_have_no_cross_plane_components(default_geom, axis):
    s, kz = _SCANS[axis]
    out = SpectralEvaluator(default_geom, s, 0.015, 0.03, 0.0, nmax=20)(kz)
    for i, j in ((0, 1), (1, 0), (1, 2), (2, 1)):
        assert np.all(out[:, i, j] == 0.0)


@pytest.mark.parametrize("name, tol", [
    # |eta1| = 0.5 at 4.2 omega_A on the lossier metal, either side of the
    # branch point: the orders above 4 carry 17% of the tensor there
    ("kk_4.2_propagating", 1e-8), ("kk_4.2_evanescent", 1e-8),
    # kappa = 3.48e-4, kz = 4.74e-4: eta1 clamped to 1e-3 on +i
    ("imag_clamped", 1e-12),
], ids=["propagating", "evanescent", "imag_clamped"])
def test_branch_point_nodes_match_50_digit_signed_order_sum(name, tol):
    # tests/oracles/generate_ring_fixtures.py sums the signed orders
    # -nmax..nmax directly in mpmath at the evaluator's own inputs
    node = next(n for n in load_fixture("ring_reference.json")["nodes"] if n["name"] == name)
    model = DrudeModel(eps_inf=node["eps_inf"], omega_p=node["omega_p"],
                       gamma_p=node["gamma_p"])
    axis = (SpectralPoint.imaginary_axis if node["axis"] == "imaginary"
            else SpectralPoint.real_axis)
    ev = SpectralEvaluator(WireGeometry(radius=node["radius"], model=model),
                           axis(node["value"]), node["rho1"], node["rho2"], node["dphi"],
                           nmax=node["nmax"])
    kz = np.array([node["kz"]])
    eta1 = ev._ladders(kz)[0]
    assert ev.eps2[0] == complex(*node["eps2"])
    assert (1j * eta1 if ev.imaginary else eta1) == pytest.approx(complex(*node["eta1"]),
                                                                  rel=1e-15)
    want = np.array(node["t_re"]) + 1j * np.array(node["t_im"])
    assert np.abs(ev(kz)[0] - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("s, kz", [
    (REAL, np.array([0.3, 1.0, 2.5, 20.0]) * OMEGA_A),
    (IMAG, np.array([0.0, 0.5, 1.0, 4.0, 60.0]) * OMEGA_A),
    # kz = k sits on the branch point, where eta1 is clamped to the floor
    (REAL, np.array([OMEGA_A])),
], ids=["real", "imag", "branch_floor"])
def test_ladders_match_one_call_at_both_surface_arguments(default_geom, s, kz):
    # the J and H ladders at eta1 a and the J ladder at eta2 a, bit for bit as
    # the slices of one jh_orders call on the concatenated surface arguments;
    # on the imaginary axis the I and K ladders, bit for bit as the slices of
    # one ive_orders and one kve_orders call
    from wireqed.bessel import h_orders, ive_orders, jh_orders, kve_orders
    ev = SpectralEvaluator(default_geom, s, 0.015, 0.03, 0.7, nmax=40)
    eta1, eta2, wall, outside = ev._ladders(kz)
    a, K = default_geom.radius, kz.size
    if ev.imaginary:
        i, ip = ive_orders(ev.nmax, np.concatenate([eta1 * a, eta2 * a]))
        k, kp = kve_orders(ev.nmax, np.concatenate([eta1 * a, eta1 * 0.015, eta1 * 0.03]))
        m = np.maximum(i[:, :K], ip[:, :K])
        want = (kp[:, :K] / k[:, :K], ip[:, K:] / i[:, K:], i[:, :K] / m, ip[:, :K] / m)
        decay = np.exp(-eta1 * (0.015 + 0.03 - 2.0 * a))
        want_out = (k[:, K:2 * K] / k[:, :K] * m * decay, kp[:, K:2 * K] / k[:, :K] * m * decay,
                    k[:, 2 * K:], kp[:, 2 * K:])
    else:
        j, h, jp, hp = jh_orders(ev.nmax, np.concatenate([eta1 * a, eta2 * a]))
        m = np.maximum(np.abs(j[:, :K]), np.abs(jp[:, :K]))
        want = (hp[:, :K] / h[:, :K], jp[:, K:] / j[:, K:], j[:, :K] / m, jp[:, :K] / m)
        hr, hrp = h_orders(ev.nmax, np.concatenate([eta1 * 0.015, eta1 * 0.03]))
        want_out = (hr[:, :K] / h[:, :K] * m, hrp[:, :K] / h[:, :K] * m, hr[:, K:],
                    hrp[:, K:])
    for got, ref in zip(wall + outside, want + want_out):
        np.testing.assert_array_equal(got, ref)


def test_modified_ladders_are_the_complex_ladders_without_their_phases(default_geom):
    # each real input of the imaginary-axis path times the power of i that
    # _ladders names there (and its exponential scale) is the complex one
    # built from jh_orders, j_orders and h_orders
    kz = np.array([0.0, 0.5, 1.0, 4.0, 60.0]) * OMEGA_A
    ev = SpectralEvaluator(default_geom, IMAG, 0.015, 0.03, 0.7, nmax=40)
    y1, _, (uK, uI, p, pp), (g1, g1p, k2, k2p) = ev._ladders(kz)
    _, _, wall, outside = _complex_ladders(ev, kz)
    n = np.arange(ev.nmax + 1)[:, None]
    up, down = np.exp(y1 * 0.03), np.exp(-y1 * 0.03)
    real_forms = (-1j * uK, -1j * uI, _I_POW[n % 4] * p, _I_POW[(n - 1) % 4] * pp,
                  g1 * up, -1j * g1p * up, 2.0 / np.pi * _I_POW[(-n - 1) % 4] * k2 * down,
                  -2.0 / np.pi * _I_POW[-n % 4] * k2p * down)
    for got, want in zip(real_forms, wall + outside):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_multi_frequency_evaluator_matches_one_frequency_evaluators(default_geom):
    # one call over nodes of several imaginary frequencies, interleaved,
    # against one evaluator per frequency on that frequency's nodes
    kappas = [1e-3, 0.4, OMEGA_A, 40.0]
    points = [SpectralPoint.imaginary_axis(k) for k in kappas]
    rng = np.random.default_rng(3)
    kz = np.concatenate([[0.0, k] for k in kappas] + [rng.uniform(0.0, 400.0, 60)])
    which = np.concatenate([[i, i] for i in range(len(kappas))]
                           + [rng.integers(0, len(kappas), 60)])
    multi = SpectralEvaluator(default_geom, points, 0.015, 0.03, 0.7, nmax=40)
    got, sizes = multi(kz, which, orders=True)
    for i, p in enumerate(points):
        one = SpectralEvaluator(default_geom, p, 0.015, 0.03, 0.7, nmax=40)
        want, want_sizes = one(kz[which == i], orders=True)
        assert np.abs(got[which == i] - want).max() <= 1e-14 * np.abs(want).max()
        # the order terms never pass through a sum over nodes or orders
        np.testing.assert_array_equal(sizes[which == i], want_sizes)


def test_evaluator_points_share_one_axis(default_geom):
    with pytest.raises(DomainError):
        SpectralEvaluator(default_geom, [REAL, IMAG], 0.015, 0.015, 0.0, nmax=15)


def _t_panel_kappas(a, b):
    from wireqed.quadrature import _GL_X, t_substitution
    return t_substitution(0.5 * (b + a) + 0.5 * (b - a) * _GL_X, OMEGA_A)[0]


@pytest.mark.parametrize("rho2, dphi", [(0.015, 0.0), (0.015, 0.7), (0.03, 0.0), (0.03, 0.7)])
def test_real_imaginary_axis_path_matches_complex_reference(default_geom, rho2, dphi):
    # the 16 kappa of the first and the last t panel of the default shift
    # integral; the first kz nodes lie in the branch ring of the small kappa
    kz = np.concatenate([np.geomspace(2e-3, 0.03, 6), np.geomspace(0.05, 1e4, 30)])
    for kappa in np.concatenate([_t_panel_kappas(0.0, 2e-3), _t_panel_kappas(0.93, 0.99)]):
        ev = SpectralEvaluator(default_geom, SpectralPoint.imaginary_axis(kappa), 0.015,
                               rho2, dphi, nmax=40)
        got, sizes = ev(kz, orders=True)
        want, want_sizes = _signed_order_reference(ev, kz)
        assert np.abs(_both_sides(got) - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(sizes, want_sizes, rtol=1e-10,
                                   atol=1e-14 * np.abs(want).max())
        # the real path sets the parts the imaginary axis rules out to zero
        assert np.all(np.where(_MIRROR > 0, got.imag, got.real) == 0.0)


_GEOMETRIES = pytest.mark.parametrize("rho, metal", [
    (0.015, DrudeModel()), (0.03, DrudeModel()), (0.015, _KK_METAL)],
    ids=["default", "dense", "kk_metal"])


def _imaginary(kappas):
    return [SpectralPoint.imaginary_axis(k) for k in kappas]


def _seed_t_panels(rho):
    """(kappas, weights) of the first, a middle and the last seed t panel of
    the pair's shift integral, each node weighted as the pair engine weights
    it: its substitution weight times its weight in the t rule."""
    from wireqed.quadrature import _GL_W, _panel_nodes, t_substitution
    kap_cut = max(6.0 * OMEGA_A, 20.0 / (2.0 * (rho - 0.01)))
    for a, b in ((0.0, 0.1), (0.35, 0.65), (0.9, kap_cut / (OMEGA_A + kap_cut))):
        kappas, weights = t_substitution(_panel_nodes(a, b), OMEGA_A)
        yield kappas, 0.5 * (b - a) * _GL_W * weights


@_GEOMETRIES
def test_shared_set_matches_tables_built_alone(monkeypatch, rho, metal):
    # a t panel's one kz panel set against its 16 tables built alone at the
    # set's order, weighted the same way: the alone tables are built at tol
    # 1e-9, so the weighted sum moves by the set's own kz error, which must
    # bound it.  Each evaluator call of the set carries every node's 16
    # frequencies and at most as many nodes as a one-spectrum call.  The
    # steps evaluate ahead and drop what the set does not keep: at most the
    # BLOCKS_AHEAD - 1 tail blocks past the last one kept, and the two parts
    # of panels never split, each of which is still in the set
    from wireqed.green_wire import WireSpectralTable
    from wireqed.quadrature import BLOCKS_AHEAD, NODE_CAP
    geom = WireGeometry(radius=0.01, model=metal)
    calls = []
    call = SpectralEvaluator.__call__

    def recorded(self, kz, which=0, **kwargs):
        calls.append((len(kz), kwargs.get("orders", False)))
        return call(self, kz, which, **kwargs)

    monkeypatch.setattr(SpectralEvaluator, "__call__", recorded)
    margins = []
    for kappas, weights in _seed_t_panels(rho):
        calls.clear()
        shared = WireSpectralTable(geom, _imaginary(kappas), rho, rho, 0.0, weights=weights,
                                   tol=1e-6, budget=30000)
        built = [size for size, probe in calls if not probe]
        dropped = 16 * (BLOCKS_AHEAD - 1) + 32 * len(shared.halves)
        assert 16 * shared.nodes_used <= sum(built) <= 16 * (shared.nodes_used + dropped)
        assert max(built) <= NODE_CAP * 41 // (shared.nmax + 1)
        assert shared.panels_ok and shared.coefs.shape[1:] == (16, 16 * 9)
        alone = [WireSpectralTable(geom, SpectralPoint.imaginary_axis(k), rho, rho, 0.0,
                                   nmax=shared.nmax, tol=1e-9, budget=30000)
                 for k in kappas]
        assert all(tab.panels_ok for tab in alone)
        kz_err = shared.panel_err + shared.tail_bound
        for dz in (0.0, 0.5, 2.0):
            want = sum(w * tab.integrate(dz)[0] for w, tab in zip(weights, alone))
            moved = np.abs(shared.integrate(dz)[0] - want).max()
            margins.append(kz_err / max(moved, 1e-300))
    print(f"smallest kz error / change against the tables built alone: {min(margins):.3g}")
    assert min(margins) >= 1.0


@_GEOMETRIES
def test_azimuthal_error_bounds_the_change_at_n_max(rho, metal):
    # every table at its predicted order against a rebuild at N_MAX: its
    # integral, at each separation, moves by at most the azimuthal error it
    # reports.  Real axis: the pair's table at omega_A.  Imaginary axis: the
    # shared kz panel sets of the first, a middle and the last seed t panel
    # of the pair's shift integral, each settled as the pair engine settles it
    from wireqed.green_wire import WireSpectralTable
    geom = WireGeometry(radius=0.01, model=metal)
    pairs = [(WireSpectralTable(geom, REAL, rho, rho, 0.0, tol=1e-6),
              WireSpectralTable(geom, REAL, rho, rho, 0.0, tol=1e-6, nmax=N_MAX))]
    for kappas, weights in _seed_t_panels(rho):
        args = (geom, _imaginary(kappas), rho, rho, 0.0)
        pairs.append((WireSpectralTable(*args, weights=weights, tol=1e-6, budget=30000),
                      WireSpectralTable(*args, weights=weights, tol=1e-6, budget=30000,
                                        nmax=N_MAX)))
    margins = []
    for low, high in pairs:
        assert low.nmax < N_MAX
        for dz in (0.0, 0.5, 2.0):
            moved = np.abs(low.integrate(dz)[0] - high.integrate(dz)[0]).max()
            margins.append(low.azimuthal_err / max(moved, 1e-300))
    print(f"smallest azimuthal error / change at N_MAX: {min(margins):.3g}")
    assert min(margins) >= 1.0


def _one_panel_per_step(fpanel, window, *, tol, mirror=None, budget=20000, phase=0.0,
                        orders=41):
    """``build_spectral_panels`` by the rule of one panel per step, every
    panel evaluated by a direct call of fpanel on its own nodes: the seed
    panels, one tail block at a time until the blocks stop, then one split
    of the worst panel at a time toward half of tol times the integral,
    read again after each round of splits while it falls.  The shape comes
    from the window: without a branch point, a block from k ends at
    max(1.6 k, k + 2 / gap) and a split of a panel from 0 cuts it at a
    quarter of its width; with one, a block ends at 1.6 k and a split
    bisects."""
    import math
    from wireqed.quadrature import PanelSet, _panel_nodes, _records, _seed_breaks
    k_start, _, branch_point, gap = window
    graded = branch_point is None
    min_width = 2.0 / gap if graded else 0.0
    ps = PanelSet(fpanel, budget, mirror, phase)

    def add(a, b):
        vals = np.reshape(fpanel(_panel_nodes(a, b)), (1, 16, -1))
        return ps.append(_records([(a, b)], vals)[0])

    def target():
        return 0.5 * tol * max(1.0, float(np.abs(ps.integral()).max()))

    breaks = _seed_breaks(window)
    for a, b in zip(breaks[:-1], breaks[1:]):
        add(a, b)
    k_end = k_start + 200.0 / gap
    k, mags, tail_bound = float(k_start), [], math.inf
    while min(max(1.6 * k, k + min_width), k_end) > k * 1.0000001:
        k2 = min(max(1.6 * k, k + min_width), k_end)
        rec = add(k, k2)
        scale = max(1.0, float(np.abs(ps.integral()).max()))
        mags.append(max(float(np.abs(rec[5]).max()), 1e-300))
        k = k2
        tail_bound = mags[-1]
        if len(mags) >= 2:
            q = min(max(mags[-1] / max(mags[-2], 1e-300), 0.05), 0.9)
            tail_bound = mags[-1] * q / (1.0 - q)
        tail_bound = min(tail_bound, rec[4] / gap)
        if ((tail_bound < 0.25 * tol * scale and len(mags) >= 2)
                or k >= k_end or ps.nodes_used > 0.8 * budget):
            break
    met, goal, ok = math.inf, target(), True
    while ok and goal < met:
        if ps.err <= goal:
            met, goal = goal, target()
            continue
        worst = max(range(len(ps.panels)), key=lambda i: ps.panels[i][3])
        a, b = ps.panels[worst][0], ps.panels[worst][1]
        ok = ps.nodes_used + 32 <= budget and b - a >= 1e-14 * max(1.0, abs(a))
        if ok:
            del ps.panels[worst]
            m = a + (0.25 if a == 0.0 else 0.5) * (b - a) if graded else 0.5 * (a + b)
            add(a, m)
            add(m, b)
    return ps, tail_bound, ok


def _kk_table(f, tol, **kwargs):
    geom = WireGeometry(radius=0.01, model=_KK_METAL)
    return green_wire.WireSpectralTable(geom, SpectralPoint.real_axis(f * OMEGA_A), 0.015,
                                        0.015, 0.0, tol=tol, **kwargs)


def _shared_set():
    kappas, weights = list(_seed_t_panels(0.015))[1]
    return green_wire.WireSpectralTable(WireGeometry(radius=0.01, model=DrudeModel()),
                                        _imaginary(kappas), 0.015, 0.015, 0.0, weights=weights,
                                        tol=1e-6, budget=30000)


_LOOK_AHEAD_CASES = {
    **{f"kk_{f}_{tol:g}": (lambda f=f, tol=tol: _kk_table(f, tol, budget=160000))
       for f in (0.5, 4.2, 8.0, 60.0) for tol in (1e-6, 1e-8)},
    "default_4.035_phase_ref_1.5": lambda: green_wire.WireSpectralTable(
        WireGeometry(radius=0.01, model=DrudeModel()),
        SpectralPoint.real_axis(4.035 * OMEGA_A), 0.015, 0.015, 0.0, tol=1e-6,
        phase_ref=1.5),
    "shared_kappa_set": _shared_set,
    "out_of_budget": lambda: _kk_table(4.2, 1e-8, budget=1000),
}


@pytest.mark.parametrize("case", list(_LOOK_AHEAD_CASES))
def test_look_ahead_tables_match_one_panel_per_step(monkeypatch, case):
    # the steps evaluate panels ahead and keep only those that one panel per
    # step adds, so every frozen field of the table is the same, bit for bit
    got = _LOOK_AHEAD_CASES[case]()
    monkeypatch.setattr(green_wire, "build_spectral_panels", _one_panel_per_step)
    want = _LOOK_AHEAD_CASES[case]()
    assert want.panels_ok == (case != "out_of_budget")
    for name in ("halves", "mids", "coefs", "panel_err", "tail_bound", "panels_ok",
                 "nodes_used"):
        g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


class _Captured(Exception):
    """Carries the panel function that a table build hands its builder."""


def _captured_panel_function(monkeypatch, geom, point, **kwargs):
    """The function of kz nodes that ``WireSpectralTable`` hands
    ``build_spectral_panels``, captured before any panel is built."""
    def capture(fpanel, *_, **__):
        raise _Captured(fpanel)

    monkeypatch.setattr(green_wire, "build_spectral_panels", capture)
    with pytest.raises(_Captured) as got:
        green_wire.WireSpectralTable(geom, point, 0.015, 0.015, 0.0, tol=1e-6, **kwargs)
    monkeypatch.undo()
    return got.value.args[0]


@pytest.mark.parametrize("s", [0.5, 4.2, 50.0, "imaginary"])
def test_nodes_and_panels_take_the_same_bits_in_any_batch(default_geom, monkeypatch, s):
    # the look-ahead rests on this: a node's tensor and a panel's record do
    # not depend on the call that carries them.  96 nodes on six panels
    # around the branch point, in one call, in calls of 16 and one by one;
    # on the imaginary axis every node at three frequencies (``which``).  A
    # one-frequency table rests on it too: its nodes go through the weighted
    # path of a shared set (``which`` as an array, each value times its
    # weight 1.0), which must give a direct call's bits
    from wireqed.quadrature import _panel_nodes, _records
    breaks = np.array([0.0, 0.5, 0.95, 1.05, 2.0, 8.0, 40.0])
    if s == "imaginary":
        geom, point = default_geom, SpectralPoint.imaginary_axis(OMEGA_A)
        points = [SpectralPoint.imaginary_axis(k * OMEGA_A) for k in (0.3, 1.0, 5.0)]
        ev = SpectralEvaluator(geom, points, 0.015, 0.015, 0.0, nmax=24)
        scale = OMEGA_A
    else:
        geom, point = WireGeometry(radius=0.01, model=_KK_METAL), SpectralPoint.real_axis(
            s * OMEGA_A)
        ev = SpectralEvaluator(geom, point, 0.015, 0.015, 0.0, nmax=24)
        scale = s * OMEGA_A
    panels = list(zip(scale * breaks[:-1], scale * breaks[1:]))
    kz = np.concatenate([_panel_nodes(a, b) for a, b in panels])
    which = np.arange(kz.size) % len(ev.k1)
    whole = ev(kz, which)
    for size in (16, 1):
        parts = np.concatenate([ev(kz[c:c + size], which[c:c + size])
                                for c in range(0, kz.size, size)])
        assert parts.tobytes() == whole.tobytes(), size
    weighted = _captured_panel_function(monkeypatch, geom, point, nmax=24)
    direct = SpectralEvaluator(geom, point, 0.015, 0.015, 0.0, nmax=24)(kz)
    assert weighted(kz).tobytes() == direct.tobytes()
    vals = whole.reshape(len(panels), 16, 9)
    together = _records(panels, vals)
    for i, panel in enumerate(panels):
        (alone,) = _records([panel], vals[i:i + 1])
        for g, w in zip(together[i][2:5], alone[2:5]):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_spectrum_anchors_take_few_evaluator_calls(monkeypatch):
    # one step evaluates the panels that several steps of one panel would
    # add: the four anchors of the benchmark's spectrum take 41 evaluator
    # calls, probes included, and took 82 with one tail block or one split
    # per step
    geom = WireGeometry(radius=0.01, model=_KK_METAL)
    calls = []
    call = SpectralEvaluator.__call__

    def counted(self, kz, which=0, **kwargs):
        calls.append(len(kz))
        return call(self, kz, which, **kwargs)

    monkeypatch.setattr(SpectralEvaluator, "__call__", counted)
    p = (0.015, 0.0, 0.0)
    for f in (0.5, 1.0, 4.2, 8.0):
        assert wire_green(geom, p, p, SpectralPoint.real_axis(f * OMEGA_A), tol=1e-6,
                          budget=160000).converged
    print(f"evaluator calls at the four anchors: {len(calls)}, nodes {sum(calls)}")
    assert len(calls) <= 45


def _coincident(model, f):
    p = (0.015, 0.0, 0.0)
    return lambda: wire_green(WireGeometry(radius=0.01, model=model), p, p,
                              SpectralPoint.real_axis(f * OMEGA_A), tol=1e-6, budget=160000)


_PINNED_CALLS = {
    "kk_0.5": (_coincident(_KK_METAL, 0.5), (5, 368)),
    "kk_4.2": (_coincident(_KK_METAL, 4.2), (8, 496)),
    "kk_8.0": (_coincident(_KK_METAL, 8.0), (17, 1088)),
    "default_1.0": (_coincident(DrudeModel(), 1.0), (10, 704)),
    "shared_kappa_set": (lambda: green_wire.WireSpectralTable(
        WireGeometry(radius=0.01, model=DrudeModel()), _imaginary([0.5 * OMEGA_A, 2.0 * OMEGA_A]),
        0.015, 0.015, 0.0, weights=[0.5, 0.25], tol=1e-6, budget=30000), (4, 288)),
}


@pytest.mark.parametrize("case", list(_PINNED_CALLS))
def test_look_ahead_evaluator_calls_are_pinned(monkeypatch, case):
    # the bits of a table do not show how many evaluator calls built it, and
    # those calls are what the look-ahead saves: the calls and nodes of each
    # build, the order probe left out, are pinned; one panel per call makes
    # many more calls on the same nodes
    build, want = _PINNED_CALLS[case]
    calls = []
    call = SpectralEvaluator.__call__

    def counted(self, kz, which=0, orders=False):
        if not orders:
            calls.append(len(kz))
        return call(self, kz, which, orders)

    monkeypatch.setattr(SpectralEvaluator, "__call__", counted)
    build()
    print(f"{case}: {len(calls)} evaluator calls, {sum(calls)} nodes")
    assert (len(calls), sum(calls)) == want


def _direct_table(geom, point, rho1, rho2, dphi, *, tol, nmax=None, budget=60000,
                  phase_ref=0.0):
    """The frozen fields of a one-frequency table built directly on its
    evaluator, with no weights and no ``which``, by the rule of one panel
    per step with the shape it reads from the window itself: the reference
    that the one-point case of ``WireSpectralTable`` must match.  On the
    imaginary axis its splits from kz = 0 are cut at a quarter of the panel
    and its tail blocks are at least two decay lengths wide."""
    window = green_wire._k_window(geom, point, rho1, rho2)
    nmax, (tail,), _ = green_wire.settle_azimuthal_order(
        geom, point, rho1, rho2, dphi, tol=tol, nmax=nmax, dz=phase_ref, windows=[window])
    k_start = window[0]
    evaluator = SpectralEvaluator(geom, point, rho1, rho2, dphi, nmax=nmax)
    ps, tail_bound, ok = _one_panel_per_step(evaluator, window, tol=tol, mirror=_MIRROR.ravel(),
                                             budget=budget, phase=phase_ref, orders=nmax + 1)
    halves, mids, coefs = ps._freeze()
    return {"halves": halves, "mids": mids, "coefs": coefs, "panel_err": ps.err,
            "tail_bound": float(tail_bound), "panels_ok": bool(ok),
            "nodes_used": ps.nodes_used, "nmax": nmax, "azimuthal_err": float(tail),
            "k_start": k_start}


_ONE_POINT_CASES = {
    "default_1.0_1e-6": (DrudeModel(), REAL, {"tol": 1e-6}),
    "default_1.0_1e-8": (DrudeModel(), REAL, {"tol": 1e-8}),
    "default_4.035_phase_ref_1.5": (DrudeModel(), SpectralPoint.real_axis(4.035 * OMEGA_A),
                                    {"tol": 1e-6, "phase_ref": 1.5}),
    "kk_0.5": (_KK_METAL, SpectralPoint.real_axis(0.5 * OMEGA_A),
               {"tol": 1e-6, "budget": 160000}),
    "kk_4.2": (_KK_METAL, SpectralPoint.real_axis(4.2 * OMEGA_A),
               {"tol": 1e-6, "budget": 160000}),
    "imaginary_1.0": (DrudeModel(), IMAG, {"tol": 1e-6}),
}


@pytest.mark.parametrize("case", list(_ONE_POINT_CASES))
def test_one_point_table_matches_a_direct_build(case):
    # a one-frequency table is the one-point, weight-1 case of the shared
    # sets' builder; every frozen field is that of a table built directly on
    # its evaluator, bit for bit
    metal, point, kwargs = _ONE_POINT_CASES[case]
    geom = WireGeometry(radius=0.01, model=metal)
    got = green_wire.WireSpectralTable(geom, point, 0.015, 0.015, 0.0, **kwargs)
    want = _direct_table(geom, point, 0.015, 0.015, 0.0, **kwargs)
    assert isinstance(got, green_wire.FrozenSpectralTable)
    for name, w in want.items():
        g, w = np.asarray(getattr(got, name)), np.asarray(w)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
    assert got.integrate(0.7)[1] == got.panel_err + got.tail_bound + got.azimuthal_err
