import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from wireqed import (ConvergenceError, DomainError, OMEGA_A, imag_axis_integrate,
                     kk_check, pv_shift_oracle)
from wireqed import quadrature
from wireqed.quadrature import (KZ_GRADE, T_SEEDS, PanelSet, _panel_nodes, _plain, _records,
                                _seed_breaks, build_spectral_panels, imag_axis_panels,
                                moments_for, panel_terms, t_substitution)
from wireqed.validate import (EQUIVALENCE_MODELS, ResonanceModel, pv_shift,
                              rotated_shift)

from conftest import load_fixture


def test_moments_match_spherical_bessel():
    # both recurrences and the direct range against scipy at every order,
    # across the cutoffs at |c| = 1e-3, 1 and 16 and for both signs of c
    grid = np.geomspace(1e-3, 1e3, 601)
    c = np.concatenate([[0.0, 1e-12, -1e-12, 1e-4, -1e-4], grid, -grid])
    k = np.arange(16)[:, None]
    ref = 2.0 * 1j ** k * special.spherical_jn(k, c[None, :])
    assert np.abs(moments_for(c) - ref).max() <= 1e-13


def _moments_ref(c):
    k = np.arange(16)[:, None]
    return 2.0 * 1j ** k * special.spherical_jn(k, np.asarray(c, float)[None, :])


@pytest.mark.parametrize("c", [
    *(n * math.pi for n in range(1, 6)),      # zeros of j_0: the j_1 normalisation
    1.0 - 1e-12, 1.0 + 1e-12,
    16.0 - 1e-12, 16.0 + 1e-12,               # Miller recurrence / upward ladder
    1e-3 - 1e-15, 1e-3 + 1e-15,               # series / Miller recurrence
])
def test_moments_at_ladder_switches(c):
    c = np.array([c, -c])
    assert np.abs(moments_for(c) - _moments_ref(c)).max() <= 1e-13


@settings(max_examples=200, deadline=None)
@given(c=st.floats(min_value=1e-3, max_value=16.0, exclude_min=True, exclude_max=True))
def test_moments_in_the_miller_range(c):
    # one point at a time, so the recurrence starts at order 28 + ceil(c)
    c = np.array([c, -c])
    assert np.abs(moments_for(c) - _moments_ref(c)).max() <= 1e-13


def test_moments_call_no_special_function(monkeypatch):
    # the series, Miller and upward ladders are numpy arithmetic only
    grid = np.geomspace(1e-300, 16.0, 2001)[:-1]
    c = np.concatenate([grid, -grid])
    want = _moments_ref(c)

    def refuse(*args):
        raise AssertionError("spherical_jn called")

    monkeypatch.setattr(special, "spherical_jn", refuse)
    assert np.abs(moments_for(c) - want).max() <= 1e-13


def test_moments_at_zero_phase_call_no_special_function(monkeypatch):
    # j_k(0) = delta_k0 exactly, as scipy returns it
    k = np.arange(16)[:, None]
    want = 2.0 * 1j ** k * special.spherical_jn(k, np.zeros((1, 3)))
    assert np.array_equal(want, 2.0 * (k == 0) * np.ones(3))

    def refuse(*args):
        raise AssertionError("spherical_jn called at c = 0")

    monkeypatch.setattr(special, "spherical_jn", refuse)
    np.testing.assert_array_equal(moments_for(np.zeros(3)), want)


def _record(f, a, b):
    """The PanelSet record of panel [a, b] from a direct call of f on its
    own nodes."""
    return _records([(a, b)], np.reshape(f(_panel_nodes(a, b)), (1, 16, -1)))[0]


def _built_by_hand(f, breaks, target, budget, split=None):
    """(value, error, nodes, flag) of a PanelSet filled panel by panel with
    direct calls of f: the seed panels, then one split of the worst panel at
    a time toward ``target``, read again after each round of splits while
    it falls."""
    ps = PanelSet(budget)
    for a, b in zip(breaks[:-1], breaks[1:]):
        ps.append(_record(f, a, b))
    split = split or (lambda a, b: 0.5 * (a + b))
    met, goal, ok = math.inf, target(ps), True
    while ok and goal < met:
        if ps.err <= goal:
            met, goal = goal, target(ps)
            continue
        worst = max(range(len(ps.panels)), key=lambda i: ps.panels[i][3])
        a, b = ps.panels[worst][0], ps.panels[worst][1]
        ok = ps.nodes_used + 32 <= budget and b - a >= 1e-14 * max(1.0, abs(a))
        if ok:
            del ps.panels[worst]
            m = split(a, b)
            ps.append(_record(f, a, m))
            ps.append(_record(f, m, b))
    return float(np.real(ps.integral()[0])), ps.err, ps.nodes_used, ok


ONE_SIDED_CASES = {
    # a low-lying resonance, so both integrals need bisections
    "resonance": ResonanceModel((1.0,), (0.05,), (0.01,)).imag_axis,
    "vectorized": lambda k: np.exp(-0.2 * k) * np.cos(3.0 * k) / (1.0 + k * k),
}


@pytest.mark.parametrize("name", ONE_SIDED_CASES)
@pytest.mark.parametrize("budget", [60000, 64])
def test_plain_matches_panels_built_by_hand(name, budget):
    f = ONE_SIDED_CASES[name]
    breaks, tol_abs = [0.0, 1.0, 4.0, 10.0], 1e-12
    got = _plain(f, breaks, tol_abs, budget)
    assert got == _built_by_hand(f, breaks, lambda ps: tol_abs, budget)
    # 64 nodes leave no room for a bisection after the 48 seed nodes
    assert got[3] is (budget > 64)
    assert got[2] == 48 if budget == 64 else got[2] > 48


@pytest.mark.parametrize("name", ONE_SIDED_CASES)
def test_imag_axis_integrate_matches_panels_built_by_hand(name):
    g, wa, tol = ONE_SIDED_CASES[name], 3.3, 1e-10

    def integrand(t):
        kap, w = t_substitution(t, wa)
        return w * g(kap)

    breaks = [*T_SEEDS, 1.0]
    value, err, nodes, ok = _built_by_hand(
        integrand, breaks,
        lambda ps: 0.5 * tol * max(1.0, float(np.abs(ps.integral()).max())), 20000,
        lambda a, b: a + (0.125 if a == 0.0 else 0.5) * (b - a))
    rep = imag_axis_integrate(g, wa, tol=tol)
    assert nodes > 16 * (len(breaks) - 1)
    assert (rep.value, rep.abs_error_estimate, rep.nodes_used, rep.converged) == (
        value, err, nodes, ok and err <= tol * max(1.0, abs(value)))


@pytest.mark.parametrize("integrate", ["plain", "imag_axis"])
def test_one_sided_sets_call_f_once_per_step(integrate, monkeypatch):
    # one call of f on the seed panels' nodes, then one per split on its two
    # parts' nodes, 16 per panel: a build that evaluated panel by panel would
    # keep every value and multiply the calls
    added, calls = [], []
    append = PanelSet.append

    def record(self, rec):
        added.append((rec[0], rec[1]))
        return append(self, rec)

    def counted(x):
        calls.append(np.array(x))
        return ONE_SIDED_CASES["resonance"](x)

    monkeypatch.setattr(PanelSet, "append", record)
    if integrate == "plain":
        breaks, to_x = [0.0, 1.0, 4.0, 10.0], lambda t: t
        _plain(counted, breaks, 1e-12, 60000)
    else:
        breaks, to_x = [*T_SEEDS, 1.0], lambda t: t_substitution(t, 3.3)[0]
        imag_axis_integrate(counted, 3.3, tol=1e-10)
    steps = [len(breaks) - 1] + [2] * ((len(added) - len(breaks) + 1) // 2)
    assert len(steps) > 1 and sum(steps) == len(added)
    assert [x.size for x in calls] == [16 * n for n in steps]
    ends = np.cumsum([0, *steps])
    for x, lo, hi in zip(calls, ends[:-1], ends[1:]):
        assert np.array_equal(x, to_x(np.concatenate([_panel_nodes(a, b)
                                                      for a, b in added[lo:hi]])))


def test_t_rule_grades_its_static_end(monkeypatch):
    # after the seed panels every step adds the two parts of one split: a
    # panel from t = 0 cut at 1/8 of its width, any other at its midpoint;
    # sqrt(t) needs the graded splits and the narrow peak at t = 0.5 plain ones
    added = []
    append = PanelSet.append

    def record(self, rec):
        added.append((rec[0], rec[1]))
        return append(self, rec)

    monkeypatch.setattr(PanelSet, "append", record)
    ps, ok = imag_axis_panels(lambda t: np.sqrt(t) + 1.0 / (1.0 + ((t - 0.5) / 0.01) ** 2),
                              1e-10, 0.99, 20000)
    seeds = [*T_SEEDS, 0.99]
    assert ok and added[:len(seeds) - 1] == list(zip(seeds[:-1], seeds[1:]))
    splits = added[len(seeds) - 1:]
    fractions = []
    for (a, m), (m2, b) in zip(splits[::2], splits[1::2]):
        assert m2 == m
        fractions.append((m - a) / (b - a))
        assert fractions[-1] == pytest.approx(0.125 if a == 0.0 else 0.5, abs=1e-13)
    assert {round(f, 3) for f in fractions} == {0.125, 0.5}
    # the graded splits nest toward t = 0: [0, 0.1] -> [0, 0.0125] -> ...
    ends = [b for (a, _), (_, b) in zip(splits[::2], splits[1::2]) if a == 0.0]
    assert ends == pytest.approx([0.1 * 0.125**k for k in range(len(ends))], rel=1e-13)
    assert len(ends) >= 3 and ps.nodes_used == 16 * len(added)


_FOUR = (0.0, 0.1, 0.35, 0.65)


@pytest.mark.parametrize("t_cut, seeds", [
    (0.88, _FOUR),                      # below the last seed
    (0.905, _FOUR),                     # 0.9 would leave a 0.005 panel
    (0.96, _FOUR),                      # 0.06 < 0.25 * 0.25
    (0.97, (*_FOUR, 0.9)),              # 0.07 >= 0.25 * 0.25
    (0.9968682460416387, (*_FOUR, 0.9)),   # the default sweep's cut
    (1.0, (*_FOUR, 0.9)),               # imag_axis_integrate's
])
def test_t_rule_drops_a_seed_that_would_leave_a_sliver(t_cut, seeds):
    # the last seed below t_cut goes when it lies closer to t_cut than a
    # quarter of its gap to the seed before it; a constant needs no split,
    # so the seed panels are the grid
    assert T_SEEDS == (*_FOUR, 0.9)
    ps, ok = imag_axis_panels(lambda t: np.ones_like(t), 1e-10, t_cut, 20000)
    assert ok and [(p[0], p[1]) for p in ps.panels] == list(zip(seeds, [*seeds[1:], t_cut]))


def test_t_rule_reads_its_target_again():
    # a spike of width 1e-5 on a constant 10, centred on a Gauss node of the
    # seed panel [0.35, 0.65]: the seed integral (about 210) overstates the
    # refined one (10.31) twentyfold, so a target read once after the seed
    # panels stopped the grid 13 times above half of tol times the refined
    # integral.  Read again after each round, the target follows it down
    x0 = _panel_nodes(0.35, 0.65)[8]
    tol = 1e-6
    ps, ok = imag_axis_panels(lambda t: 10.0 + 1e4 / (1.0 + ((t - x0) / 1e-5) ** 2),
                              tol, 1.0, 20000)
    value = float(np.real(ps.integral()[0]))
    exact = 10.0 + 1e4 * 1e-5 * (math.atan((1.0 - x0) / 1e-5) + math.atan(x0 / 1e-5))
    assert ok and value == pytest.approx(exact, rel=1e-12)
    assert ps.err <= 0.5 * tol * value


@pytest.mark.parametrize("integrate", [
    lambda f: imag_axis_integrate(f, 3.3),
    lambda f: pv_shift_oracle(f, 3.3),
], ids=["imag_axis", "pv"])
def test_integrands_take_arrays(integrate):
    # an integrand that takes one float at a time is an error, not a slow path
    with pytest.raises(TypeError):
        integrate(lambda x: math.exp(-float(x)))


def _never_called(*args):
    raise AssertionError("integrand called before the inputs were checked")


@pytest.mark.parametrize("tol", [0.0, -1.0, 1e-13, math.nan, math.inf])
@pytest.mark.parametrize("integrate", [
    lambda tol: imag_axis_integrate(_never_called, 3.3, tol=tol),
    lambda tol: pv_shift_oracle(_never_called, 3.3, tol=tol),
    lambda tol: kk_check(_never_called, 3.3, tol=tol),
], ids=["imag_axis", "pv", "kk"])
def test_tol_checked_before_integrating(integrate, tol):
    # without the check, tol <= 0 spends the whole node budget first
    with pytest.raises(DomainError):
        integrate(tol)


@pytest.mark.parametrize("omega_a", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("integrate", [
    lambda wa: imag_axis_integrate(_never_called, wa),
    lambda wa: pv_shift_oracle(_never_called, wa),
    lambda wa: kk_check(_never_called, wa),
], ids=["imag_axis", "pv", "kk"])
def test_omega_a_checked_before_integrating(integrate, omega_a):
    # without the check, omega_a <= 0 samples the integrand and returns a
    # number or divides by zero, and NaN spends the pv node budget; the
    # error names omega_a, not the spectral point made from it
    with pytest.raises(DomainError, match="omega_a"):
        integrate(omega_a)


@pytest.mark.parametrize("mirror", [None, np.ones(1)], ids=["one_sided", "mirrored"])
def test_panel_sum_never_mixes_phases(mirror):
    # one set per phase; a set keeps each panel's integral, so a panel added
    # after a sum must join the next one (on e^-x over (0, 3) the one-sided
    # sum is 0.950 at phase 0 and 0.185+0.384i at phase 2)
    for lam in (0.0, 2.0):
        ps = PanelSet(mirror=mirror, phase=lam)
        for a, b in ((0.0, 1.0), (1.0, 3.0)):
            ps.append(_record(lambda x: np.exp(-x), a, b))
            want = panel_terms(*ps._freeze(), lam, mirror).sum(axis=0)
            np.testing.assert_allclose(ps.integral(), want, rtol=1e-15, atol=0.0)
        if mirror is None:
            closed = (1.0 - np.exp(-3.0 + 3j * lam)) / (1.0 - 1j * lam)
            assert ps.integral()[0] == pytest.approx(closed, rel=1e-12)


def kz_integral(f, k_start, *, tol, mirror=None, phase=0.0, pole_hint=None, **kwargs):
    """(value, converged, nodes) of the panels of the +kz spectrum f at the
    given phase, with the -kz side supplied by ``mirror`` when given.  The
    window has no branch point, and its gap 1 / (2 k_start) puts the tail's
    end at 401 k_start."""
    window = (k_start, pole_hint, None, 0.5 / k_start)
    ps, tail_bound, ok = build_spectral_panels(f, window, tol=tol, mirror=mirror, phase=phase,
                                               **kwargs)
    vec = ps.integral()
    converged = ok and ps.err + tail_bound <= tol * max(1.0, float(np.abs(vec).max()))
    return vec, converged, ps.nodes_used


@pytest.mark.parametrize("branch_point", [None, 2.0], ids=["no_branch_point", "branch_point"])
def test_window_picks_the_shape(monkeypatch, branch_point):
    # one toy spectrum, sqrt(k) e^-k with its kink at kz = 0, on two windows
    # that differ only in the branch point.  Without one, the first split of
    # the first seed panel [0, b] cuts it at KZ_GRADE b and every tail block
    # but the last is at least 2 / gap wide; with one, the cut is at b / 2
    # and every block ends at 1.6 times its start
    k_start, gap = 4.0, 0.5
    window = (k_start, None, branch_point, gap)
    calls, evaluate = [], quadrature._evaluate

    def recorded(f, panels):
        calls.append(list(panels))
        return evaluate(f, panels)

    monkeypatch.setattr(quadrature, "_evaluate", recorded)
    ps, tail_bound, ok = build_spectral_panels(lambda k: np.sqrt(k) * np.exp(-k), window,
                                               tol=1e-6)
    assert ok and abs(ps.integral()[0] - math.sqrt(math.pi) / 2) <= 1e-6
    b = _seed_breaks(window)[1]
    cut = next(m for call in calls[1:] for a, m in call if a == 0.0)
    assert cut == (KZ_GRADE * b if branch_point is None else 0.5 * b)
    tail = sorted((p[0], p[1]) for p in ps.panels if p[0] >= k_start)
    assert len(tail) >= 3 and tail[0][0] == k_start
    for (a, end), (start, _) in zip(tail[:-1], tail[1:]):
        assert start == end
        if branch_point is None:
            assert end - a >= 2.0 / gap and end == pytest.approx(max(1.6 * a, a + 2.0 / gap))
        else:
            assert end == 1.6 * a


class TestKzIntegrate:
    def test_lorentzian_pair_with_phase(self):
        # f is even in kz, so mirror +1 supplies the -kz half
        amp, gam, k0, dz = 1.7, 0.23, 3.1, 2.4
        f = lambda k: amp / (1 + (k - k0) ** 2 / gam**2) \
            + amp / (1 + (k + k0) ** 2 / gam**2)
        val, ok, _ = kz_integral(f, 30.0, tol=1e-9, mirror=np.ones(1), phase=dz,
                                 pole_hint=(k0, gam))
        exact = 2 * math.pi * amp * gam * math.exp(-gam * dz) * math.cos(k0 * dz)
        assert ok
        assert abs(val[0] - exact) <= 1e-8 * max(1.0, abs(exact))

    def test_zero_integrand(self):
        val, ok, _ = kz_integral(lambda k: 0.0 * k, 5.0, tol=1e-10, mirror=np.ones(1))
        assert ok
        assert val[0] == 0.0

    def test_gaussian_half_line(self):
        # no mirror: the integral runs over kz >= 0 only
        val, ok, _ = kz_integral(lambda k: np.exp(-k * k), 8.0, tol=1e-12)
        assert ok
        assert abs(val[0] - math.sqrt(math.pi) / 2) <= 1e-10

    def test_budget_exhaustion_reports_not_converged(self):
        wiggly = lambda k: np.sin(50.0 * k) / (1.0 + k * k)
        _, ok, nodes = kz_integral(wiggly, 20.0, tol=1e-12, mirror=np.ones(1), budget=128)
        assert not ok
        assert nodes <= 128 + 16


class TestImagAxis:
    def test_quarter_pi_independent_of_frequency(self):
        for wa in (OMEGA_A, 3.0):
            rep = imag_axis_integrate(lambda k: 1.0 / (k * k + wa * wa), wa, tol=1e-12)
            assert rep.converged
            assert abs(rep.value - math.pi / 4) <= 1e-10

    def test_zero(self):
        rep = imag_axis_integrate(lambda k: 0.0 * k, OMEGA_A, tol=1e-10)
        assert rep.value == 0.0 and rep.converged

    def test_model_green_cross_check_against_pv(self):
        # the shift assembled through the imaginary axis must agree with the
        # brute-force principal value for a closed-form causal model
        model = ResonanceModel((0.8,), (4.0,), (0.5,))
        wa = OMEGA_A
        assert abs(rotated_shift(model, wa) - pv_shift(model, wa)) \
            <= 1e-6 * abs(pv_shift(model, wa))


class TestPvOracle:
    def test_double_lorentzian_against_analytic_hilbert(self):
        for case in load_fixture("pv_reference.json")["cases"][:2]:
            w0, g, wa = case["w0"], case["g"], case["wa"]
            imG = lambda w: g / ((w - w0) ** 2 + g * g) - g / ((w + w0) ** 2 + g * g)
            got = pv_shift_oracle(imG, wa, tol=1e-10)
            assert abs(got - case["value"]) <= 1e-7 * abs(case["value"])

    def test_zero(self):
        assert pv_shift_oracle(lambda w: 0.0 * w, OMEGA_A, tol=1e-10) == 0.0

    def test_narrow_far_peak_approximation(self):
        case = next(c for c in load_fixture("pv_reference.json")["cases"]
                    if c["name"] == "narrow_far_peak")
        w0, g, wa = case["w0"], case["g"], case["wa"]  # center 10 wa, width 0.01 wa
        imG = lambda w: g / ((w - w0) ** 2 + g * g) - g / ((w + w0) ** 2 + g * g)
        got = pv_shift_oracle(imG, wa, tol=1e-10)
        assert abs(got - case["value"]) <= 1e-7 * abs(case["value"])
        # peak area is pi, so D ~ (10 wa)^2 * area / (9 wa)
        approx = w0 * w0 * math.pi / (w0 - wa)
        assert abs(got - approx) <= 1e-3 * abs(got)

    def test_window_disagreement_raises(self):
        # a function with a jump right at the transition frequency breaks
        # the symmetric-window extrapolation and must be reported, not hidden
        bad = lambda w: np.where(np.asarray(w) > 3.3, 1.0 / np.asarray(w) ** 3, 0.0)
        with pytest.raises(ConvergenceError):
            pv_shift_oracle(bad, 3.3, tol=1e-10)


class TestKKCheck:
    def test_single_causal_resonance(self):
        model = ResonanceModel((1.0,), (2.0,), (0.1,))
        rep = kk_check(lambda s: model(s.value), 1.0,
                       arc_limit=model.arc_limit, tol=1e-8)
        assert rep.residual < 1e-4

    def test_constant_real_input_flagged_degenerate(self):
        rep = kk_check(lambda s: 3.7 + 0.0j, 1.0)
        assert rep.degenerate
        assert math.isnan(rep.residual)

    def test_grid_mode_fast_decaying_model(self):
        # zero-sum amplitudes with equal widths kill the 1/w^3 tail of Im G,
        # so the sampled grid truncation is negligible
        model = ResonanceModel((1.0, -1.0), (2.0, 6.0), (0.4, 0.4))
        wa = 1.3
        grid = np.unique(np.concatenate([
            np.linspace(1e-4, 9.0, 900),
            np.geomspace(9.0, 40 * wa, 400),
        ]))
        rep = kk_check(lambda s: model(s.value), wa, grid=grid,
                       arc_limit=model.arc_limit)
        assert rep.residual < 1e-3
        assert rep.tail_estimate < 1e-3 * abs(rep.lhs)

    def test_grid_mode_flags_truncation_dominance(self):
        # a single resonance decays like 1/w^3; cutting the grid at 20 wa
        # leaves an O(1/Omega) remainder the report must attribute to the tail
        model = ResonanceModel((1.0,), (2.0,), (0.4,))
        wa = 1.3
        grid = np.unique(np.concatenate([
            np.linspace(1e-4, 9.0, 900),
            np.geomspace(9.0, 21 * wa, 300),
        ]))
        rep = kk_check(lambda s: model(s.value), wa, grid=grid,
                       arc_limit=model.arc_limit)
        true_gap = abs(rep.lhs - rep.rhs)
        assert rep.truncation_warning
        assert rep.tail_estimate > 0.3 * true_gap
        assert rep.tail_estimate < 3.0 * true_gap

    @pytest.mark.parametrize("grid", [
        # starts above 0.05 wa: the spline would hold Im G(3.0) down to 0
        # and return residual 2.16 where the full grid gives 6.1e-5
        np.linspace(3.0, 40 * 1.3, 1300),
        # shuffled: scipy would reject it only after every point is sampled
        np.random.default_rng(5).permutation(np.linspace(1e-4, 40 * 1.3, 1300)),
        np.linspace(1e-4, 40 * 1.3, 1300)[::-1],
        np.array([0.0, 1.0, 1.0, 40 * 1.3]),
        np.array([0.0, 1.0, math.nan, 40 * 1.3]),
        np.linspace(1e-4, 40 * 1.3, 1300).reshape(2, -1),
        np.linspace(1e-4, 19 * 1.3, 1300),
        np.linspace(-0.1, 40 * 1.3, 1300),
    ], ids=["starts_high", "shuffled", "decreasing", "repeated", "nan", "2d",
            "short", "negative"])
    def test_bad_grid_rejected_before_sampling(self, grid):
        with pytest.raises(DomainError):
            kk_check(_never_called, 1.3, grid=grid)


class TestEquivalenceTheorem:
    @pytest.mark.parametrize("model", EQUIVALENCE_MODELS,
                             ids=["one", "two", "three", "zero-sum"])
    def test_rotated_equals_pv(self, model):
        wa = 3.3
        pv = pv_shift(model, wa)
        rot = rotated_shift(model, wa)
        assert abs(rot - pv) <= 1e-6 * abs(pv)

    def test_resonant_term_decomposition(self):
        # the resonant part enters as two equal halves: the weighted
        # Kramers-Kronig substitution and the pole of the rotated contour
        model = EQUIVALENCE_MODELS[0]
        wa = 3.3
        half = 0.5 * math.pi * wa * wa * complex(model(wa)).real
        rep = imag_axis_integrate(model.imag_axis, wa, tol=1e-10)
        total = rotated_shift(model, wa)
        assert total == pytest.approx(
            half + half + rep.value - 0.5 * math.pi * model.arc_limit, rel=1e-14)

    def test_integral_term_necessity_for_static_heavy_model(self):
        # low-lying resonance: the static part of the response is large and
        # dropping the imaginary-axis term misstates the shift badly
        gam = 1e-3
        model = ResonanceModel((1.0,), (1.0,), (gam,))
        wa = OMEGA_A
        resonant = math.pi * wa * wa * complex(model(wa)).real
        rep = imag_axis_integrate(model.imag_axis, wa, tol=1e-10)
        total = resonant + rep.value - 0.5 * math.pi * model.arc_limit
        assert abs(rep.value) / abs(resonant) > 0.1
        assert abs(total - resonant) > 0.10 * abs(total)
