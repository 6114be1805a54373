import math

import mpmath
import numpy as np
import pytest

from wireqed import (DomainError, DrudeModel, FitError, OMEGA_A, SpectralPoint,
                     WireGeometry, emitters, plasmon_wavenumber, quadrature, wire_green)
from wireqed.emitters import (EmitterPair, PairInteraction, RateShiftResult,
                              analytic_approximations, check_pair_geometry,
                              decay_rates, dicke_levels,
                              dipole_shift, fit_plasmon_lorentzian, fit_two_lorentzian,
                              markov_diagnostic, LorentzianFit, _Z, _light_cone)
from wireqed.green_vacuum import green_vacuum_cyl, green_vacuum_im_coincident
from wireqed.green_wire import _MIRROR, SpectralEvaluator, WireSpectralTable
from wireqed.quadrature import _GL_W, _GL_X, _NPTS, _PROJ, panel_terms


def make_result(gamma11=1.0, gamma12=0.0, s12res=0.0, s12int=0.0):
    return RateShiftResult(gamma11=gamma11, gamma12=gamma12,
                           shift12_resonant=s12res, shift12_integral=s12int,
                           shift11_resonant=0.0, shift11_integral=0.0)


class TestEmitterPair:
    def test_dipoles_must_be_unit(self):
        for d in ((1.0, 1.0, 0.0), (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, 0.0)):
            with pytest.raises(DomainError):
                EmitterPair((0.015, 0, 0), (0.015, 0, 1), dipole_1=d)

    def test_radii_and_frequency_must_be_finite_and_positive(self):
        for rho in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                EmitterPair((rho, 0, 0), (rho, 0, 1))
        for w in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                EmitterPair((0.015, 0, 0), (0.015, 0, 1), omega_a=w)

    def test_positions_must_be_three_finite_numbers(self):
        # checked at construction: a two-number position would otherwise fail
        # only in .dz, and a NaN phi would fail check_pair_geometry as "not
        # one axial line"
        for p2 in ((0.015, 0.0), (0.015, 0.0, 1.0, 0.0), (0.015, math.nan, 1.0),
                   (0.015, 0.0, math.inf), (0.015, -math.inf, 1.0)):
            for pair in ((p2, (0.015, 0.0, 0.0)), ((0.015, 0.0, 0.0), p2)):
                with pytest.raises(DomainError, match="three finite numbers"):
                    EmitterPair(*pair)

    def test_pair_geometry_check(self, default_geom):
        check_pair_geometry(default_geom, EmitterPair((0.015, 0, 0), (0.015, 0, 1)))
        for p2 in ((0.005, 0, 1), (0.02, 0, 1), (0.015, 0.1, 1)):
            with pytest.raises(DomainError):
                check_pair_geometry(default_geom, EmitterPair((0.015, 0, 0), p2))


class TestDecayRates:
    def test_coincident_pair_has_equal_rates(self, default_geom):
        pair = EmitterPair((0.015, 0.0, 0.0), (0.015, 0.0, 0.0))
        g11, g12 = decay_rates(default_geom, pair)
        assert g12 == g11
        assert g11 > 0

    @pytest.mark.parametrize("dipole", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)], ids=["radial", "z"])
    def test_small_separations_join_the_coincident_rates(self, default_geom, dipole):
        # the vacuum part is the light-cone quadratic, exact down to
        # coincidence: the closed-form tensor loses eps / (w r)^2 of itself
        # and stops at its 1e-9 coincidence guard
        site, tol = (0.015, 0.0, 0.0), 1e-6
        gamma11, _ = decay_rates(default_geom, EmitterPair(site, site, dipole, dipole), tol=tol)
        for dz in (1e-10, 2e-9, 1e-7):
            pair = EmitterPair(site, (0.015, 0.0, dz), dipole, dipole)
            got11, got12 = decay_rates(default_geom, pair, tol=tol)
            assert got11 == gamma11
            assert abs(got12 - gamma11) <= 0.1 * tol * gamma11

    def test_free_space_two_atom_function(self):
        # with the wire removed, gamma12/gamma11 for transverse dipoles is
        # the textbook function of k0 dz evaluated from the closed form
        geom = WireGeometry(radius=1e-6, model=DrudeModel())
        dz = 0.25
        pair = EmitterPair((0.05, 0.0, 0.0), (0.05, 0.0, dz))
        g11, g12 = decay_rates(geom, pair, tol=1e-6)
        x = OMEGA_A * dz
        expected = 1.5 * (math.sin(x) / x + math.cos(x) / x**2 - math.sin(x) / x**3)
        assert g11 == pytest.approx(1.0, abs=1e-4)
        assert g12 / g11 == pytest.approx(expected, abs=1e-4)


class TestPairInteraction:
    def test_rejects_emitters_inside_wire(self, default_geom):
        pair = EmitterPair((0.005, 0.0, 0.0), (0.015, 0.0, 1.0))
        with pytest.raises(DomainError):
            PairInteraction(default_geom, pair)

    def test_at_rejects_non_finite_separation(self, pair_engine):
        # otherwise nan gives a row of NaNs and inf a row after numpy
        # warnings, both merely marked unconverged
        for dz in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="must be finite"):
                pair_engine.at(dz)

    def test_decomposition_identity_exact(self, pair_engine):
        r = pair_engine.at(1.3)
        assert r.shift12_total == r.shift12_resonant + r.shift12_integral
        assert r.shift11_total == r.shift11_resonant + r.shift11_integral

    def test_rate_matrix_positive_semidefinite(self, pair_engine):
        for dz in (0.02, 0.3, 1.0, 2.7, 4.0):
            r = pair_engine.at(dz)
            assert abs(r.gamma12) <= r.gamma11 * (1.0 + 1e-10)

    def test_matches_one_shot_helper(self, default_geom, pair_engine):
        pair = EmitterPair((0.015, 0.0, 0.0), (0.015, 0.0, 0.5))
        one = dipole_shift(default_geom, pair, tol=1e-6)
        ref = pair_engine.at(0.5)
        assert one.gamma11 == pytest.approx(ref.gamma11, rel=1e-8)
        assert one.shift12_total == pytest.approx(ref.shift12_total, rel=1e-4)

    def test_rows_match_the_direct_path(self, default_geom, pair_engine):
        # decay_rates integrates wire_green tensors at each separation, a
        # path independent of the rows' ladder pass over the frozen tables
        tol = pair_engine.tol
        for dz in (0.3, 1.5, 3.0):
            row = pair_engine.at(dz)
            pair = EmitterPair((0.015, 0.0, 0.0), (0.015, 0.0, dz))
            gamma11, gamma12 = decay_rates(default_geom, pair, tol=tol)
            margins = [0.1 * tol * row.gamma11 / max(abs(got - want), 1e-300)
                       for got, want in ((row.gamma12, gamma12), (row.gamma11, gamma11))]
            print(f"dz {dz}: 0.1 tol gamma11 / |rows - direct| of gamma12 {margins[0]:.3g}, "
                  f"of gamma11 {margins[1]:.3g}")
            assert min(margins) >= 1.0

    @pytest.mark.parametrize("dipole", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8)],
                             ids=["radial", "z", "tilted"])
    def test_coincident_pair_numbers_agree_exactly(self, default_geom, dipole):
        # for d1 = d2 at one site the rate matrix is singular: gamma12 is
        # gamma11, so the antisymmetric state is dark, and the shifts' parts
        # agree too, on the rows (at(0) and dipole_shift) and on the direct
        # path (decay_rates)
        site = (0.015, 0.0, 0.0)
        apart = EmitterPair(site, (0.015, 0.0, 0.5), dipole_1=dipole, dipole_2=dipole)
        same = EmitterPair(site, site, dipole_1=dipole, dipole_2=dipole)
        for r in (PairInteraction(default_geom, apart, tol=1e-6).at(0.0),
                  dipole_shift(default_geom, same, tol=1e-6)):
            assert r.gamma12 == r.gamma11
            assert r.shift12_resonant == r.shift11_resonant
            assert r.shift12_integral == r.shift11_integral
            assert dicke_levels(r).antisymmetric_decay == 0.0
        gamma11, gamma12 = decay_rates(default_geom, same, tol=1e-6)
        assert gamma12 == gamma11

    def test_wire_lamb_shift_finite_and_dz_independent(self, pair_engine):
        a = pair_engine.at(0.5)
        b = pair_engine.at(3.0)
        assert math.isfinite(a.shift11_total)
        assert a.shift11_total == b.shift11_total

    def test_integral_term_grows_at_contact(self, pair_engine):
        near = pair_engine.at(0.02)
        far = pair_engine.at(2.0)
        ratio_near = abs(near.shift12_integral) / abs(near.shift12_resonant)
        ratio_far = abs(far.shift12_integral) / abs(far.shift12_resonant)
        assert ratio_near > 0.1
        assert ratio_far < 0.02


_DIPOLE_PAIRS = {
    "radial": ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    "z": ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
    "mixed": ((0.6, 0.0, 0.8), (0.0, 0.6, -0.8)),
    "crossed": ((2**-0.5, 0.0, 2**-0.5), (2**-0.5, 0.0, -2**-0.5)),
}


@pytest.fixture(scope="module")
def dipole_engine(default_geom):
    # the default pair's build for each pair of dipoles, built once when first asked for
    built = {}

    def get(name):
        if name not in built:
            d1, d2 = _DIPOLE_PAIRS[name]
            pair = EmitterPair((0.015, 0.0, 0.0), (0.015, 0.0, 0.5), dipole_1=d1, dipole_2=d2)
            built[name] = PairInteraction(default_geom, pair, tol=1e-6)
        return built[name]

    return get


def _vacuum_reference(w, dz, d1, d2):
    """Im d1 . G0 . d2 between two points dz apart on one axial line, from the
    closed form at 50 digits, which leaves at least 25 of them at dz >= 1e-12."""
    with mpmath.workdps(50):
        x = mpmath.mpf(w) * abs(mpmath.mpf(dz))
        pre = mpmath.expj(x) * mpmath.mpf(w) / (4 * mpmath.pi * x)
        d12 = sum(mpmath.mpf(a) * mpmath.mpf(b) for a, b in zip(d1, d2))
        d12_z = mpmath.mpf(d1[2]) * mpmath.mpf(d2[2])
        g = pre * ((1 + 1j / x - 1 / x**2) * d12 + (-1 - 3j / x + 3 / x**2) * d12_z)
        return float(mpmath.im(g))


@pytest.mark.parametrize("name", list(_DIPOLE_PAIRS))
def test_light_cone_row_is_the_vacuum_rate(dipole_engine, name):
    # the one row at half-width w and midpoint 0, read with Im g, is
    # Im d1 . G0 . d2 on the axial line at every separation, down to dz = 0
    engine = dipole_engine(name)
    w = engine.omega_a
    (i,) = np.flatnonzero((engine._halves == w) & (engine._mids == 0.0))
    assert engine._reads[:, i].tolist() == [0.0, 1.0] + [0.0] * (len(engine._reads) - 2)
    d1, d2 = (np.array(d) for d in _DIPOLE_PAIRS[name])

    def row(dz):
        return emitters._phase_rows(engine._halves[[i]], engine._mids[[i]],
                                    engine._cols[:, :, [i]], dz)[0]

    assert row(0.0) == green_vacuum_im_coincident(w) * float(d1 @ d2)
    for dz in (1e-12, 2e-9, 1e-8, 1e-6, 1e-3, 0.02, 0.5, 8.0, -2.3):
        assert abs(row(dz) - _vacuum_reference(w, dz, d1, d2)) <= 1e-15 * w / (6.0 * math.pi)


@pytest.mark.parametrize("name", ["radial", "z"])
def test_rows_at_small_separations_join_the_coincident_row(dipole_engine, name):
    # gamma12 is smooth in dz through 0: the light-cone row carries none of
    # the closed form's roundoff, eps / (w dz)^2 of the vacuum part
    engine = dipole_engine(name)
    at0 = engine.at(0.0)
    for dz in (2e-9, 1e-8, 1e-7):
        r = engine.at(dz)
        assert r.gamma11 == at0.gamma11
        assert abs(r.gamma12 - at0.gamma12) <= 1e-8 * at0.gamma11


def _split_build(geom, pair, parallel=None):
    # a tight tolerance and a budget of 11 t panels force the t grid to split
    # t panels, which splices the kappa rows: it splits its t = 0 panel
    # twice, each time at 1/8 of its width, and its last panel once at the
    # midpoint, and then meets its target
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emitters, "KAPPA_TABLE_BUDGET", 11)
        return PairInteraction(geom, pair, tol=2e-8, nmax=8, dz_refs=(0.0, 0.02, 8.0),
                               parallel=parallel)


@pytest.fixture(scope="module")
def split_build(default_geom):
    # the map records how many t-panel jobs each build step hands the pool
    jobs = []

    def recording(fn, xs):
        jobs.append(len(xs))
        return [fn(x) for x in xs]

    pair = EmitterPair((0.03, 0.0, 0.0), (0.03, 0.0, 0.02))
    return _split_build(default_geom, pair, recording), jobs


@pytest.fixture(scope="module")
def panel_sets(default_geom, split_build):
    # the oracle: every t panel's shared kz panel set of the split grid,
    # built alone, with each node weighted as the build weights it
    interaction = split_build[0]
    tables = {}
    for (a, b), (half, weight, kappas) in zip(interaction.kappa_panels,
                                              _t_panels(interaction)):
        tables[a, b] = WireSpectralTable(
            default_geom, [SpectralPoint.imaginary_axis(k) for k in kappas], 0.03, 0.03, 0.0,
            weights=half * _GL_W * weight, nmax=8, tol=2e-8, budget=30000)
    return tables


def _t_panels(interaction):
    """(half-width, substitution weights, kappas) of each t panel's nodes,
    the half-width as the build reads it from the outermost nodes."""
    for a, b in interaction.kappa_panels:
        t = quadrature._panel_nodes(a, b)
        kappas, weight = quadrature.t_substitution(t, interaction.omega_a)
        yield (t[-1] - t[0]) / (2.0 * _GL_X[-1]), weight, kappas


def _kappa_oracle(interaction, tables, dz, dd):
    """(integral, Legendre bound) of the weighted tensor T(dz) of the
    per-t-panel oracle, node by node, contracted with dd (9, C) by hand;
    shapes (C,) and (), the bound being the largest over the C columns."""
    total, err = 0.0, 0.0
    for (a, b), (half, _, _) in zip(interaction.kappa_panels, _t_panels(interaction)):
        tab = tables[a, b]
        # each node's weighted integral, over its t-rule weight
        nodes = panel_terms(tab.halves, tab.mids, tab.coefs, dz,
                            np.tile(_MIRROR.ravel(), _NPTS)).sum(axis=0).reshape(_NPTS, 9)
        vals = (nodes.real / (half * _GL_W)[:, None]) @ dd
        coef = _PROJ @ vals
        total = total + 2.0 * half * coef[0]
        err += 4.0 * half * float(np.abs(coef[-3:]).sum(axis=0).max())
    return total, err


def _kz_err(tables):
    """The sets' kz and azimuthal error, already weighted as the t rule
    weights each node."""
    return sum(tab.panel_err + tab.tail_bound + tab.azimuthal_err for tab in tables.values())


def test_kappa_pool_sees_one_call_per_build_step(split_build):
    # all 5 seed t panels in one call, then the two parts of each split
    interaction, jobs = split_build
    assert jobs == [5, 2, 2, 2]
    assert interaction.kappa_nodes == 16 * 11
    assert interaction.kappa_ok
    # [0, 0.1] cut at 1/8 twice, [0.9, t_cut] at its midpoint
    t_cut = interaction.kappa_panels[-1][1]
    breaks = [0.0, 0.1 / 64, 0.1 / 8, 0.1, 0.35, 0.65, 0.9, 0.5 * (0.9 + t_cut), t_cut]
    assert sorted(interaction.kappa_panels) == pytest.approx(list(zip(breaks[:-1], breaks[1:])),
                                                  rel=1e-13)


def test_kappa_bisection_matches_per_table_oracle(split_build, panel_sets):
    interaction, _ = split_build
    assert interaction.kappa_nodes > 160
    # the oracle: each t panel's set built alone, its nodes' values
    # contracted by hand, then projected per t panel
    tables = panel_sets
    # every t panel is built at the configured order, and each set's
    # azimuthal tail at it enters kz_err
    assert interaction.kappa_orders == (8,) * len(interaction.kappa_panels)
    assert interaction.at(0.5).diagnostics["kappa_nmax"] == 8
    assert all(tab.nmax == 8 and tab.azimuthal_err > 0.0 for tab in tables.values())
    kz_err = _kz_err(tables)
    assert kz_err > 0.0
    # radial dipoles: the build holds the rho-rho component of the tensor
    d1 = d2 = np.array([1.0, 0.0, 0.0])
    dd = np.outer(d1, d2).reshape(9, 1)
    coincident_err = interaction.coincident[2]
    for dz in (0.0, 0.5, 8.0):
        row_err = interaction.at(dz).diagnostics["kappa_err"]
        table_part = row_err - interaction._pass(dz)[2] - coincident_err
        assert abs(table_part - kz_err) <= 1e-12 * kz_err
    # a negative separation, and two at which some row's dz * half sits
    # exactly on a switch of the moment ladder (series / Miller at 1e-3,
    # Miller / upward at 16)
    at_switch = [_dz_hitting(x, interaction._halves) for x in (1e-3, 16.0)]
    w = interaction.omega_a
    for dz in (0.0, 0.02, 1.3, 8.0, -1.3, *at_switch):
        # the contracted value node by node, then Legendre coefficients per panel
        total, err = _kappa_oracle(interaction, tables, dz, dd)
        g12, got, got_err = interaction._pass(dz)
        scale = abs(total[0])
        assert abs(got - total[0]) <= 1e-12 * scale
        # the bound sums tail coefficients that sit near the integral's
        # roundoff, so it agrees to the integral's digits, not to its own
        assert abs(got_err - err) <= 1e-12 * scale
        # the real-axis rows against the full-tensor path, with the
        # light-cone row's vacuum part
        vac = quadrature.jn_ladder(w * abs(dz))[[0, 2], 0] @ _light_cone(w, d1, d2, _Z)
        want = d1 @ interaction.table_res.integrate(dz)[0] @ d2 + 1j * vac
        assert abs(g12 - want) <= 1e-13 * abs(want)


def _dz_hitting(x, halves):
    """A separation at which dz * half is exactly x for one of ``halves``."""
    for half in halves[len(halves) // 2:]:
        for dz in (x / half, np.nextafter(x / half, 0.0), np.nextafter(x / half, 1.0)):
            if dz * half == x:
                return float(dz)
    raise AssertionError(f"no half-width reaches {x} exactly")


def test_t_grid_refines_on_the_row_quantities(default_geom, split_build, panel_sets,
                                              monkeypatch):
    # the t grid's node values are what the rows report, d1 . T . d2 at each
    # reference separation and d1 . T . d1 at 0, so its bisections follow the
    # Legendre decay of those integrands; crossed dipoles tell the two apart
    grids = []
    imag_axis_panels = quadrature.imag_axis_panels

    def capture(*args):
        grid, ok = imag_axis_panels(*args)
        grids.append(grid)
        return grid, ok

    monkeypatch.setattr(quadrature, "imag_axis_panels", capture)
    d1, d2 = np.array([2**-0.5, 0.0, 2**-0.5]), np.array([2**-0.5, 0.0, -2**-0.5])
    pair = EmitterPair((0.03, 0.0, 0.0), (0.03, 0.0, 0.02), dipole_1=tuple(d1),
                       dipole_2=tuple(d2))
    interaction = _split_build(default_geom, pair)
    # the same panels, split in another order: tilted dipoles split the last
    # seed panel before the second t = 0 split, radial ones after it
    assert sorted(interaction.kappa_panels) == sorted(split_build[0].kappa_panels)
    (grid,) = grids
    dd12, dd11 = np.outer(d1, d2).reshape(9, 1), np.outer(d1, d1).reshape(9, 1)
    want = np.array([_kappa_oracle(interaction, panel_sets, dz, dd12)[0][0]
                     for dz in (0.0, 0.02, 8.0)]
                    + [_kappa_oracle(interaction, panel_sets, 0.0, dd11)[0][0]])
    got = grid.integral()
    assert got.shape == want.shape
    assert abs(want[0] - want[-1]) > 0.1 * abs(want[-1])
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_kappa_job_node_values_are_what_its_rows_read(default_geom, default_pair,
                                                      pair_engine):
    # a t panel's job returns its set folded over the t panel, which the rows
    # read, and its nodes' values, on which the t grid refines; on the
    # default pair's first t panel the nodes' weighted sum is the set-0 rows
    # at each reference separation, and the c_13..c_15 sets are 4 half times
    # the Legendre coefficients of the node values
    t = quadrature._panel_nodes(*pair_engine.kappa_panels[0])
    half = (t[-1] - t[0]) / (2.0 * _GL_X[-1])
    d1, d2 = np.asarray(default_pair.dipole_1), np.asarray(default_pair.dipole_2)
    dd = np.stack([np.outer(d1, d2).ravel(), np.outer(d1, d1).ravel()], axis=1)
    dz_refs = (0.0, 0.02, 0.5, 2.0, 4.0)
    kappas, weights = quadrature.t_substitution(t, OMEGA_A)
    halves, mids, (cols, cols11), vals, *_ = emitters._kappa_panel_job(
        (default_geom, 0.015, kappas, weights, half, 1e-6, None, dd, dz_refs))
    # d1 . d2's columns, and of d1 . d1's only the j_0 cos column, the rows'
    # values at dz = 0
    assert cols.shape == (2, _NPTS, len(halves), 4)
    assert cols11.shape == (len(halves), 4)
    assert vals.shape == (_NPTS, len(dz_refs) + 1)
    coefs = 4.0 * half * (_PROJ[-3:] @ vals)
    # the coefficients cancel most of their terms, so they agree to the
    # terms' digits
    sizes = 4.0 * half * (np.abs(_PROJ[-3:]) @ np.abs(vals))
    # d1 . T . d2 at each reference separation, then d1 . T . d1 at 0
    sets = [[emitters._phase_rows(halves, mids, cols[:, :, :, r], dz).sum() for r in range(4)]
            for dz in dz_refs] + [cols11.sum(axis=0)]
    for j, rows in enumerate(np.array(sets)):
        total = (vals[:, j] * half * _GL_W).sum()
        assert abs(rows[0] - total) <= 1e-13 * abs(total)
        assert (np.abs(rows[1:] - coefs[:, j]) <= 1e-13 * sizes[:, j]).all()


@pytest.mark.parametrize("rho", [0.015, 0.02, 0.03, 0.1])
def test_kappa_cutoff_leaves_nothing_the_rows_can_see(default_geom, rho):
    # the t grid stops at the kappa cutoff of ``_kappa_sets``; one more t
    # panel from there to 1 - 1e-4 must add to d1 . T . d2 at dz 0.02 and to
    # d1 . T . d1 at most 1e-8 of the rows' target, tol max(1, |i12|, |i11|)
    tol, dz = 1e-6, 0.02
    pair = EmitterPair((rho, 0.0, 0.0), (rho, 0.0, dz))
    interaction = PairInteraction(default_geom, pair, tol=tol, dz_refs=(0.0, dz))
    w = pair.omega_a
    kap_cut = max(6.0 * w, 20.0 / (2.0 * (rho - default_geom.radius)))
    a, b = kap_cut / (w + kap_cut), 1.0 - 1e-4
    half = 0.5 * (b - a)
    kappas, weights = quadrature.t_substitution(quadrature._panel_nodes(a, b), w)
    d = np.asarray(pair.dipole_1)
    dd = np.stack([np.outer(d, np.asarray(pair.dipole_2)).ravel(), np.outer(d, d).ravel()],
                  axis=1)
    vals = emitters._kappa_panel_job(
        (default_geom, rho, kappas, weights, half, tol, None, dd, (dz,)))[3]
    tails = (vals * (half * _GL_W)[:, None]).sum(axis=0)
    i12, i11 = interaction._pass(dz)[1], interaction.coincident[1]
    margins = tails / (tol * max(1.0, abs(i12), abs(i11)))
    print(f"rho {rho}: cutoff tails over the target {margins}")
    assert (np.abs(margins) <= 1e-8).all()


def test_t_grid_stopped_by_the_table_budget_is_unconverged(default_geom, default_pair,
                                                          monkeypatch):
    # at tol 1e-10 the t grid wants more t panels than the 12 the budget
    # allows; stopped at 8 panels (the 5 seed panels and three splits, whose
    # parents took three more, and the last panel's worth is less than a
    # split needs) its error is
    # above its own target yet under the rows' 100 tol scale bound, so only
    # the grid's flag can mark the rows unconverged
    grids = []
    imag_axis_panels = quadrature.imag_axis_panels

    def capture(*args):
        grids.append(imag_axis_panels(*args))
        return grids[-1]

    monkeypatch.setattr(quadrature, "imag_axis_panels", capture)
    monkeypatch.setattr(emitters, "KAPPA_TABLE_BUDGET", 12)
    tol = 1e-10
    interaction = PairInteraction(default_geom, default_pair, tol=tol,
                                  dz_refs=(0.0, 0.02, 2.01, 4.0))
    ((grid, grid_ok),) = grids
    assert not grid_ok and len(grid.panels) == 8
    row = interaction.at(0.5)
    i12, i11 = interaction._pass(0.5)[1], interaction.coincident[1]
    assert row.diagnostics["kappa_err"] <= 100.0 * tol * max(1.0, abs(i12), abs(i11))
    assert not interaction.kappa_ok
    assert not row.converged


def _green(tol=1e-6, s=OMEGA_A):
    return lambda geom, pair: wire_green(geom, pair.position_1, pair.position_2, s, tol=tol)


def _pair(**kwargs):
    return lambda geom, pair: PairInteraction(geom, pair, nmax=8, **kwargs)


@pytest.mark.parametrize("build, names", [
    (_pair(tol=math.nan), "tol"), (_pair(tol=0.0), "tol"), (_pair(tol=-1.0), "tol"),
    (_green(tol=math.nan), "tol"), (_green(tol=0.0), "tol"),
    (_pair(dz_refs=(0.0, math.nan)), "reference separations"),
    (_pair(dz_refs=(0.0, math.inf)), "reference separations"),
    (_green(s=math.inf), "spectral point"), (_green(s=-math.inf), "spectral point"),
    (_green(s=complex(0.0, math.inf)), "spectral point"),
    (_green(s=math.nan), "spectral point"),
], ids=["pair_tol_nan", "pair_tol_0", "pair_tol_-1", "green_tol_nan", "green_tol_0",
        "dz_refs_nan", "dz_refs_inf", "omega_inf", "omega_-inf", "omega_i_inf", "omega_nan"])
def test_tol_dz_refs_and_frequency_checked_before_any_kz_table(default_geom, default_pair,
                                                               monkeypatch, build, names):
    # without the checks a NaN tol builds every kappa table unconverged, a tol
    # <= 0 refines until the node budget runs out, a NaN dz_refs entry fails in
    # the phase moments' Miller ladder, and an infinite frequency fails as a
    # kz node
    def built(*args, **kwargs):
        raise AssertionError("a panel set was built")

    monkeypatch.setattr(quadrature.PanelSet, "__init__", built)
    with pytest.raises(DomainError, match=f"{names} must be finite"):
        build(default_geom, default_pair)


@pytest.mark.parametrize("rho, dz_refs", [(0.015, (0.0, 0.02, 2.01, 4.0)),
                                           (0.03, (0.0, 0.02, 4.01, 8.0))],
                         ids=["sweep", "dense"])
def test_rows_at_negative_separation_mirror_the_dipoles(default_geom, rho, dz_refs):
    # the plane z = z1 maps p2 at -dz onto p2 at +dz and each dipole d onto
    # M d, M = diag(1, 1, -1): the P-odd columns flip, and so do the odd
    # moments and sin(dz mid), so the rows agree to the last bit; crossed
    # dipoles read the P-odd columns, on both benchmark geometries
    d1, d2 = (2**-0.5, 0.0, 2**-0.5), (2**-0.5, 0.0, -2**-0.5)
    mirror = np.array([1.0, 1.0, -1.0])

    def build(a, b):
        pair = EmitterPair((rho, 0.0, 0.0), (rho, 0.0, 0.5), dipole_1=tuple(a),
                           dipole_2=tuple(b))
        return PairInteraction(default_geom, pair, tol=1e-6, dz_refs=dz_refs)

    plain, mirrored = build(d1, d2), build(mirror * d1, mirror * d2)
    for dz in (0.3, 1.7):
        got, want = plain.at(-dz), mirrored.at(dz)
        for name in ("gamma11", "gamma12", "shift12_resonant", "shift12_integral",
                     "shift11_resonant", "shift11_integral", "converged"):
            assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("dipoles", [
    ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    ((2**-0.5, 0.0, 2**-0.5), (2**-0.5, 0.0, 2**-0.5)),
    ((2**-0.5, 0.0, 2**-0.5), (2**-0.5, 0.0, -2**-0.5)),
], ids=["rho_z", "tilted", "tilted_crossed"])
def test_rows_with_mirror_odd_components_match_full_tensor(default_geom, split_build,
                                                           panel_sets, dipoles):
    # rho-z and z-rho flip sign under kz -> -kz, so radial dipoles never see
    # them; these pairs read them (equal tilted dipoles read both, which
    # cancel), and every row field must be the full tensors contracted by hand
    d1, d2 = (np.array(d) for d in dipoles)
    pair = EmitterPair((0.03, 0.0, 0.0), (0.03, 0.0, 0.02), dipole_1=dipoles[0],
                       dipole_2=dipoles[1])
    interaction = _split_build(default_geom, pair)
    # the same panels as the radial pair, in split order
    assert sorted(interaction.kappa_panels) == sorted(split_build[0].kappa_panels)
    tab = interaction.table_res
    w = interaction.omega_a
    dd12, dd11 = np.outer(d1, d2).reshape(9, 1), np.outer(d1, d1).reshape(9, 1)
    # |d1| . |T| . |d2|, the size the contraction rounds at
    size12, size11 = np.abs(dd12), np.abs(dd11)
    ones = np.ones((9, 1))
    kz_err = _kz_err(panel_sets)
    res_err = tab.panel_err + tab.tail_bound + tab.azimuthal_err
    g11 = tab.integrate(0.0)[0].reshape(9)
    i11, e11 = _kappa_oracle(interaction, panel_sets, 0.0, dd11)
    _, e11_all = _kappa_oracle(interaction, panel_sets, 0.0, np.eye(9))
    a11, _ = _kappa_oracle(interaction, panel_sets, 0.0, ones)
    odd = ~emitters._P_EVEN
    for dz in (0.02, 0.5, 1.3, 8.0):
        r = interaction.at(dz)
        g12 = tab.integrate(dz)[0].reshape(9)
        gvac = green_vacuum_cyl((0.03, 0.0, 0.0), (0.03, 0.0, -dz), w).value.reshape(9)
        i12, e12 = _kappa_oracle(interaction, panel_sets, dz, dd12)
        _, e12_all = _kappa_oracle(interaction, panel_sets, dz, np.eye(9))
        a12, _ = _kappa_oracle(interaction, panel_sets, dz, ones)
        if not np.array_equal(d1, d2):
            # the mirror-odd part of the rows is not zero here
            i_odd = _kappa_oracle(interaction, panel_sets, dz, odd[:, None] * dd12)[0]
            assert abs(i_odd[0]) > 1e-3 * abs(i12[0])
        want = {
            "gamma11": (1.0 + 6.0 * math.pi / w * (g11 @ dd11)[0].imag,
                        1.0 + 6.0 * math.pi / w * (np.abs(g11) @ size11)[0]),
            "gamma12": (6.0 * math.pi / w * ((gvac + g12) @ dd12)[0].imag,
                        6.0 * math.pi / w * (np.abs(gvac) + np.abs(g12)) @ size12),
            "shift12_resonant": (3.0 * math.pi / w * (g12 @ dd12)[0].real,
                                 3.0 * math.pi / w * np.abs(g12) @ size12),
            "shift11_resonant": (3.0 * math.pi / w * (g11 @ dd11)[0].real,
                                 3.0 * math.pi / w * np.abs(g11) @ size11),
            "shift12_integral": (3.0 / w**3 * i12[0], 3.0 / w**3 * np.abs(a12).max()),
            "shift11_integral": (3.0 / w**3 * i11[0], 3.0 / w**3 * np.abs(a11).max()),
        }
        for name, (value, scale) in want.items():
            assert abs(getattr(r, name) - value) <= 1e-12 * float(np.max(scale)), name
        diag = r.diagnostics
        assert diag["resonant_tensor_err"] == 2.0 * res_err
        assert diag["kappa_nodes"] == interaction.kappa_nodes == 16 * 11
        assert diag["nmax"] == diag["kappa_nmax"] == 8
        # the bound covers at least the contracted integrand's Legendre tail,
        # and at most what the nine components' bound allows for these dipoles
        l1 = np.abs(d1).sum()
        low = kz_err + e12 + e11
        high = kz_err + l1 * np.abs(d2).sum() * e12_all + l1 * l1 * e11_all
        tiny = 1e-12 * 3.0 * max(np.abs(a12).max(), np.abs(a11).max())
        assert low - tiny <= diag["kappa_err"] <= high + tiny
        bound = 100.0 * interaction.tol
        converged = bool(tab.panels_ok and 2.0 * res_err <= bound * max(
            1.0, abs(r.gamma11) * w / (6.0 * math.pi)) and interaction.kappa_ok
            and diag["kappa_err"] <= bound * max(1.0, abs(i12[0]), abs(i11[0])))
        assert r.converged is converged


def test_one_order_search_across_callers(default_geom, pair_engine):
    # wire_green and PairInteraction(nmax=None) settle the azimuthal order
    # through one rule, so on one geometry they agree; the plasmon fit of
    # sweep and point reads the pair's real-axis table at that order
    coincident = (0.015, 0.0, 0.0)
    g = wire_green(default_geom, coincident, coincident, SpectralPoint.real_axis(OMEGA_A))
    assert g.report.diagnostics["nmax"] == pair_engine.nmax == pair_engine.table_res.nmax


def test_near_wall_azimuthal_tail_is_loud(default_geom):
    # emitters 1.5e-3 from the surface: for tol 1e-6 the series needs about
    # 72 orders.  The settled build raises with that prediction, and so does
    # a t panel's kz panel set settled alone; at a configured N_MAX both
    # tails join the rows' errors, which then fail their bounds
    from wireqed import ConvergenceError, N_MAX
    from wireqed.emitters import _kappa_panel_job
    pair = EmitterPair((0.0115, 0.0, 0.0), (0.0115, 0.0, 0.02))
    with pytest.raises(ConvergenceError) as failure:
        PairInteraction(default_geom, pair, tol=1e-6)
    assert failure.value.diagnostics["nmax"] > N_MAX
    t = 0.9 + 0.05 * (1.0 + _GL_X)
    kappas, weights = quadrature.t_substitution(t, OMEGA_A)
    dd = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]).reshape(9, 1)
    with pytest.raises(ConvergenceError) as failure:
        _kappa_panel_job((default_geom, 0.0115, kappas, weights, 0.05, 1e-6, None, dd,
                          (0.0, 0.02)))
    assert failure.value.diagnostics["nmax"] > N_MAX
    row = PairInteraction(default_geom, pair, tol=1e-6, nmax=N_MAX).at(0.02)
    assert set(row.diagnostics["failed_checks"]) == {"resonant_tensor_err", "kappa_err"}


def test_kappa_kz_nodes_count_every_set(pair_engine):
    # the kz nodes of the default pair's five shared kappa sets at tol 1e-6,
    # whose splits from kz = 0 cut at a quarter of the panel and whose tail
    # blocks are at least two decay lengths wide: 880
    nodes = pair_engine.kappa_kz_nodes
    print(f"kappa kz nodes of the default pair at tol 1e-6: {nodes}")
    assert pair_engine.at(0.5).diagnostics["kappa_kz_nodes"] == nodes
    assert 0 < nodes <= 900


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("rho", [0.015, 0.03, 0.1])
def test_kappa_set_errors_bound_a_tighter_rebuild(default_geom, monkeypatch, rho, tol):
    # each shared kappa set that a build reads, rebuilt at its own order and
    # tol 1e-3 tol, moves d1 . T . d2 at dz 0, 0.5 and 4 and d1 . T . d1 at 0
    # by at most its reported kz error (panels and tail), and so by at most
    # its whole error; away from dz = 0 the rows see the panels' Legendre
    # tails, which Gauss exactness hides at dz = 0
    built, sets = emitters.WireSpectralTable, []

    def capture(*args, **kwargs):
        if "weights" not in kwargs:   # the real-axis table
            return built(*args, **kwargs)
        sets.append((args, kwargs, built(*args, **kwargs)))
        return sets[-1][2]

    monkeypatch.setattr(emitters, "WireSpectralTable", capture)
    pair = EmitterPair((rho, 0.0, 0.0), (rho, 0.0, 0.02))
    interaction = PairInteraction(default_geom, pair, tol=tol, dz_refs=(0.0, 0.02, 2.01, 4.0))
    assert interaction.kappa_ok
    assert interaction.kappa_kz_nodes == sum(tab.nodes_used for _, _, tab in sets)
    d1, d2 = np.asarray(pair.dipole_1), np.asarray(pair.dipole_2)
    margins = []
    for args, kwargs, tab in sets:
        fine = built(*args, **{**kwargs, "tol": 1e-3 * tol, "nmax": tab.nmax})
        moved = max([abs(d1 @ (tab.integrate(dz)[0] - fine.integrate(dz)[0]) @ d2)
                     for dz in (0.0, 0.5, 4.0)]
                    + [abs(d1 @ (tab.integrate(0.0)[0] - fine.integrate(0.0)[0]) @ d1)])
        margins.append((tab.panel_err + tab.tail_bound) / max(moved, 1e-300))
    print(f"rho {rho}, tol {tol:g}: smallest kz error / change of {len(sets)} sets "
          f"{min(margins):.3g}")
    assert min(margins) >= 1.0


def test_kappa_table_out_of_budget_is_unconverged(default_geom, default_pair,
                                                  pair_engine, monkeypatch):
    # the shared engine's arguments, with every t panel's kz panel set held
    # to 192 kz nodes instead of 30,000: the first and last seed panels'
    # sets need 208 and the others at most 176, so those two run out, and
    # their flags must reach the row
    built, sets = emitters.WireSpectralTable, []

    def short_budget(*args, **kwargs):
        if "weights" not in kwargs:   # the real-axis table
            return built(*args, **kwargs)
        assert kwargs["budget"] == 30000
        sets.append(built(*args, **{**kwargs, "budget": 192}))
        return sets[-1]

    monkeypatch.setattr(emitters, "WireSpectralTable", short_budget)
    starved = PairInteraction(default_geom, default_pair, tol=1e-6,
                              dz_refs=(0.0, 0.02, 0.5, 2.0, 4.0))
    assert [tab.panels_ok for tab in sets] == [False, True, True, True, False]
    assert starved.kappa_ok is False
    assert starved.at(0.5).converged is False
    assert pair_engine.kappa_ok is True
    assert pair_engine.at(0.5).converged is True


_T_RULE_GEOMETRIES = {
    # (radius, rho, metal, dipole)
    "default": (0.01, 0.015, DrudeModel(), (1.0, 0.0, 0.0)),
    "rho_0.03": (0.01, 0.03, DrudeModel(), (1.0, 0.0, 0.0)),
    "lossy": (0.01, 0.015, DrudeModel(gamma_p=0.12 * OMEGA_A), (1.0, 0.0, 0.0)),
    "z_dipoles": (0.02, 0.05, DrudeModel(), (0.0, 0.0, 1.0)),
    # emitters 1.5e-3 from the surface
    "near_wall": (0.01, 0.0115, DrudeModel(), (1.0, 0.0, 0.0)),
    # emitters 0.1 from the surface: the t cut, 0.941, lies within a quarter
    # of a seed gap above the seed 0.9, which the t rule drops
    "mid_gap": (0.01, 0.11, DrudeModel(), (1.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("name", _T_RULE_GEOMETRIES)
def test_t_rule_error_bounds_a_tighter_rebuild(name):
    # the coarse seeds and the graded t rule must keep kappa_err an honest
    # bound: each row's shift12_integral moves, from tol 1e-6 to a 1e-8
    # rebuild, by at most the kappa_err of the 1e-6 row, out to dz = 8
    radius, rho, metal, d = _T_RULE_GEOMETRIES[name]
    geom = WireGeometry(radius=radius, model=metal)
    pair = EmitterPair((rho, 0.0, 0.0), (rho, 0.0, 0.02), dipole_1=d, dipole_2=d)
    coarse, fine = (PairInteraction(geom, pair, tol=tol, nmax=15,
                                    dz_refs=(0.0, 0.02, 2.01, 4.0)) for tol in (1e-6, 1e-8))
    breaks = {t for panel in coarse.kappa_panels for t in panel}
    assert (0.9 in breaks) is (name != "mid_gap")
    w = pair.omega_a
    margins = {}
    for dz in (0.02, 0.1, 0.5, 1.5, 3.0, 4.0, 8.0):
        r = coarse.at(dz)
        moved = abs(r.shift12_integral - fine.at(dz).shift12_integral)
        margins[dz] = (3.0 / w**3) * r.diagnostics["kappa_err"] / max(moved, 1e-300)
    dz = min(margins, key=margins.get)
    assert margins[dz] >= 1.0, f"bound / moved = {margins[dz]:.3g} at dz = {dz}"


class TestAgainstAnalyticApproximation:
    def test_gamma12_follows_plasmon_formula(self, pair_engine, plasmon_fit):
        # envelope-normalized deviation from exp(-g dz) cos(kpl dz)
        dzs = np.linspace(1.0, 4.0, 25)
        worst = 0.0
        peak = 0.0
        for dz in dzs:
            r = pair_engine.at(float(dz))
            ap = analytic_approximations(plasmon_fit, float(dz))
            worst = max(worst, abs(r.gamma12_over_gamma11 - ap.gamma12_over_gamma11))
            peak = max(peak, abs(r.gamma12_over_gamma11))
        assert worst <= 0.10 * peak

    def test_shift_follows_plasmon_formula_at_large_dz(self, pair_engine, plasmon_fit):
        dzs = np.linspace(1.0, 4.0, 25)
        worst, peak = 0.0, 0.0
        for dz in dzs:
            r = pair_engine.at(float(dz))
            ap = analytic_approximations(plasmon_fit, float(dz))
            worst = max(worst, abs(r.shift12_total_over_gamma11 - ap.shift12_over_gamma11))
            peak = max(peak, abs(r.shift12_total_over_gamma11))
        assert worst <= 0.10 * peak

    def test_shift_extrema_bounded_by_half(self, pair_engine):
        vals = [abs(pair_engine.at(float(dz)).shift12_total_over_gamma11)
                for dz in np.linspace(1.0, 4.0, 60)]
        assert max(vals) <= 0.55


class TestLorentzianFit:
    def test_roundtrip_of_own_model(self):
        kz = np.linspace(0.5, 40.0, 500)
        a, g, kpl = 3.0, 0.2, 1.5 * OMEGA_A
        synth = a / (1 + (kz - kpl) ** 2 / g**2) + a / (1 + (kz + kpl) ** 2 / g**2)
        fit = fit_two_lorentzian(kz, synth, (2.0, 0.35, 0.8 * kpl))
        assert fit.amplitude_a == pytest.approx(a, rel=1e-6)
        assert fit.width_gamma == pytest.approx(g, rel=1e-6)
        assert fit.center_kz_pl == pytest.approx(kpl, rel=1e-6)
        assert fit.fit_residual < 1e-10

    def test_default_geometry_fit(self, plasmon_fit):
        assert plasmon_fit.center_kz_pl > OMEGA_A
        assert plasmon_fit.fit_residual < 0.05
        assert plasmon_fit.width_gamma > 0

    def test_scan_fallback_without_a_tm0_root(self):
        # plasmon_wavenumber finds no TM0 root on either wire, so the fit
        # scans the spectrum for its maximum instead
        def geom(radius, wp, gp):
            return WireGeometry(radius=radius,
                                model=DrudeModel.from_relative(1.0, wp, gp))

        def table_fit(g, rho):
            # as sweep fits, from the real-axis table at rho
            table = WireSpectralTable(g, SpectralPoint.real_axis(OMEGA_A), rho, rho, 0.0,
                                      tol=1e-6)
            return fit_plasmon_lorentzian(g, OMEGA_A, table.spectrum)

        broad = geom(0.1, 1.3, 0.05)
        with pytest.raises(FitError):
            plasmon_wavenumber(broad, OMEGA_A)
        fit = table_fit(broad, 0.15)
        assert fit.center_kz_pl == pytest.approx(6.412, rel=1e-3)
        assert fit.center_kz_pl > OMEGA_A
        assert fit.fit_residual < 5e-3
        with pytest.raises(FitError, match="no interior spectral maximum"):
            table_fit(geom(0.03, 1.05, 0.002), 0.045)

    def test_single_rate_approximation_close(self, pair_engine, plasmon_fit):
        # plasmon channel carries most of the near-wire decay
        appr = analytic_approximations(plasmon_fit, 0.0)
        exact = pair_engine.at(1.0).gamma11
        assert abs(appr.gamma11_over_gamma0 - exact) <= 0.25 * exact


def _lorentzians(kz, amp, gam, kc):
    return amp / (1 + (kz - kc) ** 2 / gam**2) + amp / (1 + (kz + kc) ** 2 / gam**2)


def _fit_params(fit):
    return np.array([fit.amplitude_a, fit.width_gamma, fit.center_kz_pl])


# the spectra fit_plasmon_lorentzian fits: the default pair's real-axis table,
# as in sweep, and the tests/test_cli.py geometry's spectrum at order 4, as in
# dispersion with an explicit order
@pytest.mark.parametrize("rho, nmax", [(0.015, None), (0.03, 4)], ids=["default", "order_4"])
def test_fit_matches_least_squares_and_is_stable(default_geom, pair_engine, monkeypatch,
                                                 rho, nmax):
    from scipy.optimize import least_squares

    seen = []

    def capture(kz, values, guess):
        seen.append((np.array(kz), np.array(values), np.array(guess, float)))
        return fit_two_lorentzian(kz, values, guess)

    monkeypatch.setattr(emitters, "fit_two_lorentzian", capture)
    spectrum = (pair_engine.table_res.spectrum if nmax is None else SpectralEvaluator(
        default_geom, SpectralPoint.real_axis(OMEGA_A), rho, rho, 0.0, nmax=nmax))
    fit = _fit_params(fit_plasmon_lorentzian(default_geom, OMEGA_A, spectrum))
    (kz, y, guess), = seen
    ref = least_squares(lambda p: _lorentzians(kz, *p) - y, x0=guess,
                        bounds=([0.0, 1e-12, 0.0], [np.inf] * 3),
                        xtol=1e-14, ftol=1e-14, gtol=1e-14).x
    assert np.abs(fit / ref - 1.0).max() <= 1e-9
    rng = np.random.default_rng(20)
    for _ in range(3):
        noisy = y + 1e-16 * np.abs(y) * rng.standard_normal(y.size)
        moved = _fit_params(fit_two_lorentzian(kz, noisy, guess))
        assert np.abs(moved / fit - 1.0).max() <= 1e-12


_KZ = np.linspace(0.2, 40.0, 400)
_PEAK = _lorentzians(_KZ, 3.0, 0.2, 9.42)


@pytest.mark.parametrize("values, guess, steps, match", [
    (_PEAK, (3.0, 1.3e-15, 9.42), None, "not finite"),
    (_PEAK, (3.0, -0.2, 9.42), None, "not finite"),
    (_PEAK, (3.0, math.nan, 9.42), None, "not finite"),
    (_PEAK, (math.inf, 0.2, 9.42), None, "not finite"),
    (_PEAK, (3.0, 0.2, math.nan), None, "not finite"),
    (_PEAK, (3.0, 0.2, 0.0), None, "singular"),
    (_PEAK, (2.0, 0.4, 7.5), 3, "did not stop within 3 steps"),
    (np.zeros_like(_KZ), (3.0, 0.2, 9.42), None, "not all zero"),
    (np.where(_KZ < 30.0, _PEAK, math.nan), (3.0, 0.2, 9.42), None, "finite"),
    (-_PEAK, (3.0, 0.2, 9.42), None, "not positive"),
], ids=["width_below_floor", "negative_width", "nan_width", "inf_amplitude", "nan_center",
        "zero_center", "step_cap", "all_zero", "non_finite_data", "negative_amplitude"])
def test_unusable_fit_raises(monkeypatch, values, guess, steps, match):
    if steps is not None:
        monkeypatch.setattr(emitters, "FIT_MAX_STEPS", steps)
    with pytest.raises(FitError, match=match):
        fit_two_lorentzian(_KZ, values, guess)


class TestApproxRates:
    def test_zero_separation(self, plasmon_fit):
        ap = analytic_approximations(plasmon_fit, 0.0)
        assert ap.gamma12_over_gamma11 == 1.0
        assert ap.shift12_over_gamma11 == 0.0

    def test_quarter_period_extremum(self):
        fit = LorentzianFit(amplitude_a=5.0, width_gamma=1e-300,
                            center_kz_pl=2.0, fit_residual=0.0)
        dz = 0.5 * math.pi / fit.center_kz_pl  # kpl dz = pi/2, gamma dz = 0
        ap = analytic_approximations(fit, dz)
        assert abs(ap.gamma12_over_gamma11) < 1e-12
        assert abs(ap.shift12_over_gamma11) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("dz,omega_a", [
        (1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
        (math.nan, OMEGA_A), (math.inf, OMEGA_A)])
    def test_impossible_inputs_raise(self, dz, omega_a):
        # without the check, omega_a = 0 divides by zero, dz = inf fails
        # in math.cos, and the others return NaN or negative ratios
        fit = LorentzianFit(amplitude_a=5.0, width_gamma=0.1, center_kz_pl=2.0,
                            fit_residual=0.0)
        with pytest.raises(DomainError):
            analytic_approximations(fit, dz, omega_a)

    def test_shift_lags_coupling_by_quarter_period(self, plasmon_fit):
        # the two signals are in quadrature: the largest |cross-correlation|
        # sits a quarter period away (in anti-phase)
        period = 2 * math.pi / plasmon_fit.center_kz_pl
        dzs = np.linspace(1.0, 1.0 + 3 * period, 400)
        g = np.array([analytic_approximations(plasmon_fit, z).gamma12_over_gamma11
                      for z in dzs])
        s = np.array([analytic_approximations(plasmon_fit, z).shift12_over_gamma11
                      for z in dzs])
        lags = np.arange(1, len(dzs) // 3)
        corr = [abs(float(np.dot(s[k:], g[:-k]))) for k in lags]
        best = float(lags[int(np.argmax(corr))] * (dzs[1] - dzs[0]))
        assert abs(best - period / 4) <= 0.05 * period


class TestDickeLevels:
    def test_coincident_limit(self):
        levels = dicke_levels(make_result(gamma11=1.0, gamma12=1.0))
        assert levels.symmetric_decay == 2.0
        assert levels.antisymmetric_decay == 0.0
        assert levels.superradiance_factor == math.inf

    def test_degenerate_rates_split_by_shift(self):
        levels = dicke_levels(make_result(gamma11=1.0, gamma12=0.0, s12res=0.5))
        assert levels.symmetric_decay == levels.antisymmetric_decay == 1.0
        assert levels.symmetric_shift == 0.5
        assert levels.antisymmetric_shift == -0.5

    def test_arithmetic(self):
        levels = dicke_levels(make_result(gamma11=1.0, gamma12=-0.5))
        assert levels.symmetric_decay == 0.5
        assert levels.antisymmetric_decay == 1.5
        assert levels.superradiance_factor == pytest.approx(1.0 / 3.0)


class TestMarkovDiagnostic:
    def test_scale_separation_no_warning(self):
        res = make_result(gamma12=1.0)
        diag = markov_diagnostic(res, dz=1.0, gamma0_abs=1e-3 * OMEGA_A)
        assert not diag.warn

    def test_long_distance_warns(self):
        res = make_result(gamma12=1.0)
        diag = markov_diagnostic(res, dz=100.0, gamma0_abs=1e-3 * OMEGA_A)
        assert diag.warn

    def test_exact_threshold_is_quiet(self):
        res = make_result(gamma12=1.0)
        diag = markov_diagnostic(res, dz=1.0, gamma0_abs=0.1)
        assert diag.max_rate == 0.1 * diag.bandwidth
        assert not diag.warn

    def test_requires_positive_separation(self):
        with pytest.raises(DomainError):
            markov_diagnostic(make_result(), dz=0.0, gamma0_abs=1.0)

    @pytest.mark.parametrize("dz, gamma0_abs", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, -1.0), (1.0, 0.0), (1.0, math.nan),
        (1.0, math.inf)])
    def test_impossible_inputs_raise(self, dz, gamma0_abs):
        # each gave a diagnostic: a NaN or zero bandwidth read warn=False, and
        # a rate scale of -1 turned every rate negative
        with pytest.raises(DomainError, match="finite dz > 0 and gamma0_abs > 0"):
            markov_diagnostic(make_result(gamma12=1.0), dz=dz, gamma0_abs=gamma0_abs)
