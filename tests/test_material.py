import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wireqed import DomainError, DrudeModel, OMEGA_A, SpectralPoint, permittivity
from wireqed.material import permittivity_upper_half_plane
from wireqed.quadrature import kk_check


def test_lossless_drude_at_half_plasma_frequency():
    model = DrudeModel(eps_inf=1.0, omega_p=2.0, gamma_p=0.0)
    assert permittivity(model, SpectralPoint.real_axis(1.0)) == pytest.approx(-3.0)


def test_imaginary_axis_value_is_real():
    model = DrudeModel(eps_inf=1.0, omega_p=2.0, gamma_p=0.1)
    val = permittivity(model, SpectralPoint.imaginary_axis(1.0))
    assert val.imag == 0.0
    assert val.real == pytest.approx(1.0 + 4.0 / 1.1, rel=1e-12)


def test_high_frequency_transparency():
    model = DrudeModel(eps_inf=2.5, omega_p=3.0 * OMEGA_A, gamma_p=0.1)
    for w in (1e3, 1e5):
        val = permittivity(model, SpectralPoint.real_axis(w))
        assert abs(val - 2.5) < 1.01 * (model.omega_p / w) ** 2
    assert permittivity(model, SpectralPoint.real_axis(1e6)) == pytest.approx(2.5, abs=1e-6)


def test_singular_at_zero():
    model = DrudeModel()
    with pytest.raises(DomainError):
        permittivity(model, 0.0)
    with pytest.raises(DomainError):
        permittivity(model, 1e-13)


@settings(max_examples=100, deadline=None)
@given(re=st.floats(-30.0, 30.0), im=st.floats(0.0, 30.0))
def test_schwarz_reflection_symmetry(re, im):
    w = complex(re, im)
    if abs(w) < 1e-6:
        return
    model = DrudeModel(eps_inf=1.5, omega_p=4.0, gamma_p=0.2)
    lhs = permittivity_upper_half_plane(model, -w.conjugate())
    rhs = permittivity_upper_half_plane(model, w).conjugate()
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(w=st.floats(1e-3, 100.0))
def test_passivity_on_real_axis(w):
    model = DrudeModel(eps_inf=1.0, omega_p=5.0, gamma_p=0.3)
    assert permittivity(model, SpectralPoint.real_axis(w)).imag >= 0.0


def test_imaginary_axis_monotone_decreasing():
    model = DrudeModel()
    kappas = np.geomspace(1e-3, 1e3, 60)
    vals = [permittivity(model, SpectralPoint.imaginary_axis(k)).real for k in kappas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v >= model.eps_inf for v in vals)


def test_kramers_kronig_self_consistency():
    # w^2 (eps - eps_inf) approaches the real plateau -omega_p^2, which is
    # exactly the arc constant the weighted closure relation needs
    model = DrudeModel(eps_inf=1.0, omega_p=4.0 * OMEGA_A, gamma_p=0.04 * OMEGA_A)

    def eps_med(s):
        return permittivity(model, s) - model.eps_inf

    for wa in (0.7 * OMEGA_A, 1.9 * OMEGA_A):
        rep = kk_check(eps_med, wa, arc_limit=-model.omega_p**2, tol=1e-8)
        assert rep.residual < 1e-4, rep


def test_lossless_permittivity_is_kramers_kronig_degenerate():
    # gamma_p = 0 leaves Im eps = 0 on the real axis: kk_check has nothing to
    # close and says so instead of reporting a residual
    model = DrudeModel(eps_inf=1.0, omega_p=4.0 * OMEGA_A, gamma_p=0.0)

    def eps_med(s):
        return permittivity(model, s) - model.eps_inf

    rep = kk_check(eps_med, 1.7 * OMEGA_A, arc_limit=-model.omega_p**2, tol=1e-8)
    assert rep.degenerate
    assert np.isnan(rep.residual)


def test_invalid_parameters_rejected():
    with pytest.raises(DomainError):
        DrudeModel(eps_inf=0.5)
    with pytest.raises(DomainError):
        DrudeModel(omega_p=-1.0)
    with pytest.raises(DomainError):
        DrudeModel(gamma_p=-1e-3)
    nan, inf = float("nan"), float("inf")
    for bad in ({"eps_inf": nan}, {"eps_inf": inf}, {"omega_p": nan}, {"omega_p": inf},
                {"gamma_p": nan}, {"gamma_p": inf}):
        with pytest.raises(DomainError):
            DrudeModel(**bad)
