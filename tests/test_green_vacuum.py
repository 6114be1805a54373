import math

import numpy as np
import pytest

from wireqed import (CoincidenceError, DomainError, OMEGA_A, SpectralPoint, free_space_rate,
                     green_vacuum, green_vacuum_cyl, green_vacuum_im_coincident)
from wireqed.frequencies import as_spectral_point
from wireqed.green_vacuum import (cyl_to_cart_point, cylindrical_basis, green_vacuum_axial,
                                  tensor_cart_to_cyl)


def _cyl_to_cart(g, phi1, phi2):
    """The inverse of ``tensor_cart_to_cyl``, from the local bases."""
    return cylindrical_basis(phi1) @ g @ cylindrical_basis(phi2).T


def reference_tensor(r1, r2, k):
    """Independent term-by-term re-evaluation of the two-term expression."""
    d = np.asarray(r1, float) - np.asarray(r2, float)
    r = np.linalg.norm(d)
    rh = d / r
    kr = k * r
    scalar = np.exp(1j * kr) / (4 * np.pi * r)
    iso = scalar * np.eye(3) \
        + scalar * (1j / kr) * np.eye(3) \
        - scalar * (1.0 / kr**2) * np.eye(3)
    rad = -scalar * np.outer(rh, rh) \
        - scalar * (3j / kr) * np.outer(rh, rh) \
        + scalar * (3.0 / kr**2) * np.outer(rh, rh)
    return iso + rad


def test_term_by_term_oracle():
    # transverse component one wavelength away along z
    r1, r2 = np.array([0.0, 0.0, 1.0]), np.zeros(3)
    got = green_vacuum(r1, r2, SpectralPoint.real_axis(OMEGA_A)).value
    ref = reference_tensor(r1, r2, OMEGA_A)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    rng = np.random.default_rng(7)
    for _ in range(20):
        r1 = rng.uniform(-1, 1, 3)
        r2 = rng.uniform(-1, 1, 3)
        if np.linalg.norm(r1 - r2) < 0.05:
            continue
        for s in (OMEGA_A, 0.3 * OMEGA_A):
            got = green_vacuum(r1, r2, s).value
            ref = reference_tensor(r1, r2, s)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_far_field_limit():
    r1, r2 = np.array([0.0, 0.0, 50.0]), np.zeros(3)
    w = 100.0 * OMEGA_A  # |s| r ~ 3e4
    got = green_vacuum(r1, r2, w).value
    rh = np.array([0.0, 0.0, 1.0])
    ff = np.exp(1j * w * 50.0) / (4 * np.pi * 50.0) * (np.eye(3) - np.outer(rh, rh))
    assert np.max(np.abs(got - ff)) <= 2e-4 * np.max(np.abs(ff))


def test_imaginary_axis_reality():
    rng = np.random.default_rng(3)
    for _ in range(10):
        r1 = rng.uniform(-1, 1, 3)
        r2 = rng.uniform(-1, 1, 3)
        if np.linalg.norm(r1 - r2) < 0.05:
            continue
        g = green_vacuum(r1, r2, SpectralPoint.imaginary_axis(OMEGA_A)).value
        assert np.max(np.abs(g.imag)) <= 1e-10 * np.max(np.abs(g))


def test_reciprocity_exchange():
    rng = np.random.default_rng(11)
    r1 = rng.uniform(-1, 1, 3)
    r2 = rng.uniform(-1, 1, 3)
    g12 = green_vacuum(r1, r2, OMEGA_A).value
    g21 = green_vacuum(r2, r1, OMEGA_A).value
    assert np.array_equal(g12, g21.T) or np.max(np.abs(g12 - g21.T)) < 1e-16


def test_transversality_at_large_separation():
    r1, r2 = np.array([0.0, 0.0, 30.0]), np.zeros(3)
    w = 10.0 * OMEGA_A  # |s| r ~ 1.9e3
    g = green_vacuum(r1, r2, w).value
    rh = np.array([0.0, 0.0, 1.0])
    assert np.linalg.norm(g @ rh) / np.linalg.norm(g) < 1e-3


def test_coincidence_guard():
    with pytest.raises(CoincidenceError):
        green_vacuum(np.zeros(3), np.array([0.0, 0.0, 1e-10]), OMEGA_A)


@pytest.mark.parametrize("d1, d2", [
    ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
    ((0.6, 0.0, 0.8), (0.0, 0.6, -0.8)),
    ((2**-0.5, 0.0, 2**-0.5), (2**-0.5, 0.0, -2**-0.5)),
], ids=["radial", "axial", "mixed", "crossed"])
def test_axial_contraction_matches_the_tensor(d1, d2):
    # two points on one axial line: the scalar form against the full tensor
    # in the local cylindrical bases, on both axes and at either sign of dz
    d1, d2 = np.array(d1), np.array(d2)
    for s in (OMEGA_A, SpectralPoint.imaginary_axis(0.7 * OMEGA_A)):
        for dz in (-2.3, 0.02, 0.5, 1.5, 8.0):
            for rho, phi in ((0.015, 0.0), (0.3, 2.1)):
                p1, p2 = (rho, phi, 0.0), (rho, phi, -dz)
                want = d1 @ green_vacuum_cyl(p1, p2, s).value @ d2
                got = green_vacuum_axial(dz, s, float(d1 @ d2), d1[2] * d2[2])
                # |pre| <= 1 / (4 pi r) on both axes; below k r = 1 the
                # tensor's entries grow to 1 / (k r)^2 times that
                kr = abs(as_spectral_point(s).value) * abs(dz)
                scale = max(1.0, kr**-2) / (4.0 * np.pi * abs(dz))
                assert abs(got - want) <= 1e-14 * scale


def test_axial_contraction_coincidence_guard():
    with pytest.raises(CoincidenceError):
        green_vacuum_axial(1e-10, OMEGA_A, 1.0, 0.0)


def test_coincident_imaginary_part_values():
    assert green_vacuum_im_coincident(2 * np.pi) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert green_vacuum_im_coincident(6 * np.pi) == pytest.approx(1.0, rel=1e-15)


def test_rate_scaling_cubed():
    ratio = free_space_rate(2.0 * OMEGA_A) / free_space_rate(OMEGA_A)
    assert abs(ratio - 8.0) <= 8.0 * 1e-12


def test_small_separation_limit_recovers_coincident_value():
    w = OMEGA_A
    target = green_vacuum_im_coincident(w)

    def im_xx(r):
        g = green_vacuum(np.array([0.0, 0.0, r]), np.zeros(3), w)
        return g.value[0, 0].imag

    # the deviation is O((w r)^2); Richardson in r^2 anchored at r = 1e-3
    f1, f2 = im_xx(1e-3), im_xx(0.5e-3)
    extrap = (4.0 * f2 - f1) / 3.0
    assert abs(extrap - target) <= 1e-6 * target
    # plain evaluation at small r also lands within the same budget
    assert abs(im_xx(1e-4) - target) <= 1e-6 * target


def test_frame_round_trip():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    phi1, phi2 = 0.7, -1.1
    back = _cyl_to_cart(tensor_cart_to_cyl(g, phi1, phi2), phi1, phi2)
    assert np.max(np.abs(back - g)) < 1e-14

    b = cylindrical_basis(0.9)
    assert np.max(np.abs(b @ b.T - np.eye(3))) < 1e-15


def test_cylindrical_wrapper_matches_cartesian():
    p1 = (0.8, 0.3, 0.2)
    p2 = (0.5, -0.9, -0.4)
    g_cyl = green_vacuum_cyl(p1, p2, OMEGA_A).value
    g_cart = green_vacuum(cyl_to_cart_point(*p1), cyl_to_cart_point(*p2), OMEGA_A).value
    assert np.max(np.abs(_cyl_to_cart(g_cyl, p1[1], p2[1]) - g_cart)) < 1e-14


@pytest.mark.parametrize("tensor", [
    lambda s: green_vacuum((0.8, 0.0, 0.2), (0.5, 0.1, -0.4), s),
    lambda s: green_vacuum_cyl((0.8, 0.3, 0.2), (0.5, -0.9, -0.4), s),
    lambda s: green_vacuum_axial(0.6, s, 1.0, 0.0),
], ids=["cartesian", "cylindrical", "axial"])
@pytest.mark.parametrize("s", [0.0, 0j, SpectralPoint(0.0)], ids=["float", "complex", "point"])
def test_zero_frequency_raises_domain_error(tensor, s):
    # 1 / (k r) has no static limit in the closed form: a ZeroDivisionError
    # before the check
    with pytest.raises(DomainError, match="nonzero frequency"):
        tensor(s)


@pytest.mark.parametrize("omega", [math.inf, math.nan])
@pytest.mark.parametrize("limit", [green_vacuum_im_coincident, free_space_rate],
                         ids=["im_coincident", "free_space_rate"])
def test_coincident_limit_needs_a_finite_positive_frequency(limit, omega):
    # inf returned inf and NaN returned NaN, past the check omega <= 0
    with pytest.raises(DomainError, match="omega"):
        limit(omega)
