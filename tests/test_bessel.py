import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from wireqed import DomainError, OverflowGuardError, bessel_jh
from wireqed.bessel import (N_MAX, h_orders, ive_orders, j_orders, jh_orders, kve_orders,
                            safe_min_arg)

from conftest import load_fixture


def series_j0(z, terms=30):
    # ascending series, the stated derivation for the J_0(1) check
    term = 1.0 + 0j
    total = term
    for m in range(1, terms):
        term *= -(z * z / 4.0) / (m * m)
        total += term
    return total


def test_j0_at_one_matches_series():
    val = bessel_jh(0, 1.0 + 0j)
    assert val.j == pytest.approx(series_j0(1.0), rel=1e-12)
    assert val.j == pytest.approx(0.7651976866, rel=1e-9)


def test_j1_vanishes_at_small_argument():
    for eps in (1e-6, 1e-9):
        val = bessel_jh(1, complex(0.0, eps))
        assert abs(val.j) < 1e-5
    assert abs(bessel_jh(1, 1e-12 + 0j).j) < 1e-11


def test_wronskian_at_complex_point():
    z = 2.0 + 1.0j
    val = bessel_jh(0, z)
    target = 2j / (math.pi * z)
    assert abs(val.wronskian() - target) <= 1e-10 * abs(target)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=20),
    logr=st.floats(min_value=math.log(0.01), max_value=math.log(50.0)),
    phase=st.floats(min_value=0.0, max_value=math.pi),
)
def test_wronskian_upper_half_plane(n, logr, phase):
    r = math.exp(logr)
    z = complex(r * math.cos(phase), r * math.sin(phase))
    if abs(z.imag) > 120.0 or abs(z) < 1e-8:
        return
    val = bessel_jh(n, z)
    target = 2j / (math.pi * z)
    assert abs(val.wronskian() - target) <= 1e-10 * abs(target)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=19),
    logr=st.floats(min_value=math.log(0.05), max_value=math.log(40.0)),
    phase=st.floats(min_value=0.0, max_value=math.pi),
)
def test_recurrence_consistency(n, logr, phase):
    r = math.exp(logr)
    z = complex(r * math.cos(phase), r * math.sin(phase))
    if abs(z.imag) > 60.0:
        return
    lo, hi, me = bessel_jh(n - 1, z), bessel_jh(n + 1, z), bessel_jh(n, z)
    lhs = lo.j + hi.j
    rhs = 2.0 * n / z * me.j
    scale = max(abs(lhs), abs(rhs), abs(me.j))
    assert abs(lhs - rhs) <= 1e-9 * scale


def test_imaginary_axis_gives_modified_bessel():
    # i^n J_n(ix) is the real, positive I_n(x)
    for n in (0, 1, 3, 7, 15):
        for x in (0.05, 1.0, 10.0, 40.0):
            val = bessel_jh(n, complex(0.0, x))
            scaled = (1j**n).conjugate() * val.j  # i^{-n} J_n(ix)
            assert scaled.real > 0.0
            assert abs(scaled.imag) < 1e-12 * abs(scaled)


def test_derivative_definition():
    z = 3.0 + 0.5j
    for n in (0, 1, 5):
        v = bessel_jh(n, z)
        lo = bessel_jh(n - 1, z) if n > 0 else None
        hi = bessel_jh(n + 1, z)
        if n == 0:
            assert v.jprime == pytest.approx(-hi.j, rel=1e-14)
        else:
            assert v.jprime == pytest.approx((lo.j - hi.j) / 2.0, rel=1e-14)


def test_negative_order_reflection():
    z = 1.7 + 0.4j
    for n in (1, 2, 5):
        direct = bessel_jh(n, z)
        reflected = bessel_jh(-n, z)
        sign = (-1.0) ** n
        assert reflected.j == pytest.approx(sign * direct.j, rel=1e-14)
        assert reflected.h1 == pytest.approx(sign * direct.h1, rel=1e-14)


def test_reference_fixture_agreement():
    data = load_fixture("bessel_reference.json")
    worst = 0.0
    for row in data["points"]:
        z = complex(row["z_re"], row["z_im"])
        val = bessel_jh(row["n"], z)
        for got, (re, im) in [
            (val.j, (row["j_re"], row["j_im"])),
            (val.h1, (row["h_re"], row["h_im"])),
            (val.jprime, (row["jp_re"], row["jp_im"])),
            (val.h1prime, (row["hp_re"], row["hp_im"])),
        ]:
            ref = complex(re, im)
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-280))
    assert worst < 1e-9, f"worst relative deviation {worst:.2e}"
    assert len(data["points"]) == 200


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_jh(0, 0.0)
    with pytest.raises(DomainError):
        bessel_jh(41, 1.0)
    with pytest.raises(OverflowGuardError):
        bessel_jh(0, 2.0e3 + 0j)
    with pytest.raises(OverflowGuardError):
        jh_orders(3, np.array([1.0 + 0j, 1.5e3 + 0j]))


@pytest.mark.parametrize("call", [
    lambda: bessel_jh(0, math.nan),
    lambda: bessel_jh(2, complex(1.0, math.inf)),
    lambda: j_orders(3, np.array([1.0, 1.0 + 1j * math.nan])),
    lambda: h_orders(3, np.array([complex(math.nan, 0.0)])),
    lambda: jh_orders(3, np.array([1.0 + 0j, complex(-math.inf, 1.0)])),
    lambda: ive_orders(3, np.array([1.0, math.nan])),
    lambda: kve_orders(3, np.array([math.nan, 1.0])),
], ids=["bessel_jh_nan", "bessel_jh_inf", "j_orders", "h_orders", "jh_orders",
        "ive_orders", "kve_orders"])
def test_non_finite_arguments_raise_domain_error(call):
    # rejected before any evaluation: no numpy warning, no overflow error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("z", [1.0 - 2.0j, -0.5 - 0.1j], ids=str)
def test_lower_half_plane_matches_scipy(z):
    # J_n(conj z) = conj J_n(z) and H_n(conj z) = conj(2 J_n(z) - H_n(z))
    j, h, jp, hp = jh_orders(N_MAX, np.array([z]))
    orders = np.arange(N_MAX + 2)
    for got, got_p, ref in ((j, jp, special.jv(orders, z)), (h, hp, special.hankel1(orders, z))):
        ref_p = np.concatenate([[-ref[1]], (ref[:-2] - ref[2:]) / 2.0])
        scale = np.maximum(np.abs(ref[:-1]), np.abs(ref_p))
        assert np.all(np.abs(got[:, 0] - ref[:-1]) <= 1e-12 * scale)
        assert np.all(np.abs(got_p[:, 0] - ref_p) <= 1e-12 * scale)
    for n in (0, 1, 7, N_MAX):
        val = bessel_jh(n, z)
        target = 2j / (math.pi * z)
        assert abs(val.wronskian() - target) <= 1e-10 * abs(target)


def test_order_ladder_matches_scalar():
    z = np.array([0.7 + 0.2j, 5.0 + 1.0j])
    j, h, jp, hp = jh_orders(6, z)
    for n in (0, 3, 6):
        for i, zz in enumerate(z):
            v = bessel_jh(n, zz)
            assert j[n, i] == pytest.approx(v.j, rel=1e-14)
            assert hp[n, i] == pytest.approx(v.h1prime, rel=1e-14)


LADDER_ARGUMENTS = [
    0.5, 7.0, 44.0, 600.0,                           # real: both sides of n = |z|
    0.05j, 3.0j, 40.0j, 300.0j,                      # imaginary axis
    0.02 + 0.01j, 5.0 + 3.0j, 20.0 + 15.0j, -30.0 + 2.0j,  # upper half-plane
    safe_min_arg(N_MAX + 1), 1j * safe_min_arg(N_MAX + 1),  # branch-floor clamp
]


@pytest.mark.parametrize("z", LADDER_ARGUMENTS, ids=str)
def test_hankel_recurrence_matches_direct_evaluation(z):
    # the ladder recurs H upward from orders 0 and 1; it must agree with a
    # direct evaluation at every order, derivatives included
    _, h, _, hp = jh_orders(N_MAX, np.array([z]))
    orders = np.arange(N_MAX + 2)
    ref = special.hankel1(orders, z)
    ref_p = np.concatenate([[-ref[1]], (ref[:-2] - ref[2:]) / 2.0])
    assert np.max(np.abs(h[:, 0] - ref[:-1]) / np.abs(ref[:-1])) <= 1e-12
    assert np.max(np.abs(hp[:, 0] - ref_p) / np.abs(ref_p)) <= 1e-12


def _direct(fn, mp_fn, z):
    """Orders 0..N_MAX+1 of ``fn`` from SciPy, or from ``mp_fn`` at 30 digits
    where SciPy's top order underflows: there AMOS flushes values a double
    holds (it returns J_28(1e-9) = 1.2e-290 and e^-y I_36(1e-7) = 3.9e-305
    as 0)."""
    ref = fn(np.arange(N_MAX + 2), z)
    if abs(ref[-1]) >= np.finfo(float).tiny:
        return ref
    cast = complex if np.iscomplexobj(ref) else float
    with mpmath.workdps(30):
        return np.array([cast(mp_fn(n, z)) for n in range(N_MAX + 2)])


def _mp_ive(n, y):
    return mpmath.besseli(n, y) * mpmath.exp(-y)


@pytest.mark.parametrize("z", LADDER_ARGUMENTS + [
    700.0j,             # deep evanescent tail, just inside the overflow limit
    1e-9, 1e-7j,        # below SERIES_MAX: the ascending series gives every order
], ids=str)
def test_j_recurrence_matches_direct_evaluation(z):
    # Miller's ladder (or the series) must agree with a direct evaluation at
    # every order, derivatives included
    j, jp = j_orders(N_MAX, np.array([z]))
    ref = _direct(special.jv, mpmath.besselj, z)
    ref_p = np.concatenate([[-ref[1]], (ref[:-2] - ref[2:]) / 2.0])
    scale = np.maximum(np.abs(ref[:-1]), np.abs(ref_p))
    assert np.all(np.abs(j[:, 0] - ref[:-1]) <= 1e-12 * scale)
    assert np.all(np.abs(jp[:, 0] - ref_p) <= 1e-12 * scale)


def test_j_ladder_columns_are_independent_of_the_batch():
    # an underflowed column takes the direct ladder without touching its
    # neighbour, and an overflowed one still raises
    z = np.array([1e-9 + 0j, 5.0 + 3.0j])
    j, jp = j_orders(N_MAX, z)
    for i, zz in enumerate(z):
        j1, jp1 = j_orders(N_MAX, np.array([zz]))
        np.testing.assert_array_equal(j[:, i], j1[:, 0])
        np.testing.assert_array_equal(jp[:, i], jp1[:, 0])
    with pytest.raises(OverflowGuardError):
        j_orders(N_MAX, np.array([720.0j]))


# 1e-9 and 1e-7 lie below SERIES_MAX, where the series gives every order; the
# unscaled I_0 overflows above about 714
SCALED_ARGUMENTS = [1e-9, 1e-7, 1e-5, 1e-3, 0.05, 0.5, 7.0, 44.0, 300.0, 714.0, 900.0]


def _modified_reference(fn, y, sign, mp_fn=None):
    ref = fn(np.arange(N_MAX + 2), y) if mp_fn is None else _direct(fn, mp_fn, y)
    ref_p = sign * np.concatenate([[ref[1]], (ref[:-2] + ref[2:]) / 2.0])
    return ref[:-1], ref_p


@pytest.mark.parametrize("y", SCALED_ARGUMENTS, ids=str)
def test_scaled_i_ladder_matches_direct_evaluation(y):
    # e^-y I_n by Miller's algorithm (or the series) against
    # scipy.special.ive at every order, derivatives included
    i, ip = ive_orders(N_MAX, np.array([y]))
    ref, ref_p = _modified_reference(special.ive, y, 1.0, _mp_ive)
    scale = np.maximum(np.abs(ref), np.abs(ref_p))
    assert np.all(np.abs(i[:, 0] - ref) <= 1e-12 * scale)
    assert np.all(np.abs(ip[:, 0] - ref_p) <= 1e-12 * scale)


@pytest.mark.parametrize("y", SCALED_ARGUMENTS, ids=str)
def test_scaled_k_ladder_matches_direct_evaluation(y):
    # e^y K_n recurred upward from orders 0 and 1 against scipy.special.kve;
    # where K_{N_MAX+1} overflows the ladder raises instead
    if not np.isfinite(special.kve(N_MAX + 1, y)):
        with pytest.raises(OverflowGuardError):
            kve_orders(N_MAX, np.array([y]))
        return
    k, kp = kve_orders(N_MAX, np.array([y]))
    ref, ref_p = _modified_reference(special.kve, y, -1.0)
    scale = np.maximum(np.abs(ref), np.abs(ref_p))
    assert np.all(np.abs(k[:, 0] - ref) <= 1e-12 * scale)
    assert np.all(np.abs(kp[:, 0] - ref_p) <= 1e-12 * scale)


def test_scaled_ladder_columns_are_independent_of_the_batch():
    # an underflowed I column takes the direct ladder without touching its
    # neighbours; an overflowed K column still raises
    for ladder, y in ((ive_orders, np.array([1e-9, 5.0, 900.0])),
                      (kve_orders, np.array([1e-5, 5.0, 900.0]))):
        batch = ladder(N_MAX, y)
        for i, yy in enumerate(y):
            for got, alone in zip(batch, ladder(N_MAX, np.array([yy]))):
                np.testing.assert_array_equal(got[:, i], alone[:, 0])
    with pytest.raises(OverflowGuardError):
        kve_orders(N_MAX, np.array([1e-9, 5.0]))
    with pytest.raises(DomainError):
        ive_orders(N_MAX, np.array([0.0, 1.0]))


_SCIPY = {"j_orders": special.jv, "h_orders": special.hankel1,
          "ive_orders": special.ive, "kve_orders": special.kve}
_LADDER = {"j_orders": j_orders, "h_orders": h_orders,
           "ive_orders": ive_orders, "kve_orders": kve_orders}


def _derivative(f, name):
    # the ladders' own derivative recurrences, on orders 0..nmax+1
    if name == "ive_orders":
        return np.concatenate([f[1:2], (f[:-2] + f[2:]) / 2.0])
    if name == "kve_orders":
        return -np.concatenate([f[1:2], (f[:-2] + f[2:]) / 2.0])
    return np.concatenate([-f[1:2], (f[:-2] - f[2:]) / 2.0])


def _worst_by_order(name, rows, evaluate):
    """Largest scaled deviation from the 50-digit reference, per order:
    max(|f_n - ref_n|, |f'_n - ref'_n|) / max(|ref_n|, |ref'_n|)."""
    worst = np.zeros(N_MAX + 1)
    for row in rows:
        nmax = row["nmax"]
        ref = np.array([complex(*v) if isinstance(v, list) else v for v in row["f"]])
        z = complex(*row["z"]) if isinstance(row["z"], list) else row["z"]
        ref_p = _derivative(ref, name)
        f, fp = evaluate(nmax, z)
        scale = np.maximum(np.abs(ref[:-1]), np.abs(ref_p))
        with np.errstate(invalid="ignore", over="ignore"):
            dev = np.maximum(np.abs(f - ref[:-1]), np.abs(fp - ref_p)) / scale
        dev = np.where(scale > 0, np.where(np.isnan(dev), np.inf, dev), 0.0)
        worst[: nmax + 1] = np.maximum(worst[: nmax + 1], dev)
    return worst


#: Deviations below 8 ulps count as exact in the per-order comparison: both
#: the recurrences and SciPy's direct evaluation sit there at low orders, and
#: which one rounds luckier at one order is noise.
_ROUNDOFF = 8 * np.finfo(float).eps


@pytest.mark.parametrize("name", sorted(_LADDER))
def test_ladders_no_worse_than_scipy_on_visited_arguments(name):
    # arguments the program passes to each ladder (tests/oracles records
    # them from sweep, dense, spectrum, the Kramers-Kronig grid and the
    # pole search, plus edge arguments); per order, the ladder's largest
    # scaled deviation from mpmath must not exceed SciPy's own above
    # roundoff, and its largest over all orders must not exceed SciPy's
    rows = load_fixture("bessel_visited.json")["ladders"][name]
    assert len(rows) >= 40

    def ladder(nmax, z):
        f, fp = _LADDER[name](nmax, np.array([z]))
        return f[:, 0], fp[:, 0]

    def scipy_direct(nmax, z):
        with np.errstate(all="ignore"):
            f = _SCIPY[name](np.arange(nmax + 2), z)
        return f[:-1], _derivative(f, name)

    ours = _worst_by_order(name, rows, ladder)
    theirs = _worst_by_order(name, rows, scipy_direct)
    worse = ours > np.maximum(theirs, _ROUNDOFF)
    assert not worse.any(), (f"orders {np.flatnonzero(worse).tolist()}: "
                             f"ladder {ours[worse]} against SciPy {theirs[worse]}")
    assert ours.max() <= theirs.max()
