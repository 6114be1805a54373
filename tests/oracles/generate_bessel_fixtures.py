"""Generate reference values for the cylindrical function tests.

``bessel_reference.json``: 200 random (order, argument) pairs of the upper
half-plane.  Primary reference: mpmath at 30 significant digits (series /
asymptotic evaluation independent of the double-precision ladders).  A
double-precision ascending-series + Miller-backward-recurrence J oracle is
run alongside wherever doubles can represent the result, as a second
independent cross-check of the reference itself.

``bessel_visited.json``: arguments the program itself passes to each of the
four ladders (``j_orders``, ``h_orders``, ``ive_orders``, ``kve_orders``),
recorded while it runs the default ``sweep``, a dense ``PairInteraction``
(radius 0.01, rho 0.03, tol 1e-6), coincident ``wire_green`` tensors on the
Kramers-Kronig test's wire (the benchmark's anchor frequencies and every
tenth frequency of that test's grid, "kk") and the plasmon pole search; then
a few edge arguments the runs do not reach: below ``SERIES_MAX`` (where
SciPy's top order underflows), next to ``OVERFLOW_GUARD``, at the
branch-floor clamp, just above ``TEMME_MAX`` and in the lower half-plane.
Each argument keeps the ladder's nmax, and its orders 0..nmax+1 are
evaluated in mpmath at 50 digits and again at 60; the two must agree to
1e-30.

Run from the repository root:

    python tests/oracles/generate_bessel_fixtures.py

and commit the regenerated fixtures.
"""

import json
import math
import pathlib
import random
import sys
import tempfile

import mpmath
import numpy as np

mpmath.mp.dps = 30

N_POINTS = 200
SEED = 745912


def series_j(n, z, terms=120):
    """Ascending power series for J_n, valid while cancellation is mild."""
    half = z / 2.0
    term = half**n / math.factorial(n)
    total = term
    for m in range(1, terms):
        term *= -(half * half) / (m * (m + n))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def miller_j(n, z, extra=40):
    """Miller backward recurrence for the J ladder, normalized through
    J_0 + 2 J_2 + 2 J_4 + ... = 1 (valid for complex arguments).

    Working values are rescaled on the fly; the far-downward recurrence
    otherwise overflows doubles for small |z|.
    """
    top = int(n + abs(z) + extra)
    if top % 2:
        top += 1
    j_above = 0.0 + 0.0j          # jj[k+1]
    j_here = 1e-30 + 0.0j         # jj[k]
    norm = 2.0 * j_here           # jj[top], top even
    jn = j_here if n == top else 0.0 + 0.0j
    for k in range(top, 0, -1):
        j_below = (2.0 * k / z) * j_here - j_above
        if k - 1 == n:
            jn = j_below
        if k - 1 == 0:
            norm += j_below
        elif (k - 1) % 2 == 0:
            norm += 2.0 * j_below
        j_above, j_here = j_here, j_below
        if abs(j_here) > 1e250:
            s = 1e-250
            j_above *= s
            j_here *= s
            norm *= s
            jn *= s
    return jn / norm


def main():
    rng = random.Random(SEED)
    rows = []
    worst_cross = 0.0
    while len(rows) < N_POINTS:
        n = rng.randint(0, 20)
        r = math.exp(rng.uniform(math.log(0.01), math.log(50.0)))
        phase = rng.uniform(0.0, math.pi)
        z = complex(r * math.cos(phase), r * math.sin(phase))
        if abs(z.imag) > 60.0:
            continue  # keep J_n representable in doubles

        zm = mpmath.mpc(z.real, z.imag)

        def hankel1(order):
            """H^(1) through K_n(-i z): stable where J + iY cancels
            exp(2 Im z) digits."""
            order = abs(order)  # callers only reflect at order -1
            if zm.imag > 1.0:
                val = 2 / mpmath.pi * mpmath.mpc(1j) ** (-(order + 1)) \
                    * mpmath.besselk(order, -1j * zm)
            else:
                val = mpmath.besselj(order, zm) + 1j * mpmath.bessely(order, zm)
            return val

        j = mpmath.besselj(n, zm)
        h = hankel1(n)
        jm1 = mpmath.besselj(n - 1, zm) if n > 0 else -mpmath.besselj(1, zm)
        jp1 = mpmath.besselj(n + 1, zm)
        hm1 = hankel1(n - 1) if n > 0 else -hankel1(1)
        hp1 = hankel1(n + 1)
        jp = (jm1 - jp1) / 2
        hp = (hm1 - hp1) / 2

        if 1.0 < zm.imag < 12.0:
            alt = mpmath.besselj(n, zm) + 1j * mpmath.bessely(n, zm)
            worst_cross = max(worst_cross, float(abs(alt - h) / abs(h)))

        # independent double-precision cross-checks of the reference J,
        # inside the region where doubles can represent the computation:
        # the Miller normalization sum cancels to ~exp(2|Im z|) ulps
        if abs(z) <= 12.0 and abs(z.imag) < 8.0:
            js = series_j(n, z)
            worst_cross = max(worst_cross, abs(js - complex(j)) / max(abs(complex(j)), 1e-300))
        if abs(z.imag) <= 10.0 and abs(complex(j)) > 1e-250:
            jmill = miller_j(n, z)
            worst_cross = max(worst_cross, abs(jmill - complex(j)) / abs(complex(j)))

        rows.append({
            "n": n, "z_re": z.real, "z_im": z.imag,
            "j_re": float(j.real), "j_im": float(j.imag),
            "h_re": float(h.real), "h_im": float(h.imag),
            "jp_re": float(jp.real), "jp_im": float(jp.imag),
            "hp_re": float(hp.real), "hp_im": float(hp.imag),
        })

    assert worst_cross < 5e-10, f"cross-check disagreement {worst_cross:.2e}"
    out = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "bessel_reference.json"
    out.write_text(json.dumps({"seed": SEED, "cross_check_worst": worst_cross,
                               "points": rows}, indent=1) + "\n")
    print(f"wrote {len(rows)} points to {out}; cross-check worst {worst_cross:.2e}")


#: Arguments kept per workload and ladder, spread over the ranks of |z|.
PER_SOURCE = 20
#: Arguments kept from the pole search (nmax 0, complex kz) per ladder.
POLE_SEARCH = 8
ROOT = pathlib.Path(__file__).resolve().parents[2]
LADDERS = ("j_orders", "h_orders", "ive_orders", "kve_orders")


def record():
    """{ladder: [(source, nmax, z)]} from runs of the program with the
    ladders wrapped where ``green_wire`` looks them up."""
    sys.path.insert(0, str(ROOT / "src"))
    from wireqed import cli, green_wire
    from wireqed.emitters import EmitterPair, PairInteraction
    from wireqed.frequencies import OMEGA_A, SpectralPoint
    from wireqed.green_wire import WireGeometry
    from wireqed.material import DrudeModel

    seen = {name: [] for name in LADDERS}
    source = ["sweep"]

    def wrap(name):
        fn = getattr(green_wire, name)

        def recorded(nmax, z):
            zs = np.atleast_1d(z).ravel()
            tag = "pole search" if nmax == 0 and np.iscomplexobj(zs) else source[0]
            seen[name].extend((tag, int(nmax), v) for v in zs.tolist())
            return fn(nmax, z)
        return fn, recorded

    originals = {name: wrap(name) for name in LADDERS}
    for name, (_, recorded) in originals.items():
        setattr(green_wire, name, recorded)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cli.main(["sweep", "--config", str(ROOT / "configs" / "default.json"),
                      "--threads", "1", "--out", str(pathlib.Path(tmp) / "sweep.csv")])
        source[0] = "dense"
        pair = PairInteraction(WireGeometry(radius=0.01, model=DrudeModel()),
                               EmitterPair((0.03, 0.0, 0.0), (0.03, 0.0, 0.02)), tol=1e-6,
                               dz_refs=(0.0, 0.02, 4.01, 8.0))
        for dz in (0.02, 0.5, 4.0, 8.0):
            pair.at(dz)
        geom = WireGeometry(radius=0.01, model=DrudeModel(
            eps_inf=1.0, omega_p=6.0 * OMEGA_A, gamma_p=0.12 * OMEGA_A))
        grid = np.unique(np.concatenate([
            np.linspace(0.02, 3.8, 70), np.linspace(0.6, 1.5, 30),
            np.linspace(3.8, 4.6, 260), np.linspace(4.6, 12.0, 60),
            np.linspace(12.0, 60.0, 40), np.geomspace(60.0, 350.0, 40)]))
        p = (0.015, 0.0, 0.0)
        for tag, freqs in (("spectrum", (0.5, 1.0, 4.2, 8.0)), ("kk", grid[::10])):
            source[0] = tag
            for f in freqs:
                green_wire.wire_green(geom, p, p, SpectralPoint.real_axis(f * OMEGA_A),
                                      tol=1e-6, budget=160000)
    finally:
        for name, (fn, _) in originals.items():
            setattr(green_wire, name, fn)
    return seen


def pick(calls, count):
    """``count`` distinct (nmax, z) at evenly spaced ranks of |z|, ends included."""
    calls = sorted(set(calls), key=lambda c: (abs(c[2]), c[1], str(c[2])))
    if len(calls) <= count:
        return calls
    ranks = np.unique(np.round(np.linspace(0, len(calls) - 1, count)).astype(int))
    return [calls[i] for i in ranks]


def edge_arguments():
    """Arguments the recorded runs do not reach, per ladder."""
    from wireqed.bessel import N_MAX, safe_min_arg
    floor = safe_min_arg(N_MAX + 1)
    return {
        "j_orders": [(N_MAX, z) for z in (1e-9 + 0j, 1e-7j, floor + 0j, 1j * floor, 999.0 + 0j,
                                           700.0j, 600.0 + 700.0j, 1.0 - 2.0j, -0.5 - 0.1j)],
        # just above TEMME_MAX, where each trapezoid takes its finest step
        "h_orders": [(N_MAX, z) for z in (floor + 0j, 1j * floor, 1.6 + 0j, 1.6j, 4.0 + 0j,
                                           999.0 + 0j, -999.0 + 1.0j, 600.0 + 300.0j,
                                           1.0 - 2.0j, -0.5 - 0.1j)],
        "ive_orders": [(N_MAX, y) for y in (1e-9, 1e-7, 1e-4, 714.0, 900.0, 5000.0)],
        "kve_orders": [(N_MAX, y) for y in (1e-5, 1e-3, 0.999, 1.001, 1.6, 4.0, 714.0, 900.0)],
    }


def reference(name, n, z):
    """Orders 0..n of one ladder at argument z in mpmath at the working precision."""
    if name == "ive_orders":
        y = mpmath.mpf(z)
        return [mpmath.besseli(k, y) * mpmath.exp(-y) for k in range(n + 1)]
    if name == "kve_orders":
        y = mpmath.mpf(z)
        return [mpmath.besselk(k, y) * mpmath.exp(y) for k in range(n + 1)]
    zm = mpmath.mpc(z.real, z.imag)
    if name == "j_orders":
        return [mpmath.besselj(k, zm) for k in range(n + 1)]
    if zm.imag >= 0:
        # through K_n(-iz): J + iY cancels exp(2 Im z) digits
        return [2 / mpmath.pi * mpmath.mpc(0, 1) ** (-k - 1) * mpmath.besselk(k, -1j * zm)
                for k in range(n + 1)]
    return [mpmath.hankel1(k, zm) for k in range(n + 1)]


def visited():
    seen = record()
    edges = edge_arguments()
    out = {}
    worst_cross = 0.0
    for name in LADDERS:
        by_source = {}
        for tag, nmax, z in seen[name]:
            by_source.setdefault(tag, []).append((tag, nmax, z))
        chosen = []
        for tag, calls in sorted(by_source.items()):
            chosen += pick(calls, POLE_SEARCH if tag == "pole search" else PER_SOURCE)
        chosen += [("edge", nmax, z) for nmax, z in edges[name]]
        rows = []
        for tag, nmax, z in chosen:
            with mpmath.workdps(50):
                ref = reference(name, nmax + 1, z)
            with mpmath.workdps(60):
                check = reference(name, nmax + 1, z)
            scale = max(abs(v) for v in check)
            worst_cross = max(worst_cross, float(max(abs(a - b) for a, b in zip(ref, check))
                                                 / scale))
            real = name in ("ive_orders", "kve_orders")
            rows.append({"source": tag, "nmax": nmax,
                         "z": z if real else [z.real, z.imag],
                         "f": [float(v) if real else [float(v.real), float(v.imag)]
                               for v in ref]})
        out[name] = rows
        print(f"{name}: {len(rows)} arguments")
    assert worst_cross < 1e-30, f"50/60-digit disagreement {worst_cross:.2e}"
    path = ROOT / "tests" / "fixtures" / "bessel_visited.json"
    path.write_text(json.dumps({"dps": 50, "cross_check_worst": worst_cross, "ladders": out},
                               separators=(",", ":")) + "\n")
    print(f"wrote {path}; 50/60-digit worst {worst_cross:.2e}")


if __name__ == "__main__":
    main()
    visited()
