"""Generate 50-digit reference tensors for spectrum nodes next to the branch
point |kz| = |k|.

There the wall solve's reflection amplitudes scale as eta1^2, so roundoff
in them is amplified like 1/eta1^4 in the assembled tensor.  Each node's
scattered spectrum T(+kz) is summed here the direct way, with no symmetry
fold: for every signed order n = -nmax..nmax the full 4x4
tangential-continuity system is solved at +kz with mpmath Bessel functions
of order n, and its (M, N) amplitudes are assembled with the field and
source vectors of ``wireqed.green_wire``'s normalization,

    T = (i / 8 pi eta1^2) sum_n e^{i n dphi} [V_M (x) Mt + V_N (x) Nt].

The inputs are double-precision numbers, formed as the evaluator forms
them (the permittivity, and eta1 = sqrt(k^2 - kz^2) on the Im >= 0 branch,
clamped to 1e-3 max(|k|, 1) along its own side of the branch point), and
stored with the tensor; the reference is exact for those inputs.  Every
node is summed at 50 and at 70 digits, and the two must agree to 1e-20 of
the node's largest component (mpmath's J_n loses up to 16 digits at some
small real arguments, so the sums keep about 22 of their 50).

Run from the repository root:

    python tests/oracles/generate_ring_fixtures.py

and commit the regenerated ``tests/fixtures/ring_reference.json``.
"""

import cmath
import json
import math
import pathlib

import mpmath

DPS = 50
OMEGA_A = 2.0 * math.pi
RADIUS, RHO, NMAX = 0.01, 0.015, 40
# (eps_inf, omega_p, gamma_p): the default metal and the lossier one of the
# Kramers-Kronig closure test
METALS = {"default": (1.0, 6.0 * OMEGA_A, 0.012 * OMEGA_A),
          "kk": (1.0, 6.0 * OMEGA_A, 0.12 * OMEGA_A)}


def _node(name, metal, axis, value, kz):
    return {"name": name, "metal": metal, "axis": axis, "value": value, "kz": kz}


NODES = [
    # |eta1| = 0.5 at 4.2 omega_A on either side of the branch point
    *[_node(f"kk_4.2_{side}", "kk", "real", 4.2 * OMEGA_A,
            math.sqrt((4.2 * OMEGA_A) ** 2 - sign * 0.5**2))
      for side, sign in (("propagating", 1.0), ("evanescent", -1.0))],
    # |eta1| = sqrt(kappa^2 + kz^2) = 5.9e-4, clamped to 1e-3 on +i
    _node("imag_clamped", "default", "imaginary", 3.48e-4, 4.74e-4),
]


def permittivity(metal, axis, value):
    """The Drude permittivity in double precision, as ``wireqed.material``
    forms it."""
    eps_inf, wp, gp = METALS[metal]
    if axis == "imaginary":
        return complex(eps_inf + wp**2 / (value * (value + gp)))
    omega = complex(value)
    return eps_inf - wp**2 / (omega * omega + 1j * gp * omega)


def inputs(node):
    """k1, eps2 and eta1 of a node, in double precision."""
    k1 = 1j * node["value"] if node["axis"] == "imaginary" else complex(node["value"])
    kz = node["kz"]
    eta1 = cmath.sqrt(k1 * k1 - complex(kz) ** 2)
    if eta1.imag < 0.0:
        eta1 = -eta1
    floor = 1e-3 * max(abs(k1), 1.0)
    if abs(eta1) < floor:
        propagating = abs(kz) <= abs(k1) and node["axis"] == "real"
        eta1 = complex(floor) if propagating else 1j * floor
    return k1, permittivity(node["metal"], node["axis"], node["value"]), eta1


def tensor(k1, eps2, kz, eta1, dphi=0.0):
    """T(+kz), 3x3 nested lists of mpc, at the current mpmath precision."""
    k1, eps2, eta1 = mpmath.mpc(k1), mpmath.mpc(eps2), mpmath.mpc(eta1)
    kz, a, rho = mpmath.mpf(kz), mpmath.mpf(RADIUS), mpmath.mpf(RHO)
    k2 = k1 * mpmath.sqrt(eps2)
    eta2 = mpmath.sqrt(k2**2 - kz**2)
    if eta2.imag < 0:
        eta2 = -eta2
    e1, e2 = eta1, eta2

    def pair(fn, n, z):
        return fn(n, z), (fn(n - 1, z) - fn(n + 1, z)) / 2

    total = mpmath.zeros(3, 3)
    for n in range(-NMAX, NMAX + 1):
        cpl = n * kz
        J1, J1p = pair(mpmath.besselj, n, e1 * a)
        H1, H1p = pair(mpmath.hankel1, n, e1 * a)
        J2, J2p = pair(mpmath.besselj, n, e2 * a)
        H, Hp = pair(mpmath.hankel1, n, e1 * rho)
        # rows: E_z, H_z, E_phi, H_phi continuity at rho = a; unknowns
        # (a_M, b_N) scattered and (c_M, d_N) interior, times H1 and J2 so
        # the columns are of one size; one right-hand side per incident
        # wave, M then N
        u, v = H1p / H1, J2p / J2
        A = mpmath.matrix([
            [0, e1**2 / k1, 0, -e2**2 / k2],
            [e1**2, 0, -e2**2, 0],
            [-e1 * u, -cpl / (k1 * a), e2 * v, cpl / (k2 * a)],
            [-cpl / a, -k1 * e1 * u, cpl / a, k2 * e2 * v]])
        rhs = [mpmath.matrix([0, -e1**2 * J1, e1 * J1p, cpl / a * J1]),
               mpmath.matrix([-e1**2 / k1 * J1, 0, cpl / (k1 * a) * J1, k1 * e1 * J1p])]
        # the field vectors at rho1 over H1, as the unknowns carry H1
        M = [1j * n / rho * H / H1, -e1 * Hp / H1, 0]
        N = [1j * kz * e1 * Hp / (k1 * H1), -n * kz * H / (k1 * rho * H1),
             e1**2 * H / (k1 * H1)]
        Mt = [-1j * n / rho * H, -e1 * Hp, 0]
        Nt = [-1j * kz * e1 * Hp / k1, -n * kz * H / (k1 * rho), e1**2 * H / k1]
        phase = mpmath.expj(n * dphi)
        for source, b in zip((Mt, Nt), rhs):
            amp = mpmath.lu_solve(A, b)
            field = [amp[0] * m + amp[1] * nv for m, nv in zip(M, N)]
            for i in range(3):
                for j in range(3):
                    total[i, j] += phase * field[i] * source[j]
    pref = 1j / (8 * mpmath.pi * e1**2)
    return [[pref * total[i, j] for j in range(3)] for i in range(3)]


def main():
    rows, worst = [], 0.0
    for node in NODES:
        k1, eps2, eta1 = inputs(node)
        with mpmath.workdps(DPS):
            T = tensor(k1, eps2, node["kz"], eta1)
        with mpmath.workdps(DPS + 20):
            T_fine = tensor(k1, eps2, node["kz"], eta1)
        scale = max(abs(T_fine[i][j]) for i in range(3) for j in range(3))
        worst = max(worst, max(float(abs(T[i][j] - T_fine[i][j]) / scale)
                               for i in range(3) for j in range(3)))
        rows.append({**node, "radius": RADIUS, "rho1": RHO, "rho2": RHO, "dphi": 0.0,
                     "nmax": NMAX, "eps_inf": METALS[node["metal"]][0],
                     "omega_p": METALS[node["metal"]][1],
                     "gamma_p": METALS[node["metal"]][2],
                     "k1": [k1.real, k1.imag], "eps2": [eps2.real, eps2.imag],
                     "eta1": [eta1.real, eta1.imag],
                     "t_re": [[float(v.real) for v in row] for row in T],
                     "t_im": [[float(v.imag) for v in row] for row in T]})
    assert worst < 1e-20, f"50- and 70-digit sums disagree by {worst:.2e}"
    out = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "ring_reference.json"
    out.write_text(json.dumps({"dps": DPS, "dps_check_worst": worst, "nodes": rows},
                              indent=1) + "\n")
    print(f"wrote {len(rows)} nodes to {out}; 50 vs 70 digits {worst:.2e}")


if __name__ == "__main__":
    main()
