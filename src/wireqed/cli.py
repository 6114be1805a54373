"""Command-line interface.

Subcommands:
    sweep       distance sweep of rates and decomposed shifts (CSV/JSON)
    dispersion  sampled plasmon spectrum Im G~_rr(kz) with Lorentzian fit
    validate    built-in validation suites, at fixed inputs (no options)
    point       full report for a single separation

Exit codes: 0 success, 2 configuration error, 3 convergence failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np

from .config import RunConfig, SCHEMA_TAG, load_config
from .emitters import (PairInteraction, analytic_approximations, dicke_levels,
                       fit_plasmon_lorentzian, markov_diagnostic)
from .errors import ConfigError, ConvergenceError, DomainError, FitError, WireQEDError
from .frequencies import OMEGA_A, SpectralPoint
from .green_wire import AZIMUTHAL_SHARE, SpectralEvaluator, _k_window, settle_azimuthal_order
from .validate import run_all

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_VALIDATION = 4


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return format(float(x), ".17g")


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "tol", None) is not None:
        cfg.tol_wire = float(args.tol)
    if getattr(args, "out", None):
        cfg.output_path = args.out
    if getattr(args, "format", None):
        cfg.output_format = args.format
    return cfg.validate()


def _engine_and_fit(cfg: RunConfig, dz: float, dz_refs, threads: int = 1):
    """The pair tables for ``sweep`` and ``point``, with their kappa tables
    built in a pool of ``threads`` worker processes, at most one per CPU, when
    threads > 1, and the plasmon fit from its real-axis table and the TM0
    root that table's window found (None without a bound plasmon, or with a
    center outside the fit's kz range), so that no evaluator call runs
    outside the tables and the root is searched once."""
    geom = cfg.geometry()
    threads = min(threads, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()
    with pool:
        parallel = (lambda fn, xs: list(pool.map(fn, xs))) if threads > 1 else None
        engine = PairInteraction(geom, cfg.pair(dz), tol=cfg.tol_wire,
                                 nmax=cfg.azimuthal_order, dz_refs=dz_refs,
                                 parallel=parallel)
    try:
        fit = fit_plasmon_lorentzian(engine.omega_a, engine.table_res.spectrum,
                                     engine.table_res.pole)
    except (FitError, DomainError):   # DomainError: a peak beyond the table's panels
        fit = None
    return engine, fit


def _csv(meta, header, rows) -> str:
    """CSV text: sorted ``# key = value`` meta lines, the header, the rows."""
    lines = [f"# {k} = {v if isinstance(v, str) else _fmt(v)}"
             for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _failed_checks(results) -> str:
    """One line naming each check that rows of ``results`` failed, with its
    value and bound in the row it failed by most, and how many rows failed it."""
    worst, count = {}, {}
    for r in results:
        for name, (value, bound) in r.diagnostics["failed_checks"].items():
            count[name] = count.get(name, 0) + 1
            if name not in worst or value / bound > worst[name][0] / worst[name][1]:
                worst[name] = (value, bound)
    parts = [f"{name} {'false' if bound is True else f'{value:.3g} > {bound:.3g}'}"
             f" ({count[name]} of {len(results)} rows)"
             for name, (value, bound) in worst.items()]
    return "failed checks: " + "; ".join(parts)


def _emit(text: str, path):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if args.threads < 1:
        raise ConfigError(f"sweep needs --threads >= 1, got {args.threads}")
    dzs = cfg.sweep_points()
    engine, fit = _engine_and_fit(cfg, dzs[0],
                                  (0.0, dzs[0], 0.5 * (dzs[0] + dzs[-1]), dzs[-1]),
                                  args.threads)
    rows = [engine.at(dz) for dz in dzs]

    header = ["dz", "gamma11_over_gamma0", "gamma12_over_gamma11",
              "shift12_total_over_gamma11", "shift12_resonant_over_gamma11",
              "shift12_integral_over_gamma11", "gamma12_appr_over_gamma11_appr",
              "shift12_appr_over_gamma11_appr", "converged"]
    meta = {
        "schema": "wireqed-sweep/1",
        "radius": cfg.radius,
        "rho_1": cfg.rho_1,
        "rho_2": cfg.rho_2,
        "shift11_total_over_gamma0": rows[0].shift11_total,
        "gamma11_over_gamma0": rows[0].gamma11,
    }
    if fit is not None:
        meta.update({"fit_amplitude": fit.amplitude_a, "fit_width": fit.width_gamma,
                     "fit_center_kz_pl": fit.center_kz_pl,
                     "fit_residual": fit.fit_residual})

    table = []
    for dz, r in zip(dzs, rows):
        if fit is not None:
            ap = analytic_approximations(fit, dz)
            appr = (ap.gamma12_over_gamma11, ap.shift12_over_gamma11)
        else:
            appr = (float("nan"), float("nan"))
        table.append([dz, r.gamma11, r.gamma12_over_gamma11,
                      r.shift12_total_over_gamma11, r.shift12_resonant_over_gamma11,
                      r.shift12_integral_over_gamma11, appr[0], appr[1], r.converged])

    if not all(row[-1] for row in table):
        bad = [f"dz={row[0]:g}" for row in table if not row[-1]]
        print(f"unconverged sweep rows: {', '.join(bad)}", file=sys.stderr)
        print(_failed_checks(rows), file=sys.stderr)
        return EXIT_CONVERGENCE

    if cfg.output_format == "csv":
        _emit(_csv(meta, header, table), cfg.output_path)
    else:
        payload = {"meta": meta,
                   "rows": [dict(zip(header, row)) for row in table]}
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.output_path)
    return EXIT_OK


def cmd_dispersion(args) -> int:
    cfg = _load(args)
    if not 0 < args.omega_over_omega_a < math.inf:
        raise ConfigError("dispersion needs a finite --omega-over-omega-a > 0, "
                          f"got {args.omega_over_omega_a}")
    if args.n_points < 2:
        raise ConfigError(f"dispersion needs --n-points >= 2, got {args.n_points}")
    omega = args.omega_over_omega_a * OMEGA_A

    geom = cfg.geometry()
    point = SpectralPoint.real_axis(omega)
    # one window, whose TM0 root the fit starts from; an explicit
    # azimuthal_order is used as given, as in sweep and point, and its
    # predicted tail is still read
    window, pole = _k_window(geom, point, cfg.rho_1, cfg.rho_1)
    nmax, (tail,), scale = settle_azimuthal_order(geom, point, cfg.rho_1, cfg.rho_1, 0.0,
                                                  windows=[window], tol=cfg.tol_wire,
                                                  nmax=cfg.azimuthal_order)
    ev = SpectralEvaluator(geom, point, cfg.rho_1, cfg.rho_1, 0.0, nmax=nmax)
    try:
        fit = fit_plasmon_lorentzian(omega, ev, pole)
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE

    lo = 1.0001 * omega
    hi = 4.0 * fit.center_kz_pl
    kz = np.unique(np.concatenate([
        np.linspace(lo, hi, args.n_points),
        fit.center_kz_pl + fit.width_gamma * np.linspace(-10, 10, args.n_points // 2),
    ]))
    kz = kz[(kz >= lo) & (kz <= hi)]
    vals = ev(kz)[:, 0, 0].imag
    bound = AZIMUTHAL_SHARE * cfg.tol_wire
    if tail > bound * scale:
        # a configured order is kept as given; its truncation is reported
        print(f"warning: azimuthal tail ratio {tail / scale:.2e} at n = {nmax} "
              f"exceeds {bound:.3g} of the spectrum's integral", file=sys.stderr)

    meta = {"omega": omega, "fit_amplitude": fit.amplitude_a,
            "fit_width": fit.width_gamma, "fit_center_kz_pl": fit.center_kz_pl,
            "fit_residual": fit.fit_residual}
    if cfg.output_format == "csv":
        _emit(_csv(meta, ["kz", "im_g_rr"], zip(kz, vals)), cfg.output_path)
    else:
        payload = {"meta": meta, "kz": [float(k) for k in kz],
                   "im_g_rr": [float(v) for v in vals]}
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", cfg.output_path)
    return EXIT_OK


def cmd_validate(args) -> int:
    suites = run_all()
    for suite in suites:
        print(suite.line())
    return EXIT_OK if all(s.passed for s in suites) else EXIT_VALIDATION


def cmd_point(args) -> int:
    cfg = _load(args)
    if not 0 < args.dz < math.inf:
        raise ConfigError(f"point needs a finite separation --dz > 0, got {args.dz}")
    engine, fit = _engine_and_fit(cfg, args.dz, (0.0, args.dz))
    result = engine.at(args.dz)
    if not result.converged:
        print(f"unconverged point: dz={args.dz:g}", file=sys.stderr)
        print(_failed_checks([result]), file=sys.stderr)
        return EXIT_CONVERGENCE
    out = {
        "dz": args.dz,
        "gamma11_over_gamma0": result.gamma11,
        "gamma12_over_gamma0": result.gamma12,
        "gamma12_over_gamma11": result.gamma12_over_gamma11,
        "shift12": {"resonant": result.shift12_resonant,
                    "integral": result.shift12_integral,
                    "total": result.shift12_total,
                    "total_over_gamma11": result.shift12_total_over_gamma11},
        "shift11": {"resonant": result.shift11_resonant,
                    "integral": result.shift11_integral,
                    "total": result.shift11_total},
        "dicke": asdict(dicke_levels(result)),
        "markov": asdict(markov_diagnostic(result, args.dz, cfg.gamma0_abs)),
        "converged": result.converged,
    }
    if fit is not None:
        out["approximation"] = asdict(analytic_approximations(fit, args.dz))
    _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", cfg.output_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wireqed", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *options):
        # each subcommand takes only the options it reads
        sp.add_argument("--config", help=f"JSON config file (schema {SCHEMA_TAG})")
        if "out" in options:
            sp.add_argument("--out", help="output file (default: stdout)")
        if "format" in options:
            sp.add_argument("--format", choices=["csv", "json"], help="output format")
        if "tol" in options:
            sp.add_argument("--tol", type=float, help="wire quadrature tolerance")

    sp = sub.add_parser("sweep", help="distance sweep of rates and shifts")
    common(sp, "out", "format", "tol")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes for spectral-table construction "
                         "(at least 1; capped at the CPU count)")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("dispersion", help="plasmon spectrum and Lorentzian fit")
    common(sp, "out", "format", "tol")
    sp.add_argument("--omega-over-omega-a", type=float, default=1.0)
    sp.add_argument("--n-points", type=int, default=300)
    sp.set_defaults(fn=cmd_dispersion)

    sp = sub.add_parser("validate", help="run built-in validation suites")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("point", help="full report at one separation (JSON)")
    common(sp, "out", "tol")
    sp.add_argument("--dz", type=float, required=True)
    sp.set_defaults(fn=cmd_point)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        pairs = (f"{k} = {v:.3g}" if isinstance(v, float) else f"{k} = {v}"
                 for k, v in sorted(exc.diagnostics.items()))
        print(f"diagnostics: {', '.join(pairs)}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except WireQEDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
