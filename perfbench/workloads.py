"""The four benchmark workloads.

``sweep``      ``wireqed sweep --config configs/default.json --threads 1``,
               in-process through ``cli.main``: the documented user run.
``sweep-par``  the same run with ``--threads 2``, the only workload whose
               kappa tables are built by worker processes.
``dense``      one ``PairInteraction`` per build on radius 0.01 with emitters
               at rho = 0.03, then hundreds of ``at(dz)`` rows: a dense
               distance sweep, dominated by per-separation assembly.
``spectrum``   coincident radial ``wire_green`` tensors at real frequencies
               drawn from the Kramers-Kronig closure grid's bands.

Each workload has ``measure(ctx)``, the untraced run that gives the
end-to-end metrics with every time scaled by a ``Calibration``, and
``trace(ctx)``, which runs one untraced pass and then the same inputs again
under a ``Tracer`` for the per-layer metrics.  Only ``dense`` separations and
``spectrum`` frequencies come from the seed.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from wireqed import cli, green_wire
from wireqed.emitters import EmitterPair, PairInteraction
from wireqed.frequencies import OMEGA_A, SpectralPoint
from wireqed.green_wire import WireGeometry
from wireqed.material import DrudeModel

import refcheck
from spans import Tracer, layer_metrics

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

DENSE_RADIUS = 0.01
DENSE_RHO = 0.03
DENSE_TOL = 1e-6
DENSE_DZ = (0.02, 8.0)
#: Fixed separations at the head of every dense run, checked against refs.json.
DENSE_ANCHORS = (0.02, 0.1, 0.5, 1.5, 4.0, 8.0)

SPECTRUM_RHO = 0.015
SPECTRUM_TOL = 1e-6
SPECTRUM_BUDGET = 160000
#: Fixed frequencies (units of OMEGA_A) at the head of every spectrum run,
#: checked against refs.json; |G| >= 1 at each, so a relative check bites.
SPECTRUM_ANCHORS = (0.5, 1.0, 4.2, 8.0)
#: Bands of the Kramers-Kronig closure grid (units of OMEGA_A, log spacing).
SPECTRUM_BANDS = ((0.02, 3.8, False), (0.6, 1.5, False), (3.8, 4.6, False),
                  (4.6, 12.0, False), (12.0, 60.0, False), (60.0, 350.0, True))
#: Seconds one round (a frequency from every band) takes on a 2-core Xeon
#: VM at 2.0 GHz; ``--seconds`` buys this many rounds, so the work done for a
#: given seed and ``--seconds`` never depends on the machine's speed.
SPECTRUM_ROUND_S = 2.75

#: ``Calibration.sample()`` on a 2-core Xeon VM at 2.0 GHz with no other
#: tenant slowing it; calibrated rates are rates at this speed.
CAL_REF_S = 0.0175
#: Seconds of dense rows between two calibration samples.
DENSE_BLOCK_S = 0.1
#: Seconds between calibration samples during one long call (a sweep, a build).
CAL_INTERVAL_S = 0.5


@dataclass
class Context:
    root: Path          # checkout root, holding src/ and configs/
    seed: int
    seconds: float
    scratch: Path       # temporary directory inside the checkout
    refs: dict          # refs.json


@dataclass
class Op:
    """One operation: a sweep, a row or a tensor."""

    kind: str
    arg: float
    seconds: float
    problem: str | None = None   # None when every check passed
    scaled: float | None = None    # seconds at the calibration's reference speed


@dataclass
class Outcome:
    ops: list
    metrics: dict                 # {name: (value, unit)}
    samples: dict = field(default_factory=dict)   # {name: [values]} behind the metrics
    notes: list = field(default_factory=list)
    spans: list | None = None


def peak_rss_mb():
    """Peak resident memory of this process plus its largest child (the pool
    workers on sweep-par), in MB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def cold_starts(root, cal, repeats=SETUP_REPEATS):
    """(raw, scaled) seconds of fresh interpreters importing wireqed.cli."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-c", "import wireqed.cli"]
    raw, scaled = [], []
    for _ in range(repeats):
        _, r, c = cal.bracketed(lambda: subprocess.run(argv, cwd=root, env=env,
                                                       timeout=120, check=True))
        raw.append(r)
        scaled.append(c)
    return raw, scaled


class Calibration:
    """Timings of a fixed kernel taken next to a workload's operations.

    On a shared host, other tenants slow a 2-core VM by up to 1.8x in bursts
    that last from a second to tens of minutes, which moves raw timings
    between two modes.  The kernel runs the kind of work the program spends
    its time in (complex Bessel ladders, batched 4x4 solves, spherical Bessel
    moments, small array arithmetic) on fixed inputs and calls no wireqed
    code, so a change to the program never changes it.  A time multiplied by
    ``CAL_REF_S / sample``, with the samples taken during or around it, is
    the time at the reference speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._z = np.linspace(0.05, 40.0, 48) * (1.0 + 0.3j)
        self._x = np.linspace(0.01, 60.0, 200)
        self._orders = np.arange(42.0)[:, None]
        self._k = np.arange(16)[:, None]
        self._a = rng.standard_normal((48, 41, 4, 4)) + 4.0 * np.eye(4)
        self._b = rng.standard_normal((48, 41, 4, 2))

    def sample(self):
        """CPU seconds one pass of the kernel takes now: the speed of the
        core it runs on, without any wait for a core."""
        t0 = time.thread_time()
        for _ in range(3):
            special.jv(self._orders, self._z[None, :])
            special.hankel1(self._orders, self._z[None, :])
            special.spherical_jn(self._k, self._x[None, :])
            np.linalg.solve(self._a, self._b)
            for _ in range(30):
                np.einsum("ij,jk->ik", self._a[0, 0], self._b[0, 0])
                np.exp(1j * self._x[:16])
        return time.thread_time() - t0

    def bracketed(self, fn):
        """(fn(), seconds, seconds at the reference speed) of a short call,
        scaled by the mean of a sample just before and one just after it."""
        before = self.sample()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        return out, raw, raw * 2.0 * CAL_REF_S / (before + self.sample())

    def sampled(self, fn):
        """(fn(), seconds, seconds at the reference speed) for a long call.

        A SIGALRM handler takes a sample every CAL_INTERVAL_S while ``fn``
        runs (Python runs it between bytecodes of the main thread, so it
        sees the speed the call itself gets, also while worker processes
        hold the cores), and one more follows the call; the call's seconds
        exclude the handler's own time and are scaled by the samples' mean.
        """
        taken, spent = [], []

        def handler(signum, frame):
            t0 = time.perf_counter()
            taken.append(self.sample())
            spent.append(time.perf_counter() - t0)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        raw = wall - sum(spent)
        taken.append(self.sample())
        return out, raw, raw * CAL_REF_S / statistics.fmean(taken)


def _end_to_end(ops_per_s, setups, rss):
    return {"ops_per_s": (ops_per_s, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB")}


def _timed_pass(tracer, body):
    """(body(), wall seconds), inside the root span when traced."""
    with tracer.span("workload") if tracer else nullcontext():
        t0 = time.perf_counter()
        out = body()
        wall = time.perf_counter() - t0
    return out, wall


def _traced(body):
    """(body(tracer), layer metrics, spans) for one pass under a fresh Tracer."""
    tracer = Tracer()
    with tracer.installed():
        out = body(tracer)
    return out, layer_metrics(tracer.spans), tracer.spans


class Sweep:
    """``cli.main(["sweep", ...])``; with no ``config`` the checkout's
    configs/default.json, compared against the stored reference CSV."""

    def __init__(self, threads, config=None):
        self.threads = threads
        self.config = config

    def once(self, ctx, threads, tracer=None, cal=None):
        """One checked sweep; with ``cal``, calibrated, else inside ``tracer``'s
        root span when one is given."""
        config = self.config or ctx.root / "configs" / "default.json"
        out = ctx.scratch / f"sweep-{threads}.csv"
        argv = ["sweep", "--config", str(config), "--threads", str(threads),
                "--out", str(out)]
        scaled = None
        t0 = time.perf_counter()
        try:
            if cal is None:
                rc, wall = _timed_pass(tracer, lambda: cli.main(argv))
            else:
                rc, wall, scaled = cal.sampled(lambda: cli.main(argv))
        except Exception as exc:
            return Op("sweep", threads, time.perf_counter() - t0, f"raised {exc!r}")
        if rc != 0:
            return Op("sweep", threads, wall, f"exit code {rc}")
        ref = ctx.refs["sweep"] if self.config is None else None
        problem = refcheck.check_sweep_csv(out.read_text(), ref, ctx.refs["tolerance"])
        return Op("sweep", threads, wall, problem, scaled)

    def measure(self, ctx):
        cal = Calibration()
        ops = []
        t0 = time.perf_counter()
        while not ops or time.perf_counter() - t0 < ctx.seconds:
            ops.append(self.once(ctx, self.threads, cal=cal))
        rss = peak_rss_mb()
        setup_raw, setups = cold_starts(ctx.root, cal)
        scaled = [op.scaled for op in ops if op.problem is None]
        rate = 1.0 / statistics.median(scaled) if scaled else 0.0
        return Outcome(ops, _end_to_end(rate, setups, rss),
                       {"sweep_s": [op.seconds for op in ops if op.problem is None],
                        "sweep_s_scaled": scaled, "setup_s": setup_raw,
                        "setup_s_scaled": setups})

    def trace(self, ctx):
        ops = []
        if self.threads > 1:
            ops.append(self.once(ctx, 1))
        ops.append(self.once(ctx, self.threads))
        op, metrics, spans = _traced(lambda tr: self.once(ctx, self.threads, tr))
        metrics["trace.overhead_s"] = (op.seconds - ops[-1].seconds, "s")
        notes = []
        if self.threads > 1:
            speedup = ops[0].seconds / ops[1].seconds
            metrics["cli.pool.speedup"] = (speedup, "x")
            metrics["cli.pool.efficiency"] = (speedup / self.threads, "fraction")
            notes.append("only parent-side spans: kappa tables built in worker "
                         "processes are not traced")
            notes.append("cli.pool.* from this run's untraced --threads 1 and "
                         f"--threads {self.threads} sweeps")
        return Outcome(ops + [op], metrics, notes=notes, spans=spans)


def dense_engine():
    """The dense geometry's PairInteraction, with dz_refs spanning the
    separation range the way ``cmd_sweep`` does."""
    lo, hi = DENSE_DZ
    geom = WireGeometry(radius=DENSE_RADIUS, model=DrudeModel())
    pair = EmitterPair((DENSE_RHO, 0.0, 0.0), (DENSE_RHO, 0.0, lo))
    return PairInteraction(geom, pair, tol=DENSE_TOL,
                           dz_refs=(0.0, lo, 0.5 * (lo + hi), hi))


def dense_separations(seed):
    """The anchors, then uniform draws from DENSE_DZ without end."""
    yield from DENSE_ANCHORS
    rng = np.random.default_rng(seed)
    while True:
        yield float(rng.uniform(*DENSE_DZ))


class Dense:
    def __init__(self, repeats=SETUP_REPEATS):
        self.repeats = repeats

    def rows(self, ctx, engine, dzs, seconds):
        """``at(dz)`` for separations from the iterator ``dzs`` until it runs
        out or ``seconds`` have passed; anchors are checked against refs.json."""
        refs = ctx.refs["dense"]
        scales = refcheck.column_scales([r["values"] for r in refs])
        by_dz = {r["dz"]: r["values"] for r in refs}
        ops = []
        t_end = time.perf_counter() + seconds
        while not ops or time.perf_counter() < t_end:
            dz = next(dzs, None)
            if dz is None:
                break
            t0 = time.perf_counter()
            try:
                r = engine.at(dz)
            except Exception as exc:
                ops.append(Op("row", dz, time.perf_counter() - t0, f"raised {exc!r}"))
                continue
            op = Op("row", dz, time.perf_counter() - t0, refcheck.check_row(r))
            if op.problem is None and dz in by_dz:
                values = [getattr(r, f) for f in refcheck.ROW_FIELDS]
                op.problem = refcheck.compare_row(values, by_dz[dz], scales,
                                                  ctx.refs["tolerance"])
            ops.append(op)
        return ops

    def measure(self, ctx):
        cal = Calibration()
        builds, scaled_builds = [], []
        for _ in range(self.repeats):
            engine = None   # release the previous tables before building again
            engine, raw, scaled = cal.sampled(dense_engine)
            builds.append(raw)
            scaled_builds.append(scaled)
        dzs = dense_separations(ctx.seed)
        ops, rates = [], []
        t_end = time.perf_counter() + ctx.seconds
        while not ops or time.perf_counter() < t_end:
            c = cal.sample()
            block = self.rows(ctx, engine, dzs,
                              min(DENSE_BLOCK_S, t_end - time.perf_counter()))
            ops += block
            ok = [op.seconds for op in block if op.problem is None]
            if ok:
                rates.append(len(ok) / sum(ok) * c / CAL_REF_S)
        rss = peak_rss_mb()
        rate = statistics.median(rates) if rates else 0.0
        row_s = [op.seconds for op in ops if op.problem is None]
        return Outcome(ops, _end_to_end(rate, scaled_builds, rss),
                       {"row_s": row_s, "block_rate": rates, "setup_s": builds,
                        "setup_s_scaled": scaled_builds})

    def trace(self, ctx):
        def one_pass(dzs, seconds, tracer=None):
            return _timed_pass(tracer, lambda: self.rows(ctx, dense_engine(), dzs, seconds))

        ops, wall = one_pass(dense_separations(ctx.seed), ctx.seconds)
        dzs = [op.arg for op in ops]
        (traced, traced_wall), metrics, spans = _traced(
            lambda tr: one_pass(iter(dzs), math.inf, tr))
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        return Outcome(ops + traced, metrics, spans=spans)


def spectrum_geometry():
    """The Kramers-Kronig closure test's wire: collision rate 0.12 OMEGA_A."""
    return WireGeometry(radius=0.01, model=DrudeModel(
        eps_inf=1.0, omega_p=6.0 * OMEGA_A, gamma_p=0.12 * OMEGA_A))


def spectrum_tensor(geom, f):
    """Coincident ``wire_green`` at rho = SPECTRUM_RHO and omega = f * OMEGA_A,
    looked up through its module so that a traced run sees the call."""
    p = (SPECTRUM_RHO, 0.0, 0.0)
    return green_wire.wire_green(geom, p, p, SpectralPoint.real_axis(f * OMEGA_A),
                                 tol=SPECTRUM_TOL, budget=SPECTRUM_BUDGET)


def spectrum_frequencies(seed, rounds, anchors=SPECTRUM_ANCHORS):
    """Anchors, then ``rounds`` rounds of one frequency per band.

    Each band is cut into ``rounds`` equal strata and every stratum is drawn
    once (Latin hypercube), so the mix of cheap and expensive frequencies,
    and with it the run's cost, hardly depends on the seed.
    """
    rng = np.random.default_rng(seed)
    per_band = []
    for lo, hi, log in SPECTRUM_BANDS:
        u = (rng.permutation(rounds) + rng.random(rounds)) / max(rounds, 1)
        if log:
            per_band.append(np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))))
        else:
            per_band.append(lo + u * (hi - lo))
    seeded = [float(band[j]) for j in range(rounds) for band in per_band]
    return list(anchors) + seeded


class Spectrum:
    def __init__(self, anchors=SPECTRUM_ANCHORS, rounds=None):
        self.anchors = anchors
        self.rounds = rounds   # None: as many as --seconds buys

    def frequencies(self, ctx):
        rounds = self.rounds
        if rounds is None:
            rounds = max(1, round(ctx.seconds / SPECTRUM_ROUND_S))
        return spectrum_frequencies(ctx.seed, rounds, self.anchors)

    def tensors(self, ctx, freqs, cal=None):
        """One checked tensor per frequency; with ``cal``, each one bracketed
        by calibration samples."""
        geom = spectrum_geometry()
        refs = {r["omega_over_omega_a"]: r["tensor"] for r in ctx.refs["spectrum"]}
        ops = []
        for i, f in enumerate(freqs):
            t0 = time.perf_counter()
            scaled = None
            try:
                if cal is None:
                    g = spectrum_tensor(geom, f)
                    raw = time.perf_counter() - t0
                else:
                    g, raw, scaled = cal.bracketed(lambda: spectrum_tensor(geom, f))
                op = Op("tensor", f, raw, refcheck.check_tensor(g, f * OMEGA_A), scaled)
            except Exception as exc:
                op = Op("tensor", f, time.perf_counter() - t0, f"raised {exc!r}")
            if op.problem is None and i < len(self.anchors):
                op.problem = refcheck.compare_tensor(g, refs[f], ctx.refs["tolerance"])
            ops.append(op)
        return ops

    def measure(self, ctx):
        cal = Calibration()
        ops = self.tensors(ctx, self.frequencies(ctx), cal)
        rss = peak_rss_mb()
        setup_raw, setups = cold_starts(ctx.root, cal)
        scaled = [op.scaled for op in ops if op.problem is None]
        rate = len(scaled) / sum(scaled) if scaled else 0.0
        return Outcome(ops, _end_to_end(rate, setups, rss),
                       {"tensor_s": [op.seconds for op in ops], "setup_s": setup_raw,
                        "setup_s_scaled": setups})

    def trace(self, ctx):
        freqs = self.frequencies(ctx)
        ops, wall = _timed_pass(None, lambda: self.tensors(ctx, freqs))
        (traced, traced_wall), metrics, spans = _traced(
            lambda tr: _timed_pass(tr, lambda: self.tensors(ctx, freqs)))
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        return Outcome(ops + traced, metrics, spans=spans)


WORKLOADS = {
    "sweep": Sweep(threads=1),
    "sweep-par": Sweep(threads=2),
    "dense": Dense(),
    "spectrum": Spectrum(),
}
