"""wireqed benchmark: one run of one workload, or every workload with a summary.

One run (the form a harness calls; the last stdout line is the JSON result):

    python3 perfbench/run.py --workload dense --seed 3 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
instrumentation; ``--trace 1`` runs one untraced pass and the same inputs
again under spans, and reports the per-layer metrics.  Every output is
checked (see refcheck.py); ``correct``, ``attempted`` and ``failed`` count
operations: one sweep, one ``at()`` row or one ``wire_green`` tensor.

Every workload, several seeds, medians with quartiles:

    python3 perfbench/run.py --all --runs 5 [--trace 1]

Each run writes a result file, and a traced run its spans, under
perfbench/results/.  The program is imported from the checkout's src/; a
checkout without it is an error (exit 2) and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("sweep", "sweep-par", "dense", "spectrum")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
#: The workload's own name for ``ops_per_s``, as NOTES.md cites it.
HEADLINE = {"sweep": "sweep_s", "sweep-par": "sweep_s", "dense": "rows_per_s",
            "spectrum": "tensors_per_s"}


def summarize(values):
    """(median, first quartile, third quartile, count) of a list of numbers."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def _fmt_stats(values, unit):
    med, q1, q3, n = summarize(values)
    return f"median {med:.6g} {unit}, quartiles {q1:.6g} .. {q3:.6g}, n={n}"


def _environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{v: os.environ.get(v) for v in THREAD_VARS}}


def _load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result_line(outcome, wanted):
    """The result line: exactly the metrics named in ``wanted``."""
    metrics = {}
    for entry in wanted:
        value, unit = outcome.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} measured in {unit}, "
                               f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    failed = sum(op.problem is not None for op in outcome.ops)
    return {"correct": bool(outcome.ops) and failed == 0, "attempted": len(outcome.ops),
            "failed": failed, "metrics": metrics}


def _print_human(name, args, env, outcome, result):
    print(f"# perfbench workload={name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    m, s = outcome.metrics, outcome.samples
    if args.trace:
        width = max(map(len, m))
        for key in sorted(m):
            value, unit = m[key]
            print(f"{key:<{width}}  {value:.6g} {unit}")
    else:
        rate = m["ops_per_s"][0]
        if name in ("sweep", "sweep-par"):
            print(f"sweep_s        {1.0 / rate if rate else 0.0:.6g} s    (calibrated; raw "
                  f"{_fmt_stats(s['sweep_s'] or [0.0], 's')})")
        elif name == "dense":
            rows = s["row_s"] or [0.0]
            print(f"rows_per_s     {rate:.6g} 1/s  (calibrated, median of "
                  f"{len(s['block_rate'])} blocks; raw {len(rows) / sum(rows):.6g} 1/s, "
                  f"per row {_fmt_stats(rows, 's')})")
        else:
            tensors = s["tensor_s"]
            print(f"tensors_per_s  {rate:.6g} 1/s  (calibrated; raw "
                  f"{len(tensors) / sum(tensors):.6g} 1/s, per tensor "
                  f"{_fmt_stats(tensors, 's')})")
        what = "builds" if name == "dense" else "cold starts"
        print(f"setup_s        {m['setup_s'][0]:.6g} s    (calibrated median of "
              f"{len(s['setup_s'])} {what}; raw {_fmt_stats(s['setup_s'], 's')})")
        print(f"peak_rss_mb    {m['peak_rss_mb'][0]:.6g} MB")
    print(f"fail_frac      {result['failed'] / max(result['attempted'], 1):.6g}   "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for note in outcome.notes:
        print(f"note: {note}")
    for op in outcome.ops:
        if op.problem is not None:
            print(f"FAILED {op.kind} {op.arg:g}: {op.problem}")


def run_one(args):
    for var in THREAD_VARS:
        os.environ[var] = "1"   # before numpy loads: one BLAS/OpenMP thread per process
    src = ROOT / "src"
    if not (src / "wireqed" / "__init__.py").is_file():
        print(f"perfbench: no wireqed source under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import wireqed
    if not Path(wireqed.__file__).resolve().is_relative_to(src):
        print(f"perfbench: wireqed imported from {wireqed.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    spec = _load_benchmark()
    refs = json.loads((BENCH_DIR / "refs.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    try:
        ctx = workloads.Context(ROOT, args.seed, args.seconds, scratch, refs)
        wl = workloads.WORKLOADS[args.workload]
        outcome = wl.trace(ctx) if args.trace else wl.measure(ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = _result_line(outcome, wanted)
    env = _environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result,
              "all_metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in outcome.metrics.items()},
              "samples": outcome.samples, "notes": outcome.notes,
              "ops": [[op.kind, op.arg, op.seconds, op.problem] for op in outcome.ops]}
    if outcome.spans is not None:
        t0 = outcome.spans[0][1]
        spans = [[n, round(a - t0, 7), round(b - t0, 7), p, c]
                 for n, a, b, p, c in outcome.spans]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
        record["spans_file"] = f"{stem}-spans.json"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    _print_human(args.workload, args, env, outcome, result)
    print(f"result file: {RESULTS.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload ``--runs`` times with consecutive seeds, then a table of
    medians and quartiles over runs; with ``--trace 1`` also one traced run
    each, whose per-layer metrics are printed side by side."""
    spec = _load_benchmark()
    seconds = args.seconds or spec["run_seconds"]
    results = {}

    def child(name, seed, trace):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"perfbench: {name} seed {seed} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    for name in WORKLOAD_NAMES:
        results[name] = [child(name, args.seed + i, 0) for i in range(args.runs)]

    print(f"# {args.runs} runs per workload, seeds {args.seed}..{args.seed + args.runs - 1}, "
          f"--seconds {seconds:g}; median [quartiles] over runs")
    medians = {}
    for name, runs in results.items():
        print(f"{name}:")
        rates = [r["metrics"]["ops_per_s"]["value"] for r in runs]
        headline = HEADLINE[name]
        if headline == "sweep_s":
            values, unit = [1.0 / v for v in rates], "s"
        else:
            values, unit = rates, "1/s"
        medians[name] = summarize(values)[0]
        rows = [(headline, values, unit)]
        for key in ("setup_s", "peak_rss_mb"):
            rows.append((key, [r["metrics"][key]["value"] for r in runs],
                         runs[0]["metrics"][key]["unit"]))
        rows.append(("fail_frac", [r["failed"] / r["attempted"] for r in runs], "fraction"))
        for key, vals, unit in rows:
            print(f"  {key:<14} {_fmt_stats(vals, unit)}")
    speedup = medians["sweep"] / medians["sweep-par"]
    print(f"cli.pool.speedup     {speedup:.4g} x (median sweep_s, sweep / sweep-par)")
    print(f"cli.pool.efficiency  {speedup / 2:.4g} (speedup / 2 workers)")

    if args.trace:
        traced = {name: child(name, args.seed, 1)["metrics"] for name in WORKLOAD_NAMES}
        print("per-layer (one traced run each):")
        print(f"  {'metric':<36}" + "".join(f"{n:>14}" for n in WORKLOAD_NAMES))
        for entry in spec["per_layer"]:
            key = entry["name"]
            cells = "".join(f"{traced[n][key]['value']:>14.5g}" for n in WORKLOAD_NAMES)
            print(f"  {key:<36}{cells}  {entry['unit']}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload and summarize")
    p.add_argument("--runs", type=int, default=3, help="runs per workload with --all")
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None or args.seconds is None:
        p.error("--workload and --seconds are required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
