"""Self-tests of the benchmark: python3 -m pytest perfbench (about a minute)."""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import refcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

REFS = json.loads((BENCH_DIR / "refs.json").read_text())
TOL = REFS["tolerance"]


def _span(name, start, end, parent, counts=None):
    return [name, start, end, parent, counts]


def test_self_times_subtract_child_coverage():
    tree = [
        _span("workload", 0.0, 10.0, -1),
        _span("green_wire.evaluator", 1.0, 4.0, 0, {"nodes": 16}),
        _span("bessel.jh_orders", 2.0, 3.0, 1, {"evals": 64}),
        _span("emitters.at", 5.0, 9.0, 0),
        _span("quadrature.moments_for", 6.0, 7.0, 3, {"cols": 4}),
        _span("quadrature.moments_for", 7.0, 8.5, 3, {"cols": 4}),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    m = spans.layer_metrics(tree)
    assert m["trace.wall_s"][0] == pytest.approx(10.0)
    assert m["trace.unspanned_s"][0] == pytest.approx(3.0)
    assert m["trace.closure_s"][0] == pytest.approx(0.0, abs=1e-12)
    assert m["green_wire.evaluator.self_s"][0] == pytest.approx(2.0)
    assert m["bessel.evals_per_node"][0] == pytest.approx(4.0)
    assert m["quadrature.moments_for.s"][0] == pytest.approx(2.5)
    assert m["quadrature.moments_for.cols"][0] == 8
    assert m["emitters.at.self_s"][0] == pytest.approx(1.5)


def test_overlapping_children_are_covered_once():
    tree = [_span("workload", 0.0, 10.0, -1),
            _span("emitters.at", 1.0, 4.0, 0),
            _span("emitters.at", 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_nested_same_name_counts_once_in_inclusive_time():
    tree = [_span("workload", 0.0, 10.0, -1),
            _span("green_wire.table_integrate", 1.0, 5.0, 0),
            _span("green_wire.table_integrate", 2.0, 3.0, 1)]
    totals = spans.layer_totals(tree)
    assert totals["green_wire.table_integrate"]["s"] == pytest.approx(4.0)
    assert totals["green_wire.table_integrate"]["calls"] == 2


@pytest.mark.parametrize("values", [[3.0], [1.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0],
                                    [0.1 * i for i in range(10)]])
def test_summarize_matches_statistics(values):
    med, q1, q3, n = run.summarize(values)
    assert med == statistics.median(values) and n == len(values)
    if len(values) > 1:
        assert [q1, med, q3] == pytest.approx(statistics.quantiles(values, n=4))
    else:
        assert q1 == q3 == med


def _csv_from_ref(ref, rows=None):
    lines = [f"# {k} = {v!r}" if not isinstance(v, str) else f"# {k} = {v}"
             for k, v in sorted(ref["meta"].items())]
    lines.append(",".join(ref["header"]))
    for row in rows or ref["rows"]:
        lines.append(",".join(format(v, ".17g") for v in row) + ",true")
    return "\n".join(lines) + "\n"


def _perturbed(rows, i, col, delta):
    out = [list(r) for r in rows]
    out[i][col] += delta
    return out


def test_sweep_comparator_tolerance():
    ref = REFS["sweep"]
    assert refcheck.check_sweep_csv(_csv_from_ref(ref), ref, TOL) is None
    scale = refcheck.column_scales(ref["rows"])[3]
    inside = _csv_from_ref(ref, _perturbed(ref["rows"], 40, 3, 0.5 * TOL * scale))
    outside = _csv_from_ref(ref, _perturbed(ref["rows"], 40, 3, 2.0 * TOL * scale))
    assert refcheck.check_sweep_csv(inside, ref, TOL) is None
    assert "row 40" in refcheck.check_sweep_csv(outside, ref, TOL)
    assert refcheck.check_sweep_csv(_csv_from_ref(ref).replace(",true\n", ",false\n", 1),
                                    ref, TOL) is not None


def test_row_comparator_tolerance():
    refs = [r["values"] for r in REFS["dense"]]
    scales = refcheck.column_scales(refs)
    for factor, passes in ((0.5, True), (2.0, False)):
        values = list(refs[2])
        values[1] += factor * TOL * scales[1]
        assert (refcheck.compare_row(values, refs[2], scales, TOL) is None) == passes


class _Green:
    def __init__(self, pairs, converged=True):
        import numpy as np
        self.value = np.array([complex(a, b) for a, b in pairs]).reshape(3, 3)
        self.converged = converged


def test_tensor_comparator_and_invariants():
    entry = REFS["spectrum"][1]
    pairs = entry["tensor"]
    scale = max(abs(complex(a, b)) for a, b in pairs)
    omega = entry["omega_over_omega_a"] * 2.0 * 3.141592653589793
    assert refcheck.compare_tensor(_Green(pairs), pairs, TOL) is None
    for factor, passes in ((0.5, True), (2.0, False)):
        moved = [list(p) for p in pairs]
        moved[4][1] += factor * TOL * scale
        assert (refcheck.compare_tensor(_Green(moved), pairs, TOL) is None) == passes
    assert refcheck.check_tensor(_Green(pairs), omega) is None
    assert refcheck.check_tensor(_Green(pairs, converged=False), omega) is not None
    lossy = [list(p) for p in pairs]
    lossy[0][1] = -omega   # Im G_rr so negative that the decay rate is negative
    assert "negative" in refcheck.check_tensor(_Green(lossy), omega)


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- smoke runs: the smallest input of each workload, end to end ----------


@pytest.fixture(scope="module")
def workloads():
    import workloads
    return workloads


@pytest.fixture
def ctx(workloads, tmp_path):
    return workloads.Context(ROOT, seed=1, seconds=0.0, scratch=tmp_path, refs=REFS)


def _assert_clean(outcome, n_ops):
    assert len(outcome.ops) == n_ops
    assert [op.problem for op in outcome.ops] == [None] * n_ops
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if outcome.spans is not None else spec["end_to_end"]
    line = run._result_line(outcome, wanted)
    assert line["correct"] and line["attempted"] == n_ops and line["failed"] == 0
    assert set(line["metrics"]) == {e["name"] for e in wanted}


def test_smoke_dense_one_separation(workloads, ctx):
    outcome = workloads.Dense(repeats=1).measure(ctx)
    _assert_clean(outcome, 1)
    assert outcome.ops[0].arg == workloads.DENSE_ANCHORS[0]
    assert outcome.metrics["ops_per_s"][0] > 0


def test_smoke_spectrum_one_frequency_untraced_and_traced(workloads, ctx):
    wl = workloads.Spectrum(anchors=(1.0,), rounds=0)
    _assert_clean(wl.measure(ctx), 1)
    traced = wl.trace(ctx)
    _assert_clean(traced, 2)
    m = traced.metrics
    assert m["green_wire.wire_green.calls"][0] == 1
    assert m["trace.closure_s"][0] == pytest.approx(0.0, abs=1e-9)
    assert m["green_wire.evaluator.s"][0] <= m["trace.wall_s"][0]


@pytest.mark.parametrize("threads", [1, 2])
def test_smoke_sweep_shrunk_config(workloads, ctx, tmp_path, threads):
    config = json.loads((ROOT / "configs" / "default.json").read_text())
    config["sweep"]["n_points"] = 3
    config["tol_wire"] = 1e-3
    config["azimuthal_order"] = 30
    path = tmp_path / "small.json"
    path.write_text(json.dumps(config))
    outcome = workloads.Sweep(threads=threads, config=path).measure(ctx)
    _assert_clean(outcome, 1)
