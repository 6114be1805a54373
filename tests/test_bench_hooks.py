"""The traced benchmark run wraps named program attributes; each must exist.

perfbench/spans.py looks every hook up as ``vars(owner)[attr]`` and its
counters read attributes of the hooks' arguments and results, so a rename or
a removal in the program would crash ``perfbench/run.py --trace 1`` instead
of failing here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from wireqed import OMEGA_A, DrudeModel, SpectralPoint, WireGeometry, green_wire

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("path, attr", [(t[0], t[1]) for t in spans.TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in spans.TARGETS])
def test_hook_resolves(path, attr):
    assert attr in vars(spans._owner(path))


def test_traced_wire_green_yields_layer_metrics():
    geom = WireGeometry(radius=0.01, model=DrudeModel())
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("root"):
        g = green_wire.wire_green(geom, (0.03, 0.0, 0.0), (0.03, 0.0, 0.5),
                                  SpectralPoint.imaginary_axis(OMEGA_A))
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["green_wire.wire_green.calls"][0] == 1
    assert metrics["green_wire.wire_green.nodes"][0] == g.report.nodes_used
    assert metrics["green_wire.wire_green.nmax"][0] == g.report.diagnostics["nmax"]
    assert metrics["quadrature.panels.nodes"][0] == g.report.nodes_used
    assert 0.0 < metrics["quadrature.panels.kept_frac"][0] <= 1.0
    assert metrics["green_wire.evaluator.nodes"][0] >= g.report.nodes_used


def test_each_table_integral_records_one_span():
    # both table names are hooked, and every table, of one frequency or of
    # several weighted ones, is the frozen type's subclass: each integral
    # must still record one span, not a span wrapped in another of the same
    # name
    geom = WireGeometry(radius=0.01, model=DrudeModel())
    points = [SpectralPoint.imaginary_axis(k) for k in (0.5 * OMEGA_A, 2.0 * OMEGA_A)]
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("root"):
        tables = [green_wire.WireSpectralTable(geom, SpectralPoint.imaginary_axis(OMEGA_A),
                                               0.015, 0.015, 0.0, tol=1e-6),
                  green_wire.WireSpectralTable(geom, points, 0.015, 0.015, 0.0,
                                               weights=np.array([0.5, 0.25]), tol=1e-6,
                                               budget=30000)]
        counts = []
        for tab in tables:
            tab.integrate(0.5)
            counts.append(sum(s[spans.NAME] == "green_wire.table_integrate"
                              for s in tracer.spans))
    assert isinstance(tables[0], green_wire.FrozenSpectralTable)
    assert counts == [1, 2]
    assert spans.layer_metrics(tracer.spans)["green_wire.table_integrate.calls"][0] == 2
