"""The traced benchmark run wraps named program attributes; each must exist.

perfbench/spans.py looks every hook up as ``vars(owner)[attr]`` and its
counters read attributes of the hooks' arguments and results, so a rename or
a removal in the program would crash ``perfbench/run.py --trace 1`` instead
of failing here.
"""

import importlib.util
from pathlib import Path

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
