"""Spans around wireqed's public calls, for the traced benchmark run.

A ``Tracer`` replaces each layer's public callable where its caller looks it
up (a module global for functions, the class attribute for methods) with a
wrapper that records a span: name, start, end, parent span and a few counts
read from the arguments or the result.  Wrappers exist only inside
``Tracer.installed()``; untraced runs execute the program untouched.

Spans are kept in memory as plain lists ``[name, start, end, parent, counts]``
and turned into per-layer metrics by ``layer_metrics`` once the run is over.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, COUNTS = range(5)


def _jh_counts(args, out):
    nmax, z = args[0], args[1]
    # J and H^(1) ladders of orders 0..nmax+1 at every argument
    return {"evals": 2 * (int(nmax) + 2) * int(np.size(z))}


def _evaluator_counts(args, out):
    return {"nodes": int(np.size(args[1]))}


def _settle_counts(args, out):
    return {"nmax": int(out[0])}


def _wire_green_counts(args, out):
    return {"nodes": int(out.report.nodes_used), "nmax": int(out.report.diagnostics["nmax"])}


def _panel_counts(args, out):
    ps = out[0]
    return {"nodes": int(ps.nodes_used), "panels": len(ps.panels)}


def _moment_counts(args, out):
    return {"cols": int(np.size(args[0]))}


def _at_counts(args, out):
    return {"kappa_tables": int(out.diagnostics["kappa_nodes"])}


# (owner, attribute, span name, counter).  Functions are wrapped in every
# module that imports them by name; methods on their class.
TARGETS = (
    ("wireqed.green_wire", "jh_orders", "bessel.jh_orders", _jh_counts),
    ("wireqed.green_wire:SpectralEvaluator", "__call__", "green_wire.evaluator",
     _evaluator_counts),
    ("wireqed.green_wire:SpectralEvaluator", "_solve", "green_wire.solve", None),
    ("wireqed.green_wire", "settle_azimuthal_order", "green_wire.settle", _settle_counts),
    ("wireqed.emitters", "settle_azimuthal_order", "green_wire.settle", _settle_counts),
    ("wireqed.green_wire", "wire_green", "green_wire.wire_green", _wire_green_counts),
    ("wireqed.green_wire:WireSpectralTable", "integrate", "green_wire.table_integrate", None),
    ("wireqed.green_wire:FrozenSpectralTable", "integrate", "green_wire.table_integrate",
     None),
    ("wireqed.green_wire", "build_spectral_panels", "quadrature.panels", _panel_counts),
    ("wireqed.quadrature", "moments_for", "quadrature.moments_for", _moment_counts),
    ("wireqed.emitters:PairInteraction", "__init__", "emitters.build", None),
    ("wireqed.emitters:PairInteraction", "at", "emitters.at", _at_counts),
    ("wireqed.cli", "fit_plasmon_lorentzian", "emitters.fit", None),
    ("wireqed.cli", "cmd_sweep", "cli.sweep", None),
)


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][COUNTS] = counter(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for path, attr, name, counter in TARGETS:
                owner = _owner(path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans):
    """Duration of each span minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s[START]
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            a = max(spans[c][START], cursor)
            b = min(spans[c][END], s[END])
            if b > a:
                covered += b - a
                cursor = b
        out.append((s[END] - s[START]) - covered)
    return out


def _outermost(spans, i):
    """True when no ancestor of span i has the same name."""
    name, p = spans[i][NAME], spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return False
        p = spans[p][PARENT]
    return True


def layer_totals(spans, selfs=None):
    """{name: {"s", "self_s", "calls", <summed counts>}} over all spans."""
    if selfs is None:
        selfs = self_times(spans)
    totals = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        if _outermost(spans, i):
            t["s"] += s[END] - s[START]
        for key, val in (s[COUNTS] or {}).items():
            t[key] = t.get(key, 0) + val
    return totals


def layer_metrics(spans, root=0):
    """Per-layer metrics of one traced pass whose outermost span is ``root``.

    Returns ``{metric: (value, unit)}``.  Layers the pass never entered read
    zero.  ``trace.closure_s`` is the sum of every span's self time minus the
    root's duration, zero up to rounding: self times plus un-spanned time
    (the root's own self time) add up to the traced wall time.
    """
    selfs = self_times(spans)
    totals = layer_totals(spans, selfs)
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}
    get = lambda name: totals.get(name, zero)
    wall = spans[root][END] - spans[root][START]

    ev, settle, panels = get("green_wire.evaluator"), get("green_wire.settle"), \
        get("quadrature.panels")
    evals = sum(s[COUNTS]["evals"] for s in spans
                if s[NAME] == "bessel.jh_orders" and s[PARENT] >= 0
                and spans[s[PARENT]][NAME] == "green_wire.evaluator")
    in_settle = sum(1 for s in spans if s[NAME] == "green_wire.evaluator"
                    and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "green_wire.settle")
    wg = get("green_wire.wire_green")
    at = get("emitters.at")
    ratio = lambda a, b: a / b if b else 0.0

    return {
        "bessel.jh_orders.s": (get("bessel.jh_orders")["s"], "s"),
        "bessel.jh_orders.calls": (get("bessel.jh_orders")["calls"], "count"),
        "bessel.evals_per_node": (ratio(evals, ev.get("nodes", 0)), "count"),
        "green_wire.evaluator.s": (ev["s"], "s"),
        "green_wire.evaluator.self_s": (ev["self_s"], "s"),
        "green_wire.evaluator.nodes": (ev.get("nodes", 0), "count"),
        "green_wire.solve.s": (get("green_wire.solve")["s"], "s"),
        "green_wire.solve.calls": (get("green_wire.solve")["calls"], "count"),
        "green_wire.settle.s": (settle["s"], "s"),
        "green_wire.settle.nmax": (ratio(settle.get("nmax", 0), settle["calls"]), "count"),
        "green_wire.settle.evaluators_built": (ratio(in_settle, settle["calls"]), "count"),
        "green_wire.wire_green.s": (wg["s"], "s"),
        "green_wire.wire_green.calls": (wg["calls"], "count"),
        "green_wire.wire_green.nodes": (wg.get("nodes", 0), "count"),
        "green_wire.wire_green.nmax": (ratio(wg.get("nmax", 0), wg["calls"]), "count"),
        "green_wire.table_integrate.s": (get("green_wire.table_integrate")["s"], "s"),
        "green_wire.table_integrate.calls": (get("green_wire.table_integrate")["calls"],
                                             "count"),
        "quadrature.panels.self_s": (panels["self_s"], "s"),
        "quadrature.panels.nodes": (panels.get("nodes", 0), "count"),
        "quadrature.panels.kept_frac": (ratio(16 * panels.get("panels", 0),
                                              panels.get("nodes", 0)), "fraction"),
        "quadrature.moments_for.s": (get("quadrature.moments_for")["s"], "s"),
        "quadrature.moments_for.calls": (get("quadrature.moments_for")["calls"], "count"),
        "quadrature.moments_for.cols": (get("quadrature.moments_for").get("cols", 0),
                                        "count"),
        "emitters.build.s": (get("emitters.build")["s"], "s"),
        "emitters.build.calls": (get("emitters.build")["calls"], "count"),
        "emitters.kappa_tables": (ratio(at.get("kappa_tables", 0), at["calls"]), "count"),
        "emitters.at.s": (at["s"], "s"),
        "emitters.at.self_s": (at["self_s"], "s"),
        "emitters.at.calls": (at["calls"], "count"),
        "emitters.fit.s": (get("emitters.fit")["s"], "s"),
        "emitters.fit.calls": (get("emitters.fit")["calls"], "count"),
        "cli.sweep.other_s": (get("cli.sweep")["self_s"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unspanned_s": (selfs[root], "s"),
        "trace.spans": (len(spans), "count"),
        "trace.closure_s": (sum(selfs) - wall, "s"),
    }
