"""Correctness checks for benchmark outputs.

Outputs with a stored reference (the default sweep's CSV, the fixed anchor
separations of ``dense`` and the fixed anchor frequencies of ``spectrum``)
are compared numerically against ``refs.json``.  Seeded outputs, which have
no reference, are checked by invariants.  Every check returns ``None`` when
the output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import math

ROW_FIELDS = ("gamma11", "gamma12", "shift12_resonant", "shift12_integral",
              "shift11_resonant", "shift11_integral")


def parse_sweep_csv(text):
    """(meta {key: str}, header [str], rows [[str]]) of a ``wireqed sweep`` CSV."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header or [], rows


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def column_scales(refs):
    """Largest |reference| of each column of a list of reference rows."""
    return [max(abs(r[c]) for r in refs) for c in range(len(refs[0]))]


def compare_row(values, ref, scales, tol):
    """One row within ``tol`` times each column's scale."""
    for c, (v, r, scale) in enumerate(zip(values, ref, scales)):
        if not abs(v - r) <= tol * scale:
            return f"column {c}: {v!r} against reference {r!r} (allowed {tol * scale:.3g})"
    return None


def check_sweep_csv(text, ref, tol):
    """A sweep CSV: every row converged and finite, and, when ``ref`` is
    given, equal to it within ``tol`` per column and per metadata value."""
    meta, header, rows = parse_sweep_csv(text)
    if not rows or header[-1:] != ["converged"]:
        return "sweep output has no rows or no converged column"
    if any(row[-1] != "true" for row in rows):
        return "sweep output has unconverged rows"
    values = [[_as_float(x) for x in row[:-1]] for row in rows]
    if any(v is None or not math.isfinite(v) for row in values for v in row):
        return "sweep output has non-numeric or non-finite values"
    if ref is None:
        return None
    if header != ref["header"]:
        return f"sweep header {header} differs from the reference"
    for key, want in ref["meta"].items():
        got = meta.get(key)
        if isinstance(want, str):
            if got != want:
                return f"metadata {key} = {got!r}, reference {want!r}"
        elif _as_float(got or "") is None or not abs(float(got) - want) <= tol * abs(want):
            return f"metadata {key} = {got!r}, reference {want!r}"
    if len(values) != len(ref["rows"]):
        return f"{len(values)} sweep rows against {len(ref['rows'])} in the reference"
    scales = column_scales(ref["rows"])
    for i, (row, want) in enumerate(zip(values, ref["rows"])):
        bad = compare_row(row, want, scales, tol)
        if bad is not None:
            return f"sweep row {i} {bad}"
    return None


def check_row(result):
    """Invariants of one ``PairInteraction.at`` result."""
    vals = [getattr(result, f) for f in ROW_FIELDS]
    if not all(math.isfinite(v) for v in vals):
        return "non-finite rate or shift"
    if not result.converged:
        return "converged = false"
    if not result.gamma11 > 0:
        return f"gamma11 = {result.gamma11} is not positive"
    if not abs(result.gamma12) <= result.gamma11:
        return f"|gamma12| = {abs(result.gamma12)} exceeds gamma11 = {result.gamma11}"
    total = result.shift12_resonant + result.shift12_integral
    if result.shift12_total != total:
        return "shift12_total differs from resonant + integral"
    return None


def check_tensor(green, omega):
    """Invariants of one ``wire_green`` result at real frequency ``omega``:
    finite, converged, and a non-negative total radial decay rate."""
    vals = [complex(v) for v in green.value.reshape(-1)]
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals):
        return "non-finite tensor"
    if not green.converged:
        return "converged = false"
    rate = 1.0 + (6.0 * math.pi / omega) * vals[0].imag
    if rate < 0.0:
        return f"negative radial decay rate {rate}"
    return None


def compare_tensor(green, ref, tol):
    """A 3x3 tensor within ``tol`` times its largest reference component.

    ``ref`` is nine ``[re, im]`` pairs.  The scale is per tensor, not per
    component across frequencies, because the anchors span three decades
    of |G|.
    """
    want = [complex(re, im) for re, im in ref]
    got = [complex(v) for v in green.value.reshape(-1)]
    scale = max(abs(w) for w in want)
    for k, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= tol * scale:
            return f"component {k}: {g} against reference {w} (allowed {tol * scale:.3g})"
    return None
