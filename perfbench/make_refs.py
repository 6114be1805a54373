"""Regenerate refs.json, the outputs every benchmark run is checked against.

Run it at the commit whose outputs are the reference, and commit the file:

    python3 perfbench/make_refs.py --source <commit id>

It records the default sweep's CSV (compared numerically, not byte for byte),
the ``dense`` anchor separations and the ``spectrum`` anchor frequencies, all
computed with the same geometry and settings as the workloads, and the
tolerance the comparisons use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, ROOT, THREAD_VARS

#: Allowed deviation, relative to a column's largest |reference| (a tensor's
#: largest component for spectrum).  The program's own error estimates are
#: about 3e-5 in ratio units, so quadrature changes within tolerance pass and
#: a wrong tensor does not.
TOLERANCE = 1e-4


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--source", required=True, help="commit the references come from")
    args = p.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from wireqed import cli

    import refcheck
    import workloads

    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        out = Path(tmp) / "sweep.csv"
        rc = cli.main(["sweep", "--config", str(ROOT / "configs" / "default.json"),
                       "--threads", "1", "--out", str(out)])
        if rc != 0:
            raise SystemExit(f"default sweep exited {rc}")
        text = out.read_text()
    if refcheck.check_sweep_csv(text, None, TOLERANCE) is not None:
        raise SystemExit(f"default sweep: {refcheck.check_sweep_csv(text, None, TOLERANCE)}")
    meta, header, rows = refcheck.parse_sweep_csv(text)
    sweep = {"meta": {k: (v if k == "schema" else float(v)) for k, v in meta.items()},
             "header": header,
             "rows": [[float(x) for x in row[:-1]] for row in rows]}

    engine = workloads.dense_engine()
    dense = []
    for dz in workloads.DENSE_ANCHORS:
        r = engine.at(dz)
        if refcheck.check_row(r) is not None:
            raise SystemExit(f"dense anchor {dz}: {refcheck.check_row(r)}")
        dense.append({"dz": dz, "values": [getattr(r, f) for f in refcheck.ROW_FIELDS]})

    geom = workloads.spectrum_geometry()
    spectrum = []
    for f in workloads.SPECTRUM_ANCHORS:
        g = workloads.spectrum_tensor(geom, f)
        if refcheck.check_tensor(g, f * workloads.OMEGA_A) is not None:
            raise SystemExit(f"spectrum anchor {f}: fails its invariants")
        spectrum.append({"omega_over_omega_a": f,
                         "tensor": [[v.real, v.imag] for v in g.value.reshape(-1).tolist()]})

    refs = {"source": args.source, "tolerance": TOLERANCE, "sweep": sweep,
            "dense": dense, "spectrum": spectrum}
    (BENCH_DIR / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
