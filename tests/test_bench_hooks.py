"""The traced benchmark run wraps named program attributes; each must exist.

perfbench/spans.py looks every hook up as ``vars(owner)[attr]``, so a rename
or a removal in the program would crash ``perfbench/run.py --trace 1``
instead of failing here.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("path, attr", [(t[0], t[1]) for t in spans.TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in spans.TARGETS])
def test_hook_resolves(path, attr):
    assert attr in vars(spans._owner(path))
