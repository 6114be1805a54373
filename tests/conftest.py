import json
import os
import pathlib

import pytest

from wireqed import (DrudeModel, OMEGA_A, WireGeometry, fit_plasmon_lorentzian)
from wireqed.emitters import EmitterPair, PairInteraction

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def load_fixture(name):
    return json.loads((FIXTURES / name).read_text())


def subprocess_env():
    """The environment with the checkout's src/ first on PYTHONPATH, so a
    child ``python -m wireqed.cli`` imports the code under test without an
    installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def default_geom():
    return WireGeometry(radius=0.01, model=DrudeModel())


@pytest.fixture(scope="session")
def default_pair():
    return EmitterPair((0.015, 0.0, 0.0), (0.015, 0.0, 0.5))


@pytest.fixture(scope="session")
def pair_engine(default_geom, default_pair):
    # one shared build covers every separation the suite asks for
    return PairInteraction(default_geom, default_pair, tol=1e-6,
                           dz_refs=(0.0, 0.02, 0.5, 2.0, 4.0))


@pytest.fixture(scope="session")
def plasmon_fit(pair_engine):
    # the default pair's fit, as sweep and point take it: from its real-axis
    # table and the TM0 root that table's window found
    tab = pair_engine.table_res
    return fit_plasmon_lorentzian(OMEGA_A, tab.spectrum, tab.pole)
