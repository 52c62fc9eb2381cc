from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

import netspectra
from netspectra import DegreeModel

DATA_DIR = Path(__file__).parent / "data"

# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and writes nothing to the tree
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, print_blob=False)
settings.load_profile("deterministic")


@pytest.fixture()
def poisson100() -> DegreeModel:
    return DegreeModel.poisson(100.0)


@pytest.fixture()
def two_degree_model() -> DegreeModel:
    # two expected degrees 50 (weight 1/4) and 100 (weight 3/4)
    return DegreeModel.from_atoms([(50.0, 0.25), (100.0, 0.75)])


@pytest.fixture()
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture()
def src_env() -> dict[str, str]:
    """The environment with this checkout's netspectra first on PYTHONPATH,
    for tests that run it in a fresh interpreter."""
    src = Path(netspectra.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
