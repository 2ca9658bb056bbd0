import os
from pathlib import Path

import pytest

from ariki.combinatorics import enumerate_multipartitions
from ariki.exactalg import specialise
from ariki.schur import schur_cancellation_free, spec_map_for

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _schur_scan(spec, l, n):
    """Semisimplicity oracle: every Schur element of rank n survives the specialisation."""
    theta = spec_map_for(spec, l)
    return all(
        not specialise(schur_cancellation_free(lam), theta).is_zero()
        for lam in enumerate_multipartitions(l, n)
    )


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    """Child interpreters (``python -m ariki.cli``) import ariki from this checkout's src too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture
def schur_scan():
    return _schur_scan
