import pytest

from ariki.combinatorics import enumerate_multipartitions
from ariki.exactalg import specialise
from ariki.schur import schur_cancellation_free, spec_map_for


def _schur_scan(spec, l, n):
    """Semisimplicity oracle: every Schur element of rank n survives the specialisation."""
    theta = spec_map_for(spec, l)
    return all(
        not specialise(schur_cancellation_free(lam), theta).is_zero()
        for lam in enumerate_multipartitions(l, n)
    )


@pytest.fixture
def schur_scan():
    return _schur_scan
