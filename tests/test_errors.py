"""Errors with structured constructor arguments survive a pickle round trip."""

import pickle

import pytest

from repro.errors import (
    QueryTimeoutError,
    SimulatedTimeoutError,
    TaskOutOfMemoryError,
)


@pytest.mark.parametrize(
    "error",
    [
        TaskOutOfMemoryError("cfo#3", 2048, 1024),
        SimulatedTimeoutError(50000.0, 43200.0),
        QueryTimeoutError("q-7", 1.5, 1.0),
    ],
    ids=lambda e: type(e).__name__,
)
def test_pickle_round_trip_rebuilds_the_error(error):
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is type(error)
    assert str(clone) == str(error)
    assert vars(clone) == vars(error)
