"""Interpreter work of cold planning, as a count.

One ``engine.explain`` of two paper-scale queries — GNMF on MovieLens with
k = 2000 and the 500K-row autoencoder step with h = 500, the golden
``(P*, Q*, R*)`` queries — on a fresh engine, so every step of planning
runs: simplification, CFG exploration and exploitation, lowering with its
``(P, Q, R)`` searches, the graph passes and the render.  The count is the
number of ``call`` events of Python functions defined under ``src/repro``,
seen by a ``sys.setprofile`` hook with the cyclic collector paused.
Comprehension and generator frames are left out: Python 3.12 inlines
comprehensions, and a generator reports a ``call`` each time it resumes.
The count does not read a clock, and it repeats exactly under any
``PYTHONHASHSEED`` and whatever node ids the process has handed out
before, so it is the same on any runner.

The ceilings are the measured counts; a change that makes planning cheaper
lowers them.
"""

from __future__ import annotations

import gc
import inspect
import os
import sys

import pytest

import repro
from repro import ClusterConfig, EngineConfig, FuseMEEngine

from tests.core.test_pqr_golden import BLOCK, QUERIES

CEILINGS = {
    "gnmf:MovieLens:k2000": 5039,
    "ae:500K:b8192:h500": 7650,
}

_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
_RESUMABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | (
    inspect.CO_ASYNC_GENERATOR
)


def repro_calls(action) -> int:
    """Calls of functions defined under ``src/repro`` while *action* runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        code = frame.f_code
        if (
            code.co_filename.startswith(_ROOT)
            and not code.co_flags & _RESUMABLE
            and code.co_name not in _COMPREHENSIONS
        ):
            calls += 1

    # a collection mid-count would run the finalizers of earlier objects
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def cold_explain_calls(name: str) -> int:
    config = EngineConfig(cluster=ClusterConfig(), block_size=BLOCK)
    # a first explain imports whatever planning imports lazily
    FuseMEEngine(config).explain(QUERIES[name]())
    query = QUERIES[name]()
    engine = FuseMEEngine(config)
    return repro_calls(lambda: engine.explain(query))


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_cold_explain_stays_under_its_call_ceiling(name):
    calls = cold_explain_calls(name)
    assert calls <= CEILINGS[name], (
        f"{name}: {calls} repro calls per cold explain, ceiling "
        f"{CEILINGS[name]}"
    )


def test_the_count_repeats():
    name = "gnmf:MovieLens:k2000"
    assert cold_explain_calls(name) == cold_explain_calls(name)
