"""The names ``bench/tracing.py`` wraps must exist in the engine.

The tracer replaces module globals by name and skips a name a module no
longer binds, so a refactor that renames or bypasses one would silently
read 0 in the benchmark's counters. These tests load the tracer by path
and fail instead.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import rholog.engine
import rholog.matching
from rholog.proximity import ProximityRelation
from rholog.terms import Subst

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_engine_binds_every_name_the_tracer_wraps():
    names = [name for caller, name, _ in load_tracing().SPAN_SITES if caller == "engine"]
    assert "match_hedge" in names and "scored_match_hedge" in names
    assert [name for name in names if not hasattr(rholog.engine, name)] == []


def test_engine_calls_the_matchers_the_tracer_counts():
    assert rholog.engine.match_hedge is rholog.matching.match_hedge
    assert rholog.engine.scored_match_hedge is rholog.matching.scored_match_hedge


@pytest.mark.parametrize("cls, name", [(ProximityRelation, "degree"), (Subst, "bind")])
def test_class_sites_the_counters_wrap_are_methods(cls, name):
    # the tracer's counters wrap these class attributes; an instance
    # attribute of the same name would hide the wrapper
    assert inspect.isfunction(vars(cls).get(name))
    assert name not in getattr(cls(), "__dict__", {})
