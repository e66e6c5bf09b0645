"""Tests of the benchmark's own helpers: python -m pytest bench"""

import sys
import types

import numpy as np
import pytest

import summary
import tracing
import workloads
from rtopf.profiles import (DayProfiles, SLOTS_PER_DAY, UPDATES_PER_DAY,
                            UPDATES_PER_SLOT)


@pytest.mark.parametrize("n", [1, 2, 7, 30, 180, 1001])
def test_percentile_matches_numpy_linear(n):
    xs = list(np.random.default_rng(n).normal(size=n))
    for pct in (0, 10, 50, 66.6, 99, 100):
        assert summary.percentile(xs, pct) == pytest.approx(
            np.percentile(xs, pct), abs=1e-12)


def test_percentile_of_nothing_is_zero():
    assert summary.percentile([], 50) == 0.0
    assert summary.tail([]) == 0.0


@pytest.mark.parametrize("n", [11, 30, 180, 4320, 8640])
def test_tail_leaves_ten_samples_beyond(n):
    xs = list(range(n))
    pct = summary.tail_pct(n)
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    value = summary.tail(xs)
    assert sum(x > value for x in xs) >= 10 - 1e-9
    # a higher percentile would leave fewer than ten beyond it
    assert sum(x > summary.percentile(xs, pct + 100.0 / n) for x in xs) < 10


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_of_few_samples_is_the_maximum(n):
    xs = [3.0 * i for i in range(n)]
    assert summary.tail_pct(n) == 100.0
    assert summary.tail(xs) == max(xs)


def test_self_time_subtracts_union_of_children():
    # children overlap each other and one sticks out of the parent
    kids = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (5.0, 5.0)]
    assert summary.covered(kids, 0.0, 10.0) == pytest.approx(5.0)
    assert summary.self_time(0.0, 10.0, kids) == pytest.approx(5.0)
    assert summary.self_time(0.0, 10.0, []) == 10.0
    assert summary.self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == 0.0


def test_tracer_records_parents_and_restores_functions():
    mod = types.ModuleType("fake_layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    mod.leaf, mod.outer = leaf, outer
    sys.modules["fake_layer"] = mod
    try:
        tr = tracing.Tracer()
        targets = (("fake_layer", "outer", "outer", None),
                   ("fake_layer", "leaf", "leaf", lambda out: {"out": out}),
                   ("fake_layer", "missing", "missing", None))
        with tr.patched(targets):
            assert mod.outer(1) == 4
        assert mod.leaf is leaf and mod.outer is outer
    finally:
        del sys.modules["fake_layer"]
    names = [(s.name, s.parent) for s in tr.spans]
    assert names == [("outer", -1), ("leaf", 0), ("leaf", 0)]
    assert tr.spans[1].note == {"out": 2}
    kids = tr.children()[0]
    root = tr.spans[0]
    own = summary.self_time(root.start, root.end,
                            [(k.start, k.end) for k in kids])
    assert 0 <= own <= root.duration - sum(k.duration for k in kids) + 1e-9


def test_call_times_cover_every_call_and_restore_the_function():
    mod = types.ModuleType("fake_rows")

    def solve(x):
        if x < 0:
            raise ValueError(x)
        return 2 * x

    mod.solve = solve
    with workloads._call_times_ms(mod, "solve") as ms:
        assert [mod.solve(i) for i in range(3)] == [0, 2, 4]
        with pytest.raises(ValueError):
            mod.solve(-1)  # a failed call is timed too
    assert mod.solve is solve
    assert len(ms) == 4 and all(t >= 0.0 for t in ms)


def test_layer_metrics_read_zero_for_unreached_layers():
    m = tracing.layer_metrics(tracing.Tracer())
    assert m["opf.solve.calls"] == 0.0
    assert m["opf.us_per_eval"] == 0.0
    assert m["scenarios.distinct_row_share"] == 0.0


def _day():
    def series(count, offset):
        return {bus: np.arange(count, dtype=float) + offset
                for bus in (2, 16)}
    return DayProfiles(demand_p=series(SLOTS_PER_DAY, 0.0),
                       demand_q=series(SLOTS_PER_DAY, 0.5),
                       wind_forecast=series(SLOTS_PER_DAY, 0.25),
                       wind_actual=series(UPDATES_PER_DAY, 0.75),
                       meta={"seed": 3})


def test_day_window_copies_sampled_slots_to_the_front():
    day = _day()
    win = workloads.day_window_profiles(day, stride=24, count=30)
    for bus in (2, 16):
        for i in range(30):
            assert win.demand_p[bus][i] == 24 * i
            assert win.demand_q[bus][i] == 24 * i + 0.5
            assert win.wind_forecast[bus][i] == 24 * i + 0.25
            for k in range(UPDATES_PER_SLOT):
                assert win.wind_actual[bus][6 * i + k] == \
                    6 * 24 * i + k + 0.75
        # the rest of the day is untouched and the input is not mutated
        assert np.array_equal(win.demand_p[bus][30:],
                              day.demand_p[bus][30:])
        assert np.array_equal(win.wind_actual[bus][180:],
                              day.wind_actual[bus][180:])
        assert np.array_equal(day.demand_p[bus],
                              np.arange(SLOTS_PER_DAY, dtype=float))
        assert win.wind_actual[bus].shape == (UPDATES_PER_DAY,)
    assert win.meta["seed"] == 3


def test_day_window_rejects_a_window_past_the_day():
    with pytest.raises(ValueError):
        workloads.day_window_profiles(_day(), stride=24, count=31)
