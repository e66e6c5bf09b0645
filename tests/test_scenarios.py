import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtopf.opf import FAST_OPTS, HorizonInput, STATUS_FAILURE, STATUS_OPTIMAL
from rtopf.profiles import ProfileGenConfig, gen_day_profiles
from rtopf.realtime import run_day
from rtopf.scenarios import (DEFAULT_WIDTH_FRACTION, LEVEL_LABELS,
                             build_lookup_table, enumerate_scenarios,
                             make_levels, scenario_index, scenario_label,
                             table_to_csv)

from conftest import DATA, chain_net, raising_row


def test_level_width_ratio_enforced():
    # one width dp1 sets all three: dp1, 2*dp1 and 3*dp1, for every station
    levels = make_levels([5.0, 2.0], 0.5, [10.0, 20.0])
    assert levels.values == ((6.5, 6.0, 5.5, 5.0, 4.5, 4.0, 3.5),
                             (3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5))


def test_default_widths_are_fifteen_percent_of_rated():
    (h3, h2, h1, m, l1, l2, l3), = make_levels([5.0], None, [10.0]).values
    assert h3 - m == pytest.approx(1.5)
    assert h1 - m == pytest.approx(0.5)
    # each station's own rated power, by the same expression as a given dp1
    rated = [10.0, 7.3]
    assert make_levels([5.0, 3.0], None, rated).values == tuple(
        make_levels([m], DEFAULT_WIDTH_FRACTION * r / 3.0, [r]).values[0]
        for m, r in zip([5.0, 3.0], rated))


def test_levels_around_forecast():
    levels = make_levels([3.8, 7.05], None, [10.0, 10.0])
    assert levels.values[0] == (5.3, 4.8, 4.3, 3.8, 3.3, 2.8, 2.3)
    assert levels.values[1] == (8.55, 8.05, 7.55, 7.05, 6.55, 6.05, 5.55)


def test_levels_clamped_to_physical_range():
    levels = make_levels([0.5, 9.5], None, [10.0, 10.0])
    assert levels.values[0][-1] == 0.0   # 0.5 - 1.5 clamps at zero
    assert levels.values[0][3] == 0.5
    assert levels.values[1][0] == 10.0   # 9.5 + 1.5 clamps at rated
    assert levels.values[1][3] == 9.5


def test_make_levels_input_validation():
    with pytest.raises(ValueError, match="equal length"):
        make_levels([1.0], None, [10.0, 10.0])
    with pytest.raises(ValueError, match="outside"):
        make_levels([11.0], None, [10.0])
    for dp1 in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive finite"):
            make_levels([1.0, 2.0], dp1, [10.0, 10.0])


def test_scenario_index_mixed_radix():
    assert scenario_index((1, 1)) == 1
    assert scenario_index((1, 7)) == 7
    assert scenario_index((2, 1)) == 8
    assert scenario_index((4, 4)) == 25
    assert scenario_index((7, 7)) == 49
    assert scenario_index((3,)) == 3
    with pytest.raises(ValueError):
        scenario_index((0, 1))
    with pytest.raises(ValueError):
        scenario_index((1, 8))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=3))
def test_scenario_index_is_a_bijection_in_enumeration_order(positions):
    n = len(positions)
    idx = scenario_index(positions)
    assert 1 <= idx <= 7 ** n
    digits, rest = [], idx - 1  # base-7 digits, most significant first
    for _ in range(n):
        rest, d = divmod(rest, 7)
        digits.insert(0, d + 1)
    assert digits == positions
    scens = enumerate_scenarios(make_levels([5.0] * n, None, [10.0] * n))
    assert [sc.index for sc in scens] == list(range(1, 7 ** n + 1))
    assert scens[idx - 1].level_choice == tuple(LEVEL_LABELS[p - 1]
                                                for p in positions)


def test_enumerate_scenarios_order_and_labels():
    levels = make_levels([3.8, 7.05], None, [10.0, 10.0])
    scens = enumerate_scenarios(levels)
    assert len(scens) == 49
    assert [s.index for s in scens] == list(range(1, 50))
    assert scens[0].level_choice == ("H3", "H3")
    assert scens[0].wind == (5.3, 8.55)
    assert scens[24].level_choice == ("M", "M")
    assert scens[24].wind == (3.8, 7.05)
    assert scens[48].level_choice == ("L3", "L3")
    assert scenario_label(scens[24]) == "Pw,M-Pw,M"
    # station 1 is the outermost digit: its level is constant per 7-row block
    assert {s.level_choice[0] for s in scens[:7]} == {"H3"}
    assert [s.level_choice[1] for s in scens[:7]] == list(LEVEL_LABELS)


def small_setup():
    net = chain_net(3, station_buses=(3,))
    inp = HorizonInput(demand_p={2: 3.0}, demand_q={2: 1.0},
                       wind_available={3: 2.0}, price_p=1.67, price_q=0.4)
    levels = make_levels([2.0], None, [10.0])
    return net, inp, enumerate_scenarios(levels), levels


def test_build_lookup_table_single_station():
    net, inp, scens, levels = small_setup()
    table = build_lookup_table(net, inp, scens, levels, opts=FAST_OPTS)
    assert table.n_rows == 7
    assert table.deadline_met
    assert all(sol.status == STATUS_OPTIMAL for _, sol in table.rows)
    sc, sol = table.row(4)
    assert sc.level_choice == ("M",)
    assert sc.wind == (2.0,)
    # levels at or below the 3 MW demand run uncurtailed; the H3 level
    # exceeds demand plus losses and is pushed back to the boundary
    for sc, sol in table.rows:
        if sc.wind[0] <= 3.0:
            assert sol.beta == (1.0,)
        else:
            assert sol.beta[0] < 1.0
            assert abs(sol.p_s) < 1e-5


def test_lookup_rows_solve_the_per_row_wind():
    net, inp, scens, levels = small_setup()
    table = build_lookup_table(net, inp, scens, levels, opts=FAST_OPTS)
    for sc, sol in table.rows:
        assert sol.f1 == pytest.approx(
            inp.price_p * sol.beta[0] * sc.wind[0], abs=1e-9)


def test_deadline_flag():
    net, inp, scens, levels = small_setup()
    table = build_lookup_table(net, inp, scens, levels, opts=FAST_OPTS,
                               deadline=1e-12)
    assert not table.deadline_met
    assert table.build_duration > 0


def test_workers_do_not_change_the_table():
    net, inp, scens, levels = small_setup()
    t1 = build_lookup_table(net, inp, scens, levels, opts=FAST_OPTS,
                            workers=1)
    t2 = build_lookup_table(net, inp, scens, levels, opts=FAST_OPTS,
                            workers=2)
    assert table_to_csv(t1, [3]) == table_to_csv(t2, [3])
    with pytest.raises(ValueError):
        build_lookup_table(net, inp, scens, levels, workers=0)


def test_worker_pool_is_capped_at_the_block_count(net41, horizon1,
                                                  monkeypatch):
    # a pool forks all of its workers at the first submit, so asking for
    # 100,000 must start at most one per block; the fake maps in-process
    # and no real pool is started
    import concurrent.futures

    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            pools.append((self.max_workers, chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    buses = [s.bus for s in net41.stations]
    levels = make_levels([horizon1.wind_available[b] for b in buses], None,
                         [s.rated_power for s in net41.stations])
    scens = enumerate_scenarios(levels)
    serial = build_lookup_table(net41, horizon1, scens, levels, workers=1)
    assert not pools
    capped = build_lookup_table(net41, horizon1, scens, levels,
                                workers=100_000)
    assert pools == [(7, 1)]  # 7 blocks of 7 rows; chunk 7 // (4 * 7) -> 1
    assert table_to_csv(capped, buses) == table_to_csv(serial, buses)
    # a single block (one station) is solved in-process
    net, inp, scens, levels = small_setup()
    build_lookup_table(net, inp, scens, levels, workers=100_000)
    assert pools == [(7, 1)]


def test_failed_rows_do_not_sink_the_table():
    net = chain_net(3, station_buses=(3,), v_min=1.02, v_max=1.05)
    inp = HorizonInput(demand_p={2: 5.0}, demand_q={2: 1.5},
                       wind_available={3: 1.0}, price_p=1.67, price_q=0.4)
    levels = make_levels([1.0], None, [10.0])
    table = build_lookup_table(net, inp, enumerate_scenarios(levels), levels,
                               opts=FAST_OPTS)
    assert table.n_rows == 7
    assert all(sol.status != STATUS_OPTIMAL for _, sol in table.rows)


def test_a_raising_row_fails_alone(net41, horizon1, monkeypatch):
    # the row's exception becomes a failed row; the table keeps every row,
    # and the rest of the row's block is still solved
    exc = raising_row(monkeypatch)
    buses = [s.bus for s in net41.stations]
    levels = make_levels([horizon1.wind_available[b] for b in buses], None,
                         [s.rated_power for s in net41.stations])
    table = build_lookup_table(net41, horizon1, enumerate_scenarios(levels),
                               levels)
    assert table.n_rows == 49
    _, failed = table.row(10)
    assert failed.status == STATUS_FAILURE
    assert failed.message == repr(exc)
    assert failed.evals == 0
    assert [sol.status for sc, sol in table.rows if sc.index != 10] == \
        [STATUS_OPTIMAL] * 48
    # the controller counts it among the day's failed rows
    shape = json.loads((DATA / "hourly_demand_shape.json").read_text())
    base = json.loads((DATA / "hourly_wind_base.json").read_text())
    profiles = gen_day_profiles(net41, shape["hourly_shape"],
                                base["hourly_base_mw"],
                                ProfileGenConfig(seed=0))
    run = run_day(net41, profiles, n_horizons=1)
    assert run.summary.failed_rows == 1


def test_table_to_csv_shape():
    net, inp, scens, levels = small_setup()
    table = build_lookup_table(net, inp, scens, levels, opts=FAST_OPTS)
    lines = table_to_csv(table, [3]).strip().split("\n")
    assert len(lines) == 8
    assert lines[0].startswith("index,scenario,wind_mw_bus3,beta_bus3,")
    assert lines[1].split(",")[0] == "1"
    # floats are serialized with full precision
    rebuilt = build_lookup_table(net, inp, scens, levels, opts=FAST_OPTS)
    assert table_to_csv(rebuilt, [3]) == table_to_csv(table, [3])


def test_import_leaves_the_process_pool_unloaded():
    # the pool's module loads only for a build with more than one worker
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, rtopf; print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
