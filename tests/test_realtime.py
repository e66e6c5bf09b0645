import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtopf import realtime
from rtopf.opf import FAST_OPTS, HorizonInput, evaluate_objective
from rtopf.powerflow import (InjectionSpec, PowerFlowError, branch_flows,
                             injections, slack_power, start_state,
                             zbus_iterate)
from rtopf.profiles import (HORIZON_S, ProfileGenConfig, SLOTS_PER_DAY,
                            UPDATE_S, UPDATES_PER_SLOT, gen_day_profiles)
from rtopf.realtime import (apply_and_realize, run_day, select_positions,
                            summary_to_text, trace_to_csv)
from rtopf.scenarios import (build_lookup_table, enumerate_scenarios,
                             make_levels, scenario_index)

from conftest import DATA, chain_net

SHAPE = [0.7] * 24
BASE = [3.0] * 24


def test_select_positions_examples():
    levels = make_levels([3.8, 7.05], None, [10.0, 10.0])
    # exact forecast lands on M for both stations
    assert select_positions(levels, (3.8, 7.05)) == ((4, 4), False)
    # the smallest level still covering the observation is chosen
    assert select_positions(levels, (4.1, 7.3)) == ((3, 3), False)
    assert select_positions(levels, (2.0, 5.0)) == ((7, 7), False)
    # above the H3 level: clamp to the highest level and flag it
    assert select_positions(levels, (5.6, 7.05)) == ((1, 4), True)


def test_selection_is_conservative():
    levels = make_levels([3.8, 7.05], None, [10.0, 10.0])
    rng = np.random.default_rng(0)
    for _ in range(200):
        actual = (float(rng.uniform(0, 6)), float(rng.uniform(4, 10)))
        positions, clamped = select_positions(levels, actual)
        for s, (pos, a) in enumerate(zip(positions, actual)):
            level = levels.values[s][pos - 1]
            if not clamped:
                # the planned level always covers the observed wind
                assert level >= a
                if pos < 7:
                    assert levels.values[s][pos] < a


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 12.0)),
                min_size=1, max_size=3))
def test_selection_never_undershoots_unless_clamped(stations):
    forecast = [f for f, _ in stations]
    actual = [a for _, a in stations]
    levels = make_levels(forecast, None, [10.0] * len(stations))
    positions, clamped = select_positions(levels, actual)
    for vals, a, pos in zip(levels.values, actual, positions):
        if vals[pos - 1] < a:
            # below the observation only as the flagged clamp to H3
            assert clamped and pos == 1
        elif pos < 7:
            assert vals[pos] < a  # the deepest level still covering it
    assert clamped == any(vals[0] < a
                          for vals, a in zip(levels.values, actual))


def test_select_scenario_indexes_the_table():
    net = chain_net(3, station_buses=(3,))
    inp = HorizonInput(demand_p={2: 3.0}, demand_q={2: 1.0},
                       wind_available={3: 2.0}, price_p=1.67, price_q=0.4)
    levels = make_levels([2.0], None, [10.0])
    table = build_lookup_table(net, inp, enumerate_scenarios(levels), levels,
                               opts=FAST_OPTS)
    positions, clamped = select_positions(table.levels, (1.8,))
    assert not clamped
    idx = scenario_index(positions)
    sc, _ = table.row(idx)
    assert sc.wind[0] >= 1.8
    assert idx == 4  # levels 3.5..0.5; M = 2.0 is the smallest cover of 1.8


def test_apply_and_realize_prorates_to_one_update():
    net = chain_net(3, station_buses=(3,))
    pf, comps = apply_and_realize(net, {2: 3.0}, {2: 1.0}, (2.0,), (1.0,),
                                  price_p=1.67, price_q=0.4)
    assert comps["f"] == pytest.approx(comps["f1"] - comps["f2"]
                                       - comps["f3"] - comps["f4"], abs=1e-12)
    # one update interval is a sixth of the horizon
    assert comps["f1"] == pytest.approx(1.67 * 2.0 / 6.0, abs=1e-12)
    assert comps["f3"] == pytest.approx(1.67 * pf.p_s / 6.0, abs=1e-12)
    assert pf.p_s == pytest.approx(3.0 - 2.0 + pf.p_loss, abs=1e-9)


def test_apply_and_realize_matches_evaluate_objective(net41, horizon1):
    # the realized update is the OPF's single-point evaluation at the
    # prices of one update interval, bitwise
    beta = (1.0, 0.35)
    wind = tuple(horizon1.wind_available[b] for b in net41.station_buses)
    pf, comps = apply_and_realize(net41, horizon1.demand_p,
                                  horizon1.demand_q, wind, beta,
                                  horizon1.price_p, horizon1.price_q)
    frac = UPDATE_S / HORIZON_S
    prorated = replace(horizon1, price_p=horizon1.price_p * frac,
                       price_q=horizon1.price_q * frac)
    bd = evaluate_objective(net41, prorated, beta)
    assert pf.p_s == bd.power_flow.p_s
    assert (comps["f"], comps["f1"], comps["f2"], comps["f3"],
            comps["f4"]) == (bd.f, bd.f1, bd.f2, bd.f3, bd.f4)


def test_run_day_chain_matches_dict_updates_and_the_kernel(net41):
    # each run_day update must equal apply_and_realize on the horizon's
    # dicts, warm-started from the update before, and the batched kernel at
    # K = 1 from the same start, bitwise
    with open(DATA / "hourly_demand_shape.json") as fh:
        shape = json.load(fh)["hourly_shape"]
    with open(DATA / "hourly_wind_base.json") as fh:
        base = json.load(fh)["hourly_base_mw"]
    profiles = gen_day_profiles(net41, shape, base, ProfileGenConfig(seed=0))
    run = run_day(net41, profiles, opts=FAST_OPTS, n_horizons=2)
    assert len(run.records) == 2 * UPDATES_PER_SLOT
    mva = net41.base_mva
    warm = None
    for r in run.records:
        assert not r.failed
        h, ref = r.horizon_id, r.realized
        demand_p = {b: float(a[h]) for b, a in profiles.demand_p.items()}
        demand_q = {b: float(a[h]) for b, a in profiles.demand_q.items()}
        pf, comps = apply_and_realize(net41, demand_p, demand_q,
                                      r.actual_wind, r.applied_beta,
                                      start=warm)
        assert np.array_equal(pf.v, ref.v)
        assert np.array_equal(pf.theta, ref.theta)
        assert np.array_equal(pf.flows, ref.flows)
        assert (pf.p_s, pf.q_s, pf.p_loss, pf.iterations) == (
            ref.p_s, ref.q_s, ref.p_loss, ref.iterations)
        assert (comps["f"], comps["f1"], comps["f2"], comps["f3"],
                comps["f4"]) == (r.realized_f, r.realized_f1,
                                 r.realized_f2, r.realized_f3,
                                 r.realized_f4)
        demand = InjectionSpec.from_mappings(net41, demand_p, demand_q)
        p, _ = injections(net41, demand, r.actual_wind, [r.applied_beta])
        q = -demand.q_mvar
        # the start state written out: the slack at its set voltage, the
        # other buses flat or at the previous update's (v, theta)
        vc = np.full((1, net41.n_buses),
                     net41.slack_voltage * np.exp(1j * net41.slack_angle))
        if warm is not None:
            vc[0, 1:] = warm[0][1:] * np.exp(1j * warm[1][1:])
        assert np.array_equal(start_state(net41, warm), vc)
        converged, iterations, _ = zbus_iterate(
            net41, p / mva + 1j * (q / mva), vc)
        assert converged[0] and iterations[0] == ref.iterations
        assert np.array_equal(np.abs(vc[0]), ref.v)
        assert np.array_equal(np.angle(vc[0]), ref.theta)
        p_s, q_s, p_loss = slack_power(net41, net41.Y, p, vc)
        assert (p_s[0], q_s[0], p_loss[0]) == (ref.p_s, ref.q_s, ref.p_loss)
        assert np.array_equal(branch_flows(net41, vc)[0], ref.flows)
        warm = (ref.v, ref.theta)


def day_fixture(seed=0, stations=(3,)):
    net = chain_net(4, station_buses=stations,
                    demand={2: (4.0, 1.5), 4: (2.0, 0.7)})
    profiles = gen_day_profiles(net, SHAPE, BASE, ProfileGenConfig(seed=seed))
    return net, profiles


def test_run_day_short_segment():
    net, profiles = day_fixture()
    run = run_day(net, profiles, opts=FAST_OPTS, n_horizons=3)
    assert run.summary.horizons == 3
    assert run.summary.updates == 18
    assert len(run.records) == 18
    assert run.summary.failed_intervals == 0
    total = sum(r.realized_f for r in run.records if not r.failed)
    assert run.summary.total_f == pytest.approx(total, abs=1e-9)
    for r in run.records:
        assert r.selected_index in range(1, 8)
        assert 0 <= r.update_id < 18
        assert r.update_id // 6 == r.horizon_id


def test_run_day_applies_conservative_injections():
    net, profiles = day_fixture(seed=1)
    run = run_day(net, profiles, opts=FAST_OPTS, n_horizons=5)
    for r in run.records:
        if r.failed or r.clamped:
            continue
        # realized injection never exceeds the planned scenario's injection
        sc_wind = r.actual_wind
        for a, b in zip(sc_wind, r.applied_beta):
            assert 0.0 <= b <= 1.0
            assert b * a <= 10.0 + 1e-9


def test_run_day_stale_table_fallback(caplog):
    net, profiles = day_fixture()
    with caplog.at_level(logging.WARNING, logger="rtopf.realtime"):
        run = run_day(net, profiles, deadline=1e-9, opts=FAST_OPTS,
                      n_horizons=3, enforce_deadline=True)
    assert run.summary.deadline_overruns == 3
    # the first horizon has no previous table to fall back to
    assert run.summary.stale_tables == 2
    assert any(r.stale_table for r in run.records)
    assert run.summary.max_build_duration > 0
    # its overrun is flagged once, by horizon, and its late table used
    late = [r.getMessage() for r in caplog.records
            if "no previous table" in r.getMessage()]
    assert len(late) == 1 and late[0].startswith("horizon 0:")
    assert not any(r.stale_table for r in run.records if r.horizon_id == 0)


def test_run_day_counts_clamped_updates_and_their_violations():
    # a generated day never clamps (its actual wind is at most
    # min(rated, 1.15 M), within H3 = M + 0.15 rated), so horizon 1's
    # actual wind is set 1 MW above its H3 level
    net, profiles = day_fixture()
    h3 = make_levels([float(profiles.wind_forecast[3][1])], None,
                     [10.0]).values[0][0]
    actual = profiles.wind_actual[3].copy()
    actual[UPDATES_PER_SLOT:2 * UPDATES_PER_SLOT] = h3 + 1.0
    run = run_day(net, replace(profiles, wind_actual={3: actual}),
                  opts=FAST_OPTS, n_horizons=3)
    assert run.summary.clamp_intervals == UPDATES_PER_SLOT
    assert [r.update_id for r in run.records if r.clamped] == list(
        range(UPDATES_PER_SLOT, 2 * UPDATES_PER_SLOT))
    # a clamped update takes the H3 row, plans for less wind than it
    # injects, and is the only kind that breaks a limit here
    assert all(r.selected_index == 1 for r in run.records if r.clamped)
    assert run.summary.violation_intervals >= 1
    assert (run.summary.violation_intervals_clamped
            == run.summary.violation_intervals)


def test_run_day_counts_a_failed_update_and_restarts_flat(monkeypatch):
    net, profiles = day_fixture()
    real = realtime.apply_and_realize
    starts = []

    def flaky(*args, start=None, **kwargs):
        starts.append(start)
        if len(starts) == 3:
            raise PowerFlowError("no solution")
        return real(*args, start=start, **kwargs)
    monkeypatch.setattr(realtime, "apply_and_realize", flaky)
    run = run_day(net, profiles, opts=FAST_OPTS, n_horizons=1)
    assert run.summary.failed_intervals == 1
    assert run.summary.updates == UPDATES_PER_SLOT
    failed = run.records[2]
    assert failed.failed and failed.realized is None
    assert [r.update_id for r in run.records if r.failed] == [2]
    # the trace writes nan for the update that realized nothing
    header, *rows = trace_to_csv(run, [3]).strip().split("\n")
    row = dict(zip(header.split(","), rows[2].split(",")))
    assert [row[c] for c in ("realized_p_s_mw", "realized_q_s_mvar",
                             "realized_p_loss_mw", "realized_f")] == \
        ["nan"] * 4
    assert row["failed"] == "1"
    # the update after it starts flat; the others start warm
    assert starts[3] is None
    assert all(s is not None for s in starts[1:3] + starts[4:])
    # and the failed update adds nothing to the totals
    assert run.summary.total_f == pytest.approx(
        sum(r.realized_f for r in run.records if not r.failed), abs=1e-12)


def test_run_day_without_enforcement_only_counts_overruns():
    net, profiles = day_fixture()
    run = run_day(net, profiles, deadline=1e-9, opts=FAST_OPTS, n_horizons=2)
    assert run.summary.deadline_overruns == 2
    assert run.summary.stale_tables == 0


def test_run_day_table_sink_receives_every_horizon():
    net, profiles = day_fixture()
    seen = []
    run_day(net, profiles, opts=FAST_OPTS, n_horizons=2,
            table_sink=seen.append)
    assert [t.horizon_id for t in seen] == [0, 1]
    assert all(t.n_rows == 7 for t in seen)


def test_trace_header_and_summary_keys_are_pinned():
    net, profiles = day_fixture(stations=(3, 4))
    run = run_day(net, profiles, opts=FAST_OPTS, n_horizons=1)
    header = trace_to_csv(run, [3, 4]).split("\n")[0].split(",")
    assert header == [
        "horizon_id", "update_id", "actual_wind_bus3", "actual_wind_bus4",
        "selected_index", "applied_beta_bus3", "applied_beta_bus4",
        "realized_p_s_mw", "realized_q_s_mvar", "realized_p_loss_mw",
        "realized_f", "realized_f1", "realized_f2", "realized_f3",
        "realized_f4", "violations", "clamped", "stale_table", "failed",
        "table_build_duration_s", "forecast_p_s_mw", "forecast_f"]
    lines = summary_to_text(run.summary).split("\n")
    assert lines[0] == "rt-opf day summary" and lines[-1] == ""
    assert [ln.split(": ")[0] for ln in lines[1:-1]] == [
        "horizons", "updates", "total_f", "total_f1", "total_f2",
        "total_f3", "total_f4", "violation_intervals",
        "violation_intervals_clamped", "clamp_intervals",
        "failed_intervals", "failed_rows", "stale_tables",
        "deadline_overruns", "max_build_duration"]


def test_trace_csv_and_summary_text():
    net, profiles = day_fixture()
    run = run_day(net, profiles, opts=FAST_OPTS, n_horizons=1)
    text = trace_to_csv(run, [3])
    lines = text.strip().split("\n")
    assert len(lines) == 7
    header = lines[0].split(",")
    assert "actual_wind_bus3" in header
    assert "realized_p_s_mw" in header
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["actual_wind_bus3"]) == run.records[0].actual_wind[0]
    pf = run.records[0].realized
    assert [first[c] for c in ("realized_p_s_mw", "realized_q_s_mvar",
                               "realized_p_loss_mw")] \
        == [repr(pf.p_s), repr(pf.q_s), repr(pf.p_loss)]
    # an update that realized nothing writes nan for its power flow
    unrealized = replace(run, records=(replace(run.records[0], realized=None),))
    row = dict(zip(header, trace_to_csv(unrealized, [3]).split("\n")[1]
                   .split(",")))
    assert [row[c] for c in ("realized_p_s_mw", "realized_q_s_mvar",
                             "realized_p_loss_mw")] == ["nan"] * 3
    summary = summary_to_text(run.summary)
    assert "updates: 6" in summary
    assert "violation_intervals:" in summary


def test_run_day_rejects_what_it_cannot_serve(monkeypatch):
    # a horizon count outside the day, or a build budget that is not a
    # positive number of seconds below the horizon, fails before the first
    # table
    net, profiles = day_fixture()

    def no_build(*args, **kwargs):
        raise AssertionError("a table was built")
    monkeypatch.setattr(realtime, "build_lookup_table", no_build)
    for n in (0, -3, SLOTS_PER_DAY + 1, 100000):
        with pytest.raises(ValueError, match="horizons"):
            run_day(net, profiles, opts=FAST_OPTS, n_horizons=n)
    for deadline in (HORIZON_S, 130.0, 0.0, -1.0, float("nan"),
                     float("inf")):
        with pytest.raises(ValueError, match="below the 120 s horizon"):
            run_day(net, profiles, deadline=deadline, opts=FAST_OPTS,
                    n_horizons=1)
