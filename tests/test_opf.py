import hashlib
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtopf import opf, powerflow, scenarios
from rtopf.network import NetworkValidationError
from rtopf.opf import (FAST_OPTS, HorizonInput, Incumbent, OPFOptions,
                       OPFSolution, POLISH_STEP, POLISH_STEP_MIN,
                       STATUS_FAILURE, STATUS_INFEASIBLE, STATUS_OPTIMAL,
                       SURFACE_TOL, TOL_OBJ, _Evaluator, _land, _poll,
                       evaluate_objective, oracle_opf, solve_opf)
from rtopf.profiles import ProfileGenConfig, gen_day_profiles
from rtopf.scenarios import (build_lookup_table, enumerate_scenarios,
                             make_levels)

from conftest import DATA, chain_net

# SHA-256 of the reference table's CSV (the bundled case and horizon), as
# ``rtopf build-table`` writes it
REFERENCE_TABLE_SHA256 = ("9b794688acace8f25029d9a45380351c"
                          "fee5da61337d4ccfb83ef4280ce0652f")
# SHA-256 over the CSVs of the 8 ``random_horizons`` tables in order, and
# their evaluations: the searched path beyond the reference table, whose
# rows include corner rows and hand-overs
RANDOM_TABLES_SHA256 = ("64387e3755ca1d6846fb2add4774c325"
                        "1fe76959b83d15877d8faaf1f7b8ccce")
RANDOM_TABLES_EVALS = 3855


def one_station_net(**kw):
    return chain_net(3, r=0.01, x=0.02, station_buses=(3,), **kw)


def make_input(net, demand_p, wind, price_p=1.67, price_q=0.4):
    q = {b: 0.37 * v for b, v in demand_p.items()}
    return HorizonInput(demand_p=demand_p, demand_q=q,
                        wind_available=wind, price_p=price_p, price_q=price_q)


def test_input_validation():
    # each invalid class is rejected with its message by ``validated``,
    # by ``solve_opf``, by a table build, and by a row made with
    # ``with_wind`` from an input already validated: a demand or a price
    # changed by ``replace`` drops the mark, and a row's wind is checked
    net = one_station_net()
    nan, inf = float("nan"), float("inf")
    levels = make_levels([1.0], None, [10.0])
    scenarios_ = enumerate_scenarios(levels)
    valid = make_input(net, {2: 1.0}, {3: 1.0}).validated(net)
    bad_demand = [({2: nan}, ValueError, "non-finite demand at bus 2: nan"),
                  ({2: inf}, ValueError, "non-finite demand at bus 2: inf"),
                  ({2: -1.0}, ValueError, "negative demand at bus 2"),
                  ({9: 1.0}, NetworkValidationError, "unknown bus id 9")]
    cases = []
    for demand, err, msg in bad_demand:
        for field in ("demand_p", "demand_q"):
            cases.append((replace(valid, **{field: demand}), err, msg))
    for wind in (99.0, -1.0, nan):
        cases.append((replace(valid, wind_available={3: wind}), ValueError,
                      "outside"))
    cases.append((replace(valid, wind_available={2: 1.0}), ValueError,
                  "no wind station"))
    for price in (nan, inf, -1.0):
        for field in ("price_p", "price_q"):
            cases.append((replace(valid, **{field: price}), ValueError,
                          "prices must be finite"))
    for inp, err, msg in cases:
        for reject in (lambda: inp.validated(net),
                       lambda: solve_opf(net, inp),
                       lambda: build_lookup_table(net, inp, scenarios_,
                                                  levels)):
            with pytest.raises(err, match=msg):
                reject()
        wind = dict(inp.wind_available)
        if wind == {3: 1.0}:  # a bad demand or price: the row is solved
            with pytest.raises(err, match=msg):
                solve_opf(net, inp.with_wind({3: 0.5}))
        else:  # a bad wind: the row of the valid input is refused
            with pytest.raises(err, match=msg):
                valid.with_wind(wind)
    # a scenario row whose wind breaks its rating fails alone
    over = [replace(sc, wind=(99.0,)) if sc.index == 1 else sc
            for sc in scenarios_]
    table = build_lookup_table(net, valid, over, levels)
    assert table.row(1)[1].status == STATUS_FAILURE
    assert "outside [0, rated]: 99.0" in table.row(1)[1].message
    assert all(sol.status == STATUS_OPTIMAL for _, sol in table.rows[1:])
    # the mark holds for its network object only
    assert valid.validated(net) is valid
    row = valid.with_wind({3: 0.5})
    assert row.validated(net) is row and row.demand_p is valid.demand_p
    with pytest.raises(ValueError, match="no wind station"):
        valid.validated(chain_net(3))
    # a validated input's mappings refuse writes, and a write into the
    # mapping it was copied from is checked by the next solve
    for mapping in (valid.demand_p, valid.demand_q, row.wind_available):
        with pytest.raises(TypeError, match="read-only"):
            mapping[2] = nan
        with pytest.raises(TypeError, match="read-only"):
            mapping.update({2: nan})
    raw = {2: 1.0}
    inp = make_input(net, raw, {3: 1.0})
    checked = inp.validated(net)
    raw[2] = nan
    with pytest.raises(ValueError, match="non-finite demand at bus 2: nan"):
        solve_opf(net, inp)
    assert solve_opf(net, checked).status == STATUS_OPTIMAL
    # string and numpy integer bus keys are accepted, as the ints they name
    plain = solve_opf(net, valid)
    for key in ("2", np.int64(2)):
        keyed = make_input(net, {key: 1.0}, {3: 1.0})
        assert solution_key(solve_opf(net, keyed)) == solution_key(plain)
        table = build_lookup_table(net, keyed, scenarios_, levels)
        assert all(sol.status == STATUS_OPTIMAL for _, sol in table.rows)


def test_objective_decomposition_identity():
    net = one_station_net()
    inp = make_input(net, {2: 3.0}, {3: 2.0})
    bd = evaluate_objective(net, inp, [0.7])
    assert bd.f == pytest.approx(bd.f1 - bd.f2 - bd.f3 - bd.f4, abs=1e-12)
    assert bd.f1 == pytest.approx(1.67 * 0.7 * 2.0, abs=1e-12)
    assert bd.f2 == pytest.approx(1.67 * bd.power_flow.p_loss, abs=1e-12)
    assert bd.f3 == pytest.approx(1.67 * bd.power_flow.p_s, abs=1e-12)
    assert bd.f4 == pytest.approx(0.4 * bd.power_flow.q_s, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_objective_depends_only_on_slack_imports(net41, horizon1, b1, b2):
    # f1 - f2 - f3 = c_p * (D - 2 p_s) by the balance p_loss = p_s + W - D
    bd = evaluate_objective(net41, horizon1, [b1, b2])
    demand = sum(horizon1.demand_p.values())
    expected = (horizon1.price_p * (demand - 2.0 * bd.power_flow.p_s)
                - horizon1.price_q * bd.power_flow.q_s)
    assert bd.f == pytest.approx(expected, rel=1e-9)


def test_evaluate_objective_rejects_beta_outside_box():
    net = one_station_net()
    inp = make_input(net, {2: 3.0}, {3: 2.0})
    for beta in ([1.5], [float("nan")]):
        with pytest.raises(ValueError, match="beta"):
            evaluate_objective(net, inp, beta)


def test_wind_below_demand_runs_uncurtailed():
    # every injected MW displaces an imported MW, so beta = 1 must win
    net = one_station_net()
    inp = make_input(net, {2: 5.0}, {3: 2.0})
    sol = solve_opf(net, inp)
    assert sol.status == STATUS_OPTIMAL
    assert sol.beta == (1.0,)
    assert sol.p_s > 0
    assert sol.report.ok


def test_zero_wind_is_degenerate_and_optimal():
    net = one_station_net()
    sol = solve_opf(net, make_input(net, {2: 2.0}, {3: 0.0}))
    assert sol.status == STATUS_OPTIMAL
    assert sol.beta == (1.0,)


def test_zero_prices_are_degenerate_and_optimal():
    net = one_station_net()
    sol = solve_opf(net, make_input(net, {2: 2.0}, {3: 1.0},
                                    price_p=0.0, price_q=0.0))
    assert sol.status == STATUS_OPTIMAL
    assert sol.beta == (1.0,)
    assert sol.f == pytest.approx(0.0, abs=1e-12)


def test_excess_wind_curtailed_to_reverse_flow_boundary():
    # wind above demand+losses must be spilled; the boundary p_s = 0 binds
    net = one_station_net()
    inp = make_input(net, {2: 3.0}, {3: 8.0})
    sol = solve_opf(net, inp)
    assert sol.status == STATUS_OPTIMAL
    assert 0.3 < sol.beta[0] < 0.5
    assert abs(sol.p_s) < 1e-5
    assert sol.report.ok


def test_solution_matches_oracle_one_station():
    net = one_station_net()
    for wind in (1.0, 4.0, 8.0):
        inp = make_input(net, {2: 3.0}, {3: wind})
        sol = solve_opf(net, inp)
        ora = oracle_opf(net, inp, grid_points=41)
        assert sol.status == ora.status == STATUS_OPTIMAL
        assert sol.f == pytest.approx(ora.f, abs=1e-3 * max(1.0, abs(ora.f)))


def test_solution_matches_oracle_two_stations(net41, horizon1):
    sol = solve_opf(net41, horizon1)
    ora = oracle_opf(net41, horizon1)
    assert sol.status == ora.status == STATUS_OPTIMAL
    assert sol.f >= ora.f - 1e-3 * max(1.0, abs(ora.f))
    assert abs(sol.f - ora.f) <= 1e-3 * max(1.0, abs(ora.f))
    assert sol.report.ok


def test_price_scaling_leaves_allocation_unchanged(net41, horizon1):
    sol1 = solve_opf(net41, horizon1, FAST_OPTS)
    scaled = HorizonInput(demand_p=horizon1.demand_p,
                          demand_q=horizon1.demand_q,
                          wind_available=horizon1.wind_available,
                          price_p=horizon1.price_p * 3.0,
                          price_q=horizon1.price_q * 3.0)
    sol2 = solve_opf(net41, scaled, FAST_OPTS)
    assert np.allclose(sol1.beta, sol2.beta, atol=5e-3)
    assert sol2.f == pytest.approx(3.0 * sol1.f, rel=1e-3)


def test_deterministic_repeat(net41, horizon1):
    a = solve_opf(net41, horizon1, FAST_OPTS)
    b = solve_opf(net41, horizon1, FAST_OPTS)
    assert a.beta == b.beta
    assert a.f == b.f


def test_more_wind_never_hurts():
    net = one_station_net()
    fs = []
    for wind in (0.5, 2.0, 5.0, 9.0):
        sol = solve_opf(net, make_input(net, {2: 3.0}, {3: wind}))
        assert sol.status == STATUS_OPTIMAL
        fs.append(sol.f)
    assert all(b >= a - 1e-6 for a, b in zip(fs, fs[1:]))


def test_infeasible_when_demand_exceeds_loadability():
    net = one_station_net()
    sol = solve_opf(net, make_input(net, {2: 900.0}, {3: 1.0}))
    assert sol.status == STATUS_INFEASIBLE
    assert np.isnan(sol.f)
    assert "grid" in sol.message or "zero wind" in sol.message


def test_infeasible_when_voltage_band_unreachable():
    net = one_station_net(v_min=1.02, v_max=1.05)
    sol = solve_opf(net, make_input(net, {2: 5.0}, {3: 0.5}))
    assert sol.status == STATUS_INFEASIBLE


def test_dense_scan_finds_the_feasible_band(monkeypatch):
    # both seed corners break a limit (beta = 0 imports beyond the slack's
    # rating, beta = 1 lifts bus 4 above 1.02 pu), so the search starts
    # from the dense scan's first feasible point; on a 21-point grid only
    # beta 0.60..0.75 holds every limit
    net = chain_net(4, r=0.05, x=0.05, s_s_max=2.0, station_buses=(4,),
                    rated=10.0, v_min=0.9, v_max=1.02,
                    demand={2: (4.0, 1.0)})
    inp = HorizonInput(demand_p={2: 4.0}, demand_q={2: 1.0},
                       wind_available={4: 4.0}, price_p=1.67, price_q=0.4)
    assert not evaluate_objective(net, inp, [0.0]).report.ok
    assert not evaluate_objective(net, inp, [1.0]).report.ok
    grid = np.linspace(0.0, 1.0, 21)
    ok = [b for b in grid if evaluate_objective(net, inp, [b]).report.ok]
    assert ok == pytest.approx([0.6, 0.65, 0.7, 0.75])
    calls = []
    kernel = opf.zbus_iterate

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return kernel(*args, **kwargs)
    monkeypatch.setattr(opf, "zbus_iterate", counted)
    sol = solve_opf(net, inp)
    assert 101 in calls  # the dense scan ran, in one chunk of the grid
    assert sol.status == STATUS_OPTIMAL and sol.report.ok
    # the search improves on the scan's first feasible point (beta = 0.6
    # on the 101-point grid); the poll's smallest step stops it short of
    # the voltage wall, so no agreement with the oracle is claimed here
    first = evaluate_objective(net, inp, [0.6])
    assert first.report.ok
    assert not evaluate_objective(net, inp, [0.59]).report.ok
    assert sol.f >= first.f


def test_failure_status_when_budget_too_small():
    net = one_station_net()
    # the seed grid's evaluations only, so the polish never starts
    tiny = OPFOptions(max_evals=opf.COARSE_GRID ** len(net.stations))
    sol = solve_opf(net, make_input(net, {2: 3.0}, {3: 8.0}), tiny)
    assert sol.status == STATUS_FAILURE
    assert "budget" in sol.message
    # the best point found so far is still reported
    assert np.isfinite(sol.f)


def test_no_station_network():
    net = chain_net(3)
    inp = HorizonInput(demand_p={2: 1.0}, demand_q={2: 0.3},
                       wind_available={}, price_p=1.67, price_q=0.4)
    sol = solve_opf(net, inp)
    assert sol.status == STATUS_OPTIMAL
    assert sol.beta == ()
    assert sol.p_s > 1.0
    assert oracle_opf(net, inp).f == sol.f
    # the 1.04 MVA demand overloads a 0.5 MVA feeder at its only point
    tight = chain_net(3, s_l_max=0.5)
    for sol in (solve_opf(tight, inp), oracle_opf(tight, inp)):
        assert sol.status == STATUS_INFEASIBLE
        assert sol.beta == ()
        assert np.isnan(sol.f)


def test_oracle_rejects_bad_grid_and_many_stations(net41, horizon1):
    with pytest.raises(ValueError):
        oracle_opf(net41, horizon1, grid_points=1)
    many = chain_net(6, station_buses=(2, 3, 4, 5))
    inp = HorizonInput(demand_p={6: 1.0}, demand_q={6: 0.3},
                       wind_available={2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0},
                       price_p=1.67, price_q=0.4)
    with pytest.raises(ValueError, match="tractable"):
        oracle_opf(many, inp)


def test_polish_slides_along_the_reverse_flow_boundary(net41):
    # day seed 0, slot 120, row 2 (H3/H2, about 9.24 and 9.23 MW): the
    # optimum lies along p_s = 0, away from the seed, and a polish that
    # undoes each raise instead of sliding exhausts its 4000 evaluations
    with open(DATA / "hourly_demand_shape.json") as fh:
        shape = json.load(fh)["hourly_shape"]
    with open(DATA / "hourly_wind_base.json") as fh:
        base = json.load(fh)["hourly_base_mw"]
    day = gen_day_profiles(net41, shape, base, ProfileGenConfig(seed=0))
    slot = 120
    buses = [s.bus for s in net41.stations]
    levels = make_levels([float(day.wind_forecast[b][slot]) for b in buses],
                         None, [s.rated_power for s in net41.stations])
    row = enumerate_scenarios(levels)[1]
    assert row.level_choice == ("H3", "H2")
    inp = HorizonInput(
        demand_p={b: float(a[slot]) for b, a in day.demand_p.items()},
        demand_q={b: float(a[slot]) for b, a in day.demand_q.items()},
        wind_available=dict(zip(buses, row.wind)), price_p=1.67, price_q=0.4)
    sol = solve_opf(net41, inp, FAST_OPTS)
    assert sol.status == STATUS_OPTIMAL
    assert sol.evals <= 500
    assert abs(sol.p_s) < 1e-5
    assert sol.report.ok


def evaluator(net, inp):
    return _Evaluator(net, inp, opf._wind(net, inp))


def test_land_hands_over_and_lands_every_seed_corner(net41, horizon1,
                                                     monkeypatch):
    # at 0.3 x demand either station alone exports: (1, 1) slides through
    # the windier bus-2 station, which runs out of room while the grid
    # still exports, and hands over to bus 16 from its own state
    inp = replace(horizon1,
                  demand_p={b: 0.3 * v for b, v in horizon1.demand_p.items()},
                  demand_q={b: 0.3 * v for b, v in horizon1.demand_q.items()},
                  wind_available={2: 10.0, 16: 9.0})
    calls = []
    kernel = opf.zbus_iterate

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return kernel(*args, **kwargs)
    monkeypatch.setattr(opf, "zbus_iterate", counted)
    (x, e), = _land(evaluator(net41, inp), [np.ones(2)], np.array([-1]))
    assert calls == [1, 1]
    assert x[0] == 0.0 and x[1] == pytest.approx(0.222, abs=1e-3)
    assert abs(e.p_s) <= SURFACE_TOL and math.isfinite(e.score)
    # an exporting one-station corner lands too, in one call, instead of
    # being dropped from the seed grid
    calls.clear()
    (x, e), = _land(evaluator(net41, inp), [np.array([0.0, 1.0])],
                    np.array([-1]))
    assert calls == [1]
    assert x[0] == 0.0 and 0.0 < x[1] < 1.0
    assert abs(e.p_s) <= SURFACE_TOL and math.isfinite(e.score)
    # so all four corners of the seed grid come back, in two calls
    calls.clear()
    grid = [np.array(c, dtype=float) for c in ((0, 0), (0, 1), (1, 0), (1, 1))]
    landed = _land(evaluator(net41, inp), grid, np.full(4, -1))
    assert calls == [4, 1]
    assert len(landed) == 4 and all(math.isfinite(e.score)
                                    for _, e in landed)


def random_horizons(base, net, count):
    """Seeded case41 horizons: demand 0.3-1.6x ``base``, wind U(0, 10) MW
    per station, c_p U(0.1, 3) and c_q U(0.05, 1)."""
    rng = np.random.default_rng(2026)
    for _ in range(count):
        scale = rng.uniform(0.3, 1.6)
        wind = rng.uniform(0.0, 10.0, size=len(net.stations))
        price_p, price_q = rng.uniform(0.1, 3.0), rng.uniform(0.05, 1.0)
        yield HorizonInput(
            demand_p={b: v * scale for b, v in base.demand_p.items()},
            demand_q={b: v * scale for b, v in base.demand_q.items()},
            wind_available={s.bus: float(w)
                            for s, w in zip(net.stations, wind)},
            price_p=price_p, price_q=price_q)


def test_no_polish_move_improves_the_returned_point(net41, horizon1):
    # the stopping certificate of the complete poll, checked move by move
    # at each of the five steps 0.25 .. 0.25/16: each station raised, each
    # lowered, and, beyond the poll, each exchange raising station i by the
    # step while lowering station j by the step times w_i / w_j; the poll
    # itself makes the coordinate moves only, as the landing slides a raise
    # along p_s = 0
    steps = [POLISH_STEP / 2.0 ** k for k in range(5)]
    assert steps[-1] >= POLISH_STEP_MIN > steps[-1] / 2.0
    for inp in [horizon1, *random_horizons(horizon1, net41, 6)]:
        sol = solve_opf(net41, inp)
        assert sol.status == STATUS_OPTIMAL
        ev = evaluator(net41, inp)
        x, w = np.array(sol.beta), ev.wind
        score = ev(x).score
        n = x.size
        moves = ([(i, 1.0, None) for i in range(n)]
                 + [(i, -1.0, None) for i in range(n)]
                 + [(i, 1.0, j) for i in range(n) for j in range(n)
                    if i != j and w[i] > 0 and w[j] > 0])
        polled, seen = [], {tuple(x)}
        for step in steps:
            for i, di, j in moves:
                xn = x.copy()
                xn[i] = min(1.0, max(0.0, x[i] + di * step))
                if j is not None:
                    xn[j] = min(1.0, max(0.0, x[j] - w[i] / w[j] * step))
                raised = i if di > 0 else -1
                if j is None and tuple(xn) not in seen:
                    seen.add(tuple(xn))
                    polled.append((tuple(xn), raised))
                landed = _land(ev, [xn], np.array([raised]))  # as polled
                if not landed:  # exports with no station left to slide
                    continue
                assert landed[0][1].score <= score + TOL_OBJ, (inp, step,
                                                                i, j)
        # the poll evaluates the coordinate moves, in this order, in one call
        cands, raised = _poll(x)
        assert [(tuple(c), r) for c, r in zip(cands, raised)] == polled


def test_reference_table_takes_few_kernel_calls(net41, horizon1,
                                                monkeypatch):
    # one search per block (7 of the 49 rows; the others reuse a containing
    # row's optimum after one mismatch check, which solves nothing), each
    # taking one batched call for the seed grid and one per poll round,
    # keeps the table at 14 search calls; searching every row made 101, a
    # second call per round for the projection 404, and polling one step
    # size per call about 1000. A poll of coordinate moves alone keeps the
    # 14 calls at 133 evaluations; with exchange moves it took 203. Every
    # row is reported from the batch that evaluated it, so the build runs
    # no single-point power flow. Only a searched row builds an evaluator,
    # and an incumbent record for the later rows of its block: 7 each, and
    # none for the 42 reused rows.
    calls, single, evaluators, records = [], [], [], []
    kernel = opf.zbus_iterate
    solve = powerflow.solve_power_flow
    record = Incumbent.of

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return kernel(*args, **kwargs)

    def recorded(*args, **kwargs):
        single.append(args)
        return solve(*args, **kwargs)

    class CountedEvaluator(_Evaluator):
        def __init__(self, net, inp, wind):
            evaluators.append(inp)
            super().__init__(net, inp, wind)

    def counted_record(net, inp, sol):
        records.append(inp)
        return record(net, inp, sol)
    monkeypatch.setattr(opf, "zbus_iterate", counted)
    monkeypatch.setattr(powerflow, "solve_power_flow", recorded)
    monkeypatch.setattr(opf, "_Evaluator", CountedEvaluator)
    monkeypatch.setattr(Incumbent, "of", staticmethod(counted_record))
    buses = [s.bus for s in net41.stations]
    levels = make_levels([horizon1.wind_available[b] for b in buses], None,
                         [s.rated_power for s in net41.stations])
    table = build_lookup_table(net41, horizon1, enumerate_scenarios(levels),
                               levels)
    assert all(sol.status == STATUS_OPTIMAL for _, sol in table.rows)
    assert sum(calls) == sum(sol.evals for _, sol in table.rows)
    assert len(calls) == 14
    assert sum(calls) == 133
    assert single == []
    searched = sum(sol.evals > 0 for _, sol in table.rows)
    assert searched == 7
    assert len(evaluators) == searched
    assert len(records) == searched
    # and the table itself, pinned by digest: every row, bitwise
    csv = scenarios.table_to_csv(table, buses).encode()
    assert hashlib.sha256(csv).hexdigest() == REFERENCE_TABLE_SHA256


def build_table(net, inp):
    """The table of ``inp``: default levels around its forecast, one
    worker."""
    levels = make_levels([inp.wind_available[s.bus] for s in net.stations],
                         None, [s.rated_power for s in net.stations])
    return build_lookup_table(net, inp, enumerate_scenarios(levels), levels)


@pytest.fixture(scope="module")
def random_tables(net41, horizon1):
    return [build_table(net41, inp)
            for inp in random_horizons(horizon1, net41, 8)]


def test_random_tables_are_pinned(net41, random_tables):
    # every row of the 8 random tables, bitwise, and their evaluations;
    # unlike the reference table they have corner rows (searched rows
    # ending at beta = (1, 1)) and landings that hand over
    buses = [s.bus for s in net41.stations]
    digest = hashlib.sha256()
    for table in random_tables:
        digest.update(scenarios.table_to_csv(table, buses).encode())
    assert digest.hexdigest() == RANDOM_TABLES_SHA256
    sols = [sol for table in random_tables for _, sol in table.rows]
    assert sum(sol.evals for sol in sols) == RANDOM_TABLES_EVALS
    assert sum(sol.evals > 0 and sol.beta == (1.0, 1.0) for sol in sols) == 74


def containment_excess(table):
    """The largest f_A - f_B over the ordered pairs of rows (A, B) of a
    table, A = B included, where B's wind box contains A's, and the number
    of such pairs."""
    pairs = [(a.f - b.f) for sa, a in table.rows for sb, b in table.rows
             if all(wa <= wb for wa, wb in zip(sa.wind, sb.wind))]
    return max(pairs), len(pairs)


def test_no_row_beats_a_row_whose_box_contains_it(net41, horizon1,
                                                  random_tables):
    # a check with no oracle: a row's feasible set lies inside that of a
    # row whose wind box contains its own, so its optimum is no higher
    reference = build_table(net41, horizon1)
    for table in (reference, *random_tables):
        assert all(sol.status == STATUS_OPTIMAL for _, sol in table.rows)
    worst, pairs = containment_excess(reference)
    assert pairs == 784
    # at most 1.8e-15 measured: the rounding of beta = P / w
    assert worst <= 1e-12
    excess = [containment_excess(table) for table in random_tables]
    assert sum(n for _, n in excess) == 6328
    # at most 7.6e-7 measured: the poll accepts a step only above TOL_OBJ
    # (1e-7), so a search may stop short of a flat optimum by about that
    # much, and a reused row copies its incumbent's stop
    assert max(w for w, _ in excess) <= 1e-6


def test_a_table_checks_and_converts_its_horizon_once(net41, horizon1,
                                                      monkeypatch):
    # the horizon is validated once, and its demand converted to bus order
    # once, for all 49 rows, 7 evaluators and 7 incumbent records; each
    # row reaches ``solve_opf`` marked valid, so that call checks nothing
    conversions, rows = [], []
    convert, real = powerflow.InjectionSpec.from_mappings, scenarios.solve_opf

    def counted(net, p_by_bus, q_by_bus):
        conversions.append(p_by_bus)
        return convert(net, p_by_bus, q_by_bus)

    def recorded(net, inp, opts=None, incumbent=None):
        rows.append(inp)
        return real(net, inp, opts, incumbent=incumbent)
    monkeypatch.setattr(powerflow.InjectionSpec, "from_mappings",
                        staticmethod(counted))
    monkeypatch.setattr(scenarios, "solve_opf", recorded)
    build_table(net41, horizon1)
    assert len(conversions) == 1
    assert len(rows) == 49
    assert all(row.validated(net41) is row for row in rows)


def solution_key(sol):
    """Every field of a solution, its power flow and the values and margins
    of its report, the arrays bitwise."""
    pf, report = sol.power_flow, sol.report
    return (repr((sol.beta, sol.p_s, sol.q_s, sol.p_loss, sol.f, sol.f1,
                  sol.f2, sol.f3, sol.f4, sol.status, sol.evals,
                  sol.message)),
            None if pf is None else (pf.v.tobytes(), pf.theta.tobytes(),
                                     pf.flows.tobytes(),
                                     repr((pf.p_s, pf.q_s, pf.p_loss,
                                           pf.iterations, pf.max_residual))),
            None if report is None else (report.values.tobytes(),
                                         report.margins.tobytes()))


def test_rejected_incumbent_changes_nothing(net41, horizon1):
    row = horizon1.with_wind({2: 3.8, 16: 7.05})
    plain = solve_opf(net41, row)
    # an accepted incumbent: more wind at station 16, and its optimum lies
    # inside the row's box
    wider = row.with_wind({2: 3.8, 16: 8.55})
    ok = (wider, solve_opf(net41, wider))
    reused = solve_opf(net41, row, incumbent=Incumbent.of(net41, *ok))
    assert reused.evals == 0 and "reused" in reused.message
    assert reused.status == STATUS_OPTIMAL
    narrower = row.with_wind({2: 3.8, 16: 6.0})
    larger = row.with_wind({2: 5.3, 16: 8.55})  # optimum at 5.3 MW > 3.8
    unpriced = replace(wider, price_p=0.0, price_q=0.0)
    other = solve_opf(net41, larger)
    # the state of a row whose optimal injection is not the incumbent's
    assert not np.allclose(np.multiply(other.beta, (5.3, 8.55)),
                           np.multiply(ok[1].beta, (3.8, 8.55)), atol=1e-3)
    exporting = evaluate_objective(net41, row, (1.0, 1.0))
    assert not exporting.report.ok
    rejected = [
        (narrower, solve_opf(net41, narrower)),
        (larger, other),
        (wider, replace(ok[1], status=STATUS_FAILURE)),
        # claims optimal at beta = (1, 1), where the row exports: the state
        # does not solve that injection
        (row, replace(plain, beta=(1.0, 1.0))),
        # a qualifying optimum carrying another row's state, or a report
        # that breaks a limit
        (wider, replace(ok[1], power_flow=other.power_flow)),
        (wider, replace(ok[1], report=exporting.report)),
        (replace(wider, demand_p={**wider.demand_p, 41: 0.5}), ok[1]),
        (replace(wider, demand_q={**wider.demand_q, 41: 0.5}), ok[1]),
        (replace(wider, price_p=2.0), ok[1]),
        (replace(wider, price_q=0.5), ok[1]),
    ]
    # ``Incumbent.of`` builds no record of the failed row nor of the
    # limit-breaking one, so those rows are searched as without one
    assert Incumbent.of(net41, *rejected[2]) is None
    assert Incumbent.of(net41, *rejected[5]) is None
    for inp_a, sol_a in rejected:
        incumbent = Incumbent.of(net41, inp_a, sol_a)
        assert (solution_key(solve_opf(net41, row, incumbent=incumbent))
                == solution_key(plain))
    # zero prices: the degenerate beta = 1 branch is never reused, even
    # from an incumbent that would otherwise qualify
    row0 = replace(row, price_p=0.0, price_q=0.0)
    assert (solution_key(solve_opf(
        net41, row0, incumbent=Incumbent.of(net41, unpriced, ok[1])))
            == solution_key(solve_opf(net41, row0)))


def test_reuse_keeps_beta_at_a_station_without_wind(net41, horizon1):
    # where the row has no wind the incumbent's injection there is 0, and
    # the row keeps the incumbent's beta (0) rather than dividing 0 by 0
    row = horizon1.with_wind({2: 3.8, 16: 0.0})
    own = solve_opf(net41, row)
    incumbent = Incumbent.of(net41, row.with_wind({2: 3.8, 16: 2.0}),
                             replace(own, beta=(own.beta[0], 0.0)))
    sol = solve_opf(net41, row, incumbent=incumbent)
    assert sol.evals == 0 and "reused" in sol.message
    assert sol.beta == (own.beta[0], 0.0)
    assert sol.f == pytest.approx(own.f, abs=1e-9)
    assert sol.report.ok


def test_reused_rows_hold_their_incumbents_optimum(net41, horizon1,
                                                   monkeypatch):
    # rows of random tables that take an earlier row's optimum: the same
    # injection, on the reverse-flow boundary, and no worse than their own
    # search within the slack of acceptance criterion 9
    solved = []
    real = scenarios.solve_opf

    def recorded(net, inp, opts=None, incumbent=None):
        sol = real(net, inp, opts, incumbent=incumbent)
        solved.append((inp, incumbent, sol))
        return sol
    monkeypatch.setattr(scenarios, "solve_opf", recorded)
    buses = [s.bus for s in net41.stations]
    rated = [s.rated_power for s in net41.stations]
    reused = 0
    for inp in random_horizons(horizon1, net41, 8):
        levels = make_levels([inp.wind_available[b] for b in buses], None,
                             rated)
        build_lookup_table(net41, inp, enumerate_scenarios(levels), levels)
    for inp, incumbent, sol in solved:
        if sol.evals > 0 or sol.status != STATUS_OPTIMAL:
            continue
        reused += 1
        inp_a, sol_a = incumbent.inp, incumbent.sol
        assert sol.report.ok
        assert abs(sol.p_s) <= powerflow.LIMIT_TOL
        for k, b in enumerate(buses):
            assert (sol.beta[k] * inp.wind_available[b]
                    == pytest.approx(sol_a.beta[k] * inp_a.wind_available[b],
                                     abs=1e-9))
            if inp.wind_available[b] == inp_a.wind_available[b]:
                assert sol.beta[k] == sol_a.beta[k]
        own = real(net41, inp)
        assert sol.f >= own.f - 1e-5 * max(1.0, abs(own.f))
    assert reused >= 100


def reference_reuse(net, inp, inp_a, sol_a):
    """Row ``inp`` taking the optimum of row A = (``inp_a``, ``sol_a``) by
    the evaluator's arithmetic, every step from A alone redone: A's state
    from ``start_state``, the row's (1, n) injection from ``injections``,
    ``power_mismatch``, beta by ``np.where`` and ``np.clip``, and the power
    flow by ``replace``."""
    ev = evaluator(net, inp)
    w_a, w_b = opf._wind(net, inp_a), ev.wind
    beta_a = np.array(sol_a.beta)
    p_a = beta_a * w_a
    assert np.all(w_b <= w_a) and np.all(p_a <= w_b)
    keep = (w_b == w_a) | (w_b == 0)
    beta = np.where(keep, beta_a, np.clip(
        p_a / np.where(keep, 1.0, w_b), 0.0, 1.0))
    p, injected = powerflow.injections(net, ev.demand, w_b, beta[None, :])
    s_pu = p / net.base_mva + 1j * (-ev.demand.q_mvar / net.base_mva)
    pf = sol_a.power_flow
    _, res = powerflow.power_mismatch(
        net.Y[1:], s_pu[:, 1:], powerflow.start_state(net, (pf.v, pf.theta)))
    assert res[0] <= powerflow.MISMATCH_TOL
    p_loss = pf.p_s + float(p[0, 1:].sum())
    f, f1, f2, f3, f4 = powerflow.objective(
        inp.price_p, inp.price_q, float(injected[0]), p_loss, pf.p_s, pf.q_s)
    return OPFSolution(
        beta=tuple(float(x) for x in beta), p_s=pf.p_s, q_s=pf.q_s,
        p_loss=p_loss, f=f, f1=f1, f2=f2, f3=f3, f4=f4,
        status=STATUS_OPTIMAL,
        power_flow=replace(pf, p_loss=p_loss, iterations=0,
                           max_residual=float(res[0])),
        report=sol_a.report, evals=0,
        message="optimum reused from an earlier row")


def test_reuse_matches_the_reference_arithmetic_bitwise(net41, horizon1,
                                                        monkeypatch):
    # every reused row of the reference table and of 8 random tables, each
    # field bitwise against ``reference_reuse`` from its incumbent's input
    # and solution; and no incumbent record outlives the table build
    solved, records = [], []
    real, record = scenarios.solve_opf, Incumbent.of

    def recorded(net, inp, opts=None, incumbent=None):
        sol = real(net, inp, opts, incumbent=incumbent)
        if sol.evals == 0 and sol.status == STATUS_OPTIMAL:
            solved.append((inp, incumbent.inp, incumbent.sol, sol))
        return sol

    def weakly_recorded(net, inp, sol):
        rec = record(net, inp, sol)
        records.append(weakref.ref(rec))
        return rec
    monkeypatch.setattr(scenarios, "solve_opf", recorded)
    monkeypatch.setattr(Incumbent, "of", staticmethod(weakly_recorded))
    buses = [s.bus for s in net41.stations]
    rated = [s.rated_power for s in net41.stations]
    for inp in [horizon1, *random_horizons(horizon1, net41, 8)]:
        levels = make_levels([inp.wind_available[b] for b in buses], None,
                             rated)
        build_lookup_table(net41, inp, enumerate_scenarios(levels), levels)
        assert records and all(r() is None for r in records)
    assert len(solved) >= 250
    for inp, inp_a, sol_a, sol in solved:
        assert solution_key(sol) == solution_key(
            reference_reuse(net41, inp, inp_a, sol_a))


def mismatch_pu(net, inp, beta, pf):
    """Largest P or Q mismatch (pu) at the non-slack buses of the reported
    state (v, theta) for the injection beta * w, from ``net.Y`` alone."""
    s = np.zeros(net.n_buses, dtype=complex)
    for bus, p in inp.demand_p.items():
        s[net.index_of(bus)] -= p
    for bus, q in inp.demand_q.items():
        s[net.index_of(bus)] -= 1j * q
    for station, b in zip(net.stations, beta):
        s[net.index_of(station.bus)] += b * inp.wind_available[station.bus]
    v = pf.v * np.exp(1j * pf.theta)
    ds = (s / net.base_mva - v * np.conj(net.Y @ v))[1:]
    return max(np.abs(ds.real).max(), np.abs(ds.imag).max())


def test_reported_rows_agree_with_an_independent_evaluation(net41, horizon1):
    # every optimal row of the reference table and of 8 random tables, the
    # searched rows and the reused ones alike, against a fresh single-point
    # power flow at its beta, and its state against its own injection
    buses = [s.bus for s in net41.stations]
    rated = [s.rated_power for s in net41.stations]
    checked = 0
    for inp in [horizon1, *random_horizons(horizon1, net41, 8)]:
        levels = make_levels([inp.wind_available[b] for b in buses], None,
                             rated)
        table = build_lookup_table(net41, inp, enumerate_scenarios(levels),
                                   levels)
        for sc, sol in table.rows:
            if sol.status != STATUS_OPTIMAL:
                continue
            checked += 1
            row = inp.with_wind(dict(zip(buses, sc.wind)))
            bd = evaluate_objective(net41, row, sol.beta)
            assert sol.f == pytest.approx(bd.f, abs=1e-7)
            pf = bd.power_flow
            for got, want in ((sol.p_s, pf.p_s), (sol.q_s, pf.q_s),
                              (sol.p_loss, pf.p_loss)):
                assert got == pytest.approx(want, abs=1e-7)
            # a row reports one loss: its power flow's is its own
            assert sol.p_loss == sol.power_flow.p_loss
            assert (mismatch_pu(net41, row, sol.beta, sol.power_flow)
                    <= 1.01 * powerflow.MISMATCH_TOL)
    assert checked >= 400


def test_reported_arrays_are_read_only_copies(net41, horizon1):
    # a reused row shares its incumbent's state and report, so no reported
    # array may be written, nor be a view into a batch
    row = horizon1.with_wind({2: 3.8, 16: 7.05})
    wider = row.with_wind({2: 3.8, 16: 8.55})
    searched = solve_opf(net41, wider)
    reused = solve_opf(net41, row,
                       incumbent=Incumbent.of(net41, wider, searched))
    assert reused.evals == 0 and "reused" in reused.message
    for sol in (searched, reused, solve_opf(net41, row)):
        pf, report = sol.power_flow, sol.report
        for arr in (pf.v, pf.theta, pf.flows, report.values, report.margins):
            assert arr.base is None
            with pytest.raises(ValueError):
                arr[0] = 0.0
