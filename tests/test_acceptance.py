"""Acceptance suite: one test per criterion, run in order.

Criteria 7 and 8 share one full simulated day (720 horizons, 4320 updates),
built once per module; expect several minutes of wall time for the whole
file on a single core.
"""

import json

import numpy as np
import pytest

from rtopf import load_network
from rtopf.opf import (FAST_OPTS, HorizonInput, STATUS_OPTIMAL, oracle_opf,
                       solve_opf)
from rtopf.powerflow import InjectionSpec, solve_power_flow
from rtopf.profiles import ProfileGenConfig, gen_day_profiles
from rtopf.realtime import run_day
from rtopf.scenarios import (build_lookup_table, enumerate_scenarios,
                             make_levels, scenario_index, table_to_csv)

from conftest import DATA, load_horizon1, random_radial_net
from oracles import gauss_seidel_power_flow

# Printed wind columns for forecast (3.8, 7.05) MW and default widths:
# station-1 level per 7-row block, station-2 level cycling within the block.
STATION1_LEVELS = (5.3, 4.8, 4.3, 3.8, 3.3, 2.8, 2.3)
STATION2_LEVELS = (8.55, 8.05, 7.55, 7.05, 6.55, 6.05, 5.55)


@pytest.fixture(scope="module")
def net():
    return load_network(DATA / "case41.json")


@pytest.fixture(scope="module")
def horizon(net):
    return load_horizon1()


@pytest.fixture(scope="module")
def full_table(net, horizon):
    """Default-options lookup table for the reference horizon (criteria 5, 7)."""
    levels = make_levels([3.8, 7.05], None, [10.0, 10.0])
    return build_lookup_table(net, horizon, enumerate_scenarios(levels),
                              levels)


@pytest.fixture(scope="module")
def day(net):
    """One full simulated day shared by criteria 7 and 8."""
    with open(DATA / "hourly_demand_shape.json") as fh:
        shape = json.load(fh)["hourly_shape"]
    with open(DATA / "hourly_wind_base.json") as fh:
        base = json.load(fh)["hourly_base_mw"]
    profiles = gen_day_profiles(net, shape, base, ProfileGenConfig(seed=0))
    run = run_day(net, profiles, opts=FAST_OPTS)
    return profiles, run


def test_criterion_1_scenario_structure_matches_printed_rows():
    levels = make_levels([3.8, 7.05], None, [10.0, 10.0])
    scens = enumerate_scenarios(levels)
    assert len(scens) == 49
    for block, s1 in ((0, 5.3), (3, 3.8), (6, 2.3)):  # rows 1-7, 22-28, 43-49
        for c in range(7):
            sc = scens[block * 7 + c]
            assert sc.index == block * 7 + c + 1
            assert sc.wind == (s1, STATION2_LEVELS[c])
    assert scens[0].wind == (5.3, 8.55)
    assert scens[24].wind == (3.8, 7.05)
    assert scens[48].wind == (2.3, 5.55)
    assert levels.values == (STATION1_LEVELS, STATION2_LEVELS)
    for i, sc in enumerate(scens, start=1):
        pos = ((i - 1) // 7 + 1, (i - 1) % 7 + 1)
        assert scenario_index(pos) == i
    print("criterion 1: 49-scenario structure and index formula exact")


def test_criterion_2_level_ratio_law_exact():
    # forecasts and widths on a dyadic grid make the additions exact, so
    # the width ratios can be asserted with equality, not a tolerance
    rng = np.random.default_rng(2024)
    rated = 16.0
    for _ in range(1000):
        dp1 = float(rng.integers(1, 256)) / 1024.0
        lo = int(np.ceil(3 * dp1 * 1024))
        m = float(rng.integers(lo, int(rated * 1024) - lo + 1)) / 1024.0
        (h3, h2, h1, mid, l1, l2, l3), = make_levels([m], dp1, [rated]).values
        assert mid == m
        assert h3 - mid == 1.5 * (h2 - mid) == 3.0 * (h1 - mid)
        assert mid - l3 == 1.5 * (mid - l2) == 3.0 * (mid - l1)
    print("criterion 2: width ratio 3:2:1 exact on 1000 randomized forecasts")


def test_criterion_3_power_flow_matches_gauss_seidel_oracle():
    rng = np.random.default_rng(77)
    worst_v = worst_bal = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        net = random_radial_net(rng, n)
        p = {i: float(rng.uniform(-2.0, 1.0)) for i in range(2, n + 1)}
        q = {i: float(rng.uniform(-1.0, 0.3)) for i in range(2, n + 1)}
        inj = InjectionSpec.from_mappings(net, p, q)
        sol = solve_power_flow(net, inj)
        v_gs, _, _ = gauss_seidel_power_flow(net, inj)
        worst_v = max(worst_v,
                      float(np.abs(sol.v - np.abs(v_gs)).max()),
                      float(np.abs(sol.theta - np.angle(v_gs)).max()))
        bal = abs(sol.p_loss - (sol.p_s + float(np.sum(inj.p_mw[1:]))))
        worst_bal = max(worst_bal, bal)
        assert worst_v < 1e-7
        assert worst_bal < 1e-8
    print(f"criterion 3: 50 cases, worst voltage gap {worst_v:.2e} pu, "
          f"worst balance gap {worst_bal:.2e} MW")


def test_criterion_4_opf_matches_grid_oracle(net, horizon):
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(20):
        scale = float(rng.uniform(0.5, 1.2))
        inp = HorizonInput(
            demand_p={b: v * scale for b, v in horizon.demand_p.items()},
            demand_q={b: v * scale for b, v in horizon.demand_q.items()},
            wind_available={2: float(rng.uniform(1.0, 9.0)),
                            16: float(rng.uniform(1.0, 9.0))},
            price_p=horizon.price_p, price_q=horizon.price_q)
        sol = solve_opf(net, inp)
        ora = oracle_opf(net, inp)
        assert sol.status == ora.status == STATUS_OPTIMAL
        gap = abs(sol.f - ora.f) / max(1.0, abs(ora.f))
        worst = max(worst, gap)
        assert gap <= 1e-3
        assert sol.report.ok
    print(f"criterion 4: 20 randomized horizons, worst relative "
          f"objective gap {worst:.2e}")


def test_criterion_5_qualitative_table_reproduction(net, horizon, full_table):
    assert sum(horizon.demand_p.values()) == pytest.approx(6.65, abs=1e-6)
    assert sum(horizon.demand_q.values()) == pytest.approx(2.46, abs=1e-6)
    assert full_table.n_rows == 49
    assert all(sol.status == STATUS_OPTIMAL for _, sol in full_table.rows)
    p_s = np.array([sol.p_s for _, sol in full_table.rows])
    q_s = np.array([sol.q_s for _, sol in full_table.rows])
    assert np.abs(p_s).max() < 1e-5          # slack active power zero
    assert np.all(q_s > 0)
    spread = (q_s.max() - q_s.min()) / q_s.mean()
    assert spread < 0.02                     # nearly constant reactive import
    for i in range(43, 50):                  # low-wind station uncurtailed
        _, sol = full_table.row(i)
        assert sol.beta[0] == 1.0
    print(f"criterion 5: max |p_s| {np.abs(p_s).max():.1e} MW, q_s spread "
          f"{spread * 100:.3f}% of mean {q_s.mean():.3f} Mvar, L3 beta1 = 1")


def test_criterion_6_determinism_under_parallelism(net, horizon):
    levels = make_levels([3.8, 7.05], None, [10.0, 10.0])
    scens = enumerate_scenarios(levels)
    outputs = []
    for workers in (1, 2, 7):
        table = build_lookup_table(net, horizon, scens, levels,
                                   workers=workers, opts=FAST_OPTS)
        outputs.append(table_to_csv(table, [2, 16]))
    assert outputs[0] == outputs[1] == outputs[2]
    print("criterion 6: tables byte-identical for workers in {1, 2, 7}")


def test_criterion_7_timing_budget(full_table, day):
    assert full_table.deadline_met
    assert full_table.build_duration < 112.0
    _, run = day
    assert run.summary.deadline_overruns == 0
    assert run.summary.max_build_duration < 112.0
    print(f"criterion 7: reference build {full_table.build_duration:.1f} s, "
          f"max over 720 horizons {run.summary.max_build_duration:.1f} s "
          f"(budget 112 s)")


def test_criterion_8_full_day_conservatism(net, day):
    profiles, run = day
    assert run.summary.horizons == 720
    assert run.summary.updates == 4320
    assert run.summary.failed_intervals == 0
    outside_clamp = (run.summary.violation_intervals
                     - run.summary.violation_intervals_clamped)
    assert outside_clamp == 0
    station_buses = [s.bus for s in net.stations]
    checked = satisfied = 0
    for r in run.records:
        if r.failed or r.clamped or r.stale_table:
            continue
        forecast = [float(profiles.wind_forecast[b][r.horizon_id])
                    for b in station_buses]
        # actual wind above forecast while the grid still imports power
        if sum(r.actual_wind) > sum(forecast) and r.forecast_p_s > 1e-3:
            checked += 1
            if r.realized.p_s < r.forecast_p_s:
                satisfied += 1
    assert checked > 0
    assert satisfied > 0
    print(f"criterion 8: {run.summary.updates} updates, "
          f"{run.summary.violation_intervals} violation intervals "
          f"({outside_clamp} outside clamps); import drop below forecast "
          f"in {satisfied}/{checked} above-forecast intervals")


def test_criterion_9_objective_monotone_in_available_wind(net, horizon):
    # the grid oracle's plateau scatter (~1e-2) exceeds the monotonicity
    # signal, so the inequality is asserted on the solver values and each
    # grid point is certified against the oracle at the criterion-4 bound
    grid = np.linspace(1.0, 9.0, 5)
    f = np.zeros((5, 5))
    for i, w1 in enumerate(grid):
        for j, w2 in enumerate(grid):
            inp = horizon.with_wind({2: float(w1), 16: float(w2)})
            sol = solve_opf(net, inp)
            ora = oracle_opf(net, inp)
            assert sol.status == ora.status == STATUS_OPTIMAL
            assert abs(sol.f - ora.f) <= 1e-3 * max(1.0, abs(ora.f))
            f[i, j] = sol.f
    slack = 1e-5 * np.maximum(1.0, np.abs(f[:-1, :]))
    assert np.all(np.diff(f, axis=0) >= -slack)
    slack = 1e-5 * np.maximum(1.0, np.abs(f[:, :-1]))
    assert np.all(np.diff(f, axis=1) >= -slack)
    print("criterion 9: f non-decreasing in each station's wind on the "
          "5x5 grid (oracle-certified at every point)")
