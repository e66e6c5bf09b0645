"""Receding-horizon loop: build a lookup table per 120 s horizon, then every
20 s select the scenario covering the actual wind and realize its
curtailment factors against the live network state.

The clock is the paper's and the profiles': a ``HORIZON_S`` horizon of
``UPDATES_PER_SLOT`` updates of ``UPDATE_S`` each, so each update is
prorated a sixth of the horizon's prices. Only the build budget
(``deadline``, 112 s by default) can be set.

Scenario selection takes, per station, the smallest level that still covers
the observed wind (clamping to the highest level when the observation falls
outside the grid), which keeps the realized injection at or below the
planned one and preserves feasibility of the pre-solved operating point.

Each update's trace record holds its realized power flow once
(``TraceRecord.realized``, None when nothing was realized); the trace CSV
reads the slack power and losses from it.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .network import Network
from .opf import HorizonInput, OPFOptions, STATUS_OPTIMAL
from .powerflow import (InjectionSpec, PowerFlowError, PowerFlowSolution,
                        check_limits, evaluate_point)
from .profiles import (DayProfiles, HORIZON_S, SLOTS_PER_DAY, UPDATE_S,
                       UPDATES_PER_SLOT, validate_profiles)
from .scenarios import (DEFAULT_DEADLINE_S, LookupTable, WindLevels,
                        build_lookup_table, enumerate_scenarios, make_levels,
                        scenario_index)

log = logging.getLogger(__name__)

DEFAULT_PRICE_P = 1.67  # $/MW per horizon
DEFAULT_PRICE_Q = 0.4   # $/Mvar per horizon


@dataclass(frozen=True)
class TraceRecord:
    horizon_id: int
    update_id: int
    actual_wind: tuple[float, ...]
    selected_index: int
    applied_beta: tuple[float, ...]
    realized: PowerFlowSolution | None
    realized_f: float
    realized_f1: float
    realized_f2: float
    realized_f3: float
    realized_f4: float
    violations: int
    table_build_duration: float
    clamped: bool
    stale_table: bool
    failed: bool
    forecast_p_s: float   # forecast (all-M) row
    forecast_f: float


@dataclass
class DaySummary:
    horizons: int = 0
    updates: int = 0
    total_f: float = 0.0
    total_f1: float = 0.0
    total_f2: float = 0.0
    total_f3: float = 0.0
    total_f4: float = 0.0
    violation_intervals: int = 0
    violation_intervals_clamped: int = 0
    clamp_intervals: int = 0
    failed_intervals: int = 0
    failed_rows: int = 0
    stale_tables: int = 0
    deadline_overruns: int = 0
    max_build_duration: float = 0.0


@dataclass(frozen=True)
class DayRun:
    records: tuple[TraceRecord, ...]
    summary: DaySummary


def select_positions(levels: WindLevels,
                     actual: Sequence[float]) -> tuple[tuple[int, ...], bool]:
    """Per-station 1-based level positions covering the actual wind.

    Scans the descending level list and keeps the deepest (smallest) level
    still >= actual; an observation above the highest level clamps to
    position 1 and flags the interval.
    """
    positions = []
    clamped = False
    for vals, a in zip(levels.values, actual):
        pos = None
        for k, lv in enumerate(vals, start=1):
            if lv >= a:
                pos = k
        if pos is None:
            pos = 1
            clamped = True
        positions.append(pos)
    return tuple(positions), clamped


def apply_and_realize(net: Network,
                      demand_p: Mapping[int, float],
                      demand_q: Mapping[int, float],
                      actual: Sequence[float],
                      beta: Sequence[float],
                      price_p: float = DEFAULT_PRICE_P,
                      price_q: float = DEFAULT_PRICE_Q,
                      y: np.ndarray | None = None,
                      start=None):
    """Power flow at the realized injection beta*actual and the objective
    components prorated to one update interval (UPDATE_S / HORIZON_S)."""
    frac = UPDATE_S / HORIZON_S
    demand = InjectionSpec.from_mappings(net, demand_p, demand_q)
    pf, terms = evaluate_point(net, demand, actual, beta, price_p * frac,
                               price_q * frac, y=y, start=start)
    return pf, dict(zip(("f", "f1", "f2", "f3", "f4"), terms))


def run_day(net: Network, profiles: DayProfiles,
            deadline: float = DEFAULT_DEADLINE_S,
            workers: int = 1,
            price_p: float = DEFAULT_PRICE_P,
            price_q: float = DEFAULT_PRICE_Q,
            opts: OPFOptions | None = None,
            n_horizons: int | None = None,
            enforce_deadline: bool = False,
            table_sink: Callable[[LookupTable], None] | None = None) -> DayRun:
    """Simulate the prediction-updating loop over (part of) one day.

    The clock is logical: horizon h uses demand/forecast slot h and actual
    slots 6h..6h+5. Each table is built with the default level widths and
    a budget of ``deadline`` seconds. Wall-clock build durations are
    recorded per horizon; with ``enforce_deadline`` a budget overrun falls
    back to the previous horizon's table (stale-table policy), otherwise the
    overrun is only counted. The first horizon has no previous table: its
    overrun is logged and its late table used. ``deadline`` must lie
    strictly between 0 and HORIZON_S, and ``n_horizons`` in
    1..SLOTS_PER_DAY; otherwise ValueError, before any table is built.
    """
    if not 0 < deadline < HORIZON_S:
        raise ValueError(f"deadline must be positive and below the "
                         f"{HORIZON_S:g} s horizon, got {deadline}")
    validate_profiles(profiles, net)
    station_buses = [s.bus for s in net.stations]
    rated = [s.rated_power for s in net.stations]
    total = SLOTS_PER_DAY if n_horizons is None else n_horizons
    if not 1 <= total <= SLOTS_PER_DAY:
        raise ValueError(f"horizons must lie in 1..{SLOTS_PER_DAY}, "
                         f"got {total}")
    forecast_pos = tuple([4] * len(station_buses))  # the all-M scenario

    records: list[TraceRecord] = []
    summary = DaySummary()
    prev_table: LookupTable | None = None
    warm = None

    for h in range(total):
        demand_p = {b: float(arr[h]) for b, arr in profiles.demand_p.items()}
        demand_q = {b: float(arr[h]) for b, arr in profiles.demand_q.items()}
        forecast = [float(profiles.wind_forecast[b][h]) for b in station_buses]
        levels = make_levels(forecast, None, rated)
        scenarios = enumerate_scenarios(levels)
        inp = HorizonInput(demand_p=demand_p, demand_q=demand_q,
                           wind_available=dict(zip(station_buses, forecast)),
                           price_p=price_p, price_q=price_q)
        table = build_lookup_table(net, inp, scenarios, levels,
                                   workers=workers,
                                   deadline=deadline,
                                   opts=opts, horizon_id=h)
        summary.max_build_duration = max(summary.max_build_duration,
                                         table.build_duration)
        if not table.deadline_met:
            summary.deadline_overruns += 1
        summary.failed_rows += sum(1 for _, sol in table.rows
                                   if sol.status != STATUS_OPTIMAL)
        stale = False
        if enforce_deadline and not table.deadline_met:
            if prev_table is None:
                log.warning("horizon %d: build overran the budget "
                            "(%.1f s) and there is no previous table; "
                            "using the late table", h, table.build_duration)
            else:
                log.warning("horizon %d: build overran the budget "
                            "(%.1f s); reusing the previous table",
                            h, table.build_duration)
                table = prev_table
                stale = True
                summary.stale_tables += 1
        if table_sink is not None:
            table_sink(table)
        prev_table = table

        fc_sc, fc_sol = table.row(scenario_index(forecast_pos))
        for u in range(UPDATES_PER_SLOT):
            uid = h * UPDATES_PER_SLOT + u
            actual = tuple(float(profiles.wind_actual[b][uid])
                           for b in station_buses)
            positions, clamped = select_positions(table.levels, actual)
            idx = scenario_index(positions)
            _, row_sol = table.row(idx)
            if clamped:
                summary.clamp_intervals += 1

            failed = row_sol.status != STATUS_OPTIMAL
            beta = row_sol.beta if not failed else fc_sol.beta
            pf = None
            comps = {"f": float("nan"), "f1": float("nan"),
                     "f2": float("nan"), "f3": float("nan"),
                     "f4": float("nan")}
            violations = 0
            if not failed:
                try:
                    pf, comps = apply_and_realize(
                        net, demand_p, demand_q, actual, beta,
                        price_p, price_q, start=warm)
                    warm = (pf.v, pf.theta)
                    violations = len(check_limits(net, pf).violations)
                except PowerFlowError as exc:
                    log.warning("update %d: realized power flow failed: %s",
                                uid, exc)
                    failed = True
                    warm = None
            records.append(TraceRecord(
                horizon_id=h, update_id=uid, actual_wind=actual,
                selected_index=idx, applied_beta=tuple(beta),
                realized=pf,
                realized_f=comps["f"], realized_f1=comps["f1"],
                realized_f2=comps["f2"], realized_f3=comps["f3"],
                realized_f4=comps["f4"],
                violations=violations,
                table_build_duration=table.build_duration,
                clamped=clamped, stale_table=stale, failed=failed,
                forecast_p_s=fc_sol.p_s,
                forecast_f=fc_sol.f * (UPDATE_S / HORIZON_S)))
            summary.updates += 1
            if failed:
                summary.failed_intervals += 1
            else:
                summary.total_f += comps["f"]
                summary.total_f1 += comps["f1"]
                summary.total_f2 += comps["f2"]
                summary.total_f3 += comps["f3"]
                summary.total_f4 += comps["f4"]
                if violations:
                    summary.violation_intervals += 1
                    if clamped:
                        summary.violation_intervals_clamped += 1
        summary.horizons += 1
        if h and h % 50 == 0:
            log.info("horizon %d/%d done", h, total)
    return DayRun(records=tuple(records), summary=summary)


def trace_to_csv(run: DayRun, station_buses: Sequence[int]) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(
        ["horizon_id", "update_id"]
        + [f"actual_wind_bus{b}" for b in station_buses]
        + ["selected_index"]
        + [f"applied_beta_bus{b}" for b in station_buses]
        + ["realized_p_s_mw", "realized_q_s_mvar", "realized_p_loss_mw",
           "realized_f", "realized_f1", "realized_f2", "realized_f3",
           "realized_f4", "violations", "clamped", "stale_table", "failed",
           "table_build_duration_s", "forecast_p_s_mw", "forecast_f"])
    nan = float("nan")
    for r in run.records:
        pf = r.realized
        wr.writerow(
            [r.horizon_id, r.update_id]
            + [repr(w) for w in r.actual_wind]
            + [r.selected_index]
            + [repr(b) for b in r.applied_beta]
            + [repr(x) for x in ((pf.p_s, pf.q_s, pf.p_loss)
                                 if pf is not None else (nan,) * 3)]
            + [repr(r.realized_f),
               repr(r.realized_f1), repr(r.realized_f2), repr(r.realized_f3),
               repr(r.realized_f4), r.violations, int(r.clamped),
               int(r.stale_table), int(r.failed),
               repr(r.table_build_duration), repr(r.forecast_p_s),
               repr(r.forecast_f)])
    return buf.getvalue()


def summary_to_text(summary: DaySummary) -> str:
    lines = ["rt-opf day summary"]
    for name, val in vars(summary).items():
        lines.append(f"{name}: {val}")
    return "\n".join(lines) + "\n"
