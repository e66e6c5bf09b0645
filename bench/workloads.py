"""The three workloads: inputs made from the seed, one timed pass, and the
correctness gate run on its outputs.

Every call into the program goes through a module attribute
(``scenarios.build_lookup_table``, ``realtime.apply_and_realize``, ...) so
that a traced pass sees it; see tracing.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from rtopf import network, opf, profiles, realtime, scenarios
from rtopf.powerflow import InjectionSpec, PowerFlowError

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "rtopf" / "data"

DAY_WINDOW_HORIZONS = 30
DAY_WINDOW_STRIDE = 24  # slots between sampled horizons: one every 48 min
# updates checked against the Gauss-Seidel oracle, spread over the day
ORACLE_UPDATES = (0, 1081, 2162, 3243)
ORACLE_TOL_PU = 1e-7   # voltage magnitude (pu) and angle (rad)
ORACLE_TOL_MW = 1e-6   # slack active / reactive power (MW / Mvar)


@dataclass
class Pass:
    """What one timed pass of a workload produced."""
    wall_s: float
    latencies_ms: list[float]  # one per real-time operation, same order
    attempted: int             # in every pass
    failed: int
    counts: dict               # machine-independent; must repeat exactly
    output: dict = field(default_factory=dict, repr=False)  # for the gate


def _timed(times: dict, key: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    times[key] = time.perf_counter() - t0
    return out


@contextlib.contextmanager
def _call_times_ms(module, attr: str):
    """Collect the duration in ms of every call made to ``module.attr``
    inside the block, in call order."""
    fn = getattr(module, attr)
    out: list[float] = []

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            out.append((time.perf_counter() - t0) * 1e3)
    setattr(module, attr, timed)
    try:
        yield out
    finally:
        setattr(module, attr, fn)


def _load_case(times: dict):
    net = _timed(times, "network.load_s", network.load_network,
                 DATA / "case41.json")
    y = _timed(times, "network.admittance_s", network.build_admittance, net)
    return net, y


def _gen_day(net, seed: int, times: dict):
    def gen():
        with open(DATA / "hourly_demand_shape.json") as fh:
            shape = json.load(fh)["hourly_shape"]
        with open(DATA / "hourly_wind_base.json") as fh:
            base = json.load(fh)["hourly_base_mw"]
        return profiles.gen_day_profiles(
            net, shape, base, profiles.ProfileGenConfig(seed=seed))
    return _timed(times, "profiles.gen_s", gen)


def _horizon_input(prof, h: int, buses) -> opf.HorizonInput:
    return opf.HorizonInput(
        demand_p={b: float(a[h]) for b, a in prof.demand_p.items()},
        demand_q={b: float(a[h]) for b, a in prof.demand_q.items()},
        wind_available={b: float(prof.wind_forecast[b][h]) for b in buses},
        price_p=realtime.DEFAULT_PRICE_P, price_q=realtime.DEFAULT_PRICE_Q)


def _table_counts(tables) -> dict:
    sols = [sol for t in tables for _, sol in t.rows]
    return {
        "tables": len(tables),
        "rows": len(sols),
        "optimal_rows": sum(s.status == opf.STATUS_OPTIMAL for s in sols),
        "opf_evals_total": sum(s.evals for s in sols),
        "distinct_rows": sum(len({sc.wind for sc, _ in t.rows})
                             for t in tables),
    }


def _sha256(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


def day_window_profiles(prof, stride: int = DAY_WINDOW_STRIDE,
                        count: int = DAY_WINDOW_HORIZONS):
    """A valid full-day bundle whose first ``count`` horizons are slots
    0, stride, 2*stride, ... of ``prof``, each with its own demand, forecast
    and six actual-wind slots; the remaining slots keep their values."""
    per = profiles.UPDATES_PER_SLOT
    src = np.arange(count) * stride
    if src[-1] >= profiles.SLOTS_PER_DAY:
        raise ValueError("window runs past the end of the day")
    src_upd = (src[:, None] * per + np.arange(per)).ravel()

    def pick(series, idx):
        out = {}
        for bus, arr in series.items():
            arr = arr.copy()
            arr[:idx.size] = arr[idx]
            out[bus] = arr
        return out
    return replace(prof,
                   demand_p=pick(prof.demand_p, src),
                   demand_q=pick(prof.demand_q, src),
                   wind_forecast=pick(prof.wind_forecast, src),
                   wind_actual=pick(prof.wind_actual, src_upd),
                   meta={**prof.meta, "window_stride": stride,
                         "window_horizons": count})


class RefTable:
    """The paper's reference table: bundled horizon, forecast (3.8, 7.05) MW,
    default widths, one worker. The seed does not change it. The operations
    timed are the table's 49 row solves (``solve_opf`` as the build calls
    it); the pass is the whole build.

    ``ref_table`` uses the default options, as ``rtopf build-table`` does;
    ``ref_table_fast`` uses FAST_OPTS, as ``run_day`` does. A default build
    takes 10-15 s, so a run holds four builds; a FAST_OPTS build takes about
    2 s, so a run holds about 25 and each 30-80 ms row solve as many
    samples."""
    workers = 1  # row solves are timed in this process
    tail_within_pass = False

    def __init__(self, name: str, opts, min_passes: int):
        self.name, self.opts, self.min_passes = name, opts, min_passes

    def setup(self, seed: int, times: dict) -> dict:
        net, _ = _load_case(times)
        times["profiles.gen_s"] = 0.0
        with open(DATA / "horizon1.json") as fh:
            data = json.load(fh)
        inp = opf.HorizonInput(
            demand_p={int(k): v for k, v in data["demand_p"].items()},
            demand_q={int(k): v for k, v in data["demand_q"].items()},
            wind_available={int(k): v
                            for k, v in data["wind_available"].items()},
            price_p=data["price_p"], price_q=data["price_q"])
        opf.solve_opf(net, inp, self.opts)  # warm-up: the forecast row
        return {"net": net, "inp": inp}

    def run(self, st: dict, workers: int) -> Pass:
        net, inp = st["net"], st["inp"]
        buses = [s.bus for s in net.stations]
        with _call_times_ms(scenarios, "solve_opf") as row_ms:
            t0 = time.perf_counter()
            levels = scenarios.make_levels(
                [inp.wind_available[b] for b in buses], None,
                [s.rated_power for s in net.stations])
            table = scenarios.build_lookup_table(
                net, inp, scenarios.enumerate_scenarios(levels), levels,
                workers=workers, opts=self.opts)
            wall = time.perf_counter() - t0
        if len(row_ms) != len(table.rows):
            raise RuntimeError(f"timed {len(row_ms)} row solves of "
                               f"{len(table.rows)}; run with one worker")
        counts = _table_counts([table])
        counts["newton_iters"] = sum(sol.power_flow.iterations
                                     for _, sol in table.rows
                                     if sol.power_flow is not None)
        csv_text = scenarios.table_to_csv(table, buses)
        counts["table_sha256"] = _sha256([csv_text])
        counts["objective_usd"] = sum(sol.f for _, sol in table.rows
                                      if sol.status == opf.STATUS_OPTIMAL)
        return Pass(
            wall_s=wall, latencies_ms=row_ms,
            attempted=counts["rows"] + 1,
            failed=(counts["rows"] - counts["optimal_rows"]
                    + (not table.deadline_met)),
            counts=counts, output={"table": table})

    def check(self, st: dict, p: Pass) -> list[str]:
        """Acceptance criterion 5 on the reference table."""
        table = p.output["table"]
        sols = [sol for _, sol in table.rows]
        problems = []
        if len(sols) != 49:
            problems.append(f"{len(sols)} rows, expected 49")
        bad = [i + 1 for i, s in enumerate(sols)
               if s.status != opf.STATUS_OPTIMAL]
        if bad:
            problems.append(f"non-optimal rows {bad}")
            return problems
        p_s = np.array([s.p_s for s in sols])
        q_s = np.array([s.q_s for s in sols])
        if not np.abs(p_s).max() < 1e-5:
            problems.append(f"max |p_s| {np.abs(p_s).max():.3e} MW >= 1e-5")
        spread = (q_s.max() - q_s.min()) / q_s.mean()
        if not spread < 0.02:
            problems.append(f"q_s spread {spread:.4f} >= 2%")
        curtailed = [i for i in range(43, 50) if table.row(i)[1].beta[0] != 1.0]
        if curtailed:
            problems.append(f"beta_1 != 1 in rows {curtailed}")
        return problems


class DayWindow:
    """run_day at FAST_OPTS with two workers over 30 horizons sampled every
    24 slots of one seeded day (night, morning ramp, midday, evening)."""
    name = "day_window"
    workers = 2
    min_passes = 2  # a pass is longer than a run's seconds; time the faster
    tail_within_pass = False

    def setup(self, seed: int, times: dict) -> dict:
        net, _ = _load_case(times)
        window = day_window_profiles(_gen_day(net, seed, times))
        buses = [s.bus for s in net.stations]
        # warm-up: the forecast row of the first horizon
        opf.solve_opf(net, _horizon_input(window, 0, buses), opf.FAST_OPTS)
        return {"net": net, "window": window}

    def run(self, st: dict, workers: int) -> Pass:
        net = st["net"]
        tables = []
        t0 = time.perf_counter()
        day = realtime.run_day(net, st["window"], opts=opf.FAST_OPTS,
                               workers=workers,
                               n_horizons=DAY_WINDOW_HORIZONS,
                               table_sink=tables.append)
        wall = time.perf_counter() - t0
        s = day.summary
        counts = _table_counts(tables)
        counts.update(
            updates=s.updates,
            newton_iters=sum(r.realized.iterations for r in day.records
                             if r.realized is not None),
            failed_intervals=s.failed_intervals,
            clamp_intervals=s.clamp_intervals,
            violation_intervals=s.violation_intervals,
            violation_intervals_clamped=s.violation_intervals_clamped,
            objective_usd=s.total_f,
            table_sha256=_sha256(scenarios.table_to_csv(
                t, [stn.bus for stn in net.stations]) for t in tables))
        return Pass(
            wall_s=wall,
            latencies_ms=[t.build_duration * 1e3 for t in tables],
            attempted=counts["rows"] + s.updates + counts["tables"],
            failed=s.failed_rows + s.failed_intervals + s.deadline_overruns,
            counts=counts, output={"summary": s})

    def check(self, st: dict, p: Pass) -> list[str]:
        s = p.output["summary"]
        problems = []
        if s.horizons != DAY_WINDOW_HORIZONS:
            problems.append(f"{s.horizons} horizons, "
                            f"expected {DAY_WINDOW_HORIZONS}")
        unplanned = s.violation_intervals - s.violation_intervals_clamped
        if unplanned:
            problems.append(f"{unplanned} violation intervals outside clamps")
        return problems


class RealizeStream:
    """All 4320 updates of one seeded day at beta = 1: select the covering
    levels, realize the injection warm-started from the previous update,
    check the limits. No table is built."""
    name = "realize_stream"
    workers = 1
    min_passes = 1
    # 4320 operations and a dozen passes: a few updates are slow in every
    # pass, and a tail of per-update minima would be made of them
    tail_within_pass = True

    def setup(self, seed: int, times: dict) -> dict:
        net, y = _load_case(times)
        prof = _gen_day(net, seed, times)
        buses = [s.bus for s in net.stations]
        inp = _horizon_input(prof, 0, buses)
        realtime.apply_and_realize(  # warm-up: the first update
            net, inp.demand_p, inp.demand_q,
            [float(prof.wind_actual[b][0]) for b in buses],
            [1.0] * len(buses), y=y)
        return {"net": net, "y": y, "prof": prof}

    def run(self, st: dict, workers: int) -> Pass:
        net, y, prof = st["net"], st["y"], st["prof"]
        buses = [s.bus for s in net.stations]
        rated = [s.rated_power for s in net.stations]
        beta = (1.0,) * len(buses)
        per = profiles.UPDATES_PER_SLOT
        lat, slack, oracle = [], [], {}
        iters = clamps = violations = failed = 0
        f_total = 0.0
        warm = None
        t0 = time.perf_counter()
        for h in range(profiles.SLOTS_PER_DAY):
            inp = _horizon_input(prof, h, buses)
            levels = realtime.make_levels(
                [inp.wind_available[b] for b in buses], None, rated)
            for u in range(per):
                uid = h * per + u
                actual = tuple(float(prof.wind_actual[b][uid]) for b in buses)
                ts = time.perf_counter()
                positions, clamped = realtime.select_positions(levels, actual)
                realtime.scenario_index(positions)
                try:
                    pf, comps = realtime.apply_and_realize(
                        net, inp.demand_p, inp.demand_q, actual, beta,
                        y=y, start=warm)
                except PowerFlowError:
                    failed += 1
                    warm = None
                    lat.append((time.perf_counter() - ts) * 1e3)
                    continue
                warm = (pf.v, pf.theta)
                n_viol = len(realtime.check_limits(net, pf).violations)
                lat.append((time.perf_counter() - ts) * 1e3)
                iters += pf.iterations
                clamps += clamped
                violations += n_viol > 0
                f_total += comps["f"]
                slack += (pf.p_s, pf.q_s)
                if uid in ORACLE_UPDATES:
                    oracle[uid] = (inp, actual, pf)
        wall = time.perf_counter() - t0
        n = len(lat)
        return Pass(
            wall_s=wall, latencies_ms=lat, attempted=n, failed=failed,
            counts={"updates": n, "newton_iters": iters,
                    "failed_intervals": failed, "clamp_intervals": clamps,
                    "violation_intervals": violations,
                    "objective_usd": f_total,
                    "slack_sha256": _sha256(map(repr, slack))},
            output={"oracle": oracle})

    def check(self, st: dict, p: Pass) -> list[str]:
        """Sampled realized power flows against the Gauss-Seidel oracle,
        which shares no code with the Newton solver."""
        spec = importlib.util.spec_from_file_location(
            "rtopf_oracles", ROOT / "tests" / "oracles.py")
        oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracles)
        net = st["net"]
        problems = []
        for uid in ORACLE_UPDATES:
            if uid not in p.output["oracle"]:
                problems.append(f"update {uid}: realized power flow failed")
                continue
            inp, actual, pf = p.output["oracle"][uid]
            p_mw = np.zeros(net.n_buses)
            q_mvar = np.zeros(net.n_buses)
            for bus, val in inp.demand_p.items():
                p_mw[net.index_of(bus)] -= val
            for bus, val in inp.demand_q.items():
                q_mvar[net.index_of(bus)] -= val
            for stn, a in zip(net.stations, actual):
                p_mw[net.index_of(stn.bus)] += a  # beta = 1
            v, p_s, q_s = oracles.gauss_seidel_power_flow(
                net, InjectionSpec(p_mw, q_mvar))
            gap_pu = max(np.abs(pf.v - np.abs(v)).max(),
                         np.abs(pf.theta - np.angle(v)).max())
            gap_mw = max(abs(pf.p_s - p_s), abs(pf.q_s - q_s))
            if not (gap_pu < ORACLE_TOL_PU and gap_mw < ORACLE_TOL_MW):
                problems.append(f"update {uid}: gap {gap_pu:.2e} pu, "
                                f"{gap_mw:.2e} MW to the Gauss-Seidel oracle")
        return problems


WORKLOADS = {w.name: w for w in (
    RefTable("ref_table", None, min_passes=4),
    RefTable("ref_table_fast", opf.FAST_OPTS, min_passes=1),
    DayWindow(), RealizeStream())}
