"""Wind-power levels, the per-horizon scenario grid, and the lookup table.

Around each station's forecast, three higher and three lower levels are laid
out at half-widths dp1, 2*dp1 and 3*dp1, the paper's fixed ratio 1 : 2 : 3;
by default the widest is 15% of the station's rated power. One level
choice per station defines a scenario; for two stations that gives the
49-row lookup table, ordered with station 1 outermost and levels listed from
highest to lowest wind.

The table is solved by blocks: the rows that share every station's level
but the last station's, in index order (seven rows each for two stations).
Within a block every earlier row's wind box contains every later row's, so
each row is offered the block's latest searched optimal row
(``solve_opf``'s incumbent). What reuse needs of that row alone (its demand
per bus and the power its state draws) goes into one ``Incumbent`` record
when it is searched. Where its optimal injection still lies in a later
row's box, the later row takes that optimum instead of a search: one
mismatch check of the earlier row's state at the later row's injection,
with no power flow and no evaluator. On the reference table 7 of the 49
rows are searched and build a record; the other 42 reuse one.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import time
from dataclasses import dataclass
from typing import Sequence

from .network import Network
from .opf import (HorizonInput, Incumbent, OPFOptions, OPFSolution,
                  STATUS_FAILURE, _failed, solve_opf)

LEVEL_LABELS = ("H3", "H2", "H1", "M", "L1", "L2", "L3")
DEFAULT_DEADLINE_S = 112.0
DEFAULT_WIDTH_FRACTION = 0.15  # dp3 as a fraction of rated power


@dataclass(frozen=True)
class WindLevels:
    """Seven wind values per station, ordered [H3, H2, H1, M, L1, L2, L3]."""
    values: tuple[tuple[float, ...], ...]  # MW, one 7-tuple per station


@dataclass(frozen=True)
class Scenario:
    index: int  # 1-based, station-1 level outermost
    level_choice: tuple[str, ...]  # per station, element of LEVEL_LABELS
    wind: tuple[float, ...]  # MW per station


@dataclass(frozen=True)
class LookupTable:
    horizon_id: int
    levels: WindLevels
    rows: tuple[tuple[Scenario, OPFSolution], ...]
    build_duration: float  # seconds
    deadline_met: bool

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row(self, index: int) -> tuple[Scenario, OPFSolution]:
        return self.rows[index - 1]


def make_levels(forecast: Sequence[float], dp1: float | None,
                rated: Sequence[float]) -> WindLevels:
    """Seven levels per station around the forecast, clamped to [0, rated].

    The half-widths are dp1, 2*dp1 and 3*dp1, the ratio 1 : 2 : 3 (2*dp1 is
    exact, and 3*dp1 rounds as 1.5*(2*dp1) does). ``dp1`` is one width in
    MW shared by all stations, or None for the default: each station's
    widest level at 15% of its rated power. A width that is not a positive
    finite number raises ValueError.
    """
    nst = len(forecast)
    if len(rated) != nst:
        raise ValueError("forecast and rated must have equal length")
    values = []
    for m, r in zip(forecast, rated):
        if not (0 <= m <= r):
            raise ValueError(f"forecast {m} outside [0, rated={r}]")
        d1 = DEFAULT_WIDTH_FRACTION * r / 3.0 if dp1 is None else dp1
        if not 0 < d1 < math.inf:
            raise ValueError(f"level width dp1 must be a positive finite "
                             f"number of MW, got {d1}")
        d2, d3 = 2.0 * d1, 3.0 * d1
        raw = (m + d3, m + d2, m + d1, m, m - d1, m - d2, m - d3)
        values.append(tuple(min(r, max(0.0, x)) for x in raw))
    return WindLevels(values=tuple(values))


def scenario_index(positions: Sequence[int]) -> int:
    """1-based row index from 1-based per-station level positions."""
    idx = 0
    for p in positions:
        if not 1 <= p <= 7:
            raise ValueError(f"level position {p} out of range")
        idx = idx * 7 + (p - 1)
    return idx + 1


def enumerate_scenarios(levels: WindLevels) -> list[Scenario]:
    """All level combinations in lookup-table order (7^n rows)."""
    nst = len(levels.values)
    out = []
    for positions in itertools.product(range(1, 8), repeat=nst):
        out.append(Scenario(
            index=scenario_index(positions),
            level_choice=tuple(LEVEL_LABELS[p - 1] for p in positions),
            wind=tuple(levels.values[s][p - 1]
                       for s, p in enumerate(positions)),
        ))
    return out


def _solve_block(args) -> list[tuple[int, OPFSolution]]:
    """Solve one block of rows in index order. Each row offers ``solve_opf``
    the block's latest searched optimal row as its incumbent; ``_reuse``
    decides whether that row's optimum fits. An older row is never needed:
    a row is searched only because no earlier optimum fitted it, and every
    later row's box lies inside its box. A reused row (``evals`` 0) is not
    offered on, as its point is its incumbent's. The incumbent's
    ``Incumbent`` record is built once, when its row is searched, and lives
    only in this loop."""
    net, inp, block, opts = args
    out, incumbent = [], None
    for sc in block:
        try:
            row = inp.with_wind({st.bus: w for st, w in zip(net.stations,
                                                             sc.wind)})
            sol = solve_opf(net, row, opts, incumbent=incumbent)
        except Exception as exc:  # a failed row must not sink the table
            sol = _failed(len(net.stations), STATUS_FAILURE, 0, repr(exc))
        if sol.evals > 0:
            # a searched row whose optimum may not be reused leaves the
            # incumbent as it was
            incumbent = Incumbent.of(net, row, sol) or incumbent
        out.append((sc.index, sol))
    return out


def build_lookup_table(net: Network, inp: HorizonInput,
                       scenarios: Sequence[Scenario],
                       levels: WindLevels,
                       workers: int = 1,
                       deadline: float = DEFAULT_DEADLINE_S,
                       opts: OPFOptions | None = None,
                       horizon_id: int = 0) -> LookupTable:
    """Solve every scenario OPF and assemble the lookup table.

    Rows are solved block by block (see the module docstring), one
    ``solve_opf`` call per row; a block is the worker pool's unit and its
    solves are deterministic, so the table is identical for any worker
    count. The pool starts at most one worker per block, and its module is
    imported only when more than one is started.
    Invalid horizon input, or a ``deadline`` that is not a positive finite
    number of seconds, raises ValueError before any row is solved. The
    horizon is validated once: each row, made by ``with_wind``, keeps its
    mark with only its wind checked, so a row's ``solve_opf`` checks
    nothing again.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not 0 < deadline < math.inf:
        raise ValueError(f"deadline must be a positive finite number of "
                         f"seconds, got {deadline}")
    inp = inp.validated(net)
    t0 = time.perf_counter()
    ordered = sorted(scenarios, key=lambda s: s.index)
    blocks: dict[tuple[str, ...], list[Scenario]] = {}
    for sc in ordered:
        blocks.setdefault(sc.level_choice[:-1], []).append(sc)
    tasks = [(net, inp, block, opts) for block in blocks.values()]
    # a pool forks all its workers at once, so never more than the blocks
    workers = min(workers, len(tasks))
    if workers <= 1:
        results = [_solve_block(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_block, tasks, chunksize=chunk))
    by_index = dict(itertools.chain.from_iterable(results))
    rows = tuple((sc, by_index[sc.index]) for sc in ordered)
    duration = time.perf_counter() - t0
    return LookupTable(horizon_id=horizon_id, levels=levels, rows=rows,
                       build_duration=duration,
                       deadline_met=duration <= deadline)


def scenario_label(sc: Scenario) -> str:
    return "-".join(f"Pw,{lv}" for lv in sc.level_choice)


def table_to_csv(table: LookupTable, station_buses: Sequence[int]) -> str:
    """Lookup table as CSV text, one row per scenario."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    header = (["index", "scenario"]
              + [f"wind_mw_bus{b}" for b in station_buses]
              + [f"beta_bus{b}" for b in station_buses]
              + ["p_s_mw", "q_s_mvar", "f", "f1", "f2", "f3", "f4", "status"])
    wr.writerow(header)
    for sc, sol in table.rows:
        wr.writerow([sc.index, scenario_label(sc)]
                    + [repr(w) for w in sc.wind]
                    + [repr(b) for b in sol.beta]
                    + [repr(sol.p_s), repr(sol.q_s), repr(sol.f),
                       repr(sol.f1), repr(sol.f2), repr(sol.f3),
                       repr(sol.f4), sol.status])
    return buf.getvalue()
