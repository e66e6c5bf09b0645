"""Spans recorded from outside the program, around its public functions.

The tracer replaces a public function at the module attribute where its
caller looks it up (``rtopf.scenarios.solve_opf`` is what the table build
calls), so the program itself is unchanged. Each call becomes a span with a
name, start, end, parent and a small note taken from the result (OPF
evaluations, Newton iterations). Spans stay in memory until the run ends.
Calls made inside worker processes are invisible here, so traced runs use
one worker.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

import summary


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int  # -1 for a root span
    start: float
    end: float = 0.0
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _opf_note(sol):
    return {"evals": sol.evals, "status": sol.status}


def _pf_note(pf):
    return {"iterations": pf.iterations}


def _table_note(table):
    winds = [sc.wind for sc, _ in table.rows]
    return {"rows": len(winds), "distinct": len(set(winds))}


# (module, attribute, span name, note). Both modules that look a function up
# get the same span name; an attribute a later version drops is skipped.
TARGETS = (
    ("rtopf.realtime", "run_day", "realtime.run_day", None),
    ("rtopf.scenarios", "build_lookup_table", "scenarios.build", _table_note),
    ("rtopf.realtime", "build_lookup_table", "scenarios.build", _table_note),
    ("rtopf.scenarios", "make_levels", "scenarios.levels", None),
    ("rtopf.realtime", "make_levels", "scenarios.levels", None),
    ("rtopf.scenarios", "enumerate_scenarios", "scenarios.enumerate", None),
    ("rtopf.realtime", "enumerate_scenarios", "scenarios.enumerate", None),
    ("rtopf.scenarios", "solve_opf", "opf.solve", _opf_note),
    ("rtopf.realtime", "select_positions", "realtime.select", None),
    ("rtopf.realtime", "apply_and_realize", "realtime.apply", None),
    ("rtopf.realtime", "solve_power_flow", "powerflow.solve", _pf_note),
    ("rtopf.opf", "solve_power_flow", "powerflow.solve", _pf_note),
    ("rtopf.realtime", "check_limits", "powerflow.check_limits", None),
    ("rtopf.opf", "check_limits", "powerflow.check_limits", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             note: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(id=len(self.spans), name=name,
                        parent=self._stack[-1] if self._stack else -1,
                        start=0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(out)
            return out
        return traced

    @contextlib.contextmanager
    def patched(self, targets=TARGETS):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for modname, attr, name, note in targets:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, note))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.parent, []).append(s)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    A layer a workload never reaches reads 0, so every workload reports the
    same metric names.
    """
    kids = tracer.children()
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def durations(name, scale):
        return [s.duration * scale for s in spans(name)]

    def self_times(name, scale):
        return [summary.self_time(s.start, s.end,
                                  [(c.start, c.end) for c in kids.get(s.id, [])])
                * scale for s in spans(name)]

    pf = spans("powerflow.solve")
    iters = [s.note["iterations"] for s in pf if s.note]
    opf = spans("opf.solve")
    evals = [s.note["evals"] for s in opf]
    failed_evals = sum(s.note["evals"] for s in opf
                       if s.note["status"] != "optimal")
    opf_s = sum(s.duration for s in opf)
    builds = [s.note for s in spans("scenarios.build")]
    rows = sum(b["rows"] for b in builds)
    m = {
        "powerflow.solve.calls": len(pf),
        "powerflow.solve_ms.p50": summary.percentile(
            durations("powerflow.solve", 1e3), 50),
        "powerflow.solve_ms.tail": summary.tail(
            durations("powerflow.solve", 1e3)),
        "powerflow.newton_iters.mean": summary.mean(iters),
        "powerflow.check_limits_ms.p50": summary.percentile(
            durations("powerflow.check_limits", 1e3), 50),
        "opf.solve.calls": len(opf),
        "opf.solve_ms.p50": summary.percentile(durations("opf.solve", 1e3), 50),
        "opf.solve_ms.tail": summary.tail(durations("opf.solve", 1e3)),
        "opf.evals.mean": summary.mean(evals),
        "opf.evals.total": sum(evals),
        "opf.us_per_eval": opf_s * 1e6 / sum(evals) if sum(evals) else 0.0,
        "opf.optimal_share": (sum(s.note["status"] == "optimal" for s in opf)
                              / len(opf) if opf else 0.0),
        "opf.evals_in_failed_share": (failed_evals / sum(evals)
                                      if sum(evals) else 0.0),
        "scenarios.build.calls": len(builds),
        "scenarios.build_s.p50": summary.percentile(
            durations("scenarios.build", 1.0), 50),
        "scenarios.self_s": sum(self_times("scenarios.build", 1.0)),
        "scenarios.levels_us": summary.percentile(
            durations("scenarios.levels", 1e6), 50),
        "scenarios.distinct_row_share": (sum(b["distinct"] for b in builds)
                                         / rows if rows else 0.0),
        "realtime.select_us.p50": summary.percentile(
            durations("realtime.select", 1e6), 50),
        "realtime.apply_ms.p50": summary.percentile(
            durations("realtime.apply", 1e3), 50),
        "realtime.apply_self_ms.p50": summary.percentile(
            self_times("realtime.apply", 1e3), 50),
        "realtime.run_day_self_s": sum(self_times("realtime.run_day", 1.0)),
    }
    return {k: float(v) for k, v in m.items()}
