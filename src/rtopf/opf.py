"""Single-scenario OPF: choose wind-curtailment factors maximizing revenue.

The objective is wind revenue minus the costs of grid losses and of active
and reactive energy imported at the slack bus, subject to the AC power-flow
equations, slack/voltage/feeder limits, and box bounds on the curtailment
factors. With only a handful of decision variables (one per wind station),
the solver is a seeded pattern search, certified against a brute-force grid
oracle.

The search has one setting, the module constants below; ``OPFOptions``
holds only the evaluation budget. Each polish round is one complete poll:
every station raised and every station lowered, at every step from
POLISH_STEP down to POLISH_STEP_MIN, goes into one batched evaluation, and
the search stops when no move at any step improves the objective. Whenever
the wind exceeds demand plus losses the optimum lies on the reverse-flow
boundary p_s = 0. One landing rule, ``_land``, evaluates every seed and
poll point: the kernel lands it on the boundary inside the power-flow
iteration, lowering the beta of the station with the most wind to give up
(other than the one its move raised) until the slack's active power is zero
(``zbus_iterate``'s pin). So an exporting seed corner lands on the
boundary, and a move that overshoots it becomes a slide along it, in the
call that evaluates them. Only a point whose station runs out of room takes
one more call, from its own state, through the next station with room.

The receding-horizon controller solves tens of thousands of these problems
per simulated day, so the evaluator batches candidate points through the
batched Z-bus power flow of ``rtopf.powerflow``, on complex bus voltages.
Each evaluation keeps what its batch computed (state, slack power, flows,
limit margins, objective terms), and a reported solution is assembled from
the batch row that scored its point, so no point is solved twice. A row
that reuses an earlier row's optimum (``solve_opf``'s incumbent) is
certified by one mismatch check of that row's state at its own injection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .network import Network
from .powerflow import (DEFAULT_TOL, ConstraintReport, InjectionSpec,
                        PowerFlowSolution, branch_flows, check_limits,
                        evaluate_point, injections, limit_margins, objective,
                        power_mismatch, slack_power, start_state,
                        zbus_iterate)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_FAILURE = "solver_failure"

TOL_OBJ = 1e-7          # minimum accepted search-step improvement
TOL_CONS = 1e-6         # constraint-violation tolerance (MW, Mvar, pu, MVA)
COARSE_GRID = 2         # seeding grid points per station
POLISH_STEP = 0.25      # largest pattern-search step
POLISH_STEP_MIN = 1e-2  # the poll halves the step down to this
PF_TOL = DEFAULT_TOL
PF_MAX_ITER = 30
SURFACE_TOL = 1e-7      # MW; |p_s| of a point on the reverse-flow boundary


@dataclass(frozen=True)
class HorizonInput:
    """Forecast data and prices for one prediction horizon.

    ``demand_p`` / ``demand_q`` map demand-bus id to MW / Mvar;
    ``wind_available`` maps station bus id to available MW; prices are per
    MW / Mvar per horizon.
    """
    demand_p: Mapping[int, float]
    demand_q: Mapping[int, float]
    wind_available: Mapping[int, float]
    price_p: float
    price_q: float

    def validated(self, net: Network) -> "HorizonInput":
        for bus, val in itertools.chain(self.demand_p.items(),
                                        self.demand_q.items()):
            net.index_of(int(bus))
            if not math.isfinite(val):
                raise ValueError(f"non-finite demand at bus {bus}: {val}")
            if val < 0:
                raise ValueError(f"negative demand at bus {bus}")
        rated = {s.bus: s.rated_power for s in net.stations}
        for bus, val in self.wind_available.items():
            if int(bus) not in rated:
                raise ValueError(f"no wind station at bus {bus}")
            if not (0 <= val <= rated[int(bus)] + 1e-9):
                raise ValueError(
                    f"wind at bus {bus} outside [0, rated]: {val}")
        if not all(0 <= c < math.inf for c in (self.price_p, self.price_q)):
            raise ValueError("prices must be finite and non-negative")
        return self

    def with_wind(self, wind_by_station: Mapping[int, float]) -> "HorizonInput":
        return replace(self, wind_available=dict(wind_by_station))


@dataclass(frozen=True)
class OPFSolution:
    beta: tuple[float, ...]  # per station, in net.stations order
    p_s: float
    q_s: float
    p_loss: float
    f: float
    f1: float
    f2: float
    f3: float
    f4: float
    status: str
    power_flow: PowerFlowSolution | None = None
    report: ConstraintReport | None = None
    evals: int = 0
    message: str = ""


@dataclass(frozen=True)
class OPFOptions:
    max_evals: int = 4000  # evaluation budget of one solve


# the options of the receding-horizon loop, kept as a name: the search has
# one setting
FAST_OPTS = OPFOptions()


class _Batch(NamedTuple):
    """What one kernel call computed, each a per-case (K, ...) array."""
    state: np.ndarray       # complex bus voltages (pu)
    p_s: np.ndarray         # MW
    q_s: np.ndarray         # Mvar
    p_loss: np.ndarray      # MW
    flows: np.ndarray       # MVA per branch
    values: np.ndarray      # every constraint, ``limit_margins`` order
    margins: np.ndarray
    terms: tuple            # f, f1, f2, f3, f4
    iterations: np.ndarray
    residual: np.ndarray    # pu


class _Eval(NamedTuple):
    """Result of one objective evaluation."""
    score: float  # the objective where feasible, -inf otherwise
    p_s: float    # MW
    feasible: bool
    converged: bool
    batch: _Batch | None = None  # the call that evaluated it, if converged
    row: int = -1                # and its case in that call

    @property
    def state(self) -> np.ndarray:
        """The converged complex bus voltages (pu)."""
        return self.batch.state[self.row]


_FAILED_EVAL = _Eval(-math.inf, math.nan, False, False)


def _frozen(a) -> np.ndarray:
    """A read-only copy: a reported row owns its arrays, and a reused row
    shares its incumbent's."""
    a = np.array(a)
    a.flags.writeable = False
    return a


class _Evaluator:
    """Evaluates the objective of one input at beta points.

    All candidate points of a search round go through one batched power-flow
    solve. Batches warm-start from the last best converged state, kept as
    complex bus voltages; the evaluation order is deterministic, so results
    do not depend on worker scheduling. Each evaluation keeps its call's
    results, from which ``solution`` reports the point.
    """

    def __init__(self, net: Network, inp: HorizonInput):
        self.net = net
        self.inp = inp
        self.demand = InjectionSpec.from_mappings(net, inp.demand_p,
                                                  inp.demand_q)
        self.wind = _wind(net, inp)
        self._q_pu = -self.demand.q_mvar / net.base_mva
        self.evals = 0
        self._warm = start_state(net)[0]

    def injected(self, beta: np.ndarray):
        """``injections`` at (K, stations) betas: the active injections
        (MW), the complex injections (pu) and the wind injected per case."""
        p, _, injected = injections(self.net, self.demand, self.wind, beta)
        return p, p / self.net.base_mva + 1j * self._q_pu, injected

    def eval_many(self, xs: Sequence[np.ndarray], slide=None,
                  start=None) -> list[tuple[np.ndarray, _Eval]]:
        """Evaluate K points in one kernel call; returns (beta, evaluation)
        per point. ``slide`` optionally names per point a station (-1 for
        none) that the kernel slides down onto p_s = 0, so the returned
        beta may be lower than the point in that station. ``start`` gives
        (K, n) complex start states instead of the shared warm state."""
        k = len(xs)
        self.evals += k
        net, inp = self.net, self.inp
        beta = np.array(xs, dtype=float).reshape(k, -1)
        p, s_pu, injected = self.injected(beta)
        vc = (np.repeat(self._warm[None, :], k, axis=0) if start is None
              else np.array(start))
        pin = None
        if slide is not None:
            # an unpinned point (-1) names the last station, which the
            # kernel leaves alone (bus 0)
            rows = np.arange(k)
            b = beta[rows, slide]
            pin = (np.where(slide >= 0, net.station_index[slide], 0),
                   self.wind[slide] / net.base_mva, b,
                   SURFACE_TOL / net.base_mva)
        ok, iterations, residual = zbus_iterate(
            net.Y, s_pu, vc, PF_TOL, PF_MAX_ITER, net.Z, pin=pin)
        if pin is not None:
            dw = (b - beta[rows, slide]) * self.wind[slide]
            beta[rows, slide] = b
            p[rows, net.station_index[slide]] += dw
            injected += dw
        p_s, q_s, p_loss = slack_power(net, net.Y, p, vc)
        flows = branch_flows(net, vc)
        values, margins = limit_margins(net, p_s, q_s, np.abs(vc), flows)
        feas = ok & (margins >= -TOL_CONS).all(axis=1)
        terms = objective(inp.price_p, inp.price_q, injected, p_loss, p_s,
                          q_s)
        score = np.where(feas, terms[0], -math.inf)
        if ok.any():
            # the next batch starts from the best feasible point, or else
            # from the first converged one (argmax takes the first maximum)
            self._warm = vc[int(np.argmax(score if feas.any() else ok))]
        batch = _Batch(vc, p_s, q_s, p_loss, flows, values, margins, terms,
                       iterations, residual)
        return [(beta[i], _Eval(sc, ps, fe, True, batch, i)
                 if conv else _FAILED_EVAL)
                for i, (sc, ps, fe, conv) in enumerate(zip(
                    score.tolist(), p_s.tolist(), feas.tolist(),
                    ok.tolist()))]

    def __call__(self, x: np.ndarray) -> _Eval:
        return self.eval_many([x])[0][1]

    def solution(self, beta: np.ndarray, e: _Eval, status: str,
                 message: str = "") -> OPFSolution:
        """The solution at beta, as the evaluation ``e`` computed it in its
        batch: nothing is solved again. Its arrays are read-only copies."""
        b, i = e.batch, e.row
        pf = PowerFlowSolution(
            v=_frozen(np.abs(b.state[i])),
            theta=_frozen(np.angle(b.state[i])),
            p_s=float(b.p_s[i]), q_s=float(b.q_s[i]),
            p_loss=float(b.p_loss[i]), flows=_frozen(b.flows[i]),
            iterations=int(b.iterations[i]),
            max_residual=float(b.residual[i]))
        names, lower, upper = self.net.limit_bounds
        report = ConstraintReport(names=names, values=_frozen(b.values[i]),
                                  lower=lower, upper=upper,
                                  margins=_frozen(b.margins[i]), tol=TOL_CONS)
        f, f1, f2, f3, f4 = (float(t[i]) for t in b.terms)
        return OPFSolution(
            beta=tuple(float(x) for x in beta), p_s=pf.p_s, q_s=pf.q_s,
            p_loss=pf.p_loss, f=f, f1=f1, f2=f2, f3=f3, f4=f4, status=status,
            power_flow=pf, report=report, evals=self.evals, message=message)


def _wind(net: Network, inp: HorizonInput) -> np.ndarray:
    return np.array([inp.wind_available.get(s.bus, 0.0)
                     for s in net.stations])


@dataclass(frozen=True)
class ObjectiveBreakdown:
    f: float
    f1: float
    f2: float
    f3: float
    f4: float
    report: ConstraintReport
    power_flow: PowerFlowSolution


def evaluate_objective(net: Network, inp: HorizonInput,
                       beta: Sequence[float]) -> ObjectiveBreakdown:
    """Objective decomposition and constraint report at a fixed beta."""
    beta = np.asarray(beta, dtype=float)
    # written so that NaN fails it too
    if not np.all((beta >= -1e-12) & (beta <= 1 + 1e-12)):
        raise ValueError("beta must lie in [0, 1] per station")
    demand = InjectionSpec.from_mappings(net, inp.demand_p, inp.demand_q)
    pf, terms = evaluate_point(net, demand, _wind(net, inp), beta,
                               inp.price_p, inp.price_q)
    return ObjectiveBreakdown(*terms, power_flow=pf,
                              report=check_limits(net, pf, tol=TOL_CONS))


def _failed(beta_len: int, status: str, evals: int,
            message: str) -> OPFSolution:
    nan = float("nan")
    return OPFSolution(beta=(nan,) * beta_len, p_s=nan, q_s=nan, p_loss=nan,
                       f=nan, f1=nan, f2=nan, f3=nan, f4=nan,
                       status=status, evals=evals, message=message)


def _slides(wind: np.ndarray, xs, exclude: np.ndarray) -> np.ndarray:
    """Per point, the station with the most wind to give up (wind times
    beta), leaving out the station ``exclude`` names (-1 for none); -1
    where no station has any."""
    room = wind * np.asarray(xs, dtype=float).reshape(len(exclude), wind.size)
    rows = np.flatnonzero(exclude >= 0)
    room[rows, exclude[rows]] = 0.0
    k = np.argmax(room, axis=1)
    return np.where(room[np.arange(k.size), k] > 0, k, -1)


def _land(ev: _Evaluator, xs,
          raised: np.ndarray) -> list[tuple[np.ndarray, _Eval]]:
    """Evaluate search points, each landing on the reverse-flow boundary
    p_s = 0 if it exports; the one way the search evaluates a point.

    Each point slides down through the station ``_slides`` picks: the one
    with the most wind to give up, other than the station its move raised
    (``raised``, -1 for none). All points go through one pinned kernel
    call. A point whose station runs out of room while the grid still
    exports hands over: it slides on from its own state through the next
    station with room, one call for all such points, until it lands; a
    point with no station left is dropped. Returns (beta, evaluation) for
    every point that does not export, in evaluation order.
    """
    out, start = [], None
    slide = _slides(ev.wind, xs, raised)
    while len(xs):
        beyond = []
        for (x, e), i, k in zip(ev.eval_many(xs, slide, start), raised,
                                slide):
            if not e.p_s < -SURFACE_TOL:  # failed points too (p_s is NaN)
                out.append((x, e))
            elif k >= 0 and x[k] == 0:
                beyond.append((x, e, i))
        raised = np.array([i for _, _, i in beyond], dtype=int)
        slide = _slides(ev.wind, [x for x, _, _ in beyond], raised)
        keep = np.flatnonzero(slide >= 0)
        xs = [beyond[j][0] for j in keep]
        start = [beyond[j][1].state for j in keep]
        raised, slide = raised[keep], slide[keep]
    return out


def _poll(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The complete poll from x: each station raised and each lowered, at
    every step POLISH_STEP, POLISH_STEP/2, ... >= POLISH_STEP_MIN, largest
    step first, clipped to the box; duplicates and x itself are left out.
    Returns the points and, per point, the station its move raised (-1 for
    a lowering move).
    """
    n = x.size
    d = np.vstack([np.eye(n), -np.eye(n)])
    raised = np.array([*range(n), *[-1] * n])
    steps = [POLISH_STEP]
    while steps[-1] / 2.0 >= POLISH_STEP_MIN:
        steps.append(steps[-1] / 2.0)
    cands = np.minimum(np.maximum(
        x + np.multiply.outer(steps, d), 0.0), 1.0).reshape(-1, n)
    seen, keep = {tuple(x.tolist())}, []
    for c, key in enumerate(map(tuple, cands.tolist())):
        if key not in seen:
            seen.add(key)
            keep.append(c)
    return cands[keep], np.tile(raised, len(steps))[keep]


def _polish(ev: _Evaluator, x: np.ndarray, e: _Eval, max_evals: int):
    """Pattern search with a complete poll, one batch per round.

    Each round lands every point of ``_poll`` (all steps at once) through
    ``_land``, one kernel call unless a point hands over. A raise that
    would cross the reverse-flow boundary lands on it through a station it
    did not raise, so it slides along the binding surface instead of
    stalling against the infeasibility wall: the landing makes the moves
    along the boundary, and the poll needs none of its own. The search
    moves to the best improver and stops when no move at any step improves
    the score by more than TOL_OBJ.
    Returns the best point, its evaluation, and whether a poll found no
    improvement before the budget ran out.
    """
    while ev.evals < max_evals:
        results = _land(ev, *_poll(x))
        xb, eb = max(results, key=lambda r: r[1].score,
                     default=(x, e))  # the first maximum
        if not eb.score > e.score + TOL_OBJ:
            return x, e, True
        x, e = xb, eb
    return x, e, False


def _reuse(ev: _Evaluator, incumbent) -> OPFSolution | None:
    """The optimum of ``incumbent`` = (input A, solution A) as the optimum
    of ``ev``'s input B, or None when A does not qualify.

    f and every constraint depend on beta only through the injection
    P = beta * w, and a row's wind w only sets the box 0 <= P <= w. So when
    A is optimal, has B's demand and prices, A's box contains B's
    (w_B <= w_A) and P_A lies in B's box (P_A <= w_B), P_A is optimal for
    B too. B's beta keeps beta_A where w_B = w_A, and where w_B = 0 (there
    P_A = 0, so beta_A = 0 unless w_A = 0 too); elsewhere it is
    P_A / w_B. A's state must solve B's own injection: its largest P or Q
    mismatch there is at most PF_TOL, the test with which a power flow
    started from that state would stop at once. B then keeps A's state,
    slack power, flows and constraint report (which must be ok), reports
    0 iterations and that mismatch, and takes its losses and objective
    terms from its own injection. Nothing is solved.
    """
    inp_a, sol_a = incumbent
    inp = ev.inp
    if (sol_a.status != STATUS_OPTIMAL or not sol_a.report.ok
            or (inp.demand_p, inp.demand_q, inp.price_p, inp.price_q)
            != (inp_a.demand_p, inp_a.demand_q, inp_a.price_p,
                inp_a.price_q)):
        return None
    w_a, w_b = _wind(ev.net, inp_a), ev.wind
    beta_a = np.array(sol_a.beta)
    p_a = beta_a * w_a
    if not (np.all(w_b <= w_a) and np.all(p_a <= w_b)):
        return None
    keep = (w_b == w_a) | (w_b == 0)
    beta = np.where(keep, beta_a, np.clip(
        p_a / np.where(keep, 1.0, w_b), 0.0, 1.0))
    pf = sol_a.power_flow
    p, s_pu, injected = ev.injected(beta[None, :])
    _, res = power_mismatch(ev.net.Y[1:], s_pu[:, 1:],
                            start_state(ev.net, (pf.v, pf.theta)))
    if not res[0] <= PF_TOL:
        return None
    # the slack covers demand minus wind plus losses (``slack_power``)
    p_loss = pf.p_s + float(p[0, 1:].sum())
    f, f1, f2, f3, f4 = objective(inp.price_p, inp.price_q,
                                  float(injected[0]), p_loss, pf.p_s, pf.q_s)
    return OPFSolution(
        beta=tuple(float(x) for x in beta), p_s=pf.p_s, q_s=pf.q_s,
        p_loss=p_loss, f=f, f1=f1, f2=f2, f3=f3, f4=f4,
        status=STATUS_OPTIMAL,
        power_flow=replace(pf, iterations=0, max_residual=float(res[0])),
        report=sol_a.report, evals=0,
        message="optimum reused from an earlier row")


def solve_opf(net: Network, inp: HorizonInput,
              opts: OPFOptions | None = None,
              incumbent: tuple[HorizonInput, OPFSolution] | None = None
              ) -> OPFSolution:
    """Optimal curtailment factors for one scenario.

    status 'optimal': all constraints hold within TOL_CONS and the
    objective is certified against oracle_opf in the test suite.
    status 'infeasible': no point of a dense per-station grid admits a
    violation-free converged power flow.
    status 'solver_failure': the evaluation budget ran out before the
    search converged; the best point found so far is attached.

    ``incumbent`` optionally gives an earlier row of the same horizon as
    (its input, its solution). When its optimum is provably this row's
    (``_reuse``), one mismatch check of its state at this row's injection
    replaces the search: the solution is 'optimal' with ``evals`` 0 and
    says so in ``message``.
    Otherwise the incumbent is ignored and the search runs as without it.
    """
    opts = opts or OPFOptions()
    inp = inp.validated(net)
    ev = _Evaluator(net, inp)
    nst = len(net.stations)
    ones = np.ones(nst)
    # degenerate flat objectives (no stations among them): beta = (1, ..., 1)
    degenerate = (not np.any(ev.wind > 0)) or (
        inp.price_p == 0 and inp.price_q == 0)
    if incumbent is not None and not degenerate:
        reused = _reuse(ev, incumbent)
        if reused is not None:
            return reused
    if degenerate:
        e = ev(ones)
        if e.feasible:
            return ev.solution(ones, e, STATUS_OPTIMAL)
        if not np.any(ev.wind > 0):
            return _failed(nst, STATUS_INFEASIBLE, ev.evals,
                           "infeasible at every beta (zero wind)")

    # coarse seeding grid, landed as poll points are: a corner that exports
    # slides onto the reverse-flow boundary (the fully-uncurtailed corner
    # through the windiest station: the usual optimum basin)
    axis = np.linspace(0.0, 1.0, COARSE_GRID)
    grid = [np.array(c) for c in itertools.product(axis, repeat=nst)]
    best_x, best_e = max(_land(ev, grid, np.full(len(grid), -1)),
                         key=lambda s: s[1].score,
                         default=(ones, _FAILED_EVAL))

    if not math.isfinite(best_e.score):
        # dense certification scan, early exit on the first feasible point
        dense = np.linspace(0.0, 1.0, 101)
        found = None
        for chunk in itertools.zip_longest(
                *[iter(itertools.product(dense, repeat=nst))] * 101):
            pts = [np.array(c) for c in chunk if c is not None]
            for xc, e in ev.eval_many(pts):
                if math.isfinite(e.score):
                    found = (xc, e)
                    break
            if found:
                break
        if found is None:
            return _failed(nst, STATUS_INFEASIBLE, ev.evals,
                           "no feasible point on the 101-per-station grid")
        best_x, best_e = found

    best_x, best_e, converged = _polish(ev, best_x, best_e, opts.max_evals)
    if not converged:
        return ev.solution(best_x, best_e, STATUS_FAILURE,
                           f"evaluation budget exhausted before the "
                           f"polish converged ({ev.evals} evals)")
    return ev.solution(best_x, best_e, STATUS_OPTIMAL)


def oracle_opf(net: Network, inp: HorizonInput,
               grid_points: int = 21) -> OPFSolution:
    """Brute-force grid search over beta with five local refinement passes.

    Independent verification path for solve_opf: evaluates the objective on
    a full per-station grid, keeps the best violation-free point, then
    repeatedly shrinks the grid tenfold around the incumbent.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    inp = inp.validated(net)
    nst = len(net.stations)
    if nst > 3:
        raise ValueError("oracle grid is only tractable for <= 3 stations")
    ev = _Evaluator(net, inp)
    lo = np.zeros(nst)
    hi = np.ones(nst)
    best_x, best_e = None, _FAILED_EVAL
    for _pass in range(6):  # initial grid + 5 refinements
        axes = [np.linspace(lo[i], hi[i], grid_points) for i in range(nst)]
        pts = [np.array(c) for c in itertools.product(*axes)]
        for xc, e in ev.eval_many(pts):
            if e.score > best_e.score:
                best_x, best_e = xc, e
        if best_x is None:
            return _failed(nst, STATUS_INFEASIBLE, ev.evals,
                           "every grid point violates constraints "
                           "or fails to converge")
        half = (hi - lo) / 10.0
        lo = np.clip(best_x - half, 0.0, 1.0)
        hi = np.clip(best_x + half, 0.0, 1.0)
    return ev.solution(best_x, best_e, STATUS_OPTIMAL)
