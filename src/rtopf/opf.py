"""Single-scenario OPF: choose wind-curtailment factors maximizing revenue.

The objective is wind revenue minus the costs of grid losses and of active
and reactive energy imported at the slack bus, subject to the AC power-flow
equations, slack/voltage/feeder limits, and box bounds on the curtailment
factors. With only a handful of decision variables (one per wind station),
the solver is a seeded grid search with a pattern-search polish, certified
against a brute-force grid oracle.

The receding-horizon controller solves tens of thousands of these problems
per simulated day, so the evaluator batches candidate points through the
batched Z-bus power flow of ``rtopf.powerflow``.
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
                        initial_state, injections, limit_margins, objective,
                        slack_power, solve_power_flow, zbus_gauss)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_FAILURE = "solver_failure"


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
    tol_obj: float = 1e-9      # minimum accepted search-step improvement
    tol_cons: float = 1e-6     # constraint-violation tolerance
    max_evals: int = 20000
    coarse_grid: int = 7       # grid points per station for seeding
    polish_step: float = 0.05  # initial pattern-search step
    polish_step_min: float = 1e-6
    pf_tol: float = DEFAULT_TOL
    pf_max_iter: int = 30


# tuned-down options for the receding-horizon loop; same algorithm, coarser
# seeding grid and polish resolution
FAST_OPTS = OPFOptions(tol_obj=1e-7, coarse_grid=2,
                       polish_step=0.25, polish_step_min=1e-2,
                       max_evals=4000)


class _Eval(NamedTuple):
    """Result of one objective evaluation."""
    score: float  # the objective where feasible, -inf otherwise
    p_s: float    # MW
    feasible: bool
    converged: bool


_FAILED_EVAL = _Eval(-math.inf, math.nan, False, False)


class _Evaluator:
    """Evaluates the objective of one input at beta points.

    All candidate points of a search phase go through one batched power-flow
    solve. Batches warm-start from the last best converged state; the
    evaluation order is deterministic, so results do not depend on worker
    scheduling.
    """

    def __init__(self, net: Network, inp: HorizonInput, opts: OPFOptions):
        self.net = net
        self.inp = inp
        self.opts = opts
        self.demand = InjectionSpec.from_mappings(net, inp.demand_p,
                                                  inp.demand_q)
        self.wind = _wind(net, inp)
        self.evals = 0
        self._warm = None

    def eval_many(self, xs: Sequence[np.ndarray]) -> list[_Eval]:
        k = len(xs)
        self.evals += k
        net, inp, opts = self.net, self.inp, self.opts
        beta = np.asarray(xs, dtype=float).reshape(k, -1)
        p, q, injected = injections(net, self.demand, self.wind, beta)
        v, th = initial_state(net, k, self._warm)
        ok, _, _, _ = zbus_gauss(net.Y, p / net.base_mva, q / net.base_mva,
                                 v, th, opts.pf_tol, opts.pf_max_iter, net.Z)
        p_s, q_s, p_loss = slack_power(net, net.Y, p, v, th)
        _, margins = limit_margins(net, p_s, q_s, v,
                                   branch_flows(net, v, th))
        feas = ok & (margins >= -opts.tol_cons).all(axis=1)
        f = objective(inp.price_p, inp.price_q, injected, p_loss, p_s,
                      q_s)[0]
        score = np.where(feas, f, -math.inf)
        if ok.any():
            # the next batch starts from the best feasible point, or else
            # from the first converged one (argmax takes the first maximum)
            best = int(np.argmax(score if feas.any() else ok))
            self._warm = (v[best].copy(), th[best].copy())
        return [_Eval(float(score[i]), float(p_s[i]), bool(feas[i]), True)
                if ok[i] else _FAILED_EVAL for i in range(k)]

    def __call__(self, x: np.ndarray) -> _Eval:
        return self.eval_many([x])[0]

    def full_solution(self, beta: np.ndarray, status: str,
                      message: str = "") -> OPFSolution:
        """Re-solve at beta through the public path and attach the report."""
        bd = _breakdown(self.net, self.inp, beta, self.opts.tol_cons,
                        tol=self.opts.pf_tol, max_iter=self.opts.pf_max_iter,
                        start=self._warm)
        pf = bd.power_flow
        return OPFSolution(
            beta=tuple(float(b) for b in beta),
            p_s=pf.p_s, q_s=pf.q_s, p_loss=pf.p_loss,
            f=bd.f, f1=bd.f1, f2=bd.f2, f3=bd.f3, f4=bd.f4,
            status=status, power_flow=pf, report=bd.report,
            evals=self.evals, message=message)


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


def _breakdown(net: Network, inp: HorizonInput, beta, tol_cons: float,
               **pf_args) -> ObjectiveBreakdown:
    """Power flow, objective terms and limit report at one beta."""
    demand = InjectionSpec.from_mappings(net, inp.demand_p, inp.demand_q)
    p, q, injected = injections(net, demand, _wind(net, inp), [beta])
    pf = solve_power_flow(net, InjectionSpec(p[0], q[0]), **pf_args)
    terms = objective(inp.price_p, inp.price_q, float(injected[0]),
                      pf.p_loss, pf.p_s, pf.q_s)  # f, f1, f2, f3, f4
    return ObjectiveBreakdown(*terms, power_flow=pf,
                              report=check_limits(net, pf, tol=tol_cons))


def evaluate_objective(net: Network, inp: HorizonInput,
                       beta: Sequence[float],
                       tol_cons: float = 1e-6) -> ObjectiveBreakdown:
    """Objective decomposition and constraint report at a fixed beta."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta < -1e-12) or np.any(beta > 1 + 1e-12):
        raise ValueError("beta must lie in [0, 1] per station")
    return _breakdown(net, inp, beta, tol_cons)


def _failed(beta_len: int, status: str, evals: int,
            message: str) -> OPFSolution:
    nan = float("nan")
    return OPFSolution(beta=(nan,) * beta_len, p_s=nan, q_s=nan, p_loss=nan,
                       f=nan, f1=nan, f2=nan, f3=nan, f4=nan,
                       status=status, evals=evals, message=message)


def _rebalanced(ev: _Evaluator, xn: np.ndarray, p_s_short: float,
                exclude: int | None = None):
    """Retreat the wind injection by ``p_s_short`` MW so the slack balance
    moves back to zero, taking the power from the station with the most
    curtailable output. Returns the corrected point or None."""
    need = p_s_short + 1e-9
    room = ev.wind * xn
    if exclude is not None:
        room = room.copy()
        room[exclude] = -1.0
    k = int(np.argmax(room))
    if room[k] <= 0 or need > room[k]:
        return None
    out = xn.copy()
    out[k] -= need / ev.wind[k]
    return out


def _moves(n: int, wind: np.ndarray):
    """Polish directions: coordinate steps plus wind-weighted exchange pairs.

    An exchange raises one station and lowers another in proportion to their
    available wind, which holds the total injection (and hence the slack
    balance) roughly constant -- the direction needed to slide along the
    active-power boundary of the feasible set.
    """
    out = [(i, 1.0, None, 0.0) for i in range(n)]
    out += [(i, -1.0, None, 0.0) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and wind[i] > 0 and wind[j] > 0:
                out.append((i, 1.0, j, -wind[i] / wind[j]))
    return out


def _compass_polish(ev: _Evaluator, x: np.ndarray, fx: float,
                    opts: OPFOptions):
    """Pattern search over coordinate and exchange moves, batch-evaluated.

    Candidates that overshoot the reverse-flow boundary (slack active power
    slightly negative) are pulled back onto it by an exact injection
    retreat; this is what lets the search slide along the binding surface
    instead of stalling against the infeasibility wall.
    """
    moves = _moves(x.size, ev.wind)
    step = opts.polish_step
    while step >= opts.polish_step_min:
        if ev.evals >= opts.max_evals:
            return x, fx, False
        cands = []
        for i, di, j, dj in moves:
            xn = x.copy()
            xn[i] = min(1.0, max(0.0, x[i] + di * step))
            if j is not None:
                xn[j] = min(1.0, max(0.0, x[j] + dj * step))
            if not np.array_equal(xn, x):
                cands.append(xn)
        if not cands:
            step /= 2.0
            continue
        results = ev.eval_many(cands)
        extra = []
        for xc, e in zip(cands, results):
            if not math.isfinite(e.score) and e.converged and e.p_s < 0:
                xr = _rebalanced(ev, xc, -e.p_s)
                if xr is not None:
                    extra.append(xr)
        if extra:
            cands += extra
            results += ev.eval_many(extra)
        best = None
        for xc, e in zip(cands, results):
            if e.score > fx + opts.tol_obj and (best is None
                                                or e.score > best[1]):
                best = (xc, e.score)
        if best is not None:
            x, fx = best
        else:
            step /= 2.0
    return x, fx, True


def _push_to_surface(ev: _Evaluator, x: np.ndarray, fx: float,
                     opts: OPFOptions):
    """Advance the wind injection by the slack active-power surplus so the
    point lands on the reverse-flow boundary, where the objective is
    maximal in the high-wind regime. The surplus goes to the station with
    the most headroom; a couple of iterations absorb the loss feedback."""
    for _ in range(3):
        e = ev(x)
        if not e.feasible or e.p_s <= 10 * opts.tol_cons:
            break
        head = (1.0 - x) * ev.wind
        k = int(np.argmax(head))
        if head[k] <= 0:
            break
        xn = x.copy()
        xn[k] = min(1.0, xn[k] + min(e.p_s, head[k]) / ev.wind[k])
        en = ev(xn)
        if not math.isfinite(en.score) and en.converged and en.p_s < 0:
            xr = _rebalanced(ev, xn, -en.p_s)
            if xr is None:
                break
            xn = xr
            en = ev(xn)
        if en.score <= fx:
            break
        x, fx = xn, en.score
    return x, fx


def _snap_to_bounds(ev: _Evaluator, x: np.ndarray, fx: float,
                    opts: OPFOptions):
    """Deterministic tie-break: a station sitting within 1% of fully
    uncurtailed is pushed onto the bound (rebalancing the slack through the
    other stations) whenever that costs nothing measurable. The objective
    is flat along the binding surface, so the polished point can otherwise
    end arbitrarily close to, but not at, beta = 1. The tie margin absorbs
    the objective credit of a point hugging the constraint tolerance."""
    tie = 1e-5 * max(1.0, abs(fx))
    for i in range(x.size):
        if x[i] == 1.0 or x[i] < 0.99 or ev.wind[i] <= 0:
            continue
        xn = x.copy()
        xn[i] = 1.0
        e = ev(xn)
        if not math.isfinite(e.score) and e.converged and e.p_s < 0:
            xr = _rebalanced(ev, xn, -e.p_s, exclude=i)
            if xr is None:
                continue
            xn = xr
            e = ev(xn)
        if math.isfinite(e.score) and e.score >= fx - tie and xn[i] == 1.0:
            x, fx = xn, max(fx, e.score)
    return x, fx


def solve_opf(net: Network, inp: HorizonInput,
              opts: OPFOptions | None = None) -> OPFSolution:
    """Optimal curtailment factors for one scenario.

    status 'optimal': all constraints hold within tol_cons and the
    objective is certified against oracle_opf in the test suite.
    status 'infeasible': no point of a dense per-station grid admits a
    violation-free converged power flow.
    status 'solver_failure': the evaluation budget ran out before the
    search converged; the best point found so far is attached.
    """
    opts = opts or OPFOptions()
    inp = inp.validated(net)
    ev = _Evaluator(net, inp, opts)
    nst = len(net.stations)

    if nst == 0:
        if ev(np.zeros(0)).feasible:
            return ev.full_solution(np.zeros(0), STATUS_OPTIMAL)
        return _failed(0, STATUS_INFEASIBLE, ev.evals,
                       "demand-only power flow violates limits")

    ones = np.ones(nst)
    # degenerate flat objectives: deterministic beta = (1, ..., 1)
    degenerate = (not np.any(ev.wind > 0)) or (
        inp.price_p == 0 and inp.price_q == 0)
    if degenerate:
        if ev(ones).feasible:
            return ev.full_solution(ones, STATUS_OPTIMAL)
        if not np.any(ev.wind > 0):
            return _failed(nst, STATUS_INFEASIBLE, ev.evals,
                           "infeasible at every beta (zero wind)")

    # coarse seeding grid, batch-evaluated, plus the fully-uncurtailed point
    # pulled back onto the reverse-flow boundary (the usual optimum basin)
    axis = np.linspace(0.0, 1.0, opts.coarse_grid)
    grid = [np.array(c) for c in itertools.product(axis, repeat=nst)]
    results = ev.eval_many(grid)
    best_x, best_f = None, -math.inf
    for xc, e in zip(grid, results):
        if e.score > best_f:
            best_x, best_f = xc, e.score
    e_ones = results[-1]  # grid ends at (1, ..., 1)
    if not math.isfinite(e_ones.score) and e_ones.converged and e_ones.p_s < 0:
        xr = _rebalanced(ev, ones, -e_ones.p_s)
        if xr is not None:
            er = ev(xr)
            if er.score > best_f:
                best_x, best_f = xr, er.score

    if best_x is None or not math.isfinite(best_f):
        # dense certification scan, early exit on the first feasible point
        dense = np.linspace(0.0, 1.0, 101)
        found = None
        for chunk in itertools.zip_longest(
                *[iter(itertools.product(dense, repeat=nst))] * 101):
            pts = [np.array(c) for c in chunk if c is not None]
            for xc, e in zip(pts, ev.eval_many(pts)):
                if math.isfinite(e.score):
                    found = (xc, e.score)
                    break
            if found:
                break
        if found is None:
            return _failed(nst, STATUS_INFEASIBLE, ev.evals,
                           "no feasible point on the 101-per-station grid")
        best_x, best_f = found

    best_x, best_f, converged = _compass_polish(ev, best_x, best_f, opts)
    best_x, best_f = _push_to_surface(ev, best_x, best_f, opts)
    best_x, best_f = _snap_to_bounds(ev, best_x, best_f, opts)

    if not converged:
        return ev.full_solution(best_x, STATUS_FAILURE,
                                f"evaluation budget exhausted before the "
                                f"polish converged ({ev.evals} evals)")
    return ev.full_solution(best_x, STATUS_OPTIMAL)


def oracle_opf(net: Network, inp: HorizonInput,
               grid_points: int = 21,
               opts: OPFOptions | None = None) -> OPFSolution:
    """Brute-force grid search over beta with five local refinement passes.

    Independent verification path for solve_opf: evaluates the objective on
    a full per-station grid, keeps the best violation-free point, then
    repeatedly shrinks the grid tenfold around the incumbent.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    opts = opts or OPFOptions()
    inp = inp.validated(net)
    nst = len(net.stations)
    if nst > 3:
        raise ValueError("oracle grid is only tractable for <= 3 stations")
    ev = _Evaluator(net, inp, opts)
    if nst == 0:
        if ev(np.zeros(0)).feasible:
            return ev.full_solution(np.zeros(0), STATUS_OPTIMAL)
        return _failed(0, STATUS_INFEASIBLE, ev.evals,
                       "demand-only power flow violates limits")

    lo = np.zeros(nst)
    hi = np.ones(nst)
    best_x, best_f = None, -math.inf
    for _pass in range(6):  # initial grid + 5 refinements
        axes = [np.linspace(lo[i], hi[i], grid_points) for i in range(nst)]
        pts = [np.array(c) for c in itertools.product(*axes)]
        for xc, e in zip(pts, ev.eval_many(pts)):
            if e.score > best_f:
                best_x, best_f = xc, e.score
        if best_x is None:
            return _failed(nst, STATUS_INFEASIBLE, ev.evals,
                           "every grid point violates constraints "
                           "or fails to converge")
        half = (hi - lo) / 10.0
        lo = np.clip(best_x - half, 0.0, 1.0)
        hi = np.clip(best_x + half, 0.0, 1.0)
    return ev.full_solution(best_x, STATUS_OPTIMAL)
