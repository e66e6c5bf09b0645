"""AC power flow (implicit Z-bus iteration), the objective and the
operating-limit checks: the evaluation code of the OPF and of the realized
updates. The state is the complex bus voltage throughout. The OPF runs the
iteration in the batched kernel ``zbus_iterate``, on K cases as (K, n)
arrays; ``solve_power_flow`` runs it for one case in its own loop on 1-D
arrays, where the batch bookkeeping would cost more than the products, and
matches the kernel bitwise. Injections, slack power, branch flows and limit
margins take either shape. ``evaluate_point`` runs injections, solve and
objective at one operating point for a demand already converted to bus
order: ``evaluate_objective`` and each realized update. The
OPF reports its rows from its own batches, and checks a reused row's state
with ``power_mismatch``, the kernel's convergence test. The OPF search
also pins cases of the iteration: a pinned case lowers one station's wind
until the slack's active power is zero, so a point lands on the
reverse-flow boundary within its own solve.

The slack bus balances the network: its active/reactive injection and the
total losses come out of the solve. All buses except the slack are PQ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .network import Network, zbus

# pu mismatch. The iteration converges linearly, so a state is about as
# accurate as this bound: at 1e-8 an OPF solution on case41 was reported at
# p_s = -1.001e-6 MW, outside the 1e-6 MW tolerance of the bound p_s >= 0.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50


class PowerFlowError(Exception):
    pass


class NonConvergence(PowerFlowError):
    def __init__(self, iterations: int, final_residual: float):
        self.iterations = iterations
        self.final_residual = final_residual
        super().__init__(
            f"power flow did not converge after {iterations} iterations "
            f"(residual {final_residual:.3e} pu)")


class SingularJacobian(PowerFlowError):
    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"singular Y[1:, 1:] at iteration {iteration}")


@dataclass(frozen=True)
class InjectionSpec:
    """Specified injections at every bus, MW / Mvar (slack entries ignored).

    Positive means injection into the network (generation), negative means
    consumption. Wind stations run at unity power factor, so wind only
    contributes to the active part.
    """
    p_mw: np.ndarray
    q_mvar: np.ndarray

    @staticmethod
    def from_mappings(net: Network, p_by_bus, q_by_bus) -> "InjectionSpec":
        return InjectionSpec(_per_bus(net, p_by_bus), _per_bus(net, q_by_bus))


@dataclass(frozen=True)
class PowerFlowSolution:
    v: np.ndarray        # pu magnitude per bus
    theta: np.ndarray    # rad per bus
    p_s: float           # MW at slack
    q_s: float           # Mvar at slack
    p_loss: float        # MW
    flows: np.ndarray    # MVA per branch, max of the two ends
    iterations: int
    max_residual: float  # pu


def injections(net: Network, demand: InjectionSpec, wind,
               beta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bus injections in MW / Mvar for K curtailment vectors or one.

    ``demand`` is the demand per bus (``InjectionSpec.from_mappings``),
    ``beta`` is (K, stations) or one (stations,) and ``wind`` the available
    MW per station, in ``net.stations`` order. Demand enters negative and
    wind at unity power factor. Returns p and q, each (K, n), and the wind
    injected per case (K,); for one beta, p and q are (n,) and the wind a
    scalar.
    """
    w = np.multiply(beta, wind, dtype=float)
    shape = w.shape[:-1] + demand.p_mw.shape
    p = np.negative(demand.p_mw, out=np.empty(shape))
    # the transposes put the bus axis first in either shape; station buses
    # are distinct
    p.T[net.station_index] += w.T
    q = np.negative(demand.q_mvar, out=np.empty(shape))
    return p, q, w.sum(axis=-1)


def _per_bus(net: Network, by_bus: Mapping[int, float]) -> np.ndarray:
    """Values given per bus id, summed into a vector in bus order."""
    index = net._bus_index
    out = [0.0] * net.n_buses
    for bus, val in by_bus.items():
        i = index.get(int(bus))
        # ``index_of`` raises the error for an unknown bus
        out[net.index_of(int(bus)) if i is None else i] += val
    return np.array(out)


def _products(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    # one matrix-vector product per case, so that a case rounds the same
    # whatever the batch size (a matrix-matrix product does not); x is
    # (K, n) or one case (n,), which rounds as ``m @ x`` does
    return np.matmul(m, x[..., None])[..., 0]


def power_mismatch(y_l: np.ndarray, s_l: np.ndarray,
                   vc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The power mismatch ``dS = S_l - V_l·conj(Y_l·V)`` at the non-slack
    buses of K cases: ``y_l`` is ``y[1:]``, ``s_l`` the (K, n - 1)
    specified injections (pu) and ``vc`` the (K, n) complex voltages.
    Returns dS and, per case, its largest P or Q entry in absolute value,
    the quantity ``zbus_iterate`` compares with its tolerance."""
    ds = s_l - vc[:, 1:] * np.conj(_products(y_l, vc))
    return ds, np.abs(ds.view(float)).max(axis=1, initial=0.0)


def start_state(net: Network, start=None) -> np.ndarray:
    """A (1, n) complex state: the slack bus at its set voltage, and every
    other bus at that voltage too (a flat start) or at the (v, theta) of
    ``start``."""
    slack = net.slack_voltage * np.exp(1j * net.slack_angle)
    if start is None:
        return np.full((1, net.n_buses), slack)
    v, theta = start
    vc = v * np.exp(1j * np.asarray(theta, dtype=float))
    vc[0] = slack
    return vc[None]


def zbus_iterate(y: np.ndarray, s_pu: np.ndarray, vc: np.ndarray,
                 tol: float, max_iter: int, z: np.ndarray | None,
                 pin=None):
    """Implicit Z-bus iteration ``V_l <- Z·(conj(S_l / V_l) - Y_l0·V_0)``
    over K independent cases of complex bus voltages ``vc`` and specified
    complex injections ``s_pu`` (slack entries ignored), (K, n) arrays,
    taken as the correction ``Z·conj(dS / V_l)`` by the power mismatch dS.
    ``z`` is ``zbus(y)``, the cached ``net.Z`` when ``y`` is ``net.Y``, and
    None when ``y[1:, 1:]`` is singular.

    ``pin`` optionally slides one station per case down onto p_s = 0
    inside the iteration. It is a tuple ``(bus, w, beta, p_tol)``: (K,)
    arrays of the station's bus index (0 leaves the case unpinned), its
    available wind (pu) and its curtailment factor, updated in place, and
    a slack tolerance (pu). Each iteration moves beta to where the slack
    active power that the current mismatch predicts, p0 - sum Re(dS_l), is
    zero, clipped to [0, start beta], so the slide only ever lowers wind;
    p0 is the slack power of ``slack_power`` at the current voltages. A
    pinned case stops when its mismatch is within tol and either
    |p0| <= p_tol or its beta cannot move: it imports at its start beta,
    or it exports at beta = 0.

    Updates vc in place. Returns three (K,) arrays: converged (max P/Q
    mismatch <= tol), the iteration count and the final max mismatch (pu).
    A case stops unconverged on a non-finite mismatch, and at iteration 0
    when ``z`` is None.
    """
    k = vc.shape[0]
    y_l = y[1:]
    converged = np.zeros(k, dtype=bool)
    iterations = np.zeros(k, dtype=int)
    residual = np.zeros(k)
    # the cases still iterating: their indices, states and injections; the
    # arrays are sliced only when a case stops
    idx, va, sa = np.arange(k), vc, s_pu[:, 1:]
    if pin is not None:
        bus, w, beta, p_tol = pin
        sa = sa.copy()
        # per active case: the wind, start beta and beta of its station;
        # an unpinned case holds beta = start = 0, a station without room,
        # so it stops on the mismatch alone
        pw = np.where(bus > 0, w, 1.0)
        top = np.where(bus > 0, beta, 0.0)
        pb = top.copy()
        # the pinned cases among the active ones, and their stations' flat
        # index in sa
        r = np.flatnonzero(bus)
        f = r * sa.shape[1] + bus[r] - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(max_iter + 1):
            ds, res = power_mismatch(y_l, sa, va)
            ok = done = res <= tol
            if pin is not None:
                # the beta at which the slack power the mismatch predicts,
                # p0 - sum Re(dS_l), is zero; a case is done on p_s = 0 or
                # where its beta cannot move
                p0 = _slack_active(y, va)[0]
                bn = np.minimum(np.maximum(
                    pb + (p0 - ds.real.sum(axis=1)) / pw, 0.0), top)
                done = ok & ((np.abs(p0) <= p_tol) | (bn == pb))
            go = ~done & np.isfinite(res)
            if it == max_iter or z is None or not go.all():
                iterations[idx] = it
                residual[idx] = res
                converged[idx] = ok
                if va is not vc:
                    vc[idx] = va
                if pin is not None:
                    beta[idx[r]] = pb[r]
                if it == max_iter or z is None or not go.any():
                    break
                idx, va, sa, ds = idx[go], va[go], sa[go], ds[go]
                if pin is not None:
                    pw, top, pb, bn = pw[go], top[go], pb[go], bn[go]
                    r = np.flatnonzero(bus[idx])
                    f = r * sa.shape[1] + bus[idx[r]] - 1
            if pin is not None:
                d = ((bn - pb) * pw)[r]
                sa.reshape(-1)[f] += d
                ds.reshape(-1)[f] += d
                pb = bn
            vl = va[:, 1:]
            va[:, 1:] = vl + _products(z, np.conj(ds / vl))
    return converged, iterations, residual


def _slack_active(y: np.ndarray, vc: np.ndarray):
    """Slack active power (pu) at K complex states (K, n), or at one (n,),
    from row 0 of ``Y·V``, with the slack voltage and current: S = V conj(I)
    in real arithmetic, each product rounded on its own (numpy's vectorized
    complex product may fuse multiply-adds). Row 0 of ``y @ v`` would
    round differently."""
    v0, i0 = vc[..., 0], _products(y[:1], vc)[..., 0]
    return v0.real * i0.real + v0.imag * i0.imag, v0, i0


def slack_power(net: Network, y: np.ndarray, p_mw: np.ndarray,
                vc: np.ndarray):
    """Slack active and reactive power and the losses (MW, Mvar, MW), each
    (K,), at K solved complex states ``vc`` (K, n) with specified injections
    ``p_mw`` (K, n); each a scalar for one state (n,). The losses follow
    from the balance: the slack covers demand minus wind plus losses.
    """
    p, v0, i0 = _slack_active(y, vc)
    p_s = p * net.base_mva
    q_s = (v0.imag * i0.real - v0.real * i0.imag) * net.base_mva
    return p_s, q_s, p_s + p_mw[..., 1:].sum(axis=-1)


def branch_flows(net: Network, vc: np.ndarray) -> np.ndarray:
    """Apparent power per branch in MVA, the larger of the two ends, for
    (K, n) complex states or one (n,); returns (K, branches) or
    (branches,). The to-end current ``(vt - vf)·ys + vt·bsh`` is taken as
    ``vt·bsh - d`` with ``d = (vf - vt)·ys``, the from-end's series term:
    negation is exact, so each end rounds as its own formula does."""
    fidx, tidx, ys, bsh = net.branch_arrays
    vf, vt = vc.take(fidx, axis=-1), vc.take(tidx, axis=-1)
    d = (vf - vt) * ys
    s_f = np.abs(vf * np.conj(d + vf * bsh))
    s_t = np.abs(vt * np.conj(vt * bsh - d))
    return np.maximum(s_f, s_t, out=s_f) * net.base_mva


def objective(price_p, price_q, injected, p_loss, p_s, q_s):
    """Objective ``f = f1 - f2 - f3 - f4`` and its terms: wind revenue and
    the costs of losses, of active imports and of reactive imports. Works
    on floats or (K,) arrays; pass prices prorated for part of a horizon.
    """
    f1 = price_p * injected
    f2 = price_p * p_loss
    f3 = price_p * p_s
    f4 = price_q * q_s
    return f1 - f2 - f3 - f4, f1, f2, f3, f4


def limit_margins(net: Network, p_s, q_s, v: np.ndarray,
                  flows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value of every operating constraint and its margin to the nearer
    bound, each (K, constraints) for (K,) slack powers and (K, n) voltages,
    or (constraints,) for one state, in ``net.limit_bounds`` order. A
    negative margin is a violation."""
    _, lower, upper = net.limit_bounds
    values = np.concatenate([np.array([np.hypot(p_s, q_s), p_s, q_s]).T,
                             v[..., 1:], flows], axis=-1)
    return values, np.minimum(values - lower, upper - values)


def solve_power_flow(net: Network, inj: InjectionSpec, *,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     start=None,
                     y: np.ndarray | None = None) -> PowerFlowSolution:
    """Solve the AC power-flow equations for the given injections.

    Runs ``zbus_iterate``'s iteration and stopping rules for one case, on
    1-D arrays: a batch's bookkeeping costs more than the two
    matrix-vector products of an iteration. The products round as the
    kernel's do for one case, so a solve matches the kernel's bitwise.

    ``start`` is None for a flat start or a ``(v, theta)`` pair for a warm
    start; the reported ``v`` and ``theta`` are the magnitude and angle of
    the converged complex state. ``y`` optionally passes an admittance
    matrix: the network's own ``net.Y`` (the default) uses its cached factor
    ``net.Z``, and any other matrix is factored for this call.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if y is None:
        y = net.Y
    z = net.Z if y is net.Y else zbus(y)
    p_mw = np.asarray(inj.p_mw, dtype=float)
    q_mvar = np.asarray(inj.q_mvar, dtype=float)
    s_l = (p_mw / net.base_mva + 1j * (q_mvar / net.base_mva))[1:]
    vc = start_state(net, start)[0]
    y_l, vl = y[1:], vc[1:]  # vl is a view: updating it updates vc
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(max_iter + 1):
            ds = s_l - vl * np.conj(y_l @ vc)
            res = float(np.abs(ds.view(float)).max(initial=0.0))
            if res <= tol:
                break
            if it == max_iter or not math.isfinite(res):
                raise NonConvergence(it, res)
            if z is None:
                raise SingularJacobian(it)
            vl += z @ np.conj(ds / vl)
    p_s, q_s, p_loss = slack_power(net, y, p_mw, vc)
    return PowerFlowSolution(
        v=np.abs(vc), theta=np.angle(vc), p_s=float(p_s), q_s=float(q_s),
        p_loss=float(p_loss), flows=branch_flows(net, vc), iterations=it,
        max_residual=res)


def evaluate_point(net: Network, demand: InjectionSpec, wind, beta,
                   price_p: float, price_q: float, **pf_args):
    """``injections``, ``solve_power_flow`` (keyword arguments ``pf_args``)
    and ``objective`` at one beta, for the demand per bus ``demand``
    (``InjectionSpec.from_mappings``) and at prices the caller has
    prorated. Returns the solution and (f, f1, f2, f3, f4)."""
    p, q, injected = injections(net, demand, wind, beta)
    pf = solve_power_flow(net, InjectionSpec(p, q), **pf_args)
    return pf, objective(price_p, price_q, float(injected), pf.p_loss,
                         pf.p_s, pf.q_s)


# --- operating-limit checks -------------------------------------------------

@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    value: float
    lower: float
    upper: float
    violated: bool
    slack: float  # distance to the nearest bound; negative when violated


@dataclass(frozen=True, eq=False)
class ConstraintReport:
    """Every operating constraint at one solved state, as arrays in
    ``net.limit_bounds`` order. A constraint is violated when its margin is
    below ``-tol``; ``checks`` and ``violations`` build their
    ``ConstraintCheck`` objects only when read."""
    names: tuple[str, ...]
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    margins: np.ndarray
    tol: float

    def _checks(self, which) -> tuple[ConstraintCheck, ...]:
        return tuple(
            ConstraintCheck(name=self.names[i], value=float(self.values[i]),
                            lower=float(self.lower[i]),
                            upper=float(self.upper[i]),
                            violated=bool(self.margins[i] < -self.tol),
                            slack=float(self.margins[i]))
            for i in which)

    @property
    def checks(self) -> tuple[ConstraintCheck, ...]:
        return self._checks(range(len(self.names)))

    @property
    def violations(self) -> tuple[ConstraintCheck, ...]:
        return self._checks((self.margins < -self.tol).nonzero()[0].tolist())

    @property
    def ok(self) -> bool:
        return not (self.margins < -self.tol).any()


def check_limits(net: Network, sol: PowerFlowSolution,
                 tol: float = 1e-6) -> ConstraintReport:
    """Evaluate every operating constraint against the solved state.

    Covers the slack apparent/active/reactive bounds, PQ-bus voltage bands,
    and per-branch apparent-flow limits. A constraint is flagged violated
    when it exceeds its bound by more than ``tol``.
    """
    names, lower, upper = net.limit_bounds
    values, margins = limit_margins(net, sol.p_s, sol.q_s, sol.v, sol.flows)
    return ConstraintReport(names=names, values=values, lower=lower,
                            upper=upper, margins=margins, tol=tol)
