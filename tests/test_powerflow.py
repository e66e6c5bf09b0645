import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtopf.network import NetworkValidationError, build_admittance
from rtopf.opf import SURFACE_TOL
from rtopf.powerflow import (DEFAULT_MAX_ITER, DEFAULT_TOL, InjectionSpec,
                             NonConvergence, PowerFlowError, branch_flows,
                             check_limits, slack_power, solve_power_flow,
                             start_state, zbus_iterate)
from rtopf.powerflow import SingularJacobian
from rtopf.powerflow import injections as inject

from conftest import chain_net, random_radial_net
from oracles import gauss_seidel_power_flow


def injections(net, p_by_bus, q_by_bus=None):
    return InjectionSpec.from_mappings(net, p_by_bus, q_by_bus or {})


def test_no_load_flat_solution():
    net = chain_net(3)
    sol = solve_power_flow(net, injections(net, {}))
    assert np.allclose(sol.v, 1.0)
    assert np.allclose(sol.theta, 0.0)
    assert sol.p_s == pytest.approx(0.0, abs=1e-9)
    assert sol.iterations == 0


def test_two_bus_matches_gauss_seidel_oracle():
    net = chain_net(2, r=0.02, x=0.06)
    inj = injections(net, {2: -3.0}, {2: -1.0})
    sol = solve_power_flow(net, inj)
    v_gs, p_s_gs, q_s_gs = gauss_seidel_power_flow(net, inj)
    assert np.abs(sol.v - np.abs(v_gs)).max() < 1e-8
    assert np.abs(sol.theta - np.angle(v_gs)).max() < 1e-8
    assert sol.p_s == pytest.approx(p_s_gs, abs=1e-6)
    assert sol.q_s == pytest.approx(q_s_gs, abs=1e-6)


def test_randomized_cases_match_gauss_seidel_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        net = random_radial_net(rng, n)
        p = {i: float(rng.uniform(-2.0, 0.5)) for i in range(2, n + 1)}
        q = {i: float(rng.uniform(-1.0, 0.2)) for i in range(2, n + 1)}
        inj = injections(net, p, q)
        sol = solve_power_flow(net, inj)
        v_gs, p_s_gs, q_s_gs = gauss_seidel_power_flow(net, inj)
        assert np.abs(sol.v - np.abs(v_gs)).max() < 1e-7
        assert np.abs(sol.theta - np.angle(v_gs)).max() < 1e-7
        assert abs(sol.p_s - p_s_gs) < 1e-5
        assert abs(sol.q_s - q_s_gs) < 1e-5


def test_balance_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = random_radial_net(rng, 5)
        inj = injections(net, {i: float(rng.uniform(-2, 1))
                               for i in range(2, 6)})
        sol = solve_power_flow(net, inj)
        # p_loss = p_s + sum of specified injections, exactly by construction
        assert sol.p_loss == pytest.approx(
            sol.p_s + float(np.sum(inj.p_mw[1:])), abs=1e-12)
        # and losses are physically non-negative for these line parameters
        assert sol.p_loss >= -1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.floats(-2.0, 1.0), st.floats(-1.0, 0.5)),
                min_size=1, max_size=10))
def test_balance_against_branch_losses_on_random_feeders(seed, loads):
    # the slack covers the specified injections plus the losses that the
    # branch currents dissipate, computed here from the branch data alone
    net = random_radial_net(np.random.default_rng(seed), len(loads) + 1)
    inj = injections(net, {i: p for i, (p, _) in enumerate(loads, 2)},
                     {i: q for i, (_, q) in enumerate(loads, 2)})
    # the balance holds to the mismatch per bus times the base, so solve
    # tighter than the default 1e-10 pu (1e-9 MW a bus on a 10 MVA base)
    try:
        sol = solve_power_flow(net, inj, tol=1e-12)
    except PowerFlowError:
        assume(False)
    vc = sol.v * np.exp(1j * sol.theta)
    loss = 0.0
    for br in net.branches:
        vf, vt = vc[net.index_of(br.from_bus)], vc[net.index_of(br.to_bus)]
        ys = 1.0 / complex(br.resistance, br.reactance)
        ysh = 0.5j * br.shunt_susceptance_total
        i_from = (vf - vt) * ys + vf * ysh
        i_to = (vt - vf) * ys + vt * ysh
        loss += (vf * np.conj(i_from) + vt * np.conj(i_to)).real
    assert sol.p_s + inj.p_mw[1:].sum() == pytest.approx(
        loss * net.base_mva, abs=1e-9)


def test_loss_matches_branch_i2r():
    net = chain_net(3, r=0.02, x=0.05)
    inj = injections(net, {2: -1.5, 3: -2.5}, {2: -0.5, 3: -0.8})
    sol = solve_power_flow(net, inj)
    vc = sol.v * np.exp(1j * sol.theta)
    loss = 0.0
    for br in net.branches:
        i = net.index_of(br.from_bus)
        j = net.index_of(br.to_bus)
        ys = 1.0 / complex(br.resistance, br.reactance)
        cur = (vc[i] - vc[j]) * ys
        loss += abs(cur) ** 2 * br.resistance
    assert sol.p_loss == pytest.approx(loss * net.base_mva, abs=1e-8)


def test_slack_entries_of_injection_spec_are_ignored():
    net = chain_net(3)
    inj1 = injections(net, {2: -1.0, 3: -0.5})
    p = inj1.p_mw.copy()
    p[0] = 1234.5
    sol1 = solve_power_flow(net, inj1)
    sol2 = solve_power_flow(net, InjectionSpec(p, inj1.q_mvar))
    assert sol1.p_s == pytest.approx(sol2.p_s, abs=1e-12)
    assert np.array_equal(sol1.v, sol2.v)


def test_warm_start_from_solution_needs_no_iterations():
    net = chain_net(4)
    inj = injections(net, {3: -2.0, 4: -1.0})
    cold = solve_power_flow(net, inj)
    warm = solve_power_flow(net, inj, start=(cold.v, cold.theta))
    assert warm.iterations == 0
    assert cold.iterations > 0


def test_nonconvergence_beyond_loadability():
    net = chain_net(2, r=0.05, x=0.1)
    with pytest.raises(NonConvergence):
        solve_power_flow(net, injections(net, {2: -1000.0}))
    # a non-finite load stops the iteration at once, without a numpy
    # warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence) as exc:
            solve_power_flow(net, injections(net, {2: float("nan")}))
    assert exc.value.iterations == 0


def test_singular_admittance_raises():
    # the charging cancels the series admittance: Y[1:, 1:] is zero
    net = chain_net(2, r=0.0, x=0.5, bsh=4.0)
    with pytest.raises(SingularJacobian) as exc:
        solve_power_flow(net, injections(net, {2: -1.0}))
    assert exc.value.iteration == 0


def test_from_mappings_keeps_the_per_bus_conversion(net41, horizon1):
    def loop(by_bus):
        # the conversion as a plain loop: int() on every key, the values of
        # one bus summed in dict order
        out = [0.0] * net41.n_buses
        for bus, val in by_bus.items():
            out[net41.index_of(int(bus))] += val
        return np.array(out)
    spec = InjectionSpec.from_mappings(net41, horizon1.demand_p,
                                       horizon1.demand_q)
    assert spec.p_mw.tobytes() == loop(horizon1.demand_p).tobytes()
    assert spec.q_mvar.tobytes() == loop(horizon1.demand_q).tobytes()
    # numpy-int and string keys map through int()
    p = {np.int64(5): 1.5, "7": 2.5, np.int32(41): -0.25}
    q = {"9": -0.5, np.uint8(3): 0.75}
    spec = InjectionSpec.from_mappings(net41, p, q)
    assert spec.p_mw.tobytes() == loop(p).tobytes()
    assert spec.q_mvar.tobytes() == loop(q).tobytes()
    assert spec.p_mw[net41.index_of(7)] == 2.5
    assert spec.q_mvar[net41.index_of(9)] == -0.5
    # keys that are one bus after int() sum in dict order: 1e16 + 1
    # rounds back to 1e16
    i = net41.index_of(2)
    first = InjectionSpec.from_mappings(net41, {2: 1e16, "2": 1.0,
                                                "02": -1e16}, {})
    last = InjectionSpec.from_mappings(net41, {2: 1e16, "02": -1e16,
                                               "2": 1.0}, {})
    assert (first.p_mw[i], last.p_mw[i]) == (0.0, 1.0)
    for bad in (99, "99", np.int64(99)):
        with pytest.raises(NetworkValidationError, match="unknown bus id 99"):
            InjectionSpec.from_mappings(net41, {2: 1.0, bad: 1.0}, {})
        with pytest.raises(NetworkValidationError, match="unknown bus id 99"):
            InjectionSpec.from_mappings(net41, {}, {bad: 1.0})


def test_injections_take_one_beta_or_a_batch(net41, horizon1):
    demand = InjectionSpec.from_mappings(net41, horizon1.demand_p,
                                         horizon1.demand_q)
    wind = [horizon1.wind_available[b] for b in net41.station_buses]
    betas = np.array([[1.0, 0.35], [0.0, 1.0], [0.7, 0.2]])
    p, q, injected = inject(net41, demand, wind, betas)
    assert p.shape == q.shape == (3, net41.n_buses)
    for k, beta in enumerate(betas):
        p1, q1, injected1 = inject(net41, demand, wind, tuple(beta))
        assert p1.shape == q1.shape == (net41.n_buses,)
        assert np.ndim(injected1) == 0
        assert np.array_equal(p1, p[k]) and np.array_equal(q1, q[k])
        assert injected1 == injected[k]
    # demand enters negative, wind at the station buses only
    assert np.array_equal(q1, -demand.q_mvar)
    others = np.setdiff1d(np.arange(net41.n_buses), net41.station_index)
    assert np.array_equal(p1[others], -demand.p_mw[others])
    assert np.array_equal(p1[net41.station_index],
                          -demand.p_mw[net41.station_index]
                          + betas[-1] * wind)


def test_case41_converges_fast_across_load_and_wind(net41, horizon1):
    rated = [st.rated_power for st in net41.stations]
    for scale in (0.5, 1.0, 2.0, 3.0):
        demand = InjectionSpec.from_mappings(
            net41, {b: scale * d for b, d in horizon1.demand_p.items()},
            {b: scale * d for b, d in horizon1.demand_q.items()})
        for wind in ([0.0] * len(rated), rated):
            p, q, _ = inject(net41, demand, wind, [[1.0] * len(rated)])
            sol = solve_power_flow(net41, InjectionSpec(p[0], q[0]))
            assert sol.iterations <= 10
            assert sol.max_residual <= 1e-10


def test_admittance_is_cached_read_only(net41):
    build_admittance(net41)
    # a pickled copy, as a table build sends to its workers, leaves the
    # caches behind and builds its own
    copy = pickle.loads(pickle.dumps(net41))
    assert "Y" not in vars(copy) and "Z" not in vars(copy)
    for net in (net41, copy):
        y = build_admittance(net)
        assert build_admittance(net) is y
        assert np.array_equal(y, net41.Y)
        assert not y.flags.writeable and not net.Z.flags.writeable
        with pytest.raises(ValueError):
            y[0, 0] = 0.0


def test_other_admittance_is_factored_for_the_call():
    net, other = chain_net(3, r=0.01, x=0.02), chain_net(3, r=0.02, x=0.05)
    inj = injections(net, {2: -1.0, 3: -2.0}, {3: -0.5})
    sol = solve_power_flow(net, inj, y=build_admittance(other))
    ref = solve_power_flow(other, inj)
    assert np.array_equal(sol.v, ref.v)
    assert np.array_equal(sol.theta, ref.theta)
    assert sol.v[2] < solve_power_flow(net, inj).v[2]


def test_input_validation():
    net = chain_net(2)
    inj = injections(net, {})
    with pytest.raises(ValueError):
        solve_power_flow(net, inj, tol=0.0)
    with pytest.raises(ValueError):
        solve_power_flow(net, inj, max_iter=0)


def test_flows_reported_per_branch():
    net = chain_net(3, r=0.01, x=0.02)
    sol = solve_power_flow(net, injections(net, {3: -4.0}))
    assert sol.flows.shape == (2,)
    # the branch nearer the slack carries at least the downstream one's load
    assert sol.flows[0] >= sol.flows[1] - 1e-9
    assert sol.flows[0] == pytest.approx(4.0, rel=0.05)


def test_check_limits_ok_at_modest_load(net41):
    inj = injections(net41, {22: -1.0, 41: -0.5}, {22: -0.4, 41: -0.2})
    report = check_limits(net41, solve_power_flow(net41, inj))
    assert report.ok
    assert not report.violations
    names = {c.name for c in report.checks}
    assert "slack_active_mw" in names
    assert "slack_apparent_mva" in names
    assert len([n for n in names if n.startswith("voltage_")]) == 40
    assert len([n for n in names if n.startswith("flow_")]) == 40


def test_check_limits_flags_reverse_power_flow():
    # generation without demand exports toward the upstream grid
    net = chain_net(3, station_buses=(3,))
    sol = solve_power_flow(net, injections(net, {3: 2.0}))
    assert sol.p_s < 0
    report = check_limits(net, sol)
    assert any(c.name == "slack_active_mw" and c.violated
               for c in report.checks)


def test_check_limits_flags_undervoltage():
    net = chain_net(2, r=0.05, x=0.1, v_min=0.99, v_max=1.01)
    sol = solve_power_flow(net, injections(net, {2: -3.0}))
    report = check_limits(net, sol)
    assert any(c.name == "voltage_bus_2" and c.violated
               for c in report.checks)
    bad = [c for c in report.violations if c.name == "voltage_bus_2"][0]
    assert bad.slack < 0


def test_check_limits_flags_branch_overload():
    net = chain_net(2, s_l_max=1.0)
    sol = solve_power_flow(net, injections(net, {2: -3.0}))
    report = check_limits(net, sol)
    assert any(c.name == "flow_1_2" and c.violated for c in report.checks)


def test_check_limits_tolerance_absorbs_tiny_violations():
    net = chain_net(3, station_buses=(3,))
    sol = solve_power_flow(net, injections(net, {2: -1.0, 3: 1.0}))
    # p_s is a hair above/below zero; a loose tolerance must not flag it
    report = check_limits(net, sol, tol=1.0)
    assert report.ok


def test_batch_matches_separate_solves_bitwise(net41):
    rng = np.random.default_rng(7)
    specs = []
    for _ in range(6):
        buses = rng.choice(np.arange(2, 42), size=8, replace=False)
        specs.append(injections(
            net41, {int(b): float(rng.uniform(-1.5, 0.5)) for b in buses},
            {int(b): float(rng.uniform(-0.5, 0.1)) for b in buses}))
    # one case far beyond loadability, which must not disturb the others
    specs.insert(3, injections(net41, {41: -900.0}))
    p = np.array([s.p_mw for s in specs])
    q = np.array([s.q_mvar for s in specs])
    vc = np.ones((len(specs), net41.n_buses), dtype=complex)  # flat start
    converged, iterations, _ = zbus_iterate(
        net41.Y, p / net41.base_mva + 1j * (q / net41.base_mva), vc,
        DEFAULT_TOL, DEFAULT_MAX_ITER, net41.Z)
    p_s, q_s, _ = slack_power(net41, net41.Y, p, vc)
    assert not converged[3]
    with pytest.raises(NonConvergence):
        solve_power_flow(net41, specs[3])
    for k, spec in enumerate(specs):
        if k == 3:
            continue
        sol = solve_power_flow(net41, spec)
        assert converged[k]
        assert iterations[k] == sol.iterations
        assert np.array_equal(np.abs(vc[k]), sol.v)
        assert np.array_equal(np.angle(vc[k]), sol.theta)
        assert p_s[k] == sol.p_s and q_s[k] == sol.q_s

    # a mixed batch: cases pinned onto p_s = 0 through the station at bus
    # 2 or 16 and unpinned ones (bus 0); each case and its beta must match
    # its own separate call, and an unpinned one its call without a pin
    base, n = net41.base_mva, len(specs)
    stations = net41.station_index[np.arange(n) % 2]
    bus = np.where(np.arange(n) % 3 == 2, 0, stations)
    wind = rng.uniform(4.0, 16.0, size=n)
    beta0 = rng.uniform(0.5, 1.0, size=n)
    p_w = p.copy()
    p_w[np.arange(n), stations] += beta0 * wind
    s_w = p_w / base + 1j * (q / base)

    def pinned(rows):
        vc = np.ones((len(rows), net41.n_buses), dtype=complex)
        beta = beta0[rows].copy()
        out = zbus_iterate(net41.Y, s_w[rows], vc, DEFAULT_TOL,
                           DEFAULT_MAX_ITER, net41.Z,
                           pin=(bus[rows], wind[rows] / base, beta,
                                SURFACE_TOL / base))
        return out, vc, beta
    (converged, iterations, residual), vc, beta = pinned(np.arange(n))
    for k in range(n):
        (c1, i1, r1), v1, b1 = pinned([k])
        assert (converged[k], iterations[k]) == (c1[0], i1[0])
        assert np.array_equal(residual[k], r1[0], equal_nan=True)
        assert np.array_equal(vc[k], v1[0], equal_nan=True)
        assert beta[k] == b1[0]
        if bus[k] == 0:
            v2 = np.ones((1, net41.n_buses), dtype=complex)
            zbus_iterate(net41.Y, s_w[[k]], v2, DEFAULT_TOL,
                         DEFAULT_MAX_ITER, net41.Z)
            assert np.array_equal(vc[k], v2[0], equal_nan=True)
            assert beta[k] == beta0[k]
    slid = (bus > 0) & converged & (beta < beta0)
    assert slid.sum() >= 2
    p_s, _, _ = slack_power(net41, net41.Y, p_w, vc)
    assert np.abs(p_s[slid]).max() <= SURFACE_TOL

    # warm starts: a chain of updates, each solved from the state of the
    # one before, must match the kernel run from the same start state, alone
    # and in one batch, in every reported field
    buses = rng.choice(np.arange(2, 42), size=8, replace=False)
    load = rng.uniform(0.2, 1.5, size=8)
    chain, sols, start = [], [], None
    for _ in range(20):
        load = load * rng.uniform(0.9, 1.1, size=8)
        chain.append(injections(
            net41, {int(b): -float(v) for b, v in zip(buses, load)}))
        sols.append(solve_power_flow(net41, chain[-1], start=start))
        start = (sols[-1].v, sols[-1].theta)
    p_c = np.array([s.p_mw for s in chain])
    s_c = p_c / base + 1j * (np.array([s.q_mvar for s in chain]) / base)
    starts = np.concatenate([start_state(net41)] + [
        start_state(net41, (sol.v, sol.theta)) for sol in sols[:-1]])

    def kernel(rows, max_iter=DEFAULT_MAX_ITER):
        vc = starts[rows]
        out = zbus_iterate(net41.Y, s_c[rows], vc, DEFAULT_TOL, max_iter,
                           net41.Z)
        return (out, vc, slack_power(net41, net41.Y, p_c[rows], vc),
                branch_flows(net41, vc))
    batch = kernel(np.arange(len(chain)))
    for k, sol in enumerate(sols):
        for out, j in ((batch, k), (kernel([k]), 0)):
            (conv, its, res), vc, (p_s, q_s, p_loss), flows = out
            assert conv[j] and its[j] == sol.iterations
            assert res[j] == sol.max_residual
            assert np.array_equal(np.abs(vc[j]), sol.v)
            assert np.array_equal(np.angle(vc[j]), sol.theta)
            assert (p_s[j], q_s[j], p_loss[j]) == (sol.p_s, sol.q_s,
                                                   sol.p_loss)
            assert np.array_equal(flows[j], sol.flows)
    # capped at two iterations, the flat-start update stops where the
    # kernel does
    (conv, its, res), _, _, _ = kernel([0], max_iter=2)
    assert not conv[0]
    with pytest.raises(NonConvergence) as exc:
        solve_power_flow(net41, chain[0], max_iter=2)
    assert (exc.value.iterations, exc.value.final_residual) == (its[0],
                                                                res[0])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 10),
       st.floats(0.0, 1.0), st.floats(0.0, 3.0))
def test_pin_lands_exporting_cases_on_zero_slack_power(seed, n, beta0,
                                                      excess):
    # one station on a random feeder, at beta0 of a wind of up to ``excess``
    # times the load: an exporting case slides down to |p_s| <= SURFACE_TOL,
    # and a case that imports at beta0 keeps it bitwise
    rng = np.random.default_rng(seed)
    net = random_radial_net(rng, n)
    load_p = rng.uniform(0.0, 1.5, size=n - 1)
    load_q = rng.uniform(0.0, 0.5, size=n - 1)
    station = int(rng.integers(1, n))
    wind = excess * load_p.sum()
    p = np.concatenate([[0.0], -load_p])
    p[station] += beta0 * wind
    s = (p + 1j * np.concatenate([[0.0], -load_q]))[None, :] / net.base_mva

    def solve(pin):
        vc = np.ones((1, n), dtype=complex)
        converged, _, _ = zbus_iterate(net.Y, s, vc, DEFAULT_TOL,
                                       DEFAULT_MAX_ITER, net.Z, pin=pin)
        assume(converged[0])
        return vc
    p_s0 = slack_power(net, net.Y, p[None, :], solve(None))[0][0]
    beta = np.array([beta0])
    vc = solve((np.array([station]), np.array([wind / net.base_mva]), beta,
                SURFACE_TOL / net.base_mva))
    if p_s0 > SURFACE_TOL:
        assert beta[0] == beta0
    else:
        assert 0.0 <= beta[0] <= beta0
        assert abs(slack_power(net, net.Y, p[None, :], vc)[0][0]) \
            <= SURFACE_TOL


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(1, 6),
       st.floats(0.0, 1.0))
def test_branch_flows_match_the_two_end_formula_bitwise(seed, n, k, flat):
    # random complex states on a random feeder, a share of the buses at
    # exactly 1 pu so that some branches carry no series current
    rng = np.random.default_rng(seed)
    net = random_radial_net(rng, n)
    vc = rng.uniform(0.5, 1.5, size=(k, n)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, size=(k, n)))
    vc[rng.random((k, n)) < flat] = 1.0
    fidx, tidx, ys, bsh = net.branch_arrays

    def two_end(v):
        vf, vt = v[..., fidx], v[..., tidx]
        i_f = (vf - vt) * ys + vf * bsh
        i_t = (vt - vf) * ys + vt * bsh
        return np.maximum(np.abs(vf * np.conj(i_f)),
                          np.abs(vt * np.conj(i_t))) * net.base_mva
    flows = branch_flows(net, vc)
    assert flows.shape == (k, n - 1)
    assert flows.tobytes() == two_end(vc).tobytes()
    for row in vc:
        assert branch_flows(net, row).tobytes() == two_end(row).tobytes()
