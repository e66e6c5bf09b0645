import json
from pathlib import Path

import numpy as np
import pytest

from rtopf import load_network, scenarios
from rtopf.network import Branch, Bus, Network, WindStation, validate
from rtopf.opf import HorizonInput

DATA = Path(__file__).resolve().parents[1] / "src" / "rtopf" / "data"


@pytest.fixture(scope="session")
def net41():
    return load_network(DATA / "case41.json")


def load_horizon1() -> HorizonInput:
    with open(DATA / "horizon1.json") as fh:
        data = json.load(fh)
    return HorizonInput(
        demand_p={int(k): v for k, v in data["demand_p"].items()},
        demand_q={int(k): v for k, v in data["demand_q"].items()},
        wind_available={int(k): v for k, v in data["wind_available"].items()},
        price_p=data["price_p"], price_q=data["price_q"])


@pytest.fixture(scope="session")
def horizon1():
    return load_horizon1()


def chain_net(n_buses, r=0.01, x=0.02, bsh=0.0, s_l_max=1e9, s_s_max=100.0,
              station_buses=(), rated=10.0, v_min=0.9, v_max=1.1,
              demand=None):
    """Radial feeder 1-2-...-n with optional wind stations.

    ``demand`` optionally maps bus id to a (peak_p, peak_q) pair.
    """
    demand = demand or {}
    buses = [Bus(id=1, kind="slack")]
    buses += [Bus(id=i, kind="pq", v_min=v_min, v_max=v_max,
                  demand_peak_p=demand.get(i, (0.0, 0.0))[0],
                  demand_peak_q=demand.get(i, (0.0, 0.0))[1])
              for i in range(2, n_buses + 1)]
    branches = [Branch(from_bus=i, to_bus=i + 1, resistance=r, reactance=x,
                       shunt_susceptance_total=bsh, s_l_max=s_l_max)
                for i in range(1, n_buses)]
    stations = tuple(WindStation(bus=b, rated_power=rated)
                     for b in station_buses)
    return validate(Network(buses=tuple(buses), branches=tuple(branches),
                            stations=stations, s_s_max=s_s_max))


def random_radial_net(rng: np.random.Generator, n_buses: int) -> Network:
    """Random tree rooted at the slack with randomized line parameters."""
    buses = [Bus(id=1, kind="slack")]
    buses += [Bus(id=i, kind="pq", v_min=0.5, v_max=1.5)
              for i in range(2, n_buses + 1)]
    branches = []
    for i in range(2, n_buses + 1):
        parent = int(rng.integers(1, i))
        branches.append(Branch(
            from_bus=parent, to_bus=i,
            resistance=float(rng.uniform(0.001, 0.05)),
            reactance=float(rng.uniform(0.005, 0.1)),
            shunt_susceptance_total=float(rng.uniform(0.0, 0.01))))
    return validate(Network(buses=tuple(buses), branches=tuple(branches),
                            stations=(), s_s_max=1e9))


def raising_row(monkeypatch, row=10):
    """Make ``scenarios.solve_opf`` raise on row ``row`` of every 49-row
    table (in-process builds solve the rows in index order); returns the
    exception it raises."""
    real, calls = scenarios.solve_opf, []
    exc = RuntimeError("row solver crashed")

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) % 49 == row:
            raise exc
        return real(*args, **kwargs)
    monkeypatch.setattr(scenarios, "solve_opf", flaky)
    return exc
