"""Distribution-network data model, case-file I/O, and admittance-matrix construction.

All electrical quantities in the case file are per-unit on ``base_mva`` except
apparent-power limits (MVA) and demand peaks (MW / Mvar). The slack bus is
always bus 1 and its voltage is held at 1.0 pu, 0 rad.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, ClassVar, Mapping

import numpy as np

DEFAULT_BASE_MVA = 10.0
DEFAULT_V_MIN = 0.95
DEFAULT_V_MAX = 1.05


class CaseFileError(Exception):
    """A case file failed to parse against the schema."""


class NetworkValidationError(Exception):
    """Parsed network data violates a structural invariant."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # "slack" | "pq"
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX
    demand_peak_p: float = 0.0  # MW
    demand_peak_q: float = 0.0  # Mvar


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    resistance: float  # pu
    reactance: float  # pu
    shunt_susceptance_total: float = 0.0  # pu, total pi-model charging
    s_l_max: float = 1e9  # MVA


@dataclass(frozen=True)
class WindStation:
    bus: int
    rated_power: float  # MW, injected at unity power factor


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    stations: tuple[WindStation, ...]
    s_s_max: float  # MVA, slack apparent-power limit
    base_mva: float = DEFAULT_BASE_MVA
    base_kv: float = 27.6
    slack_voltage: ClassVar[float] = 1.0  # pu
    slack_angle: ClassVar[float] = 0.0  # rad

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    def index_of(self, bus_id: int) -> int:
        """Array index of a bus id in the bus ordering."""
        try:
            return self._bus_index[bus_id]
        except KeyError:
            raise NetworkValidationError(f"unknown bus id {bus_id}") from None

    # Derived data is computed on first use and kept; Network is immutable,
    # so this is safe. cached_property writes the instance dict directly.
    # Pickles carry the fields only: the copy in a worker process rebuilds
    # its own read-only caches, and the task payload stays small.
    def __getstate__(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def _bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def branch_arrays(self) -> tuple[np.ndarray, ...]:
        """Per branch: from and to bus index, series admittance and half the
        line charging (pu), in branch order."""
        fidx = [self.index_of(b.from_bus) for b in self.branches]
        tidx = [self.index_of(b.to_bus) for b in self.branches]
        ys = [1.0 / complex(b.resistance, b.reactance) for b in self.branches]
        bsh = [1j * b.shunt_susceptance_total / 2.0 for b in self.branches]
        return (np.array(fidx, dtype=int), np.array(tidx, dtype=int),
                np.array(ys, dtype=complex), np.array(bsh, dtype=complex))

    @cached_property
    def station_index(self) -> np.ndarray:
        """Bus index of each wind station, in station order, read-only."""
        idx = np.array([self.index_of(s.bus) for s in self.stations],
                       dtype=int)
        idx.flags.writeable = False
        return idx

    @cached_property
    def Y(self) -> np.ndarray:
        """Bus admittance matrix (complex n x n, pu), read-only. Diagonals
        collect series admittances plus half the branch charging at each
        end; off-diagonals are the negated series admittances."""
        y = np.zeros((self.n_buses, self.n_buses), dtype=complex)
        for i, j, ys, ysh in zip(*self.branch_arrays):
            y[[i, j, i, j], [j, i, i, j]] += [-ys, -ys, ys + ysh, ys + ysh]
        y.flags.writeable = False
        return y

    @cached_property
    def Z(self) -> np.ndarray | None:
        """``zbus(self.Y)``, the factor all power flows on the network share."""
        return zbus(self.Y)

    @cached_property
    def limit_bounds(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Name, lower and upper bound of every operating constraint: slack
        apparent, active and reactive power, each PQ-bus voltage (every bus
        after the slack), then each branch flow. The bound arrays are
        read-only; every ``ConstraintReport`` shares them."""
        inf = float("inf")
        rows = [("slack_apparent_mva", -inf, self.s_s_max),
                ("slack_active_mw", 0.0, self.s_s_max),
                ("slack_reactive_mvar", 0.0, self.s_s_max)]
        rows += [(f"voltage_bus_{b.id}", b.v_min, b.v_max)
                 for b in self.buses[1:]]
        rows += [(f"flow_{br.from_bus}_{br.to_bus}", -inf, br.s_l_max)
                 for br in self.branches]
        names, lower, upper = zip(*rows)
        lower, upper = np.array(lower), np.array(upper)
        lower.flags.writeable = upper.flags.writeable = False
        return names, lower, upper

    @property
    def station_buses(self) -> tuple[int, ...]:
        return tuple(s.bus for s in self.stations)

    @property
    def demand_buses(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses
                     if b.demand_peak_p > 0 or b.demand_peak_q > 0)


def validate(net: Network) -> Network:
    """Check all structural invariants; returns the network unchanged."""
    if net.base_mva <= 0:
        raise NetworkValidationError("base_mva must be positive")
    if net.s_s_max <= 0:
        raise NetworkValidationError("s_s_max must be positive")
    if not net.buses:
        raise NetworkValidationError("network has no buses")

    ids = [b.id for b in net.buses]
    if len(set(ids)) != len(ids):
        raise NetworkValidationError("duplicate bus ids")
    slack = [b for b in net.buses if b.kind == "slack"]
    if len(slack) != 1:
        raise NetworkValidationError(
            f"exactly one slack bus required, found {len(slack)}")
    if slack[0].id != 1 or net.buses[0].kind != "slack":
        raise NetworkValidationError("the slack bus must be bus 1, listed first")
    for b in net.buses:
        if b.kind not in ("slack", "pq"):
            raise NetworkValidationError(f"bus {b.id}: unknown kind {b.kind!r}")
        if b.kind == "pq" and not (0 < b.v_min < b.v_max):
            raise NetworkValidationError(
                f"bus {b.id}: requires 0 < v_min < v_max")
        if b.demand_peak_p < 0 or b.demand_peak_q < 0:
            raise NetworkValidationError(f"bus {b.id}: negative demand peak")

    known = set(ids)
    for k, br in enumerate(net.branches):
        if br.from_bus not in known or br.to_bus not in known:
            raise NetworkValidationError(
                f"branch {k}: endpoint not a known bus "
                f"({br.from_bus}-{br.to_bus})")
        if br.from_bus == br.to_bus:
            raise NetworkValidationError(f"branch {k}: from_bus == to_bus")
        if br.resistance < 0:
            raise NetworkValidationError(f"branch {k}: negative resistance")
        if br.reactance == 0:
            raise NetworkValidationError(f"branch {k}: zero reactance")
        if br.s_l_max <= 0:
            raise NetworkValidationError(f"branch {k}: s_l_max must be > 0")

    st_buses = [s.bus for s in net.stations]
    if len(set(st_buses)) != len(st_buses):
        raise NetworkValidationError("wind station buses must be distinct")
    for s in net.stations:
        if s.bus not in known:
            raise NetworkValidationError(f"station at unknown bus {s.bus}")
        if s.rated_power <= 0:
            raise NetworkValidationError(
                f"station at bus {s.bus}: rated_power must be > 0")

    # connectivity check (undirected BFS from the slack)
    if net.n_buses > 1:
        adj: dict[int, list[int]] = {i: [] for i in ids}
        for br in net.branches:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
        seen = {1}
        stack = [1]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != known:
            missing = sorted(known - seen)
            raise NetworkValidationError(
                f"network graph is not connected; unreachable buses {missing}")
    return net


# --- case-file schema -------------------------------------------------------

_META_FIELDS = {"base_mva", "base_kv", "s_s_max"}
_BUS_FIELDS = {"id", "kind", "v_min", "v_max", "demand_peak_p", "demand_peak_q"}
_BRANCH_FIELDS = {"from_bus", "to_bus", "resistance", "reactance",
                  "shunt_susceptance_total", "s_l_max"}
_STATION_FIELDS = {"bus", "rated_power"}


def _check_fields(obj: Mapping[str, Any], allowed: set[str],
                  required: set[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise CaseFileError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise CaseFileError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise CaseFileError(f"{where}: missing field(s) {sorted(missing)}")


def _num(obj: Mapping[str, Any], key: str, where: str, default=None) -> float:
    val = obj.get(key, default)
    if val is None:
        raise CaseFileError(f"{where}: missing field {key!r}")
    # the bound also rejects NaN, inf and ints too large for a float
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not abs(val) <= sys.float_info.max:
        raise CaseFileError(f"{where}.{key}: expected a number, got {val!r}")
    return float(val)


def network_from_dict(data: Mapping[str, Any]) -> Network:
    """Build and validate a Network from parsed case-file data (strict)."""
    _check_fields(data, {"meta", "buses", "branches", "stations"},
                  {"meta", "buses"}, "case")
    meta = data["meta"]
    _check_fields(meta, _META_FIELDS, {"base_kv", "s_s_max"}, "meta")

    buses = []
    for i, raw in enumerate(data["buses"]):
        where = f"buses[{i}]"
        _check_fields(raw, _BUS_FIELDS, {"id", "kind"}, where)
        if raw["kind"] not in ("slack", "pq"):
            raise CaseFileError(f"{where}.kind: must be 'slack' or 'pq'")
        buses.append(Bus(
            id=int(_num(raw, "id", where)),
            kind=raw["kind"],
            v_min=_num(raw, "v_min", where, DEFAULT_V_MIN),
            v_max=_num(raw, "v_max", where, DEFAULT_V_MAX),
            demand_peak_p=_num(raw, "demand_peak_p", where, 0.0),
            demand_peak_q=_num(raw, "demand_peak_q", where, 0.0),
        ))

    branches = []
    for i, raw in enumerate(data.get("branches", [])):
        where = f"branches[{i}]"
        _check_fields(raw, _BRANCH_FIELDS,
                      {"from_bus", "to_bus", "resistance", "reactance",
                       "s_l_max"}, where)
        branches.append(Branch(
            from_bus=int(_num(raw, "from_bus", where)),
            to_bus=int(_num(raw, "to_bus", where)),
            resistance=_num(raw, "resistance", where),
            reactance=_num(raw, "reactance", where),
            shunt_susceptance_total=_num(raw, "shunt_susceptance_total",
                                         where, 0.0),
            s_l_max=_num(raw, "s_l_max", where),
        ))

    stations = []
    for i, raw in enumerate(data.get("stations", [])):
        where = f"stations[{i}]"
        _check_fields(raw, _STATION_FIELDS, {"bus", "rated_power"}, where)
        stations.append(WindStation(
            bus=int(_num(raw, "bus", where)),
            rated_power=_num(raw, "rated_power", where),
        ))

    net = Network(
        buses=tuple(buses),
        branches=tuple(branches),
        stations=tuple(stations),
        s_s_max=_num(meta, "s_s_max", "meta"),
        base_mva=_num(meta, "base_mva", "meta", DEFAULT_BASE_MVA),
        base_kv=_num(meta, "base_kv", "meta"),
    )
    return validate(net)


def network_to_dict(net: Network) -> dict[str, Any]:
    return {
        "meta": {"base_mva": net.base_mva, "base_kv": net.base_kv,
                 "s_s_max": net.s_s_max},
        "buses": [
            {"id": b.id, "kind": b.kind, "v_min": b.v_min, "v_max": b.v_max,
             "demand_peak_p": b.demand_peak_p, "demand_peak_q": b.demand_peak_q}
            for b in net.buses],
        "branches": [
            {"from_bus": br.from_bus, "to_bus": br.to_bus,
             "resistance": br.resistance, "reactance": br.reactance,
             "shunt_susceptance_total": br.shunt_susceptance_total,
             "s_l_max": br.s_l_max}
            for br in net.branches],
        "stations": [
            {"bus": s.bus, "rated_power": s.rated_power}
            for s in net.stations],
    }


def load_network(path) -> Network:
    """Load and validate a case file (JSON)."""
    try:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CaseFileError(
                    f"{path}: invalid JSON at line {exc.lineno}, "
                    f"column {exc.colno}: {exc.msg}") from None
    except OSError as exc:
        raise CaseFileError(f"cannot read case file: {exc}") from None
    return network_from_dict(data)


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh, indent=1)
        fh.write("\n")


def build_admittance(net: Network) -> np.ndarray:
    """Bus admittance matrix for pi-model branches: the network's cached,
    read-only ``net.Y``."""
    return net.Y


def zbus(y: np.ndarray) -> np.ndarray | None:
    """Impedance matrix of the non-slack buses, ``inv(y[1:, 1:])``, read-only;
    None when that block is singular."""
    try:
        z = np.linalg.inv(y[1:, 1:])
    except np.linalg.LinAlgError:
        return None
    z.flags.writeable = False
    return z
