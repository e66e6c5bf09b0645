import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtopf.cli import main
from rtopf.network import (Branch, Bus, CaseFileError, Network,
                           NetworkValidationError, WindStation,
                           build_admittance, load_network, network_from_dict,
                           network_to_dict, save_network, validate)

from conftest import DATA, chain_net, random_radial_net


def minimal_case():
    return {
        "meta": {"base_mva": 10.0, "base_kv": 27.6, "s_s_max": 20.0},
        "buses": [{"id": 1, "kind": "slack"},
                  {"id": 2, "kind": "pq", "demand_peak_p": 1.0,
                   "demand_peak_q": 0.3}],
        "branches": [{"from_bus": 1, "to_bus": 2, "resistance": 0.01,
                      "reactance": 0.02, "s_l_max": 15.0}],
        "stations": [{"bus": 2, "rated_power": 5.0}],
    }


def test_bundled_case_loads(net41):
    assert net41.n_buses == 41
    assert net41.buses[0].kind == "slack"
    assert net41.station_buses == (2, 16)
    assert len(net41.branches) == 40
    assert net41.base_mva == 10.0
    assert net41.base_kv == 27.6


def test_bundled_case_demand_buses(net41):
    assert set(net41.demand_buses) == {4, 6, 8, 10, 13, 14, 22, 23, 25, 27,
                                       30, 31, 34, 36, 37, 41}


def test_round_trip(tmp_path, net41):
    path = tmp_path / "case.json"
    save_network(net41, path)
    again = load_network(path)
    assert again == net41


def test_from_dict_to_dict_round_trip():
    net = network_from_dict(minimal_case())
    assert network_from_dict(network_to_dict(net)) == net


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.data())
def test_dict_round_trip_on_random_feeders(seed, n_buses, data):
    net = random_radial_net(np.random.default_rng(seed), n_buses)
    buses = data.draw(st.lists(st.integers(2, n_buses), unique=True,
                               max_size=n_buses - 1))
    rated = st.floats(0.1, 50.0, allow_nan=False)
    net = validate(replace(net, stations=tuple(
        WindStation(bus=b, rated_power=data.draw(rated)) for b in buses)))
    assert network_from_dict(network_to_dict(net)) == net


def test_index_of():
    net = network_from_dict(minimal_case())
    assert net.index_of(1) == 0
    assert net.index_of(2) == 1
    with pytest.raises(NetworkValidationError):
        net.index_of(99)


def test_unknown_field_rejected():
    case = minimal_case()
    case["buses"][1]["load"] = 3.0
    with pytest.raises(CaseFileError, match="unknown field"):
        network_from_dict(case)


def test_unknown_top_level_section_rejected():
    case = minimal_case()
    case["generators"] = []
    with pytest.raises(CaseFileError, match="unknown field"):
        network_from_dict(case)


def test_missing_meta_field_rejected():
    case = minimal_case()
    del case["meta"]["s_s_max"]
    with pytest.raises(CaseFileError, match="missing"):
        network_from_dict(case)


def test_non_numeric_value_rejected():
    case = minimal_case()
    case["branches"][0]["resistance"] = "high"
    with pytest.raises(CaseFileError, match="expected a number"):
        network_from_dict(case)
    for key in ("resistance", "reactance", "s_l_max"):
        for bad in (float("nan"), float("inf"), 10 ** 400):
            case = minimal_case()
            case["branches"][0][key] = bad
            with pytest.raises(CaseFileError, match="expected a number"):
                network_from_dict(case)


def test_invalid_json_reported_with_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"meta": }')
    with pytest.raises(CaseFileError, match="invalid JSON"):
        load_network(path)


def test_missing_file(tmp_path):
    with pytest.raises(CaseFileError, match="cannot read"):
        load_network(tmp_path / "nope.json")


def test_duplicate_bus_ids_rejected():
    case = minimal_case()
    case["buses"].append({"id": 2, "kind": "pq"})
    with pytest.raises(NetworkValidationError, match="duplicate"):
        network_from_dict(case)


def test_slack_must_be_bus_1_listed_first():
    case = minimal_case()
    case["buses"] = case["buses"][::-1]
    with pytest.raises(NetworkValidationError, match="slack"):
        network_from_dict(case)


def test_exactly_one_slack():
    case = minimal_case()
    case["buses"][1]["kind"] = "slack"
    with pytest.raises(NetworkValidationError, match="exactly one slack"):
        network_from_dict(case)


def test_disconnected_network_rejected():
    case = minimal_case()
    case["buses"].append({"id": 3, "kind": "pq"})
    with pytest.raises(NetworkValidationError, match="not connected"):
        network_from_dict(case)


def test_zero_reactance_rejected():
    case = minimal_case()
    case["branches"][0]["reactance"] = 0.0
    with pytest.raises(NetworkValidationError, match="zero reactance"):
        network_from_dict(case)


def test_station_at_unknown_bus_rejected():
    case = minimal_case()
    case["stations"][0]["bus"] = 9
    with pytest.raises(NetworkValidationError, match="unknown bus"):
        network_from_dict(case)


def test_duplicate_station_buses_rejected():
    case = minimal_case()
    case["stations"].append({"bus": 2, "rated_power": 3.0})
    with pytest.raises(NetworkValidationError, match="distinct"):
        network_from_dict(case)


def test_negative_demand_peak_rejected():
    case = minimal_case()
    case["buses"][1]["demand_peak_p"] = -1.0
    with pytest.raises(NetworkValidationError, match="negative demand"):
        network_from_dict(case)


def test_voltage_band_ordering_enforced():
    with pytest.raises(NetworkValidationError, match="v_min < v_max"):
        validate(Network(
            buses=(Bus(id=1, kind="slack"),
                   Bus(id=2, kind="pq", v_min=1.1, v_max=0.9)),
            branches=(Branch(from_bus=1, to_bus=2, resistance=0.01,
                             reactance=0.02),),
            stations=(), s_s_max=10.0))


def test_admittance_two_bus_by_hand():
    net = chain_net(2, r=0.1, x=0.2, bsh=0.04)
    y = build_admittance(net)
    ys = 1.0 / complex(0.1, 0.2)
    assert y[0, 1] == pytest.approx(-ys)
    assert y[1, 0] == pytest.approx(-ys)
    # diagonal: series admittance plus half the charging
    assert y[0, 0] == pytest.approx(ys + 0.02j)
    assert y[1, 1] == pytest.approx(ys + 0.02j)


def test_admittance_symmetric_and_rows_sum_to_charging(net41):
    y = build_admittance(net41)
    assert np.allclose(y, y.T)
    # without shunts every row sums to the node's total charging admittance
    total_bsh = sum(b.shunt_susceptance_total for b in net41.branches)
    # series terms cancel in the total up to float cancellation noise
    assert np.sum(y) == pytest.approx(1j * total_bsh, abs=1e-9)


def test_bundled_case_file_matches_schema():
    with open(DATA / "case41.json") as fh:
        raw = json.load(fh)
    assert set(raw) <= {"meta", "buses", "branches", "stations"}
    assert len(raw["buses"]) == 41


def test_station_dataclass_defaults():
    st = WindStation(bus=2, rated_power=10.0)
    assert [f.name for f in fields(st)] == ["bus", "rated_power"]


def test_station_power_factor_is_an_unknown_field(tmp_path):
    # wind runs at unity power factor, so a case file may not name another
    case = minimal_case()
    case["stations"][0]["power_factor"] = 0.9
    with pytest.raises(CaseFileError, match=r"stations\[0\]: unknown field"):
        network_from_dict(case)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    assert main(["solve-opf", "--case", str(path), "--out", "/dev/null"]) == 3
    assert "power_factor" not in json.dumps(
        network_to_dict(network_from_dict(minimal_case())))
