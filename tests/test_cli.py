import json

import pytest

from rtopf.cli import main

from rtopf.network import save_network

from conftest import DATA, chain_net, raising_row


def test_solve_opf_bundled_defaults(capsys):
    assert main(["solve-opf"]) == 0
    out = capsys.readouterr().out
    assert "status: optimal" in out
    assert "beta[bus 2]:" in out
    assert "beta[bus 16]:" in out


def test_solve_opf_writes_report_file(tmp_path):
    out = tmp_path / "sol.txt"
    assert main(["solve-opf", "--out", str(out)]) == 0
    assert "status: optimal" in out.read_text()


def test_solve_opf_oracle_flags(capsys):
    assert main(["solve-opf", "--oracle", "--grid-points", "11"]) == 0
    assert "status: optimal" in capsys.readouterr().out
    # the oracle grid needs both ends of each station's box
    assert main(["solve-opf", "--oracle", "--grid-points", "1"]) == 3
    assert "grid_points must be >= 2" in capsys.readouterr().err


def test_build_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["build-table", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 50
    assert lines[0].startswith("index,scenario,")
    assert lines[1].split(",")[0] == "1"


def test_gen_profiles_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen-profiles", "--seed", "3", "--out", str(a)]) == 0
    assert main(["gen-profiles", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert len(data["wind_actual"]["2"]) == 4320


def test_simulate_short_run(tmp_path):
    prof = tmp_path / "prof.json"
    assert main(["gen-profiles", "--seed", "1", "--out", str(prof)]) == 0
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.txt"
    tables = tmp_path / "tables"
    rc = main(["simulate", "--profiles", str(prof), "--horizons", "2",
               "--trace", str(trace), "--tables-dir", str(tables),
               "--out", str(summary)])
    assert rc == 0
    assert "horizons: 2" in summary.read_text()
    assert len(trace.read_text().strip().split("\n")) == 13
    assert sorted(p.name for p in tables.iterdir()) == \
        ["table_0000.csv", "table_0001.csv"]


def test_missing_case_file_is_reported(tmp_path, capsys):
    rc = main(["solve-opf", "--case", str(tmp_path / "nope.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_malformed_horizon_input(tmp_path, capsys):
    bad = tmp_path / "h.json"
    bad.write_text('{"wind_available": {"2": 1.0}, "surprise": true}')
    rc = main(["solve-opf", "--input", str(bad)])
    assert rc == 3
    assert "unknown field" in capsys.readouterr().err


def test_infeasible_exit_code(tmp_path):
    heavy = tmp_path / "h.json"
    heavy.write_text(json.dumps({
        "demand_p": {"41": 500.0}, "demand_q": {"41": 150.0},
        "wind_available": {"2": 1.0, "16": 1.0},
        "price_p": 1.67, "price_q": 0.4}))
    assert main(["solve-opf", "--input", str(heavy),
                 "--out", "/dev/null"]) == 4


def test_build_table_exits_4_when_every_row_is_infeasible(tmp_path):
    # one station on a short feeder far beyond its loadability: each of the
    # 7 rows fails its seeds and its dense scan
    case = tmp_path / "case.json"
    save_network(chain_net(3, station_buses=(3,)), case)
    heavy = tmp_path / "h.json"
    heavy.write_text(json.dumps({
        "demand_p": {"2": 500.0}, "demand_q": {"2": 150.0},
        "wind_available": {"3": 1.0}, "price_p": 1.67, "price_q": 0.4}))
    out = tmp_path / "table.csv"
    assert main(["build-table", "--case", str(case), "--input", str(heavy),
                 "--out", str(out)]) == 4
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 7
    assert all(r.endswith(",infeasible") for r in rows)


def test_a_failed_row_exits_5(tmp_path, monkeypatch):
    # one row's solver raises: the table and the day still complete, and
    # both commands report the failure
    raising_row(monkeypatch)
    out = tmp_path / "table.csv"
    assert main(["build-table", "--out", str(out)]) == 5
    rows = out.read_text().strip().split("\n")[1:]
    assert [r.rsplit(",", 1)[1] for r in rows].count("solver_failure") == 1
    summary = tmp_path / "summary.txt"
    assert main(["simulate", "--horizons", "1", "--out", str(summary)]) == 5
    assert "failed_rows: 1" in summary.read_text()


def test_non_finite_horizon_input_is_invalid(tmp_path, capsys):
    for field, value in (("demand_p", {"41": float("nan")}),
                         ("price_q", float("nan"))):
        data = {"demand_p": {"41": 1.0}, "demand_q": {"41": 0.3},
                "wind_available": {"2": 1.0, "16": 1.0},
                "price_p": 1.67, "price_q": 0.4}
        data[field] = value
        bad = tmp_path / "h.json"
        bad.write_text(json.dumps(data))
        assert main(["solve-opf", "--input", str(bad),
                     "--out", "/dev/null"]) == 3
        assert "finite" in capsys.readouterr().err


def test_numbers_beyond_float_range_are_invalid(tmp_path, capsys):
    huge = 10 ** 400  # a JSON integer that no float can hold
    case = json.loads((DATA / "case41.json").read_text())
    case["meta"]["s_s_max"] = huge
    horizon = json.loads((DATA / "horizon1.json").read_text())
    horizon["demand_p"]["41"] = huge
    priced = dict(horizon, price_p=huge)
    shape = {"hourly_shape": [huge] * 24}
    day = tmp_path / "day.json"
    assert main(["gen-profiles", "--seed", "1", "--out", str(day)]) == 0
    bundle = json.loads(day.read_text())
    bundle["demand_p"]["4"][0] = huge
    runs = []
    for name, data, args in (
            ("case.json", case, ["solve-opf", "--case"]),
            ("demand.json", horizon, ["solve-opf", "--input"]),
            ("price.json", priced, ["solve-opf", "--input"]),
            ("shape.json", shape, ["gen-profiles", "--out",
                                   str(tmp_path / "out.json"),
                                   "--demand-shape"]),
            ("bundle.json", bundle, ["simulate", "--horizons", "1",
                                     "--profiles"])):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        runs.append(main(args + [str(path)]))
        assert "error:" in capsys.readouterr().err
    assert runs == [3, 3, 3, 3, 3]


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_invalid_horizon_input_exits_3_from_every_command(tmp_path, capsys):
    # each row of a table validates its input too, but the table must not
    # turn one input error into 49 failed rows (exit 5)
    horizon = json.loads((DATA / "horizon1.json").read_text())
    for field, value in (("price_p", float("nan")), ("price_q", -0.4)):
        bad = tmp_path / f"{field}.json"
        bad.write_text(json.dumps(dict(horizon, **{field: value})))
        for cmd in ("solve-opf", "build-table"):
            assert main([cmd, "--input", str(bad), "--out", "/dev/null"]) == 3
            err = capsys.readouterr().err
            assert "prices must be finite and non-negative" in err
            assert "built" not in err
    assert main(["simulate", "--price-p", "nan", "--horizons", "1",
                 "--out", "/dev/null"]) == 3
    assert "prices" in capsys.readouterr().err


def test_simulate_rejects_horizon_counts_outside_the_day(capsys):
    for n in ("-3", "0", "100000"):
        assert main(["simulate", "--horizons", n, "--out", "/dev/null"]) == 3
        assert "horizons must lie in 1..720" in capsys.readouterr().err


def test_deadline_must_be_a_positive_finite_number(capsys):
    for value in ("-1", "0", "nan", "inf"):
        assert main(["build-table", "--deadline", value,
                     "--out", "/dev/null"]) == 3
        err = capsys.readouterr().err
        assert "deadline must be a positive finite number" in err
        assert "built" not in err
    for value in ("-1", "0", "nan", "120", "130"):
        assert main(["simulate", "--horizons", "2", "--deadline", value,
                     "--out", "/dev/null"]) == 3
        assert ("deadline must be positive and below the 120 s horizon"
                in capsys.readouterr().err)
