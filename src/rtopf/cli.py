"""Command-line front end.

Subcommands cover the four workflows: solving one scenario OPF, building a
full 49-row lookup table, generating a seeded day of profiles, and running
the receding-horizon simulation. Bundled defaults (41-bus case, demand
shape, wind base, first-horizon input) are used when paths are omitted.

Exit codes: 0 success, 2 usage error, 3 invalid input data, 4 infeasible
problem, 5 solver failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from importlib import resources
from pathlib import Path

from .network import CaseFileError, Network, NetworkValidationError, \
    load_network
from .opf import (HorizonInput, OPFSolution, STATUS_INFEASIBLE,
                  STATUS_OPTIMAL, oracle_opf, solve_opf)
from .profiles import (ProfileError, ProfileGenConfig, gen_day_profiles,
                       load_profiles, save_profiles)
from .realtime import (DEFAULT_PRICE_P, DEFAULT_PRICE_Q, run_day,
                       summary_to_text, trace_to_csv)
from .scenarios import (DEFAULT_DEADLINE_S, build_lookup_table,
                        enumerate_scenarios, make_levels, table_to_csv)

EXIT_OK = 0
EXIT_BAD_INPUT = 3
EXIT_INFEASIBLE = 4
EXIT_SOLVER_FAILURE = 5

log = logging.getLogger(__name__)


class InputError(Exception):
    pass


def _bundled(name: str) -> Path:
    return Path(resources.files("rtopf.data") / name)


def _load_case(path: str | None) -> Network:
    return load_network(path if path else _bundled("case41.json"))


def _load_json(path, what: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    return data


def _load_horizon_input(path: str | None) -> HorizonInput:
    data = _load_json(path if path else _bundled("horizon1.json"),
                      "horizon input")
    unknown = set(data) - {"demand_p", "demand_q", "wind_available",
                           "price_p", "price_q"}
    if unknown:
        raise InputError(f"horizon input: unknown field(s) {sorted(unknown)}")
    try:
        return HorizonInput(
            demand_p={int(k): float(v)
                      for k, v in data.get("demand_p", {}).items()},
            demand_q={int(k): float(v)
                      for k, v in data.get("demand_q", {}).items()},
            wind_available={int(k): float(v)
                            for k, v in data["wind_available"].items()},
            price_p=float(data.get("price_p", DEFAULT_PRICE_P)),
            price_q=float(data.get("price_q", DEFAULT_PRICE_Q)))
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise InputError(f"horizon input: {exc}") from None


def _load_hours(path: str | None, default_name: str, key: str) -> list[float]:
    data = _load_json(path if path else _bundled(default_name), key)
    if key not in data:
        raise InputError(f"missing '{key}'")
    try:
        return [float(x) for x in data[key]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{key}: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _sol_lines(sol: OPFSolution, net: Network) -> str:
    lines = [f"status: {sol.status}"]
    for st, b in zip(net.stations, sol.beta):
        lines.append(f"beta[bus {st.bus}]: {b:.6f}")
    lines += [f"p_s_mw: {sol.p_s:.6f}", f"q_s_mvar: {sol.q_s:.6f}",
              f"p_loss_mw: {sol.p_loss:.6f}",
              f"f: {sol.f:.6f}  (f1={sol.f1:.6f} f2={sol.f2:.6f} "
              f"f3={sol.f3:.6f} f4={sol.f4:.6f})",
              f"evals: {sol.evals}"]
    if sol.message:
        lines.append(f"message: {sol.message}")
    return "\n".join(lines) + "\n"


def _cmd_solve_opf(args) -> int:
    net = _load_case(args.case)
    inp = _load_horizon_input(args.input)
    if args.oracle:
        sol = oracle_opf(net, inp, grid_points=args.grid_points)
    else:
        sol = solve_opf(net, inp)
    _write_text(args.out, _sol_lines(sol, net))
    if sol.status == STATUS_INFEASIBLE:
        return EXIT_INFEASIBLE
    if sol.status != STATUS_OPTIMAL:
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _cmd_build_table(args) -> int:
    net = _load_case(args.case)
    inp = _load_horizon_input(args.input)
    station_buses = [s.bus for s in net.stations]
    forecast = [inp.wind_available.get(b, 0.0) for b in station_buses]
    rated = [s.rated_power for s in net.stations]
    levels = make_levels(forecast, None, rated)
    table = build_lookup_table(
        net, inp, enumerate_scenarios(levels), levels,
        workers=args.workers, deadline=args.deadline)
    _write_text(args.out, table_to_csv(table, station_buses))
    print(f"built {table.n_rows} rows in {table.build_duration:.1f} s "
          f"(deadline {'met' if table.deadline_met else 'MISSED'})",
          file=sys.stderr)
    statuses = {sol.status for _, sol in table.rows}
    if statuses == {STATUS_INFEASIBLE}:
        return EXIT_INFEASIBLE
    if statuses - {STATUS_OPTIMAL}:
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _cmd_gen_profiles(args) -> int:
    net = _load_case(args.case)
    shape = _load_hours(args.demand_shape, "hourly_demand_shape.json",
                        "hourly_shape")
    base = _load_hours(args.wind_base, "hourly_wind_base.json",
                       "hourly_base_mw")
    cfg = ProfileGenConfig(seed=args.seed)
    profiles = gen_day_profiles(net, shape, base, cfg)
    save_profiles(profiles, args.out)
    print(f"wrote profiles for seed {args.seed} to {args.out}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    net = _load_case(args.case)
    if args.profiles:
        profiles = load_profiles(args.profiles, net)
    else:
        shape = _load_hours(None, "hourly_demand_shape.json", "hourly_shape")
        base = _load_hours(None, "hourly_wind_base.json", "hourly_base_mw")
        profiles = gen_day_profiles(net, shape, base,
                                    ProfileGenConfig(seed=args.seed))

    sink = None
    if args.tables_dir:
        tdir = Path(args.tables_dir)
        tdir.mkdir(parents=True, exist_ok=True)
        buses = [s.bus for s in net.stations]

        def sink(table):
            (tdir / f"table_{table.horizon_id:04d}.csv").write_text(
                table_to_csv(table, buses))

    run = run_day(net, profiles, deadline=args.deadline,
                  workers=args.workers,
                  price_p=args.price_p, price_q=args.price_q,
                  n_horizons=args.horizons,
                  enforce_deadline=args.enforce_deadline,
                  table_sink=sink)
    if args.trace:
        _write_text(args.trace, trace_to_csv(run, [s.bus for s in net.stations]))
    _write_text(args.out, summary_to_text(run.summary))
    if run.summary.failed_rows or run.summary.failed_intervals:
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rtopf",
        description="Real-time OPF for wind-penetrated distribution networks")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="enable info-level logging")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_case(p):
        p.add_argument("--case", help="case file (default: bundled 41-bus)")

    p = sub.add_parser("solve-opf", help="solve one scenario OPF")
    add_case(p)
    p.add_argument("--input", help="horizon input JSON (default: bundled)")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force grid solver instead")
    p.add_argument("--grid-points", type=int, default=21)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_solve_opf)

    p = sub.add_parser("build-table", help="build the 49-row lookup table")
    add_case(p)
    p.add_argument("--input", help="horizon input JSON (default: bundled)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--deadline", type=float, default=DEFAULT_DEADLINE_S,
                   help="compute budget in seconds")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_build_table)

    p = sub.add_parser("gen-profiles",
                       help="generate a seeded day of demand and wind")
    add_case(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demand-shape", help="24-value hourly shape JSON")
    p.add_argument("--wind-base", help="24-value hourly wind base JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_profiles)

    p = sub.add_parser("simulate",
                       help="run the receding-horizon loop over one day")
    add_case(p)
    p.add_argument("--profiles", help="profile bundle JSON "
                   "(default: generate from --seed)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizons", type=int, default=None,
                   help="limit the number of 120 s horizons")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--deadline", type=float, default=DEFAULT_DEADLINE_S)
    p.add_argument("--enforce-deadline", action="store_true",
                   help="fall back to the previous table on budget overrun")
    p.add_argument("--price-p", type=float, default=DEFAULT_PRICE_P)
    p.add_argument("--price-q", type=float, default=DEFAULT_PRICE_Q)
    p.add_argument("--trace", help="write the per-update trace CSV here")
    p.add_argument("--tables-dir",
                   help="write every horizon's lookup table CSV here")
    p.add_argument("--out", help="write the summary here instead of stdout")
    p.set_defaults(func=_cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (CaseFileError, NetworkValidationError, ProfileError, InputError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
