import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_engine_runs_on_numpy_alone():
    # scipy may be installed but is not a dependency: one OPF and one
    # realized update on the bundled data must not import it
    code = textwrap.dedent("""
        import json
        import sys
        from importlib import resources

        import rtopf
        from rtopf.opf import HorizonInput, STATUS_OPTIMAL, solve_opf
        from rtopf.realtime import apply_and_realize

        data = resources.files("rtopf.data")
        net = rtopf.load_network(data / "case41.json")
        raw = json.loads((data / "horizon1.json").read_text())
        inp = HorizonInput(
            demand_p={int(k): v for k, v in raw["demand_p"].items()},
            demand_q={int(k): v for k, v in raw["demand_q"].items()},
            wind_available={int(k): v
                            for k, v in raw["wind_available"].items()},
            price_p=raw["price_p"], price_q=raw["price_q"])
        sol = solve_opf(net, inp)
        assert sol.status == STATUS_OPTIMAL, sol.status
        wind = [inp.wind_available[b] for b in net.station_buses]
        apply_and_realize(net, inp.demand_p, inp.demand_q, wind, sol.beta)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
        print("ok")
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
