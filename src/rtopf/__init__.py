"""Real-time optimal power flow for wind-penetrated distribution networks."""

from .network import (Branch, Bus, CaseFileError, Network,
                      NetworkValidationError, WindStation, build_admittance,
                      load_network, save_network)
from .opf import (HorizonInput, OPFOptions, OPFSolution, evaluate_objective,
                  oracle_opf, solve_opf)
from .powerflow import (ConstraintReport, InjectionSpec, NonConvergence,
                        PowerFlowSolution, SingularJacobian, check_limits,
                        solve_power_flow)
from .profiles import (DayProfiles, ProfileGenConfig, gen_actual_wind,
                       gen_day_profiles, gen_demand, gen_wind_forecast,
                       load_profiles, save_profiles)
from .realtime import (DayRun, DaySummary, TraceRecord, apply_and_realize,
                       run_day, select_positions, summary_to_text,
                       trace_to_csv)
from .scenarios import (LookupTable, Scenario, WindLevels, build_lookup_table,
                        enumerate_scenarios, make_levels, scenario_index,
                        scenario_label, table_to_csv)

__version__ = "0.1.0"
