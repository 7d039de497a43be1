"""Dispatch a distribution feeder with stochastic prosumers using a battery:
day-ahead planning from historical-profile forecasts and a 10-second
model-predictive tracking controller, plus a closed-loop simulator."""

__version__ = "0.1.0"

from .timegrid import TimeGrid
from .forecast import (HistoricalDay, TargetDayInfo, ProsumptionForecast,
                       select_days, point_forecast, forecast_day,
                       short_term_predict, synthesize_history)
from .dayahead import (DayAheadConfig, OffsetPlan, DispatchPlan,
                       InfeasiblePlanError, beta_coeffs, solve_offset,
                       assemble_plan, plan_day, worst_case_soe)
from .battery import (TtcParameters, TABLE1, reduce_and_discretize, voltage_step,
                      build_transition, soc_step, KalmanState, kalman_update,
                      ModelBank)
from .mpc import (MpcLimits, MpcProblem, ControlDecision, dispatch_error,
                  expected_average, build_problem, solve, to_power_setpoint)
from .solver import (LinearProgram, QcqpProblem, SolveCertificate, solve_lp,
                     solve_qcqp)
from .sim import (PlantConfig, BatteryPlant, Controller, SimulationRun, TrackingReport,
                  InitState, run_day, run_multi_day, tracking_report,
                  peak_shave_check, step_trace)
