"""Closed-loop simulation over one or more days, with tracking reports. Each step,
the 10-second :class:`Controller` decides from measurements alone, keeping its state
between steps and days, and a :class:`BatteryPlant` replays the battery's physics.

The plant uses the controller's equivalent-circuit family with independently
perturbable parameters, converter actuation error and measurement noise, so model
mismatch is exercised without real hardware. The composite GCP record always
satisfies P = L + B exactly; measurement noise only affects what the controller sees.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace, asdict
from pathlib import Path

import numpy as np

from . import battery
from .battery import (CONVERTER_EFF, ModelBank, KalmanState, TtcParameters, TABLE1,
                      kalman_update)
from .dayahead import (DayAheadConfig, DispatchPlan, plan_day, save_plan)
from .forecast import (HistoricalDay, TargetDayInfo, ar1_noise, day_after, forecast_day,
                       is_working_dayofyear, synthesize_day)
from .mpc import ControlDecision, MpcLimits, StepTelemetry, build_problem, solve
from .timegrid import N_SLOTS, STEPS_PER_SLOT, TimeGrid


class PlantStateError(RuntimeError):
    """Plant SOC left [0, 1]; carries the offending step index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class PlantConfig:
    param_perturbation: float = 0.05    # +-fraction on the circuit parameters
    voltage_noise_v: float = 0.1        # DC voltage measurement noise std
    power_noise_kw: float = 0.5         # GCP power measurement noise std
    actuation_error_frac: float = 0.01  # multiplicative converter error
    actuation_noise_kw: float = 0.5     # additive converter noise std
    step_noise_kw: float = 1.0          # 10-s prosumption noise around the slot value
    step_noise_ar: float = 0.9
    parameter_table: tuple[TtcParameters, ...] | None = None

    def __post_init__(self):
        for name in ("voltage_noise_v", "power_noise_kw", "actuation_noise_kw",
                     "step_noise_kw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not -1.0 < self.step_noise_ar < 1.0:     # else the AR(1) noise is not stationary
            raise ValueError(f"step_noise_ar {self.step_noise_ar} outside (-1, 1)")

    @staticmethod
    def noiseless() -> "PlantConfig":
        return PlantConfig(param_perturbation=0.0, voltage_noise_v=0.0,
                           power_noise_kw=0.0, actuation_error_frac=0.0,
                           actuation_noise_kw=0.0, step_noise_kw=0.0)


_PHYSICAL_FIELDS = ("e", "rs", "r1", "c1", "r2", "c2", "r3", "c3")


def perturbed_table(base: tuple[TtcParameters, ...], fraction: float,
                    rng: np.random.Generator) -> tuple[TtcParameters, ...]:
    """Independent multiplicative perturbation of every circuit parameter."""
    if fraction == 0.0:
        return base
    out = []
    for p in base:
        mult = {name: 1.0 + fraction * (2.0 * rng.random() - 1.0)
                for name in _PHYSICAL_FIELDS}
        out.append(replace(p, **{name: getattr(p, name) * mult[name]
                                 for name in _PHYSICAL_FIELDS}))
    return tuple(out)


class BatteryPlant:
    """Battery physics seen by the simulator: SOC-scheduled circuit plus a
    converter that realizes an AC power command as a DC current. ``model`` is
    the discretized circuit scheduled at ``soc``; each step schedules it anew.
    The voltages are written out on Python floats, as in
    :func:`battery.voltage_step`."""

    def __init__(self, cfg: PlantConfig, seed: int, initial_soc: float):
        rng = np.random.default_rng([seed, 777])
        table = perturbed_table(cfg.parameter_table or TABLE1, cfg.param_perturbation, rng)
        self.models = tuple(battery.reduce_and_discretize(p) for p in table)
        self.soc = float(initial_soc)
        self.model = self.models[battery.schedule_index(self.soc)]
        self.x = np.zeros(2)
        self.last_i = 0.0

    def current_for_power(self, b_ac_kw: float) -> float:
        """DC current whose converter-side power equals the AC command:
        eff * v(i) * i / 1000 = b_ac_kw with v(i) = (C x + E) + Rs' i."""
        m = self.model
        (x0, x1), (c0, c1) = self.x.tolist(), m.c.tolist()
        v0 = c0 * x0 + c1 * x1 + m.d_1
        rs = m.d_i
        disc = v0 * v0 + 4.0 * rs * 1000.0 * b_ac_kw / CONVERTER_EFF
        return (-v0 + math.sqrt(max(disc, 0.0))) / (2.0 * rs)

    def apply_power(self, b_cmd_kw: float, rng: np.random.Generator,
                    cfg: PlantConfig, step: int) -> tuple[float, float, float]:
        """Actuate a power set-point; returns (i, terminal voltage, realized AC kW)."""
        b_applied = b_cmd_kw * (1.0 + cfg.actuation_error_frac * rng.standard_normal())
        if cfg.actuation_noise_kw > 0.0:
            b_applied += cfg.actuation_noise_kw * rng.standard_normal()
        i = self.current_for_power(b_applied)
        return self.apply_current(i, step)

    def apply_current(self, i: float, step: int) -> tuple[float, float, float]:
        self.x, v = battery.voltage_step(self.model, self.x, i)
        b_real = CONVERTER_EFF * v * i / 1000.0
        self.soc = battery.soc_step(self.soc, i)
        self.last_i = i
        if not 0.0 <= self.soc <= 1.0:
            raise PlantStateError(f"plant SOC {self.soc:.4f} left [0, 1] at step {step}",
                                  step=step)
        self.model = self.models[battery.schedule_index(self.soc)]
        return i, v, b_real

    def measure_voltage(self, rng: np.random.Generator, cfg: PlantConfig) -> float:
        """Terminal voltage reading at the start of a step, previous current
        still flowing."""
        m = self.model
        (x0, x1), (c0, c1) = self.x.tolist(), m.c.tolist()
        v = c0 * x0 + c1 * x1 + m.d_i * self.last_i + m.d_1
        if cfg.voltage_noise_v > 0.0:
            v += cfg.voltage_noise_v * rng.standard_normal()
        return v


def step_trace(profile_kw: np.ndarray, rng: np.random.Generator | None = None,
               noise_std: float = 0.0, ar: float = 0.9) -> np.ndarray:
    """10-second prosumption realization from a slot profile of any length: each
    slot value held for STEPS_PER_SLOT steps plus, when ``noise_std`` > 0 and
    ``rng`` is given, stationary AR(1) fast noise drawn by :func:`forecast.ar1_noise`."""
    trace = np.repeat(np.asarray(profile_kw, dtype=float), STEPS_PER_SLOT)
    if noise_std > 0.0 and rng is not None:
        trace = trace + ar1_noise(rng, trace.size, noise_std, ar,
                                  noise_std / np.sqrt(1 - ar * ar))
    return trace


@dataclass
class InitState:
    soc: float = 0.5


@dataclass
class SimulationRun:
    """Closed-loop trace of the plan's slots, a whole day or a stretch: STEPS_PER_SLOT steps
    per slot. ``l_kw`` is the replayed trace, not a copy; ``k`` is int32. ``soc`` is the
    plant's, which the controller reads; step k's horizon is the
    STEPS_PER_SLOT - k % STEPS_PER_SLOT steps left in its slot."""

    k: np.ndarray
    l_kw: np.ndarray
    b_kw: np.ndarray
    p_kw: np.ndarray               # l_kw + b_kw, exact composition
    soc: np.ndarray                # plant SOC after each step
    v: np.ndarray
    i_a: np.ndarray
    e_kwh: np.ndarray
    b_setpoint_kw: np.ndarray
    status: list[str]
    active: list[str]
    solve_seconds: np.ndarray
    config: dict
    initial_soc: float = 0.0

    def slot_average(self, series: np.ndarray) -> np.ndarray:
        return series.reshape(-1, STEPS_PER_SLOT).mean(axis=1)


class Controller:
    """The real-time controller of ``plan``, which a chain replaces each day: it sees
    measurements only, and keeps its state (Kalman estimate, slot GCP sum, last load)
    between steps and days. :meth:`step` reads the voltage, previous current and SOC;
    :meth:`measured`, once per step, the GCP and battery power just actuated. The first
    last load is the forecast's."""

    DISABLED = ControlDecision(np.zeros(0), b_setpoint=0.0, status="disabled", active="-")

    def __init__(self, plan: DispatchPlan, bank: ModelBank, limits: MpcLimits,
                 battery_enabled: bool = True):
        self.plan, self.bank, self.limits = plan, bank, limits
        self.battery_enabled, self._slot_sum = battery_enabled, 0.0
        self.kalman, self.last_load = KalmanState.initial(), float(plan.forecast.point[0])

    def step(self, k: int, v_meas: float, i_prev: float, soc: float):
        """Update the Kalman filter, then build and solve step k's problem (unsolved and
        ``DISABLED`` without the battery): (perf_counter before the build, problem, decision).
        A NaN voltage reading runs the filter's predict step only, and the set-point is
        converted with the voltage the model predicts."""
        done = k % STEPS_PER_SLOT       # steps of the slot measured so far
        if done == 0:
            self._slot_sum = 0.0
        p_avg = self._slot_sum / done if done else 0.0
        vm = self.bank.voltage_model(soc)
        self.kalman = kalman_update(self.kalman, vm, i_prev, v_meas)
        if math.isnan(v_meas):
            v_meas = battery.voltage_step(vm, self.kalman.x, i_prev)[1]
        t0 = time.perf_counter()
        telemetry = StepTelemetry(p_avg, self.last_load, soc, self.kalman.x, v_meas)
        problem = build_problem(k, self.plan, telemetry, self.bank, self.limits)
        return t0, problem, solve(problem) if self.battery_enabled else self.DISABLED

    def measured(self, p_meas: float, b_kw: float) -> None:
        self._slot_sum += p_meas
        self.last_load = p_meas - b_kw


def run_day(plan: DispatchPlan, plant_cfg: PlantConfig, init: InitState, *,
            trace_kw: np.ndarray, seed: int = 0,
            rng: np.random.Generator | None = None,
            plant: BatteryPlant | None = None,
            bank: ModelBank | None = None,
            limits: MpcLimits = MpcLimits(),
            grid: TimeGrid | None = None,
            battery_enabled: bool = True) -> SimulationRun:
    """Run the plan's slots, a whole day or a stretch, STEPS_PER_SLOT steps each: a new
    :class:`Controller` decides from what it measures, and ``plant`` (by default new, at
    ``init.soc``) actuates its decisions. A ``grid`` is only checked against the plan."""
    if grid is not None and grid.n_slots != plan.p_hat.size:
        raise ValueError(f"plan has {plan.p_hat.size} slots, not {grid.n_slots}")
    controller = Controller(plan, bank or ModelBank(), limits, battery_enabled)
    plant = plant if plant is not None else BatteryPlant(plant_cfg, seed, init.soc)
    return _closed_loop(controller, plant, plant_cfg, trace_kw,
                        rng if rng is not None else np.random.default_rng([seed, 1]))


def _closed_loop(controller: Controller, plant: BatteryPlant, plant_cfg: PlantConfig,
                 trace_kw: np.ndarray, rng: np.random.Generator) -> SimulationRun:
    """Per step: the plant's voltage reading reaches the controller, which decides; the plant
    actuates, and the measured GCP power returns. ``solve_seconds`` spans build to actuation."""
    trace_kw = np.asarray(trace_kw, dtype=float)
    n = STEPS_PER_SLOT * controller.plan.p_hat.size
    if trace_kw.shape != (n,):
        raise ValueError(f"trace must have {n} values")
    initial_soc = plant.soc
    rows: list[tuple] = []       # per step, the eight float series of SimulationRun
    status: list[str] = []
    active: list[str] = []

    for k, l_k in enumerate(trace_kw.tolist()):
        v_meas = plant.measure_voltage(rng, plant_cfg)
        t0, problem, decision = controller.step(k, v_meas, plant.last_i, plant.soc)
        if controller.battery_enabled:
            i_k, v_k, b_k = plant.apply_power(decision.b_setpoint, rng, plant_cfg, k)
        else:
            i_k, v_k, b_k = plant.apply_current(0.0, k)
        solve_s = time.perf_counter() - t0
        p_k = l_k + b_k
        rows.append((b_k, p_k, plant.soc, v_k, i_k, problem.e_k, decision.b_setpoint, solve_s))
        status.append(decision.status)
        active.append(decision.active)
        controller.measured(p_k + (plant_cfg.power_noise_kw * rng.standard_normal()
                                   if plant_cfg.power_noise_kw > 0.0 else 0.0), b_k)

    b_kw, p_kw, soc, v, i_a, e_kwh, b_setpoint, solve_seconds = \
        np.array(rows).reshape(n, 8).T.copy()
    return SimulationRun(k=np.arange(n, dtype=np.int32), l_kw=trace_kw, b_kw=b_kw, p_kw=p_kw,
                         soc=soc, v=v, i_a=i_a, e_kwh=e_kwh, b_setpoint_kw=b_setpoint,
                         status=status, active=active, solve_seconds=solve_seconds,
                         config=asdict(plant_cfg), initial_soc=initial_soc)


# ---------------------------------------------------------------------------
# Tracking metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorStats:
    rmse: float
    mean: float
    max_abs: float

    @staticmethod
    def of(err: np.ndarray) -> "ErrorStats":
        err = np.asarray(err, dtype=float)
        return ErrorStats(rmse=float(np.sqrt(np.mean(err ** 2))),
                          mean=float(np.mean(err)),
                          max_abs=float(np.max(np.abs(err))))


@dataclass(frozen=True)
class TrackingReport:
    dispatch: ErrorStats          # plan vs realized 5-minute GCP averages
    no_dispatch: ErrorStats       # forecast vs realized 5-minute prosumption


def tracking_report(run: SimulationRun, plan: DispatchPlan) -> TrackingReport:
    """Per-slot error statistics in both operating modes; without dispatch, the
    plan's own forecast is compared with the realized prosumption."""
    p_avg = run.slot_average(run.p_kw)
    l_avg = run.slot_average(run.l_kw)
    return TrackingReport(dispatch=ErrorStats.of(plan.p_hat - p_avg),
                          no_dispatch=ErrorStats.of(np.asarray(plan.forecast.point) - l_avg))


def format_report(report: TrackingReport, label: str = "") -> str:
    head = f"Tracking error statistics (kW){' - ' + label if label else ''}"
    rows = [head,
            f"{'':14s}{'RMSE':>9s}{'Mean':>9s}{'Max':>9s}",
            f"{'no dispatch':14s}{report.no_dispatch.rmse:9.3f}"
            f"{report.no_dispatch.mean:9.3f}{report.no_dispatch.max_abs:9.3f}",
            f"{'dispatch':14s}{report.dispatch.rmse:9.3f}"
            f"{report.dispatch.mean:9.3f}{report.dispatch.max_abs:9.3f}"]
    return "\n".join(rows)


@dataclass(frozen=True)
class PeakViolation:
    slot: int
    avg_p_kw: float
    excess_kw: float


def peak_shave_check(run: SimulationRun, p_max: float,
                     tol_kw: float = 2.0) -> list[PeakViolation]:
    """Slots whose realized 5-minute average exceeds the cap beyond tolerance.

    The comparison is strict, ``avg > p_max + tol_kw``: a slot exactly at the
    tolerated level is not a violation. ``excess_kw`` is measured from
    ``p_max``, not from ``p_max + tol_kw``.
    """
    p_avg = run.slot_average(run.p_kw)
    out = []
    for slot in np.nonzero(p_avg > p_max + tol_kw)[0]:
        out.append(PeakViolation(slot=int(slot), avg_p_kw=float(p_avg[slot]),
                                 excess_kw=float(p_avg[slot] - p_max)))
    return out


# ---------------------------------------------------------------------------
# Multi-day operation
# ---------------------------------------------------------------------------


@dataclass
class DayResult:
    plan: DispatchPlan
    run: SimulationRun
    report: TrackingReport


PLAN_LEAD_SLOTS = 12     # the plan is computed one hour before the day starts


def run_multi_day(days: int, history: list[HistoricalDay],
                  dayahead_cfg: DayAheadConfig, limits: MpcLimits,
                  plant_cfg: PlantConfig, *, seed: int = 0,
                  initial_soc: float = 0.5,
                  realization_scale: float = 1.0,
                  battery_enabled: bool = True) -> list[DayResult]:
    """Chain consecutive days with one plant and one :class:`Controller`, which
    takes each day's plan in turn.

    Each day's plan is computed one hour before its start, predicting the
    initial stored energy by persistence: the SOC observed at 23:00 (for the
    first day, the SOC the simulation starts from). The realized prosumption is
    a fresh synthetic feeder day for the target date, optionally scaled to emulate
    systematically biased forecasts; its radiation is the forecast's.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    plant = BatteryPlant(plant_cfg, seed, initial_soc)
    soc_at_plan_time = initial_soc

    last = max(history, key=lambda d: (d.year, d.day_of_year))
    year, doy = last.year, last.day_of_year
    results: list[DayResult] = []
    for d in range(days):
        year, doy = day_after(year, doy)
        rng_day = np.random.default_rng([seed, 10_000 + d])
        true_day = synthesize_day(rng_day, year, doy)
        target = TargetDayInfo(year=year, day_of_year=doy,
                               radiation_forecast=true_day.daily_radiation,
                               is_working_day=is_working_dayofyear(doy))
        fc = forecast_day(history, target)
        cfg_d = replace(dayahead_cfg, soe0=soc_at_plan_time * dayahead_cfg.e_nom)
        try:
            plan = plan_day(fc, cfg_d)
        except Exception as exc:
            if hasattr(exc, "add_note"):
                exc.add_note(f"while planning day {d} of the chain")
            raise
        if d == 0:
            controller = Controller(plan, ModelBank(), limits, battery_enabled)
        else:
            controller.plan = plan
        trace = step_trace(true_day.profile * realization_scale, rng_day,
                           plant_cfg.step_noise_kw, plant_cfg.step_noise_ar)
        run = _closed_loop(controller, plant, plant_cfg, trace, rng_day)
        results.append(DayResult(plan=plan, run=run, report=tracking_report(run, plan)))
        soc_at_plan_time = float(run.soc[(N_SLOTS - PLAN_LEAD_SLOTS) * STEPS_PER_SLOT - 1])
    return results


# ---------------------------------------------------------------------------
# Run artifacts
# ---------------------------------------------------------------------------

STEPS_HEADER = "# feederdispatch run v1"
_FMT = "%.17g"


def write_run_artifacts(out_dir, run: SimulationRun, plan: DispatchPlan,
                        report: TrackingReport, config_snapshot: dict | None = None,
                        emit_plots: bool = False,
                        limits: MpcLimits | None = None) -> None:
    """Write the per-step trace, plan, report and config snapshot (plain text)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "steps.csv", "w", newline="") as fh:
        fh.write(STEPS_HEADER + "\n")
        # minimal quoting: an active field that joins several groups with commas is quoted
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(["k", "l_kw", "b_kw", "p_kw", "soc", "v_v", "i_a", "e_kwh", "horizon",
                       "status", "active", "b_setpoint_kw"])
        for k in range(run.k.size):
            vals = [run.l_kw[k], run.b_kw[k], run.p_kw[k], run.soc[k], run.v[k],
                    run.i_a[k], run.e_kwh[k]]
            rows.writerow([k, *(_FMT % v for v in vals), STEPS_PER_SLOT - k % STEPS_PER_SLOT,
                           run.status[k], run.active[k], _FMT % run.b_setpoint_kw[k]])
    save_plan(out / "plan.csv", plan)
    with open(out / "report.txt", "w") as fh:
        fh.write(format_report(report) + "\n")
    with open(out / "config.json", "w") as fh:
        json.dump(config_snapshot or run.config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if emit_plots:
        write_plot_data(out, run, plan, limits)


def write_plot_data(out_dir, run: SimulationRun, plan: DispatchPlan,
                    limits: MpcLimits | None = None) -> None:
    """Tabular data for the three standard panels: forecast band + offset,
    plan vs realizations, and battery SOC/current/voltage with limits."""
    out = Path(out_dir)
    fc = plan.forecast
    slots = np.arange(plan.p_hat.size)
    lim = limits or MpcLimits()
    panels = {
        "forecast_panel.csv": ("slot,l_hat_kw,member_min_kw,member_max_kw,f_kw,p_hat_kw",
                               [slots, fc.point, fc.member_min, fc.member_max,
                                plan.offset.f, plan.p_hat]),
        "tracking_panel.csv": ("slot,p_hat_kw,p_avg_kw,l_avg_kw",
                               [slots, plan.p_hat, run.slot_average(run.p_kw),
                                run.slot_average(run.l_kw)]),
        "battery_panel.csv": (f"limits: i=[{lim.i_min},{lim.i_max}] v=[{lim.v_min},"
                              f"{lim.v_max}] soc=[{lim.soc_min},{lim.soc_max}]\nk,soc,i_a,v_v",
                              [run.k, run.soc, run.i_a, run.v]),
    }
    for name, (header, cols) in panels.items():
        np.savetxt(out / name, np.column_stack(cols), fmt=["%d"] + [_FMT] * (len(cols) - 1),
                   delimiter=",", header=header)
