"""The four workloads: inputs made from the seed, set-up, timed rounds, checks
and metrics.

A round is the unit a run repeats: one ``run_day`` over the workload's stretch
of the planned day (closed-loop workloads), or ``feederdispatch plan`` for each
of PLAN_DAYS consecutive days (``plan_days``). Every round of a run has the
same inputs and repeats the same operations, and a run attempts whole rounds
only, so the share of failed operations is the same in every run.

Before the first timed round, one short unmeasured run warms the caches and the
code paths. The timing of an operation is the upper quartile of its identical
repeats in the run. On a shared 2-vCPU virtual machine, contention from outside
the VM set the speed: most of the time the host was contended, and in bursts
of seconds to a minute the same code ran up to 1.6x faster. The fastest repeat
depended on whether a run caught a burst, and the median repeat flipped between
the two speeds when bursts filled about half of a run. The upper quartile
stays on the contended speed unless bursts fill three quarters of the run; in
recorded rounds its spread between runs was 0.5-0.8x that of the median.
"""

from __future__ import annotations

import contextlib
import io
import resource
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer, install_layers

MIN_ROUNDS = 3          # measured repeats of every operation, at the least
MIN_TRACED_ROUNDS = 2   # the same in a traced run, where every other round is traced
REPEAT_Q = 75           # percentile of an operation's repeats that gives its time
SETUP_EVERY_S = 2.0     # set-up samples are spread over the run
SAMPLE_EVERY = 10       # traced run: check every 10th step of one round
HISTORY = (7, 60)       # synthesize_history(seed, days) of the ROADMAP scenario
RADIATION = 4.0
STEPS_PER_SLOT = 30
# Every closed-loop run replays the ROADMAP scenario (run_day seed 0: circuit
# perturbation and measurement/actuation noise), whatever --seed says. The
# perturbation seed changed a rate_bound round's Newton iterations 7x. The
# noise seed decides whether 9 or 12 of day_track's 1080 steps fall in the
# ~215-iteration Newton tail, which moved its p99 iterations from 126 to 214;
# soc_floor's failed steps must be the same share in every run.
PLANT_SEED = 0
PLAN_YEAR = 2017        # plan_days plans the days after its 2016 history
PLAN_DAYS = 14


@dataclass(frozen=True)
class ClosedLoop:
    """A stretch [slot_lo, slot_hi) of the planned day, tracked in closed loop."""

    slot_lo: int
    slot_hi: int
    soe0: float                   # kWh at 00:00, for the day-ahead plan
    initial_soc: float            # plant SOC at the start of the stretch
    realization: float = 1.0      # realized prosumption / forecast
    rate_limit_a: float | None = None
    all_solved: bool = True


CLOSED_LOOP = {
    # 08:00-11:00: morning ramp into the PV dip; only throughput binds
    "day_track": ClosedLoop(96, 132, soe0=250.0, initial_soc=0.5),
    # 08:00-09:00 with a +-5 A/step ramp limit: rate rows bind on many steps
    "rate_bound": ClosedLoop(96, 108, soe0=250.0, initial_soc=0.5, rate_limit_a=5.0),
    # 08:00-09:00 at SOC 0.12 with prosumption 10% above the forecast; keeps
    # the solver failures of mpc._closest_feasible
    "soc_floor": ClosedLoop(96, 108, soe0=60.0, initial_soc=0.12, realization=1.1,
                            all_solved=False),
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _repeat(values, axis=None):
    """Upper quartile of repeated timings (see the module docstring)."""
    return np.percentile(values, REPEAT_Q, axis=axis)


@dataclass
class Round:
    seconds: float
    traced: bool
    output: object                # SimulationRun, or the day/exit code/seconds rows


@dataclass
class Measurement:
    prepared: object = None
    rounds: list[Round] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    plan_seconds: list[float] = field(default_factory=list)

    def measured(self, trace: bool) -> list[Round]:
        return [r for r in self.rounds if r.traced == trace]


@dataclass
class Outcome:
    """What a run hands to the result line."""

    attempted: int
    failed: int
    errors: list[str]
    metrics: dict[str, tuple[float, str]]
    tracer: Tracer | None = None


def _measure(setup, warm_up, do_round, seconds: float, tracer: Tracer | None = None,
             on_mpc_solve=None) -> Measurement:
    """Set up, warm up once (untimed), then repeat rounds until ``seconds`` have
    passed and MIN_ROUNDS (traced: MIN_TRACED_ROUNDS) rounds were measured.

    The set-up runs again, timed, after any round that ends SETUP_EVERY_S or
    more after the previous set-up; the rounds keep the first set-up's inputs,
    which every repeat reproduces. Without a tracer every round is measured;
    with one, rounds alternate untraced/traced, the traced ones are measured,
    and the untraced ones give the tracing overhead.
    """
    def timed(fn, traced: bool, round_id: int):
        if traced:
            tracer.round = round_id
            install_layers(tracer, on_mpc_solve)
        try:
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0
        finally:
            if traced:
                tracer.close()

    def set_up():
        (prepared, plan_s), wall = timed(setup, tracer is not None, 0)
        m.setup_seconds.append(wall)
        m.plan_seconds.append(plan_s)
        return prepared

    m = Measurement()
    m.prepared = set_up()
    warm_up(m.prepared)
    last_setup = start = time.perf_counter()
    trace = tracer is not None
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    while time.perf_counter() - start < seconds or len(m.measured(trace)) < min_rounds:
        traced = trace and len(m.rounds) % 2 == 1
        out, wall = timed(lambda: do_round(m.prepared), traced, len(m.rounds) + 1)
        m.rounds.append(Round(wall, traced, out))
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            set_up()
            last_setup = time.perf_counter()
    return m


class _Sampler:
    """Keeps (problem, decision) of every SAMPLE_EVERY-th step of the first
    traced round, for the trajectory and optimality checks."""

    def __init__(self):
        self.samples = []
        self._count = 0
        self._steps = None

    def __call__(self, args, decision):
        if self._steps is None or self._count < self._steps:
            if self._count % SAMPLE_EVERY == 0:
                self.samples.append((args[0], decision))
        self._count += 1

    def close_after(self, steps: int) -> None:
        if self._steps is None:
            self._steps = steps


# ---------------------------------------------------------------------------
# Closed-loop workloads
# ---------------------------------------------------------------------------


@dataclass
class _Prepared:
    plan: object
    trace_kw: np.ndarray
    bank: object
    grid: object
    limits: object


def _closed_loop_setup(wl: ClosedLoop):
    """History, model bank, forecast and plan of the day, and the 10-s trace,
    cut to the workload's stretch. Returns (inputs, planner seconds)."""
    from feederdispatch import dayahead, forecast, sim
    from feederdispatch.battery import ModelBank
    from feederdispatch.mpc import MpcLimits

    history = forecast.synthesize_history(*HISTORY)
    bank = ModelBank()
    last = history[-1]
    doy = last.day_of_year + 1
    target = forecast.TargetDayInfo(year=last.year, day_of_year=doy,
                                    radiation_forecast=RADIATION,
                                    is_working_day=forecast.is_working_dayofyear(doy))
    t0 = time.perf_counter()
    fc = forecast.forecast_day(history, target)
    plan = dayahead.plan_day(fc, dayahead.DayAheadConfig(soe0=wl.soe0))
    plan_s = time.perf_counter() - t0
    trace = sim.step_trace(fc.point * wl.realization, np.random.default_rng(3), 1.0, 0.9)

    limits = MpcLimits()
    if wl.rate_limit_a is not None:
        limits = replace(limits, di_min=-wl.rate_limit_a, di_max=wl.rate_limit_a)
    return _cut(plan, trace, bank, limits, wl.slot_lo, wl.slot_hi), plan_s


def _cut(plan, trace_kw, bank, limits, lo: int, hi: int) -> _Prepared:
    """The plan and the 10-s trace cut to the slots [lo, hi)."""
    from feederdispatch import forecast
    from feederdispatch.timegrid import TimeGrid

    fc = plan.forecast
    cut = forecast.ProsumptionForecast(point=fc.point[lo:hi],
                                       envelope_low=fc.envelope_low[lo:hi],
                                       envelope_high=fc.envelope_high[lo:hi],
                                       members=fc.members)
    return _Prepared(plan=replace(plan, p_hat=plan.p_hat[lo:hi], forecast=cut),
                     trace_kw=trace_kw[STEPS_PER_SLOT * lo:STEPS_PER_SLOT * hi],
                     bank=bank, grid=TimeGrid(n_slots=hi - lo,
                                              n_steps=STEPS_PER_SLOT * (hi - lo)),
                     limits=limits)


def _closed_loop_checks(wl: ClosedLoop, rounds: list[Round], samples) -> list[str]:
    first = rounds[0].output
    errors = []
    for r in rounds:
        run = r.output
        errors += checks.composition(run)
        if not (np.array_equal(run.i_a, first.i_a) and run.status == first.status):
            errors.append("rounds with the same inputs gave different currents "
                          "or statuses")
        if wl.all_solved:
            errors += checks.all_solved(run)
    for problem, decision in samples:
        if decision.status == "solved":
            errors += checks.trajectory(problem, decision.i_traj)
            errors += checks.optimality(problem, decision.i_traj)[0]
        elif decision.status == "infeasible-clipped":
            errors += checks.trajectory(problem, decision.i_traj, throughput=False)
    return errors


def run_closed_loop(name: str, seconds: float, trace: bool) -> Outcome:
    from feederdispatch import sim

    wl = CLOSED_LOOP[name]
    tracer = Tracer() if trace else None
    sampler = _Sampler()
    plant_cfg = sim.PlantConfig()

    def run(prep):
        return sim.run_day(prep.plan, plant_cfg, sim.InitState(soc=wl.initial_soc),
                           trace_kw=prep.trace_kw, seed=PLANT_SEED,
                           rng=np.random.default_rng([PLANT_SEED, 1]),
                           plant=sim.BatteryPlant(plant_cfg, PLANT_SEED, wl.initial_soc),
                           bank=prep.bank, limits=prep.limits, grid=prep.grid)

    def warm_up(prep):
        # the first slot of the stretch: its first steps ran ~16 % slower in
        # the first round of a process than in later rounds
        run(_cut(prep.plan, prep.trace_kw, prep.bank, prep.limits, 0, 1))

    def do_round(prep):
        out = run(prep)
        sampler.close_after(out.k.size)
        return out

    m = _measure(lambda: _closed_loop_setup(wl), warm_up, do_round, seconds, tracer,
                 sampler)
    rss = _peak_rss_mb()
    prep, measured = m.prepared, m.measured(trace)
    solve = np.array([r.output.solve_seconds for r in measured])
    step_ms = 1e3 * _repeat(solve, axis=0)
    failed = sum(s == "solver-failure" for r in m.rounds for s in r.output.status)
    rmse = checks.slot_rmse(m.rounds[0].output, prep.plan.p_hat, prep.plan.forecast.point)
    errors = checks.tracking(*rmse) + _closed_loop_checks(wl, m.rounds, sampler.samples)
    if trace and not sampler.samples:
        errors.append("traced run sampled no steps")
    metrics = {
        "setup_s": (float(np.median(m.setup_seconds)), "s"),
        "steps_per_s": (step_ms.size / float(_repeat([r.seconds for r in measured])),
                        "steps/s"),
        "step_p50_ms": (_pct(step_ms, 50), "ms"),
        "step_p99_ms": (_pct(step_ms, 99), "ms"),
        "plans_per_s": (1.0 / float(_repeat(m.plan_seconds)), "plans/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    if trace:
        metrics = layer_metrics(tracer, m.rounds, rmse)
    return Outcome(attempted=sum(r.output.k.size for r in m.rounds), failed=failed,
                   errors=errors, metrics=metrics, tracer=tracer)


# ---------------------------------------------------------------------------
# plan_days
# ---------------------------------------------------------------------------


def _plan_days_setup(seed: int, history_path: Path):
    from feederdispatch import forecast

    forecast.save_history(history_path, forecast.synthesize_history(seed, 365))
    return history_path, 0.0


def _plan_argv(history: Path, out: Path, day: int) -> list[str]:
    return ["plan", "--history", str(history), "--out", str(out),
            "--target-day", str(day), "--target-year", str(PLAN_YEAR)]


def _quiet_main(argv) -> int:
    from feederdispatch import cli

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _plan_days_checks(history: Path, workdir: Path, days: list[int]) -> list[str]:
    """Every plan file: composition, worst-case SOE and power. The first,
    middle and last day are planned again with the forecast and plan captured:
    the file must come back byte for byte, the forecast must match its
    members, and the offset LP objective must match the independent LP."""
    from feederdispatch import cli

    cfg = cli.dayahead_config({})
    errors = []
    for day in days:
        errors += [f"day {day}: {e}" for e in
                   checks.plan_columns(checks.read_plan(workdir / f"plan-{day}.csv"), cfg)]
    for day in sorted({days[0], days[len(days) // 2], days[-1]}):
        captured = {}
        again = workdir / f"check-{day}.csv"
        with Tracer() as capture:
            capture.wrap(cli, "forecast_day", "forecast.forecast_day",
                         note=lambda a, r: captured.setdefault("forecast", r))
            capture.wrap(cli, "plan_day", "dayahead.plan_day",
                         note=lambda a, r: captured.setdefault("plan", r))
            rc = _quiet_main(_plan_argv(history, again, day))
        if rc != 0:
            errors.append(f"day {day}: plan exited {rc} when repeated")
            continue
        if again.read_bytes() != (workdir / f"plan-{day}.csv").read_bytes():
            errors.append(f"day {day}: repeated plan differs from the timed one")
        fc, plan = captured["forecast"], captured["plan"]
        cols = checks.read_plan(again)
        errors += [f"day {day}: {e}" for e in checks.forecast_members(fc)]
        if not (np.array_equal(cols["l_hat"], fc.point)
                and np.array_equal(cols["p_hat"], plan.p_hat)):
            errors.append(f"day {day}: plan file does not hold the computed plan")
        if not np.array_equal(plan.p_hat, plan.forecast.point + plan.offset.f):
            errors.append(f"day {day}: p_hat != point + f")
        reference = checks.offset_lp_objective(cols["l_hat"], cols["env_low"],
                                               cols["env_high"], cfg)
        errors += [f"day {day}: {e}" for e in
                   checks.lp_objective(plan.offset.objective, reference)]
    return errors


def run_plan_days(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    tracer = Tracer() if trace else None
    days = list(range(1, PLAN_DAYS + 1))
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)

        def do_round(history):
            rows = []
            for day in days:
                t0 = time.perf_counter()
                rc = _quiet_main(_plan_argv(history, workdir / f"plan-{day}.csv", day))
                rows.append((rc, time.perf_counter() - t0))
            return rows

        def warm_up(history):
            _quiet_main(_plan_argv(history, workdir / "warm-up.csv", days[0]))

        m = _measure(lambda: _plan_days_setup(seed, workdir / "history.csv"), warm_up,
                     do_round, seconds, tracer)
        rss = _peak_rss_mb()
        failed = sum(rc != 0 for r in m.rounds for rc, _ in r.output)
        ok_days = [d for d, (rc, _) in zip(days, m.rounds[-1].output) if rc == 0]
        errors = (_plan_days_checks(m.prepared, workdir, ok_days) if ok_days
                  else ["no plan succeeded"])
    measured = m.measured(trace)
    plan_ms = 1e3 * _repeat([[s for _, s in r.output] for r in measured], axis=0)
    rate = PLAN_DAYS / float(_repeat([r.seconds for r in measured]))
    metrics = {
        "setup_s": (float(np.median(m.setup_seconds)), "s"),
        "steps_per_s": (rate, "steps/s"),
        "step_p50_ms": (_pct(plan_ms, 50), "ms"),
        "step_p99_ms": (_pct(plan_ms, 99), "ms"),
        "plans_per_s": (rate, "plans/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    if trace:
        metrics = layer_metrics(tracer, m.rounds, None)
    return Outcome(attempted=PLAN_DAYS * len(m.rounds), failed=failed, errors=errors,
                   metrics=metrics, tracer=tracer)


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, rounds: list[Round], rmse) -> dict:
    """Per-layer figures from the spans of the traced rounds (and, for the
    planner, of the set-up). Counts are per round. A layer the workload does
    not call reads 0."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    spans = {name: [x.seconds for x in tracer.named(name)] for name in
             ("forecast.load_history", "forecast.forecast_day", "dayahead.plan_day",
              "dayahead.save_plan", "solver.lp", "battery.kalman_update",
              "mpc.build_problem", "mpc.solve", "solver.qcqp", "sim.plant_apply",
              "sim.run_day")}
    us = lambda name, q=50: 1e6 * _pct(spans[name], q)
    ms = lambda name, q=50: 1e3 * _pct(spans[name], q)
    qcqp = [x.note for x in tracer.named("solver.qcqp")]
    optimal = [note for note in qcqp if note[0] == "optimal"]
    run_day_self = [tracer.self_seconds(j) for j, x in enumerate(tracer.spans)
                    if x.name == "sim.run_day"]
    run = traced[0].output if hasattr(traced[0].output, "status") else None
    status = run.status if run else []
    return {
        "forecast.load_history_ms": (ms("forecast.load_history"), "ms"),
        "forecast.forecast_day_ms": (ms("forecast.forecast_day"), "ms"),
        "dayahead.plan_day_ms": (ms("dayahead.plan_day"), "ms"),
        "dayahead.save_plan_ms": (ms("dayahead.save_plan"), "ms"),
        "solver.lp_ms": (ms("solver.lp"), "ms"),
        "solver.lp_iterations": (_pct([x.note[1] for x in tracer.named("solver.lp")], 50),
                                 "count"),
        "battery.kalman_update_us": (us("battery.kalman_update"), "us"),
        "mpc.build_problem_us_p50": (us("mpc.build_problem"), "us"),
        "mpc.build_problem_us_p99": (us("mpc.build_problem", 99), "us"),
        "mpc.solve_ms_p50": (ms("mpc.solve"), "ms"),
        "mpc.solve_ms_p99": (ms("mpc.solve", 99), "ms"),
        "solver.qcqp_ms_p50": (ms("solver.qcqp"), "ms"),
        "solver.qcqp_ms_p99": (ms("solver.qcqp", 99), "ms"),
        "solver.qcqp_iterations_p50": (_pct([n[1] for n in qcqp], 50), "count"),
        "solver.qcqp_iterations_p99": (_pct([n[1] for n in qcqp], 99), "count"),
        "solver.qcqp_calls": (len(qcqp) / len(traced), "count"),
        "solver.qcqp_optimal_ratio": (len(optimal) / len(qcqp) if qcqp else 0.0,
                                      "ratio"),
        "solver.qcqp_kkt_max": (max((n[2] for n in optimal), default=0.0), "1"),
        "mpc.solved_steps": (float(status.count("solved")), "count"),
        "mpc.clipped_steps": (float(status.count("infeasible-clipped")), "count"),
        "mpc.failed_steps": (float(status.count("solver-failure")), "count"),
        "mpc.rate_active_steps": (float(sum("rate" in a for a in run.active))
                                  if run else 0.0, "count"),
        "sim.plant_apply_us": (us("sim.plant_apply"), "us"),
        "sim.run_day_ms": (ms("sim.run_day"), "ms"),
        "sim.run_day_self_ms": (1e3 * _pct(run_day_self, 50), "ms"),
        "sim.dispatch_rmse_kw": (rmse[0] if rmse else 0.0, "kW"),
        "sim.no_dispatch_rmse_kw": (rmse[1] if rmse else 0.0, "kW"),
        "trace.overhead_ms": (1e3 * (_pct([r.seconds for r in traced], 50)
                                     - _pct([r.seconds for r in untraced], 50)), "ms"),
    }
