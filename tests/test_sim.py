import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from feederdispatch import sim, solver
from feederdispatch.battery import (TABLE1, KalmanState, ModelBank, reduce_and_discretize,
                                    voltage_step)
from feederdispatch.dayahead import DayAheadConfig, DispatchPlan, OffsetPlan, plan_day
from feederdispatch.forecast import (ProsumptionForecast, point_forecast,
                                     synthesize_history)
from feederdispatch.mpc import MpcLimits
from feederdispatch.sim import (BatteryPlant, ErrorStats, InitState, PlantConfig,
                                PlantStateError, SimulationRun, format_report,
                                peak_shave_check, run_day, run_multi_day,
                                step_trace, tracking_report, write_run_artifacts)
from feederdispatch.timegrid import TimeGrid

from oracles import matrix_voltage_step, mpc_constraints_satisfied, scalar_step_trace

grid = TimeGrid()


def _flat_plan(level=150.0):
    n = grid.n_slots
    fc = ProsumptionForecast(np.full(n, level), np.zeros(n), np.zeros(n), members=())
    offset = OffsetPlan(f=np.zeros(n), objective=0.0,
                        certificate=solver.SolveCertificate("optimal"))
    return DispatchPlan(p_hat=fc.point.copy(), forecast=fc, offset=offset)


@pytest.fixture(scope="module")
def noiseless_day(bank_module):
    plan = _flat_plan(150.0)
    trace = step_trace(plan.forecast.point)
    run = run_day(plan, PlantConfig.noiseless(), InitState(soc=0.5),
                  trace_kw=trace, seed=1, bank=bank_module)
    return plan, run


@pytest.fixture(scope="module")
def bank_module():
    return ModelBank()


def test_gcp_composition_exact(noiseless_day):
    _, run = noiseless_day
    assert np.array_equal(run.p_kw, run.l_kw + run.b_kw)


def test_self_consistency_flat_day(noiseless_day):
    # matched plant, zero noise, persistence-exact trace: tracking is limited
    # only by the solver tolerance
    plan, run = noiseless_day
    p_avg = run.slot_average(run.p_kw)
    assert np.abs(plan.p_hat - p_avg).max() <= 1e-3
    assert all(s == "solved" for s in run.status)


def test_b_respects_power_envelope(noiseless_day):
    _, run = noiseless_day
    lim = MpcLimits()
    bound = max(abs(lim.i_min), lim.i_max) * lim.v_max / 1000.0
    assert np.abs(run.b_kw).max() <= bound + 1e-9


def test_run_determinism(bank_module):
    plan = _flat_plan(140.0)
    rng = np.random.default_rng(99)
    trace = step_trace(plan.forecast.point, rng, noise_std=1.0)
    cfg = PlantConfig()
    runs = [run_day(plan, cfg, InitState(soc=0.5), trace_kw=trace, seed=42,
                    bank=bank_module) for _ in range(2)]
    for field in ("l_kw", "b_kw", "p_kw", "soc", "v", "i_a", "e_kwh"):
        assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field))


def test_disabled_battery_reproduces_forecast_error(bank_module):
    plan = _flat_plan(130.0)
    rng = np.random.default_rng(5)
    trace = step_trace(plan.forecast.point, rng, noise_std=2.0)
    run = run_day(plan, PlantConfig.noiseless(), InitState(soc=0.5), trace_kw=trace,
                  seed=5, bank=bank_module, battery_enabled=False)
    assert np.all(run.i_a == 0.0)
    assert np.array_equal(run.p_kw, run.l_kw)
    rep = tracking_report(run, plan)
    assert rep.dispatch.rmse == pytest.approx(rep.no_dispatch.rmse, abs=1e-12)
    assert all(s == "disabled" for s in run.status)


def test_error_stats():
    stats = ErrorStats.of(np.zeros(10))
    assert (stats.rmse, stats.mean, stats.max_abs) == (0.0, 0.0, 0.0)
    stats = ErrorStats.of(np.full(10, 1.0))
    assert (stats.rmse, stats.mean, stats.max_abs) == (1.0, 1.0, 1.0)
    rng = np.random.default_rng(0)
    err = rng.standard_normal(288)
    stats = ErrorStats.of(err)
    assert stats.max_abs >= stats.rmse >= abs(stats.mean)


def test_tracking_report_constant_offset(bank_module):
    plan = _flat_plan(120.0)
    n = grid.n_steps
    run = SimulationRun(k=np.arange(n), l_kw=np.full(n, 119.0),
                        b_kw=np.zeros(n), p_kw=np.full(n, 119.0),
                        soc=np.full(n, 0.5),
                        v=np.full(n, 650.0), i_a=np.zeros(n), e_kwh=np.zeros(n),
                        b_setpoint_kw=np.zeros(n),
                        status=["solved"] * n, active=["-"] * n,
                        solve_seconds=np.zeros(n), config={})
    rep = tracking_report(run, plan)
    assert rep.dispatch.rmse == pytest.approx(1.0)
    assert rep.dispatch.mean == pytest.approx(1.0)
    assert rep.dispatch.max_abs == pytest.approx(1.0)
    text = format_report(rep)
    assert "no dispatch" in text and "dispatch" in text


def test_peak_shave_check(bank_module):
    plan = _flat_plan(120.0)
    n = grid.n_steps
    p = np.full(n, 119.0)
    p[30 * 10:30 * 11] = 205.0        # one hot slot
    run = SimulationRun(k=np.arange(n), l_kw=p, b_kw=np.zeros(n), p_kw=p,
                        soc=np.full(n, 0.5),
                        v=np.full(n, 650.0), i_a=np.zeros(n), e_kwh=np.zeros(n),
                        b_setpoint_kw=np.zeros(n),
                        status=["solved"] * n, active=["-"] * n,
                        solve_seconds=np.zeros(n), config={})
    viol = peak_shave_check(run, p_max=200.0)
    assert len(viol) == 1 and viol[0].slot == 10
    assert viol[0].excess_kw == pytest.approx(5.0)
    # zero tolerance: the 287 slots exactly at 119 kW are not flagged, the hot
    # one is, with its excess measured from the cap
    viol = peak_shave_check(run, p_max=119.0, tol_kw=0.0)
    assert len(viol) == 1 and viol[0].slot == 10
    assert viol[0].avg_p_kw == 205.0
    assert viol[0].excess_kw == 86.0
    # a slot exactly at the cap is not a violation
    assert peak_shave_check(run, p_max=205.0, tol_kw=0.0) == []


def test_plant_state_error():
    plant = BatteryPlant(PlantConfig.noiseless(), seed=0, initial_soc=0.999)
    with pytest.raises(PlantStateError) as exc:
        for k in range(100):
            plant.apply_current(810.0, step=k)
    assert exc.value.step < 100
    assert "SOC" in str(exc.value)


@pytest.mark.parametrize("ar", [1.0, 1.5, -1.0, math.nan])
def test_plant_config_rejects_a_non_stationary_step_noise(ar):
    # AR(1) noise with |ar| >= 1 has no stationary variance: the trace would be inf or NaN
    with pytest.raises(ValueError, match=f"step_noise_ar {ar} outside"):
        PlantConfig(step_noise_ar=ar)


def test_plant_config_accepts_a_stationary_step_noise():
    for ar in (-0.99, 0.0, 0.9, 0.999):
        assert PlantConfig(step_noise_ar=ar).step_noise_ar == ar


def test_plant_converter_inversion():
    plant = BatteryPlant(PlantConfig.noiseless(), seed=0, initial_soc=0.5)
    for cmd in (-150.0, -20.0, 0.0, 35.0, 180.0):
        i = plant.current_for_power(cmd)
        m = plant.model
        v = float(m.c @ plant.x + m.d_i * i + m.d_1)
        assert 0.98 * v * i / 1000.0 == pytest.approx(cmd, abs=1e-9)


@pytest.mark.parametrize("params", TABLE1, ids=lambda p: p.soc_range)
def test_float_plant_matches_matrix_oracle(params, rng):
    # voltage_step, measure_voltage and current_for_power on Python floats
    # against the numpy matrix form, on random states, currents and commands;
    # every other draw replaces the circuit's diagonal a and c of ones by full
    # random ones. With the circuit's own a and c every product of the matrix
    # form is exact or a single rounding in the same order, so the results are
    # equal bit for bit. With full ones, BLAS may fuse a multiply-add or reorder
    # a sum, so they agree to 1e-12 of the size of their terms.
    model = reduce_and_discretize(params)
    plant = BatteryPlant(PlantConfig.noiseless(), seed=0, initial_soc=0.5)
    for j in range(500):
        full = j % 2 == 1
        m = replace(model, a=rng.normal(size=(2, 2)) * 0.6, c=rng.normal(size=2)) \
            if full else model
        x = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 2)
        i, cmd = float(rng.uniform(-810, 810)), float(rng.uniform(-400, 400))
        x_ref, v_ref = matrix_voltage_step(m, x, i)
        v0 = matrix_voltage_step(m, x, 0.0)[1]
        root = np.sqrt(max(v0 * v0 + 4.0 * m.d_i * 1000.0 * cmd / sim.CONVERTER_EFF, 0.0))
        i_ref = (-v0 + root) / (2.0 * m.d_i)
        x_new, v = voltage_step(m, x, i)
        plant.model, plant.x, plant.last_i = m, x, i
        got = (v, plant.measure_voltage(None, PlantConfig.noiseless()),
               plant.current_for_power(cmd))
        if not full:
            assert x_new.tobytes() == x_ref.tobytes()
            assert got == (v_ref, v_ref, i_ref)
            continue
        x_size = np.abs(m.a) @ np.abs(x) + np.abs(m.b_i * i) + np.abs(m.b_1)
        v_size = float(np.abs(m.c) @ np.abs(x)) + abs(m.d_i * i) + abs(m.d_1)
        assert np.all(np.abs(x_new - x_ref) <= 1e-12 * x_size)
        assert abs(got[0] - v_ref) <= 1e-12 * v_size
        assert abs(got[1] - v_ref) <= 1e-12 * v_size
        assert abs(got[2] - i_ref) <= 1e-12 * (abs(v0) + root) / (2.0 * m.d_i)


def test_plant_perturbation_bounds():
    from feederdispatch.battery import TABLE1
    from feederdispatch.sim import perturbed_table
    rng = np.random.default_rng(3)
    table = perturbed_table(TABLE1, 0.05, rng)
    for base, pert in zip(TABLE1, table):
        for field in ("e", "rs", "r1", "c1", "r2", "c2", "r3", "c3"):
            ratio = getattr(pert, field) / getattr(base, field)
            assert 0.95 <= ratio <= 1.05
        assert (pert.k1, pert.sigma2) == (base.k1, base.sigma2)
    assert perturbed_table(TABLE1, 0.0, rng) is TABLE1


def test_step_trace_exact_repeat():
    profile = np.arange(288, dtype=float)
    trace = step_trace(profile)
    assert trace.shape == (8640,)
    assert np.array_equal(trace.reshape(288, 30).mean(axis=1), profile)
    rng = np.random.default_rng(0)
    noisy = step_trace(profile, rng, noise_std=1.0)
    assert not np.array_equal(noisy, trace)


@pytest.mark.parametrize("noise_std,ar", [(0.0, 0.9), (1.0, 0.9), (2.5, 0.5)])
def test_step_trace_matches_scalar_oracle(noise_std, ar):
    profile = synthesize_history(3, 15)[-1].profile
    for seed in (0, 1):
        assert np.array_equal(step_trace(profile, np.random.default_rng(seed), noise_std, ar),
                              scalar_step_trace(profile, np.random.default_rng(seed),
                                                noise_std, ar))


def _check_steps_csv(path, run):
    """Every row of steps.csv reads as 12 fields with a plain CSV reader; every
    numeric column parses back bit for bit to the run's arrays, the strings to
    its statuses and active groups, and the horizon column is the steps left in
    the slot, 30 - k % 30."""
    with open(path, newline="") as fh:
        assert next(fh) == "# feederdispatch run v1\n"
        header, *rows = list(csv.reader(fh))
    assert header == ["k", "l_kw", "b_kw", "p_kw", "soc", "v_v", "i_a", "e_kwh", "horizon",
                      "status", "active", "b_setpoint_kw"]
    assert all(len(row) == 12 for row in rows)
    cols = list(zip(*rows))
    assert len(cols[0]) == run.k.size
    assert np.array_equal(np.array(cols[0], dtype=int), run.k)
    for col, series in zip(cols[1:8] + cols[11:], ("l_kw", "b_kw", "p_kw", "soc", "v",
                                                   "i_a", "e_kwh", "b_setpoint_kw")):
        assert np.array_equal(np.array(col, dtype=float), getattr(run, series)), series
    assert np.array_equal(np.array(cols[8], dtype=int), 30 - run.k % 30)
    assert list(cols[9]) == run.status and list(cols[10]) == run.active


def test_artifacts_roundtrip(tmp_path, noiseless_day, bank_module):
    plan, run = noiseless_day
    rep = tracking_report(run, plan)
    write_run_artifacts(tmp_path, run, plan, rep, {"seed": 1}, emit_plots=True,
                        limits=MpcLimits())
    for name in ("steps.csv", "plan.csv", "report.txt", "config.json",
                 "forecast_panel.csv", "tracking_panel.csv", "battery_panel.csv"):
        assert (tmp_path / name).exists()
    _check_steps_csv(tmp_path / "steps.csv", run)
    # plot data round-trips exactly
    data = np.array([[float(v) for v in l.split(",")[1:]]
                     for l in (tmp_path / "tracking_panel.csv").read_text().splitlines()
                     if not l.startswith("#")])
    assert np.array_equal(data[:, 0], plan.p_hat)
    assert np.array_equal(data[:, 1], run.slot_average(run.p_kw))
    assert (tmp_path / "battery_panel.csv").read_text().splitlines()[:2] == \
        ["# limits: i=[-810.0,810.0] v=[530.0,750.0] soc=[0.1,0.9]", "# k,soc,i_a,v_v"]


# ---------------------------------------------------------------------------
# multi-day chains
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_day_chain():
    history = synthesize_history(seed=7, days=45)
    cfg = DayAheadConfig(soe0=250.0)
    results = run_multi_day(2, history, cfg, MpcLimits(), PlantConfig(),
                            seed=3, initial_soc=0.5)
    return results


def test_multi_day_soc_continuity(two_day_chain):
    results = two_day_chain
    assert len(results) == 2
    assert results[1].run.initial_soc == results[0].run.soc[-1]


def test_multi_day_reports(two_day_chain):
    for res in two_day_chain:
        assert res.report.no_dispatch.rmse > res.report.dispatch.rmse
        assert res.run.soc.min() >= 0.05


@pytest.mark.parametrize("last_doy", [365, 366])
def test_multi_day_starts_the_day_after_the_history(history, monkeypatch, last_doy):
    # a chain after a history ending on day 365, or on a leap year's day 366,
    # starts on day 1 of the next year
    class Planned(Exception):
        pass

    def stop(history, target):
        raise Planned(target)

    first = last_doy - len(history) + 1
    days = [replace(d, year=2016, day_of_year=first + i) for i, d in enumerate(history)]
    monkeypatch.setattr(sim, "forecast_day", stop)
    with pytest.raises(Planned) as exc:
        run_multi_day(2, days, DayAheadConfig(soe0=250.0), MpcLimits(), PlantConfig())
    target = exc.value.args[0]
    assert (target.year, target.day_of_year) == (2017, 1)


def test_chain_hands_the_controller_state_to_the_next_day(monkeypatch):
    # day 1's first Kalman update starts from the state day 0's last update
    # returned, and its first problem sees day 0's last measured load (with no
    # GCP measurement noise, p - b of day 0's last step), not the new forecast
    updates, telemetry = [], []
    kalman_update, build_problem = sim.kalman_update, sim.build_problem

    def recording_update(state, *args):
        updates.append((state, kalman_update(state, *args)))
        return updates[-1][1]

    def recording_build(k, plan, tele, *args):
        telemetry.append(tele)
        return build_problem(k, plan, tele, *args)

    monkeypatch.setattr(sim, "kalman_update", recording_update)
    monkeypatch.setattr(sim, "build_problem", recording_build)
    history = synthesize_history(seed=7, days=45)
    day0, day1 = run_multi_day(2, history, DayAheadConfig(soe0=250.0), MpcLimits(),
                               replace(PlantConfig(), power_noise_kw=0.0), seed=3)
    n = grid.n_steps
    assert len(updates) == len(telemetry) == 2 * n
    assert updates[n][0] is updates[n - 1][1]
    assert not np.array_equal(updates[n][0].x, KalmanState.initial().x)
    last_load = day0.run.p_kw[-1] - day0.run.b_kw[-1]
    assert telemetry[n].last_load == last_load
    assert last_load != day1.plan.forecast.point[0]
    assert telemetry[0].last_load == day0.plan.forecast.point[0]


def test_offset_sign_follows_stored_energy(day_forecast):
    # planning from a nearly full battery biases the plan to discharge,
    # from a nearly empty one to charge
    high = plan_day(day_forecast, DayAheadConfig(soe0=430.0))
    low = plan_day(day_forecast, DayAheadConfig(soe0=70.0))
    assert high.offset.f.mean() < 0.0
    assert low.offset.f.mean() > 0.0


def test_three_day_perfect_forecast_soc_band():
    # zero forecast error and no noise: the battery stays near its start
    history = synthesize_history(seed=11, days=45)
    cfg = DayAheadConfig(soe0=250.0)
    plant = PlantConfig.noiseless()
    results = run_multi_day(3, history, cfg, MpcLimits(), plant, seed=8,
                            initial_soc=0.5)
    for res in results:
        assert np.abs(res.run.soc - 0.5).max() <= 0.2


def _soc_floor_hour(day_forecast, bank, monkeypatch):
    """08:00-09:00 from SOC 0.12 with prosumption 10 % above the forecast, run
    in closed loop: (run, [(problem, decision)] of every step)."""
    lo, hi = 96, 108
    plan = plan_day(day_forecast, DayAheadConfig(soe0=60.0))
    trace = step_trace(day_forecast.point * 1.1, np.random.default_rng(3), 1.0, 0.9)
    fc = plan.forecast
    hour = DispatchPlan(p_hat=plan.p_hat[lo:hi], offset=plan.offset,
                        forecast=ProsumptionForecast(fc.point[lo:hi], fc.envelope_low[lo:hi],
                                                     fc.envelope_high[lo:hi], members=()))
    hour_grid = TimeGrid(n_slots=hi - lo, n_steps=30 * (hi - lo))
    steps = []
    sim_solve = sim.solve

    def recording_solve(problem):
        decision = sim_solve(problem)
        steps.append((problem, decision))
        return decision

    with monkeypatch.context() as m:
        m.setattr(sim, "solve", recording_solve)
        run = run_day(hour, PlantConfig(), InitState(soc=0.12),
                      trace_kw=trace[30 * lo:30 * hi], seed=0, bank=bank, grid=hour_grid)
    return run, steps


def test_soc_floor_hour_clips_without_failures(day_forecast, bank_module, monkeypatch):
    # the battery reaches soc_min and the discharge targets go out of reach.
    # Every such step must actuate its certified least-throughput trajectory,
    # never fall back to zero current
    run, steps = _soc_floor_hour(day_forecast, bank_module, monkeypatch)
    assert "solver-failure" not in run.status
    clipped = [(p, d) for p, d in steps if d.status == "infeasible-clipped"]
    assert clipped
    for p, d in clipped:
        assert d.path == "least-distance" and d.kkt_residual <= 1e-6
        assert mpc_constraints_satisfied(p, d.i_traj)


def test_soc_floor_guess_matches_nnls(day_forecast, monkeypatch):
    # the same hour with the least-distance relaxations bypassed: the clipped
    # steps certified on the rows their closed form breaks (no NNLS on all
    # rows) change their currents by rounding only, and every status stays
    all_rows = []
    nnls = solver._nnls

    def counting_nnls(p, h, rows=slice(None)):
        all_rows.append(isinstance(rows, slice))
        return nnls(p, h, rows)

    monkeypatch.setattr(solver, "_nnls", counting_nnls)
    run, steps = _soc_floor_hour(day_forecast, ModelBank(), monkeypatch)
    guessed_all_rows = sum(all_rows)
    all_rows.clear()
    monkeypatch.setattr(solver, "_guessed_least_distance", lambda *args: (None, 0))
    nnls_run, nnls_steps = _soc_floor_hour(day_forecast, ModelBank(), monkeypatch)
    clipped = [d for _, d in nnls_steps if d.status == "infeasible-clipped"]
    assert len(clipped) >= 30 and all(d.iterations == 1 for d in clipped)
    assert sum(all_rows) >= len(clipped) and sum(all_rows) - guessed_all_rows >= 30
    assert run.status == nnls_run.status
    assert np.abs(run.i_a - nnls_run.i_a).max() <= 1e-9


def _two_slot_plan(levels, shift):
    fc = ProsumptionForecast(np.asarray(levels, float), np.zeros(2), np.zeros(2), members=())
    offset = OffsetPlan(f=np.zeros(2), objective=0.0,
                        certificate=solver.SolveCertificate("optimal"))
    return DispatchPlan(p_hat=fc.point + np.asarray(shift, float), forecast=fc, offset=offset)


def _two_slot_run(bank, soc, levels, shift, limits=MpcLimits(di_min=-5.0, di_max=5.0)):
    """run_day on a grid of two slots, with a +-5 A/step rate limit by default."""
    trace = step_trace(np.asarray(levels, float), np.random.default_rng(3), 1.0, 0.9)
    return run_day(_two_slot_plan(levels, shift), PlantConfig(), InitState(soc=soc),
                   trace_kw=trace, seed=0, bank=bank, limits=limits,
                   grid=TimeGrid(n_slots=2, n_steps=60))


def test_warm_bank_reproduces_fresh_bank():
    # a stretch at the SOC floor with +-5 A/step (closed-form, parametric and
    # clipped steps) gives the same run with a fresh bank as with one whose
    # problem structures another stretch on the same models already built
    run = _two_slot_run
    warm = ModelBank()
    run(warm, 0.15, [80.0, 120.0], [-60.0, 30.0])
    run(warm, 0.5, [100.0, 100.0], [0.0, -150.0])
    # the checked stretch once with the default limits: its structures then
    # hold the right-hand-side template of those limits beside the +-5 A one
    run(warm, 0.1003, [100.0, 100.0], [0.0, -150.0], MpcLimits())
    kept = [tm.derived["mpc"] for tm in warm._cache.values() if tm.derived]
    assert sum("whitened" in s.qcqp._shared for s in kept) >= 20
    assert sum(len(s.b_const) == 2 for s in kept) >= 20
    fresh_run = run(ModelBank(), 0.1003, [100.0, 100.0], [0.0, -150.0])
    warm_run = run(warm, 0.1003, [100.0, 100.0], [0.0, -150.0])
    assert {"solved", "infeasible-clipped"} <= set(fresh_run.status)
    assert any("rate" in a for a in fresh_run.active)
    assert np.array_equal(fresh_run.i_a, warm_run.i_a)
    assert fresh_run.status == warm_run.status
    assert fresh_run.active == warm_run.active


def test_steps_csv_of_a_two_slot_grid(tmp_path):
    # the stretch of test_warm_bank_reproduces_fresh_bank, written as a run:
    # its horizons restart at each slot of the cut grid, and some of its steps
    # hold more than one active group
    levels, shift = [100.0, 100.0], [0.0, -150.0]
    run = _two_slot_run(ModelBank(), 0.1003, levels, shift)
    plan = _two_slot_plan(levels, shift)
    write_run_artifacts(tmp_path, run, plan, tracking_report(run, plan))
    _check_steps_csv(tmp_path / "steps.csv", run)
    assert any("," in a for a in run.active)


def test_run_day_calls_the_layers_by_the_names_sim_binds(monkeypatch):
    # perfbench times the closed loop's layers by wrapping these four names:
    # each must run once per step of the stretch
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("kalman_update", "build_problem", "solve"):
        count(sim, name)
    count(sim.BatteryPlant, "apply_power")
    run = _two_slot_run(ModelBank(), 0.5, [100.0, 100.0], [0.0, 10.0])
    assert run.k.size == 60
    assert calls == dict.fromkeys(["kalman_update", "build_problem", "solve", "apply_power"], 60)


def test_run_day_runs_the_plans_slots_and_checks_a_grid(bank_module):
    # a run covers its plan's slots; a grid is only checked against the plan
    plan = _two_slot_plan([100.0, 100.0], [0.0, 10.0])
    trace = step_trace(plan.forecast.point)
    run = run_day(plan, PlantConfig.noiseless(), InitState(soc=0.5), trace_kw=trace,
                  bank=bank_module)
    assert run.k.size == 60
    for bad in (TimeGrid(), TimeGrid(n_slots=3, n_steps=90)):
        with pytest.raises(ValueError, match="plan has 2 slots"):
            run_day(plan, PlantConfig.noiseless(), InitState(soc=0.5), trace_kw=trace,
                    bank=bank_module, grid=bad)
    with pytest.raises(ValueError, match="trace must have 60 values"):
        run_day(plan, PlantConfig.noiseless(), InitState(soc=0.5), trace_kw=trace[:59],
                bank=bank_module)


def test_nan_voltage_reading_runs_the_day_on_the_predicted_voltage(day_forecast,
                                                                    monkeypatch):
    # a missing voltage reading at step 100: the Kalman filter only predicts, the
    # set-point is converted with the model's voltage, and the day runs to its end
    plan = plan_day(day_forecast, DayAheadConfig(soe0=250.0))
    trace = step_trace(day_forecast.point, np.random.default_rng(3), 1.0, 0.9)

    def day():
        return run_day(plan, PlantConfig(), InitState(soc=0.5), trace_kw=trace, seed=0)

    clean = day()
    measure, readings, updates = BatteryPlant.measure_voltage, [], []
    kalman_update = sim.kalman_update

    def dropped_reading(self, rng, cfg):
        readings.append(measure(self, rng, cfg))    # its noise is drawn all the same
        return math.nan if len(readings) == 101 else readings[-1]

    def recording_update(state, m, i_prev, v_meas):
        updates.append((state, m, i_prev, kalman_update(state, m, i_prev, v_meas)))
        return updates[-1][-1]

    monkeypatch.setattr(BatteryPlant, "measure_voltage", dropped_reading)
    monkeypatch.setattr(sim, "kalman_update", recording_update)
    dropped = day()
    assert dropped.k.size == 8640 and np.isfinite(dropped.i_a).all()
    for name in ("i_a", "b_kw", "soc", "v", "b_setpoint_kw"):
        assert np.array_equal(getattr(dropped, name)[:100], getattr(clean, name)[:100]), name
    assert dropped.status[:100] == clean.status[:100]
    assert math.isfinite(dropped.b_setpoint_kw[100]) and dropped.status[100] == "solved"
    assert dropped.b_setpoint_kw[100] != clean.b_setpoint_kw[100]
    state, m, i_prev, predicted = updates[100]
    x_pred = m.a @ state.x + m.b_i * i_prev + m.b_1
    assert np.abs(predicted.x - x_pred).max() <= 1e-12 * np.abs(x_pred).max()
    assert not np.isnan(predicted.p).any()
