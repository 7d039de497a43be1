import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feederdispatch import dayahead, solver
from feederdispatch.dayahead import (DayAheadConfig, InfeasiblePlanError, _centred,
                                     _offset_lp, assemble_plan, beta_coeffs, load_plan,
                                     plan_day, save_plan, solve_offset,
                                     worst_case_soe)
from feederdispatch.forecast import (N_SLOTS, ProsumptionForecast, TargetDayInfo,
                                     forecast_day, is_working_dayofyear)

from oracles import (assembled_centred, bmat_offset_lp, csv_save_plan,
                     dayahead_plan_feasible, dense_offset_optimum, grid_offset_search)


def _cfg(**kw):
    base = dict(soe0=250.0, soe_min=50.0, soe_max=450.0, b_min=-250.0,
                b_max=250.0, eta=0.96)
    base.update(kw)
    return DayAheadConfig(**base)


def _view(l_hat, env_low, env_high):
    return ProsumptionForecast(l_hat, env_low, env_high, members=())


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(soe_min=500.0)
    with pytest.raises(ValueError):
        _cfg(b_min=10.0)
    with pytest.raises(ValueError):
        _cfg(eta=1.5)


def test_beta_coeffs():
    bp, bm = beta_coeffs(_cfg(eta=1.0))
    assert bp == pytest.approx(1.0 / 12.0)
    assert bm == pytest.approx(1.0 / 12.0)
    bp, bm = beta_coeffs(_cfg(eta=0.96))
    assert bp == pytest.approx(0.08)
    assert bm == pytest.approx(0.0868055555, rel=1e-8)
    for eta in (0.5, 0.8, 0.99, 1.0):
        bp, bm = beta_coeffs(_cfg(eta=eta))
        assert bp <= bm


def test_worst_case_soe_zero_power():
    fc = _view(np.zeros(4), np.zeros(4), np.zeros(4))
    low, high = worst_case_soe(np.zeros(4), fc, _cfg())
    assert low == pytest.approx(np.full(5, 250.0))
    assert high == pytest.approx(np.full(5, 250.0))


def test_worst_case_soe_single_slot_charge():
    fc = _view(np.zeros(1), np.array([12.0]) * 0.0, np.zeros(1))
    cfg = _cfg(eta=1.0)
    low, high = worst_case_soe(np.array([12.0]), fc, cfg)
    assert low[1] - low[0] == pytest.approx(1.0)   # 12 kW for 5 min at eta=1


def test_worst_case_soe_discharge_uses_beta_minus():
    fc = _view(np.zeros(1), np.zeros(1), np.zeros(1))
    cfg = _cfg(eta=0.96)
    low, _ = worst_case_soe(np.array([-12.0]), fc, cfg)
    assert low[1] - low[0] == pytest.approx(-12.0 * 0.0868055555, rel=1e-6)


def test_zero_envelopes_zero_offset():
    n = N_SLOTS
    fc = _view(np.full(n, 120.0), np.zeros(n), np.zeros(n))
    plan = solve_offset(fc, _cfg())
    assert np.abs(plan.f).max() <= 1e-7
    assert plan.objective == pytest.approx(0.0, abs=1e-6)


def test_low_initial_energy_forces_charging():
    n = 48
    fc = _view(np.full(n, 100.0), np.full(n, -10.0), np.full(n, 10.0))
    plan = solve_offset(fc, _cfg(soe0=50.0, soe_min=45.0, soe_max=455.0))
    assert plan.f.mean() > 0.1


def test_high_initial_energy_forces_discharging():
    n = 48
    fc = _view(np.full(n, 100.0), np.full(n, -10.0), np.full(n, 10.0))
    plan = solve_offset(fc, _cfg(soe0=450.0, soe_min=45.0, soe_max=455.0))
    assert plan.f.mean() < -0.1


def _random_small_instance(rng, tight=False):
    n = 3
    l_hat = rng.uniform(80.0, 150.0, n)
    env_high = rng.uniform(1.0, 5.0, n)
    env_low = -rng.uniform(1.0, 5.0, n)
    if tight:
        cfg = _cfg(soe0=50.0 + rng.uniform(0.5, 2.0), soe_min=50.0, soe_max=470.0,
                   b_min=-12.0, b_max=12.0)
    else:
        cfg = _cfg(soe0=rng.uniform(200.0, 300.0), b_min=-8.0, b_max=8.0)
    return l_hat, env_low, env_high, cfg


def test_three_slot_grid_oracle(rng):
    solved = 0
    for trial in range(6):
        l_hat, env_low, env_high, cfg = _random_small_instance(rng, tight=trial % 2 == 0)
        grid_obj, grid_f = grid_offset_search(l_hat, env_low, env_high, cfg)
        try:
            plan = solve_offset(_view(l_hat, env_low, env_high), cfg)
        except InfeasiblePlanError:
            assert grid_obj is None
            continue
        assert grid_obj is not None
        lp_obj = plan.objective
        assert lp_obj <= grid_obj + 1e-6
        assert grid_obj - lp_obj <= 0.7
        solved += 1
    assert solved >= 3


def test_lp_recursion_consistency(day_forecast):
    cfg = _cfg()
    plan = solve_offset(day_forecast, cfg)
    low, high = worst_case_soe(plan.f, day_forecast, cfg)
    assert np.all(low <= high + 1e-9)
    assert np.all(low[1:] >= cfg.soe_min - 1e-6)
    assert np.all(high[1:] <= cfg.soe_max + 1e-6)


@pytest.mark.parametrize("kw", [{}, {"p_max": 150.0}, {"soe0": 60.0, "soe_backoff": 10.0,
                                                      "power_backoff": 5.0}])
def test_sparse_offset_lp_matches_dense_oracle(day_forecast, kw):
    fc, cfg = day_forecast, _cfg(**kw)
    sol, cert = solver.solve_lp(_offset_lp(fc.point, fc.envelope_low, fc.envelope_high, cfg))
    objective, f = dense_offset_optimum(fc.point, fc.envelope_low, fc.envelope_high, cfg)
    assert cert.status == "optimal" and cert.path == "lp"
    assert cert.objective == pytest.approx(objective, rel=1e-9)
    assert np.array_equal(sol.x[:N_SLOTS] - sol.x[N_SLOTS:2 * N_SLOTS] - fc.envelope_low, f)


@pytest.mark.parametrize("kw", [{}, {"soe0": 60.0, "p_max": 150.0, "soe_backoff": 10.0,
                                     "power_backoff": 5.0}])
def test_offset_lp_arrays_match_bmat_oracle(day_forecast, kw):
    # built directly, the CSR arrays are the bytes sparse.bmat made, so HiGHS
    # sees the same model
    fc, cfg = day_forecast, _cfg(**kw)
    p = _offset_lp(fc.point, fc.envelope_low, fc.envelope_high, cfg)
    a_ineq, b_ineq, a_eq, b_eq = bmat_offset_lp(fc.point, fc.envelope_low,
                                                fc.envelope_high, cfg)
    for got, want in ((p.a_ineq, a_ineq), (p.a_eq, a_eq)):
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            mine, theirs = getattr(got, name), getattr(want, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
    assert p.b_ineq.tobytes() == b_ineq.tobytes() and p.b_eq.tobytes() == b_eq.tobytes()


@pytest.mark.parametrize("kw", [{}, {"p_max": 150.0}])
def test_centred_offset_rule(day_forecast, kw):
    # no row cuts the centred offset, the least-norm point of the LP's optimal
    # face, so it is the plan, with the LP's optimal value
    fc, cfg = day_forecast, _cfg(**kw)
    plan = plan_day(fc, cfg)
    cert = plan.offset.certificate
    assert (cert.status, cert.path, cert.iterations) == ("optimal", "closed-form", 0)
    assert np.array_equal(plan.offset.f, -(fc.envelope_low + fc.envelope_high) / 2)
    objective, _ = dense_offset_optimum(fc.point, fc.envelope_low, fc.envelope_high, cfg)
    assert plan.offset.objective == pytest.approx(objective, rel=1e-9)
    assert dayahead_plan_feasible(plan, cfg)
    assert cert.kkt_residual <= 1e-6


@given(doy=st.integers(1, 365), radiation=st.floats(0.0, 8.0), soe0=st.floats(0.0, 500.0),
       soe_backoff=st.floats(0.0, 20.0), power_backoff=st.floats(0.0, 245.0),
       p_max=st.none() | st.floats(100.0, 400.0))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_centred_certificate_matches_assembled_lp(history, doy, radiation, soe0, soe_backoff,
                                                  power_backoff, p_max):
    # the O(n) certificate gives the verdict, objective and KKT residual that
    # the assembled rows and lp_kkt_residual give, bit for bit
    fc = forecast_day(history, TargetDayInfo(year=2016, day_of_year=doy,
                                             radiation_forecast=radiation,
                                             is_working_day=is_working_dayofyear(doy)))
    cfg = _cfg(soe0=soe0, soe_backoff=soe_backoff, power_backoff=power_backoff, p_max=p_max)
    plan = _centred(fc.point, fc.envelope_low, fc.envelope_high, cfg)
    want = assembled_centred(fc.point, fc.envelope_low, fc.envelope_high, cfg)
    assert (plan is None) == (want is None)
    if plan is not None:
        assert (plan.objective, plan.certificate.kkt_residual) == want
        assert plan.certificate.objective == plan.objective
        assert np.array_equal(plan.f, -(fc.envelope_low + fc.envelope_high) / 2)


def _cut(group, fc, margin):
    """A config whose `group` rows the centred plan violates by `margin` (kWh or
    kW) when it is positive, and holds with that much room when it is negative."""
    centred = -(fc.envelope_low + fc.envelope_high) / 2
    h_max = float(((fc.envelope_high - fc.envelope_low) / 2).max())
    low, high = worst_case_soe(centred, fc, _cfg())
    if group == "soe_max":           # the high SOE peaks at soe_max + margin
        return _cfg(soe_max=float(high.max()) - margin)
    if group == "soe_min":           # through soe0: the low SOE bottoms out at soe_min - margin
        return _cfg(soe0=50.0 + 250.0 - float(low.min()) - margin)
    if group == "b_max":             # G = h at the widest slot
        return _cfg(b_max=h_max - margin)
    if group == "b_min":             # K = -h at the widest slot
        return _cfg(b_min=margin - h_max)
    return _cfg(p_max=float((fc.point + centred).max()) - margin)


@pytest.mark.parametrize("margin", [1e-6, 5e-9, -1e-6])
@pytest.mark.parametrize("group", ["soe_max", "soe_min", "b_max", "b_min", "p_max"])
def test_centred_offset_boundary(day_forecast, group, margin):
    # a row group just cuts the centred offset or just holds it, and the
    # assembled rows decide the path on each side; past the cut, HiGHS plans as
    # the dense oracle does. A violation within FEAS_TOL holds, and its KKT
    # residual is the oracle's
    fc = day_forecast
    cfg = _cut(group, fc, margin)
    want = assembled_centred(fc.point, fc.envelope_low, fc.envelope_high, cfg)
    held = want is not None
    assert held == (margin < solver.FEAS_TOL)
    plan = solve_offset(fc, cfg)
    assert plan.certificate.path == ("closed-form" if held else "lp")
    if held:
        assert np.array_equal(plan.f, -(fc.envelope_low + fc.envelope_high) / 2)
        assert (plan.objective, plan.certificate.kkt_residual) == want
        assert (plan.certificate.kkt_residual > 0) == (margin > 0)
    else:
        assert np.array_equal(plan.f, dense_offset_optimum(fc.point, fc.envelope_low,
                                                           fc.envelope_high, cfg)[1])
    assert plan.certificate.status == "optimal" and plan.certificate.kkt_residual <= 1e-6


def test_closed_form_path_builds_no_lp(day_forecast, monkeypatch):
    # the centred plan is certified without the assembled LP or HiGHS; a plan
    # that a row cuts assembles the LP once
    def refuse(*args, **kwargs):
        raise AssertionError("the closed-form path built or solved the offset LP")

    offset_lp, solve_lp = dayahead._offset_lp, solver.solve_lp
    monkeypatch.setattr(dayahead, "_offset_lp", refuse)
    monkeypatch.setattr(solver, "solve_lp", refuse)
    assert plan_day(day_forecast, _cfg()).offset.certificate.path == "closed-form"
    built = []
    monkeypatch.setattr(dayahead, "_offset_lp",
                        lambda *args: built.append(1) or offset_lp(*args))
    monkeypatch.setattr(solver, "solve_lp", solve_lp)
    assert plan_day(day_forecast, _cfg(soe0=60.0)).offset.certificate.path == "lp"
    assert len(built) == 1


def test_offset_lp_is_sparse(day_forecast):
    # 4 cumulative SOE blocks of n(n+1)/2 entries and 8 power-bound diagonals
    from feederdispatch.dayahead import _offset_lp
    n = N_SLOTS
    p = _offset_lp(day_forecast.point, day_forecast.envelope_low,
                   day_forecast.envelope_high, _cfg())
    assert p.a_ineq.nnz == 4 * n * (n + 1) // 2 + 8 * n == 168768
    assert p.a_eq.nnz == 4 * n


def test_full_day_plan_feasibility_certificate(day_forecast):
    cfg = _cfg()
    plan = plan_day(day_forecast, cfg)
    assert dayahead_plan_feasible(plan, cfg)


def test_assemble_plan():
    n = 4
    fc = _view(np.full(n, 100.0), np.zeros(n), np.zeros(n))
    offset = solve_offset(fc, _cfg())
    plan = assemble_plan(fc, offset)
    assert plan.p_hat == pytest.approx(fc.point + offset.f)
    assert plan.forecast is fc
    assert plan.offset is offset


def test_peak_cap_respected(day_forecast):
    cfg = _cfg()
    uncapped = plan_day(day_forecast, cfg)
    cap = float(uncapped.p_hat.max()) * 0.9
    capped = plan_day(day_forecast, _cfg(p_max=cap))
    assert capped.p_hat.max() <= cap + 1e-7
    assert dayahead_plan_feasible(capped, _cfg(p_max=cap))


def test_infeasible_cap_reports_slot(day_forecast, monkeypatch):
    # HiGHS finds no point, then one elastic LP certifies that (with its own
    # KKT residual) and its row violations name the slot
    calls = []
    linprog = solver.linprog
    monkeypatch.setattr(solver, "linprog", lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    cfg = _cfg(p_max=float(day_forecast.point.min()) - 60.0, b_min=-20.0, b_max=20.0)
    with pytest.raises(InfeasiblePlanError) as exc:
        plan_day(day_forecast, cfg)
    assert len(calls) == 2
    assert (exc.value.slot, exc.value.constraint) == (277, "soe_min")
    assert "slot 277 (soe_min), total violation 19155.842" in str(exc.value)
    fc = day_forecast
    sol, cert = solver.solve_lp(_offset_lp(fc.point, fc.envelope_low, fc.envelope_high, cfg))
    assert cert.status == "infeasible" and cert.kkt_residual <= 1e-6
    assert cert.objective == pytest.approx(sol.x[4 * N_SLOTS:].sum(), rel=1e-12)


def test_infeasible_soe_band(day_forecast):
    # window narrower than the envelope band integral cannot be planned
    with pytest.raises(InfeasiblePlanError):
        plan_day(day_forecast, _cfg(soe0=250.0, soe_min=240.0, soe_max=260.0))


def test_complementarity_at_optimum(day_forecast):
    cfg = _cfg()
    plan = solve_offset(day_forecast, cfg)
    # re-derive the split from f and check the LP trajectories match it, which
    # only holds when no slot charges and discharges simultaneously
    k = plan.f + day_forecast.envelope_low
    g = plan.f + day_forecast.envelope_high
    bp, bm = beta_coeffs(cfg)
    low, high = worst_case_soe(plan.f, day_forecast, cfg)
    delta_low = bp * np.maximum(k, 0) + bm * np.minimum(k, 0)
    assert low[1:] == pytest.approx(cfg.soe0 + np.cumsum(delta_low), abs=1e-6)
    delta_high = bp * np.maximum(g, 0) + bm * np.minimum(g, 0)
    assert high[1:] == pytest.approx(cfg.soe0 + np.cumsum(delta_high), abs=1e-6)


def test_plan_file_roundtrip(tmp_path, day_forecast):
    cfg = _cfg()
    plan = plan_day(day_forecast, cfg)
    path = tmp_path / "plan.csv"
    save_plan(path, plan)
    header = path.read_text().splitlines()[0]
    assert header.startswith("#")
    csv_save_plan(tmp_path / "csv.csv", plan)
    assert path.read_bytes() == (tmp_path / "csv.csv").read_bytes()
    back = load_plan(path)
    assert np.array_equal(back.p_hat, plan.p_hat)
    assert np.array_equal(back.offset.f, plan.offset.f)
    assert np.array_equal(np.asarray(back.forecast.point), day_forecast.point)
    assert np.abs(back.p_hat - np.asarray(back.forecast.point)
                  - back.offset.f).max() <= 1e-9


def test_load_plan_rejects_wrong_envelope_sign(tmp_path, day_forecast):
    # a plan file rebuilds its forecast, which holds env_low <= 0 <= env_high
    plan = plan_day(day_forecast, _cfg())
    path = tmp_path / "plan.csv"
    save_plan(path, plan)
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[4] = "3.0"                       # env_low_kw of slot 0
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="envelope signs"):
        load_plan(path)


@pytest.mark.parametrize("slots,row", [([0] * 288, 1), ([0, 1, 1, 3] + list(range(4, 288)), 2),
                                       (list(range(1, 289)), 287), ([0.5] + list(range(1, 288)), 0),
                                       ([-1] + list(range(1, 288)), 0)])
def test_load_plan_rejects_a_bad_slot_column(tmp_path, day_forecast, slots, row):
    # the n rows of a plan file hold the slots 0..n-1, each once, in any order
    plan = plan_day(day_forecast, _cfg())
    path = tmp_path / "plan.csv"
    save_plan(path, plan)
    lines = path.read_text().splitlines()
    for j, slot in enumerate(slots):
        lines[2 + j] = ",".join([str(slot)] + lines[2 + j].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"plan row {row} has slot"):
        load_plan(path)


def test_load_plan_sorts_shuffled_rows(tmp_path, day_forecast, rng):
    plan = plan_day(day_forecast, _cfg())
    path = tmp_path / "plan.csv"
    save_plan(path, plan)
    lines = path.read_text().splitlines()
    rows = lines[2:]
    path.write_text("\n".join(lines[:2] + [rows[j] for j in rng.permutation(len(rows))]) + "\n")
    assert np.array_equal(load_plan(path).p_hat, plan.p_hat)


def test_backoff_tightens_bounds(day_forecast):
    cfg = _cfg(soe_backoff=20.0)
    low, high = worst_case_soe(solve_offset(day_forecast, cfg).f, day_forecast, cfg)
    assert np.all(low[1:] >= cfg.soe_min + 20.0 - 1e-6)
    assert np.all(high[1:] <= cfg.soe_max - 20.0 + 1e-6)
