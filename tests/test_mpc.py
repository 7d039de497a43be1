import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from feederdispatch import solver
from feederdispatch.battery import ModelBank, soc_step, voltage_step
from feederdispatch.dayahead import DispatchPlan
from feederdispatch.forecast import ProsumptionForecast, short_term_predict
from feederdispatch.mpc import (ALPHA, MpcLimits, MpcProblem,
                                StepTelemetry, build_problem, dispatch_error,
                                expected_average, solve, to_power_setpoint)

from oracles import (active_groups_loop, active_set_qcqp, concatenated_rhs,
                     grid_current_search, min_quadratic_over_rows, mpc_constraints_satisfied,
                     mpc_throughput, qcqp_optimum)


def _problem(bank, h=30, e_k=0.0, x=None, soc=0.5, limits=None, v=652.0):
    vm = bank.voltage_model(soc)
    tv = bank.transitions(vm, h)
    ts = bank.transitions(bank.soc_model, h)
    return MpcProblem(horizon=h, e_k=e_k, phi_v=tv.phi, psi_v_i=tv.psi_i,
                      psi_v_1=tv.psi_1, phi_soc=ts.phi, psi_soc_i=ts.psi_i,
                      x_k=np.zeros(2) if x is None else np.asarray(x, float),
                      soc_k=soc, v_k=v, limits=limits or MpcLimits())


def test_limit_validation():
    with pytest.raises(ValueError):
        MpcLimits(i_min=10.0)
    with pytest.raises(ValueError):
        MpcLimits(soc_min=0.9, soc_max=0.5)
    with pytest.raises(ValueError):
        MpcLimits(v_min=800.0)


def test_dispatch_error():
    assert dispatch_error(100.0, 100.0) == 0.0
    assert dispatch_error(112.0, 100.0) == pytest.approx(1.0)
    assert dispatch_error(100.0, 140.0) < 0.0     # above plan: discharge


def test_expected_average():
    assert expected_average(0, 0.0, np.full(30, 7.0)) == pytest.approx(7.0)
    assert expected_average(29, 7.0, np.array([7.0])) == pytest.approx(7.0)
    assert expected_average(10, 120.0, np.full(20, 90.0)) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        expected_average(10, 100.0, np.full(5, 90.0))


def _plan_for(bank, level=100.0):
    from feederdispatch.dayahead import OffsetPlan
    from feederdispatch import solver
    fc = ProsumptionForecast(np.full(288, level), np.zeros(288), np.zeros(288), members=())
    offset = OffsetPlan(f=np.zeros(288), objective=0.0,
                        certificate=solver.SolveCertificate("optimal"))
    return DispatchPlan(p_hat=fc.point.copy(), forecast=fc, offset=offset)


def _slot_index_plan(bank, n_slots=288):
    """A plan whose slot i commits i kW: with no load measured or predicted, step k's
    target is dispatch_error(k's slot, 0)."""
    from dataclasses import replace
    return replace(_plan_for(bank), p_hat=np.arange(n_slots, dtype=float))


_IDLE = StepTelemetry(p_avg=0.0, last_load=0.0, soc=0.5, x=np.zeros(2), v=652.0)


def test_build_problem_slot_boundaries_and_range(bank):
    # step k lies in slot k // 30 and its horizon runs to that slot's end;
    # a k outside the plan's steps raises, whatever the plan's length
    plan = _slot_index_plan(bank)
    for k, slot, horizon in ((0, 0, 30), (29, 0, 1), (59, 1, 1), (60, 2, 30),
                             (90, 3, 30), (96, 3, 24), (119, 3, 1), (8639, 287, 1)):
        p = build_problem(k, plan, _IDLE, bank, MpcLimits())
        assert (p.horizon, p.e_k) == (horizon, dispatch_error(float(slot), 0.0)), k
    for bad in (-1, 8640):
        with pytest.raises(IndexError):
            build_problem(bad, plan, _IDLE, bank, MpcLimits())
    short = _slot_index_plan(bank, 10)
    assert build_problem(299, short, _IDLE, bank, MpcLimits()).horizon == 1
    with pytest.raises(IndexError):
        build_problem(300, short, _IDLE, bank, MpcLimits())


@given(st.integers(min_value=0, max_value=8639), st.floats(0.0, 200.0),
       st.floats(0.0, 200.0))
def test_build_problem_slot_and_horizon_of_every_step(bank, k, p_avg, last_load):
    # the slot's committed power, the measured steps and the horizon all follow from k
    plan = _slot_index_plan(bank)
    tel = StepTelemetry(p_avg=p_avg, last_load=last_load, soc=0.5, x=np.zeros(2), v=652.0)
    p = build_problem(k, plan, tel, bank, MpcLimits())
    done = k % 30
    assert p.horizon == 30 - done
    p_plus = expected_average(done, p_avg, short_term_predict(last_load, 30 - done))
    assert p.e_k == dispatch_error(float(k // 30), p_plus)


def test_build_problem_horizons(bank):
    plan = _plan_for(bank)
    tel = StepTelemetry(p_avg=0.0, last_load=100.0, soc=0.55, x=np.zeros(2), v=652.0)
    p_start = build_problem(90, plan, tel, bank, MpcLimits())
    assert p_start.horizon == 30
    p_end = build_problem(119, plan, tel, bank, MpcLimits())
    assert p_end.horizon == 1
    # soc 0.55 schedules the 40-60% set, recognizable by its EMF
    assert p_start.psi_v_1[0, 0] == pytest.approx(652.9)


def test_build_problem_shares_structure(bank):
    # two steps at the same (model, horizon) reuse one structure; its arrays
    # equal a problem built from the raw matrices bit for bit
    plan = _plan_for(bank)
    tel = StepTelemetry(p_avg=0.0, last_load=90.0, soc=0.55, x=np.array([0.3, -0.2]), v=652.0)
    other = StepTelemetry(p_avg=110.0, last_load=120.0, soc=0.51, x=np.zeros(2), v=650.0)
    limits = MpcLimits(di_min=-5.0, di_max=5.0)
    first = build_problem(95, plan, tel, bank, limits)
    second = build_problem(125, plan, other, bank, limits)
    assert first.horizon == second.horizon == 25
    names = ("c", "q", "q_sym", "q_chol", "y", "a_ineq")
    for name in names:
        assert getattr(first._qcqp, name) is getattr(second._qcqp, name)
    assert first._qcqp.cy == second._qcqp.cy
    # the whitened rows are built once, by the first solve that needs them
    assert solver._whitened(first._qcqp)[0] is solver._whitened(second._qcqp)[0]
    for p, t in ((first, tel), (second, other)):
        raw = MpcProblem(horizon=p.horizon, e_k=p.e_k, phi_v=p.phi_v, psi_v_i=p.psi_v_i.copy(),
                         psi_v_1=p.psi_v_1, phi_soc=p.phi_soc, psi_soc_i=p.psi_soc_i.copy(),
                         x_k=np.asarray(t.x, float), soc_k=t.soc, v_k=t.v, limits=limits)
        assert raw._structure is not p._structure
        for name in names + ("l", "b_ineq"):
            assert np.array_equal(getattr(raw._qcqp, name), getattr(p._qcqp, name)), name
        assert raw._qcqp.cy == p._qcqp.cy and raw._qcqp.r == p._qcqp.r
        for a, b in zip(solver._whitened(raw._qcqp), solver._whitened(p._qcqp)):
            assert np.array_equal(a, b)
        d_raw, d = solve(raw), solve(p)
        assert np.array_equal(d_raw.i_traj, d.i_traj)
        assert (d_raw.status, d_raw.active, d_raw.path) == (d.status, d.active, d.path)


def test_structure_of_another_horizon_is_rejected(bank):
    # a kept structure belongs to one horizon: right-hand sides of another
    # size raise instead of silently disagreeing with the problem's fields
    from dataclasses import replace
    plan = _plan_for(bank)
    tel = StepTelemetry(p_avg=0.0, last_load=90.0, soc=0.55, x=np.zeros(2), v=652.0)
    limits = MpcLimits()
    p25 = build_problem(95, plan, tel, bank, limits)
    p24 = build_problem(96, plan, tel, bank, limits)
    assert (p25.horizon, p24.horizon) == (25, 24)
    with pytest.raises(ValueError):
        replace(p24, _structure=p25._structure)
    with pytest.raises(ValueError):
        p25._qcqp.with_rhs(p25._qcqp.l, 0.0, p25._qcqp.b_ineq[:-1])


def test_rhs_matches_concatenation_oracle(rng):
    # b_ineq from each kept structure's per-limits template equals the
    # block-by-block assembly bit for bit, at every horizon, with two limits
    # alternating on one bank in either order
    from feederdispatch.mpc import _rhs
    a = MpcLimits()
    b = MpcLimits(i_min=-500.0, i_max=700.0, di_min=-5.0, di_max=7.5, v_min=0.0,
                  v_max=700.0, soc_min=0.0, soc_max=0.8)
    for order in ((a, b), (b, a)):
        fresh = ModelBank()
        plan = _plan_for(fresh)
        for h in range(1, 31):
            soc = float(rng.uniform(0.05, 0.95))
            for limits in order + order:
                tel = StepTelemetry(p_avg=100.0, last_load=100.0, soc=soc,
                                    x=rng.normal(size=2) * 30.0, v=652.0)
                p = build_problem(120 - h, plan, tel, fresh, limits)
                assert p.horizon == h
                v_free = p.phi_v @ p.x_k + p.psi_v_1 @ np.ones(h)
                expected = concatenated_rhs(p, v_free).tobytes()
                assert p._qcqp.b_ineq.tobytes() == expected
                assert _rhs(p, v_free).tobytes() == expected


def test_active_groups_match_loop_oracle(bank, rng):
    from feederdispatch.mpc import _active_groups
    for h in range(1, 31):
        m = 8 * h - 2
        for density in (0.0, 0.02, 0.2, 1.0):
            for _ in range(5):
                active = rng.random(m) < density
                quad = bool(rng.random() < 0.5)
                sol = solver.QcqpSolution(x=np.zeros(h), dual_quad=0.0,
                                          dual_ineq=np.zeros(m), quad_active=quad,
                                          active=active)
                assert _active_groups(h, sol) == active_groups_loop(h, quad, active)


def test_build_problem_target_energy(bank):
    plan = _plan_for(bank, level=100.0)
    tel = StepTelemetry(p_avg=0.0, last_load=88.0, soc=0.5, x=np.zeros(2), v=652.0)
    p = build_problem(0, plan, tel, bank, MpcLimits())
    # persistence expects 88 kW all slot; plan is 100 -> 1 kWh to absorb
    assert p.e_k == pytest.approx((300.0 / 3600.0) * 12.0)


def test_zero_target_zero_current(bank):
    p = _problem(bank, h=30, e_k=0.0)
    dec = solve(p)
    assert dec.status == "solved"
    assert abs(dec.i_traj.sum()) <= 1e-3
    e = mpc_throughput(p, dec.i_traj)
    assert -1e-6 <= e <= 1e-12


def test_positive_target_tight_throughput(bank):
    # inactive box/voltage/soc limits: the energy constraint binds at optimum
    for e_k in (0.5, 1.5, 2.0):
        p = _problem(bank, h=30, e_k=e_k)
        dec = solve(p)
        assert dec.status == "solved"
        assert mpc_throughput(p, dec.i_traj) == pytest.approx(e_k, abs=1e-4)
        assert "throughput" in dec.active


def test_negative_target(bank):
    p = _problem(bank, h=30, e_k=-1.2)
    dec = solve(p)
    assert dec.status == "solved"
    assert mpc_throughput(p, dec.i_traj) == pytest.approx(-1.2, abs=1e-4)
    assert np.all(dec.i_traj < 0.0)


def test_solution_respects_all_constraints(bank, rng):
    for _ in range(20):
        h = int(rng.integers(1, 31))
        p = _problem(bank, h=h, e_k=float(rng.uniform(-2, 2)) * h / 30.0,
                     x=rng.uniform(-1, 1, 2), soc=float(rng.uniform(0.12, 0.88)))
        dec = solve(p)
        assert dec.status == "solved"
        assert mpc_constraints_satisfied(p, dec.i_traj)
        assert mpc_throughput(p, dec.i_traj) <= p.e_k + 1e-6


def test_horizon_two_grid_oracle(bank, rng):
    limits = MpcLimits(i_min=-20.0, i_max=20.0, di_min=-30.0, di_max=30.0)
    for _ in range(5):
        p = _problem(bank, h=2, e_k=float(rng.uniform(-0.05, 0.05)),
                     x=rng.uniform(-0.5, 0.5, 2), limits=limits)
        dec = solve(p)
        assert dec.status == "solved"
        prob = p._qcqp
        best, _ = grid_current_search(0.5 * (prob.q + prob.q.T), prob.l, p.e_k, prob.a_ineq,
                                      prob.b_ineq, np.ones(2), -20.0, 20.0, 0.05)
        assert best is not None
        gap = float(dec.i_traj.sum()) - best
        assert gap >= -1e-6
        assert gap <= 0.05 * 4.0


def test_active_soc_ceiling_blocks_charging(bank):
    # at the ceiling no net charge can ever accumulate: every prefix of the
    # trajectory sums <= 0, and the actuated first component never charges
    limits = MpcLimits()
    p = _problem(bank, h=10, e_k=1.0, soc=limits.soc_max, limits=limits)
    dec = solve(p)
    assert dec.status == "solved"
    assert dec.i_traj[0] <= 1e-6
    assert np.all(np.cumsum(dec.i_traj) <= 1e-6)
    assert "soc" in dec.active
    assert mpc_constraints_satisfied(p, dec.i_traj)
    # the closed-form candidate (throughput row alone) charges past the
    # ceiling, so the solve walks the parametric path, which certifies
    cand = solver._closed_form(p._qcqp).x
    assert float(np.max(p.phi_soc.ravel() * p.soc_k + p.psi_soc_i @ cand)) > limits.soc_max
    assert dec.path == "parametric"
    assert dec.kkt_residual <= 1e-6


def test_rate_limit_active(bank):
    limits = MpcLimits(di_min=-5.0, di_max=5.0)
    p = _problem(bank, h=6, e_k=1.5, limits=limits)
    dec = solve(p)
    assert dec.status == "solved"
    d = np.diff(dec.i_traj)
    assert np.all(d <= 5.0 + 1e-6)
    assert np.all(d >= -5.0 - 1e-6)



def test_binding_rate_limits_seeded(bank, rng):
    # each rate limit is drawn below the largest step of the problem's
    # rate-free optimum, so a rate row binds at the constrained optimum, with
    # a multiplier far below the throughput one; every draw must certify and
    # never fall back to zero current
    for _ in range(50):
        while True:
            h = int(rng.integers(2, 31))
            kw = dict(h=h, e_k=float(rng.uniform(-2, 2)) * h / 30.0,
                      x=rng.uniform(-1, 1, 2), soc=float(rng.uniform(0.12, 0.88)))
            step = float(np.abs(np.diff(solve(_problem(bank, **kw)).i_traj)).max())
            if step > 2.0 / 0.9:
                break
        di = max(2.0, float(rng.uniform(0.2, 0.9)) * step)
        p = _problem(bank, limits=MpcLimits(di_min=-di, di_max=di), **kw)
        dec = solve(p)
        assert dec.status == "solved"
        assert dec.kkt_residual <= 1e-6
        assert "rate" in dec.active
        assert mpc_constraints_satisfied(p, dec.i_traj)
        assert mpc_throughput(p, dec.i_traj) <= p.e_k + 1e-6


@settings(max_examples=100, deadline=None)
@given(h=st.integers(1, 30), soc=st.floats(0.12, 0.88),
       e_per_step=st.floats(-2.0 / 30, 2.0 / 30),
       x_k=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       di=st.one_of(st.just(200.0), st.floats(2.0, 40.0)))
# SLSQP alone overstepped the quadratic by 4.6e-9 here; the oracle's polish holds it
@example(h=8, soc=0.125, e_per_step=-0.06283742782166675,
         x_k=(-0.064453125, -0.3732687180195685), di=2.0)
def test_solve_matches_qcqp_oracle(bank, h, soc, e_per_step, x_k, di):
    # default or drawn rate limits, so both the closed form and the
    # parametric path run: a solved step reaches the optimum that HiGHS +
    # SLSQP find without the library's solver; a clipped one has a target
    # that no trajectory meets
    limits = MpcLimits(di_min=-di, di_max=di)
    p = _problem(bank, h=h, e_k=e_per_step * h, x=x_k, soc=soc, limits=limits)
    prob = p._qcqp
    dec = solve(p)
    assert dec.status in ("solved", "infeasible-clipped")
    assert dec.kkt_residual <= 1e-6
    assert mpc_constraints_satisfied(p, dec.i_traj)
    x_ref = qcqp_optimum(prob.q_sym, prob.l, prob.r, prob.c, prob.a_ineq, prob.b_ineq)
    if dec.status == "infeasible-clipped":
        assert x_ref is None or prob.f_quad(x_ref) > 0.0
        return
    assert x_ref is not None and mpc_constraints_satisfied(p, x_ref)
    assert prob.f_quad(x_ref) <= 1e-9 * (1.0 + abs(p.e_k))
    objective = float(dec.i_traj.sum())
    assert abs(objective - float(x_ref.sum())) <= 1e-6 * (1.0 + abs(objective))
    if dec.path == "closed-form":
        assert dec.active == "throughput"


@pytest.mark.parametrize("h, soc, e_k, x_k, di", [
    # seed 0 draw 364 and seed 1 draw 574 of scripts/mpc_rate_scan.py
    (24, 0.33242794123978026, -1.3507612764830934,
     (0.24929161442996528, 0.7924729405172035), 15.92379676371447),
    (14, 0.44877499972275176, -0.7429746942267504,
     (-0.18860546394134192, -0.6020080295185213), 5.866220203335358),
])
def test_weakly_binding_rate_row_named(bank, h, soc, e_k, x_k, di):
    # the closed-form candidate breaks a rate row by a fraction of an ampere,
    # so a rate row binds at the optimum with a tiny multiplier; the solve
    # names it and lands on the optimum of its named rows, not short of it
    p = _problem(bank, h=h, e_k=e_k, x=x_k, soc=soc,
                 limits=MpcLimits(di_min=-di, di_max=di))
    dec = solve(p)
    assert dec.status == "solved"
    assert "rate" in dec.active
    assert dec.kkt_residual <= 1e-6 and dec.path == "parametric"
    prob = p._qcqp
    sol, _ = solver.solve_qcqp(prob)
    x, mu, lam = active_set_qcqp(prob.q_sym, prob.l, prob.r, prob.c,
                                 prob.a_ineq[sol.active], prob.b_ineq[sol.active])
    assert mu > 0.0 and np.all(lam >= -1e-9)
    assert dec.i_traj == pytest.approx(x, abs=1e-6)


def test_failed_solve_reports_residual(bank, monkeypatch):
    # a solve that misses the gate actuates zero current, but the decision
    # still says how close it came
    def failing(prob):
        return None, solver.SolveCertificate(status="failure", kkt_residual=2e-6,
                                             iterations=7, path="parametric")

    monkeypatch.setattr(solver, "solve_qcqp", failing)
    dec = solve(_problem(bank, h=5, e_k=0.3))
    assert dec.status == "solver-failure"
    assert dec.i_traj[0] == 0.0
    assert dec.kkt_residual == 2e-6
    assert dec.iterations == 7
    assert dec.path == "none"


def test_infeasible_target_clipped_to_min_throughput(bank):
    # -50 kWh in two steps is far beyond the current limits
    p = _problem(bank, h=2, e_k=-50.0)
    dec = solve(p)
    assert dec.status == "infeasible-clipped"
    assert mpc_constraints_satisfied(p, dec.i_traj)
    # the clip lands on the most-discharging feasible point
    assert dec.i_traj == pytest.approx(np.full(2, p.limits.i_min), abs=1e-3)
    assert dec.path == "least-distance"
    assert dec.kkt_residual <= 1e-6
    assert dec.active == "box"


def test_clipped_below_soc_floor(bank):
    # below soc_min no discharge target is reachable; the linear rows are
    # feasible (charge back to the floor), so the step actuates the
    # least-throughput trajectory instead of zero current
    p = _problem(bank, h=10, e_k=-0.3, soc=0.09999)
    dec = solve(p)
    assert dec.status == "infeasible-clipped"
    assert dec.path == "least-distance"
    assert dec.i_traj[0] != 0.0
    assert mpc_constraints_satisfied(p, dec.i_traj)
    assert dec.kkt_residual <= 1e-6


@settings(max_examples=100, deadline=None)
@given(h=st.integers(1, 30),
       soc=st.one_of(st.floats(0.0995, 0.1005), st.floats(0.09, 0.2)),
       e_per_step=st.floats(-2.0 / 30, -1e-4),
       x_k=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       i_max=st.floats(50.0, 810.0), di=st.floats(2.0, 200.0))
def test_least_distance_matches_oracle(bank, h, soc, e_per_step, x_k, i_max, di):
    # the least-throughput trajectory over the linear rows against HiGHS +
    # SLSQP; where its minimum is positive, the target is out of reach and
    # the controller actuates exactly that trajectory
    limits = MpcLimits(i_min=-i_max, i_max=i_max, di_min=-di, di_max=di)
    p = _problem(bank, h=h, e_k=e_per_step * h, x=x_k, soc=soc, limits=limits)
    prob = p._qcqp
    sol, cert = solver.least_distance(prob)
    x_ref = min_quadratic_over_rows(prob.q_sym, prob.l, prob.a_ineq, prob.b_ineq)
    if x_ref is None:
        assert cert.status == "infeasible"
        return
    assert cert.status == "optimal"
    assert cert.kkt_residual == solver.qp_kkt_residual(prob, sol) <= 1e-6
    assert mpc_constraints_satisfied(p, sol.x)
    f_ref = prob.f_quad(x_ref)
    assert abs(cert.objective - f_ref) <= 1e-8 * (1.0 + abs(f_ref))
    if cert.objective > solver.FEAS_TOL * (1.0 + abs(p.e_k)):
        dec = solve(p)
        assert dec.status == "infeasible-clipped" and dec.path == "least-distance"
        assert np.array_equal(dec.i_traj, sol.x)


def test_clipped_when_soc_already_outside(bank):
    limits = MpcLimits()
    vm = bank.voltage_model(0.95)
    tv = bank.transitions(vm, 5)
    ts = bank.transitions(bank.soc_model, 5)
    p = MpcProblem(horizon=5, e_k=0.5, phi_v=tv.phi, psi_v_i=tv.psi_i,
                   psi_v_1=tv.psi_1, phi_soc=ts.phi, psi_soc_i=ts.psi_i,
                   x_k=np.zeros(2), soc_k=0.95, v_k=700.0, limits=limits)
    dec = solve(p)
    # soc 0.95 > soc_max: every trajectory violates the first soc rows
    assert dec.status in ("infeasible-clipped", "solver-failure")


def test_convexity_guard_multistart(bank):
    # no strictly feasible trajectory drawn at random beats the certified
    # optimum, wherever it lies
    from feederdispatch import solver as S
    p = _problem(bank, h=8, e_k=0.7, x=np.array([0.2, -0.1]))
    prob = S.QcqpProblem(c=np.ones(8), q=p._qcqp.q, l=p._qcqp.l, r=p.e_k,
                         a_ineq=p._qcqp.a_ineq, b_ineq=p._qcqp.b_ineq)
    sol, cert = S.solve_qcqp(prob)
    assert cert.status == "optimal"
    rng = np.random.default_rng(4)
    found = 0
    while found < 10:
        x0 = rng.uniform(-30, 30, 8)
        if prob.f_quad(x0) < -1e-9 and np.all(prob.b_ineq - prob.a_ineq @ x0 > 1e-9):
            assert float(x0.sum()) <= cert.objective
            found += 1


def test_shrinking_horizon_decay(bank):
    # matched plant, constant prosumption: the residual target decays over a slot
    plan = _plan_for(bank, level=100.0)
    limits = MpcLimits()
    vm = bank.voltage_model(0.5)
    x_plant = np.zeros(2)
    soc = 0.5
    load = 88.0
    samples = []
    e_prev = None
    for k in range(30):
        p_avg = float(np.mean(samples)) if samples else 0.0
        tel = StepTelemetry(p_avg=p_avg, last_load=load, soc=soc, x=x_plant.copy(),
                            v=float(vm.c @ x_plant + vm.d_1))
        p = build_problem(k, plan, tel, bank, limits)
        if e_prev is not None:
            assert abs(p.e_k) <= abs(e_prev) + 1e-6
        e_prev = p.e_k
        dec = solve(p)
        assert dec.status == "solved"
        i = dec.i_traj[0]
        x_next, v = voltage_step(vm, x_plant, i)
        b = 0.98 * v * i / 1000.0
        samples.append(load + b)
        x_plant = x_next
        soc = soc_step(soc, i)
    # uniform spreading leaves ~e_0/30 for the final step, which it delivers
    assert abs(p.e_k) <= 0.06
    assert np.mean(samples) == pytest.approx(100.0, abs=0.05)


def test_to_power_setpoint():
    assert to_power_setpoint(0.0, 650.0) == 0.0
    assert to_power_setpoint(100.0, 650.0) == pytest.approx(65.0)
    assert to_power_setpoint(-50.0, 650.0) < 0.0


def test_psd_guard_in_problem(bank):
    vm = bank.voltage_model(0.5)
    tv = bank.transitions(vm, 4)
    ts = bank.transitions(bank.soc_model, 4)
    bad_psi = tv.psi_i - 0.1 * np.eye(4)
    with pytest.raises(ValueError):
        MpcProblem(horizon=4, e_k=0.0, phi_v=tv.phi, psi_v_i=bad_psi,
                   psi_v_1=tv.psi_1, phi_soc=ts.phi, psi_soc_i=ts.psi_i,
                   x_k=np.zeros(2), soc_k=0.5, v_k=650.0, limits=MpcLimits())
