import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from feederdispatch import solver
from feederdispatch.solver import (LinearProgram, QcqpProblem, QcqpSolution, lp_kkt_residual,
                                   qcqp_kkt_residual, solve_lp, solve_qcqp)

from oracles import (active_set_qcqp, grid_current_search, piece_cho_solve,
                     qcqp_kkt_residual_np)


def test_lp_one_dimensional():
    sol, cert = solve_lp(LinearProgram(c=[1.0], a_ineq=[[-1.0]], b_ineq=[-3.0]))
    assert cert.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
    assert cert.kkt_residual <= 1e-6


def test_lp_keeps_csr_constraints():
    # dense and sparse input give one representation, with the same values
    import scipy.sparse as sp
    dense = LinearProgram(c=[1.0, 0.0], a_ineq=[[1.0, 2.0]], b_ineq=[1.0],
                          a_eq=np.eye(2), b_eq=[0.0, 0.0])
    sparse = LinearProgram(c=[1.0, 0.0], a_ineq=sp.csr_matrix([[1.0, 2.0]]), b_ineq=[1.0],
                           a_eq=sp.eye(2), b_eq=[0.0, 0.0])
    for p in (dense, sparse):
        assert isinstance(p.a_ineq, sp.csr_array) and isinstance(p.a_eq, sp.csr_array)
        assert np.array_equal(p.a_ineq.toarray(), [[1.0, 2.0]])
        assert np.array_equal(p.a_eq.toarray(), np.eye(2))
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 0.0], a_ineq=sp.eye(3), b_ineq=np.zeros(3))


def test_lp_infeasible_certified():
    # x <= 0 and x >= 1: the elastic LP's point violates the rows by 1 in
    # total, and comes back with the verdict and that solve's residual
    p = LinearProgram(c=[1.0], a_ineq=[[1.0], [-1.0]], b_ineq=[0.0, -1.0])
    sol, cert = solve_lp(p)
    assert cert.status == "infeasible"
    assert cert.objective == pytest.approx(1.0, abs=1e-9)
    assert cert.kkt_residual <= 1e-6
    violation = sol.x[1:]
    assert violation.size == 2 and violation.sum() == pytest.approx(1.0, abs=1e-9)
    assert violation == pytest.approx(np.maximum(p.a_ineq @ sol.x[:1] - p.b_ineq, 0.0), abs=1e-9)
    # an equality violated by 1 counts once, with the inequality rows first
    sol, cert = solve_lp(LinearProgram(c=[0.0], a_ineq=[[1.0]], b_ineq=[2.0], a_eq=[[1.0]],
                                       b_eq=[3.0], lb=[0.0], ub=[4.0]))
    assert cert.status == "infeasible" and cert.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x.size == 3 and sol.x[1:].sum() == pytest.approx(1.0, abs=1e-9)
    # bounds with no point are refused, so the elastic LP always has one
    for lb, ub in (([1.0], [0.0]), ([np.inf], [np.inf]), ([-np.inf], [-np.inf]),
                   ([np.nan], [1.0])):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], lb=lb, ub=ub)


def test_lp_refused_model_is_a_failure(monkeypatch):
    # HiGHS refuses a coefficient of 1e20 with the status of an infeasible
    # LP; the elastic LP is refused too, and is solved once, not recursively
    calls = []
    linprog = solver.linprog
    monkeypatch.setattr(solver, "linprog", lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
    sol, cert = solve_lp(LinearProgram(c=[1.0], a_ineq=[[1e20]], b_ineq=[1.0], lb=[0.0],
                                       ub=[1.0]))
    assert sol is None and cert.status == "failure"
    assert len(calls) == 2


def test_lp_certificate_honesty():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 5))
    b = rng.standard_normal(8) + 4.0
    c = rng.standard_normal(5)
    p = LinearProgram(c=c, a_ineq=a, b_ineq=b, lb=np.full(5, -10.0),
                      ub=np.full(5, 10.0))
    sol, cert = solve_lp(p)
    assert cert.status == "optimal"
    assert abs(lp_kkt_residual(p, sol) - cert.kkt_residual) <= 1e-12
    assert cert.kkt_residual <= 1e-6


def test_lp_with_equalities():
    # min -x0-2x1 s.t. x0+x1<=3, x0-x1=1, 0<=x<=2.5
    p = LinearProgram(c=[-1.0, -2.0], a_ineq=[[1.0, 1.0]], b_ineq=[3.0],
                      a_eq=[[1.0, -1.0]], b_eq=[1.0],
                      lb=[0.0, 0.0], ub=[2.5, 2.5])
    sol, cert = solve_lp(p)
    assert cert.status == "optimal"
    assert sol.x == pytest.approx([2.0, 1.0], abs=1e-9)
    assert cert.kkt_residual <= 1e-8


def test_qcqp_quadratic_cap():
    p = QcqpProblem(c=[1.0], q=[[1.0]], l=[0.0], r=4.0,
                    a_ineq=[[1.0], [-1.0]], b_ineq=[10.0, 10.0])
    sol, cert = solve_qcqp(p)
    assert cert.status == "optimal"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-6)
    assert cert.kkt_residual <= 1e-6


def test_qcqp_symmetric_optimum():
    p = QcqpProblem(c=[1.0, 1.0], q=np.eye(2), l=np.zeros(2), r=2.0,
                    a_ineq=np.vstack([np.eye(2), -np.eye(2)]),
                    b_ineq=np.full(4, 10.0))
    sol, cert = solve_qcqp(p)
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-6)


def test_qcqp_infeasible():
    p = QcqpProblem(c=[1.0], q=[[1.0]], l=[0.0], r=-1.0,
                    a_ineq=[[1.0], [-1.0]], b_ineq=[10.0, 10.0])
    sol, cert = solve_qcqp(p)
    assert cert.status == "infeasible"
    assert sol.x == pytest.approx([0.0], abs=1e-12)     # the minimiser of f_q


def test_least_distance_proves_infeasibility():
    # min x^2 + 1 over |x| <= 10 is 1 > 0: infeasible after one NNLS, and the
    # verdict carries the minimiser and certificate of least_distance
    p = QcqpProblem(c=[1.0], q=[[1.0]], l=[0.0], r=-1.0,
                    a_ineq=[[1.0], [-1.0]], b_ineq=[10.0, 10.0])
    sol, cert = solve_qcqp(p)
    assert cert.status == "infeasible"
    assert cert.path == "least-distance" and cert.iterations == 1
    assert cert.objective == pytest.approx(1.0)
    assert sol.x == pytest.approx([0.0], abs=1e-12)
    ld, ld_cert = solver.least_distance(p)
    assert ld_cert.status == "optimal" and ld_cert.path == "least-distance"
    _same_solve((sol, replace(cert, status="optimal")), (ld, ld_cert))
    # rows that exclude each other (x <= -1, x >= 1) have no least-distance
    # point; the NNLS solution is their Farkas vector y: A'y = 0, b'y < 0
    p = QcqpProblem(c=[1.0], q=[[1.0]], l=[0.0], r=-1.0,
                    a_ineq=[[1.0], [-1.0]], b_ineq=[-1.0, -1.0])
    ld, ld_cert = solver.least_distance(p)
    assert ld is None and ld_cert.status == "infeasible"
    assert ld_cert.kkt_residual <= 1e-15 and ld_cert.objective == pytest.approx(-1.0)
    sol, cert = solve_qcqp(p)
    assert sol is None and cert.status == "infeasible" and cert.path == "least-distance"


def test_no_rows_and_no_closed_form():
    # SciPy's nnls aborts the interpreter on a matrix with no columns, so the
    # solve runs in a child process: a regression fails this test alone. With
    # no rows the least-distance point is the unconstrained minimum x = 0,
    # where f_q = 1 > 0 proves the problem infeasible
    code = ("import numpy as np\n"
            "from feederdispatch.solver import QcqpProblem, solve_qcqp\n"
            "sol, cert = solve_qcqp(QcqpProblem(c=[1], q=[[1]], l=[0], r=-1,\n"
            "                                  a_ineq=np.zeros((0, 1)), b_ineq=[]))\n"
            "print(cert.status, cert.path, sol.x.tolist(), cert.objective)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(solver.__file__))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["infeasible", "least-distance", "[0.0]", "1.0"]


def test_least_distance_rounding_solved_again_in_x():
    # a nearly linear quadratic (2Qx << l): the whitened NNLS point misses the
    # gate by rounding, the same active set solved in x passes it, and the
    # walk from there certifies a point within 5e-6 of the exact root 1.04847102
    p = QcqpProblem(c=[0.15342497989588852], q=[[1.2122730283206471e-11]],
                    l=[3.2951881847011264], r=3.454909314133631,
                    a_ineq=[[1.0], [-1.0]], b_ineq=[15.837, 15.837])
    w0, h0 = solver._whitened_rhs(p)
    assert solver.qp_kkt_residual(p, solver._ld_point(p, *solver._nnls(p, h0), w0)) \
        > solver.KKT_GATE
    assert solver.least_distance(p)[1].status == "optimal"
    sol, cert = solve_qcqp(p)
    assert cert.status == "optimal" and cert.path == "parametric"
    assert cert.kkt_residual <= solver.KKT_GATE
    assert abs(sol.x[0] - 1.04847102) < 5e-6


def test_least_distance_two_binding_rows():
    # projection of (3, 3) onto {x0 + x1 <= 2, x0 <= 0.5, x1 >= -10}: both
    # first rows bind at (0.5, 1.5), and 2x + l + A'lam = 0 gives lam = (3, 2)
    p = QcqpProblem(c=[1.0, 1.0], q=np.eye(2), l=[-6.0, -6.0], r=0.0,
                    a_ineq=[[1.0, 1.0], [1.0, 0.0], [0.0, -1.0]], b_ineq=[2.0, 0.5, 10.0])
    sol, cert = solver.least_distance(p)
    assert cert.status == "optimal"
    assert sol.x == pytest.approx([0.5, 1.5], abs=1e-12)
    assert sol.dual_ineq == pytest.approx([3.0, 2.0, 0.0], abs=1e-12)
    assert list(sol.active) == [True, True, False]
    assert cert.objective == pytest.approx(0.25 + 2.25 - 12.0, abs=1e-12)
    assert cert.kkt_residual == solver.qp_kkt_residual(p, sol) <= 1e-12
    # the evaluator catches wrong multipliers
    wrong = solver.QcqpSolution(x=sol.x, dual_quad=0.0, dual_ineq=np.array([3.0, 1.0, 0.0]))
    assert solver.qp_kkt_residual(p, wrong) > 1e-2


def test_qcqp_rejects_indefinite():
    with pytest.raises(ValueError):
        QcqpProblem(c=[1.0, 1.0], q=[[1.0, 0.0], [0.0, -1.0]], l=np.zeros(2),
                    r=1.0, a_ineq=np.eye(2), b_ineq=[1.0, 1.0])


def test_qcqp_rejects_singular_quadratic():
    # a singular PSD q has no Cholesky factor, and every solve whitens with
    # one, so it is rejected when the problem is built
    with pytest.raises(ValueError):
        QcqpProblem(c=[1.0, 1.0], q=[[1.0, 0.0], [0.0, 0.0]], l=np.zeros(2), r=4.0,
                    a_ineq=np.vstack([np.eye(2), -np.eye(2)]), b_ineq=np.ones(4))
    assert QcqpProblem(c=[1.0], q=[[2.0]], l=[0.0], r=1.0, a_ineq=[[1.0]],
                       b_ineq=[1.0]).q_chol[0, 0] == pytest.approx(np.sqrt(2.0))


def test_qcqp_psd_tolerance_relative_to_q():
    # definiteness has no absolute tolerance: a positive definite q with
    # entries of 1e-8 (the size of MPC quadratics, in kWh/A^2) is accepted,
    # and an eigenvalue of -1e-13 against entries of 1e-3 is rejected
    p = QcqpProblem(c=[1.0, 1.0], q=[[1e-8, 0.0], [0.0, 1e-9]], l=np.zeros(2),
                    r=1.0, a_ineq=np.eye(2), b_ineq=[1.0, 1.0])
    assert p.q_chol[1, 1] == pytest.approx(np.sqrt(1e-9))
    for w in (-1e-11, -1e-13):
        with pytest.raises(ValueError):
            QcqpProblem(c=[1.0, 1.0], q=[[1e-3, 0.0], [0.0, w]], l=np.zeros(2),
                        r=1.0, a_ineq=np.eye(2), b_ineq=[1.0, 1.0])


# a box this tight cuts off the closed-form optimum of the seeded instances
# below, so their solves take the parametric path
BINDING_BOX = 0.5


def _random_instance(rng, n=2, box=20.0):
    m = rng.standard_normal((n, n))
    q = m @ m.T + 0.1 * np.eye(n)
    l = 0.5 * rng.standard_normal(n)
    r = float(rng.random() * 4 + 0.5)
    c = rng.standard_normal(n)
    c /= max(1e-9, np.abs(c).max())
    a = np.vstack([np.eye(n), -np.eye(n)])
    return QcqpProblem(c=c, q=q, l=l, r=r, a_ineq=a, b_ineq=np.full(2 * n, box))


def test_qcqp_grid_oracle_two_vars():
    rng = np.random.default_rng(42)
    for _ in range(10):
        p = _random_instance(rng)
        sol, cert = solve_qcqp(p)
        assert cert.status == "optimal"
        best, _ = grid_current_search(p.q_sym, p.l, p.r, p.a_ineq, p.b_ineq,
                                      p.c, -20.0, 20.0, resolution=0.05)
        gap = cert.objective - best
        assert gap >= -1e-7
        assert gap <= 0.05 * (np.abs(p.c).sum() + 2.0)


def test_qcqp_closed_form_five_vars():
    # loose box, quadratic constraint active alone: KKT gives lambda and x in
    # closed form from Q^{-1}, an independent derivation path
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = 5
        m = rng.standard_normal((n, n))
        q = m @ m.T + np.eye(n)
        l = rng.standard_normal(n)
        r = float(rng.random() * 5 + 1.0)
        c = rng.standard_normal(n)
        u = np.linalg.solve(q, c)
        w = np.linalg.solve(q, l)
        a_ = float(c @ u)
        d_ = float(l @ w)
        lam = np.sqrt(a_ / (d_ + 4.0 * r))
        x_star = (u / lam - w) / 2.0
        box = float(np.abs(x_star).max()) + 5.0
        p = QcqpProblem(c=c, q=q, l=l, r=r,
                        a_ineq=np.vstack([np.eye(n), -np.eye(n)]),
                        b_ineq=np.full(2 * n, box))
        sol, cert = solve_qcqp(p)
        assert cert.status == "optimal"
        assert cert.path == "closed-form" and cert.iterations == 0
        assert cert.objective == pytest.approx(float(c @ x_star), rel=1e-6, abs=1e-6)
        assert sol.x == pytest.approx(x_star, rel=1e-4, abs=1e-5)


def test_qcqp_certificate_honesty(rng):
    p = _random_instance(rng)
    sol, cert = solve_qcqp(p)
    assert abs(qcqp_kkt_residual(p, sol) - cert.kkt_residual) <= 1e-12


def test_qcqp_deterministic():
    for box, path in ((20.0, "closed-form"), (BINDING_BOX, "parametric")):
        p = _random_instance(np.random.default_rng(5), box=box)
        assert solve_qcqp(p)[1].path == path
        x1 = solve_qcqp(p)[0].x
        x2 = solve_qcqp(p)[0].x
        assert np.array_equal(x1, x2)


def test_qcqp_objective_scaling_invariance():
    for box, path in ((20.0, "closed-form"), (BINDING_BOX, "parametric")):
        p = _random_instance(np.random.default_rng(6), box=box)
        assert solve_qcqp(p)[1].path == path
        x1 = solve_qcqp(p)[0].x
        p2 = QcqpProblem(c=7.0 * p.c, q=p.q, l=p.l, r=p.r, a_ineq=p.a_ineq,
                         b_ineq=p.b_ineq)
        x2 = solve_qcqp(p2)[0].x
        assert x2 == pytest.approx(x1, abs=1e-7)


def test_qcqp_start_point_independence():
    # the solve takes no start point: no strictly feasible point drawn at
    # random beats its optimum, on either path
    for box, path in ((20.0, "closed-form"), (BINDING_BOX, "parametric")):
        p = _random_instance(np.random.default_rng(8), box=box)
        sol, cert = solve_qcqp(p)
        assert cert.status == "optimal" and cert.path == path
        rng = np.random.default_rng(80)
        found = 0
        while found < 10:
            x0 = rng.uniform(-2, 2, size=2)
            if p.f_quad(x0) < -1e-6 and np.all(p.b_ineq - p.a_ineq @ x0 > 1e-6):
                assert float(p.c @ x0) <= cert.objective
                found += 1


def test_qcqp_weakly_active_rate_rows(bank):
    # MPC throughput problem with current-rate limits of 5 A/step: at the
    # optimum four rate rows bind with multipliers ~3e-4, six orders below the
    # throughput multiplier
    from feederdispatch.mpc import MpcLimits, MpcProblem
    h = 6
    tv = bank.transitions(bank.voltage_model(0.5), h)
    ts = bank.transitions(bank.soc_model, h)
    mp = MpcProblem(horizon=h, e_k=1.5, phi_v=tv.phi, psi_v_i=tv.psi_i,
                    psi_v_1=tv.psi_1, phi_soc=ts.phi, psi_soc_i=ts.psi_i,
                    x_k=np.zeros(2), soc_k=0.5, v_k=652.0,
                    limits=MpcLimits(di_min=-5.0, di_max=5.0))
    m = mp._qcqp
    p = QcqpProblem(c=np.ones(h), q=m.q, l=m.l, r=mp.e_k, a_ineq=m.a_ineq, b_ineq=m.b_ineq)
    sol, cert = solve_qcqp(p)
    assert cert.status == "optimal"
    assert qcqp_kkt_residual(p, sol) <= 1e-6
    # rows 2h.. hold i[j+1] - i[j] <= 5, the next h-1 rows the negation: the
    # optimum falls 5 A/step over the first two steps and rises over the last two
    act = np.array([2 * h + 3, 2 * h + 4, 3 * h - 1, 3 * h])
    x, mu, lam = active_set_qcqp(p.q_sym, p.l, p.r, p.c, p.a_ineq[act], p.b_ineq[act])
    assert mu > 0.0 and np.all(lam > 0.0)
    assert np.all(lam < 1e-5 * mu)
    assert np.all(p.a_ineq @ x <= p.b_ineq + 1e-9)
    assert sol.x == pytest.approx(x, abs=1e-6)
    assert list(np.nonzero(sol.active)[0]) == list(act)


def _random_qcqp(rng, n, m):
    f = rng.normal(size=(n, n))
    return QcqpProblem(c=rng.normal(size=n), q=f @ f.T + 10.0 ** rng.uniform(-3, 1) * np.eye(n),
                       l=rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3), r=float(rng.normal()),
                       a_ineq=rng.normal(size=(m, n)), b_ineq=rng.normal(size=m))


def test_closed_form_matches_cho_solve(rng):
    # z = Q^-1 l through LAPACK's dpotrs equals scipy's cho_solve bit for bit
    from scipy.linalg import cho_solve
    for _ in range(500):
        p = _random_qcqp(rng, int(rng.integers(1, 31)), 0)
        z = cho_solve((p.q_chol, True), p.l, check_finite=False)
        p = p.with_rhs(p.l, abs(float(p.l @ z)) + 1.0, p.b_ineq)
        mu = np.sqrt((4.0 * p.r + float(p.l @ z)) / p.cy)
        sol = solver._closed_form(p)
        assert sol.x.tobytes() == (0.5 * (mu * p.y - z)).tobytes()
        assert sol.dual_quad == 1.0 / mu


def test_kkt_residual_matches_numpy_reductions(rng):
    # ndarray-method reductions give the np.max(..., initial=0) residual bit
    # for bit: negative multipliers, multipliers all zero, and no rows at all
    for j in range(400):
        n = int(rng.integers(1, 31))
        m = 0 if j % 4 == 0 else int(rng.integers(1, 2 * n + 1))
        p = _random_qcqp(rng, n, m)
        lam = rng.normal(size=m) * (rng.random(m) < 0.5) * (j % 3 != 0)
        sol = QcqpSolution(x=rng.normal(size=n) * 10.0, dual_quad=float(rng.normal()),
                           dual_ineq=lam)
        assert qcqp_kkt_residual(p, sol) == qcqp_kkt_residual_np(p, sol)


def test_closed_form_certificate_matches_numpy_reductions(rng):
    # a closed form that holds every row (half of them at zero slack) is
    # certified with the residual of the numpy formula, bit for bit; the same
    # draw with one row broken by one ulp leaves the closed form
    for j in range(200):
        n = int(rng.integers(1, 31))
        m = 0 if j % 5 == 0 else int(rng.integers(1, 2 * n + 1))
        p = _random_qcqp(rng, n, m)
        z = np.linalg.solve(p.q_sym, p.l)
        p = p.with_rhs(p.l, abs(float(p.l @ z)) + 1.0, p.b_ineq)
        ax = p.a_ineq @ solver._closed_form(p).x
        b = ax + rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.5)
        sol, cert = solve_qcqp(p.with_rhs(p.l, p.r, b))
        assert cert.path == "closed-form"
        assert cert.kkt_residual == qcqp_kkt_residual_np(p.with_rhs(p.l, p.r, b), sol)
        if m:
            row = int(rng.integers(m))
            b[row] = np.nextafter(ax[row], -np.inf)
            assert solve_qcqp(p.with_rhs(p.l, p.r, b))[1].path != "closed-form"


def test_piece_matches_cho_solve(rng):
    # x(t) on an active set through LAPACK's dpotrf/dpotrs equals the
    # cho_factor/cho_solve form bit for bit: no row, some rows, and as many
    # independent rows as variables (no null space left)
    for j in range(300):
        n = int(rng.integers(1, 31))
        m = int(rng.integers(n, 2 * n + 1))
        p = _random_qcqp(rng, n, m)
        k = 0 if j % 7 == 0 else n if j % 7 == 1 else int(rng.integers(1, n + 1))
        act = np.zeros(m, dtype=bool)
        act[rng.choice(m, size=k, replace=False)] = True
        t = float(rng.uniform(0.0, 10.0))
        got, want = solver._piece(p, act, t), piece_cho_solve(p, act, t)
        for a, b in zip(got[:4], want[:4]):
            assert a.tobytes() == b.tobytes()
        assert got[4] == want[4]
    # a reduced quadratic without a Cholesky factor is an error, as before
    p = _random_qcqp(rng, 3, 2)
    p.q_sym = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        solver._piece(p, np.zeros(2, dtype=bool), 0.0)


def _cut_qcqp(rng):
    """A random strictly convex QCQP whose closed form breaks rows: one to
    three rows, leaning along c, cut off the centre of the quadratic, and the
    rest are random rows that the centre holds."""
    n = int(rng.integers(2, 21))
    f = rng.normal(size=(n, n))
    q = f @ f.T + 10.0 ** rng.uniform(-1, 1) * np.eye(n)
    c = rng.normal(size=n)
    l = rng.normal(size=n) * 10.0 ** rng.uniform(-1, 1)
    centre = -0.5 * np.linalg.solve(q, l)
    # f_q(centre) = -10^U(-1, 1): the quadratic's set has an interior
    r = 10.0 ** rng.uniform(-1, 1) - float(centre @ q @ centre)
    k = int(rng.integers(1, 4))
    cut = c + 0.5 * rng.normal(size=(k, n)) * np.abs(c).max()
    loose = rng.normal(size=(int(rng.integers(0, 2 * n)), n))
    a = np.vstack([cut, loose])
    b = a @ centre + np.concatenate([-rng.uniform(0.01, 1.0, k),
                                     rng.uniform(0.5, 5.0, loose.shape[0])])
    return QcqpProblem(c=c, q=q, l=l, r=r, a_ineq=a, b_ineq=b)


def _same_solve(a, b, iterations=True):
    """Two solve results with the same bits in the solution and certificate
    (and the same NNLS count, unless ``iterations`` is False)."""
    (sol_a, cert_a), (sol_b, cert_b) = a, b
    assert (sol_a is None) == (sol_b is None)
    if sol_a is not None:
        for name in ("x", "dual_ineq", "active"):
            assert getattr(sol_a, name).tobytes() == getattr(sol_b, name).tobytes()
        assert sol_a.dual_quad == sol_b.dual_quad and sol_a.quad_active == sol_b.quad_active
    for name in ("status", "path") + (("iterations",) if iterations else ()):
        assert getattr(cert_a, name) == getattr(cert_b, name)
    for name in ("objective", "kkt_residual"):
        assert np.float64(getattr(cert_a, name)).tobytes() \
            == np.float64(getattr(cert_b, name)).tobytes()


def _guess_bypassed(p, monkeypatch, solve=solve_qcqp):
    """``solve(p)`` with no least-distance relaxation tried: one NNLS on all rows."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_guessed_least_distance", lambda *args: (None, 0))
        return solve(p)


def test_guessed_least_distance_matches_nnls(rng, monkeypatch):
    # whenever the least-distance program on fewer rows (those the closed form
    # breaks, then those the unconstrained minimum breaks) is certified, its
    # point is the NNLS point of all rows to 1e-9 relative, with the same
    # active set inside those rows; otherwise the all-row NNLS result is
    # returned bit for bit, after one more NNLS solve
    taken = missed = 0
    for _ in range(400):
        p = _cut_qcqp(rng)
        broken = p.b_ineq - p.a_ineq @ solver._closed_form(p).x < 0.0
        assert broken.any()
        sol, cert = solver.least_distance(p)
        ref, ref_cert = _guess_bypassed(p.with_rhs(p.l, p.r, p.b_ineq), monkeypatch,
                                        solver.least_distance)
        assert ref_cert.iterations == 1
        stages = [rows for rows in (broken, solver._whitened_rhs(p)[1] < 0.0) if rows.any()]
        if len(stages) == 2 and np.array_equal(*stages):
            stages.pop()                # the same rows are not relaxed twice
        if cert.iterations > len(stages):
            missed += 1
            assert cert.iterations == len(stages) + 1
            _same_solve((sol, cert), (ref, ref_cert), iterations=False)
            continue
        taken += 1
        assert cert.status == ref_cert.status == "optimal" and cert.path == "least-distance"
        assert cert.kkt_residual <= solver.KKT_GATE
        assert np.abs(sol.x - ref.x).max() <= 1e-9 * max(1.0, float(np.abs(ref.x).max()))
        assert np.array_equal(sol.active, ref.active)
        assert not (sol.active & ~stages[cert.iterations - 1]).any()
    assert taken >= 100 and missed >= 5


def test_failed_guess_falls_back_to_nnls(monkeypatch):
    # maximize x0 in the unit disk: the closed form (1, 0) and the unconstrained
    # minimum (0, 0) both break x0 <= -0.5 alone, and its least-distance point
    # (-0.5, 0) breaks -x0 + x1 <= 0.25, which binds at the point of both rows,
    # (-0.5, -0.25): the one relaxation of those same rows fails, then one NNLS
    # on all rows gives the result of a solve without it, bit for bit
    p = QcqpProblem(c=[1.0, 0.0], q=np.eye(2), l=[0.0, 0.0], r=1.0,
                    a_ineq=[[1.0, 0.0], [-1.0, 1.0]], b_ineq=[-0.5, 0.25])
    assert list(p.b_ineq - p.a_ineq @ solver._closed_form(p).x < 0.0) == [True, False]
    assert list(solver._whitened_rhs(p)[1] < 0.0) == [True, False]
    got = solve_qcqp(p)
    assert got[1].status == "optimal" and got[1].path == "parametric"
    ld = solver.least_distance(p)
    assert ld[1].iterations == 2 and ld[0].x == pytest.approx([-0.5, -0.25], abs=1e-12)
    fresh = p.with_rhs(p.l, p.r, p.b_ineq)
    want = _guess_bypassed(fresh, monkeypatch)
    _same_solve(got, want, iterations=False)
    assert got[1].iterations == want[1].iterations + 1
    _same_solve(ld, solver.least_distance(fresh), iterations=False)
    # a guess that holds more rows than the active set, one of them with a
    # negative multiplier on its own (x0 + x1 <= 0.9), or the same row twice,
    # is still certified: the NNLS on the guessed rows drops what is not active
    for rows, b in (([[1.0, 0.0], [1.0, 1.0]], [-0.5, 0.9]), ([[1.0, 0.0], [1.0, 0.0]], [-0.5, -0.5])):
        p = QcqpProblem(c=[1.0, 0.0], q=np.eye(2), l=[0.0, 0.0], r=1.0, a_ineq=rows, b_ineq=b)
        assert (p.b_ineq - p.a_ineq @ solver._closed_form(p).x < 0.0).all()
        sol, cert = solver.least_distance(p)
        ref, ref_cert = _guess_bypassed(p.with_rhs(p.l, p.r, p.b_ineq), monkeypatch,
                                        solver.least_distance)
        assert cert.iterations == 1 and cert.status == ref_cert.status == "optimal"
        assert sol.x == pytest.approx([-0.5, 0.0], abs=1e-12)
        assert np.abs(sol.x - ref.x).max() <= 1e-12
