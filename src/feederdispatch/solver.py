"""Convex optimization kernels: a dense LP solver and a small QCQP solver.

The LP side (day-ahead problem, ~1000 variables, solved once per day) wraps the
HiGHS backend of :func:`scipy.optimize.linprog`. The QCQP side (real-time MPC,
<= 30 variables, solved every 10 seconds) handles the class "linear objective,
one convex quadratic inequality, linear inequalities" in two stages. When the
quadratic is positive definite it first tries the closed-form optimum with the
quadratic row alone binding, which is what most control steps are; that point
is returned only if every linear row holds and it passes the KKT gate. Every
other problem goes to a log-barrier interior-point method. A barrier that has
no strictly feasible start first minimizes the quadratic over the linear rows,
a least-distance program solved exactly by one NNLS; a positive minimum proves
the problem infeasible, and the minimiser is the controller's closest
achievable point. Every solve returns a certificate whose KKT residual is
computed by the same public evaluators used in the test suite.

Conventions: LPs minimize, QCQPs maximize. All solves are deterministic for
identical inputs (fixed iteration schedules, no randomized pivoting).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.optimize import linprog, nnls

LP_ITERATION_CAP = 200
QCQP_ITERATION_CAP = 100
FEAS_TOL = 1e-8          # absolute feasibility
GAP_TOL = 1e-8           # relative duality gap driven below this
KKT_GATE = 1e-6          # relative KKT residual at or below this certifies "optimal"
PSD_EIG_TOL = -1e-9
ACTIVE_RATIO = 1e3       # slack / (multiplier |a_i|^2) at or below this marks a row active
ACTIVE_SET_ROUNDS = 10


class SolverError(Exception):
    """Numerical failure inside a solve (iteration cap, singular KKT system)."""


@dataclass
class SolveCertificate:
    status: str                 # "optimal" | "infeasible" | "failure"
    objective: float = np.nan
    kkt_residual: float = np.nan
    iterations: int = 0
    wall_time: float = 0.0
    # QCQP stage that ran last: "closed-form" | "barrier" | "least-distance"
    path: str = ""


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------


@dataclass
class LinearProgram:
    """min c'x  s.t.  a_ineq x <= b_ineq,  a_eq x = b_eq,  lb <= x <= ub."""

    c: np.ndarray
    a_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        for name in ("a_ineq", "a_eq"):
            a = getattr(self, name)
            if a is not None:
                a = np.atleast_2d(np.asarray(a, dtype=float))
                setattr(self, name, a)
                if a.shape[1] != n:
                    raise ValueError(f"{name} has {a.shape[1]} columns, expected {n}")
        if (self.a_ineq is None) != (self.b_ineq is None):
            raise ValueError("a_ineq and b_ineq must be given together")
        if (self.a_eq is None) != (self.b_eq is None):
            raise ValueError("a_eq and b_eq must be given together")
        if self.b_ineq is not None:
            self.b_ineq = np.asarray(self.b_ineq, dtype=float).ravel()
            if self.b_ineq.size != self.a_ineq.shape[0]:
                raise ValueError("b_ineq length mismatch")
        if self.b_eq is not None:
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
            if self.b_eq.size != self.a_eq.shape[0]:
                raise ValueError("b_eq length mismatch")
        self.lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound length mismatch")


@dataclass
class LpSolution:
    x: np.ndarray
    dual_ineq: np.ndarray       # >= 0, for a_ineq x <= b_ineq
    dual_eq: np.ndarray
    dual_lb: np.ndarray         # >= 0, for x >= lb
    dual_ub: np.ndarray         # >= 0, for x <= ub


def lp_kkt_residual(p: LinearProgram, sol: LpSolution) -> float:
    """Relative KKT residual of an LP primal/dual pair, recomputed from scratch."""
    x = sol.x
    n = x.size
    stat = p.c.copy()
    comp = 0.0
    primal = 0.0
    dual = 0.0
    if p.a_ineq is not None:
        slack = p.b_ineq - p.a_ineq @ x
        stat += p.a_ineq.T @ sol.dual_ineq
        primal = max(primal, float(np.max(-slack, initial=0.0)))
        dual = max(dual, float(np.max(-sol.dual_ineq, initial=0.0)))
        comp = max(comp, float(np.max(np.abs(sol.dual_ineq * slack), initial=0.0)))
    if p.a_eq is not None:
        stat += p.a_eq.T @ sol.dual_eq
        primal = max(primal, float(np.max(np.abs(p.a_eq @ x - p.b_eq), initial=0.0)))
    lb_f = np.where(np.isfinite(p.lb), p.lb, 0.0)
    ub_f = np.where(np.isfinite(p.ub), p.ub, 0.0)
    slack_lb = np.where(np.isfinite(p.lb), x - lb_f, np.inf)
    slack_ub = np.where(np.isfinite(p.ub), ub_f - x, np.inf)
    stat += -sol.dual_lb + sol.dual_ub
    primal = max(primal, float(np.max(-np.minimum(slack_lb, slack_ub), initial=0.0)))
    dual = max(dual, float(np.max(-sol.dual_lb, initial=0.0)),
               float(np.max(-sol.dual_ub, initial=0.0)))
    with np.errstate(invalid="ignore"):
        comp_lb = np.where(np.isfinite(slack_lb), np.abs(sol.dual_lb * slack_lb), 0.0)
        comp_ub = np.where(np.isfinite(slack_ub), np.abs(sol.dual_ub * slack_ub), 0.0)
    comp = max(comp, float(np.max(comp_lb, initial=0.0)), float(np.max(comp_ub, initial=0.0)))
    obj_scale = 1.0 + abs(float(p.c @ x))
    c_scale = 1.0 + float(np.max(np.abs(p.c), initial=0.0))
    return max(float(np.max(np.abs(stat))) / c_scale, primal / obj_scale,
               dual / c_scale, comp / obj_scale)


def solve_lp(p: LinearProgram) -> tuple[LpSolution | None, SolveCertificate]:
    """Solve an LP; infeasibility is certified by a phase-1 positive optimum."""
    t0 = time.perf_counter()
    bounds = list(zip(p.lb, p.ub))
    res = linprog(p.c, A_ub=p.a_ineq, b_ub=p.b_ineq, A_eq=p.a_eq, b_eq=p.b_eq,
                  bounds=bounds, method="highs",
                  options={"maxiter": max(LP_ITERATION_CAP * 100, 10000)})
    wall = time.perf_counter() - t0
    nit = int(getattr(res, "nit", 0) or 0)
    if res.status == 2:
        # confirm with an elastic phase-1: positive optimum certifies infeasibility
        viol = _phase1_violation(p)
        status = "infeasible" if viol > FEAS_TOL else "failure"
        return None, SolveCertificate(status=status, objective=viol,
                                      kkt_residual=np.nan, iterations=nit, wall_time=wall)
    if res.status != 0:
        return None, SolveCertificate(status="failure", iterations=nit, wall_time=wall)
    x = np.asarray(res.x, dtype=float)
    # scipy marginals are d(objective)/d(rhs); convert to nonnegative multipliers.
    m_in = p.a_ineq.shape[0] if p.a_ineq is not None else 0
    m_eq = p.a_eq.shape[0] if p.a_eq is not None else 0
    dual_ineq = -np.asarray(res.ineqlin.marginals) if m_in else np.zeros(0)
    dual_eq = -np.asarray(res.eqlin.marginals) if m_eq else np.zeros(0)
    dual_lb = np.asarray(res.lower.marginals)
    dual_ub = -np.asarray(res.upper.marginals)
    sol = LpSolution(x=x, dual_ineq=np.maximum(dual_ineq, 0.0), dual_eq=dual_eq,
                     dual_lb=np.maximum(dual_lb, 0.0), dual_ub=np.maximum(dual_ub, 0.0))
    cert = SolveCertificate(status="optimal", objective=float(p.c @ x),
                            kkt_residual=lp_kkt_residual(p, sol),
                            iterations=nit, wall_time=wall)
    return sol, cert


def _phase1_violation(p: LinearProgram) -> float:
    """Minimum total constraint violation with bounds kept hard (elastic LP)."""
    n = p.c.size
    m_in = p.a_ineq.shape[0] if p.a_ineq is not None else 0
    m_eq = p.a_eq.shape[0] if p.a_eq is not None else 0
    n_s = m_in + m_eq
    if n_s == 0:
        return 0.0
    c = np.concatenate([np.zeros(n), np.ones(n_s)])
    rows = []
    rhs = []
    if m_in:
        a = np.hstack([p.a_ineq, -np.eye(m_in, n_s)])
        rows.append(a)
        rhs.append(p.b_ineq)
    if m_eq:
        s_eq = np.zeros((m_eq, n_s))
        s_eq[:, m_in:] = np.eye(m_eq)
        rows.append(np.hstack([p.a_eq, -s_eq]))
        rhs.append(p.b_eq)
        rows.append(np.hstack([-p.a_eq, -s_eq]))
        rhs.append(-p.b_eq)
    a_ub = np.vstack(rows)
    b_ub = np.concatenate(rhs)
    lb = np.concatenate([p.lb, np.zeros(n_s)])
    ub = np.concatenate([p.ub, np.full(n_s, np.inf)])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=list(zip(lb, ub)), method="highs")
    if res.status != 0:
        return np.inf
    return float(res.fun)


# ---------------------------------------------------------------------------
# QCQP: maximize c'x  s.t.  x'(sym q)x + l'x <= r,  a_ineq x <= b_ineq
# ---------------------------------------------------------------------------


@dataclass
class QcqpProblem:
    """maximize c'x - x'(q_obj)x  s.t.  x'(sym q)x + l'x <= r,  a_ineq x <= b_ineq.

    ``q_obj`` is an optional PSD concavity term of the objective (None for the
    plain linear-objective class used by the controller).
    """

    c: np.ndarray
    q: np.ndarray
    l: np.ndarray
    r: float
    a_ineq: np.ndarray
    b_ineq: np.ndarray
    q_obj: np.ndarray | None = None
    q_sym: np.ndarray = field(init=False, repr=False)
    q_chol: np.ndarray | None = field(init=False, repr=False)   # lower factor, None unless PD
    _least_distance: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        self.q = np.asarray(self.q, dtype=float).reshape(n, n)
        self.l = np.asarray(self.l, dtype=float).ravel()
        if self.l.size != n:
            raise ValueError("l length mismatch")
        self.a_ineq = np.atleast_2d(np.asarray(self.a_ineq, dtype=float))
        self.b_ineq = np.asarray(self.b_ineq, dtype=float).ravel()
        if self.a_ineq.shape[1] != n or self.a_ineq.shape[0] != self.b_ineq.size:
            raise ValueError("inequality system dimension mismatch")
        self.q_sym = 0.5 * (self.q + self.q.T)
        # a Cholesky factor proves positive definiteness and serves the closed
        # form; only a failed one pays for the eigenvalues, which tell a
        # singular PSD q (accepted) from an indefinite one. The tolerance is
        # relative to q alone: MPC quadratics are ~1e-8 in kWh/A^2.
        try:
            self.q_chol = np.linalg.cholesky(self.q_sym)
        except np.linalg.LinAlgError:
            self.q_chol = None
            w_min = float(np.linalg.eigvalsh(self.q_sym).min())
            if w_min < PSD_EIG_TOL * float(np.abs(self.q_sym).max(initial=0.0)):
                raise ValueError(f"quadratic constraint not PSD (min eigenvalue {w_min:.3e})")
        if self.q_obj is not None:
            self.q_obj = 0.5 * (np.asarray(self.q_obj, dtype=float).reshape(n, n)
                                + np.asarray(self.q_obj, dtype=float).reshape(n, n).T)
            w_min = float(np.linalg.eigvalsh(self.q_obj).min())
            if w_min < PSD_EIG_TOL * max(1.0, float(np.abs(self.q_obj).max(initial=0.0))):
                raise ValueError("objective curvature q_obj must be PSD")

    def f_quad(self, x: np.ndarray) -> float:
        return float(x @ self.q_sym @ x + self.l @ x - self.r)

    def objective(self, x: np.ndarray) -> float:
        val = float(self.c @ x)
        if self.q_obj is not None:
            val -= float(x @ self.q_obj @ x)
        return val

    def objective_gradient(self, x: np.ndarray) -> np.ndarray:
        if self.q_obj is None:
            return self.c
        return self.c - 2.0 * self.q_obj @ x


@dataclass
class QcqpSolution:
    x: np.ndarray
    dual_quad: float
    dual_ineq: np.ndarray
    # constraints the solve found active: the quadratic, and a mask over the
    # rows of a_ineq (set by solve_qcqp)
    quad_active: bool = False
    active: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))


def qcqp_kkt_residual(p: QcqpProblem, sol: QcqpSolution) -> float:
    """Relative KKT residual for the maximization QCQP, recomputed from scratch."""
    x = sol.x
    fq = p.f_quad(x)
    slack = p.b_ineq - p.a_ineq @ x
    stat = -p.objective_gradient(x) + sol.dual_quad * (2.0 * p.q_sym @ x + p.l) \
        + p.a_ineq.T @ sol.dual_ineq
    obj_scale = 1.0 + abs(p.objective(x))
    c_scale = 1.0 + float(np.max(np.abs(p.c), initial=0.0))
    primal = max(fq, float(np.max(-slack, initial=0.0)), 0.0)
    dual = max(0.0, -sol.dual_quad, float(np.max(-sol.dual_ineq, initial=0.0)))
    comp = max(abs(sol.dual_quad * fq),
               float(np.max(np.abs(sol.dual_ineq * slack), initial=0.0)))
    return max(float(np.max(np.abs(stat), initial=0.0)) / c_scale,
               primal / obj_scale, dual / c_scale, comp / obj_scale)


def qp_kkt_residual(p: QcqpProblem, sol: QcqpSolution) -> float:
    """Relative KKT residual of ``sol`` for minimize f_q(x) s.t. a_ineq x <= b_ineq
    (the least-distance problem of :func:`least_distance`), recomputed from
    scratch.

    Stationarity is measured against the size of its own terms, since f_q's
    gradient carries the quadratic's units (kWh/A in the controller); row
    violations are relative to 1 + |b_i|, complementarity to 1 + |f_q|.
    """
    x, lam = sol.x, sol.dual_ineq
    fq = p.f_quad(x)
    slack = p.b_ineq - p.a_ineq @ x
    qx = 2.0 * p.q_sym @ x
    row_pull = p.a_ineq.T @ lam
    stat = qx + p.l + row_pull
    g_scale = max(float(np.abs(qx).max(initial=0.0)), float(np.abs(p.l).max(initial=0.0)),
                  float(np.abs(row_pull).max(initial=0.0))) or 1.0
    row_norm = np.sqrt(np.sum(p.a_ineq**2, axis=1))
    primal = float(np.max(-slack / (1.0 + np.abs(p.b_ineq)), initial=0.0))
    dual = float(np.max(-lam * row_norm, initial=0.0)) / g_scale
    comp = float(np.max(np.abs(lam * slack), initial=0.0)) / (1.0 + abs(fq))
    return max(float(np.abs(stat).max(initial=0.0)) / g_scale, primal, dual, comp)


def least_distance(p: QcqpProblem) -> tuple[QcqpSolution | None, SolveCertificate]:
    """Minimize f_q(x) = x'Qx + l'x - r subject to a_ineq x <= b_ineq, for a
    positive definite Q; computed once per problem and kept on it.

    With Q = L L' and z = Q^-1 l, u = L'x + L^-1 l / 2 turns f_q into
    |u|^2 - l'z/4 - r and the rows into G u <= b + A z/2 with G = A L^-T: a
    least-distance program, solved exactly by one NNLS on the row-normalised
    system (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23).
    The row multipliers are 2 w / (-r_{n+1}) for the NNLS solution w and
    residual r. The certificate's ``objective`` is the minimum of f_q. Status
    is "optimal" when :func:`qp_kkt_residual` passes the gate, "infeasible"
    when NNLS finds the rows themselves infeasible, and "failure" otherwise,
    or when Q has no Cholesky factor.
    """
    if p._least_distance is None:
        t0 = time.perf_counter()
        sol, cert = _least_distance(p)
        cert.wall_time = time.perf_counter() - t0
        p._least_distance = (sol, cert)
    return p._least_distance


def _least_distance(p: QcqpProblem) -> tuple[QcqpSolution | None, SolveCertificate]:
    if p.q_chol is None:
        return None, SolveCertificate(status="failure", path="least-distance")
    chol = p.q_chol
    n = p.c.size
    w0 = 0.5 * solve_triangular(chol, p.l, lower=True, check_finite=False)    # L^-1 l / 2
    g = solve_triangular(chol, p.a_ineq.T, lower=True, check_finite=False).T  # A L^-T
    h = p.b_ineq + g @ w0
    # rows of unit norm, and the right-hand side scaled to unit size, so the
    # NNLS target 1 and the infeasibility test below are free of units
    norms = np.sqrt(np.sum(g**2, axis=1))
    norms[norms == 0.0] = 1.0
    h_scale = float(np.abs(h / norms).max(initial=0.0)) or 1.0
    e = np.vstack([-g.T / norms, -h / (norms * h_scale)])
    f = np.zeros(n + 1)
    f[n] = 1.0
    w, _ = nnls(e, f)
    res = e @ w - f
    if not -res[n] > 1e-12:
        # |u|^2 = -1/r_{n+1} - 1: a vanishing r_{n+1} leaves no bounded point
        return None, SolveCertificate(status="infeasible", path="least-distance")
    u = h_scale * (-res[:n] / res[n])
    x = solve_triangular(chol, u - w0, lower=True, trans="T", check_finite=False)
    lam = 2.0 * h_scale * w / (-res[n] * norms)
    sol = QcqpSolution(x=x, dual_quad=0.0, dual_ineq=lam, active=lam > 0.0)
    residual = qp_kkt_residual(p, sol)
    status = "optimal" if residual <= KKT_GATE else "failure"
    return (sol if status == "optimal" else None,
            SolveCertificate(status=status, objective=p.f_quad(x), kkt_residual=residual,
                             path="least-distance"))


def _newton_center(p: QcqpProblem, x: np.ndarray, t: float, iter_budget: int):
    """Damped Newton minimization of the barrier at parameter t.

    Returns (x, used, centered); the duality-gap bound m/t is only valid at a
    centered point, so callers must not trust it when ``centered`` is False.
    Step length 1/(1+lambda) in the damped phase (self-concordance guarantees
    descent without a merit-function search); full steps near the center. A
    halving loop only guards strict feasibility against rounding.
    """
    a, b = p.a_ineq, p.b_ineq
    used = 0
    centered = False
    # f_q, the slacks and the barrier value at x are carried over from the
    # line search that accepted x, so each is evaluated once per point
    fq = p.f_quad(x)
    slack = b - a @ x
    phi = None
    for _ in range(iter_budget):
        gq = 2.0 * p.q_sym @ x + p.l
        inv_f = 1.0 / (-fq)
        inv_s = 1.0 / slack
        grad = -t * p.objective_gradient(x) + gq * inv_f + a.T @ inv_s
        hess = (2.0 * p.q_sym) * inv_f + np.outer(gq, gq) * inv_f**2 \
            + (a * inv_s[:, None]**2).T @ a
        if p.q_obj is not None:
            hess = hess + (2.0 * t) * p.q_obj
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            hess = hess + 1e-10 * np.eye(x.size) * max(1.0, np.abs(hess).max())
            step = -np.linalg.solve(hess, grad)
        used += 1
        decrement = float(-grad @ step)
        if not math.isfinite(decrement) or decrement < 0.0:
            # numerical breakdown of the Newton system; retry regularized once
            hess = hess + 1e-8 * np.eye(x.size) * max(1.0, np.abs(hess).max())
            step = -np.linalg.solve(hess, grad)
            decrement = float(-grad @ step)
            if not math.isfinite(decrement) or decrement < 0.0:
                break
        if decrement <= 2e-9:
            centered = True
            break
        # consume at most 90% of any slack per step: full plunges toward a
        # boundary poison the next Newton system's conditioning
        alpha = min(1.0, _max_step(fq, gq, p.q_sym, slack, a, step))
        if phi is None:
            phi = t * (-p.objective(x)) - np.log(-fq) - float(np.log(slack).sum())
        phi0 = phi
        ok = False
        for _ in range(40):
            x_new = x + alpha * step
            fq_new = p.f_quad(x_new)
            slack_new = b - a @ x_new
            if fq_new < 0.0 and (slack_new > 0.0).all():
                phi = t * (-p.objective(x_new)) - np.log(-fq_new) \
                    - float(np.log(slack_new).sum())
                if phi <= phi0 - 0.25 * alpha * decrement:
                    ok = True
                    break
            alpha *= 0.5
        if not ok or phi >= phi0:
            # the decrement sits on its rounding floor above the threshold and
            # the accepted step no longer lowers the barrier: every further
            # step repeats it
            break
        x, fq, slack = x_new, fq_new, slack_new
    return x, used, centered


def _max_step(fq, gq, q_sym, slack, a, step, consume: float = 0.99):
    """Largest alpha consuming at most ``consume`` of each constraint slack."""
    d = a @ step
    pos = d > 0.0
    alpha = consume * float((slack[pos] / d[pos]).min()) if pos.any() else np.inf
    qd = float(step @ q_sym @ step)
    gd = float(gq @ step)
    fq_room = consume * fq          # fq < 0: leave (1-consume) of the slack
    if qd > 1e-300:
        alpha_q = (-gd + np.sqrt(max(gd * gd - 4.0 * qd * fq_room, 0.0))) / (2.0 * qd)
        if alpha_q > 0.0:
            alpha = min(alpha, alpha_q)
    elif gd > 0.0:
        alpha = min(alpha, -fq_room / gd)
    return alpha


def _strictly_feasible(p: QcqpProblem, x: np.ndarray, margin: float = 0.0) -> bool:
    return p.f_quad(x) < -margin and bool(np.all(p.b_ineq - p.a_ineq @ x > margin))


def _phase1(p: QcqpProblem, iterations: list[int]) -> np.ndarray | None:
    """Find a strictly feasible point by minimizing the max violation s,
    exiting as soon as some iterate has s < 0."""
    n = p.c.size
    x = np.zeros(n)
    s0 = max(p.f_quad(x), float(np.max(p.a_ineq @ x - p.b_ineq, initial=-1.0))) + 1.0
    # augmented problem over z = (x, s): constraints f_i(x) - s < 0
    z = np.concatenate([x, [s0]])
    m = p.b_ineq.size + 1
    a_aug = np.hstack([p.a_ineq, -np.ones((p.b_ineq.size, 1))])
    q_aug = np.zeros((n + 1, n + 1))
    q_aug[:n, :n] = 2.0 * p.q_sym
    e_s = np.zeros(n + 1)
    e_s[n] = 1.0
    t = 1.0
    scale = 1.0 + abs(s0)
    for _ in range(40):
        for _ in range(QCQP_ITERATION_CAP):
            xx, s = z[:n], z[n]
            fq = p.f_quad(xx) - s
            slack = p.b_ineq - p.a_ineq @ xx + s
            if fq >= 0 or np.any(slack <= 0):
                return None
            gq = np.concatenate([2.0 * p.q_sym @ xx + p.l, [-1.0]])
            inv_f = 1.0 / (-fq)
            inv_s = 1.0 / slack
            grad = t * e_s + gq * inv_f + a_aug.T @ inv_s
            hess = q_aug * inv_f + np.outer(gq, gq) * inv_f**2 \
                + (a_aug * inv_s[:, None]**2).T @ a_aug
            try:
                step = -np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                hess = hess + 1e-10 * np.eye(n + 1) * max(1.0, np.abs(hess).max())
                step = -np.linalg.solve(hess, grad)
            iterations[0] += 1
            decrement = float(-grad @ step)
            if decrement <= 2e-9:
                break
            lam = np.sqrt(decrement)
            alpha = 1.0 if lam < 0.25 else 1.0 / (1.0 + lam)
            for _ in range(60):
                z_new = z + alpha * step
                xn, sn = z_new[:n], z_new[n]
                if (p.f_quad(xn) - sn < 0) and np.all(p.b_ineq - p.a_ineq @ xn + sn > 0):
                    break
                alpha *= 0.5
            else:
                break
            z = z_new
            if z[n] < -1e-6 * scale:
                return z[:n]
        if z[n] < -1e-9 * scale:
            return z[:n]
        if m / t < 1e-12 * scale:
            break
        t *= 30.0
    return z[:n] if z[n] < 0.0 else None


def solve_qcqp(p: QcqpProblem,
               x0: np.ndarray | None = None) -> tuple[QcqpSolution | None, SolveCertificate]:
    """Solve the maximization QCQP: closed form first, log-barrier as fallback.

    For a linear objective and a positive definite quadratic,
    :func:`_closed_form` gives the optimum with the quadratic row alone active.
    It is returned (``path="closed-form"``, no iterations) only if every linear
    row holds and its :func:`qcqp_kkt_residual` passes the 1e-6 gate; it is then
    the optimum of the full problem. Every other problem, including one whose
    candidate breaks a linear row or misses the gate, goes to :func:`_barrier`
    (``path="barrier"``), or is proved infeasible by :func:`least_distance`
    before the barrier starts (``path="least-distance"``).

    ``x0`` optionally supplies a strictly feasible starting point for the
    barrier; the optimum does not depend on it (convexity), only the path
    taken. The solution names the constraints found active (``quad_active``,
    ``active``).
    """
    t_start = time.perf_counter()
    sol = _closed_form(p)
    if sol is not None and np.all(p.b_ineq - p.a_ineq @ sol.x >= 0.0):
        residual = qcqp_kkt_residual(p, sol)
        if residual <= KKT_GATE:
            return sol, SolveCertificate(status="optimal", objective=p.objective(sol.x),
                                         kkt_residual=residual,
                                         wall_time=time.perf_counter() - t_start,
                                         path="closed-form")
    sol, cert = _barrier(p, x0)
    cert.wall_time = time.perf_counter() - t_start
    return sol, cert


def _closed_form(p: QcqpProblem) -> QcqpSolution | None:
    """Optimum with the quadratic row alone active, without checking the rows.

    Stationarity c = (2Qx + l) / mu and f_q(x) = 0 give x = (mu y - z) / 2 with
    y = Q^-1 c, z = Q^-1 l and mu = sqrt((4r + l'z) / (c'y)); the quadratic's
    multiplier is 1/mu (Boyd & Vandenberghe, Convex Optimization, 5.5). None
    unless the objective is linear and nonzero, Q is positive definite and the
    quadratic's feasible set has an interior (4r + l'z > 0).
    """
    if p.q_obj is not None or p.q_chol is None:
        return None
    y, z = cho_solve((p.q_chol, True), np.column_stack([p.c, p.l]), check_finite=False).T
    cy = float(p.c @ y)
    disc = 4.0 * p.r + float(p.l @ z)
    if not (cy > 0.0 and disc > 0.0):
        return None
    mu = np.sqrt(disc / cy)
    return QcqpSolution(x=0.5 * (mu * y - z), dual_quad=1.0 / mu,
                        dual_ineq=np.zeros(p.b_ineq.size), quad_active=True,
                        active=np.zeros(p.b_ineq.size, dtype=bool))


def _barrier(p: QcqpProblem,
             x0: np.ndarray | None = None) -> tuple[QcqpSolution | None, SolveCertificate]:
    """Barrier interior-point solve of the maximization QCQP.

    Without a strictly feasible start (``x0`` or zero), a certified
    :func:`least_distance` minimum of f_q above FEAS_TOL (1 + |r|) returns
    "infeasible" at once; phase 1 runs on every other problem.

    A barrier point that fails the 1e-6 KKT gate gets one primal polish
    (:func:`_polish_primal`); points that pass it are returned as the barrier
    left them. The active constraints are the polish's final set, or else the
    barrier's slack/multiplier ratio rule (:func:`_ratio_active`).
    """
    n = p.c.size
    m = p.b_ineq.size + 1
    iterations = [0]

    # objective scaling for conditioning and scale-invariance of the path
    c_norm = float(np.max(np.abs(p.c), initial=0.0))
    if p.q_obj is not None:
        c_norm = max(c_norm, float(np.abs(p.q_obj).max(initial=0.0)))
    c_scaled = p.c / c_norm if c_norm > 0 else p.c

    x = None
    if x0 is not None and _strictly_feasible(p, np.asarray(x0, dtype=float)):
        x = np.asarray(x0, dtype=float).copy()
    elif _strictly_feasible(p, np.zeros(n)):
        x = np.zeros(n)
    else:
        _, ld = least_distance(p)
        if ld.status == "optimal" and ld.objective > FEAS_TOL * (1.0 + abs(p.r)):
            # the certified minimum of f_q over the rows is positive
            return None, SolveCertificate(status="infeasible", objective=ld.objective,
                                          kkt_residual=ld.kkt_residual,
                                          path="least-distance")
        x = _phase1(p, iterations)
        if x is None:
            return None, SolveCertificate(status="infeasible", iterations=iterations[0],
                                          path="barrier")

    p_scaled = object.__new__(QcqpProblem)
    p_scaled.__dict__.update(p.__dict__)
    p_scaled.c = c_scaled
    if p.q_obj is not None and c_norm > 0:
        p_scaled.q_obj = p.q_obj / c_norm

    t = 100.0
    mu = 100.0
    stalled = 0
    # beyond this the active slacks drop under float resolution of b - a x
    t_cap = 1e13 / max(1.0, float(np.abs(p.b_ineq).max(initial=0.0)))
    for _ in range(60):
        x, used, centered = _newton_center(p_scaled, x, t, QCQP_ITERATION_CAP)
        iterations[0] += used
        if not centered:
            # stuck against a boundary; the iterate may already certify, so
            # stop and let the KKT evaluation decide
            stalled += 1
            if stalled > 1:
                break
            continue
        stalled = 0
        tol_abs = GAP_TOL * (1.0 + abs(p_scaled.objective(x)))
        if m / t <= tol_abs or t >= t_cap:
            break
        t = min(min(mu * t, max(2.0 * t, 1.01 * m / tol_abs)), t_cap)

    fq = p.f_quad(x)
    slack = p.b_ineq - p.a_ineq @ x
    scale_back = c_norm if c_norm > 0 else 1.0
    dual_quad = scale_back / (t * (-fq))
    dual_ineq = scale_back / (t * slack)
    quad_act, act = _ratio_active(p, x, dual_quad, dual_ineq)
    sol = QcqpSolution(x=x, dual_quad=dual_quad, dual_ineq=dual_ineq)
    refined = _refine_duals(p, x, fq, slack)
    if refined is not None and qcqp_kkt_residual(p, refined) < qcqp_kkt_residual(p, sol):
        sol = refined
    sol.quad_active, sol.active = quad_act, act
    residual = qcqp_kkt_residual(p, sol)
    if residual > KKT_GATE:
        polished = _polish_primal(p, x, dual_quad, dual_ineq, quad_act, act)
        if polished is not None:
            polished_residual = qcqp_kkt_residual(p, polished)
            if polished_residual < residual:
                sol, residual = polished, polished_residual
    status = "optimal" if residual <= KKT_GATE else "failure"
    cert = SolveCertificate(status=status, objective=p.objective(sol.x),
                            kkt_residual=residual, iterations=iterations[0],
                            path="barrier")
    return (sol, cert) if status == "optimal" else (None, cert)


def _refine_duals(p: QcqpProblem, x: np.ndarray, fq: float,
                  slack: np.ndarray) -> QcqpSolution | None:
    """Least-squares multipliers restricted to the near-active constraints; the
    barrier duals are only as exact as the last centering step, while the
    active set at the optimum determines the multipliers to machine precision."""
    b_scale = 1.0 + np.abs(p.b_ineq)
    act = slack <= 1e-6 * b_scale
    quad_act = abs(fq) <= 1e-6 * (1.0 + abs(p.r))
    cols = []
    if quad_act:
        cols.append(2.0 * p.q_sym @ x + p.l)
    if np.any(act):
        cols.extend(p.a_ineq[act])
    if not cols:
        return QcqpSolution(x=x, dual_quad=0.0, dual_ineq=np.zeros(p.b_ineq.size))
    g = np.column_stack(cols)
    try:
        lam, _ = nnls(g, p.objective_gradient(x))
    except Exception:
        return None
    dual_quad = 0.0
    k = 0
    if quad_act:
        dual_quad = float(lam[0])
        k = 1
    dual_ineq = np.zeros(p.b_ineq.size)
    dual_ineq[np.nonzero(act)[0]] = lam[k:]
    return QcqpSolution(x=x, dual_quad=dual_quad, dual_ineq=dual_ineq)


def _ratio_active(p: QcqpProblem, x: np.ndarray, dual_quad: float,
                  dual_ineq: np.ndarray) -> tuple[bool, np.ndarray]:
    """Active set the barrier identified: (quadratic active, row mask).

    The barrier pairs each slack with a multiplier whose product is the same
    small number for every row, so the row-scale-free ratio
    slack / (multiplier |a_i|^2) is tiny on active rows and huge on inactive
    ones, whatever the size of the multiplier.
    """
    fq = p.f_quad(x)
    slack = p.b_ineq - p.a_ineq @ x
    gq = 2.0 * p.q_sym @ x + p.l
    with np.errstate(divide="ignore", invalid="ignore"):
        quad_act = bool(-fq <= ACTIVE_RATIO * dual_quad * float(gq @ gq))
        act = slack <= ACTIVE_RATIO * dual_ineq * np.sum(p.a_ineq**2, axis=1)
    return quad_act, act


def _polish_primal(p: QcqpProblem, x: np.ndarray, dual_quad: float,
                   dual_ineq: np.ndarray, quad_act: bool,
                   act: np.ndarray) -> QcqpSolution | None:
    """Re-solve the KKT equalities on the active set the barrier identified
    (:func:`_ratio_active`).

    On that set the optimum solves stationarity, f_q(x) = 0 and A_act x = b_act,
    which Newton's method reaches to machine precision from the barrier point;
    this certifies weakly active rows whose slack is still far above any
    absolute threshold. Rows the solve violates join the set and rows with a
    negative multiplier leave it (primal-dual active-set rounds). Returns None
    unless the result is primal feasible with nonnegative multipliers; the
    solution carries the final set.
    """
    quad_tol = FEAS_TOL * (1.0 + abs(p.r))
    row_tol = FEAS_TOL * (1.0 + np.abs(p.b_ineq))
    for _ in range(ACTIVE_SET_ROUNDS):
        try:
            x_new, mu, lam = _kkt_newton(p, x, dual_quad if quad_act else 0.0,
                                         dual_ineq, quad_act, act)
        except np.linalg.LinAlgError:
            return None
        if not (np.all(np.isfinite(x_new)) and np.isfinite(mu) and np.all(np.isfinite(lam))):
            return None
        quad_viol = p.f_quad(x_new) > quad_tol
        viol = p.b_ineq - p.a_ineq @ x_new < -row_tol
        if not (quad_viol or np.any(viol) or mu < 0.0 or np.any(lam < 0.0)):
            return QcqpSolution(x=x_new, dual_quad=mu, dual_ineq=lam,
                                quad_active=bool(quad_act), active=act)
        quad_act = (quad_act and mu >= 0.0) or quad_viol
        act = (act & (lam >= 0.0)) | viol
    return None


def _kkt_newton(p: QcqpProblem, x: np.ndarray, mu: float, dual_ineq: np.ndarray,
                quad_act: bool, act: np.ndarray):
    """Five Newton steps on  -grad obj + mu grad f_q + A_act' lam = 0,
    f_q(x) = 0 (when ``quad_act``),  A_act x = b_act;  inactive multipliers stay
    zero. The barrier point is close enough for quadratic convergence."""
    n = x.size
    rows = np.nonzero(act)[0]
    a_act, b_act = p.a_ineq[rows], p.b_ineq[rows]
    lam = dual_ineq[rows].copy()
    k = int(quad_act) + rows.size
    for _ in range(5):
        gq = 2.0 * p.q_sym @ x + p.l
        hess = 2.0 * mu * p.q_sym
        if p.q_obj is not None:
            hess = hess + 2.0 * p.q_obj
        g = np.hstack([gq[:, None], a_act.T]) if quad_act else a_act.T
        res = np.concatenate([-p.objective_gradient(x) + mu * gq + a_act.T @ lam,
                              [p.f_quad(x)] if quad_act else [], a_act @ x - b_act])
        kkt = np.block([[hess, g], [g.T, np.zeros((k, k))]])
        step = np.linalg.lstsq(kkt, -res, rcond=None)[0]
        x = x + step[:n]
        if quad_act:
            mu += float(step[n])
        lam = lam + step[n + int(quad_act):]
    full = np.zeros(p.b_ineq.size)
    full[rows] = lam
    return x, mu, full
