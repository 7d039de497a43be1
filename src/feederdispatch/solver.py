"""Convex optimization kernels: a sparse LP solver and a small QCQP solver.

The LP side (day-ahead problem, ~1000 variables, solved once per day) wraps the
HiGHS backend of :func:`scipy.optimize.linprog` on CSR sparse constraint
matrices. The QCQP side (real-time MPC, <= 30 variables, solved every 10
seconds) handles the class "linear objective, one positive definite quadratic
inequality, linear inequalities" with one exact method; problems differing only
in their right-hand sides share the factor and rows
(:meth:`QcqpProblem.with_rhs`). Most control steps bind the quadratic row alone
and take its closed form. Every other step walks the path of least-distance
programs minimize x'Qx + (l - t c)'x over the rows, parametric in t = 1/mu: one
NNLS gives the active set at a t, on which the path is affine and the root of
the quadratic row is a scalar equation. The t = 0 end of that path, first
tried on fewer rows, is the minimum of the quadratic over the rows; a positive
minimum proves the problem infeasible, and its minimiser, the controller's
closest achievable point, comes back with that verdict. An infeasible LP
likewise comes back with the point of least total row violation, which proves
it. Every solve returns a certificate whose KKT residual is computed by the
same public evaluators used in the test suite. A step's cost
is mostly per-call overhead, so the solves call LAPACK's dpotrf, dpotrs and
dtrtrs and reduce with ndarray methods, as scipy's cho_factor, cho_solve,
solve_triangular (C-ordered factor) and np.max do, bit for bit.

Conventions: LPs minimize, QCQPs maximize. All solves are deterministic for
identical inputs (fixed iteration schedules, no randomized pivoting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import linprog, nnls

LP_ITERATION_CAP = 200
QCQP_ITERATION_CAP = 50  # NNLS solves per QCQP
FEAS_TOL = 1e-8          # absolute feasibility
KKT_GATE = 1e-6          # relative KKT residual at or below this certifies "optimal"


class SolverError(Exception):
    """Numerical failure inside a solve."""


@dataclass
class SolveCertificate:
    status: str                 # "optimal" | "infeasible" | "failure"
    objective: float = np.nan
    kkt_residual: float = np.nan
    iterations: int = 0
    # "lp" for a HiGHS solve; "closed-form" for a point certified without a
    # solver (a QCQP's or the centred day-ahead offset); else the QCQP stage
    # that ran last, "parametric" | "least-distance". An "infeasible"
    # least-distance verdict holds either the positive minimum of the quadratic
    # (objective) or a Farkas vector's relative b'y (objective, < 0) and |A'y|
    # (kkt_residual)
    path: str = ""


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------


@dataclass
class LinearProgram:
    """min c'x  s.t.  a_ineq x <= b_ineq,  a_eq x = b_eq,  lb <= x <= ub, with
    a_ineq and a_eq kept as CSR sparse arrays (dense input is converted)."""

    c: np.ndarray
    a_ineq: sp.csr_array | None = None
    b_ineq: np.ndarray | None = None
    a_eq: sp.csr_array | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        for name in ("a_ineq", "a_eq"):
            a = getattr(self, name)
            if a is not None:
                a = sp.csr_array(a if sp.issparse(a) else np.atleast_2d(a), dtype=float)
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
        if not np.all((self.lb <= self.ub) & (self.lb < np.inf) & (self.ub > -np.inf)):
            raise ValueError("bounds must satisfy lb <= ub, lb < inf and ub > -inf")


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
    """Solve an LP by HiGHS; the solution is None unless the status is "optimal"
    or "infeasible".

    When HiGHS returns status 2 (it found no point, or refused the model), the
    elastic LP of :func:`_elastic` is solved the same way, once. Its positive
    optimum, the least total violation of p's rows, certifies "infeasible";
    its objective and KKT residual are the verdict's, ``iterations`` counts
    both solves, and its solution comes back with the verdict: x is p's
    variables followed by the violation of each inequality row, then of each
    equality row. Any other outcome of the elastic solve is a "failure".
    """
    sol, cert, code = _highs(p)
    if code != 2:
        return sol, cert
    e_sol, e_cert, _ = _highs(_elastic(p))
    infeasible = e_cert.status == "optimal" and e_cert.objective > FEAS_TOL
    return (e_sol if infeasible else None), replace(
        e_cert, status="infeasible" if infeasible else "failure",
        iterations=cert.iterations + e_cert.iterations)


def _highs(p: LinearProgram) -> tuple[LpSolution | None, SolveCertificate, int]:
    """One HiGHS solve: p's solution and certificate, or None and a failure; and scipy's status."""
    res = linprog(p.c, A_ub=p.a_ineq, b_ub=p.b_ineq, A_eq=p.a_eq, b_eq=p.b_eq,
                  bounds=list(zip(p.lb, p.ub)), method="highs",
                  options={"maxiter": max(LP_ITERATION_CAP * 100, 10000)})
    nit = int(getattr(res, "nit", 0) or 0)
    if res.status != 0:
        return None, SolveCertificate(status="failure", iterations=nit, path="lp"), res.status
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
                            kkt_residual=lp_kkt_residual(p, sol), iterations=nit, path="lp")
    return sol, cert, 0


def _elastic(p: LinearProgram) -> LinearProgram:
    """p with one violation variable s >= 0 per row, whose sum it minimizes with
    p's bounds kept hard: a_ineq x - s <= b_ineq, and |a_eq x - b_eq| <= s as
    two rows per equality."""
    n = p.c.size
    m_in = p.a_ineq.shape[0] if p.a_ineq is not None else 0
    m_eq = p.a_eq.shape[0] if p.a_eq is not None else 0
    n_s = m_in + m_eq
    rows, rhs = [], []
    if m_in:
        rows.append(sp.hstack([p.a_ineq, -sp.eye(m_in, n_s)]))
        rhs.append(p.b_ineq)
    if m_eq:
        s_eq = sp.eye(m_eq, n_s, k=m_in)
        rows += [sp.hstack([p.a_eq, -s_eq]), sp.hstack([-p.a_eq, -s_eq])]
        rhs += [p.b_eq, -p.b_eq]
    return LinearProgram(c=np.concatenate([np.zeros(n), np.ones(n_s)]),
                         a_ineq=sp.vstack(rows, format="csr"), b_ineq=np.concatenate(rhs),
                         lb=np.concatenate([p.lb, np.zeros(n_s)]),
                         ub=np.concatenate([p.ub, np.full(n_s, np.inf)]))


# ---------------------------------------------------------------------------
# QCQP: maximize c'x  s.t.  x'(sym q)x + l'x <= r,  a_ineq x <= b_ineq
# ---------------------------------------------------------------------------


@dataclass
class QcqpProblem:
    """maximize c'x  s.t.  x'(sym q)x + l'x <= r,  a_ineq x <= b_ineq.

    The symmetric part of q must be positive definite: its Cholesky factor is
    both the check (ValueError without one) and the whitening every solve uses.
    It, y = Q^-1 c, c'y and the whitened rows of :func:`_whitened` depend on c,
    q and the rows alone; the problems :meth:`with_rhs` derives share them.
    """

    c: np.ndarray
    q: np.ndarray
    l: np.ndarray
    r: float
    a_ineq: np.ndarray
    b_ineq: np.ndarray
    q_sym: np.ndarray = field(init=False, repr=False)
    q_chol: np.ndarray = field(init=False, repr=False)     # lower factor of q_sym
    y: np.ndarray = field(init=False, repr=False)          # Q^-1 c
    cy: float = field(init=False, repr=False)
    _shared: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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
        try:
            self.q_chol = np.linalg.cholesky(self.q_sym)
        except np.linalg.LinAlgError:
            raise ValueError("quadratic constraint not positive definite") from None
        self.y = cho_solve((self.q_chol, True), self.c, check_finite=False)
        self.cy = float(self.c @ self.y)

    def with_rhs(self, l: np.ndarray, r: float, b_ineq: np.ndarray) -> "QcqpProblem":
        """This problem with new l, r and b_ineq, float arrays of the shapes of
        its own; ValueError for other shapes."""
        if l.shape != self.l.shape or b_ineq.shape != self.b_ineq.shape:
            raise ValueError("right-hand side dimension mismatch")
        p = object.__new__(QcqpProblem)     # a shallow copy, without copy.copy's protocol
        p.__dict__.update(self.__dict__)
        p.l, p.r, p.b_ineq = l, r, b_ineq
        return p

    def f_quad(self, x: np.ndarray) -> float:
        return float(x @ self.q_sym @ x + self.l @ x - self.r)


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
    return _qcqp_residual(p, sol, p.b_ineq - p.a_ineq @ sol.x)


def _qcqp_residual(p: QcqpProblem, sol: QcqpSolution, slack: np.ndarray) -> float:
    """:func:`qcqp_kkt_residual` given the row slacks b - A x of ``sol.x``. With
    every row multiplier zero, their terms of stationarity, dual feasibility
    and complementarity are exactly 0 and are not formed."""
    x, lam = sol.x, sol.dual_ineq
    fq = p.f_quad(x)
    stat = sol.dual_quad * (2.0 * (p.q_sym @ x) + p.l) - p.c
    dual = max(0.0, -sol.dual_quad)
    comp = abs(sol.dual_quad * fq)
    if lam.any():
        stat += p.a_ineq.T @ lam
        dual = max(dual, float((-lam).max(initial=0.0)))
        comp = max(comp, float(np.abs(lam * slack).max(initial=0.0)))
    obj_scale = 1.0 + abs(float(p.c @ x))
    c_scale = 1.0 + float(np.abs(p.c).max(initial=0.0))
    primal = max(fq, float((-slack).max(initial=0.0)), 0.0)
    return max(float(np.abs(stat).max(initial=0.0)) / c_scale,
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
    qx = 2.0 * (p.q_sym @ x)
    row_pull = p.a_ineq.T @ lam
    stat = qx + p.l + row_pull
    g_scale = max(float(np.abs(qx).max(initial=0.0)), float(np.abs(p.l).max(initial=0.0)),
                  float(np.abs(row_pull).max(initial=0.0))) or 1.0
    row_norm = _whitened(p)[4]
    primal = float((-slack / (1.0 + np.abs(p.b_ineq))).max(initial=0.0))
    dual = float((-lam * row_norm).max(initial=0.0)) / g_scale
    comp = float(np.abs(lam * slack).max(initial=0.0)) / (1.0 + abs(fq))
    return max(float(np.abs(stat).max(initial=0.0)) / g_scale, primal, dual, comp)


def _nnls(p: QcqpProblem, h: np.ndarray, rows=slice(None)) -> tuple:
    """Least-distance point of the rows ``rows`` (all by default) in the whitened variable
    of minimize x'Qx + (l - t c)'x, by one NNLS (Lawson & Hanson, Solving Least Squares
    Problems, 1974, ch. 23).

    With Q = L L', w0 = L^-1 l / 2 and wc = L^-1 c / 2, u = L'x + w0 - t wc turns that
    objective into |u|^2 less a constant, and the rows into G u <= h = h0 - t h1 with
    G = A L^-T, h0 = b + G w0 (:func:`_whitened_rhs`) and h1 = G wc: only the right-hand
    side moves with t. The NNLS works on rows of unit norm, so its target and
    infeasibility test are free of units, with the right-hand side scaled to unit size.
    Returns the NNLS solution w, its residual r and that scale: the point is
    u = -scale r[:n] / r[n], and r[n] ~ 0 means the rows are infeasible."""
    norms, e_g = _whitened(p)[2:4]
    n = p.c.size
    h, norms = h[rows], norms[rows]
    h_scale = float(np.abs(h / norms).max(initial=0.0)) or 1.0
    e = np.vstack([e_g[:, rows], -h / (norms * h_scale)])
    f = np.zeros(n + 1)
    f[n] = 1.0
    w = nnls(e, f)[0] if e.shape[1] else np.zeros(0)     # SciPy's nnls aborts on no rows
    return w, e @ w - f, h_scale


def _whitened_rhs(p: QcqpProblem) -> tuple[np.ndarray, np.ndarray]:
    """w0 = L^-1 l / 2 and h0 = b + G w0 of :func:`_nnls`, for p's own l and b."""
    w0 = 0.5 * dtrtrs(p.q_chol.T, p.l, lower=0, trans=1)[0]
    return w0, p.b_ineq + _whitened(p)[0] @ w0


def _whitened(p: QcqpProblem) -> tuple[np.ndarray, ...]:
    """G, h1, the row norms of G (zero read as 1), -G'/norms of :func:`_nnls`
    and the row norms of a_ineq, built when a solve on p's rows needs them."""
    if "whitened" not in p._shared:
        g = solve_triangular(p.q_chol, p.a_ineq.T, lower=True, check_finite=False).T
        wc = 0.5 * solve_triangular(p.q_chol, p.c, lower=True, check_finite=False)
        norms = np.sqrt(np.sum(g**2, axis=1))
        norms[norms == 0.0] = 1.0
        p._shared["whitened"] = (g, g @ wc, norms, -g.T / norms,
                                 np.sqrt(np.sum(p.a_ineq**2, axis=1)))
    return p._shared["whitened"]


def least_distance(p: QcqpProblem) -> tuple[QcqpSolution | None, SolveCertificate]:
    """Minimize f_q(x) = x'Qx + l'x - r subject to a_ineq x <= b_ineq.

    This is the t = 0 point of :func:`_nnls`: a least-distance program in u = L'x + L^-1 l / 2,
    solved exactly by one NNLS, whose row multipliers are 2 w / (-r_{n+1}) for the NNLS
    solution w and residual r. The certificate's ``objective`` is the minimum of f_q. Status
    is "optimal" when :func:`qp_kkt_residual` passes the gate, "infeasible" when the NNLS
    solution is a checked Farkas vector of the rows (:func:`_farkas`), "failure" otherwise.
    Fewer rows go first (:func:`_guessed_least_distance`); ``iterations`` counts NNLS solves.
    Nothing is kept on p: :func:`solve_qcqp` solves it once, when the closed form fails.
    """
    return _least_distance(p, _closed_form(p), *_whitened_rhs(p))


def _least_distance(p: QcqpProblem, cf: QcqpSolution | None, w0: np.ndarray, h0: np.ndarray):
    """:func:`least_distance` given p's closed form cf and :func:`_whitened_rhs`."""
    ld, solves = _guessed_least_distance(p, cf, w0, h0)
    if ld is not None:
        return ld
    w, res, h_scale = _nnls(p, h0)
    sol, solves = _ld_point(p, w, res, h_scale, w0), solves + 1
    objective = residual = np.nan
    if sol is not None:
        residual = qp_kkt_residual(p, sol)
        if residual > KKT_GATE:
            # rounding in the whitened point: solve the same active set in x
            x, _, nu, _, _ = _piece(p, sol.active, 0.0)
            sol = QcqpSolution(x=x, dual_quad=0.0, dual_ineq=nu, active=sol.active)
            residual = qp_kkt_residual(p, sol)
        objective = p.f_quad(sol.x)
        if residual <= KKT_GATE:
            return sol, SolveCertificate(status="optimal", objective=objective,
                                         kkt_residual=residual, iterations=solves,
                                         path="least-distance")
    farkas = _farkas(p, w / _whitened(p)[2])
    if farkas is not None:
        return None, replace(farkas, iterations=solves)
    return None, SolveCertificate(status="failure", objective=objective, kkt_residual=residual,
                                  iterations=solves, path="least-distance")


def _guessed_least_distance(p: QcqpProblem, cf: QcqpSolution | None, w0: np.ndarray,
                            h0: np.ndarray):
    """Least distance on the rows the closed form cf breaks, then on those the unconstrained
    minimum of f_q breaks (u = 0: h0 < 0) unless they are the same rows: relaxations, whose
    point is kept if all rows hold to FEAS_TOL (1 + |b_i|) and the KKT gate passes. Returns
    it or None, and the NNLS solves."""
    unconstrained = h0 < 0.0
    guess = unconstrained if cf is None else p.b_ineq - p.a_ineq @ cf.x < 0.0
    solves = 0
    for rows in (guess,) if np.array_equal(guess, unconstrained) else (guess, unconstrained):
        if rows.any():
            sol, solves = _ld_point(p, *_nnls(p, h0, rows), w0, rows), solves + 1
            tol = -FEAS_TOL * (1.0 + np.abs(p.b_ineq))
            if sol is not None and (p.b_ineq - p.a_ineq @ sol.x >= tol).all() \
                    and (residual := qp_kkt_residual(p, sol)) <= KKT_GATE:
                return (sol, SolveCertificate("optimal", p.f_quad(sol.x), residual, solves,
                                              path="least-distance")), solves
    return None, solves


def _ld_point(p: QcqpProblem, w, res, h_scale, w0, rows=slice(None)) -> QcqpSolution | None:
    """x and row multipliers of an :func:`_nnls` result on ``rows``; None without a point."""
    n = p.c.size
    if not -res[n] > 1e-12:
        return None                     # |u|^2 = -1/r_{n+1} - 1: no bounded point
    u = h_scale * (-res[:n] / res[n])
    x = dtrtrs(p.q_chol.T, u - w0, lower=0, trans=0)[0]         # L^-T (u - w0)
    lam = np.zeros(p.b_ineq.size)
    lam[rows] = 2.0 * h_scale * w / (-res[n] * _whitened(p)[2][rows])
    return QcqpSolution(x=x, dual_quad=0.0, dual_ineq=lam, active=lam > 0.0)


def _farkas(p: QcqpProblem, y: np.ndarray) -> SolveCertificate | None:
    """Certificate that the rows admit no point: y >= 0 with A'y = 0 and
    b'y < 0 (Farkas' lemma), as NNLS leaves it when the rows are infeasible.

    The "infeasible" certificate holds |A'y| relative to the sum of |y_i a_i|
    as ``kkt_residual`` and b'y relative to the sum of |y_i b_i| as
    ``objective``; it is returned when the first is at most FEAS_TOL and the
    second at most -FEAS_TOL, and None otherwise.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        pull = float(np.abs(p.a_ineq.T @ y).max(initial=0.0)) \
            / float(y @ np.abs(p.a_ineq).max(axis=1, initial=0.0))
        gap = float(p.b_ineq @ y) / float(y @ np.abs(p.b_ineq))
    if not (pull <= FEAS_TOL and gap <= -FEAS_TOL):
        return None
    return SolveCertificate(status="infeasible", objective=gap, kkt_residual=pull,
                            iterations=1, path="least-distance")


def solve_qcqp(p: QcqpProblem) -> tuple[QcqpSolution | None, SolveCertificate]:
    """Solve the maximization QCQP exactly; the solution is None unless the
    status is "optimal" or the verdict "infeasible" comes with its minimiser.

    With t = 1/mu for the quadratic's multiplier mu > 0, the optimum minimizes
    x'Qx + (l - t c)'x over the rows, at the t where f_q reaches 0. The path
    of these minimisers starts at the :func:`least_distance` point (t = 0)
    and is affine in t on each active set (:func:`_piece`), so f_q
    along it is a scalar quadratic: the parametric active-set method of
    Ferreau, Bock & Diehl (qpOASES, 2008) over the single parameter t.

    The path with no row active is the closed form (:func:`_closed_form`,
    ``path="closed-form"``, no iterations), returned when every row holds and
    it passes the KKT gate. Otherwise :func:`_parametric` walks the path
    (``path="parametric"``). A least-distance minimum of f_q above FEAS_TOL
    (1 + |r|) proves the problem infeasible (``path="least-distance"``), and
    the verdict returns its certified minimiser, with the least-distance
    certificate's objective and KKT residual; that minimum is first sought on
    the rows the closed form breaks. Rows that admit no point at all return
    None with their Farkas verdict. ``iterations`` counts NNLS solves. The
    solution names the constraints found active (``quad_active``, ``active``).
    """
    sol = _closed_form(p)
    if sol is not None:
        # one row product serves both the row check and the residual
        slack = p.b_ineq - p.a_ineq @ sol.x
        if (slack >= 0.0).all():
            residual = _qcqp_residual(p, sol, slack)
            if residual <= KKT_GATE:
                return sol, SolveCertificate(status="optimal", objective=float(p.c @ sol.x),
                                             kkt_residual=residual, path="closed-form")
    return _parametric(p, sol)


def _closed_form(p: QcqpProblem) -> QcqpSolution | None:
    """Optimum with the quadratic row alone active, without checking the rows.

    Stationarity c = (2Qx + l) / mu and f_q(x) = 0 give x = (mu y - z) / 2 with
    y = Q^-1 c, z = Q^-1 l and mu = sqrt((4r + l'z) / (c'y)); the quadratic's
    multiplier is 1/mu (Boyd & Vandenberghe, Convex Optimization, 5.5). None
    unless c is nonzero and the quadratic's feasible set has an interior
    (4r + l'z > 0).
    """
    y, cy = p.y, p.cy
    z = dpotrs(p.q_chol, p.l, lower=1)[0]       # cho_solve's LAPACK call, without its checks
    disc = 4.0 * p.r + float(p.l @ z)
    if not (cy > 0.0 and disc > 0.0):
        return None
    mu = math.sqrt(disc / cy)
    return QcqpSolution(x=0.5 * (mu * y - z), dual_quad=1.0 / mu,
                        dual_ineq=np.zeros(p.b_ineq.size), quad_active=True,
                        active=np.zeros(p.b_ineq.size, dtype=bool))


def _parametric(p: QcqpProblem,
                cf: QcqpSolution | None) -> tuple[QcqpSolution | None, SolveCertificate]:
    """Walk the path x(t) of :func:`solve_qcqp` to its root of f_q, from the
    :func:`least_distance` point at t = 0, which instead ends the solve when it
    is not certified or f_q is positive there. ``cf`` is p's :func:`_closed_form`.

    Each NNLS at some t gives the active set there, and on it the root of the
    scalar quadratic f_q(x(t)) gives a candidate (x, mu = 1/t, lambda = nu/t);
    a piece on which x stands still with f_q <= 0 gives mu = 0 and
    lambda = d nu/dt instead. A candidate is returned once every row holds to
    FEAS_TOL (1 + |b_i|), its multipliers are nonnegative (to rounding: each
    lambda_i |a_i| below zero by at most 1e-12 |c|, then set to zero) and it
    passes the KKT gate.

    Otherwise the next NNLS runs at the candidate's t. A piece where x stands
    still has no root: the next NNLS runs just past its end toward the root
    (but at least at ``t_scale``, the closed form's t = 1/mu, going up). Either t
    must lie inside the bracket of t with f_q <= 0 and f_q > 0 seen so far, or a
    geometric bisection of the bracket replaces it. Every NNLS shares h0.
    """
    w0, h0 = _whitened_rhs(p)
    ld_sol, ld = _least_distance(p, cf, w0, h0)
    if ld.status != "optimal":
        return None, ld
    if ld.objective > FEAS_TOL * (1.0 + abs(p.r)):
        # the certified minimum of f_q over the rows is positive
        return ld_sol, replace(ld, status="infeasible")
    act, solves = ld_sol.active, ld.iterations
    t_scale = 1.0 / cf.dual_quad if cf is not None else 1.0
    row_tol = FEAS_TOL * (1.0 + np.abs(p.b_ineq))
    row_norms = _whitened(p)[4]
    lam_tol = 1e-12 * float(np.abs(p.c).max())
    t, t_lo, t_hi = 0.0, 0.0, math.inf
    residual = np.nan
    while True:
        x, dx, nu, dnu, flat = _piece(p, act, t)
        fq = p.f_quad(x)
        if fq <= 0.0:
            t_lo = t
        else:
            t_hi = t
        sol, t_next = None, math.nan
        if flat:
            if fq <= 0.0:
                sol = QcqpSolution(x=x, dual_quad=0.0, dual_ineq=dnu, active=act)
        else:
            t_next = t + _larger_root(p, x, dx)
            if t_next > 0.0:
                sol = QcqpSolution(x=x + (t_next - t) * dx, dual_quad=1.0 / t_next,
                                   dual_ineq=(nu + (t_next - t) * dnu) / t_next,
                                   quad_active=True, active=act)
        # a multiplier that is zero on the piece can come out of rounding a
        # hair below zero; anything more means the row leaves before t_next
        if sol is not None and np.all(sol.dual_ineq * row_norms >= -lam_tol) \
                and np.all((slack := p.b_ineq - p.a_ineq @ sol.x) >= -row_tol):
            sol.dual_ineq = np.maximum(sol.dual_ineq, 0.0)
            residual = _qcqp_residual(p, sol, slack)
            if residual <= KKT_GATE:
                return sol, SolveCertificate(status="optimal", objective=float(p.c @ sol.x),
                                             kkt_residual=residual, iterations=solves,
                                             path="parametric")
        if solves >= QCQP_ITERATION_CAP or not t_lo < t_hi:
            break
        if flat and fq <= 0.0:
            t_next = max((t + _piece_end(p, act, x, dx, nu, dnu)) * (1.0 + 1e-6), t_scale)
        elif flat:
            t_next = (t - _piece_end(p, act, x, -dx, nu, -dnu)) * (1.0 - 1e-6)
        if not t_lo < t_next < t_hi:
            t_next = _bisect(t_lo, t_hi, t_scale)
        w, res, _ = _nnls(p, h0 - t_next * _whitened(p)[1])
        solves += 1
        if not -res[-1] > 1e-12:
            break
        t, act = t_next, w > 0.0
    return None, SolveCertificate(status="failure", kkt_residual=residual,
                                  iterations=solves, path="parametric")


def _piece(p: QcqpProblem, act: np.ndarray, t: float):
    """The path x(t) on a fixed active set: the minimiser of x'Qx + (l - t c)'x
    with the rows ``act`` binding, which is affine in t.

    It is x = x_r + N z on the null space N of the active rows (x_r their
    least-norm solution), with z from the reduced quadratic, so x carries no
    term of the size of t c however large t grows. Returns x(t), dx/dt, the
    row multipliers nu(t) and d nu/dt (zero off ``act``, least-norm on
    dependent rows) and whether x stands still: c lies in the span of the
    active rows, so c'x is already maximal on their face.
    """
    norms = _whitened(p)[4][act]
    a_n = p.a_ineq[act] / norms[:, None]
    u, s, vt = np.linalg.svd(a_n)
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size else 0
    inv = u[:, :rank] / s[:rank]                       # pinv(a_n) = vt_r' inv'
    vt_r, null = vt[:rank], vt[rank:].T
    x_r = vt_r.T @ (inv.T @ (p.b_ineq[act] / norms))
    reduced, info = dpotrf(null.T @ p.q_sym @ null, lower=0, clean=0)    # as cho_factor
    if info > 0:
        raise np.linalg.LinAlgError("reduced quadratic not positive definite")
    n_c = null.T @ p.c
    z = -0.5 * dpotrs(reduced, null.T @ (2.0 * (p.q_sym @ x_r) + p.l) - t * n_c,
                      lower=0)[0] if n_c.size else n_c
    dz = 0.5 * dpotrs(reduced, n_c, lower=0)[0] if n_c.size else n_c
    x, dx = x_r + null @ z, null @ dz
    # stationarity 2Qx + l - t c + A' nu = 0 on the active rows
    nu = np.zeros((p.b_ineq.size, 2))
    nu[act] = (inv @ (vt_r @ np.column_stack([t * p.c - p.l - 2.0 * (p.q_sym @ x),
                                               p.c - 2.0 * (p.q_sym @ dx)]))) / norms[:, None]
    flat = float(np.abs(n_c).max(initial=0.0)) <= 1e-9 * float(np.abs(p.c).max())
    return x, dx, nu[:, 0], nu[:, 1], flat


def _larger_root(p: QcqpProblem, x: np.ndarray, dx: np.ndarray) -> float:
    """Larger root s of f_q(x + s dx) = a s^2 + b s + f_q(x), or nan."""
    a = float(dx @ p.q_sym @ dx)
    b = float((2.0 * (p.q_sym @ x) + p.l) @ dx)
    c0 = p.f_quad(x)
    disc = b * b - 4.0 * a * c0
    if not (a > 0.0 and disc >= 0.0):
        return math.nan
    root = math.sqrt(disc)
    # the cancellation-free form of each sign of b
    return (-b + root) / (2.0 * a) if b <= 0.0 else -2.0 * c0 / (b + root)


def _piece_end(p: QcqpProblem, act: np.ndarray, x: np.ndarray, dx: np.ndarray,
               nu: np.ndarray, dnu: np.ndarray) -> float:
    """Largest s >= 0 for which ``act`` stays the active set along x + s dx,
    nu + s dnu: the first multiplier to reach zero or inactive row to reach
    its bound."""
    with np.errstate(divide="ignore", invalid="ignore"):
        leave = np.where(act & (dnu < 0.0), -nu / dnu, np.inf)
        a_dx = p.a_ineq @ dx
        enter = np.where(~act & (a_dx > 0.0), (p.b_ineq - p.a_ineq @ x) / a_dx, np.inf)
    return max(0.0, float(min(leave.min(initial=np.inf), enter.min(initial=np.inf))))


def _bisect(t_lo: float, t_hi: float, t_scale: float) -> float:
    """Next t inside the bracket (t_lo, t_hi): geometric mean when both ends
    are positive and finite, a factor of 4 beyond an open end otherwise."""
    if math.isinf(t_hi):
        return 4.0 * max(t_lo, t_scale)
    if t_lo <= 0.0:
        return 0.25 * t_hi
    return math.sqrt(t_lo * t_hi)
