"""Independent brute-force oracles used to cross-check the optimization paths.

These deliberately avoid the library's solver code: feasibility and objectives
are evaluated directly from problem data with plain numpy.
"""

import csv

import numpy as np

from feederdispatch.dayahead import _PLAN_COLUMNS, PLAN_HEADER, DayAheadConfig, beta_coeffs
from feederdispatch.forecast import (N_SLOTS, NOISE_AR, NOISE_STD_KW, RADIATION_CLEAR_SKY,
                                     RADIATION_MEAN, RADIATION_SPREAD, HistoricalDay,
                                     base_profile, is_working_dayofyear, pv_profile)


def grid_offset_search(l_hat, env_low, env_high, cfg: DayAheadConfig,
                       resolution: float = 0.1):
    """Exhaustive grid search of the day-ahead offset on a small horizon.

    Minimizes sum(|f + env_low| + |f + env_high|) over per-slot grids subject to
    the propagated worst-case stored-energy recursion, the battery power bounds
    on both worst-case powers and the optional plan cap. Returns
    (objective, f) or (None, None) when no grid point is feasible.
    """
    l_hat = np.asarray(l_hat, float)
    env_low = np.asarray(env_low, float)
    env_high = np.asarray(env_high, float)
    n = l_hat.size
    assert n <= 4, "grid oracle is exponential in the slot count"
    beta_p, beta_m = beta_coeffs(cfg)
    b_lo = cfg.b_min + cfg.power_backoff
    b_hi = cfg.b_max - cfg.power_backoff

    grids = []
    for i in range(n):
        lo = b_lo - env_low[i]
        hi = b_hi - env_high[i]
        if cfg.p_max is not None:
            hi = min(hi, cfg.p_max - l_hat[i])
        if hi < lo:
            return None, None
        start = np.ceil(lo / resolution) * resolution
        grids.append(np.arange(start, hi + 1e-12, resolution))
        if grids[-1].size == 0:
            return None, None

    mesh = np.meshgrid(*grids, indexing="ij")
    f = np.stack([m.ravel() for m in mesh])          # (n, points)

    def soe_traj(env):
        b = f + env[:, None]
        delta = beta_p * np.maximum(b, 0.0) + beta_m * np.minimum(b, 0.0)
        return cfg.soe0 + np.cumsum(delta, axis=0)

    low = soe_traj(env_low)
    high = soe_traj(env_high)
    feas = np.all(low >= cfg.soe_min + cfg.soe_backoff - 1e-9, axis=0) \
        & np.all(high <= cfg.soe_max - cfg.soe_backoff + 1e-9, axis=0)
    if not np.any(feas):
        return None, None
    obj = (np.abs(f + env_low[:, None]) + np.abs(f + env_high[:, None])).sum(axis=0)
    obj = np.where(feas, obj, np.inf)
    j = int(np.argmin(obj))
    return float(obj[j]), f[:, j].copy()


def dense_offset_optimum(l_hat, env_low, env_high, cfg: DayAheadConfig):
    """The day-ahead offset LP assembled dense, as numpy blocks over
    z = [K+, K-, G+, G-] >= 0, and solved with SciPy's HiGHS directly.
    Returns (objective, f) with f = K+ - K- - env_low, or (None, None) when
    HiGHS reports no optimum."""
    from scipy.optimize import linprog

    n = l_hat.size
    beta_p, beta_m = beta_coeffs(cfg)
    z = np.zeros((n, n))
    eye = np.eye(n)
    tril = np.tril(np.ones((n, n)))
    b_lo = cfg.b_min + cfg.power_backoff
    b_hi = cfg.b_max - cfg.power_backoff
    rows = [np.hstack([-beta_p * tril, beta_m * tril, z, z]),
            np.hstack([z, z, beta_p * tril, -beta_m * tril]),
            np.hstack([eye, -eye, z, z]), np.hstack([-eye, eye, z, z]),
            np.hstack([z, z, eye, -eye]), np.hstack([z, z, -eye, eye])]
    rhs = [np.full(n, cfg.soe0 - cfg.soe_min - cfg.soe_backoff),
           np.full(n, cfg.soe_max - cfg.soe_backoff - cfg.soe0),
           np.full(n, b_hi), np.full(n, -b_lo), np.full(n, b_hi), np.full(n, -b_lo)]
    if cfg.p_max is not None:
        rows.append(np.hstack([eye, -eye, z, z]))
        rhs.append(cfg.p_max - l_hat + env_low)
    res = linprog(np.ones(4 * n), A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                  A_eq=np.hstack([eye, -eye, -eye, eye]), b_eq=env_low - env_high,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        return None, None
    return float(res.fun), res.x[:n] - res.x[n:2 * n] - env_low


def bmat_offset_lp(l_hat, env_low, env_high, cfg: DayAheadConfig):
    """The day-ahead offset LP's arrays as first assembled: a dense lower
    triangle converted to CSR and the blocks joined by ``scipy.sparse.bmat``.
    Returns (a_ineq, b_ineq, a_eq, b_eq)."""
    import scipy.sparse as sp

    n = l_hat.size
    beta_p, beta_m = beta_coeffs(cfg)
    eye = sp.eye(n, format="csr")
    tril = sp.csr_array(np.tril(np.ones((n, n))))
    b_lo = cfg.b_min + cfg.power_backoff
    b_hi = cfg.b_max - cfg.power_backoff
    a_eq = sp.hstack([eye, -eye, -eye, eye], format="csr")
    rows = [
        [-beta_p * tril, beta_m * tril, None, None],
        [None, None, beta_p * tril, -beta_m * tril],
        [eye, -eye, None, None],
        [-eye, eye, None, None],
        [None, None, eye, -eye],
        [None, None, -eye, eye],
    ]
    rhs = [
        np.full(n, cfg.soe0 - cfg.soe_min - cfg.soe_backoff),
        np.full(n, cfg.soe_max - cfg.soe_backoff - cfg.soe0),
        np.full(n, b_hi),
        np.full(n, -b_lo),
        np.full(n, b_hi),
        np.full(n, -b_lo),
    ]
    if cfg.p_max is not None:
        rows.append([eye, -eye, None, None])
        rhs.append(cfg.p_max - l_hat + env_low)
    return sp.bmat(rows, format="csr"), np.concatenate(rhs), a_eq, env_low - env_high


def assembled_centred(l_hat, env_low, env_high, cfg: DayAheadConfig):
    """The centred offset's certificate as first computed: the rows of
    :func:`bmat_offset_lp` multiplied out at x = [0, h, h, 0], and
    ``solver.lp_kkt_residual`` at x and its explicit dual (coupling multipliers
    1, bound multipliers 2 on K+ and G-, all others 0). Returns
    (objective, residual), or None when a row cuts x or the residual fails the
    KKT gate."""
    from feederdispatch import solver

    a_ineq, b_ineq, a_eq, b_eq = bmat_offset_lp(l_hat, env_low, env_high, cfg)
    n = l_hat.size
    p = solver.LinearProgram(c=np.ones(4 * n), a_ineq=a_ineq, b_ineq=b_ineq,
                             a_eq=a_eq, b_eq=b_eq, lb=np.zeros(4 * n))
    zero, h = np.zeros(n), (env_high - env_low) / 2
    x = np.concatenate([zero, h, h, zero])
    if (p.a_ineq @ x - p.b_ineq).max() > solver.FEAS_TOL \
            or not np.array_equal(p.a_eq @ x, p.b_eq):
        return None
    two = np.full(n, 2.0)
    dual = solver.LpSolution(x=x, dual_ineq=np.zeros(b_ineq.size), dual_eq=np.ones(n),
                             dual_lb=np.concatenate([two, zero, zero, two]),
                             dual_ub=np.zeros(4 * n))
    residual = solver.lp_kkt_residual(p, dual)
    if residual > solver.KKT_GATE:
        return None
    return float(p.c @ x), residual


def active_groups_loop(h, quad_active, active):
    """Comma-joined names of the MPC constraint groups with an active row, one
    row at a time over the row order box, -box, rate, -rate, v, -v, soc,
    -soc, with "throughput" first when the quadratic row is active."""
    names = ["box"] * 2 * h + ["rate"] * 2 * (h - 1) + ["v"] * 2 * h + ["soc"] * 2 * h
    found = ["throughput"] if quad_active else []
    for name, hit in zip(names, active):
        if hit and name not in found:
            found.append(name)
    return ",".join(found) if found else "-"


def matrix_kalman(x, p, m, i_prev, v_meas):
    """One predict + Joseph-form update written with numpy matrix products,
    for any state size. Returns (x, p) before the PSD clip."""
    x_pred = m.a @ x + m.b_i * i_prev + m.b_1
    p_pred = m.a @ p @ m.a.T + m.k @ m.k.T
    cv = m.c.ravel()
    r = m.g**2
    s = float(cv @ p_pred @ cv) + r
    gain = p_pred @ cv / s
    innov = v_meas - float(cv @ x_pred) - m.d_i * i_prev - m.d_1
    ikc = np.eye(x.size) - np.outer(gain, cv)
    p_new = ikc @ p_pred @ ikc.T + np.outer(gain, gain) * r
    return x_pred + gain * innov, 0.5 * (p_new + p_new.T)


def matrix_voltage_step(m, x, i):
    """One noise-free step of the voltage model written with numpy matrix
    products: (next state, terminal voltage) under current i."""
    return m.a @ x + m.b_i * i + m.b_1, float(m.c @ x + m.d_i * i + m.d_1)


def concatenated_rhs(p, v_free):
    """b_ineq of an MPC problem assembled block by block in the row order of
    its constraint stack, given the zero-current voltages v_free."""
    h, lim = p.horizon, p.limits
    soc_free = (p.phi_soc * p.soc_k).ravel()
    ones_r = np.ones(h - 1)
    return np.concatenate([
        np.full(h, lim.i_max), np.full(h, -lim.i_min),
        lim.di_max * ones_r, -lim.di_min * ones_r,
        np.full(h, lim.v_max) - v_free, v_free - np.full(h, lim.v_min),
        np.full(h, lim.soc_max) - soc_free, soc_free - np.full(h, lim.soc_min),
    ])


def qcqp_kkt_residual_np(p, sol):
    """Relative KKT residual of the maximization QCQP, with every reduction
    through the numpy functions (np.max with initial=0 for empty row sets)."""
    x = sol.x
    fq = p.f_quad(x)
    slack = p.b_ineq - p.a_ineq @ x
    stat = -p.c + sol.dual_quad * (2.0 * p.q_sym @ x + p.l)
    if sol.dual_ineq.any():
        stat += p.a_ineq.T @ sol.dual_ineq
    obj_scale = 1.0 + abs(float(p.c @ x))
    c_scale = 1.0 + float(np.max(np.abs(p.c), initial=0.0))
    primal = max(fq, float(np.max(-slack, initial=0.0)), 0.0)
    dual = max(0.0, -sol.dual_quad, float(np.max(-sol.dual_ineq, initial=0.0)))
    comp = max(abs(sol.dual_quad * fq),
               float(np.max(np.abs(sol.dual_ineq * slack), initial=0.0)))
    return max(float(np.max(np.abs(stat), initial=0.0)) / c_scale,
               primal / obj_scale, dual / c_scale, comp / obj_scale)


def grid_current_search(q_sym, l, r, a_ineq, b_ineq, c, lo, hi,
                        resolution: float = 0.05):
    """Exhaustive 2-D grid search of maximize c'x subject to the quadratic
    constraint and the linear inequality system. Returns (objective, x) or
    (None, None)."""
    g = np.arange(lo, hi + 1e-12, resolution)
    x0, x1 = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([x0.ravel(), x1.ravel()])         # (2, points)
    fq = np.einsum("ij,ip,jp->p", q_sym, pts, pts) + l @ pts - r
    feas = fq <= 1e-12
    if a_ineq is not None and len(a_ineq):
        feas &= np.all(a_ineq @ pts <= np.asarray(b_ineq)[:, None] + 1e-12, axis=0)
    if not np.any(feas):
        return None, None
    obj = np.where(feas, c @ pts, -np.inf)
    j = int(np.argmax(obj))
    return float(obj[j]), pts[:, j].copy()


def textbook_kalman(a, b_i, b_1, c, d_i, d_1, k, sigma_g, x0, p0, currents, voltages):
    """Plain covariance-form Kalman recursion (gain + (I-GC)P update), written
    independently of the library implementation."""
    x = np.asarray(x0, float).copy()
    p = np.asarray(p0, float).copy()
    cv = np.asarray(c, float).ravel()
    xs, ps = [], []
    for i_prev, v_meas in zip(currents, voltages):
        x = a @ x + b_i * i_prev + b_1
        p = a @ p @ a.T + k @ k.T
        s = float(cv @ p @ cv) + sigma_g ** 2
        gain = p @ cv / s
        innov = v_meas - float(cv @ x) - d_i * i_prev - d_1
        x = x + gain * innov
        p = (np.eye(x.size) - np.outer(gain, cv)) @ p
        xs.append(x.copy())
        ps.append(p.copy())
    return xs, ps


def information_kalman(a, b_i, b_1, c, d_i, d_1, k, sigma_g, x0, p0, currents, voltages):
    """Kalman recursion whose covariance update is the information form,
    P+ = (P^-1 + c'c / sigma_g^2)^-1, written independently of the library's
    Joseph-form update."""
    x = np.asarray(x0, float).copy()
    p = np.asarray(p0, float).copy()
    cv = np.asarray(c, float).ravel()
    xs, ps = [], []
    for i_prev, v_meas in zip(currents, voltages):
        x = a @ x + b_i * i_prev + b_1
        p = a @ p @ a.T + k @ k.T
        gain = p @ cv / (float(cv @ p @ cv) + sigma_g ** 2)
        x = x + gain * (v_meas - float(cv @ x) - d_i * i_prev - d_1)
        p = np.linalg.inv(np.linalg.inv(p) + np.outer(cv, cv) / sigma_g ** 2)
        xs.append(x.copy())
        ps.append(p.copy())
    return xs, ps


def mpc_constraints_satisfied(p, i_traj, tol=1e-6):
    """Re-check every control constraint from problem data only."""
    i_traj = np.asarray(i_traj, float)
    lim = p.limits
    ok = np.all(i_traj >= lim.i_min - tol) and np.all(i_traj <= lim.i_max + tol)
    if i_traj.size > 1:
        d = np.diff(i_traj)
        ok &= np.all(d >= lim.di_min - tol) and np.all(d <= lim.di_max + tol)
    v = p.phi_v @ p.x_k + p.psi_v_i @ i_traj + p.psi_v_1 @ np.ones(p.horizon)
    ok &= np.all(v >= lim.v_min - tol) and np.all(v <= lim.v_max + tol)
    soc = (p.phi_soc * p.soc_k).ravel() + p.psi_soc_i @ i_traj
    ok &= np.all(soc >= lim.soc_min - tol) and np.all(soc <= lim.soc_max + tol)
    return bool(ok)


def mpc_throughput(p, i_traj):
    """AC energy throughput (kWh) of a current trajectory, from problem data."""
    i_traj = np.asarray(i_traj, float)
    v = p.phi_v @ p.x_k + p.psi_v_i @ i_traj + p.psi_v_1 @ np.ones(p.horizon)
    return p.alpha * float(v @ i_traj) / 1000.0


def dayahead_plan_feasible(plan, cfg, tol=1e-6):
    """Independent evaluator of every day-ahead constraint on a finished plan."""
    from feederdispatch.dayahead import worst_case_soe
    fc = plan.forecast
    f = plan.offset.f
    low, high = worst_case_soe(f, fc, cfg)
    ok = np.all(low >= cfg.soe_min + cfg.soe_backoff - tol)
    ok &= np.all(high <= cfg.soe_max - cfg.soe_backoff + tol)
    k = f + np.asarray(fc.envelope_low)
    g = f + np.asarray(fc.envelope_high)
    for b in (k, g):
        ok &= np.all(b >= cfg.b_min + cfg.power_backoff - tol)
        ok &= np.all(b <= cfg.b_max - cfg.power_backoff + tol)
    if cfg.p_max is not None:
        ok &= np.all(plan.p_hat <= cfg.p_max + tol)
    return bool(ok)


def active_set_qcqp(q_sym, l, r, c, a_act, b_act):
    """Optimum of maximize c'x subject to x'Qx + l'x <= r, with the quadratic
    constraint and the rows a_act x <= b_act (there may be none) all held
    active.

    Closed form on the null space of a_act (x = x_p + N z): the reduced problem
    maximize g'z s.t. z'Pz + m'z + k <= 0 has z = (P^-1 g / mu - P^-1 m) / 2
    with mu = sqrt(g'P^-1 g / (m'P^-1 m - 4k)). The row multipliers then solve
    c = mu (2Qx + l) + a_act' lam. Returns (x, mu, lam); the point is the
    optimum of the full problem iff it is feasible and mu, lam >= 0.
    """
    n = l.size
    a_act = np.asarray(a_act, float).reshape(-1, n)
    b_act = np.asarray(b_act, float)
    x_p = np.linalg.lstsq(a_act, b_act, rcond=None)[0]
    if a_act.shape[0]:
        _, s, vt = np.linalg.svd(a_act)
        basis = vt[int(np.sum(s > 1e-12 * s.max())):].T
    else:
        basis = np.eye(n)
    p_red = basis.T @ q_sym @ basis
    g = basis.T @ c
    m = basis.T @ (2.0 * q_sym @ x_p + l)
    k = float(x_p @ q_sym @ x_p + l @ x_p - r)
    u = np.linalg.solve(p_red, g)
    w = np.linalg.solve(p_red, m)
    mu = float(np.sqrt(g @ u / (m @ w - 4.0 * k)))
    x = x_p + basis @ ((u / mu - w) / 2.0)
    lam = np.linalg.lstsq(a_act.T, c - mu * (2.0 * q_sym @ x + l), rcond=None)[0]
    return x, mu, lam


def min_quadratic_over_rows(q_sym, l, a_ineq, b_ineq, x_scale: float = 100.0):
    """Minimizer of x'Qx + l'x subject to a_ineq x <= b_ineq, found without
    NNLS: HiGHS proves the rows infeasible (returns None) or gives a feasible
    start, and SLSQP minimizes from it on u = x / x_scale, with each row
    normalised and the objective scaled so that its gradient is of order one.
    """
    from scipy.optimize import linprog, minimize

    n = l.size
    lp = linprog(np.zeros(n), A_ub=a_ineq, b_ub=b_ineq, bounds=[(None, None)] * n,
                 method="highs")
    if lp.status == 2:
        return None
    assert lp.status == 0, lp.message
    norms = np.linalg.norm(a_ineq, axis=1)
    a_u = a_ineq / norms[:, None]
    b_u = b_ineq / norms / x_scale
    f_scale = 1.0 / (x_scale * max(float(np.abs(l).max()), 1e-300))

    def f(u):
        x = x_scale * u
        return f_scale * float(x @ q_sym @ x + l @ x)

    def grad(u):
        return f_scale * x_scale * (2.0 * q_sym @ (x_scale * u) + l)

    res = minimize(f, lp.x / x_scale, jac=grad, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda u: b_u - a_u @ u,
                                 "jac": lambda u: -a_u}],
                   options={"maxiter": 1000, "ftol": 1e-12})
    # 8: the line search stalled on rounding at the optimum
    assert res.status in (0, 8), res.message
    return x_scale * res.x


def qcqp_optimum(q_sym, l, r, c, a_ineq, b_ineq, x_scale: float = 100.0):
    """Maximizer of c'x subject to x'Qx + l'x <= r and a_ineq x <= b_ineq,
    found without the library's solvers: HiGHS proves the rows infeasible
    (returns None) or gives a start that holds them, and SLSQP maximizes from
    it on u = x / x_scale, with each row normalised and the quadratic scaled
    so that its gradient is of order one. SLSQP may overstep the quadratic by
    ~1e-9, so its point is then polished to the exact optimum of the rows it
    holds (active_set_qcqp), kept only if that point holds every row with
    nonnegative multipliers. Returns None also when SLSQP does not converge.
    """
    from scipy.optimize import linprog, minimize

    n = l.size
    lp = linprog(np.zeros(n), A_ub=a_ineq, b_ub=b_ineq, bounds=[(None, None)] * n,
                 method="highs")
    if lp.status == 2:
        return None
    assert lp.status == 0, lp.message
    norms = np.linalg.norm(a_ineq, axis=1)
    a_u = a_ineq / norms[:, None]
    b_u = b_ineq / norms / x_scale
    q_scale = 1.0 / (x_scale * max(float(np.abs(l).max()), 1e-300))
    c_scale = 1.0 / float(np.abs(c).max())

    def quad(u):
        x = x_scale * u
        return q_scale * (r - float(x @ q_sym @ x + l @ x))

    def quad_grad(u):
        return -q_scale * x_scale * (2.0 * q_sym @ (x_scale * u) + l)

    res = minimize(lambda u: -c_scale * float(c @ u), lp.x / x_scale,
                   jac=lambda u: -c_scale * c, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda u: b_u - a_u @ u,
                                 "jac": lambda u: -a_u},
                                {"type": "ineq", "fun": quad, "jac": quad_grad}],
                   options={"maxiter": 1000, "ftol": 1e-14})
    # 8: the line search stalled on rounding at the optimum
    if res.status not in (0, 8):
        return None
    x = x_scale * res.x
    held = (b_ineq - a_ineq @ x) / norms <= 1e-6 * (1.0 + np.abs(x).max())
    x_act, mu, lam = active_set_qcqp(q_sym, l, r, c, a_ineq[held], b_ineq[held])
    rows_ok = np.all((a_ineq @ x_act - b_ineq) / norms <= 1e-9 * (1.0 + np.abs(x_act).max()))
    return x_act if mu > 0.0 and np.all(lam >= -1e-9) and rows_ok else x


def piece_cho_solve(p, act, t):
    """The library's x(t) on the active set ``act`` (solver._piece), with the
    reduced quadratic factored and solved through scipy's cho_factor and
    cho_solve: (x, dx, nu, dnu, flat)."""
    from scipy.linalg import cho_factor, cho_solve

    norms = np.sqrt(np.sum(p.a_ineq[act]**2, axis=1))
    a_n = p.a_ineq[act] / norms[:, None]
    u, s, vt = np.linalg.svd(a_n)
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size else 0
    inv = u[:, :rank] / s[:rank]
    vt_r, null = vt[:rank], vt[rank:].T
    x_r = vt_r.T @ (inv.T @ (p.b_ineq[act] / norms))
    reduced = cho_factor(null.T @ p.q_sym @ null, check_finite=False)
    n_c = null.T @ p.c
    z = -0.5 * cho_solve(reduced, null.T @ (2.0 * (p.q_sym @ x_r) + p.l) - t * n_c,
                         check_finite=False)
    dz = 0.5 * cho_solve(reduced, n_c, check_finite=False)
    x, dx = x_r + null @ z, null @ dz
    nu = np.zeros((p.b_ineq.size, 2))
    nu[act] = (inv @ (vt_r @ np.column_stack([t * p.c - p.l - 2.0 * (p.q_sym @ x),
                                               p.c - 2.0 * (p.q_sym @ dx)]))) / norms[:, None]
    flat = float(np.abs(n_c).max(initial=0.0)) <= 1e-9 * float(np.abs(p.c).max())
    return x, dx, nu[:, 0], nu[:, 1], flat


# ---------------------------------------------------------------------------
# Scalar and csv-module references for the bulk history paths
# ---------------------------------------------------------------------------


def scalar_synthesize_history(seed, days):
    """``forecast.synthesize_history`` with one scalar draw per AR(1) step."""
    rng = np.random.default_rng(seed)
    out = []
    for d in range(days):
        year, doy = 2016 + d // 365, d % 365 + 1
        working = is_working_dayofyear(doy)
        season = 1.0 + 0.6 * np.sin(2.0 * np.pi * (doy - 80) / 365.0)
        radiation = float(np.clip(RADIATION_MEAN * season / 1.3
                                  + RADIATION_SPREAD * (rng.random() - 0.3),
                                  0.05, RADIATION_CLEAR_SKY))
        noise = np.empty(N_SLOTS)
        prev = rng.normal(0.0, NOISE_STD_KW / np.sqrt(1 - NOISE_AR**2))
        for i in range(N_SLOTS):
            prev = NOISE_AR * prev + rng.normal(0.0, NOISE_STD_KW)
            noise[i] = prev
        profile = base_profile(working) - pv_profile(radiation) + noise
        out.append(HistoricalDay(year=year, day_of_year=doy, profile=profile,
                                 daily_radiation=radiation, is_working_day=working))
    return out


def scalar_step_trace(profile_kw, rng, noise_std, ar, steps_per_slot=30):
    """``sim.step_trace`` with one scalar draw per AR(1) step."""
    trace = np.repeat(np.asarray(profile_kw, dtype=float), steps_per_slot)
    if noise_std > 0.0 and rng is not None:
        noise = np.empty(trace.size)
        prev = rng.normal(0.0, noise_std / np.sqrt(1 - ar * ar))
        for k in range(trace.size):
            prev = ar * prev + rng.normal(0.0, noise_std)
            noise[k] = prev
        trace = trace + noise
    return trace


def csv_save_history(path, history):
    """A history file written field by field with ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["year", "day_of_year", "working_day", "daily_radiation"]
                   + [f"kw_{i:03d}" for i in range(N_SLOTS)])
        for d in history:
            w.writerow([d.year, d.day_of_year, int(d.is_working_day),
                        repr(float(d.daily_radiation))] + [repr(float(v)) for v in d.profile])


def csv_load_history(path):
    """A history file read with ``csv.reader`` and ``float``/``int`` per field."""
    out = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#") or row[0] == "year":
                continue
            if len(row) != 4 + N_SLOTS:
                raise ValueError(f"{path}:{lineno}: expected {4 + N_SLOTS} columns, "
                                 f"got {len(row)}")
            out.append(HistoricalDay(year=int(row[0]), day_of_year=int(row[1]),
                                     is_working_day=bool(int(row[2])),
                                     daily_radiation=float(row[3]),
                                     profile=np.array([float(v) for v in row[4:]])))
    return out


def csv_save_plan(path, plan):
    """A plan file written row by row with ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        fh.write(PLAN_HEADER + "\n")
        fh.write(_PLAN_COLUMNS + "\n")
        w = csv.writer(fh)
        fc = plan.forecast
        for i in range(plan.p_hat.size):
            w.writerow([i] + [repr(float(v)) for v in
                              (plan.p_hat[i], plan.offset.f[i], fc.point[i],
                               fc.envelope_low[i], fc.envelope_high[i])])
