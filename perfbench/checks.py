"""Output checks that do not trust the code they check.

Every check returns a list of messages, empty when the output passes. The
constraint rows of the MPC problem are rebuilt here from the problem's
``phi``/``psi`` matrices and ``MpcLimits``; the optimum is found again in
closed form or with SciPy SLSQP; the day-ahead offset LP is formulated again,
with the offset ``f`` as an explicit variable, and solved with HiGHS's interior
point method. Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.optimize import linprog, minimize

# A certified MPC solve promises primal violations of at most 1e-6 relative to
# 1 + |sum of currents|, in each row's own unit (A, V, SOC, kWh).
MPC_FEAS_REL = 1e-6
# Summed current of the certified solve against the independent optimum, A.
OPTIMUM_TOL_A = 1e-3
# SLSQP exit modes taken as converged: 0, and 8 ("positive directional
# derivative in linesearch"), which it reports when the step falls below
# rounding at the optimum. The point must still pass the feasibility check.
SLSQP_CONVERGED = (0, 8)
# Dispatch must at least quarter the slot-average mismatch of no dispatch.
TRACKING_RATIO_MAX = 0.25
FORECAST_TOL_KW = 1e-9
SOE_TOL_KWH = 1e-6
POWER_TOL_KW = 1e-6
LP_OBJECTIVE_REL = 1e-6


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


def composition(run) -> list[str]:
    """The recorded GCP power is prosumption plus battery, bit for bit."""
    bad = np.nonzero(run.p_kw != run.l_kw + run.b_kw)[0]
    if bad.size:
        return [f"p_kw != l_kw + b_kw at {bad.size} steps (first {int(bad[0])})"]
    return []


def slot_rmse(run, p_hat, point, steps_per_slot: int = 30) -> tuple[float, float]:
    """(dispatch, no-dispatch) RMSE of the 5-minute averages, kW."""
    p_avg = np.asarray(run.p_kw).reshape(-1, steps_per_slot).mean(axis=1)
    l_avg = np.asarray(run.l_kw).reshape(-1, steps_per_slot).mean(axis=1)
    return (float(np.sqrt(np.mean((np.asarray(p_hat) - p_avg) ** 2))),
            float(np.sqrt(np.mean((np.asarray(point) - l_avg) ** 2))))


def tracking(dispatch_rmse: float, no_dispatch_rmse: float) -> list[str]:
    if not dispatch_rmse <= TRACKING_RATIO_MAX * no_dispatch_rmse:
        return [f"dispatch RMSE {dispatch_rmse:.4g} kW is not below "
                f"{TRACKING_RATIO_MAX} x no-dispatch RMSE {no_dispatch_rmse:.4g} kW"]
    return []


def all_solved(run) -> list[str]:
    other = [(k, s) for k, s in enumerate(run.status) if s != "solved"]
    if other:
        return [f"{len(other)} steps not solved (first: step {other[0][0]} "
                f"{other[0][1]})"]
    return []


def _rows(p, i: np.ndarray) -> dict[str, tuple[np.ndarray, float, float]]:
    """Each constraint group as (values, lower, upper), from the problem data."""
    lim = p.limits
    h = p.horizon
    v = p.phi_v @ p.x_k + p.psi_v_i @ i + p.psi_v_1 @ np.ones(h)
    soc = p.phi_soc @ np.atleast_1d(p.soc_k) + p.psi_soc_i @ i
    energy = p.alpha * float(v @ i) / 1000.0
    return {"box": (i, lim.i_min, lim.i_max),
            "rate": (np.diff(i), lim.di_min, lim.di_max),
            "voltage": (v, lim.v_min, lim.v_max),
            "soc": (soc, lim.soc_min, lim.soc_max),
            "throughput": (np.array([energy]), -np.inf, p.e_k)}


def violations(p, i: np.ndarray) -> dict[str, float]:
    """Largest violation of each constraint group, in the group's unit."""
    out = {}
    for name, (vals, lo, hi) in _rows(p, np.asarray(i, dtype=float)).items():
        out[name] = float(np.max(np.maximum(lo - vals, vals - hi), initial=0.0))
    return out


def trajectory(p, i: np.ndarray, throughput: bool = True) -> list[str]:
    """The predicted trajectory satisfies every constraint group; the
    throughput row is skipped for clipped steps, which drop it by design."""
    tol = MPC_FEAS_REL * (1.0 + abs(float(np.sum(i))))
    return [f"{name} violated by {viol:.3g} (tolerance {tol:.3g})"
            for name, viol in violations(p, i).items()
            if viol > tol and (throughput or name != "throughput")]


def closed_form_optimum(p) -> np.ndarray | None:
    """Optimum with only the throughput row: maximize 1'x s.t. x'Qx + l'x <= r
    gives x = (mu y - z)/2 with y = Q^-1 1, z = Q^-1 l and
    mu = sqrt((4r + l'z)/(1'y)). Returned only when it also satisfies every
    linear row, since it is then the optimum of the full problem."""
    scale = p.alpha / 1000.0
    h = p.horizon
    q = scale * 0.5 * (p.psi_v_i + p.psi_v_i.T)
    l = scale * (p.phi_v @ p.x_k + p.psi_v_1 @ np.ones(h))
    try:
        chol = np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        return None
    solve = lambda b: np.linalg.solve(chol.T, np.linalg.solve(chol, b))
    y, z = solve(np.ones(h)), solve(l)
    disc = (4.0 * p.e_k + l @ z) / np.sum(y)
    if disc < 0.0:
        return None
    x = (np.sqrt(disc) * y - z) / 2.0
    tol = MPC_FEAS_REL * (1.0 + abs(float(np.sum(x))))
    linear = {k: v for k, v in violations(p, x).items() if k != "throughput"}
    return x if max(linear.values()) <= tol else None


def slsqp_optimum(p) -> np.ndarray | None:
    """The full problem solved with SLSQP on currents in units of 100 A."""
    lim = p.limits
    h = p.horizon
    u_scale = 100.0
    v_free = p.phi_v @ p.x_k + p.psi_v_1 @ np.ones(h)
    soc_free = p.phi_soc @ np.atleast_1d(p.soc_k)
    diff = np.diff(np.eye(h), axis=0)
    sym = 0.5 * (p.psi_v_i + p.psi_v_i.T)
    e_scale = p.alpha / 1000.0

    def lin(a, b):      # a @ i + b >= 0, as a function of u = i / u_scale
        return {"type": "ineq", "fun": lambda u: a @ (u_scale * u) + b,
                "jac": lambda u: a * u_scale}

    cons = [lin(-diff, lim.di_max * np.ones(h - 1)) if h > 1 else None,
            lin(diff, -lim.di_min * np.ones(h - 1)) if h > 1 else None,
            lin(-p.psi_v_i, lim.v_max - v_free), lin(p.psi_v_i, v_free - lim.v_min),
            lin(-1e3 * p.psi_soc_i, 1e3 * (lim.soc_max - soc_free)),
            lin(1e3 * p.psi_soc_i, 1e3 * (soc_free - lim.soc_min)),
            {"type": "ineq",
             "fun": lambda u: 100.0 * (p.e_k - e_scale * (
                 u_scale * u @ sym @ (u_scale * u) + v_free @ (u_scale * u))),
             "jac": lambda u: -100.0 * e_scale * u_scale * (
                 2.0 * sym @ (u_scale * u) + v_free)}]
    res = minimize(lambda u: -np.sum(u), np.zeros(h), jac=lambda u: -np.ones(h),
                   method="SLSQP", constraints=[c for c in cons if c is not None],
                   bounds=[(lim.i_min / u_scale, lim.i_max / u_scale)] * h,
                   options={"maxiter": 500, "ftol": 1e-10})
    return u_scale * res.x if res.status in SLSQP_CONVERGED else None


def optimality(p, i: np.ndarray) -> tuple[list[str], str]:
    """Summed current against an independent optimum; returns (messages,
    method used)."""
    total = float(np.sum(i))
    x = closed_form_optimum(p)
    method = "closed-form"
    if x is None:
        x = slsqp_optimum(p)
        method = "slsqp"
    if x is None:
        return [f"independent solve did not converge (h={p.horizon}, "
                f"e_k={p.e_k:.6g})"], "none"
    infeasible = trajectory(p, x)
    if infeasible:
        return [f"{method} optimum infeasible: {infeasible[0]}"], method
    gap = abs(float(np.sum(x)) - total)
    if gap > OPTIMUM_TOL_A:
        return [f"summed current {total:.6f} A differs from the {method} optimum "
                f"{float(np.sum(x)):.6f} A by {gap:.3g} A "
                f"(tolerance {OPTIMUM_TOL_A} A)"], method
    return [], method


# ---------------------------------------------------------------------------
# Day-ahead plan
# ---------------------------------------------------------------------------


def read_plan(path) -> dict[str, np.ndarray]:
    """Columns of a plan file, parsed here rather than by ``load_plan``."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()
            if line and not line.startswith("#")]
    data = np.array([[float(v) for v in row] for row in rows])
    names = ("slot", "p_hat", "f", "l_hat", "env_low", "env_high")
    return {name: data[:, j] for j, name in enumerate(names)}


def forecast_members(fc) -> list[str]:
    """Point is the mean of the five members; the envelopes are point - max
    and point - min of the members."""
    stack = np.array([np.asarray(m.profile, dtype=float) for m in fc.members])
    out = []
    if stack.shape[0] != 5:
        out.append(f"forecast has {stack.shape[0]} members, expected 5")
    expect = {"point": stack.sum(axis=0) / stack.shape[0]}
    expect["envelope_low"] = expect["point"] - stack.max(axis=0)
    expect["envelope_high"] = expect["point"] - stack.min(axis=0)
    for name, want in expect.items():
        err = float(np.max(np.abs(np.asarray(getattr(fc, name)) - want)))
        if err > FORECAST_TOL_KW:
            out.append(f"forecast {name} off the members by {err:.3g} kW")
    return out


def _soe(b: np.ndarray, soe0: float, eta: float, slot_h: float) -> np.ndarray:
    """Stored energy after each slot: charging stores eta of the energy drawn,
    discharging drains 1/eta of the energy delivered."""
    soe = np.empty(b.size + 1)
    soe[0] = soe0
    for j, bj in enumerate(b):
        soe[j + 1] = soe[j] + slot_h * (bj * eta if bj > 0 else bj / eta)
    return soe


def plan_columns(cols: dict[str, np.ndarray], cfg) -> list[str]:
    """Composition p_hat = point + f (exact), envelope signs, worst-case SOE
    inside [soe_min, soe_max] and worst-case powers inside [b_min, b_max]."""
    out = []
    bad = np.nonzero(cols["p_hat"] != cols["l_hat"] + cols["f"])[0]
    if bad.size:
        out.append(f"p_hat != point + f at {bad.size} slots (first {int(bad[0])})")
    if np.any(cols["env_low"] > 0.0) or np.any(cols["env_high"] < 0.0):
        out.append("envelope signs violated")
    slot_h = cfg.ts / 3600.0
    for env in ("env_low", "env_high"):
        b = cols["f"] + cols[env]
        soe = _soe(b, cfg.soe0, cfg.eta, slot_h)
        if soe.min() < cfg.soe_min - SOE_TOL_KWH or soe.max() > cfg.soe_max + SOE_TOL_KWH:
            out.append(f"worst-case SOE ({env}) spans [{soe.min():.6f}, "
                       f"{soe.max():.6f}] kWh, outside [{cfg.soe_min}, {cfg.soe_max}]")
        if b.min() < cfg.b_min - POWER_TOL_KW or b.max() > cfg.b_max + POWER_TOL_KW:
            out.append(f"worst-case power ({env}) outside [{cfg.b_min}, {cfg.b_max}] kW")
    return out


def offset_lp_objective(l_hat, env_low, env_high, cfg) -> float:
    """Optimal value of the offset LP, formulated here over
    [f, K+, K-, G+, G-] with K = f + env_low and G = f + env_high split into
    nonnegative parts, minimizing sum |K| + |G|."""
    n = np.asarray(l_hat).size
    eye, zero = np.eye(n), np.zeros((n, n))
    cum = np.tril(np.ones((n, n))) * (cfg.ts / 3600.0)
    bp, bm = cfg.eta * cum, cum / cfg.eta
    a_eq = np.block([[-eye, eye, -eye, zero, zero], [-eye, zero, zero, eye, -eye]])
    b_eq = np.concatenate([env_low, env_high])
    a_ub = np.block([
        [zero, -bp, bm, zero, zero],     # soe0 + cum(K) >= soe_min
        [zero, zero, zero, bp, -bm],     # soe0 + cum(G) <= soe_max
        [zero, eye, -eye, zero, zero], [zero, -eye, eye, zero, zero],
        [zero, zero, zero, eye, -eye], [zero, zero, zero, -eye, eye]])
    b_hi, b_lo = cfg.b_max - cfg.power_backoff, cfg.b_min + cfg.power_backoff
    b_ub = np.concatenate([np.full(n, cfg.soe0 - cfg.soe_min - cfg.soe_backoff),
                           np.full(n, cfg.soe_max - cfg.soe_backoff - cfg.soe0),
                           np.full(n, b_hi), np.full(n, -b_lo),
                           np.full(n, b_hi), np.full(n, -b_lo)])
    if cfg.p_max is not None:
        a_ub = np.vstack([a_ub, np.hstack([eye, zero, zero, zero, zero])])
        b_ub = np.concatenate([b_ub, cfg.p_max - np.asarray(l_hat)])
    c = np.concatenate([np.zeros(n), np.ones(4 * n)])
    bounds = [(None, None)] * n + [(0.0, None)] * (4 * n)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"own offset LP did not solve: {res.message}")
    return float(res.fun)


def lp_objective(objective: float, reference: float) -> list[str]:
    if abs(objective - reference) > LP_OBJECTIVE_REL * (1.0 + abs(reference)):
        return [f"offset LP objective {objective:.9g} differs from the independent "
                f"LP {reference:.9g}"]
    return []
