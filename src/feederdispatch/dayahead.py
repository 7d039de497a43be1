"""Day-ahead dispatch planning: the offset profile and the dispatch plan.

The plan committed for the next day is p_hat = point forecast + offset. The
offset is sized so that, propagating the battery state of energy against the
worst realizations inside the forecast envelopes, SOE and power stay within
bounds. It keeps the SOE feasible but does not steer it toward a flexible
energy level: the centred offset below does not read soe0, and only a plan
that a SOE row cuts depends on it.

The optimization is a linear program over the positive/negative parts
of the two worst-case battery powers K = f + envelope_low and
G = f + envelope_high (charging and discharging are weighted by different
efficiency coefficients, which the split keeps linear), with sparse rows. When
no offset is within bounds, the least-violation point that
:func:`solver.solve_lp` returns with its infeasible verdict names the first
slot it could not hold. Plan files rebuild the forecast from their columns,
without members, so they are held to the same envelope signs as a fresh
forecast.

The optimum is a face: on [-env_high, -env_low] a slot's cost is flat. The
plan is the face's least-norm point (exact regularisation of the LP; Mangasarian
& Meyer, SIAM J. Control Optim. 1979) whenever no row cuts it: the point of least
sum(K^2 + G^2) is the centred offset f = -(env_low + env_high) / 2. It is
certified in O(n), without assembling the LP: its SOE-row activities are
cumulative sums, its power and cap rows read -h or h, and its explicit dual has
zero row multipliers. Only when a SOE, power or cap row cuts it is the LP
assembled, and the plan is the vertex HiGHS returns, its pivoting picking it
among the optima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from . import solver
from .forecast import ProsumptionForecast
from .timegrid import SLOT_SECONDS

E_NOM_KWH = 500.0            # kWh, pack energy capacity
COMPLEMENTARITY_TOL = 1e-6


class InfeasiblePlanError(RuntimeError):
    """Day-ahead problem admits no offset within bounds; reports the first
    violated slot and constraint."""

    def __init__(self, message: str, slot: int | None = None, constraint: str = ""):
        super().__init__(message)
        self.slot = slot
        self.constraint = constraint


@dataclass(frozen=True)
class DayAheadConfig:
    soe0: float                       # kWh, predicted SOE at 00:00
    soe_min: float = 50.0             # kWh
    soe_max: float = 450.0            # kWh
    b_min: float = -250.0             # kW (discharge limit)
    b_max: float = 250.0              # kW (charge limit)
    p_max: float | None = None        # kW, optional peak-shaving cap on the plan
    eta: float = 0.96                 # conversion efficiency
    ts: ClassVar[float] = SLOT_SECONDS  # s, the slot length
    e_nom: float = E_NOM_KWH          # kWh, for SOC <-> SOE conversion
    soe_backoff: float = 0.0          # kWh margin inside the SOE bounds
    power_backoff: float = 0.0        # kW margin inside the power bounds

    def __post_init__(self):
        if not self.soe_min < self.soe_max:
            raise ValueError("soe_min must be < soe_max")
        if not self.b_min < 0.0 < self.b_max:
            raise ValueError("need b_min < 0 < b_max")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")


@dataclass(frozen=True)
class OffsetPlan:
    """The offset profile f (kW) and its LP's result; :func:`worst_case_soe` gives its SOE."""

    f: np.ndarray
    objective: float
    certificate: solver.SolveCertificate


@dataclass(frozen=True)
class DispatchPlan:
    p_hat: np.ndarray
    forecast: ProsumptionForecast
    offset: OffsetPlan


def beta_coeffs(cfg: DayAheadConfig) -> tuple[float, float]:
    """Charge/discharge energy coefficients, kWh per kW over one slot.

    Charging stores eta-fold less than drawn; discharging drains 1/eta-fold
    more than delivered.
    """
    base = cfg.ts / 3600.0
    return base * cfg.eta, base / cfg.eta


def worst_case_soe(f: np.ndarray, forecast: ProsumptionForecast,
                   cfg: DayAheadConfig) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the SOE recursion against the envelope extremes.

    Positive battery power contributes beta_plus-weighted energy, negative
    power beta_minus-weighted (signed), starting from soe0 on both trajectories.
    """
    f = np.asarray(f, dtype=float)
    beta_p, beta_m = beta_coeffs(cfg)

    def propagate(b: np.ndarray) -> np.ndarray:
        delta = beta_p * np.maximum(b, 0.0) + beta_m * np.minimum(b, 0.0)
        return cfg.soe0 + np.concatenate([[0.0], np.cumsum(delta)])

    return propagate(f + forecast.envelope_low), propagate(f + forecast.envelope_high)


def _offset_lp(l_hat, env_low, env_high, cfg: DayAheadConfig) -> solver.LinearProgram:
    """Assemble the LP over z = [K+, K-, G+, G-] (all >= 0), its CSR arrays built directly."""
    n = l_hat.size
    beta_p, beta_m = beta_coeffs(cfg)
    b_lo = cfg.b_min + cfg.power_backoff
    b_hi = cfg.b_max - cfg.power_backoff
    # Row i of a group reads one pair of parts, [K+, K-] or [G+, G-], at slot i
    # (power and cap rows) or at slots 0..i (SOE rows): the + part's columns,
    # then the - part's n further on, sorted as a COO-to-CSR conversion leaves
    # them. A pattern is (columns from the pair's first, row lengths).
    slots = np.arange(n, dtype=np.int32)
    single = (np.stack([slots, slots + n], axis=1).ravel(), np.full(n, 2))
    rows, cols = np.tril_indices(n)
    at = rows * (rows + 1) + cols           # row i's slot j sits at i (i + 1) + j
    cumulated = np.empty(n * (n + 1), dtype=np.int32)
    cumulated[at], cumulated[at + rows + 1] = cols, cols + n
    cumulated = (cumulated, 2 * slots + 2)
    k, g = 0, 2 * n                         # first column of [K+, K-] and of [G+, G-]
    # (pattern, first column, coefficient of the + part, of the - part, right-hand side)
    groups = [
        # SOE low >= soe_min:  -(beta_p K+ - beta_m K-) cumulated <= soe0 - soe_min
        (cumulated, k, -beta_p, beta_m, cfg.soe0 - cfg.soe_min - cfg.soe_backoff),
        # SOE high <= soe_max
        (cumulated, g, beta_p, -beta_m, cfg.soe_max - cfg.soe_backoff - cfg.soe0),
        # power bounds on K and G
        (single, k, 1.0, -1.0, b_hi), (single, k, -1.0, 1.0, -b_lo),
        (single, g, 1.0, -1.0, b_hi), (single, g, -1.0, 1.0, -b_lo),
    ]
    if cfg.p_max is not None:
        # plan cap: f + l_hat <= p_max with f = K+ - K- - env_low
        groups.append((single, k, 1.0, -1.0, cfg.p_max - l_hat + env_low))
    data, indices, counts, rhs = [], [], [[0]], []
    for (pattern, count), first, plus, minus, bound in groups:
        data.append(np.where(pattern < n, plus, minus))
        indices.append(pattern + first)
        counts.append(count)
        rhs.append(np.broadcast_to(bound, n))
    a_ineq = sp.csr_array((np.concatenate(data), np.concatenate(indices),
                           np.cumsum(np.concatenate(counts), dtype=np.int32)),
                          shape=(len(groups) * n, 4 * n))

    # coupling: (K+ - K-) - (G+ - G-) = env_low - env_high
    a_eq = sp.csr_array((np.tile([1.0, -1.0, -1.0, 1.0], n),
                         (slots[:, None] + n * np.arange(4, dtype=np.int32)).ravel(),
                         4 * np.arange(n + 1, dtype=np.int32)), shape=(n, 4 * n))
    return solver.LinearProgram(c=np.ones(4 * n), a_ineq=a_ineq, b_ineq=np.concatenate(rhs),
                                a_eq=a_eq, b_eq=env_low - env_high, lb=np.zeros(4 * n))


def _infeasibility(violation: np.ndarray, cfg: DayAheadConfig) -> InfeasiblePlanError:
    """The error naming the first slot whose row the offset LP's elastic solve
    had to violate, given each row's violation in the row order of
    :func:`_offset_lp`, then the coupling equalities'."""
    groups = ["soe_min", "soe_max", "b_max(K)", "b_min(K)", "b_max(G)", "b_min(G)"] \
        + (["p_max"] if cfg.p_max is not None else []) + ["coupling"]
    n = violation.size // len(groups)
    first = int(np.argmax(violation > 1e-9))
    group, slot = groups[first // n], first % n
    return InfeasiblePlanError(
        f"day-ahead problem infeasible: first violation at slot {slot} ({group}), "
        f"total violation {violation.sum():.3f}", slot=slot, constraint=group)


def _centred(l_hat, env_low, env_high, cfg: DayAheadConfig) -> OffsetPlan | None:
    """The centred offset f = -(env_low + env_high) / 2, certified optimal for the
    LP of :func:`_offset_lp` without assembling it, or None when a row cuts it.

    Its point is x = [K+, K-, G+, G-] = [0, h, h, 0] with h = (env_high - env_low) / 2.
    Each row's activity at x is summed in O(n), in the order of the CSR product
    a_ineq @ x. The dual that proves x optimal (coupling multipliers 1, bound
    multipliers 2 on K+ and G-, all others 0) has zero row multipliers, so its
    :func:`solver.lp_kkt_residual` is the primal violation alone: the worst
    row violation or max(-x), over 1 + |1'x|.
    """
    n = env_low.size
    beta_p, beta_m = beta_coeffs(cfg)
    b_lo = cfg.b_min + cfg.power_backoff
    b_hi = cfg.b_max - cfg.power_backoff
    zero, h = np.zeros(n), (env_high - env_low) / 2
    # (activity at x, right-hand side) per row group, in the order of _offset_lp
    rows = [(np.cumsum(beta_m * h), cfg.soe0 - cfg.soe_min - cfg.soe_backoff),
            (np.cumsum(beta_p * h), cfg.soe_max - cfg.soe_backoff - cfg.soe0),
            (-h, b_hi), (h, -b_lo), (h, b_hi), (-h, -b_lo)]
    if cfg.p_max is not None:
        rows.append((-h, cfg.p_max - l_hat + env_low))
    worst = float(np.concatenate([activity - rhs for activity, rhs in rows]).max())
    # the coupling row reads -h - h against env_low - env_high
    if worst > solver.FEAS_TOL or not np.array_equal(-h - h, env_low - env_high):
        return None
    # c'x at x = [0, h, h, 0], summed as the assembled LP's c @ x sums it
    objective = float(np.ones(4 * n) @ np.concatenate([zero, h, h, zero]))
    residual = max(0.0, worst, float(-h.min())) / (1.0 + abs(objective))
    if residual > solver.KKT_GATE:
        return None
    cert = solver.SolveCertificate(status="optimal", objective=objective,
                                   kkt_residual=residual, path="closed-form")
    return OffsetPlan(f=-(env_low + env_high) / 2, objective=objective, certificate=cert)


def solve_offset(forecast: ProsumptionForecast, cfg: DayAheadConfig) -> OffsetPlan:
    """Compute the offset profile for a full day's forecast: the centred offset
    when every row holds it, else HiGHS's optimum of the assembled LP."""
    l_hat, env_low, env_high = forecast.point, forecast.envelope_low, forecast.envelope_high
    if (plan := _centred(l_hat, env_low, env_high, cfg)) is not None:
        return plan
    n = l_hat.size
    sol, cert = solver.solve_lp(_offset_lp(l_hat, env_low, env_high, cfg))
    if cert.status == "infeasible":
        raise _infeasibility(sol.x[4 * n:], cfg)
    if cert.status != "optimal":
        raise solver.SolverError("day-ahead LP solve failed")
    parts = sol.x.reshape(2, 2, n)          # [[K+, K-], [G+, G-]]
    loose = parts[:, 0] * parts[:, 1] > COMPLEMENTARITY_TOL * (1.0 + np.abs(sol.x).max())
    if loose.any():
        # the split relaxation came back loose (simultaneous charge/discharge);
        # the underlying nonconvex problem is not represented by this solution
        slot, side = divmod(int(np.argmax(loose.T)), 2)      # the first slot, K before G
        name, (plus, minus) = "KG"[side], parts[side, :, slot]
        raise InfeasiblePlanError(
            f"offset solution not physically realizable: at slot {slot}, {name}+ = "
            f"{plus:.6g} kW and {name}- = {minus:.6g} kW are both positive "
            f"(binding SOE ceiling requires dissipation)", slot=slot, constraint=f"split({name})")
    return OffsetPlan(f=sol.x[:n] - sol.x[n:2 * n] - env_low, objective=cert.objective,
                      certificate=cert)


def assemble_plan(forecast: ProsumptionForecast, offset: OffsetPlan) -> DispatchPlan:
    """Element-wise plan p_hat = point + offset, keeping provenance."""
    if forecast.point.shape != offset.f.shape:
        raise ValueError("forecast and offset lengths differ")
    return DispatchPlan(p_hat=forecast.point + offset.f, forecast=forecast, offset=offset)


def plan_day(forecast: ProsumptionForecast, cfg: DayAheadConfig) -> DispatchPlan:
    return assemble_plan(forecast, solve_offset(forecast, cfg))


# ---------------------------------------------------------------------------
# Plan files
# ---------------------------------------------------------------------------
#
# 288 CSV rows: slot, p_hat_kw, f_kw, l_hat_kw, env_low_kw, env_high_kw
# preceded by '#'-prefixed header lines.

PLAN_HEADER = "# feederdispatch plan v1"
_PLAN_COLUMNS = "# columns: slot,p_hat_kw,f_kw,l_hat_kw,env_low_kw,env_high_kw"


def save_plan(path, plan: DispatchPlan) -> None:
    fc = plan.forecast
    cols = zip(plan.p_hat.tolist(), plan.offset.f.tolist(), fc.point.tolist(),
               fc.envelope_low.tolist(), fc.envelope_high.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(PLAN_HEADER + "\n" + _PLAN_COLUMNS + "\n")
        fh.writelines(f"{i},{','.join(map(repr, row))}\r\n" for i, row in enumerate(cols))


def load_plan(path) -> DispatchPlan:
    """Rebuild a DispatchPlan from a plan file, its forecast without members and its
    offset without an objective. Its n rows hold the slots 0..n-1 in any order, each
    once; a bad slot column or wrong envelope signs raise ValueError."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] != 6:
        raise ValueError(f"{path}: expected 6 columns per plan row")
    slots, n = data[:, 0], data.shape[0]
    first = np.zeros(n, dtype=bool)
    first[np.unique(slots, return_index=True)[1]] = True
    bad = ~first | (slots != np.round(slots)) | (slots < 0) | (slots >= n)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{path}: plan row {row} has slot {slots[row]:g}; "
                         f"the slots must be 0..{n - 1}, each once")
    data = data[np.argsort(slots)]
    forecast = ProsumptionForecast(data[:, 3], data[:, 4], data[:, 5], members=())
    offset = OffsetPlan(f=data[:, 2], objective=np.nan,
                        certificate=solver.SolveCertificate(status="optimal"))
    return DispatchPlan(p_hat=data[:, 1], forecast=forecast, offset=offset)
