"""Day-ahead dispatch planning: the offset profile and the dispatch plan.

The plan committed for the next day is p_hat = point forecast + offset. The
offset is sized so that, propagating the battery state of energy against the
worst realizations inside the forecast envelopes, SOE and power stay within
bounds; it thereby steers the battery back toward a flexible energy level.

The optimization is solved as a linear program over the positive/negative parts
of the two worst-case battery powers K = f + envelope_low and
G = f + envelope_high (charging and discharging are weighted by different
efficiency coefficients, which the split keeps linear), with sparse rows. When
no offset is within bounds, the least-violation point that
:func:`solver.solve_lp` returns with its infeasible verdict names the first
slot it could not hold. Plan files rebuild the forecast from their columns,
without members, so they are held to the same envelope signs as a fresh
forecast.

The optimum is a face: on [-env_high, -env_low] a slot's cost is flat, and
HiGHS's pivoting picks f there. An equivalent LP with the SOE as variables (5758
nonzeros, not 169920) reaches the same objective bit for bit but moves f by up
to 18.5 kW, so a faster LP first needs a stated rule for which point is the plan.
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
    """Assemble the LP over z = [K+, K-, G+, G-] (all >= 0), sparse."""
    n = l_hat.size
    beta_p, beta_m = beta_coeffs(cfg)
    eye = sp.eye(n, format="csr")
    tril = sp.csr_array(np.tril(np.ones((n, n))))
    b_lo = cfg.b_min + cfg.power_backoff
    b_hi = cfg.b_max - cfg.power_backoff

    # coupling: (K+ - K-) - (G+ - G-) = env_low - env_high
    a_eq = sp.hstack([eye, -eye, -eye, eye], format="csr")
    b_eq = env_low - env_high

    rows = [
        # SOE low >= soe_min:  -(beta_p K+ - beta_m K-) cumulated <= soe0 - soe_min
        [-beta_p * tril, beta_m * tril, None, None],
        # SOE high <= soe_max
        [None, None, beta_p * tril, -beta_m * tril],
        # power bounds on K and G
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
        # plan cap: f + l_hat <= p_max with f = K+ - K- - env_low
        rows.append([eye, -eye, None, None])
        rhs.append(cfg.p_max - l_hat + env_low)
    return solver.LinearProgram(c=np.ones(4 * n), a_ineq=sp.bmat(rows, format="csr"),
                                b_ineq=np.concatenate(rhs), a_eq=a_eq, b_eq=b_eq,
                                lb=np.zeros(4 * n))


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


def solve_offset(forecast: ProsumptionForecast, cfg: DayAheadConfig) -> OffsetPlan:
    """Compute the offset profile for a full day's forecast."""
    l_hat, env_low, env_high = forecast.point, forecast.envelope_low, forecast.envelope_high
    n = l_hat.size
    p = _offset_lp(l_hat, env_low, env_high, cfg)
    sol, cert = solver.solve_lp(p)
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
    offset without an objective; wrong envelope signs raise ValueError."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] != 6:
        raise ValueError(f"{path}: expected 6 columns per plan row")
    order = np.argsort(data[:, 0])
    data = data[order]
    forecast = ProsumptionForecast(data[:, 3], data[:, 4], data[:, 5], members=())
    offset = OffsetPlan(f=data[:, 2], objective=np.nan,
                        certificate=solver.SolveCertificate(status="optimal"))
    return DispatchPlan(p_hat=data[:, 1], forecast=forecast, offset=offset)
