"""Shrinking-horizon model predictive control of the battery current.

Every 10 seconds the controller computes the energy still owed to the current
5-minute slot of the dispatch plan and solves a convex program for the DC
current trajectory up to the slot end: maximize the summed current subject to
the predicted AC energy throughput staying below the energy target, plus
current magnitude/rate, voltage-trajectory and SOC-trajectory limits. Only the
first component is actuated; the next cycle re-solves with fresh measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import solver
from .battery import CONVERTER_EFF, ModelBank
from .dayahead import DispatchPlan
from .timegrid import SLOT_SECONDS, STEP_SECONDS, STEPS_PER_SLOT
from .forecast import short_term_predict

# kWh per kW of DC power over one step, incl. converter loss
ALPHA = STEP_SECONDS / 3600.0 * CONVERTER_EFF

STATUS_SOLVED = "solved"
STATUS_CLIPPED = "infeasible-clipped"
STATUS_FAILURE = "solver-failure"


@dataclass(frozen=True)
class MpcLimits:
    i_min: float = -810.0      # A (1C discharge)
    i_max: float = 810.0       # A
    di_min: float = -200.0     # A per step
    di_max: float = 200.0
    v_min: float = 530.0       # V
    v_max: float = 750.0
    soc_min: float = 0.10
    soc_max: float = 0.90

    def __post_init__(self):
        if not self.i_min < 0.0 < self.i_max:
            raise ValueError("need i_min < 0 < i_max")
        if not self.v_min < self.v_max:
            raise ValueError("need v_min < v_max")
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise ValueError("need 0 <= soc_min < soc_max <= 1")
        if not self.di_min < 0.0 < self.di_max:
            raise ValueError("need di_min < 0 < di_max")


@dataclass(frozen=True)
class StepTelemetry:
    """Measurements available to the controller at the start of a step."""

    p_avg: float               # kW, average composite GCP power so far in the slot
    last_load: float           # kW, prosumption of the previous step
    soc: float                 # SOC of the plant
    x: np.ndarray              # voltage-model state estimate (from the Kalman filter)
    v: float                   # V, measured DC voltage


@dataclass
class _Structure:
    """What every step at one (model, horizon) shares (:func:`_mpc_structure`),
    and, per MpcLimits, the constant entries of b_ineq (:func:`_rhs`)."""

    qcqp: solver.QcqpProblem
    v_one: np.ndarray
    b_const: dict = field(default_factory=dict)


@dataclass
class MpcProblem:
    """One step's control problem: ``_qcqp`` puts the step's right-hand sides on
    ``_structure``. Only :func:`build_problem` passes it, kept by its bank for
    the same psi_v_i, psi_v_1, psi_soc_i and horizon."""

    horizon: int
    e_k: float                     # kWh energy target for the rest of the slot
    phi_v: np.ndarray
    psi_v_i: np.ndarray
    psi_v_1: np.ndarray
    phi_soc: np.ndarray
    psi_soc_i: np.ndarray
    x_k: np.ndarray
    soc_k: float
    v_k: float                     # measured voltage, used for set-point conversion
    limits: MpcLimits
    alpha: ClassVar[float] = ALPHA
    _structure: _Structure | None = field(default=None, repr=False, compare=False)
    _qcqp: solver.QcqpProblem = field(init=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.horizon <= STEPS_PER_SLOT:
            raise ValueError(f"horizon must be in 1..{STEPS_PER_SLOT}")
        if self._structure is None:
            self._structure = _mpc_structure(self.psi_v_i, self.psi_v_1, self.psi_soc_i,
                                             self.horizon)
        v_free = self.phi_v @ self.x_k + self._structure.v_one
        # V*A = W: the 1e-3 brings the throughput to kW before alpha's kWh
        self._qcqp = self._structure.qcqp.with_rhs(ALPHA / 1000.0 * v_free, self.e_k,
                                                   _rhs(self, v_free))


def _mpc_structure(psi_v_i, psi_v_1, psi_soc_i, h: int) -> _Structure:
    """The QCQP at one (model, horizon) with zero right-hand sides: c = 1, the
    throughput quadratic in kWh and the rows; ValueError unless it is convex.
    With it, psi_v_1 @ 1, the EMF part of the zero-current voltages."""
    a_ineq = _stack_constraints(psi_v_i, psi_soc_i, h)
    qcqp = solver.QcqpProblem(c=np.ones(h), q=ALPHA / 1000.0 * 0.5 * (psi_v_i + psi_v_i.T),
                              l=np.zeros(h), r=0.0, a_ineq=a_ineq,
                              b_ineq=np.zeros(a_ineq.shape[0]))
    return _Structure(qcqp, psi_v_1 @ np.ones(h))


def _stack_constraints(psi_v, psi_soc, h: int) -> np.ndarray:
    eye = np.eye(h)
    d = np.diff(eye, axis=0)            # row j computes i[j+1] - i[j]
    return np.vstack([eye, -eye, d, -d, psi_v, -psi_v, psi_soc, -psi_soc])


def dispatch_error(p_star: float, p_plus: float) -> float:
    """Energy gap (kWh) between the slot's committed average power and its
    expected realization; negative means the battery must discharge."""
    return (SLOT_SECONDS / 3600.0) * (p_star - p_plus)


def expected_average(done: int, p_k: float, short_term: np.ndarray) -> float:
    """Expected slot-average composite power: the average ``p_k`` of the ``done``
    steps already measured in the slot plus the short-term prosumption predictions
    for the remaining steps."""
    if short_term.size != STEPS_PER_SLOT - done:
        raise ValueError(f"short_term must have {STEPS_PER_SLOT - done} values, "
                         f"got {short_term.size}")
    return (done * p_k + float(short_term.sum())) / STEPS_PER_SLOT


def build_problem(k: int, plan: DispatchPlan, telemetry: StepTelemetry,
                  bank: ModelBank, limits: MpcLimits) -> MpcProblem:
    """Assemble the step-k control problem from the plan and fresh telemetry: step k
    lies in slot k // STEPS_PER_SLOT, and its horizon runs to that slot's end.
    IndexError if k lies outside the plan."""
    slot, done = divmod(k, STEPS_PER_SLOT)
    if not 0 <= slot < plan.p_hat.size:
        raise IndexError(f"step index {k} outside [0, {plan.p_hat.size * STEPS_PER_SLOT})")
    horizon = STEPS_PER_SLOT - done
    p_star = float(plan.p_hat[slot])
    p_plus = expected_average(done, telemetry.p_avg,
                              short_term_predict(telemetry.last_load, horizon))
    e_k = dispatch_error(p_star, p_plus)
    vm = bank.voltage_model(telemetry.soc)
    tv = bank.transitions(vm, horizon)
    ts = bank.transitions(bank.soc_model, horizon)
    structure = tv.derived.get("mpc")
    if structure is None:
        structure = tv.derived["mpc"] = _mpc_structure(tv.psi_i, tv.psi_1, ts.psi_i, horizon)
    return MpcProblem(horizon=horizon, e_k=e_k,
                      phi_v=tv.phi, psi_v_i=tv.psi_i, psi_v_1=tv.psi_1,
                      phi_soc=ts.phi, psi_soc_i=ts.psi_i,
                      x_k=np.asarray(telemetry.x, dtype=float), soc_k=telemetry.soc,
                      v_k=telemetry.v, limits=limits, _structure=structure)


@dataclass(frozen=True)
class ControlDecision:
    i_traj: np.ndarray
    b_setpoint: float          # kW
    status: str
    active: str = ""           # active constraint groups at the optimum
    kkt_residual: float = np.nan
    iterations: int = 0        # NNLS solves of the QCQP (0 for the closed form)
    path: str = "none"         # "closed-form" | "parametric" | "least-distance" | "none"


def to_power_setpoint(i_first: float, v_k: float) -> float:
    """Real-power set-point (kW) for the converter: measured voltage times the
    first current of the control law."""
    return v_k * i_first / 1000.0


def _rhs(p: MpcProblem, v_free: np.ndarray) -> np.ndarray:
    """Right-hand sides of the rows, given the zero-current voltages: the
    structure's constant entries for p.limits, with the free voltage and SOC
    added to the four state blocks, negated for the upper limits (v_max + -v_free
    is v_max - v_free, and -v_min + v_free is v_free - v_min, exactly)."""
    h, lim = p.horizon, p.limits
    b = p._structure.b_const.get(lim)
    if b is None:
        b = p._structure.b_const[lim] = np.concatenate([
            np.full(h, lim.i_max), np.full(h, -lim.i_min),
            np.full(h - 1, lim.di_max), np.full(h - 1, -lim.di_min),
            np.full(h, lim.v_max), np.full(h, -lim.v_min),
            np.full(h, lim.soc_max), np.full(h, -lim.soc_min)])
    soc_free = (p.phi_soc * p.soc_k).ravel()
    b = b.copy()
    b[4 * h - 2:] += np.concatenate((-v_free, v_free, -soc_free, soc_free))
    return b


_GROUPS = np.array(["box", "rate", "v", "soc"])
_GROUP_STARTS = [np.array([0, 2 * h, 4 * h - 2, 6 * h - 2]) for h in range(STEPS_PER_SLOT + 1)]


def _active_groups(h: int, sol: solver.QcqpSolution) -> str:
    """Names of the constraint groups holding a constraint the solver found
    active, in the row order of :func:`_stack_constraints`."""
    if not sol.active.any():
        return "throughput" if sol.quad_active else "-"
    hit = np.logical_or.reduceat(sol.active, _GROUP_STARTS[h])
    hit[1] &= h > 1                 # no rate rows at horizon 1
    active = (["throughput"] if sol.quad_active else []) + _GROUPS[hit].tolist()
    return ",".join(active) if active else "-"


def solve(p: MpcProblem) -> ControlDecision:
    """Solve the control problem, or actuate the closest achievable energy when
    the target is out of reach.

    :func:`solver.solve_qcqp` returns the closed-form optimum when only the
    throughput row binds (it is checked against every linear row and the KKT
    gate) and its parametric least-distance solve otherwise. The infeasible
    case is always a too-negative energy target, so the trajectory of least
    throughput over the linear rows is the closest achievable one: it is the
    certified minimiser that :func:`solver.solve_qcqp` returns with its
    infeasible verdict (``infeasible-clipped``), first sought on the rows the
    closed form breaks. ``path`` records which ran (``none``: zero current);
    ``iterations`` counts the NNLS solves.
    """
    sol, cert = solver.solve_qcqp(p._qcqp)
    if sol is not None and cert.kkt_residual <= solver.KKT_GATE:
        return ControlDecision(i_traj=sol.x,
                               b_setpoint=to_power_setpoint(float(sol.x[0]), p.v_k),
                               status=STATUS_CLIPPED if cert.status == "infeasible"
                               else STATUS_SOLVED,
                               active=_active_groups(p.horizon, sol),
                               kkt_residual=cert.kkt_residual,
                               iterations=cert.iterations, path=cert.path)
    zero = np.zeros(p.horizon)
    return ControlDecision(i_traj=zero, b_setpoint=0.0,
                           status=STATUS_FAILURE, active="-",
                           kkt_residual=cert.kkt_residual, iterations=cert.iterations)
