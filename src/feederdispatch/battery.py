"""Grey-box battery models: SOC-scheduled equivalent circuit, discretization,
prediction transition matrices, SOC integrator and Kalman state reconstruction.

The DC voltage model is an EMF source E behind a series resistance Rs and three
parallel RC branches ("three time constant" circuit). Parameters were estimated
per SOC range on a 720 kVA / 500 kWh lithium-titanate unit and are reproduced in
``TABLE1``; the controller picks the set matching the measured SOC (model
scheduling). For 10 s control the fastest branch (R3, C3) is replaced by an
algebraic series resistance (matched DC gain) and the remaining two states are
discretized with forward Euler.

Note on the ``sigma2`` row of the parameter table: two of the printed values are
negative, so they are read as log-variances; the measurement noise variance used
by the Kalman filter is exp(sigma2).
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .timegrid import STEP_SECONDS

C_NOM_AH = 810.0         # Ah, pack capacity from datasheet
CONVERTER_EFF = 0.98     # AC power per DC power of the converter


@dataclass(frozen=True)
class TtcParameters:
    """One SOC-range parameter set of the three-time-constant circuit."""

    soc_range: str           # e.g. "40-60%"
    e: float                 # EMF, V
    rs: float                # series resistance, ohm
    r1: float
    c1: float                # F
    r2: float
    c2: float
    r3: float
    c3: float
    k1: float                # process noise gains
    k2: float
    k3: float
    sigma2: float            # log-variance of measurement noise

    def __post_init__(self):
        if min(self.rs, self.r1, self.r2, self.r3) <= 0:
            raise ValueError(f"{self.soc_range}: resistances must be positive")
        if min(self.c1, self.c2, self.c3) <= 0:
            raise ValueError(f"{self.soc_range}: capacitances must be positive")
        if self.e <= 0:
            raise ValueError(f"{self.soc_range}: EMF must be positive")

    @property
    def sigma_g(self) -> float:
        """Measurement noise standard deviation, volts."""
        return float(np.exp(0.5 * self.sigma2))


TABLE1: tuple[TtcParameters, ...] = (
    TtcParameters("0-20%", e=592.2, rs=0.029, r1=0.095, c1=8930, r2=0.04, c2=909,
                  r3=2.5e-3, c3=544.2, k1=0.639, k2=-5.31, k3=5.41, sigma2=-1.31),
    TtcParameters("20-40%", e=625.0, rs=0.021, r1=0.075, c1=9809, r2=0.009, c2=2139,
                  r3=4.9e-5, c3=789.0, k1=0.677, k2=-0.22, k3=40, sigma2=-0.42),
    TtcParameters("40-60%", e=652.9, rs=0.015, r1=0.090, c1=13996, r2=0.009, c2=2482,
                  r3=2.4e-4, c3=2959.7, k1=0.617, k2=-0.36, k3=0.40, sigma2=0.3426),
    TtcParameters("60-80%", e=680.2, rs=0.014, r1=0.079, c1=9499, r2=0.009, c2=2190,
                  r3=6.8e-4, c3=100.2, k1=0.547, k2=-0.28, k3=2.83, sigma2=3.5784),
    TtcParameters("80-100%", e=733.2, rs=0.013, r1=0.199, c1=11234, r2=0.010, c2=2505,
                  r3=6.0e-4, c3=6177.3, k1=0.795, k2=0.077, k3=-0.24, sigma2=2.7694),
)

_RANGE_EDGES = (0.2, 0.4, 0.6, 0.8)


def schedule_index(soc: float) -> int:
    """Index of the parameter set whose SOC range contains ``soc``; boundaries
    belong to the upper range (soc = 0.20 selects 20-40%)."""
    if not 0.0 <= soc <= 1.0:
        raise ValueError(f"soc {soc} outside [0, 1]")
    return min(bisect_right(_RANGE_EDGES, soc), 4)


@dataclass(frozen=True)
class DiscreteStateSpace:
    """Discrete model x+ = a x + b_i*i + b_1, y = c x + d_i*i + d_1.

    The constant input channel (b_1, d_1) carries the EMF; ``k`` is the
    discretized process noise matrix and ``g`` the measurement noise std.
    """

    a: np.ndarray
    b_i: np.ndarray
    b_1: np.ndarray
    c: np.ndarray
    d_i: float
    d_1: float
    k: np.ndarray
    g: float
    label: str = ""


def reduce_and_discretize(p: TtcParameters, ts: float = STEP_SECONDS) -> DiscreteStateSpace:
    """Drop the fast (R3, C3) branch into the series feedthrough (the unique
    choice preserving DC gain exactly) and discretize the remaining two states
    with a single forward-Euler step; process noise per the first-order
    truncation of Van Loan's matrix exponentials."""
    if ts <= 0:
        raise ValueError("ts must be positive")
    a_r = np.diag([-1.0 / (p.r1 * p.c1), -1.0 / (p.r2 * p.c2)])
    b_r = np.array([[1.0 / p.c1, 0.0], [1.0 / p.c2, 0.0]])
    k_r = np.diag([p.k1, p.k2])
    a = np.eye(2) + a_r * ts
    rho = float(np.max(np.abs(np.diag(a))))
    if rho >= 1.0:
        raise ValueError(f"unstable discretization for {p.soc_range}: "
                         f"spectral radius {rho:.4f} at ts={ts}")
    b = b_r * ts
    m1 = np.eye(2) + k_r * ts
    m2 = np.eye(2) + a_r.T * ts
    k = m1 @ m2.T
    return DiscreteStateSpace(a=a, b_i=b[:, 0].copy(), b_1=b[:, 1].copy(),
                              c=np.ones(2), d_i=p.rs + p.r3, d_1=p.e,
                              k=k, g=p.sigma_g, label=p.soc_range)


def voltage_step(m: DiscreteStateSpace, x: np.ndarray, i: float) -> tuple[np.ndarray, float]:
    """Noise-free propagation of the 2-state voltage model: next state and
    terminal voltage under current i, from the state array x. Written out on
    Python floats in the summation order of the matrix form, as
    :func:`kalman_update` is."""
    (a00, a01), (a10, a11) = m.a.tolist()
    (x0, x1), (c0, c1) = x.tolist(), m.c.tolist()
    (bi0, bi1), (b10, b11) = m.b_i.tolist(), m.b_1.tolist()
    x_next = np.array([a00 * x0 + a01 * x1 + bi0 * i + b10,
                       a10 * x0 + a11 * x1 + bi1 * i + b11])
    return x_next, c0 * x0 + c1 * x1 + m.d_i * i + m.d_1


def soc_statespace() -> DiscreteStateSpace:
    """Scalar coulomb-counting model of one STEP_SECONDS step of the C_NOM_AH pack,
    whose output is the end-of-step SOC, so the predictive constraints bound the
    SOC actually reached after each actuation."""
    b = STEP_SECONDS / 3600.0 / C_NOM_AH
    return DiscreteStateSpace(a=np.array([[1.0]]), b_i=np.array([b]), b_1=np.array([0.0]),
                              c=np.ones(1), d_i=b, d_1=0.0, k=np.zeros((1, 1)),
                              g=0.0, label="soc")


def soc_step(soc: float, i: float) -> float:
    """Coulomb counting over one step: soc + (STEP_SECONDS/3600) * i / C_NOM_AH."""
    return soc + (STEP_SECONDS / 3600.0) * i / C_NOM_AH


@dataclass(frozen=True)
class TransitionMatrices:
    """Stacked output prediction y = phi x0 + psi_i * i_seq + psi_1 * ones;
    ``derived`` keeps what a consumer computes once from them, by name."""

    phi: np.ndarray
    psi_i: np.ndarray
    psi_1: np.ndarray
    derived: dict = field(default_factory=dict, compare=False, repr=False)


def build_transition(m: DiscreteStateSpace, horizon: int) -> TransitionMatrices:
    """Output-prediction matrices over ``horizon`` steps.

    Row j of phi is c a^j; psi_* are lower-triangular Toeplitz with the
    feedthrough on the diagonal and the impulse response c a^(j-1-m) b below.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = m.a.shape[0]
    phi = np.empty((horizon, n))
    h_i = np.empty(horizon)
    h_1 = np.empty(horizon)
    h_i[0] = m.d_i
    h_1[0] = m.d_1
    row = m.c.reshape(n).copy()
    vi = m.b_i.reshape(n)
    v1 = m.b_1.reshape(n)
    for j in range(horizon):
        phi[j] = row
        if j + 1 < horizon:
            h_i[j + 1] = float(row @ vi)
            h_1[j + 1] = float(row @ v1)
        row = row @ m.a
    psi_i = np.zeros((horizon, horizon))
    psi_1 = np.zeros((horizon, horizon))
    for j in range(horizon):
        psi_i[j:, j] = h_i[:horizon - j]
        psi_1[j:, j] = h_1[:horizon - j]
    return TransitionMatrices(phi=phi, psi_i=psi_i, psi_1=psi_1)


# ---------------------------------------------------------------------------
# Kalman filtering for voltage-model state reconstruction
# ---------------------------------------------------------------------------


@dataclass
class KalmanState:
    x: np.ndarray
    p: np.ndarray

    @staticmethod
    def initial() -> "KalmanState":
        # large prior variance (std 10 V): the first measurements dominate
        return KalmanState(x=np.zeros(2), p=np.eye(2) * 10.0**2)


def kalman_update(st: KalmanState, m: DiscreteStateSpace, i_prev: float,
                  v_meas: float) -> KalmanState:
    """One predict + measurement-update cycle of the 2-state voltage model; a NaN
    ``v_meas`` (no reading) runs the predict step only.

    The innovation subtracts the full output prediction including the
    feedthrough d_i*i_prev + d_1 (the EMF channel), since the measured terminal
    voltage contains both. The covariance update is the Joseph form, which
    needs no inverse and keeps the covariance symmetric. The 2x2 matrix
    products are written out on Python floats, in their summation order, as
    numpy's per-call cost would dominate arrays this small.
    """
    (a00, a01), (a10, a11) = m.a.tolist()
    (k00, k01), (k10, k11) = m.k.tolist()
    (p00, p01), (p10, p11) = st.p.tolist()
    (x0, x1), (c0, c1) = st.x.tolist(), m.c.tolist()
    (bi0, bi1), (b10, b11) = m.b_i.tolist(), m.b_1.tolist()
    r = m.g**2
    y0 = a00 * x0 + a01 * x1 + bi0 * i_prev + b10
    y1 = a10 * x0 + a11 * x1 + bi1 * i_prev + b11
    # predicted covariance a p a' + k k'
    t00, t01 = a00 * p00 + a01 * p10, a00 * p01 + a01 * p11
    t10, t11 = a10 * p00 + a11 * p10, a10 * p01 + a11 * p11
    q00 = t00 * a00 + t01 * a01 + (k00 * k00 + k01 * k01)
    q01 = t00 * a10 + t01 * a11 + (k00 * k10 + k01 * k11)
    q10 = t10 * a00 + t11 * a01 + (k10 * k00 + k11 * k01)
    q11 = t10 * a10 + t11 * a11 + (k10 * k10 + k11 * k11)
    if math.isnan(v_meas):          # no reading: the predict step only
        off = 0.5 * (q01 + q10)
        return KalmanState(x=np.array([y0, y1]), p=np.array([[q00, off], [off, q11]]))
    s = (c0 * q00 + c1 * q10) * c0 + (c0 * q01 + c1 * q11) * c1 + r
    g0, g1 = (q00 * c0 + q01 * c1) / s, (q10 * c0 + q11 * c1) / s
    innov = v_meas - (c0 * y0 + c1 * y1) - m.d_i * i_prev - m.d_1
    # Joseph form (I - g c') q (I - g c')' + g g' r
    j00, j01, j10, j11 = 1.0 - g0 * c0, -(g0 * c1), -(g1 * c0), 1.0 - g1 * c1
    t00, t01 = j00 * q00 + j01 * q10, j00 * q01 + j01 * q11
    t10, t11 = j10 * q00 + j11 * q10, j10 * q01 + j11 * q11
    off = 0.5 * ((t00 * j10 + t01 * j11 + g0 * g1 * r) + (t10 * j00 + t11 * j01 + g1 * g0 * r))
    p_new = np.array([[t00 * j00 + t01 * j01 + g0 * g0 * r, off],
                      [off, t10 * j10 + t11 * j11 + g1 * g1 * r]])
    if not _is_psd(p_new):
        warnings.warn("Kalman covariance lost positive semidefiniteness; "
                      "clipping negative eigenvalues", RuntimeWarning)
        w, vecs = np.linalg.eigh(p_new)
        p_new = (vecs * np.maximum(w, 0.0)) @ vecs.T
    return KalmanState(x=np.array([y0 + g0 * innov, y1 + g1 * innov]), p=p_new)


def _is_psd(p: np.ndarray) -> bool:
    """Whether a symmetric 2x2 matrix is PSD: trace and determinant >= 0."""
    return p[0, 0] + p[1, 1] >= 0.0 and p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0] >= 0.0


# ---------------------------------------------------------------------------
# Model bank: discretized models for all ranges plus transition caching
# ---------------------------------------------------------------------------


class ModelBank:
    """Discretized voltage models of TABLE1's SOC ranges plus the SOC integrator, with
    prediction matrices per (model, horizon) cached on first use with their QCQP structure,
    whose Cholesky factor checks convexity. The plant's own parameters never reach it."""

    def __init__(self):
        self.voltage_models = tuple(reduce_and_discretize(p) for p in TABLE1)
        self.soc_model = soc_statespace()
        self._cache: dict[tuple[str, int], TransitionMatrices] = {}

    def voltage_model(self, soc: float) -> DiscreteStateSpace:
        return self.voltage_models[schedule_index(soc)]

    def transitions(self, m: DiscreteStateSpace, horizon: int) -> TransitionMatrices:
        key = (m.label, horizon)
        tm = self._cache.get(key)
        if tm is None:
            tm = build_transition(m, horizon)
            self._cache[key] = tm
        return tm


# ---------------------------------------------------------------------------
# Parameter override files (Table-mirroring layout)
# ---------------------------------------------------------------------------

_PARAM_ROWS = ("e", "rs", "r1", "c1", "r2", "c2", "r3", "c3", "k1", "k2", "k3", "sigma2")


def save_parameter_table(path, table: tuple[TtcParameters, ...] = TABLE1) -> None:
    """Write a parameter table: header of SOC ranges, one row per parameter."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["parameter"] + [p.soc_range for p in table])
        for name in _PARAM_ROWS:
            w.writerow([name] + [repr(float(getattr(p, name))) for p in table])


def load_parameter_table(path) -> tuple[TtcParameters, ...]:
    """Read a parameter override file written by :func:`save_parameter_table`."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty parameter file")
    ranges = rows[0][1:]
    if len(ranges) != 5:
        raise ValueError(f"{path}: expected 5 SOC-range columns, got {len(ranges)}")
    values: dict[str, list[float]] = {}
    for row in rows[1:]:
        name = row[0].strip().lower()
        if name not in _PARAM_ROWS:
            raise ValueError(f"{path}: unknown parameter row {row[0]!r}")
        if len(row) != 6:
            raise ValueError(f"{path}: row {name} needs 5 values")
        values[name] = [float(v) for v in row[1:]]
    missing = set(_PARAM_ROWS) - set(values)
    if missing:
        raise ValueError(f"{path}: missing parameter rows {sorted(missing)}")
    return tuple(
        TtcParameters(soc_range=ranges[j],
                      **{name: values[name][j] for name in _PARAM_ROWS})
        for j in range(5)
    )
