"""Day-ahead prosumption forecasting by similar-day selection, plus the
persistence predictor used in real time and a synthetic history generator.

The forecast for a target day is built from 5 historical daily profiles chosen
in three stages: same working/non-working kind, then the 10 closest in
time-distance, then the 5 of those closest in daily solar radiation. The
slot-wise mean of the selected profiles is the point forecast; the slot-wise
spread around it gives the uncertainty envelopes consumed by the day-ahead
optimization.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .timegrid import N_SLOTS

OMEGA_B_SIZE = 10
OMEGA_C_SIZE = 5


class InsufficientHistoryError(ValueError):
    """Raised when the history cannot support the day-selection heuristic."""


@dataclass(frozen=True)
class HistoricalDay:
    year: int
    day_of_year: int
    profile: np.ndarray          # kW, length 288, slot averages
    daily_radiation: float       # kWh/day/m^2
    is_working_day: bool

    def __post_init__(self):
        object.__setattr__(self, "profile", np.asarray(self.profile, dtype=float))
        if self.profile.shape != (N_SLOTS,):
            raise ValueError(f"profile must have {N_SLOTS} values, got {self.profile.shape}")
        if not 1 <= self.day_of_year <= 366:
            raise ValueError(f"day_of_year {self.day_of_year} outside 1..366")
        if self.daily_radiation < 0:
            raise ValueError("daily_radiation must be >= 0")


@dataclass(frozen=True)
class TargetDayInfo:
    year: int
    day_of_year: int
    radiation_forecast: float    # kWh/day/m^2
    is_working_day: bool

    def __post_init__(self):
        if not 1 <= self.day_of_year <= 366:
            raise ValueError(f"day_of_year {self.day_of_year} outside 1..366")
        if self.radiation_forecast < 0:
            raise ValueError("radiation_forecast must be >= 0")


@dataclass(frozen=True)
class ProsumptionForecast:
    """Point forecast and uncertainty envelopes for one day.

    envelope_low[i] = point[i] - max over members (<= 0) and
    envelope_high[i] = point[i] - min over members (>= 0): they bound the
    battery power needed to absorb any member realization.
    """

    point: np.ndarray
    envelope_low: np.ndarray
    envelope_high: np.ndarray
    members: tuple[HistoricalDay, ...]

    def __post_init__(self):
        for name in ("point", "envelope_low", "envelope_high"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (self.point.shape[0],):
                raise ValueError("forecast array length mismatch")
        if np.any(self.envelope_low > 1e-9) or np.any(self.envelope_high < -1e-9):
            raise ValueError("envelope signs violated (low must be <= 0 <= high)")

    @property
    def member_min(self) -> np.ndarray:
        return self.point - self.envelope_high

    @property
    def member_max(self) -> np.ndarray:
        return self.point - self.envelope_low


def time_distance(day: HistoricalDay, target: TargetDayInfo) -> int:
    """Seasonal time distance: a year counts 365 day-of-year units."""
    return 365 * abs(day.year - target.year) + abs(day.day_of_year - target.day_of_year)


def day_after(year: int, day_of_year: int) -> tuple[int, int]:
    """The (year, day of year) after a day, in the 365-day convention of
    :func:`time_distance`: day 365 and a leap year's day 366 roll over to day 1."""
    return (year + 1, 1) if day_of_year >= 365 else (year, day_of_year + 1)


def select_days(history, target: TargetDayInfo) -> tuple[HistoricalDay, ...]:
    """Three-stage similar-day selection; returns the 5 chosen days.

    Ties are broken deterministically by (more recent year, lower day-of-year,
    input order).
    """
    omega_a = [(idx, d) for idx, d in enumerate(history)
               if d.is_working_day == target.is_working_day]
    kind = "working" if target.is_working_day else "non-working"
    if len(omega_a) < OMEGA_B_SIZE:
        raise InsufficientHistoryError(
            f"need >= {OMEGA_B_SIZE} {kind} days in history, found {len(omega_a)}")
    tiebreak = lambda item: (-item[1].year, item[1].day_of_year, item[0])
    omega_b = sorted(omega_a, key=lambda it: (time_distance(it[1], target),) + tiebreak(it))
    omega_b = omega_b[:OMEGA_B_SIZE]
    omega_c = sorted(omega_b, key=lambda it: (abs(target.radiation_forecast
                                                  - it[1].daily_radiation),) + tiebreak(it))
    return tuple(d for _, d in omega_c[:OMEGA_C_SIZE])


def point_forecast(selected) -> ProsumptionForecast:
    """Slot-wise mean and min/max envelopes of the 5 selected profiles."""
    selected = tuple(selected)
    if len(selected) != OMEGA_C_SIZE:
        raise ValueError(f"expected {OMEGA_C_SIZE} selected days, got {len(selected)}")
    stack = np.stack([d.profile for d in selected])
    point = stack.mean(axis=0)
    return ProsumptionForecast(point=point,
                               envelope_low=point - stack.max(axis=0),
                               envelope_high=point - stack.min(axis=0),
                               members=selected)


def forecast_day(history, target: TargetDayInfo) -> ProsumptionForecast:
    """select_days followed by point_forecast."""
    return point_forecast(select_days(history, target))


def short_term_predict(last_observed: float, horizon: int) -> np.ndarray:
    """Persistence predictor: the last observed prosumption repeated."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return np.full(horizon, float(last_observed))


# ---------------------------------------------------------------------------
# Synthetic history (stand-in for confidential feeder measurements)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticShape:
    """Generator parameters for synthetic feeder prosumption.

    The daily base is an office-style shape (night plateau, working-hours
    plateau), PV shows up as a midday dip scaled by daily radiation, and an
    AR(1) noise term adds slot-to-slot correlated deviations.
    """

    night_kw: float = 120.0
    day_kw: float = 260.0
    weekend_day_kw: float = 150.0
    morning_start_h: float = 6.5
    morning_end_h: float = 9.0
    evening_start_h: float = 17.0
    evening_end_h: float = 21.0
    pv_peak_kw: float = 80.0         # dip depth at radiation_clear_sky
    radiation_clear_sky: float = 8.0  # kWh/day/m^2
    daylight_hours: float = 12.0
    noise_std_kw: float = 2.0        # AR(1) innovation std per slot
    noise_ar: float = 0.8
    radiation_mean: float = 4.0
    radiation_spread: float = 2.5


def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def base_profile(shape: SyntheticShape, working: bool) -> np.ndarray:
    """Deterministic daily base shape (no PV, no noise), kW per slot."""
    hours = (np.arange(N_SLOTS) + 0.5) * 24.0 / N_SLOTS
    day_level = shape.day_kw if working else shape.weekend_day_kw
    up = _smoothstep((hours - shape.morning_start_h)
                     / (shape.morning_end_h - shape.morning_start_h))
    down = _smoothstep((hours - shape.evening_start_h)
                       / (shape.evening_end_h - shape.evening_start_h))
    return shape.night_kw + (day_level - shape.night_kw) * (up - down)


def pv_profile(shape: SyntheticShape, radiation: float) -> np.ndarray:
    """Midday PV generation (positive values; subtracted from demand), kW."""
    hours = (np.arange(N_SLOTS) + 0.5) * 24.0 / N_SLOTS
    phase = (hours - 12.0) / shape.daylight_hours * np.pi
    bell = np.where(np.abs(phase) < np.pi / 2.0, np.cos(phase) ** 2, 0.0)
    return shape.pv_peak_kw * (radiation / shape.radiation_clear_sky) * bell


def is_working_dayofyear(day_of_year: int) -> bool:
    """Fixed 5-on/2-off weekly pattern (days 6 and 7 of each cycle are off)."""
    return day_of_year % 7 not in (5, 6)


def ar1_noise(rng: np.random.Generator, n: int, std: float, ar: float,
              start_std: float) -> np.ndarray:
    """n steps of prev = ar * prev + e from prev ~ N(0, start_std); the n draws of
    e ~ N(0, std) are one call, which gives the stream of n scalar draws."""
    prev = rng.normal(0.0, start_std)
    out = rng.normal(0.0, std, size=n).tolist()
    for i, e in enumerate(out):
        prev = out[i] = ar * prev + e
    return np.array(out)


def synthesize_day(rng: np.random.Generator, year: int, day_of_year: int,
                   shape: SyntheticShape) -> HistoricalDay:
    """One synthetic day: base shape minus PV plus AR(1) noise. Draws from
    ``rng`` the radiation (one uniform), then the noise (see :func:`ar1_noise`)."""
    working = is_working_dayofyear(day_of_year)
    season = 1.0 + 0.6 * np.sin(2.0 * np.pi * (day_of_year - 80) / 365.0)
    radiation = float(np.clip(shape.radiation_mean * season / 1.3
                              + shape.radiation_spread * (rng.random() - 0.3),
                              0.05, shape.radiation_clear_sky))
    noise = ar1_noise(rng, N_SLOTS, shape.noise_std_kw, shape.noise_ar,
                      shape.noise_std_kw / np.sqrt(1 - shape.noise_ar**2))
    profile = base_profile(shape, working) - pv_profile(shape, radiation) + noise
    return HistoricalDay(year=year, day_of_year=day_of_year, profile=profile,
                         daily_radiation=radiation, is_working_day=working)


def synthesize_history(seed: int, days: int,
                       shape: SyntheticShape = SyntheticShape()) -> list[HistoricalDay]:
    """Deterministic-for-seed synthetic dataset of ``days`` consecutive days
    from 2016 day 1."""
    if days < 15:
        raise ValueError("need at least 15 days of history for forecasting")
    rng = np.random.default_rng(seed)
    return [synthesize_day(rng, 2016 + d // 365, d % 365 + 1, shape) for d in range(days)]


# ---------------------------------------------------------------------------
# Historical dataset files
# ---------------------------------------------------------------------------
#
# A header, then one CSV record per day:
#   year, day_of_year, working_day (0/1), daily_radiation, v0, ..., v287
# The writer ends records with CRLF and writes floats as repr, which reads back
# as the same double. The reader takes LF or CRLF and quoted fields, skips blank
# lines, the header and records whose first field starts with '#', and parses
# as float() does, but refuses '_' and non-ASCII digits. It rejects a record of
# other than 4 + 288 fields, or with a fractional year, day_of_year or working_day.


def save_history(path, history) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["year", "day_of_year", "working_day", "daily_radiation"]
                          + [f"kw_{i:03d}" for i in range(N_SLOTS)]) + "\r\n")
        for d in history:
            fh.write(f"{d.year},{d.day_of_year},{int(d.is_working_day)},"
                     f"{float(d.daily_radiation)!r},"
                     + ",".join(map(repr, d.profile.tolist())) + "\r\n")


def _data_lines(fh, path):
    """The data records of an open history file; raises at one of the wrong width."""
    for lineno, line in enumerate(fh, start=1):
        text = line.rstrip("\r\n")
        quoted = '"' in text
        row = next(csv.reader([text]), []) if quoted else text.split(",", 1) if text else []
        if not row or row[0].startswith("#") or row[0] == "year":
            continue
        count = len(row) if quoted else text.count(",") + 1
        if count != 4 + N_SLOTS:
            raise ValueError(f"{path}:{lineno}: expected {4 + N_SLOTS} columns, got {count}")
        yield text


def load_history(path) -> list[HistoricalDay]:
    with open(path, newline="") as fh:
        lines = _data_lines(fh, path)
        first = next(lines, None)
        if first is None:
            return []
        data = np.loadtxt(itertools.chain([first], lines), delimiter=",", quotechar='"',
                          comments=None, ndmin=2)
    meta = data[:, :4].tolist()
    if not all(v.is_integer() for row in meta for v in row[:3]):
        raise ValueError(f"{path}: year, day_of_year and working_day must be whole numbers")
    # a copy per day, so that the parsed block is freed before the planner
    # runs: a history of views kept it alive and moved glibc's heap by ~5 MB
    return [HistoricalDay(year=int(year), day_of_year=int(doy), is_working_day=bool(working),
                          daily_radiation=radiation, profile=profile.copy())
            for (year, doy, working, radiation), profile in zip(meta, data[:, 4:])]
