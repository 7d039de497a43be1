"""SHA-256 digests, cut to 16 hex digits, that tell whether two versions of
the package compute the same history file, the same plans and the same
closed-loop days, bit for bit.

Prints one line each for:

- ``history``: the file ``save_history`` writes for ``synthesize_history(1, 365)``;
- ``plans``: the plan files of ``feederdispatch plan --target-year 2017
  --target-day d`` for d = 1..14 from that file, concatenated;
- ``plans-lp``: the same 14 plans from an almost empty battery, with
  ``--config`` holding ``{"dayahead": {"soe0_kwh": 60}}``: a SOE row cuts the
  centred offset on every day, so each plan is HiGHS's optimum;
- ``baseline``, ``floor``, ``ceiling`` and ``rate``: the bytes of the actuated currents
  (``i_a``, float64), then the statuses and then the active groups, each joined
  by ``|``, of one whole day of ``run_day`` (seed 0) on the ROADMAP scenario:
  the day after ``synthesize_history(7, 60)`` with radiation 4.0 and a trace
  from ``step_trace(scale * point, default_rng(3), 1.0, 0.9)``. The baseline
  day plans from 250 kWh and starts at SOC 0.5 with scale 1; the floor day
  from 50 kWh, SOC 0.1 and scale 1.1; the ceiling day from 450 kWh, SOC 0.9
  and scale 0.9. The rate day is the baseline day with a current-rate limit of
  +-5 A per step (``MpcLimits(di_min=-5, di_max=5)``), so the rate rows bind.
  The ceiling day takes the longest, about 20 s on 2 vCPUs;
- ``chain``: for each day in order, the bytes of the plan (``p_hat``) and of the
  actuated currents, then the statuses and then the active groups, each joined
  by ``|``, of ``run_multi_day(3, synthesize_history(7, 60),
  DayAheadConfig(soe0=0.0), MpcLimits(), PlantConfig(), seed=0,
  realization_scale=1.1)``: prosumption 10 % over the forecast pins the SOC at
  its floor from the first day on (7–11 s on 2 vCPUs).

Run from the repository root:

    PYTHONPATH=src python scripts/digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from feederdispatch import cli
from feederdispatch.dayahead import DayAheadConfig, plan_day
from feederdispatch.forecast import (TargetDayInfo, forecast_day, is_working_dayofyear,
                                     save_history, synthesize_history)
from feederdispatch.mpc import MpcLimits
from feederdispatch.sim import InitState, PlantConfig, run_day, run_multi_day, step_trace

DAYS = {"baseline": (250.0, 0.5, 1.0, MpcLimits()), "floor": (50.0, 0.1, 1.1, MpcLimits()),
        "ceiling": (450.0, 0.9, 0.9, MpcLimits()),
        "rate": (250.0, 0.5, 1.0, MpcLimits(di_min=-5.0, di_max=5.0))}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(workdir: Path) -> tuple[str, str, str]:
    history = workdir / "history.csv"
    save_history(history, synthesize_history(1, 365))
    config = workdir / "empty.json"
    config.write_text(json.dumps({"dayahead": {"soe0_kwh": 60}}))
    return (sha(history.read_bytes()), plans_digest(workdir, history, []),
            plans_digest(workdir, history, ["--config", str(config)]))


def plans_digest(workdir: Path, history: Path, extra: list[str]) -> str:
    plans = b""
    for day in range(1, 15):
        out = workdir / f"plan-{day}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["plan", "--history", str(history), "--out", str(out),
                           "--target-year", "2017", "--target-day", str(day), *extra])
        if rc != cli.EXIT_OK:
            raise SystemExit(f"plan for day {day} exited {rc}")
        plans += out.read_bytes()
    return sha(plans)


def day_digest(soe0: float, soc: float, scale: float, limits: MpcLimits) -> str:
    history = synthesize_history(7, 60)
    doy = history[-1].day_of_year + 1
    fc = forecast_day(history, TargetDayInfo(year=history[-1].year, day_of_year=doy,
                                             radiation_forecast=4.0,
                                             is_working_day=is_working_dayofyear(doy)))
    plan = plan_day(fc, DayAheadConfig(soe0=soe0))
    trace = step_trace(fc.point * scale, np.random.default_rng(3), 1.0, 0.9)
    run = run_day(plan, PlantConfig(), InitState(soc=soc), trace_kw=trace, seed=0,
                  limits=limits)
    return sha(_run_bytes(run))


def _run_bytes(run) -> bytes:
    return run.i_a.tobytes() + "|".join(run.status).encode() + "|".join(run.active).encode()


def chain_digest() -> str:
    days = run_multi_day(3, synthesize_history(7, 60), DayAheadConfig(soe0=0.0), MpcLimits(),
                         PlantConfig(), seed=0, realization_scale=1.1)
    return sha(b"".join(day.plan.p_hat.tobytes() + _run_bytes(day.run) for day in days))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        history, plans, plans_lp = file_digests(Path(tmp))
    print(f"history  {history[:16]}")
    print(f"plans    {plans[:16]}")
    print(f"plans-lp {plans_lp[:16]}")
    for name, day in DAYS.items():
        print(f"{name:8s} {day_digest(*day)[:16]}")
    print(f"chain    {chain_digest()[:16]}")


if __name__ == "__main__":
    main()
