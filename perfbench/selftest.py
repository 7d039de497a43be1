"""Self-test of the benchmark's output checks: each check must pass on real
output and reject the same output with one planted fault.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes a few seconds. Exits 0 when every check
accepts the real output and catches every planted fault.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import scenarios  # noqa: E402
from tracer import Tracer  # noqa: E402

SLOTS = 2


def _short_run(name: str):
    """The first SLOTS slots of a closed-loop workload, with every step's
    (problem, decision) kept."""
    from feederdispatch import sim

    wl = scenarios.CLOSED_LOOP[name]
    prep, _ = scenarios._closed_loop_setup(wl)
    prep = scenarios._cut(prep.plan, prep.trace_kw, prep.bank, prep.limits, 0, SLOTS)
    samples = []
    with Tracer() as capture:
        capture.wrap(sim, "solve", "mpc.solve",
                     note=lambda args, d: samples.append((args[0], d)))
        run = sim.run_day(prep.plan, sim.PlantConfig(), sim.InitState(soc=wl.initial_soc),
                          trace_kw=prep.trace_kw, seed=0, bank=prep.bank,
                          limits=prep.limits, grid=prep.grid)
    return prep.plan, run, [s for s in samples if s[1].status == "solved"]


def _pushed(i: np.ndarray, j: int, value: float) -> np.ndarray:
    out = np.array(i, dtype=float)
    out[j] = value
    return out


def main() -> int:
    from feederdispatch import cli, forecast

    cases: list[tuple[str, list[str], bool]] = []   # (name, messages, expect_fail)

    def case(name, messages, expect_fail):
        cases.append((name, messages, expect_fail))

    plan, run, solved = _short_run("day_track")
    case("composition, real run", checks.composition(run), False)
    broken = replace(run, p_kw=run.p_kw.copy())
    broken.p_kw[7] = np.nextafter(broken.p_kw[7], np.inf)
    case("composition, one ulp off", checks.composition(broken), True)
    rmse = checks.slot_rmse(run, plan.p_hat, plan.forecast.point)
    case("tracking, real run", checks.tracking(*rmse), False)
    idle = replace(run, p_kw=run.l_kw.copy())
    case("tracking, battery idle",
         checks.tracking(*checks.slot_rmse(idle, plan.p_hat, plan.forecast.point)), True)
    case("statuses, real run", checks.all_solved(run), False)
    failing = replace(run, status=list(run.status))
    failing.status[3] = "solver-failure"
    case("statuses, one failure", checks.all_solved(failing), True)

    p, d = solved[5]
    lim = p.limits
    i = d.i_traj
    case("trajectory, real solve", checks.trajectory(p, i), False)
    case("trajectory, box pushed", checks.trajectory(p, _pushed(i, 0, lim.i_max + 0.01)),
         True)
    case("trajectory, rate pushed",
         checks.trajectory(p, _pushed(i, 1, i[0] + lim.di_max + 0.01)), True)
    case("trajectory, throughput exceeded", checks.trajectory(p, 1.01 * i), True)
    case("optimality, closed form, real solve", checks.optimality(p, i)[0], False)
    case("optimality, closed form, trajectory x 0.999", checks.optimality(p, 0.999 * i)[0],
         True)
    _, _, rate_solved = _short_run("rate_bound")
    p, d = rate_solved[5]
    errors, method = checks.optimality(p, d.i_traj)
    case(f"optimality, {method}, real solve", errors, False)
    case(f"optimality, {method}, trajectory x 0.999",
         checks.optimality(p, 0.999 * d.i_traj)[0], True)

    cfg = cli.dayahead_config({})
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        hist, out = Path(tmp) / "history.csv", Path(tmp) / "plan.csv"
        forecast.save_history(hist, forecast.synthesize_history(0, 60))
        captured = {}
        with Tracer() as capture, contextlib.redirect_stdout(io.StringIO()):
            capture.wrap(cli, "forecast_day", "forecast.forecast_day",
                         note=lambda a, r: captured.setdefault("forecast", r))
            capture.wrap(cli, "plan_day", "dayahead.plan_day",
                         note=lambda a, r: captured.setdefault("plan", r))
            rc = cli.main(scenarios._plan_argv(hist, out, 1))
        cols = checks.read_plan(out)
    fc, plan = captured["forecast"], captured["plan"]
    case("plan run exits 0", [] if rc == 0 else [f"exit {rc}"], False)
    case("plan file, real plan", checks.plan_columns(cols, cfg), False)
    off = dict(cols, p_hat=cols["p_hat"].copy())
    off["p_hat"][9] = np.nextafter(off["p_hat"][9], -np.inf)
    case("plan file, p_hat one ulp off", checks.plan_columns(off, cfg), True)
    low = dict(cols, f=cols["f"] - 60.0, p_hat=cols["l_hat"] + (cols["f"] - 60.0))
    case("plan file, offset drains the worst-case SOE", checks.plan_columns(low, cfg), True)
    case("forecast, real forecast", checks.forecast_members(fc), False)
    case("forecast, point shifted",
         checks.forecast_members(replace(fc, point=fc.point + 1e-6)), True)
    case("forecast, envelopes swapped",
         checks.forecast_members(replace(fc, envelope_low=-fc.envelope_high,
                                         envelope_high=-fc.envelope_low)), True)
    reference = checks.offset_lp_objective(cols["l_hat"], cols["env_low"],
                                           cols["env_high"], cfg)
    case("LP objective, real plan", checks.lp_objective(plan.offset.objective, reference),
         False)
    case("LP objective, 1% off",
         checks.lp_objective(1.01 * plan.offset.objective, reference), True)

    bad = 0
    for name, messages, expect_fail in cases:
        ok = bool(messages) == expect_fail
        bad += not ok
        verdict = "ok  " if ok else "FAIL"
        detail = messages[0] if messages else "passes"
        print(f"{verdict} {name}: {detail}")
    print(f"{len(cases) - bad} of {len(cases)} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
