"""Command-line front end: dataset synthesis, day-ahead planning, closed-loop
simulation and report formatting.

Exit codes: 0 success, 2 configuration error, 3 infeasible plan, 4 plant abort,
5 solver failure. Set FEEDERDISPATCH_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .battery import load_parameter_table
from .dayahead import (DayAheadConfig, InfeasiblePlanError, load_plan, plan_day,
                       save_plan)
from .forecast import (TargetDayInfo, day_after, forecast_day, is_working_dayofyear,
                       load_history, save_history, synthesize_history)
from .mpc import MpcLimits
from .sim import (InitState, PlantConfig, PlantStateError, format_report,
                  peak_shave_check, run_day, run_multi_day, step_trace,
                  tracking_report, write_run_artifacts)
from .solver import SolverError
from .timegrid import N_SLOTS, STEPS_PER_SLOT

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_PLANT_ABORT = 4
EXIT_SOLVER_FAILURE = 5

log = logging.getLogger("feederdispatch")


class ConfigError(ValueError):
    pass


# A key's type, or the field of DayAheadConfig, MpcLimits or PlantConfig it
# sets followed by its types; the dataclasses hold the defaults.
_SCHEMA = {
    "seed": int,
    "initial_soc": float,
    "dayahead": {
        "soe0_kwh": ("soe0", float), "soe_min_kwh": ("soe_min", float),
        "soe_max_kwh": ("soe_max", float), "b_min_kw": ("b_min", float),
        "b_max_kw": ("b_max", float), "p_max_kw": ("p_max", float, type(None)),
        "eta": ("eta", float), "e_nom_kwh": ("e_nom", float),
        "soe_backoff_kwh": ("soe_backoff", float),
        "power_backoff_kw": ("power_backoff", float),
    },
    "mpc": {
        "i_min_a": ("i_min", float), "i_max_a": ("i_max", float),
        "di_min_a": ("di_min", float), "di_max_a": ("di_max", float),
        "v_min_v": ("v_min", float), "v_max_v": ("v_max", float),
        "soc_min": ("soc_min", float), "soc_max": ("soc_max", float),
    },
    "plant": {
        "param_perturbation": ("param_perturbation", float),
        "voltage_noise_v": ("voltage_noise_v", float),
        "power_noise_kw": ("power_noise_kw", float),
        "actuation_error_frac": ("actuation_error_frac", float),
        "actuation_noise_kw": ("actuation_noise_kw", float),
        "step_noise_kw": ("step_noise_kw", float), "step_noise_ar": ("step_noise_ar", float),
        "parameter_file": ("parameter_table", str, type(None)),
    },
    "paths": {"history": str, "plan": str, "trace": str, "out_dir": str},
}


def _validate(section: dict, schema: dict, where: str) -> None:
    for key, value in section.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {where}{key!r}")
        spec = schema[key]
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where}{key!r} must be an object")
            _validate(value, spec, f"{where}{key}.")
        else:
            types = spec[1:] if isinstance(spec, tuple) else (spec,)
            if float in types:
                types = types + (int,)
            if not isinstance(value, types) or isinstance(value, bool):
                raise ConfigError(f"config key {where}{key!r} has wrong type "
                                  f"({type(value).__name__})")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    _validate(doc, _SCHEMA, "")
    return doc


def _fields(doc: dict, section: str) -> dict:
    """The dataclass fields a validated config's ``section`` sets, int values as floats."""
    spec = _SCHEMA[section]
    return {spec[key][0]: float(value) if isinstance(value, int) else value
            for key, value in doc.get(section, {}).items()}


def dayahead_config(doc: dict, soe0: float | None = None,
                    p_max: float | None = None) -> DayAheadConfig:
    """The config's DayAheadConfig, with soe0 250 kWh unless set; ``soe0`` and
    ``p_max`` override the config."""
    fields = {"soe0": 250.0, **_fields(doc, "dayahead")}
    if soe0 is not None:
        fields["soe0"] = soe0
    if p_max is not None:
        fields["p_max"] = p_max
    return DayAheadConfig(**fields)


def _required_input(args, doc: dict, key: str) -> str:
    """The --<key> file, else the config's paths.<key>; ConfigError if neither."""
    if not (path := getattr(args, key) or doc.get("paths", {}).get(key)):
        raise ConfigError(f"missing input: pass --{key} or set paths.{key} in --config")
    return path


def mpc_limits(doc: dict) -> MpcLimits:
    return MpcLimits(**_fields(doc, "mpc"))


def plant_config(doc: dict) -> PlantConfig:
    fields = _fields(doc, "plant")
    path = fields.pop("parameter_table", None)
    return PlantConfig(**fields, parameter_table=load_parameter_table(path) if path else None)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    save_history(args.out, synthesize_history(args.seed, args.days))
    print(f"wrote {args.days} days to {args.out}")
    return EXIT_OK


def cmd_plan(args) -> int:
    doc = load_config(args.config)
    t0 = time.perf_counter()
    history = load_history(_required_input(args, doc, "history"))
    load_s = time.perf_counter() - t0
    if args.target_day is not None:
        doy = args.target_day
        year = args.target_year
    else:
        last = max(history, key=lambda d: (d.year, d.day_of_year))
        year, doy = day_after(last.year, last.day_of_year)
    r_star = args.radiation if args.radiation is not None else float(
        np.mean([d.daily_radiation for d in history[-10:]]))
    target = TargetDayInfo(year=year, day_of_year=doy, radiation_forecast=r_star,
                           is_working_day=is_working_dayofyear(doy))
    log.info("history: %d rows loaded in %.3f s; target: year %d day %d, radiation %.3f",
             len(history), load_s, year, doy, r_star)
    cfg = dayahead_config(doc, p_max=args.p_max)
    t0 = time.perf_counter()
    fc = forecast_day(history, target)
    plan = plan_day(fc, cfg)
    wall = time.perf_counter() - t0
    cert = plan.offset.certificate
    log.info("offset LP: status %s, path %s, %d iterations, objective %.6f, KKT residual "
             "%.3g; forecast and plan: %.3f s", cert.status, cert.path, cert.iterations,
             cert.objective, cert.kkt_residual, wall)
    save_plan(args.out, plan)
    print(f"plan for year {year} day {doy}: feasible, objective {plan.offset.objective:.3f}, "
          f"peak {plan.p_hat.max():.1f} kW, wall time {wall:.2f} s "
          f"({cert.path}, {cert.iterations} solver iterations)")
    print(f"wrote {plan.p_hat.size} slots to {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    doc = load_config(args.config)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    limits = mpc_limits(doc)
    plant_cfg = plant_config(doc)
    out_dir = Path(args.out_dir or doc.get("paths", {}).get("out_dir", "run_out"))
    initial_soc = args.initial_soc if args.initial_soc is not None \
        else float(doc.get("initial_soc", 0.5))

    if args.days is not None:
        for flag in ("plan", "trace"):      # a chain plans and draws each of its days
            if getattr(args, flag):
                raise ConfigError(f"--{flag} cannot be used with --days")
        history = load_history(_required_input(args, doc, "history"))
        cfg = dayahead_config(doc, soe0=0.0, p_max=args.p_max)
        results = run_multi_day(args.days, history, cfg, limits, plant_cfg, seed=seed,
                                initial_soc=initial_soc, battery_enabled=not args.no_battery)
        for d, res in enumerate(results):
            write_run_artifacts(out_dir / f"day{d}", res.run, res.plan, res.report, doc,
                                emit_plots=args.emit_plots, limits=limits)
            print(format_report(res.report, label=f"day {d}"))
            if cfg.p_max is not None:
                viol = peak_shave_check(res.run, cfg.p_max)
                print(f"peak-shave violations above {cfg.p_max} kW: {len(viol)}")
        focs = [r.run.soc[-1] for r in results]
        print("day-final plant SOC: " + ", ".join(f"{s:.3f}" for s in focs))
        return EXIT_OK

    plan = load_plan(_required_input(args, doc, "plan"))
    if plan.p_hat.size != N_SLOTS:         # a run of the CLI is a whole day
        raise ConfigError(f"plan has {plan.p_hat.size} slots, not {N_SLOTS}")
    trace_path = args.trace or doc.get("paths", {}).get("trace")
    if trace_path:
        trace = np.loadtxt(trace_path, comments="#")
        if trace.shape != (N_SLOTS * STEPS_PER_SLOT,):
            raise ConfigError(f"trace must hold {N_SLOTS * STEPS_PER_SLOT} values")
    else:
        rng = np.random.default_rng([seed, 3])
        trace = step_trace(np.asarray(plan.forecast.point), rng,
                           plant_cfg.step_noise_kw, plant_cfg.step_noise_ar)
    run = run_day(plan, plant_cfg, InitState(soc=initial_soc), trace_kw=trace,
                  seed=seed, limits=limits,
                  battery_enabled=not args.no_battery)
    report = tracking_report(run, plan)
    write_run_artifacts(out_dir, run, plan, report, doc,
                        emit_plots=args.emit_plots, limits=limits)
    print(format_report(report))
    if args.p_max is not None:
        viol = peak_shave_check(run, args.p_max)
        print(f"peak-shave violations above {args.p_max} kW: {len(viol)}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    path = Path(args.run_dir) / "report.txt"
    if not path.exists():
        raise ConfigError(f"no report at {path}")
    print(path.read_text().rstrip())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="feederdispatch",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic historical dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plan", help="compute a day-ahead dispatch plan")
    p.add_argument("--config", default=None)
    p.add_argument("--history", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--target-day", type=int, default=None)
    p.add_argument("--target-year", type=int, default=2016)
    p.add_argument("--radiation", type=float, default=None)
    p.add_argument("--p-max", type=float, default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="closed-loop simulation of one or more days")
    p.add_argument("--config", default=None)
    p.add_argument("--plan", default=None)
    p.add_argument("--trace", default=None)
    p.add_argument("--history", default=None)
    p.add_argument("--days", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--initial-soc", type=float, default=None)
    p.add_argument("--p-max", type=float, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--emit-plots", action="store_true")
    p.add_argument("--no-battery", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="print the report of a finished run")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("FEEDERDISPATCH_LOG", "warning").upper())
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasiblePlanError as exc:
        print(f"infeasible plan: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PlantStateError as exc:
        print(f"plant abort at step {exc.step}: {exc}", file=sys.stderr)
        return EXIT_PLANT_ABORT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
