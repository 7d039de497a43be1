import json
import logging
import re
from dataclasses import fields, replace

import pytest

from feederdispatch import cli
from feederdispatch.battery import TABLE1, save_parameter_table
from feederdispatch.dayahead import DayAheadConfig, plan_day, save_plan
from feederdispatch.forecast import (TargetDayInfo, forecast_day, is_working_dayofyear,
                                     load_history, save_history)
from feederdispatch.mpc import MpcLimits
from feederdispatch.sim import PlantConfig


@pytest.fixture(scope="module")
def synth_history(tmp_path_factory):
    """20 synthetic days written by ``feederdispatch synth``."""
    path = tmp_path_factory.mktemp("cli") / "history.csv"
    assert cli.main(["synth", "--days", "20", "--out", str(path)]) == cli.EXIT_OK
    return path


def test_plan_takes_no_seed(tmp_path, history):
    # plan has no random input: --seed is refused, and the plan written is
    # the library's plan for the same target day
    path = tmp_path / "history.csv"
    save_history(path, history)
    out = tmp_path / "plan.csv"
    doy = history[-1].day_of_year + 1
    argv = ["plan", "--history", str(path), "--out", str(out), "--target-day", str(doy),
            "--target-year", str(history[-1].year), "--radiation", "4.0"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert not out.exists()
    assert cli.main(argv) == cli.EXIT_OK
    target = TargetDayInfo(year=history[-1].year, day_of_year=doy, radiation_forecast=4.0,
                           is_working_day=is_working_dayofyear(doy))
    save_plan(tmp_path / "expected.csv",
              plan_day(forecast_day(load_history(path), target), cli.dayahead_config({})))
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()


@pytest.mark.parametrize("last_doy", [365, 366])
def test_plan_targets_the_day_after_the_history(history, tmp_path, capsys, last_doy):
    # a history ending on day 365, or on a leap year's day 366, is followed by
    # day 1 of the next year
    first = last_doy - len(history) + 1
    path = tmp_path / "history.csv"
    save_history(path, [replace(d, year=2016, day_of_year=first + i)
                        for i, d in enumerate(history)])
    argv = ["plan", "--history", str(path), "--out", str(tmp_path / "plan.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    assert "plan for year 2017 day 1: feasible" in capsys.readouterr().out


@pytest.mark.parametrize("day", [0, 367, -3])
def test_plan_rejects_a_target_day_outside_the_year(synth_history, tmp_path, capsys, day):
    out = tmp_path / "plan.csv"
    argv = ["plan", "--history", str(synth_history), "--out", str(out), "--target-day", str(day)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"day_of_year {day} outside 1..366" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("day", [1, 366])
def test_plan_accepts_the_first_and_last_day_of_the_year(synth_history, tmp_path, capsys, day):
    argv = ["plan", "--history", str(synth_history), "--out", str(tmp_path / "plan.csv"),
            "--target-day", str(day)]
    assert cli.main(argv) == cli.EXIT_OK
    assert f"plan for year 2016 day {day}: feasible" in capsys.readouterr().out


def test_plan_logs_facts_at_info(synth_history, tmp_path, caplog, capsys):
    argv = ["plan", "--history", str(synth_history), "--out", str(tmp_path / "plan.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    printed = capsys.readouterr()
    assert not caplog.records and "feasible" not in printed.err
    assert "(closed-form, 0 solver iterations)" in printed.out
    with caplog.at_level(logging.INFO, logger="feederdispatch"):
        assert cli.main(argv) == cli.EXIT_OK
    facts = [r.getMessage() for r in caplog.records if r.name == "feederdispatch"]
    assert len(facts) == 2
    assert facts[0].startswith("history: 20 rows loaded in ")
    assert "; target: year 2016 day 21, radiation " in facts[0]
    assert facts[1].startswith("offset LP: status optimal, path closed-form, 0 iterations, ")
    for fact in (" iterations, objective ", ", KKT residual ", "; forecast and plan: "):
        assert fact in facts[1]
    # from a nearly empty battery a SOE row cuts the centred offset, and HiGHS plans
    caplog.clear()
    config = tmp_path / "empty.json"
    config.write_text('{"dayahead": {"soe0_kwh": 60}}')
    with caplog.at_level(logging.INFO, logger="feederdispatch"):
        assert cli.main(argv + ["--config", str(config)]) == cli.EXIT_OK
    facts = [r.getMessage() for r in caplog.records if r.name == "feederdispatch"]
    assert facts[1].startswith("offset LP: status optimal, path lp, ")
    assert "(lp, " in capsys.readouterr().out


def test_synth_plan_run_report(tmp_path, capsys):
    history, plan, out = tmp_path / "history.csv", tmp_path / "plan.csv", tmp_path / "run"
    assert cli.main(["synth", "--seed", "2", "--days", "20", "--out", str(history)]) == 0
    assert len(load_history(history)) == 20
    assert cli.main(["plan", "--history", str(history), "--out", str(plan)]) == 0
    assert "feasible" in capsys.readouterr().out
    assert cli.main(["run", "--plan", str(plan), "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    steps = (out / "steps.csv").read_text().splitlines()[2:]     # below the two headers
    assert len(steps) == 8640
    assert {row.split(",")[9] for row in steps} <= {"solved", "infeasible-clipped"}
    assert (out / "plan.csv").read_bytes() == plan.read_bytes()
    assert cli.main(["report", str(out)]) == 0
    report = capsys.readouterr().out
    assert report == (out / "report.txt").read_text()
    assert report.startswith("Tracking error statistics (kW)") and report in printed


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mpc": {"i_max": 700.0}}))
    argv = ["plan", "--config", str(config), "--out", str(tmp_path / "plan.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "unknown config key mpc.'i_max'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["plan", "--out", "plan.csv"], "history"),
    (["run", "--days", "1", "--out-dir", "run"], "history"),
    (["run", "--out-dir", "run"], "plan"),
])
def test_missing_input_exits_2(tmp_path, monkeypatch, capsys, argv, flag):
    # neither the option nor the config's paths entry: the message names both
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"paths": {"out_dir": "run"}}))
    for extra in ([], ["--config", str(config)]):
        assert cli.main(argv + extra) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"pass --{flag} or set paths.{flag} in --config" in err
    assert list(tmp_path.iterdir()) == [config]


def test_run_days_with_peak_cap(synth_history, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["run", "--days", "2", "--history", str(synth_history), "--p-max", "270",
            "--out-dir", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    for day in ("day0", "day1"):
        assert {f.name for f in (out / day).iterdir()} == {
            "steps.csv", "plan.csv", "report.txt", "config.json"}
    assert printed.count("peak-shave violations above 270.0 kW: 0") == 2
    assert printed[-1].startswith("day-final plant SOC: ")
    assert len(printed[-1].split(", ")) == 2


def test_trace_of_wrong_length_exits_2(synth_history, tmp_path, capsys):
    plan, trace = tmp_path / "plan.csv", tmp_path / "trace.txt"
    assert cli.main(["plan", "--history", str(synth_history), "--out", str(plan)]) == 0
    trace.write_text("\n".join(["100.0"] * 8639) + "\n")
    argv = ["run", "--plan", str(plan), "--trace", str(trace), "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "trace must hold 8640 values" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_plan_radiation_is_the_mean_of_the_latest_days_in_any_row_order(tmp_path, capsys):
    # the default radiation averages the ten most recent days by date, not the
    # last ten rows: a history written in reverse row order gives the same plan
    history, backward = tmp_path / "history.csv", tmp_path / "backward.csv"
    assert cli.main(["synth", "--days", "40", "--out", str(history)]) == cli.EXIT_OK
    header, *rows = history.read_text().splitlines(keepends=True)
    backward.write_text(header + "".join(reversed(rows)))
    plans = []
    for path in (history, backward):
        plans.append(tmp_path / f"plan-{path.stem}.csv")
        assert cli.main(["plan", "--history", str(path), "--out", str(plans[-1])]) == 0
    assert "plan for year 2016 day 41: feasible" in capsys.readouterr().out
    assert plans[0].read_bytes() == plans[1].read_bytes()


def _with_value(path, line, field, value):
    """``path`` with field ``field`` of its line ``line`` (both from 0) set to ``value``."""
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[line].rstrip("\r\n").split(",")
    cells[field] = value
    lines[line] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_plan_rejects_a_non_finite_history_value(synth_history, tmp_path, capsys, value):
    # a value of the first day, which the forecast does not select, is refused
    # with the file and the line named
    history = tmp_path / "history.csv"
    history.write_bytes(synth_history.read_bytes())
    _with_value(history, 1, 100, value)
    argv = ["plan", "--history", str(history), "--out", str(tmp_path / "plan.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"{history}:2: a NaN or infinite value" in capsys.readouterr().err
    assert not (tmp_path / "plan.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_run_rejects_a_non_finite_plan_value(synth_history, tmp_path, capsys, value):
    plan = tmp_path / "plan.csv"
    assert cli.main(["plan", "--history", str(synth_history), "--out", str(plan)]) == 0
    _with_value(plan, 2 + 8, 1, value)          # p_hat of slot 8, below the two headers
    argv = ["run", "--plan", str(plan), "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"{plan}: plan row 8 holds a NaN or infinite value" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_run_rejects_a_non_finite_trace_value(synth_history, tmp_path, capsys, value):
    # refused before the first step: the controller has no use for an infinite
    # or missing load, and the step that read one would fail
    plan, trace = tmp_path / "plan.csv", tmp_path / "trace.txt"
    assert cli.main(["plan", "--history", str(synth_history), "--out", str(plan)]) == 0
    trace.write_text("\n".join(["100.0"] * 50 + [value] + ["100.0"] * 8589) + "\n")
    argv = ["run", "--plan", str(plan), "--trace", str(trace), "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"{trace}: trace step 50 is {float(value)}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_plan_shorter_than_the_day_exits_2(synth_history, tmp_path, capsys):
    # a 10-slot plan with a whole day's trace is refused before the first step
    plan, short, trace = tmp_path / "plan.csv", tmp_path / "short.csv", tmp_path / "trace.txt"
    assert cli.main(["plan", "--history", str(synth_history), "--out", str(plan)]) == 0
    short.write_text("".join(plan.read_text().splitlines(keepends=True)[:12]))
    trace.write_text("\n".join(["100.0"] * 8640) + "\n")
    argv = ["run", "--plan", str(short), "--trace", str(trace), "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "plan has 10 slots, not 288" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("ar", [1.0, 1.5])
def test_run_rejects_a_non_stationary_step_noise(synth_history, tmp_path, capsys, ar):
    # step_noise_ar outside (-1, 1) is a config error, named before any step runs
    plan, config = tmp_path / "plan.csv", tmp_path / "config.json"
    assert cli.main(["plan", "--history", str(synth_history), "--out", str(plan)]) == 0
    config.write_text(json.dumps({"plant": {"step_noise_ar": ar}}))
    argv = ["run", "--plan", str(plan), "--config", str(config),
            "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"step_noise_ar {ar} outside (-1, 1)" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag", ["plan", "trace"])
def test_run_days_refuses_a_plan_or_trace(synth_history, tmp_path, capsys, flag):
    argv = ["run", "--days", "1", "--history", str(synth_history), f"--{flag}", "x.csv",
            "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert f"--{flag} cannot be used with --days" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_days_without_battery(synth_history, tmp_path, capsys):
    # the chain honours --no-battery; the config's plan and trace paths, which
    # only a single-day run reads, are not refused
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"paths": {"plan": "p.csv", "trace": "t.txt"}}))
    out = tmp_path / "run"
    argv = ["run", "--days", "1", "--history", str(synth_history), "--no-battery",
            "--config", str(config), "--out-dir", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = (out / "day0" / "steps.csv").read_text().splitlines()[2:]
    assert len(rows) == 8640
    assert all(row.split(",")[9] == "disabled" for row in rows)
    assert all(float(row.split(",")[6]) == 0.0 for row in rows)


def test_infeasible_plan_exits_3(synth_history, tmp_path, capsys):
    out = tmp_path / "plan.csv"
    argv = ["plan", "--history", str(synth_history), "--out", str(out), "--p-max", "10"]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    assert "first violation at slot 277 (soe_min)" in capsys.readouterr().err
    assert not out.exists()


def test_loose_split_exits_3_naming_slot_and_parts(synth_history, tmp_path, capsys):
    # a 200 kW cap leaves the LP's G split charging and discharging at once on
    # two slots: the message names the first, its side and both parts in kW
    out = tmp_path / "plan.csv"
    argv = ["plan", "--history", str(synth_history), "--out", str(out), "--p-max", "200"]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    found = re.search(r"at slot 32, G\+ = (\S+) kW and G- = (\S+) kW are both positive",
                      capsys.readouterr().err)
    assert found and min(float(v) for v in found.groups()) > 1e4
    assert not out.exists()


def test_plant_abort_exits_4(synth_history, tmp_path, capsys):
    # at SOC 0 the controller actuates zero current, and the converter's
    # noise alone takes the plant below 0 on the first step
    plan = tmp_path / "plan.csv"
    assert cli.main(["plan", "--history", str(synth_history), "--out", str(plan)]) == 0
    argv = ["run", "--plan", str(plan), "--initial-soc", "0", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_PLANT_ABORT
    assert "plant abort at step 0" in capsys.readouterr().err


def test_solver_failure_exits_5(synth_history, tmp_path, capsys):
    # eta = 1e-20 puts 8.3e18 kWh/kW into the offset LP, a coefficient HiGHS
    # refuses, and it refuses the elastic LP too: no verdict of infeasibility
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dayahead": {"eta": 1e-20}}))
    argv = ["plan", "--config", str(config), "--history", str(synth_history),
            "--out", str(tmp_path / "plan.csv")]
    assert cli.main(argv) == cli.EXIT_SOLVER_FAILURE
    assert "solver failure: day-ahead LP solve failed" in capsys.readouterr().err


def test_config_sets_every_field(tmp_path):
    table = tuple(replace(p, e=p.e + 1.0) for p in TABLE1)
    save_parameter_table(tmp_path / "params.csv", table)
    doc = {
        "seed": 3, "initial_soc": 0.4,
        "dayahead": {"soe0_kwh": 200, "soe_min_kwh": 40.5, "soe_max_kwh": 460,
                     "b_min_kw": -200, "b_max_kw": 220.5, "p_max_kw": 300, "eta": 0.95,
                     "e_nom_kwh": 480, "soe_backoff_kwh": 5, "power_backoff_kw": 2.5},
        "mpc": {"i_min_a": -700, "i_max_a": 750.5, "di_min_a": -150, "di_max_a": 160,
                "v_min_v": 540, "v_max_v": 740.5, "soc_min": 0.15, "soc_max": 0.85},
        "plant": {"param_perturbation": 0.1, "voltage_noise_v": 0.2, "power_noise_kw": 0,
                  "actuation_error_frac": 0.02, "actuation_noise_kw": 1, "step_noise_kw": 2,
                  "step_noise_ar": 0.8, "parameter_file": str(tmp_path / "params.csv")},
        "paths": {"history": "h.csv", "plan": "p.csv", "trace": "t.txt", "out_dir": "out"},
    }
    # the document names every key of the schema
    assert set(doc) == set(cli._SCHEMA)
    for name, section in cli._SCHEMA.items():
        if isinstance(section, dict):
            assert set(doc[name]) == set(section)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    doc = cli.load_config(str(tmp_path / "config.json"))
    built = (cli.dayahead_config(doc), cli.mpc_limits(doc), cli.plant_config(doc))
    assert built == (
        DayAheadConfig(soe0=200.0, soe_min=40.5, soe_max=460.0, b_min=-200.0, b_max=220.5,
                       p_max=300.0, eta=0.95, e_nom=480.0, soe_backoff=5.0,
                       power_backoff=2.5),
        MpcLimits(i_min=-700.0, i_max=750.5, di_min=-150.0, di_max=160.0, v_min=540.0,
                  v_max=740.5, soc_min=0.15, soc_max=0.85),
        PlantConfig(param_perturbation=0.1, voltage_noise_v=0.2, power_noise_kw=0.0,
                    actuation_error_frac=0.02, actuation_noise_kw=1.0, step_noise_kw=2.0,
                    step_noise_ar=0.8, parameter_table=table))
    # int values arrive as floats
    for cfg in built:
        for f in fields(cfg):
            if f.name != "parameter_table":
                assert type(getattr(cfg, f.name)) is float, f.name
    # the arguments override the document; a null cap and an empty document
    # leave the dataclass defaults, with soe0 250 kWh
    assert cli.dayahead_config(doc, soe0=0.0, p_max=10.0) \
        == replace(built[0], soe0=0.0, p_max=10.0)
    assert cli.dayahead_config({"dayahead": {"p_max_kw": None}}).p_max is None
    assert (cli.dayahead_config({}), cli.mpc_limits({}), cli.plant_config({})) \
        == (DayAheadConfig(soe0=250.0), MpcLimits(), PlantConfig())
