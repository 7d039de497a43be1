import pytest

from feederdispatch import cli
from feederdispatch.dayahead import plan_day, save_plan
from feederdispatch.forecast import (TargetDayInfo, forecast_day, is_working_dayofyear,
                                     load_history, save_history)


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
