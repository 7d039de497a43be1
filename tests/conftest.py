import numpy as np
import pytest

from feederdispatch.battery import ModelBank
from feederdispatch.forecast import (TargetDayInfo, forecast_day, is_working_dayofyear,
                                     synthesize_history)


@pytest.fixture(scope="session")
def bank():
    return ModelBank()


@pytest.fixture(scope="session")
def history():
    return synthesize_history(seed=7, days=60)


@pytest.fixture(scope="session")
def day_forecast(history):
    last = history[-1]
    doy = last.day_of_year + 1
    target = TargetDayInfo(year=last.year, day_of_year=doy, radiation_forecast=4.0,
                           is_working_day=is_working_dayofyear(doy))
    return forecast_day(history, target)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
