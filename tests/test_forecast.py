import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feederdispatch.forecast import (N_SLOTS, NOISE_AR, NOISE_STD_KW, PV_PEAK_KW,
                                     HistoricalDay, InsufficientHistoryError,
                                     ProsumptionForecast, TargetDayInfo, base_profile,
                                     day_after, is_working_dayofyear, load_history,
                                     point_forecast, pv_profile, save_history,
                                     select_days, short_term_predict,
                                     synthesize_history, time_distance)

from oracles import csv_load_history, csv_save_history, scalar_synthesize_history


def _day(year, doy, level, radiation, working=True):
    return HistoricalDay(year=year, day_of_year=doy,
                         profile=np.full(N_SLOTS, float(level)),
                         daily_radiation=radiation, is_working_day=working)


def test_day_validation():
    with pytest.raises(ValueError):
        HistoricalDay(2016, 1, np.zeros(100), 1.0, True)
    with pytest.raises(ValueError):
        _day(2016, 400, 1.0, 1.0)
    with pytest.raises(ValueError):
        _day(2016, 10, 1.0, -0.5)


@pytest.mark.parametrize("doy", [0, 367, -3])
def test_target_day_out_of_range_rejected(doy):
    with pytest.raises(ValueError, match=f"day_of_year {doy} outside 1..366"):
        TargetDayInfo(2016, doy, 3.0, is_working_day=True)


@pytest.mark.parametrize("doy", [1, 366])
def test_target_day_edges_accepted(doy):
    assert TargetDayInfo(2016, doy, 3.0, is_working_day=True).day_of_year == doy


def test_select_days_filters_kind():
    history = [_day(2016, d, d, 3.0, working=(d % 2 == 0)) for d in range(1, 41)]
    target = TargetDayInfo(2016, 41, 3.0, is_working_day=False)
    chosen = select_days(history, target)
    assert all(not d.is_working_day for d in chosen)


def test_select_days_needs_ten_same_kind():
    history = [_day(2016, d, 1.0, 3.0, working=True) for d in range(1, 10)]
    target = TargetDayInfo(2016, 20, 3.0, is_working_day=True)
    with pytest.raises(InsufficientHistoryError):
        select_days(history, target)


def test_exactly_ten_candidates_all_enter_stage_two():
    history = [_day(2016, d, d, float(d), working=True) for d in range(1, 11)]
    target = TargetDayInfo(2016, 30, 5.2, is_working_day=True)
    chosen = select_days(history, target)
    # stage two cannot prune below ten, so the pick is purely by radiation
    assert sorted(d.daily_radiation for d in chosen) == [3.0, 4.0, 5.0, 6.0, 7.0]


def test_radiation_stage_matches_exhaustive_selection():
    # all candidates tie on time distance; brute-force min-extraction oracle
    history = [_day(2016, 100 + (1 if r % 2 == 0 else -1) * ((r + 1) // 2),
                    r, float(r), working=True) for r in range(1, 11)]
    target = TargetDayInfo(2016, 100, 3.2, is_working_day=True)
    for d in history:
        assert abs(time_distance(d, target)) <= 5
    chosen = select_days(history, target)
    remaining = list(history)
    expected = []
    for _ in range(5):
        best = min(remaining, key=lambda d: abs(3.2 - d.daily_radiation))
        expected.append(best)
        remaining.remove(best)
    assert sorted(d.daily_radiation for d in chosen) == \
        sorted(d.daily_radiation for d in expected)
    assert sorted(d.daily_radiation for d in chosen) == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_time_distance_prefers_recent_and_seasonal():
    target = TargetDayInfo(2016, 100, 3.0, True)
    same_year = _day(2016, 90, 1.0, 3.0)
    last_year = _day(2015, 100, 1.0, 3.0)
    assert time_distance(same_year, target) == 10
    assert time_distance(last_year, target) == 365


@pytest.mark.parametrize("day, after", [((2016, 1), (2016, 2)), ((2016, 364), (2016, 365)),
                                       ((2016, 365), (2017, 1)), ((2016, 366), (2017, 1))])
def test_day_after_rolls_over_after_day_365(day, after):
    assert day_after(*day) == after


def test_point_forecast_degenerate_members():
    days = [_day(2016, d, 42.0, 3.0) for d in range(1, 6)]
    fc = point_forecast(days)
    assert fc.point == pytest.approx(np.full(N_SLOTS, 42.0))
    assert fc.envelope_low == pytest.approx(np.zeros(N_SLOTS))
    assert fc.envelope_high == pytest.approx(np.zeros(N_SLOTS))


def test_point_forecast_arithmetic():
    days = [_day(2016, d, level, 3.0) for d, level in
            zip(range(1, 6), (10.0, 20.0, 30.0, 40.0, 50.0))]
    fc = point_forecast(days)
    assert fc.point[0] == pytest.approx(30.0)
    assert fc.envelope_low[0] == pytest.approx(-20.0)
    assert fc.envelope_high[0] == pytest.approx(20.0)
    assert fc.member_min[0] == pytest.approx(10.0)
    assert fc.member_max[0] == pytest.approx(50.0)


def test_point_forecast_mean_linearity():
    days = [_day(2016, d, 10.0, 3.0) for d in range(1, 6)]
    bumped = days[0].profile.copy()
    bumped[7] += 5.0
    days[0] = HistoricalDay(2016, 1, bumped, 3.0, True)
    fc = point_forecast(days)
    assert fc.point[7] == pytest.approx(11.0)
    assert fc.point[8] == pytest.approx(10.0)


def test_point_forecast_commutes_with_scaling():
    days = [_day(2016, d, level, 3.0) for d, level in
            zip(range(1, 6), (10.0, 20.0, 30.0, 40.0, 50.0))]
    fc1 = point_forecast(days)
    scaled = [HistoricalDay(d.year, d.day_of_year, 2.0 * d.profile,
                            d.daily_radiation, d.is_working_day) for d in days]
    fc2 = point_forecast(scaled)
    assert fc2.point == pytest.approx(2.0 * fc1.point)
    assert fc2.envelope_high == pytest.approx(2.0 * fc1.envelope_high)


def test_envelope_sign_enforced():
    with pytest.raises(ValueError):
        ProsumptionForecast(point=np.zeros(4), envelope_low=np.ones(4),
                            envelope_high=np.ones(4), members=())


def test_persistence_predictor():
    assert short_term_predict(150.0, 3) == pytest.approx([150.0] * 3)
    assert short_term_predict(0.0, 30) == pytest.approx(np.zeros(30))
    assert short_term_predict(-40.0, 1) == pytest.approx([-40.0])
    with pytest.raises(ValueError):
        short_term_predict(1.0, 0)


def test_synthesize_deterministic():
    a = synthesize_history(seed=3, days=20)
    b = synthesize_history(seed=3, days=20)
    for da, db in zip(a, b):
        assert np.array_equal(da.profile, db.profile)
        assert da.daily_radiation == db.daily_radiation
    c = synthesize_history(seed=4, days=20)
    assert not np.array_equal(a[0].profile, c[0].profile)


def test_synthesize_minimum_days():
    with pytest.raises(ValueError):
        synthesize_history(seed=1, days=10)


def test_zero_radiation_means_zero_pv():
    assert pv_profile(0.0) == pytest.approx(np.zeros(N_SLOTS))
    assert np.all(pv_profile(8.0) >= 0.0)
    assert pv_profile(8.0).max() == pytest.approx(PV_PEAK_KW, rel=1e-2)


def test_weekend_pattern():
    kinds = [is_working_dayofyear(d) for d in range(1, 15)]
    assert sum(kinds) == 10   # 5-on/2-off twice


def test_profile_mean_approaches_base_shape():
    # law of large numbers against the generator parameters, with each day's
    # PV added back
    days = synthesize_history(seed=11, days=1400)
    working = np.stack([d.profile + pv_profile(d.daily_radiation)
                        for d in days if d.is_working_day])[:1000]
    assert working.shape[0] == 1000
    base = base_profile(working=True)
    sigma = NOISE_STD_KW / np.sqrt(1.0 - NOISE_AR ** 2)
    bound = 3.0 * sigma / np.sqrt(1000.0)
    err = np.abs(working.mean(axis=0) - base)
    # a 3-sigma bound leaves ~0.3% expected exceedances over 288 slots
    assert np.quantile(err, 0.99) <= bound
    assert err.mean() <= bound / 2.0


def test_history_file_roundtrip(tmp_path):
    days = synthesize_history(seed=5, days=16)
    path = tmp_path / "hist.csv"
    save_history(path, days)
    back = load_history(path)
    assert len(back) == 16
    for a, b in zip(days, back):
        assert np.array_equal(a.profile, b.profile)
        assert a.daily_radiation == b.daily_radiation
        assert (a.year, a.day_of_year, a.is_working_day) == \
            (b.year, b.day_of_year, b.is_working_day)


def test_history_file_rejects_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2016,1,1,3.0,1.0,2.0\n")
    with pytest.raises(ValueError):
        load_history(path)


def _same_days(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.profile, y.profile)
        assert (x.year, x.day_of_year, x.is_working_day, x.daily_radiation) == \
            (y.year, y.day_of_year, y.is_working_day, y.daily_radiation)


@pytest.mark.parametrize("seed,days", [(0, 20), (5, 400), (11, 365)])
def test_bulk_history_paths_match_scalar_oracles(tmp_path, seed, days):
    # one vector draw per day, one join per record and one loadtxt per file
    # give the arrays, bytes and values of the scalar and csv-module paths;
    # 400 days run into 2017
    days_ = synthesize_history(seed, days)
    _same_days(days_, scalar_synthesize_history(seed, days))
    assert days_[-1].year == 2016 + (days - 1) // 365
    save_history(tmp_path / "bulk.csv", days_)
    csv_save_history(tmp_path / "csv.csv", days_)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()
    _same_days(load_history(tmp_path / "bulk.csv"), csv_load_history(tmp_path / "csv.csv"))


def _record(values="1.5", year="2016", doy="3", working="1"):
    return ",".join([year, doy, working, "2.25"] + [values] * N_SLOTS)


@pytest.mark.parametrize("lines,match", [
    ([_record(), _record() + ",7.0"], r"bad\.csv:2: expected 292 columns, got 293"),
    (["year,x", "# note", _record().rsplit(",", 1)[0]],
     r"bad\.csv:3: expected 292 columns, got 291"),
    ([_record(values="abc")], "could not convert"),
    ([_record(year="2016.5")], "whole numbers"),
    ([_record(working="0.5")], "whole numbers"),
])
def test_history_reader_rejects(tmp_path, lines, match):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=match):
        load_history(path)
    with pytest.raises(ValueError):
        csv_load_history(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("lines,count", [
    ([_record(), _record(doy="4", working="0")], 2),
    (['"2016","3","1","2.25",' + ",".join(['"1.5"'] * N_SLOTS)], 1),
    (['"year","day_of_year"', "#" + _record(), '"#quoted",1', "", _record(), ""], 1),
    (["year,day_of_year,working_day", "# only a header"], 0),
])
def test_history_reader_matches_csv_oracle(tmp_path, lines, count, newline):
    # quoted numbers, header, '#' and blank lines, and LF or CRLF records read
    # as the csv module reads them; a file with no record gives [] silently
    path = tmp_path / "hist.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_history(path)
    assert len(back) == count
    _same_days(back, csv_load_history(path))


@given(st.floats(-300, 300), st.integers(1, 30))
@settings(max_examples=30)
def test_persistence_is_constant(value, horizon):
    seq = short_term_predict(value, horizon)
    assert seq.shape == (horizon,)
    assert np.all(seq == value)
