import numpy as np
import pytest
from hypothesis import given, strategies as st

from feederdispatch.mpc import expected_average
from feederdispatch.timegrid import DEFAULT_GRID, TimeGrid

grid = DEFAULT_GRID


def test_grid_consistency():
    assert grid.n_steps == grid.n_slots * grid.steps_per_slot
    with pytest.raises(ValueError):
        TimeGrid(n_slots=288, n_steps=8000)


def test_window_of():
    w = grid.window_of(96)
    assert (w.k_lo, w.k_hi, w.slot) == (90, 119, 3)
    assert grid.window_of(90).k_lo == 90
    assert grid.window_of(29) == grid.window_of(0)
    assert (grid.window_of(29).k_lo, grid.window_of(29).k_hi) == (0, 29)
    assert grid.window_of(59).k_hi + 1 == grid.window_of(60).k_lo == 60
    for bad in (-1, 8640):
        with pytest.raises(IndexError):
            grid.window_of(bad)


def test_full_slot_constant_average():
    w = grid.window_of(30)
    next_w = grid.window_of(60)
    assert next_w.k_lo == w.k_hi + 1 == 60
    # 29 observed steps at 7.5 kW plus one predicted step at 7.5 kW.
    assert expected_average(w, 59, 7.5, np.full(1, 7.5)) == pytest.approx(7.5)


@given(st.integers(min_value=0, max_value=8639))
def test_window_contains_step(k):
    w = grid.window_of(k)
    assert w.k_lo <= k <= w.k_hi
    assert grid.window_of(w.k_lo) == grid.window_of(w.k_hi) == w
    assert w.slot == k // grid.steps_per_slot
    assert w.k_hi - w.k_lo == 29
