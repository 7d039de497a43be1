import numpy as np
import pytest

from feederdispatch.mpc import expected_average
from feederdispatch.timegrid import N_SLOTS, STEPS_PER_SLOT, TimeGrid


def test_grid_consistency():
    grid = TimeGrid()
    assert (grid.n_slots, grid.n_steps) == (N_SLOTS, N_SLOTS * STEPS_PER_SLOT)
    assert TimeGrid(n_slots=2, n_steps=60).n_steps == 60
    with pytest.raises(ValueError):
        TimeGrid(n_slots=288, n_steps=8000)


def test_full_slot_constant_average():
    # 29 observed steps at 7.5 kW plus one predicted step at 7.5 kW.
    assert expected_average(29, 7.5, np.full(1, 7.5)) == pytest.approx(7.5)
