"""Index arithmetic between the 5-minute dispatch grid and the 10-second control grid.

A day of operation is the half-open interval [00:00, 24:00) UTC. Slot i covers
[300*i, 300*(i+1)) seconds, step k covers [10*k, 10*(k+1)) seconds; both indices
are zero-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

SLOT_SECONDS = 300.0
STEP_SECONDS = 10.0
STEPS_PER_SLOT = 30
N_SLOTS = 288


@dataclass(frozen=True)
class SlotWindow:
    """Step-index range [k_lo, k_hi] covered by one 5-minute slot."""

    k_lo: int
    k_hi: int
    slot: int


@dataclass(frozen=True)
class TimeGrid:
    """N_SLOTS slots of STEPS_PER_SLOT steps, or a stretch of slots counted from its start."""

    n_slots: int = N_SLOTS
    n_steps: int = N_SLOTS * STEPS_PER_SLOT
    steps_per_slot: ClassVar[int] = STEPS_PER_SLOT

    def __post_init__(self):
        if self.n_steps != self.n_slots * self.steps_per_slot:
            raise ValueError("n_steps must equal n_slots * steps_per_slot")

    def window_of(self, k: int) -> SlotWindow:
        """First/last step indices of the 5-minute slot containing step k."""
        if not 0 <= k < self.n_steps:
            raise IndexError(f"step index {k} outside [0, {self.n_steps})")
        slot = k // self.steps_per_slot
        k_lo = slot * self.steps_per_slot
        return SlotWindow(k_lo=k_lo, k_hi=k_lo + self.steps_per_slot - 1, slot=slot)


DEFAULT_GRID = TimeGrid()
