"""Index arithmetic between the 5-minute dispatch grid and the 10-second control grid.

A day of operation is the half-open interval [00:00, 24:00) UTC. Slot i covers
[300*i, 300*(i+1)) seconds, step k covers [10*k, 10*(k+1)) seconds; both indices
are zero-based, so step k lies in slot k // STEPS_PER_SLOT. A run covers its
plan's slots, whole or a stretch of them; a :class:`TimeGrid` only states a
stretch's length, which :func:`sim.run_day` checks against the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

SLOT_SECONDS = 300.0
STEP_SECONDS = 10.0
STEPS_PER_SLOT = 30
N_SLOTS = 288


@dataclass(frozen=True)
class TimeGrid:
    """N_SLOTS slots of STEPS_PER_SLOT steps, or a stretch of slots counted from its start."""

    n_slots: int = N_SLOTS
    n_steps: int = N_SLOTS * STEPS_PER_SLOT

    def __post_init__(self):
        if self.n_steps != self.n_slots * STEPS_PER_SLOT:
            raise ValueError("n_steps must equal n_slots * STEPS_PER_SLOT")
