"""Scheduler-pass oracles: the flat backfill scan and unmemoized planning.

The production scheduler skips every waiting job whose size has no free
partition (:meth:`repro.core.queue.WaitQueue.first_fitting`) and answers
repeated compaction plans from a per-simulator memo
(:class:`repro.core.migration.PlanMemo`).  Both are exact shortcuts of a
simpler walk, kept here as the reference the differential suites compare
against:

* :func:`flat_first_fitting` — walk the whole queue in FCFS order and
  return the first job that passes both tests;
* :class:`FlatScanSimulator` — a :class:`~repro.core.simulator.Simulator`
  whose backfill asks the policy about every admitted job in FCFS order
  (the paper-literal scan) and whose compaction plans are all placed
  afresh.  Its reports must equal the production simulator's byte for
  byte; its traces are schema-1 shaped (one zero-candidate record per
  job the scan passes over).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.allocation.mfp import PlacementIndex
from repro.core.config import BackfillMode
from repro.core.jobstate import JobState
from repro.core.queue import WaitQueue
from repro.core.simulator import _SHADOW_EPS, Simulator
from repro.errors import SimulationError


def flat_first_fitting(
    wait: WaitQueue,
    skip: JobState,
    fits: Callable[[int], bool],
    admits: Callable[[JobState], bool] | None = None,
) -> JobState | None:
    """Reference for :meth:`WaitQueue.first_fitting`: a full FCFS walk."""
    for state in wait:
        if state is skip:
            continue
        if (admits is None or admits(state)) and fits(state.size):
            return state
    return None


class FlatScanSimulator(Simulator):
    """The simulator with the flat backfill scan and no plan memo."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # No memo: plan_compaction places every plan afresh.
        self._plan_memo = None

    def _try_backfill(
        self, index: PlacementIndex, head: JobState, now: float
    ) -> bool:
        if self.config.backfill is BackfillMode.EASY:
            running = [self.states[i] for i in self._running_ids]
            shadow = self._shadow.shadow_time(running, head.size, now)
            if math.isinf(shadow):
                raise SimulationError(
                    f"job {head.job_id} (size {head.size}) cannot fit even "
                    f"an empty machine"
                )
        else:
            shadow = math.inf
        for state in list(self.wait)[1:]:
            est_wall = self._estimated_wall(state)
            if now + est_wall > shadow + _SHADOW_EPS:
                continue
            partition = self.policy.choose_partition(index, state, now)
            if partition is not None:
                if self.recorder.enabled:
                    self.recorder.emit(
                        "backfill", now, job=state.job_id,
                        head_job=head.job_id, shadow=shadow, est_wall=est_wall,
                    )
                self._dispatch(state, partition, now, via="backfill")
                self.counters.backfills += 1
                return True
        return False
