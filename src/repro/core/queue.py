"""FCFS wait queue.

Jobs are ordered by ``(arrival, job_id)`` — a killed job re-enters with
its *original* arrival time, so it returns to (or near) the head of the
queue rather than the tail, matching the paper's restart semantics.

Next to the flat order the queue keeps one FCFS-ordered bucket per job
size and a ``job_id → key`` map.  The buckets let the backfill scan
(:meth:`WaitQueue.first_fitting`) skip every job whose size has no free
partition without looking at it; the map makes status lookups O(log n).
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterator

from repro.errors import SimulationError
from repro.core.jobstate import JobState

_Key = tuple[float, int]


class WaitQueue:
    """Priority-ordered wait queue keyed by (arrival, job_id)."""

    __slots__ = ("_keys", "_jobs", "_requested", "_buckets", "_key_of")

    def __init__(self) -> None:
        self._keys: list[_Key] = []
        self._jobs: list[JobState] = []
        self._requested = 0
        #: size -> (keys, jobs), each FCFS-ordered like the flat lists.
        self._buckets: dict[int, tuple[list[_Key], list[JobState]]] = {}
        self._key_of: dict[int, _Key] = {}

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self) -> Iterator[JobState]:
        return iter(self._jobs)

    def __getitem__(self, i: int) -> JobState:
        return self._jobs[i]

    @property
    def requested_nodes(self) -> int:
        """Total nodes requested by waiting jobs — the ``q(t)`` of the
        unused-capacity integral."""
        return self._requested

    def push(self, state: JobState) -> None:
        """Insert preserving FCFS order; a job id already queued is
        rejected."""
        if state.job_id in self._key_of:
            raise SimulationError(f"job {state.job_id} already queued")
        key = (state.job.arrival, state.job_id)
        i = bisect.bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._jobs.insert(i, state)
        bucket = self._buckets.get(state.size)
        if bucket is None:
            bucket = self._buckets[state.size] = ([], [])
        keys, jobs = bucket
        j = bisect.bisect_left(keys, key)
        keys.insert(j, key)
        jobs.insert(j, state)
        self._key_of[state.job_id] = key
        self._requested += state.size

    def head(self) -> JobState:
        """The highest-priority waiting job."""
        if not self._jobs:
            raise SimulationError("head() on empty wait queue")
        return self._jobs[0]

    def remove(self, state: JobState) -> None:
        """Remove a specific job (it was just dispatched)."""
        if not self.discard(state):
            raise SimulationError(f"job {state.job_id} not in wait queue")

    def discard(self, state: JobState) -> bool:
        """Remove a job if present; returns whether it was queued.

        The cancellation path (an online client withdrawing a waiting
        job) cannot know whether the job is still queued or already
        dispatched, so absence is an answer rather than an error.
        """
        key = (state.job.arrival, state.job_id)
        if self._key_of.get(state.job_id) != key:
            return False
        del self._key_of[state.job_id]
        i = bisect.bisect_left(self._keys, key)
        del self._keys[i]
        del self._jobs[i]
        keys, jobs = self._buckets[state.size]
        j = bisect.bisect_left(keys, key)
        del keys[j]
        del jobs[j]
        if not keys:
            del self._buckets[state.size]
        self._requested -= state.size
        return True

    def find(self, job_id: int) -> JobState | None:
        """The queued state with this id, or ``None`` (one dict lookup
        plus one bisect)."""
        key = self._key_of.get(job_id)
        if key is None:
            return None
        return self._jobs[bisect.bisect_left(self._keys, key)]

    def first_fitting(
        self,
        skip: JobState,
        fits: Callable[[int], bool],
        admits: Callable[[JobState], bool] | None = None,
    ) -> JobState | None:
        """The FCFS-first job other than ``skip`` whose size ``fits`` and
        that ``admits`` accepts (``None`` admits every job).

        Equal to walking the flat order and returning the first such job,
        but sizes that do not fit are never looked at, and inside a
        bucket the walk stops at the first admitted job or at the best
        pick found so far in an earlier bucket.
        """
        best: JobState | None = None
        best_key: _Key | None = None
        for size, (keys, jobs) in self._buckets.items():
            if not fits(size):
                continue
            for key, state in zip(keys, jobs):
                if best_key is not None and key > best_key:
                    break
                if state is skip:
                    continue
                if admits is None or admits(state):
                    best, best_key = state, key
                    break
        return best
