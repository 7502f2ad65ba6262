"""Job migration via whole-machine compaction.

BG/L can move a running job by checkpointing it and restarting it on a
different partition (§3.2).  The engine invokes compaction when the
queue head has enough free nodes in total but no free *partition* —
fragmentation that only migration can cure.

The compaction plan re-places every running job plus the head,
largest-first with minimal-MFP-loss placement, on a cleared scratch
machine.  Only if *everything* fits is the plan committed; otherwise the
machine is untouched.  The placed partitions are a pure function of the
machine dims and the descending size sequence (:func:`place_sizes`), so
the engine memoizes them per simulator (:class:`PlanMemo`) and only
zips the cached partitions back onto the current job ids.  Per the
paper's no-checkpoint baseline the move itself is free
(``migration_cost_s = 0``); a nonzero cost extends each moved job's
completion and is charged as lost work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocation.mfp import IndexCache
from repro.core.jobstate import JobState
from repro.geometry.coords import TorusDims
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus
from repro.obs import metrics as obs_metrics


@dataclass(frozen=True, slots=True)
class CompactionPlan:
    """A verified full re-placement: job id → new partition."""

    placements: tuple[tuple[int, Partition], ...]
    moved_job_ids: tuple[int, ...]

    def summary(self) -> dict:
        """JSON-serialisable digest for the decision trace."""
        return {
            "moved_jobs": [int(j) for j in self.moved_job_ids],
            "n_placements": len(self.placements),
            "placements": [
                {
                    "job": int(job_id),
                    "base": [int(x) for x in part.base],
                    "shape": [int(x) for x in part.shape],
                }
                for job_id, part in self.placements
            ],
        }


#: Entries one :class:`PlanMemo` holds; past the cap it answers misses
#: without storing them, so a pathological run cannot grow it unbounded.
PLAN_MEMO_CAP = 1024

#: Lookup default telling a memo miss from a memoized ``None`` (no full
#: placement exists).
_MISSING = object()


def place_sizes(
    dims: TorusDims, sizes: tuple[int, ...]
) -> tuple[Partition, ...] | None:
    """Greedy MFP placement of ``sizes``, in order, on an empty machine.

    Each size takes its first minimal-``L_MFP`` candidate on the machine
    the earlier sizes left behind.  The placement reads only the
    occupancy grid, never the owner ids, so the result is a pure
    function of ``(dims, sizes)`` — the property :class:`PlanMemo`
    caches on.  Returns None as soon as one size has no free partition.
    """
    scratch = Torus(dims)
    cache = IndexCache(scratch)
    placed: list[Partition] = []
    for slot, size in enumerate(sizes):
        # First-occurrence argmin == the old strict-`<` keep-first walk.
        batch, losses = cache.get().batch_mfp_losses(size)
        if not len(batch):
            return None
        best = batch.partition(int(np.argmin(losses)))
        scratch.allocate(slot, best)
        placed.append(best)
    return tuple(placed)


class PlanMemo:
    """Per-simulator memo of :func:`place_sizes`, capped at
    :data:`PLAN_MEMO_CAP` entries.

    Congested runs ask for a few thousand plans but only for a few dozen
    distinct size sequences, so almost every plan is a lookup.  Failed
    placements are memoized too; they are the common outcome.
    """

    __slots__ = ("_plans",)

    def __init__(self) -> None:
        self._plans: dict[tuple, tuple[Partition, ...] | None] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def place(
        self, dims: TorusDims, sizes: tuple[int, ...]
    ) -> tuple[Partition, ...] | None:
        """:func:`place_sizes`, answered from the memo when possible."""
        key = (dims, sizes)
        placed = self._plans.get(key, _MISSING)
        registry = obs_metrics.ACTIVE
        if placed is not _MISSING:
            if registry is not None:
                registry.counter("migration.plan_memo.hit").inc()
            return placed
        if registry is not None:
            registry.counter("migration.plan_memo.miss").inc()
        placed = place_sizes(dims, sizes)
        if len(self._plans) < PLAN_MEMO_CAP:
            self._plans[key] = placed
        return placed


def plan_compaction(
    torus: Torus,
    running: list[JobState],
    head: JobState,
    *,
    memo: PlanMemo | None = None,
) -> CompactionPlan | None:
    """Try to re-place all running jobs plus ``head`` on an empty machine.

    Jobs are placed largest-first (ties: earlier arrival first) with the
    MFP heuristic.  Returns None when no full placement is found — the
    greedy planner is not exhaustive, so rare feasible packings may be
    missed; the engine simply leaves the head waiting then.  The
    partitions depend only on the machine and the size sequence, so a
    ``memo`` answers repeated sequences without re-placing them.
    """
    todo = sorted(
        [js for js in running if js.running] + [head],
        key=lambda js: (-js.size, js.job.arrival, js.job_id),
    )
    sizes = tuple(js.size for js in todo)
    if memo is None:
        placed = place_sizes(torus.dims, sizes)
    else:
        placed = memo.place(torus.dims, sizes)
    if placed is None:
        return None
    placements = tuple(zip((js.job_id for js in todo), placed))
    # Canonical comparison: a full-axis-span partition re-placed under a
    # different base is the same node set — not a move, and must not be
    # charged migration cost.
    moved = tuple(
        job_id
        for job_id, part in placements
        if job_id != head.job_id
        and torus.allocation_of(job_id).canonical(torus.dims)
        != part.canonical(torus.dims)
    )
    return CompactionPlan(placements, moved)


def apply_compaction(torus: Torus, plan: CompactionPlan, head_id: int) -> None:
    """Commit a plan: every running job moves to its planned partition.

    The head's partition is *not* allocated here — the engine dispatches
    the head through its normal path so accounting stays in one place.
    """
    for job_id in list(dict(torus.allocations())):
        torus.release(job_id)
    for job_id, partition in plan.placements:
        if job_id != head_id:
            torus.allocate(job_id, partition)


def head_partition(plan: CompactionPlan, head_id: int) -> Partition:
    """The partition the plan reserved for the head job."""
    for job_id, partition in plan.placements:
        if job_id == head_id:
            return partition
    raise LookupError(f"plan has no placement for head job {head_id}")
