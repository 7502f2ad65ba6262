"""Memoized compaction plans equal freshly placed ones.

A plan's partitions depend only on the machine dims and the descending
size sequence of the running jobs plus the head; :class:`PlanMemo`
caches them and :func:`plan_compaction` zips them back onto the current
job ids.  These properties compare the memoized path with an unmemoized
plan on random running sets, including full-axis-span partitions whose
base differs from the canonical one (same node set, so not a move).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jobstate import JobState
from repro.core import migration
from repro.core.migration import PlanMemo, place_sizes, plan_compaction
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.partition import Partition
from repro.geometry.shapes import shapes_for_size
from repro.geometry.torus import Torus
from repro.testing import random_torus
from repro.workloads.job import Job

D = BGL_SUPERNODE_DIMS
DIMS = (D, TorusDims(2, 2, 4), TorusDims(4, 2, 2))


def running_from(torus: Torus, rng: np.random.Generator) -> list[JobState]:
    """One running job per allocation; arrivals drawn from few values so
    same-size ties are broken by arrival and by id."""
    states = []
    for job_id, part in sorted(torus.allocations()):
        s = JobState(Job(job_id, float(rng.integers(0, 3)), part.size, 50.0, 50.0))
        s.dispatch(0.0, 50.0)
        states.append(s)
    return states


def head_of(size: int) -> JobState:
    return JobState(Job(10_000, 0.0, size, 50.0, 50.0))


def placeable_sizes(dims: TorusDims) -> list[int]:
    return [n for n in range(1, dims.volume + 1) if shapes_for_size(n, dims)]


class TestMemoEqualsFresh:
    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.sampled_from(DIMS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        attempts=st.integers(min_value=0, max_value=16),
        head_pick=st.integers(min_value=0, max_value=10**6),
    )
    def test_memoized_plan_equals_fresh(self, dims, seed, attempts, head_pick):
        rng = np.random.default_rng(seed)
        torus = random_torus(dims, rng, attempts)
        running = running_from(torus, rng)
        sizes = placeable_sizes(dims)
        head = head_of(sizes[head_pick % len(sizes)])
        memo = PlanMemo()
        plan = plan_compaction(torus, running, head, memo=memo)
        assert plan == plan_compaction(torus, running, head)
        if plan is not None:
            # Each job gets a partition of its own size, and the
            # partitions fit together on one machine.
            size_of = {s.job_id: s.size for s in running + [head]}
            assert sorted(j for j, _ in plan.placements) == sorted(size_of)
            scratch = Torus(dims)
            for job_id, part in plan.placements:
                assert part.size == size_of[job_id]
                scratch.allocate(job_id, part)
        # Same size sequence, jobs relabelled: the memo hit is zipped onto
        # other ids (and so other moved sets) and must still equal a
        # fresh plan.
        for s in running:
            s.job = Job(s.job_id, float(rng.integers(0, 3)), s.size, 50.0, 50.0)
        assert plan_compaction(torus, running, head, memo=memo) == plan_compaction(
            torus, running, head
        )
        assert len(memo) == 1

    def test_full_span_alias_is_not_a_move(self):
        """A 4x4x1 slab based at x=2 is the same node set as the planned
        slab at x=0: memo hit or not, it is not reported as moved."""
        torus = Torus(D)
        slab = JobState(Job(1, 0.0, 16, 50.0, 50.0))
        slab.dispatch(0.0, 50.0)
        torus.allocate(1, Partition((2, 1, 0), (4, 4, 1)))
        head = head_of(16)
        memo = PlanMemo()
        for _ in range(2):
            plan = plan_compaction(torus, [slab], head, memo=memo)
            assert plan == plan_compaction(torus, [slab], head)
            assert plan is not None and plan.moved_job_ids == ()

    def test_failed_plans_are_memoized(self):
        torus = Torus(D)
        full = JobState(Job(1, 0.0, 128, 50.0, 50.0))
        full.dispatch(0.0, 50.0)
        torus.allocate(1, Partition((0, 0, 0), (4, 4, 8)))
        memo = PlanMemo()
        assert plan_compaction(torus, [full], head_of(8), memo=memo) is None
        assert len(memo) == 1
        assert plan_compaction(torus, [full], head_of(8), memo=memo) is None


class TestMemoCap:
    def test_memo_stops_growing_at_cap(self, monkeypatch):
        monkeypatch.setattr(migration, "PLAN_MEMO_CAP", 2)
        torus = Torus(D)
        memo = PlanMemo()
        for size in (1, 2, 4, 8, 16):
            head = head_of(size)
            assert plan_compaction(torus, [], head, memo=memo) == plan_compaction(
                torus, [], head
            )
            assert len(memo) == min(2, [1, 2, 4, 8, 16].index(size) + 1)
        # Keys stored before the cap was reached are still answered.
        assert memo.place(D, (1,)) == place_sizes(D, (1,))

    def test_zero_cap_never_stores(self, monkeypatch):
        monkeypatch.setattr(migration, "PLAN_MEMO_CAP", 0)
        memo = PlanMemo()
        assert memo.place(D, (8, 4)) == place_sizes(D, (8, 4))
        assert len(memo) == 0
