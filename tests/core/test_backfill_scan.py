"""The size-bucketed backfill scan picks the flat scan's job.

:meth:`WaitQueue.first_fitting` visits only sizes that fit and stops
early inside each bucket; :func:`repro.testing.scheduling.flat_first_fitting`
walks the whole queue.  Both must return the same job on any queue,
under EASY (an admission test against a shadow time) and AGGRESSIVE (no
admission test) backfilling.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jobstate import MIN_ESTIMATE_S, JobState
from repro.core.queue import WaitQueue
from repro.testing.scheduling import flat_first_fitting
from repro.workloads.job import Job

SIZES = (1, 2, 4, 8, 16, 32)

job_specs = st.lists(
    st.tuples(
        st.sampled_from(SIZES),
        st.integers(min_value=0, max_value=6),        # arrival: many ties
        st.floats(min_value=1.0, max_value=500.0),    # estimate
    ),
    min_size=1,
    max_size=40,
)


def make_queue(specs, dropped=()) -> WaitQueue:
    wait = WaitQueue()
    states = []
    for job_id, (size, arrival, estimate) in enumerate(specs):
        state = JobState(Job(job_id, float(arrival), size, estimate, estimate))
        wait.push(state)
        states.append(state)
    for i in dropped:
        wait.discard(states[i % len(states)])
    return wait


def easy_admits(now: float, shadow: float):
    def admits(state: JobState) -> bool:
        return now + max(state.remaining_estimate, MIN_ESTIMATE_S) <= shadow
    return admits


class TestBucketedEqualsFlat:
    @settings(max_examples=300, deadline=None)
    @given(
        specs=job_specs,
        dropped=st.lists(st.integers(min_value=0, max_value=100), max_size=10),
        fitting=st.sets(st.sampled_from(SIZES)),
        shadow=st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=600.0)),
    )
    def test_same_pick(self, specs, dropped, fitting, shadow):
        wait = make_queue(specs, dropped)
        if not wait:
            return
        head = wait.head()
        admits = None if math.isinf(shadow) else easy_admits(0.0, shadow)
        examined = []

        def counting(state):
            examined.append(state)
            return admits is None or admits(state)

        pick = wait.first_fitting(head, fitting.__contains__, counting)
        assert pick is flat_first_fitting(wait, head, fitting.__contains__, admits)
        assert pick is not head
        # Sizes with no free partition are never looked at.
        assert all(s.size in fitting for s in examined)

    @settings(max_examples=100, deadline=None)
    @given(specs=job_specs, fitting=st.sets(st.sampled_from(SIZES)))
    def test_aggressive_needs_no_admission(self, specs, fitting):
        wait = make_queue(specs)
        head = wait.head()
        assert wait.first_fitting(head, fitting.__contains__) is flat_first_fitting(
            wait, head, fitting.__contains__
        )


class TestHeadInItsBucket:
    def test_head_first_in_only_fitting_bucket(self):
        """The head leads its own bucket; the pick is the job behind it,
        even though an earlier job of another size waits in front."""
        wait = make_queue([(8, 0, 10.0), (4, 1, 10.0), (8, 2, 10.0)])
        head = wait.head()
        assert head.job_id == 0
        pick = wait.first_fitting(head, {8}.__contains__)
        assert pick.job_id == 2
        assert pick is flat_first_fitting(wait, head, {8}.__contains__)

    def test_head_alone_gives_nothing(self):
        wait = make_queue([(8, 0, 10.0)])
        assert wait.first_fitting(wait.head(), {8}.__contains__) is None

    def test_same_arrival_ties_break_on_id(self):
        wait = make_queue([(2, 0, 10.0), (16, 3, 10.0), (4, 3, 10.0)])
        # Jobs 1 and 2 arrive together; id 1 comes first across buckets.
        pick = wait.first_fitting(wait.head(), {4, 16}.__contains__)
        assert pick.job_id == 1
