"""EASY-backfilling shadow-time computation.

When the queue head cannot start, EASY backfilling grants it a
*reservation*: the earliest time a partition of its size becomes free
assuming running jobs finish at their estimated times.  Later jobs may
start out of order only if their estimated finish does not exceed that
shadow time, so they can never delay the head (under truthful
estimates).

On a torus, "enough nodes free" is not "a partition free" — the shadow
time must honour the rectangular-partition constraint.  We therefore
replay hypothetical releases on a scratch grid in estimated-finish order
and ask the real partition machinery after each release.

:class:`ShadowTimeEngine` is the production path: it owns one reusable
scratch occupancy array per torus, rebuilds only the placement windows of
the head's shapes after each hypothetical release (a fresh
:class:`~repro.allocation.mfp.PlacementIndex` per release builds shape
tables and cache dicts the query never touches), and memoises the
release-replay answer per ``(torus.version, head_size)`` so scheduler
passes that did not mutate the machine — arrival batches, repeated
same-size heads — skip the replay entirely.  The answer is a pure
function of machine state and running estimates, both of which only
change together with a ``torus.version`` bump, so the cache is
semantics-preserving.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.allocation.mfp import IndexCache, PlacementIndex
from repro.core.jobstate import JobState
from repro.geometry.shapes import shapes_for_size
from repro.obs import metrics as obs_metrics
from repro.geometry.torus import (
    FREE,
    Torus,
    window_sums_from_integral,
    wrap_pad_integral,
)


def shadow_time_naive(
    torus: Torus,
    running: Iterable[JobState],
    head_size: int,
    now: float,
) -> float:
    """Reference shadow-time: full grid copy + fresh index per release.

    Kept as the independently-simple oracle the engine is cross-validated
    (and benchmarked) against; production code uses
    :class:`ShadowTimeEngine` / :func:`shadow_time`.
    """
    scratch = Torus(torus.dims)
    scratch.grid[...] = torus.grid
    if PlacementIndex(scratch).has_candidate(head_size):
        return now
    ordered = sorted(
        (js for js in running if js.running),
        key=lambda js: (js.est_finish, js.job_id),
    )
    for js in ordered:
        partition = torus.allocation_of(js.job_id)
        scratch.grid[np.ix_(*partition.axis_ranges(torus.dims))] = FREE
        if PlacementIndex(scratch).has_candidate(head_size):
            return max(now, js.est_finish)
    return math.inf


class ShadowTimeEngine:
    """Incremental, cached shadow-time queries against one torus.

    The engine never mutates the torus it watches; it mirrors occupancy
    into a reusable 0/1 scratch array and replays hypothetical releases
    there.  Cache entries are keyed on ``(torus.version, head_size)`` and
    store the *release time* at which the head first fits (``-inf`` when
    it already fits, ``+inf`` when even a drained machine has no box), so
    one entry serves queries at any ``now``.

    The cache contract requires that the running set and its estimated
    finishes change only in lockstep with torus mutations — true in the
    simulator, where every dispatch/finish/kill/migration both edits
    ``est_finish`` and bumps ``torus.version`` before the next query.
    """

    __slots__ = ("torus", "_busy", "_fit_times", "_cache_version", "_index_cache")

    def __init__(self, torus: Torus, index_cache: IndexCache | None = None) -> None:
        self.torus = torus
        self._busy = np.empty(torus.dims.as_tuple(), dtype=np.int64)
        self._fit_times: dict[int, float] = {}
        self._cache_version = -1
        # Optional shared placement index (the simulator passes its own):
        # the "fits right now" probe then reuses the scheduler pass's
        # index instead of building throwaway integral images.
        self._index_cache = index_cache

    def shadow_time(
        self, running: Iterable[JobState], head_size: int, now: float
    ) -> float:
        """Earliest estimated time a free partition of ``head_size`` exists."""
        version = self.torus.version
        if version != self._cache_version:
            self._fit_times.clear()
            self._cache_version = version
        t_fit = self._fit_times.get(head_size)
        registry = obs_metrics.ACTIVE
        if registry is not None:
            registry.counter("shadow.queries").inc()
            if t_fit is not None:
                registry.counter("shadow.cache_hits").inc()
        if t_fit is None:
            if registry is None:
                t_fit = self._first_fit_time(running, head_size)
            else:
                with registry.timer("shadow.first_fit"):
                    t_fit = self._first_fit_time(running, head_size)
            self._fit_times[head_size] = t_fit
        return max(now, t_fit)

    # ------------------------------------------------------------------
    def _first_fit_time(self, running: Iterable[JobState], head_size: int) -> float:
        """Release-replay: the est-finish at which ``head_size`` first fits.

        ``-inf`` when a free box already exists, ``+inf`` when no shape of
        ``head_size`` fits even a drained machine.
        """
        torus = self.torus
        dims = torus.dims
        shapes = shapes_for_size(head_size, dims)
        if not shapes:
            return math.inf
        dims_shape = dims.as_tuple()
        busy = self._busy
        busy[...] = torus.grid != FREE
        free_now = dims.volume - int(busy.sum())
        if free_now >= head_size:
            if self._index_cache is not None:
                # Same answer as ``_has_free_box`` on the mirrored grid —
                # ``has_candidate`` asks the identical "any all-free
                # wrap-around placement of any shape of this size"
                # question — but against the scheduler pass's index.
                fits = self._index_cache.get().has_candidate(head_size)
            else:
                fits = _has_free_box(busy, dims_shape, shapes)
            if fits:
                return -math.inf
        ordered = sorted(
            (js for js in running if js.running),
            key=lambda js: (js.est_finish, js.job_id),
        )
        flat_busy = busy.reshape(-1)
        for js in ordered:
            partition = torus.allocation_of(js.job_id)
            flat_busy[torus.box_ids(partition)] = 0
            free_now += partition.size
            # No box of head_size nodes can exist with fewer free nodes;
            # skip the window rebuild until releases reach that mass.
            if free_now >= head_size and _has_free_box(busy, dims_shape, shapes):
                return js.est_finish
        return math.inf


def _has_free_box(busy: np.ndarray, dims_shape, shapes) -> bool:
    """True when any of ``shapes`` has an all-free wrap-around placement."""
    integral = wrap_pad_integral(busy)
    for shape in shapes:
        sums = window_sums_from_integral(integral, dims_shape, shape)
        if not sums.all():
            return True
    return False


def shadow_time(
    torus: Torus,
    running: Iterable[JobState],
    head_size: int,
    now: float,
) -> float:
    """Earliest estimated time a free partition of ``head_size`` exists.

    Returns ``now`` when one already exists, ``math.inf`` when even a
    fully drained machine has none (an unschedulable size — the engine
    treats that as a hard error upstream).

    One-shot convenience over :class:`ShadowTimeEngine`; the simulator
    keeps a long-lived engine instead so repeated queries share the
    scratch grid and the per-version cache.
    """
    return ShadowTimeEngine(torus).shadow_time(running, head_size, now)
