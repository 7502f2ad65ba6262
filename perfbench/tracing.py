"""Outside-in per-layer tracing for the traced benchmark run.

The program is not instrumented for this: the traced run replaces
functions and methods with timing wrappers where the program looks
them up (a module attribute, or a method on its class), before any
simulator, server or worker pool exists.  A wrapped call is a span;
its self time is its duration minus the time of wrapped calls inside
it, so self times of all layers plus the unwrapped residual add up to
the traced wall time.

A target that no longer exists (renamed, moved, removed) is reported as
an absent layer rather than failing the run: the benchmark outlives the
code it measures.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter
from pathlib import Path

#: Raw spans kept per process; aggregates cover every call regardless.
SPAN_CAP = 50_000
#: Spans a sweep worker rewrites after each cell.
WORKER_SPAN_LIMIT = 2_000


class Tracer:
    """Span stack, per-layer aggregates and counters of one process."""

    def __init__(self, span_dir: Path | None = None) -> None:
        self.span_dir = span_dir
        self.absent: list[str] = []
        self._in_backfill = False
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple[str, str, float, float]] = []
        self._stack: list[list] = []  # [name, child_s]
        self._clear()

    def _clear(self) -> None:
        #: layer -> [calls, total_s, self_s]
        self.layers: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.keys: set = set()
        self.depths: list[int] = []

    def snapshot(self) -> dict:
        """This process's aggregates, JSON-ready."""
        return {
            "layers": {k: list(v) for k, v in self.layers.items()},
            "counts": dict(self.counts),
            "keys": [[list(sizes), head] for sizes, head in self.keys],
            "depths": list(self.depths),
        }

    def take(self) -> dict:
        """Snapshot the aggregates and start a fresh window (spans are
        kept until :meth:`write_spans`)."""
        snap = self.snapshot()
        self._clear()
        return snap

    def write_spans(self, path: Path, limit: int = SPAN_CAP) -> None:
        """Write this process's aggregates and raw spans as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {"pid": os.getpid(), **self.snapshot(), "spans": self.spans[:limit]}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data), encoding="utf-8")
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    def _span(self, fn, name, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:  # first call in a forked worker
                tracer._reset()
            stack = tracer._stack
            if before is not None:
                tracer._hook(name, before, stack, args)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                stat = tracer.layers.get(name)
                if stat is None:
                    stat = tracer.layers[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (name, parent[0] if parent else "", start, end)
                    )
            if after is not None:
                tracer._hook(name, after, result, args)
            return result

        return wrapper

    def _counter(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts[name] += 1
            if after is not None:
                tracer._hook(name, after, result, args)
            return result

        return wrapper

    def _hook(self, name, hook, *args) -> None:
        """Run a counting hook; one that no longer fits the program (say,
        a changed signature) marks its layer's details absent instead of
        failing the run."""
        try:
            hook(*args)
        except Exception as exc:  # the run must go on; the gap is reported
            note = f"{name} details ({type(exc).__name__}: {exc})"
            if note not in self.absent:
                self.absent.append(note)

    def patch(self, target: str, attr: str, name: str, *, count_only=False,
              before=None, after=None) -> bool:
        """Wrap ``attr`` of ``target`` (``"pkg.module"`` or
        ``"pkg.module:Class"``); an unresolvable target marks ``name``
        absent."""
        module_name, _, cls_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{name} ({target}.{attr})")
            return False
        if not callable(original):
            self.absent.append(f"{name} ({target}.{attr})")
            return False
        if count_only:
            wrapped = self._counter(original, name, after)
        else:
            wrapped = self._span(original, name, before, after)
        setattr(owner, attr, wrapped)
        return True


# ----------------------------------------------------------------------
# layer installers
# ----------------------------------------------------------------------

def install_sim_layers(tracer: Tracer) -> None:
    """Simulator layers, patched on classes and modules so they cover
    every simulator in the process (and in workers forked later)."""

    def plan_after(plan, args):
        torus, running, head = args
        tracer.counts["migration.plan.found"] += plan is not None
        sizes = tuple(sorted(js.size for js in running if js.running))
        tracer.keys.add((sizes, head.size))

    def choose_before(stack, args):
        if stack and stack[-1][0] == "backfill.scan":
            tracer.counts["policy.choose.backfill_attempts"] += 1
            tracer._in_backfill = True
        else:
            tracer._in_backfill = False

    def choose_after(partition, args):
        if tracer._in_backfill and partition is not None:
            tracer.counts["policy.choose.placed"] += 1

    def step_before(stack, args):
        tracer.depths.append(len(args[0].wait))

    def batch_after(batch, args):
        tracer.counts["events.count"] += len(batch)

    sim = "repro.core.simulator"
    tracer.patch(sim, "plan_compaction", "migration.plan", after=plan_after)
    tracer.patch(sim, "apply_compaction", "migration.apply")
    tracer.patch("repro.core.policies.balancing:BalancingPolicy",
                 "choose_partition", "policy.choose",
                 before=choose_before, after=choose_after)
    tracer.patch(f"{sim}:Simulator", "_try_backfill", "backfill.scan")
    tracer.patch("repro.checkpoint.model:CheckpointModel", "wall_duration",
                 "checkpoint.wall_duration", count_only=True)
    predictor = "repro.prediction.balancing:BalancingPredictor"
    for attr in ("begin_pass", "partition_failure_probabilities",
                 "partition_failure_probability"):
        tracer.patch(predictor, attr, "prediction")
    tracer.patch("repro.allocation.mfp:IndexCache", "get", "index.get")
    tracer.patch("repro.allocation.mfp:PlacementIndex", "batch_mfp_losses",
                 "index.losses")
    tracer.patch("repro.core.backfill:ShadowTimeEngine", "shadow_time", "shadow")
    tracer.patch(f"{sim}:Simulator", "_step_batch", "events", before=step_before)
    tracer.patch("repro.core.events:EventQueue", "pop_batch", "events.pop",
                 count_only=True, after=batch_after)
    tracer.patch("repro.geometry.torus:Torus", "allocate", "torus.allocate",
                 count_only=True)
    tracer.patch("repro.geometry.torus:Torus", "release", "torus.release",
                 count_only=True)
    tracer.patch(f"{sim}:Simulator", "_report", "report")
    # Set-up steps, wherever the program performs them.
    tracer.patch("repro.api:SimulationSetup", "build_workload", "setup.workload")
    tracer.patch("repro.api:SimulationSetup", "build_failures", "setup.failures")
    tracer.patch("repro.experiments.sweep", "_workload_for", "setup.workload")
    tracer.patch("repro.experiments.sweep", "_failures_for", "setup.failures")
    for module in ("repro.core.policies.registry", "repro.api",
                   "repro.experiments.sweep"):
        tracer.patch(module, "make_policy", "setup.policy")
    tracer.patch(f"{sim}:Simulator", "__init__", "setup.simulator")


def install_serve_layers(tracer: Tracer) -> None:
    """Service layers of the benchmark's server bootstrap."""
    tracer.patch("repro.serve.engine:ServeEngine", "handle", "serve.handle")
    tracer.patch("repro.serve.service", "decode_line", "serve.protocol.decode")
    tracer.patch("repro.serve.service", "encode", "serve.protocol.encode")
    tracer.patch("repro.serve.engine", "validate_request", "serve.protocol.validate")
    admission = "repro.serve.admission:FairShareAdmission"
    tracer.patch(admission, "offer", "serve.admission.offer")
    tracer.patch(admission, "release_next", "serve.admission.release")
    tracer.patch("repro.core.simulator:Simulator", "pump", "serve.pump")


def install_sweep_layers(tracer: Tracer, root_pid: int) -> None:
    """Sweep-engine layers; must run before the warm pool forks.

    Workers dump their aggregates to ``span_dir`` after every cell (a
    pool worker has no exit hook), and the parent merges the files.
    """

    def cell_after(report, args):
        for key in ("scheduler_passes", "backfills", "migrations", "job_kills"):
            tracer.counts[f"sim.{key}"] += getattr(report.counters, key)
        if os.getpid() != root_pid and tracer.span_dir is not None:
            tracer.write_spans(tracer.span_dir / f"worker-{os.getpid()}.json",
                               limit=WORKER_SPAN_LIMIT)

    def chunk_after(size, args):
        tracer.counts["sweep.chunk_size"] = size

    def arena_after(arena, args):
        tracer.counts["sweep.arena_bytes"] += arena.handle.size

    tracer.patch("repro.experiments.sweep", "simulate_cell", "sweep.cell",
                 after=cell_after)
    tracer.patch("repro.experiments.pool", "adaptive_chunk_size",
                 "sweep.chunking", count_only=True, after=chunk_after)
    tracer.patch("repro.experiments.pool", "build_seed_arena", "sweep.arena",
                 after=arena_after)


def merge(snapshots) -> dict:
    """Sum aggregates of several processes."""
    out = {"layers": {}, "counts": Counter(), "depths": []}
    keys = set()
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["layers"].items():
            stat = out["layers"].setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += self_s
        out["counts"].update(snap["counts"])
        keys.update((tuple(sizes), head) for sizes, head in snap["keys"])
        out["depths"].extend(snap["depths"])
    out["counts"] = dict(out["counts"])
    out["distinct_keys"] = len(keys)
    return out
