"""Gate the incremental/event-batched simulator core's speedup.

Four checks against one fresh ``bench_core`` result file:

1. **Speedup vs the pre-incremental baseline** — the fresh
   ``sim_trace_off`` rate, normalized by the same file's
   ``placement_index_build`` rate (the within-file normalizer the other
   perf gates use; it cancels machine speed and harness scale), must be
   at least ``--min-speedup`` (default 5×) the recorded
   *pre-optimization* normalized rate.  That reference is pinned below
   rather than read from ``BENCH_core.json``: the committed file is
   regenerated whenever the core gets faster, while this gate must keep
   measuring against the state of the tree before the incremental index
   and event batching landed.
2. **Mode ratio** — within the fresh file, ``sim_event_batched`` must
   be at least ``--min-ratio`` (default 3×) ``sim_event_unbatched``
   (the per-event rebuild oracle).  Deliberately looser than check 1:
   single-simulation benches at CI's reduced scale sit near the noise
   floor, and check 1 is the real gate.
3. **Non-regression** — the normalized ``sim_event_batched`` rate must
   not fall more than ``--tolerance`` below the committed baseline's,
   so the win cannot silently erode in later PRs.
4. **Growth** — within the fresh file, the wall time of the 4000-job
   congested simulation (``sim_scale_4k``) must be at most
   :data:`MAX_GROWTH` (3.5) times that of the 2000-job one
   (``sim_scale_2k``).  Twice the jobs at linear cost is 2×; a pass
   whose cost grows with the queue length made it 4.1×.  A ratio needs
   no normalizer: both runs share the machine.

Usage::

    python benchmarks/perf/check_sim_speedup.py \
        --fresh BENCH_ci.json [--baseline BENCH_core.json] \
        [--min-speedup 5.0] [--min-ratio 3.0] [--tolerance 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

BATCHED_BENCH = "sim_event_batched"
ORACLE_BENCH = "sim_event_unbatched"
TRACKED_BENCH = "sim_trace_off"
#: Within-file normalizer cancelling machine speed and harness scale.
REFERENCE_BENCH = "placement_index_build"
#: The scaling pair: whole congested simulations of 2000 and 4000 jobs.
SCALE_SMALL_BENCH = "sim_scale_2k"
SCALE_LARGE_BENCH = "sim_scale_4k"
#: Allowed wall(4k) / wall(2k): linear cost gives 2.0, a pass whose cost
#: grows with the queue length gave 4.1.
MAX_GROWTH = 3.5

#: ``sim_trace_off / placement_index_build`` from the last committed
#: BENCH_core.json *before* the incremental index + event batching
#: (rev 1e68810: 3.703 sims/s against 41970.419 builds/s).  Check 1
#: requires the fresh normalized rate to beat this by --min-speedup.
PRE_INCREMENTAL_NORM = 3.703 / 41970.419


def load_rates(path: Path, field: str = "cells_per_s") -> dict[str, float]:
    """Map bench name -> ``field`` (default cells_per_s) from one
    bench_core result file."""
    try:
        records = json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: bench result file not found: {path}")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")
    rates: dict[str, float] = {}
    for record in records:
        rate = record.get(field)
        if isinstance(rate, (int, float)) and rate > 0:
            rates[record["bench"]] = float(rate)
    return rates


def require(rates: dict[str, float], bench: str, path: Path) -> float:
    if bench not in rates:
        sys.exit(
            f"error: {path} has no {bench!r} benchmark — regenerate it "
            f"with a bench_core that measures the simulator-core modes"
        )
    return rates[bench]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="bench_core output from the run under test",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_core.json",
        help="recorded baseline (default: committed BENCH_core.json)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required normalized sim_trace_off speedup over the pinned "
        "pre-incremental reference (default 5.0)",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=3.0,
        help="required batched/unbatched ratio within the fresh file "
        "(default 3.0)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="maximum allowed normalized batched-rate regression vs the "
        "baseline (default 0.2 = 20%%)",
    )
    args = parser.parse_args(argv)

    fresh = load_rates(args.fresh)
    reference = require(fresh, REFERENCE_BENCH, args.fresh)

    # 1. Normalized speedup over the pre-incremental tree.
    fresh_norm = require(fresh, TRACKED_BENCH, args.fresh) / reference
    speedup = fresh_norm / PRE_INCREMENTAL_NORM
    print(
        f"normalized {TRACKED_BENCH} ({args.fresh}): {fresh_norm:.6g} "
        f"= {speedup:.2f}x the pre-incremental baseline "
        f"({PRE_INCREMENTAL_NORM:.6g})"
    )
    if speedup < args.min_speedup:
        print(
            f"FAIL: simulator core is only {speedup:.2f}x the "
            f"pre-incremental baseline (required {args.min_speedup:.2f}x)"
        )
        return 1
    print(f"OK: speedup >= {args.min_speedup:.2f}x")

    # 2. Batched vs per-event-rebuild oracle, same process/fixture.
    ratio = require(fresh, BATCHED_BENCH, args.fresh) / require(
        fresh, ORACLE_BENCH, args.fresh
    )
    print(f"batched/unbatched sim ratio ({args.fresh}): {ratio:.2f}x")
    if ratio < args.min_ratio:
        print(
            f"FAIL: batched core is only {ratio:.2f}x the per-event "
            f"rebuild oracle (required {args.min_ratio:.2f}x)"
        )
        return 1
    print(f"OK: mode ratio >= {args.min_ratio:.2f}x")

    # 3. Non-regression of the batched path vs the committed baseline.
    baseline = load_rates(args.baseline)
    fresh_batched_norm = fresh[BATCHED_BENCH] / reference
    base_batched_norm = require(baseline, BATCHED_BENCH, args.baseline) / require(
        baseline, REFERENCE_BENCH, args.baseline
    )
    regression = (base_batched_norm - fresh_batched_norm) / base_batched_norm
    print(f"normalized batched rate ({BATCHED_BENCH} / {REFERENCE_BENCH}):")
    print(f"  baseline {args.baseline}: {base_batched_norm:.6g}")
    print(f"  fresh    {args.fresh}: {fresh_batched_norm:.6g}")
    print(
        f"  regression: {regression * 100:+.2f}% "
        f"(tolerance {args.tolerance * 100:.1f}%)"
    )
    if regression > args.tolerance:
        print(
            f"FAIL: normalized batched sim rate is {regression * 100:.2f}% "
            f"below the recorded baseline"
        )
        return 1
    print("OK: batched sim rate within tolerance of baseline")

    # 4. Growth of whole-simulation wall time with the job count.
    walls = load_rates(args.fresh, "wall_s")
    growth = require(walls, SCALE_LARGE_BENCH, args.fresh) / require(
        walls, SCALE_SMALL_BENCH, args.fresh
    )
    print(
        f"wall({SCALE_LARGE_BENCH}) / wall({SCALE_SMALL_BENCH}) "
        f"({args.fresh}): {growth:.2f}"
    )
    if growth > MAX_GROWTH:
        print(
            f"FAIL: doubling the jobs multiplied the wall time by "
            f"{growth:.2f} (allowed {MAX_GROWTH:.2f})"
        )
        return 1
    print(f"OK: growth <= {MAX_GROWTH:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
