"""Shared pieces of the benchmark: scenarios, host probe, digests, stats.

Every workload runs one *fixed* scenario.  A simulation's cost depends
strongly on its scenario seed (on a 2-vCPU Xeon VM the congested SDSC
run takes between 4.5 and 15 s on seeds 0-6), so a ``--seed`` that re-drew the scenario would
measure the seed, not the code.  Instead ``--seed`` changes what the
program sees without changing its work: job identifiers are shifted by
``JOB_ID_STRIDE * seed``.  The schedule only ever orders jobs by
``(arrival, id)``, so the shifted run must produce the same report up to
the id shift; the output check undoes the shift and compares digests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: The checkout root: the benchmark is always started from it.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Where run records and trace span files go (ignored by git).
OUT_DIR = ROOT / ".perfbench"

#: Per-seed job-id shift; larger than any scenario's job count.
JOB_ID_STRIDE = 100_000

#: Reference duration of one host probe, used by the normalised form.
PROBE_REF_MS = 0.8


@dataclass(frozen=True)
class SimScenario:
    """Arguments of one :class:`repro.api.SimulationSetup`."""

    site: str
    n_jobs: int
    n_failures: int
    load_scale: float
    parameter: float = 0.1
    policy: str = "balancing"
    seed: int = 0

    def setup(self, profile: bool = False):
        from repro.api import SimulationSetup
        from repro.core.config import SimulationConfig

        return SimulationSetup(
            site=self.site,
            n_jobs=self.n_jobs,
            n_failures=self.n_failures,
            load_scale=self.load_scale,
            policy=self.policy,
            parameter=self.parameter,
            seed=self.seed,
            config=SimulationConfig(profile=profile),
        )


#: Failure kills keep the wait queue long: migration planning and the
#: backfill scan dominate.
CONGESTED = SimScenario("sdsc", 2000, 2000, 1.0)
#: The queue stays short: index upkeep, scoring, shadow time and event
#: handling carry the run; migration and backfill scans are rare.
LIGHT = SimScenario("llnl", 10_000, 1500, 0.7)
#: Replayed online through the TCP service.
SERVE = SimScenario("sdsc", 4000, 200, 1.0)

#: Batches per ``Simulator.pump`` slice, sized so each run has several
#: hundred slices (p98 then has at least ten slices beyond it).
SLICE_BATCHES = {"sim-sdsc-congested": 8, "sim-llnl-light": 24}
SIM_SCENARIOS = {"sim-sdsc-congested": CONGESTED, "sim-llnl-light": LIGHT}

#: The serve client: submits per round trip, tenants in rotation.
SERVE_CHUNK = 8
SERVE_TENANTS = ("t0", "t1", "t2")

#: The sweep: ``fig3(n_jobs=300, seeds=(0, 1), workers=2)``.
SWEEP_JOBS = 300
SWEEP_SEEDS = (0, 1)
SWEEP_WORKERS = 2

WORKLOADS = ("sim-sdsc-congested", "sim-llnl-light", "serve-tcp-sdsc", "sweep-fig3")


def id_shift(seed: int) -> int:
    return JOB_ID_STRIDE * seed


# ----------------------------------------------------------------------
# host-speed probe
# ----------------------------------------------------------------------

_PROBE_ARRAY = None


def probe() -> float:
    """A fixed slice of interpreter and NumPy work; returns its duration
    in ms.

    Run between timed slices, it tracks how fast the host is running
    this kind of code at that moment, independently of the program under
    test.
    """
    global _PROBE_ARRAY
    import numpy as np

    if _PROBE_ARRAY is None:
        _PROBE_ARRAY = np.random.default_rng(0).random(4096)
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(4000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    for _ in range(8):
        np.sort(_PROBE_ARRAY).cumsum().max()
    return (time.perf_counter() - start) * 1e3


def pin_to_one_cpu() -> int:
    """Pin this process to the highest CPU it may use; returns it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set (MiB) of this process, or of its largest
    waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)



# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def sha256_json(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_report(report_dict: dict, shift: int) -> dict:
    """The report with the per-seed job-id shift undone."""
    out = dict(report_dict)
    out["records"] = [
        {**rec, "job_id": rec["job_id"] - shift} for rec in report_dict["records"]
    ]
    return out


def report_digests(report_dict: dict, shift: int) -> dict:
    return {
        "raw": sha256_json(report_dict),
        "canonical": sha256_json(canonical_report(report_dict, shift)),
    }


def series_digest(figure) -> str:
    """SHA-256 of a figure's seed-averaged series."""
    import dataclasses

    data = {
        label: [
            [x, {k: v for k, v in dataclasses.asdict(res).items() if k != "point"}]
            for x, res in rows
        ]
        for label, rows in figure.series.items()
    }
    return sha256_json(data)


def load_expected() -> dict:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_digests(workload: str, seed: int, got: dict) -> list[dict]:
    """Compare digests against ``expected.json``; one entry per check."""
    expected = load_expected()[workload]
    checks = [
        {
            "check": "canonical digest",
            "expected": expected["canonical"],
            "got": got["canonical"],
        }
    ]
    raw = expected.get("raw", {}).get(str(seed))
    if raw is not None:
        checks.append({"check": f"raw digest (seed {seed})", "expected": raw, "got": got["raw"]})
    for check in checks:
        check["ok"] = check["expected"] == check["got"]
    return checks


def emit(payload: dict) -> None:
    """Write one JSON line to stdout (the parent reads the last line)."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def per_layer_names() -> list[str]:
    """The per-layer metric names ``BENCHMARK.json`` declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]
