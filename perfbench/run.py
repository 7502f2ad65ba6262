"""Repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the checkout root.  With ``--trace 0`` it measures the
end-to-end metrics, with ``--trace 1`` the per-layer ones (a separate
traced run).  It prints every metric by name with its unit and the result
of each output check, writes a run record under ``.perfbench/runs/``,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and how each
metric is defined.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import common
from common import median, quantile
from tracing import merge

#: Cold set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Hard limit on any one child process.
CHILD_TIMEOUT_S = 170.0

#: (workload, metric) pairs reported in the probe-normalised form; every
#: other pair is reported raw.  See README.md for the evidence.
NORMALISED: set[tuple[str, str]] = {
    (workload, name)
    for workload in common.WORKLOADS
    for name in ("sim_jobs_per_s", "serve_requests_per_s", "rtt_p50_ms",
                 "rtt_p98_ms", "sweep_cells_per_s", "setup_s")
}

END_TO_END = {
    "sim_jobs_per_s": "jobs/s",
    "serve_requests_per_s": "req/s",
    "rtt_p50_ms": "ms",
    "rtt_p98_ms": "ms",
    "sweep_cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: Probes in the rolling window that judges host speed around a sample.
PROBE_WINDOW = 9


class BenchError(Exception):
    """A run that cannot produce a result."""


def run_child(role: str, *args: str) -> tuple[dict, float]:
    """Run one child role; returns its JSON line and the spawn instant."""
    cmd = [sys.executable, str(common.BENCH_DIR / "child.py"), role, *args]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"child {role} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {role} printed nothing")
    return json.loads(lines[-1]), spawned


# ----------------------------------------------------------------------
# set-up samples
# ----------------------------------------------------------------------

def shutdown_empty_server(address: str) -> None:
    """Send ``shutdown`` to a server that holds no jobs and read to EOF."""
    host, _, port = address.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(b'{"op":"shutdown"}\n')
        while sock.recv(65536):
            pass


def setup_sample(workload: str, seed: int) -> tuple[float, list[float]]:
    """Seconds from spawning a cold interpreter until measured work
    could start, and the host probes taken right after."""
    if workload == "serve-tcp-sdsc":
        from child import spawn_server, stop_server, wait_ready

        tag = f"setup-{os.getpid()}"
        proc, ready, result, spawned = spawn_server(seed, tag)
        try:
            address = wait_ready(proc, ready)
            sample = time.perf_counter() - spawned
            shutdown_empty_server(address)
        finally:
            stop_server(proc)
        probes = json.loads(result.read_text(encoding="utf-8"))["probes"]
        for path in (ready, result, common.OUT_DIR / f"server-{tag}.log"):
            path.unlink(missing_ok=True)
        return sample, probes
    out, spawned = run_child("setup", "--workload", workload, "--seed", str(seed))
    return out["ready"] - spawned, out["probes"]


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------

def local_normalise(samples: list[float], probes: list[float]) -> list[float]:
    """Each sample at the reference host speed, judged by the median of
    the probes taken around it (``probes[i]`` follows ``samples[i]``)."""
    half = PROBE_WINDOW // 2
    out = []
    for i, value in enumerate(samples):
        local = median(probes[max(0, i - half): i + half + 1])
        out.append(value * common.PROBE_REF_MS / local)
    return out


def unit_metrics(workload: str, unit: dict, normalised: bool) -> tuple[dict, list]:
    """End-to-end values of one measured unit, raw or normalised, and its
    latency samples (seconds).

    The normalised form rescales every host time by the host speed the
    probes saw while that time was spent (see README.md).
    """
    if workload == "sweep-fig3":
        # No per-cell times exist without tracing: every cell counts at
        # the mean cell latency, wall x workers / cells.  The host probe
        # runs alongside the workers; its median judges host speed.
        wall, cells = unit["wall_s"], unit["cells"]
        if normalised:
            wall *= common.PROBE_REF_MS / median(unit["probes_during"])
        metrics = {
            "sim_jobs_per_s": unit["jobs"] / wall,
            "serve_requests_per_s": cells / wall,
            "sweep_cells_per_s": cells / wall,
        }
        return metrics, [wall * common.SWEEP_WORKERS / cells] * cells
    if workload.startswith("sim-"):
        samples, wall = unit["slices"], unit["busy_s"]
    else:
        samples, wall = unit["rtts"], unit["wall_s"]
    if normalised:
        scaled = local_normalise(samples, unit["probes"])
        wall *= sum(scaled) / sum(samples)
        samples = scaled
    if workload.startswith("sim-"):
        jobs, requests = unit["jobs"], len(samples)
    else:
        jobs, requests = unit["server"]["completed"], unit["answered"]
    metrics = {
        "sim_jobs_per_s": jobs / wall,
        "serve_requests_per_s": requests / wall,
        "sweep_cells_per_s": 1.0 / wall,
    }
    return metrics, samples


def measure_units(workload: str, seed: int, seconds: float = 0.0,
                  max_units: int = 1000, trace: bool = False):
    """Run the workload's timed child; returns (units, peak RSS MiB of
    the system under test, the child's whole output)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--max-units", str(max_units)]
    if trace:
        args.append("--trace")
    if workload.startswith("sim-"):
        out, _ = run_child("sim", *args)
        return out["units"], out["rss_mb"], out
    if workload == "serve-tcp-sdsc":
        out, _ = run_child("session", *args)
        return out["units"], max(u["server"]["rss_mb"] for u in out["units"]), out
    out, _ = run_child("sweep", *args)
    return out["units"], out["rss_mb"], out


def unit_digests(workload: str, unit: dict):
    if workload == "serve-tcp-sdsc":
        return unit["server"].get("digests")
    return unit.get("digests")


def output_checks(workload: str, seed: int, units: list[dict]) -> list[dict]:
    checks = []
    for i, unit in enumerate(units):
        digests = unit_digests(workload, unit)
        if digests is None:
            checks.append({"check": f"unit {i}: report produced", "ok": False})
            continue
        for check in common.check_digests(workload, seed, digests):
            check["check"] = f"unit {i}: {check['check']}"
            checks.append(check)
    return checks


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    samples = [setup_sample(workload, seed) for _ in range(SETUP_SAMPLES)]
    units, rss_mb, _ = measure_units(workload, seed, seconds)
    checks = output_checks(workload, seed, units)
    raw, normalised = {}, {}
    for form, out in ((False, raw), (True, normalised)):
        per_unit = [unit_metrics(workload, u, form) for u in units]
        for name in per_unit[0][0]:
            out[name] = median([m[name] for m, _ in per_unit])
        pooled = [x for _, samples in per_unit for x in samples]
        out["rtt_p50_ms"] = quantile(pooled, 0.50) * 1e3
        out["rtt_p98_ms"] = quantile(pooled, 0.98) * 1e3
    raw["setup_s"] = median([s for s, _ in samples])
    normalised["setup_s"] = median(
        [s * common.PROBE_REF_MS / median(p) for s, p in samples]
    )
    forms = {
        name: "normalised" if (workload, name) in NORMALISED else "raw"
        for name in raw
    }
    chosen = {
        name: normalised[name] if forms[name] == "normalised" else raw[name]
        for name in raw
    }
    chosen["peak_rss_mb"] = rss_mb
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units) + sum(not c["ok"] for c in checks)
    errors = [e for u in units for e in u.get("errors", [])]
    return {
        "metrics": {k: (v, END_TO_END[k]) for k, v in chosen.items()},
        "raw": raw,
        "normalised": normalised,
        "forms": forms,
        "setup_samples": [s for s, _ in samples],
        "units": len(units),
        "unit_data": units,
        "probe_ms": median([p for u in units for p in u["probes"]]),
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
    }


# ----------------------------------------------------------------------
# per-layer metrics (traced run)
# ----------------------------------------------------------------------

#: Layer spans whose self time is not part of the timed window's wall.
_OUTSIDE_WALL = ("setup.", "serve.protocol.decode", "serve.protocol.encode")


def layer_metrics(workload: str, seed: int) -> dict:
    """Run an untraced reference unit and a traced unit; returns the
    per-layer metrics with their units."""
    ref_units, _, _ = measure_units(workload, seed, max_units=1)
    units, _, out = measure_units(workload, seed, max_units=1, trace=True)
    unit = units[0]
    checks = output_checks(workload, seed, ref_units + units)
    m: dict[str, tuple[float, str]] = {}

    if workload.startswith("sim-"):
        trace, setup, obs = merge([unit["trace"]]), out["setup_trace"], unit["obs"]
        counters = unit["counters"]
        wall = unit["busy_s"]
        import_s = out["import_s"]
        absent = out["absent"]
        span_files = out["span_files"]
    elif workload == "serve-tcp-sdsc":
        server = unit["server"]
        trace, setup, obs = merge([server["trace"]]), server["setup_trace"], server["obs"]
        counters = server["report_counters"]
        wall = unit["wall_s"]
        import_s = server["import_s"]
        absent = server["absent"]
        span_files = [server["span_file"]]
    else:
        parent = out["trace"]["parent"]
        workers = merge(out["trace"]["workers"])
        workers_used = len(out["trace"]["workers"])
        trace = merge([parent] + out["trace"]["workers"])
        setup = {"layers": {k: v for k, v in trace["layers"].items()
                            if k.startswith("setup.")}}
        obs = {}
        counters = {k[len("sim."):]: v for k, v in workers["counts"].items()
                    if k.startswith("sim.")}
        wall = unit["wall_s"]
        import_s = out["import_s"]
        absent = out["absent"]
        span_files = out["span_files"]

    layers, counts = trace["layers"], trace["counts"]
    # The wall the layer self times must add up to, and the layers in it.
    basis, accounted = wall, 0.0
    reconcile = workers if workload == "sweep-fig3" else trace

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0])[0]

    def self_s(name, source=layers):
        return source.get(name, [0, 0.0, 0.0])[2]

    def total_s(name, source=layers):
        return source.get(name, [0, 0.0, 0.0])[1]

    def count(n):
        return (n, "count")

    def secs(s):
        return (s, "s")

    attempts = counts.get("policy.choose.backfill_attempts", 0)
    placed = counts.get("policy.choose.placed", 0)
    depths = trace["depths"] or [0]
    m["migration.plan.calls"] = count(calls("migration.plan"))
    m["migration.plan.found"] = count(counts.get("migration.plan.found", 0))
    m["migration.plan.distinct_keys"] = count(trace["distinct_keys"])
    m["migration.plan.self_s"] = secs(self_s("migration.plan"))
    m["migration.plan.total_s"] = secs(total_s("migration.plan"))
    m["migration.apply.calls"] = count(calls("migration.apply"))
    m["policy.choose.calls"] = count(calls("policy.choose"))
    m["policy.choose.backfill_attempts"] = count(attempts)
    m["policy.choose.placed"] = count(placed)
    m["policy.choose.placed_ratio"] = (placed / attempts if attempts else 0.0, "ratio")
    m["policy.choose.self_s"] = secs(self_s("policy.choose"))
    m["backfill.scan.self_s"] = secs(self_s("backfill.scan"))
    m["checkpoint.wall_duration.calls"] = count(counts.get("checkpoint.wall_duration", 0))
    m["prediction.calls"] = count(calls("prediction"))
    m["prediction.self_s"] = secs(self_s("prediction"))
    m["index.get.calls"] = count(calls("index.get"))
    m["index.get.self_s"] = secs(self_s("index.get"))
    m["index.losses.calls"] = count(calls("index.losses"))
    m["index.losses.self_s"] = secs(self_s("index.losses"))
    for path in ("hit", "repair", "fallback"):
        m[f"index.incremental.{path}"] = count(int(obs.get(f"index.incremental.{path}", 0)))
    m["shadow.calls"] = count(calls("shadow"))
    m["shadow.self_s"] = secs(self_s("shadow"))
    m["shadow.cache_hits"] = count(int(obs.get("shadow.cache_hits", 0)))
    m["events.batches"] = count(calls("events"))
    m["events.count"] = count(counts.get("events.count", 0))
    m["events.self_s"] = secs(self_s("events"))
    m["queue.depth_mean"] = (sum(depths) / len(depths), "jobs")
    m["queue.depth_max"] = (max(depths), "jobs")
    m["torus.allocate.calls"] = count(counts.get("torus.allocate", 0))
    m["torus.release.calls"] = count(counts.get("torus.release", 0))
    m["report.self_s"] = secs(self_s("report"))
    m["setup.import_s"] = secs(import_s)
    for step in ("workload", "failures", "policy", "simulator"):
        m[f"setup.{step}_s"] = secs(total_s(f"setup.{step}", setup["layers"]))
    for key in ("scheduler_passes", "backfills", "migrations", "job_kills"):
        m[f"sim.{key}"] = count(counters.get(key, 0))

    # service layers
    if workload == "serve-tcp-sdsc":
        server = unit["server"]
        handle_total = total_s("serve.handle")
        transport = sum(unit["rtts"]) - handle_total
        m["serve.handle.calls"] = count(calls("serve.handle"))
        m["serve.handle.self_s"] = secs(self_s("serve.handle"))
        for step in ("decode", "encode", "validate"):
            m[f"serve.protocol.{step}_s"] = secs(self_s(f"serve.protocol.{step}"))
        m["serve.admission.offer_s"] = secs(self_s("serve.admission.offer"))
        m["serve.admission.release_s"] = secs(self_s("serve.admission.release"))
        m["serve.pump.calls"] = count(calls("serve.pump"))
        m["serve.pump.self_s"] = secs(self_s("serve.pump"))
        m["serve.transport_s"] = secs(transport)
        m["serve.rejected"] = count(int(server["counters"].get("serve.rejected", 0)))
        m["serve.soft_overflows"] = count(int(server["counters"].get("serve.soft_overflows", 0)))
        accounted = transport
    else:
        for name in ("serve.handle.calls", "serve.pump.calls", "serve.rejected",
                     "serve.soft_overflows"):
            m[name] = count(0)

    # sweep engine
    if workload == "sweep-fig3":
        busy = total_s("sweep.cell", workers["layers"])
        m["sweep.workers_used"] = count(workers_used)
        m["sweep.chunk_size"] = count(parent["counts"].get("sweep.chunk_size", 0))
        m["sweep.arena_bytes"] = (parent["counts"].get("sweep.arena_bytes", 0), "bytes")
        m["sweep.cell_busy_s"] = secs(busy)
        m["sweep.pool_efficiency"] = (
            busy / (wall * workers_used) if workers_used else 0.0, "ratio")
        basis = wall * max(workers_used, 1)
    else:
        m["sweep.workers_used"] = count(0)
        m["sweep.chunk_size"] = count(0)
        m["sweep.arena_bytes"] = (0, "bytes")
        m["sweep.pool_efficiency"] = (0.0, "ratio")

    accounted += sum(
        stat[2] for name, stat in reconcile["layers"].items()
        if not name.startswith(_OUTSIDE_WALL)
    )
    m["sim.other_self_s"] = secs(basis - accounted)
    m["trace.wall_s"] = secs(wall)
    ref_rate = unit_metrics(workload, ref_units[0], True)[0]["sweep_cells_per_s"]
    rate = unit_metrics(workload, unit, True)[0]["sweep_cells_per_s"]
    m["trace.overhead_frac"] = (ref_rate / rate - 1.0, "ratio")
    probes = [p for u in ref_units for p in u["probes"]]
    m["host.probe_ms"] = (median(probes), "ms")
    attempted = sum(u["attempted"] for u in ref_units + units)
    failed = (sum(u["failed"] for u in ref_units + units)
              + sum(not c["ok"] for c in checks))
    m["ops_failed_frac"] = (failed / attempted, "ratio")
    return {
        "metrics": m,
        "layers": trace["layers"],
        "span_files": [str(Path(f).relative_to(common.ROOT)) for f in span_files],
        "absent": absent,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "probe_ms": m["host.probe_ms"][0],
    }


# ----------------------------------------------------------------------

def git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_table(workload: str, seed: int, trace: int, result: dict) -> None:
    print(f"workload {workload}  seed {seed}  trace {trace}")
    for name, (value, unit) in sorted(result["metrics"].items()):
        form = result.get("forms", {}).get(name)
        note = f"  [{form}]" if form else ""
        print(f"  {name:<36} {value:>16.6g} {unit}{note}")
    for check in result["checks"]:
        print(f"  check {check['check']}: {'ok' if check['ok'] else 'FAILED'}")
    for layer in result.get("absent", []):
        print(f"  absent layer: {layer}")
    for error in result.get("errors", []):
        print(f"  failed op: {error}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")


def write_record(workload: str, seed: int, trace: int, result: dict) -> Path:
    runs = common.OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = runs / f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json"
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": git_rev(),
        "host.probe_ms": result["probe_ms"],
        **{k: v for k, v in result.items() if k != "probe_ms"},
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {common.SRC}; run from the checkout root",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = layer_metrics(args.workload, args.seed)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, RuntimeError, subprocess.TimeoutExpired, KeyError,
            OSError, ValueError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    print_table(args.workload, args.seed, args.trace, result)
    path = write_record(args.workload, args.seed, args.trace, result)
    print(f"  run record: {path.relative_to(common.ROOT)}")
    names = common.per_layer_names() if args.trace else list(END_TO_END)
    metrics = {
        name: {"value": result["metrics"][name][0], "unit": result["metrics"][name][1]}
        for name in names
    }
    correct = all(c["ok"] for c in result["checks"])
    common.emit({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
