"""Child-process entry points: each role runs in a fresh interpreter.

``python3 perfbench/child.py <role> ...`` from the checkout root.  Roles:

``setup``   build a workload's inputs and exit (one cold set-up sample);
``sim``     timed simulation units of a sim workload;
``session`` the serve client: spawns ``server``, drives one TCP session
            per unit;
``server``  the benchmark's server bootstrap around the public
            ``ServeEngine.from_setup`` and ``run_service``;
``sweep``   one ``fig3`` sweep.

Each role prints one JSON line; ``ready`` is the ``time.perf_counter``
instant at which measured work could start (the clock is system-wide,
so the parent subtracts its own spawn instant).
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
from common import probe

sys.path.insert(0, str(common.SRC))

#: Probes taken before and after a sweep.
SWEEP_PROBES = 100
#: Interval of the host probe that runs alongside a sweep.
SWEEP_PROBE_INTERVAL_S = 0.025
#: Probes taken right after a set-up sample.
SETUP_PROBES = 30
#: Seconds a server may take to come up, or to exit after shutdown.
SERVER_TIMEOUT_S = 60.0


def import_repro() -> float:
    """Import the packages every role needs; returns the seconds spent."""
    t0 = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.metrics.serialize  # noqa: F401

    return time.perf_counter() - t0


def span_path(name: str) -> Path:
    """Where a traced process writes its spans."""
    return common.OUT_DIR / "spans" / name


def make_tracer(span_dir=None):
    import tracing

    tracer = tracing.Tracer(span_dir)
    tracing.install_sim_layers(tracer)
    return tracer


# ----------------------------------------------------------------------
# sim workloads
# ----------------------------------------------------------------------

def build_sim(scenario, seed: int, profile: bool = False):
    """A :class:`common.SimScenario`'s simulator, job ids shifted by the
    seed."""
    from dataclasses import replace

    from repro.core.policies.registry import make_policy
    from repro.core.simulator import Simulator
    from repro.workloads.job import Workload

    setup = scenario.setup(profile)
    base = setup.build_workload()
    shift = common.id_shift(seed)
    shifted = Workload(
        base.name,
        base.machine_nodes,
        tuple(replace(job, job_id=job.job_id + shift) for job in base.jobs),
    )
    failures = setup.build_failures(base)
    policy = make_policy(
        setup.policy,
        failure_log=failures,
        parameter=setup.parameter,
        pf_rule=setup.pf_rule,
        seed=setup.seed + 2,
    )
    return Simulator(shifted, failures, policy, setup.config)


def sim_unit(sim, slice_batches: int) -> dict:
    """Pump the simulator to completion in slices; time each slice and
    probe the host after it."""
    from repro.metrics.serialize import report_to_dict

    slices = []
    probes = []
    failed = 0
    busy = 0.0
    while True:
        t0 = time.perf_counter()
        try:
            steps = sim.pump(max_batches=slice_batches)
        except Exception as exc:  # a failed slice is a failed operation
            print(f"pump failed: {exc!r}", file=sys.stderr)
            failed += 1
            break
        t1 = time.perf_counter()
        busy += t1 - t0
        if steps == 0:
            break
        slices.append(t1 - t0)
        probes.append(probe())
    report = None
    if not failed:
        t0 = time.perf_counter()
        report = sim.drain()
        busy += time.perf_counter() - t0
    return {
        "busy_s": busy,
        "slices": slices,
        "probes": probes,
        "jobs": len(report.records) if report else 0,
        "attempted": len(slices) + failed,
        "failed": failed,
        "report": report_to_dict(report) if report else None,
        "counters": (
            {k: getattr(report.counters, k) for k in
             ("scheduler_passes", "backfills", "migrations", "job_kills")}
            if report else {}
        ),
    }


def role_sim(args) -> dict:
    common.pin_to_one_cpu()
    import_s = import_repro()
    tracer = make_tracer() if args.trace else None
    units = []
    setup_layers = None
    started = None
    while True:
        sim = build_sim(common.SIM_SCENARIOS[args.workload], args.seed,
                        profile=args.trace)
        if tracer is not None:
            setup_layers = tracer.take()
        if started is None:
            started = time.perf_counter()
        if tracer is not None:
            from repro.obs import metrics as obs_metrics

            with obs_metrics.activate(sim.metrics):
                unit = sim_unit(sim, common.SLICE_BATCHES[args.workload])
            unit["obs"] = sim.metrics.to_dict(include_timings=False)["counters"]
            unit["trace"] = tracer.take()
        else:
            unit = sim_unit(sim, common.SLICE_BATCHES[args.workload])
        report = unit.pop("report")
        if report is not None:
            unit["digests"] = common.report_digests(report, common.id_shift(args.seed))
        units.append(unit)
        del sim, report
        if (
            unit["failed"]
            or len(units) >= args.max_units
            or time.perf_counter() - started >= args.seconds
        ):
            break
    span_file = None
    if tracer is not None:
        span_file = span_path(f"{args.workload}-{os.getpid()}.json")
        tracer.write_spans(span_file)
    return {
        "units": units,
        "import_s": import_s,
        "span_files": [str(span_file)] if span_file else [],
        "setup_trace": setup_layers,
        "absent": tracer.absent if tracer else [],
        "rss_mb": common.peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------

def wait_ready(proc, ready_file: Path) -> str:
    """Poll for the server's ready file; returns the bound address."""
    deadline = time.perf_counter() + SERVER_TIMEOUT_S
    while time.perf_counter() < deadline:
        if ready_file.exists():
            text = ready_file.read_text(encoding="utf-8")
            if text.endswith("\n"):
                return text.strip()
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with code {proc.returncode}")
        time.sleep(0.001)
    raise RuntimeError("server did not become ready")


def spawn_server(seed: int, tag: str, trace: bool = False):
    """Start the server bootstrap; returns (process, ready file, result
    file, spawn instant)."""
    common.OUT_DIR.mkdir(exist_ok=True)
    ready = common.OUT_DIR / f"ready-{tag}"
    result = common.OUT_DIR / f"server-{tag}.json"
    for path in (ready, result):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(common.BENCH_DIR / "child.py"), "server",
           "--seed", str(seed), "--ready-file", str(ready),
           "--result-file", str(result)]
    if trace:
        cmd.append("--trace")
    log = open(common.OUT_DIR / f"server-{tag}.log", "wb")
    try:
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
    finally:
        log.close()
    return proc, ready, result, spawned


def stop_server(proc) -> None:
    """Wait for a server to exit; kill it if it hangs."""
    try:
        proc.wait(timeout=SERVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def skip_line(client) -> None:
    """Discard the rest of a response line the client refused to read,
    so the stream stays in step and the server can finish writing."""
    reader = getattr(client, "_reader", None)
    if reader is not None:
        reader.readline()


def session_unit(seed: int, messages: list[dict], tag: str, trace: bool) -> dict:
    """One closed-loop TCP session: pipelined round trips of submits plus
    status polls for the previous chunk, then drain and shutdown."""
    from repro.serve.client import SocketClient

    proc, ready_file, result_file, _ = spawn_server(seed, tag, trace)
    rtts = []
    probes = []
    probe_s = 0.0
    attempted = failed = answered = 0
    errors = []
    try:
        client = SocketClient.connect(wait_ready(proc, ready_file))
        started = time.perf_counter()
        previous: list[int] = []
        for lo in range(0, len(messages), common.SERVE_CHUNK):
            chunk = messages[lo: lo + common.SERVE_CHUNK]
            batch = chunk + [{"op": "status", "id": i} for i in previous]
            t0 = time.perf_counter()
            responses = client.request_many(batch)
            rtts.append(time.perf_counter() - t0)
            attempted += len(batch)
            for response in responses:
                if response.get("ok"):
                    answered += 1
                else:
                    failed += 1
                    errors.append(str(response.get("error")))
            previous = [m["id"] for m in chunk]
            probes.append(probe())
            probe_s += probes[-1] / 1e3
        for op in ("drain", "shutdown"):
            t0 = time.perf_counter()
            attempted += 1
            try:
                response = client.request({"op": op})
            except Exception as exc:  # counted, then the stream is resynced
                failed += 1
                errors.append(f"{op}: {exc}")
                skip_line(client)
            else:
                if response.get("ok"):
                    answered += 1
                else:
                    failed += 1
                    errors.append(f"{op}: {response.get('error')}")
            rtts.append(time.perf_counter() - t0)
            probes.append(probe())
            probe_s += probes[-1] / 1e3
        wall = time.perf_counter() - started - probe_s
        client.close()
    except BaseException:
        proc.kill()
        raise
    finally:
        stop_server(proc)
    server = json.loads(result_file.read_text(encoding="utf-8"))
    for path in (ready_file, result_file, common.OUT_DIR / f"server-{tag}.log"):
        path.unlink()
    return {
        "wall_s": wall,
        "rtts": rtts,
        "probes": probes,
        "attempted": attempted,
        "failed": failed,
        "answered": answered,
        "errors": errors[:10],
        "server": server,
    }


def role_session(args) -> dict:
    common.pin_to_one_cpu()
    import_repro()
    setup = common.SERVE.setup()
    shift = common.id_shift(args.seed)
    messages = [
        {
            "op": "submit",
            "id": job.job_id + shift,
            "size": job.size,
            "runtime": job.runtime,
            "arrival": job.arrival,
            "estimate": job.estimate,
            "tenant": common.SERVE_TENANTS[i % len(common.SERVE_TENANTS)],
        }
        for i, job in enumerate(setup.build_workload().jobs)
    ]
    units = []
    started = time.perf_counter()
    while True:
        unit = session_unit(args.seed, messages, f"{os.getpid()}-{len(units)}", args.trace)
        units.append(unit)
        if (
            len(units) >= args.max_units
            or time.perf_counter() - started >= args.seconds
        ):
            break
    return {"units": units}


def role_server(args) -> dict:
    common.pin_to_one_cpu()
    import_s = import_repro()
    from repro.serve.engine import ServeEngine
    from repro.serve.service import run_service

    tracer = None
    if args.trace:
        import tracing

        tracer = make_tracer()
        tracing.install_serve_layers(tracer)
    setup = common.SERVE.setup(profile=args.trace)
    engine = ServeEngine.from_setup(setup, clock="trace")
    setup_trace = tracer.take() if tracer else None
    if tracer is not None:
        from repro.obs import metrics as obs_metrics

        with obs_metrics.activate(engine.sim.metrics):
            run_service(engine, host="127.0.0.1", port=0, ready_file=args.ready_file)
    else:
        run_service(engine, host="127.0.0.1", port=0, ready_file=args.ready_file)
    trace = tracer.take() if tracer else None
    # The correctness digest is taken here, from the engine itself, so a
    # client that cannot read the drained report still gets checked.
    drained = engine.handle({"op": "drain"})
    out = {
        "probes": [probe() for _ in range(SETUP_PROBES)],
        "rss_mb": common.peak_rss_mb(),
        "import_s": import_s,
        "completed": engine.sim.completed_count,
        "counters": engine.metrics.to_dict(include_timings=False)["counters"],
        "report_counters": drained["report"]["counters"],
    }
    if drained["report"]["records"]:
        out["digests"] = common.report_digests(
            drained["report"], common.id_shift(args.seed)
        )
    if tracer is not None:
        out["trace"] = trace
        out["setup_trace"] = setup_trace
        out["span_file"] = str(span_path(f"server-{os.getpid()}.json"))
        tracer.write_spans(Path(out["span_file"]))
        out["obs"] = engine.sim.metrics.to_dict(include_timings=False)["counters"]
        out["absent"] = tracer.absent
    Path(args.result_file).write_text(json.dumps(out), encoding="utf-8")
    return {"ok": True}


# ----------------------------------------------------------------------
# sweep workload
# ----------------------------------------------------------------------

def sweep_grid():
    """Imports plus fig3's point grid: the sweep's set-up."""
    from repro.experiments.figures import (
        PAPER_FAILURE_AXIS, paper_failures_to_sim,
    )
    from repro.experiments.sweep import SweepPoint
    from repro.workloads.models import site_model
    from repro.workloads.scaling import fit_to_machine, scale_load
    from repro.workloads.synthetic import generate_workload
    from repro.core.config import SimulationConfig

    workload = fit_to_machine(
        scale_load(
            generate_workload(site_model("sdsc"), common.SWEEP_JOBS,
                              seed=common.SWEEP_SEEDS[0]),
            1.0,
        ),
        SimulationConfig().dims,
    )
    horizon = max(workload.span * 1.5, 3600.0)
    return [
        SweepPoint(site="sdsc", n_jobs=common.SWEEP_JOBS, load_scale=1.0,
                   n_failures=paper_failures_to_sim(n, horizon),
                   policy="balancing", parameter=a)
        for a in (0.0, 0.1, 0.9)
        for n in PAPER_FAILURE_AXIS
    ]


def role_sweep(args) -> dict:
    import_s = import_repro()
    grid = sweep_grid()
    from repro.experiments.figures import fig3
    from repro.experiments.pool import shutdown_warm_pool

    tracer = None
    span_dir = None
    if args.trace:
        import tracing

        span_dir = span_path(f"sweep-{os.getpid()}")
        span_dir.mkdir(parents=True, exist_ok=True)
        tracer = make_tracer(span_dir)
        tracing.install_sweep_layers(tracer, os.getpid())
    probes = [probe() for _ in range(SWEEP_PROBES)]
    during: list[float] = []
    stop = threading.Event()

    def probe_loop():
        while not stop.wait(SWEEP_PROBE_INTERVAL_S):
            during.append(probe())

    prober = threading.Thread(target=probe_loop, daemon=True)
    t1 = time.perf_counter()
    prober.start()
    try:
        figure = fig3(n_jobs=common.SWEEP_JOBS, seeds=common.SWEEP_SEEDS,
                      workers=common.SWEEP_WORKERS)
    finally:
        t2 = time.perf_counter()
        stop.set()
        prober.join()
    probes += [probe() for _ in range(SWEEP_PROBES)]
    shutdown_warm_pool()
    digest = common.series_digest(figure)
    cells = len(grid) * len(common.SWEEP_SEEDS)
    out = {
        "units": [{
            "wall_s": t2 - t1,
            "cells": cells,
            "jobs": cells * common.SWEEP_JOBS,
            "probes": probes,
            "probes_during": during,
            "attempted": cells,
            "failed": 0,
            "digests": {"raw": digest, "canonical": digest},
        }],
        "rss_mb": max(common.peak_rss_mb(), common.peak_rss_mb(children=True)),
        "import_s": import_s,
    }
    if tracer is not None:
        parent = tracer.take()
        tracer.write_spans(span_dir / "parent.json")
        workers = []
        for path in sorted(span_dir.glob("worker-*.json")):
            snap = json.loads(path.read_text(encoding="utf-8"))
            snap.pop("spans")
            workers.append(snap)
        out["trace"] = {"parent": parent, "workers": workers}
        out["span_files"] = [str(p) for p in sorted(span_dir.glob("*.json"))]
        out["absent"] = tracer.absent
    return out


# ----------------------------------------------------------------------

def role_setup(args) -> dict:
    """One cold set-up sample: stop once measured work could start."""
    if args.workload != "sweep-fig3":
        common.pin_to_one_cpu()
    import_repro()
    if args.workload == "sweep-fig3":
        sweep_grid()
    else:
        build_sim(common.SIM_SCENARIOS[args.workload], args.seed)
    ready = time.perf_counter()
    return {"ready": ready, "probes": [probe() for _ in range(SETUP_PROBES)]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "sim", "session", "server", "sweep"))
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-units", type=int, default=1_000)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ready-file")
    parser.add_argument("--result-file")
    args = parser.parse_args()
    role = {
        "setup": role_setup, "sim": role_sim, "session": role_session,
        "server": role_server, "sweep": role_sweep,
    }[args.role]
    common.emit(role(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
