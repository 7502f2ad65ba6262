"""Congested runs: the fast scheduler pass equals the flat-scan reference.

The bucketed backfill scan and the compaction-plan memo must not change
a single scheduling decision.  Three checks pin that down:

* whole reports of congested SDSC runs equal digests captured before
  either shortcut existed (``tests/fixtures/congested_golden.json``);
* decision traces equal the schema-1 traces of that code once every
  zero-candidate record is dropped (schema 2 stopped emitting them for
  jobs the backfill scan skips);
* on random congested workloads, reports and filtered traces equal those
  of :class:`repro.testing.scheduling.FlatScanSimulator`, the
  paper-literal flat scan with every plan placed afresh.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SimulationSetup
from repro.core.config import BackfillMode, SimulationConfig
from repro.core.policies.registry import make_policy
from repro.core.simulator import Simulator
from repro.metrics.serialize import report_to_dict
from repro.testing.scheduling import FlatScanSimulator

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "fixtures" / "congested_golden.json")
    .read_text(encoding="utf-8")
)
POLICIES = ("balancing", "krevat", "tiebreak")
MODES = {mode.value: mode for mode in (BackfillMode.EASY, BackfillMode.AGGRESSIVE)}


def filtered_trace_digest(records) -> str:
    """SHA-256 of a trace with every zero-candidate record dropped, ``seq``
    renumbered and the header's schema version removed."""
    digest = hashlib.sha256()
    seq = 0
    for rec in records:
        if rec["kind"] == "candidates" and rec["n_candidates"] == 0:
            continue
        rec = dict(rec, seq=seq)
        seq += 1
        if rec["kind"] == "header":
            rec.pop("schema")
        digest.update(
            json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def report_digest(report) -> str:
    text = json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def build(setup: SimulationSetup, cls=Simulator) -> Simulator:
    workload = setup.build_workload()
    failures = setup.build_failures(workload)
    policy = make_policy(
        setup.policy,
        failure_log=failures,
        parameter=setup.parameter,
        pf_rule=setup.pf_rule,
        seed=setup.seed + 2,
    )
    return cls(workload, failures, policy, setup.config)


@pytest.mark.parametrize("key", sorted(GOLDEN["reports"]))
def test_report_matches_golden(key):
    _, _, policy, mode, seed = key.split("-")
    setup = SimulationSetup(
        site="sdsc", n_jobs=150, n_failures=200, load_scale=1.0,
        policy=policy, parameter=0.5, seed=int(seed[1:]),
        config=SimulationConfig(backfill=MODES[mode], migration=True),
    )
    assert report_digest(setup.run()) == GOLDEN["reports"][key]


@pytest.mark.parametrize("policy", POLICIES)
def test_trace_matches_schema1_golden(policy):
    setup = SimulationSetup(
        site="sdsc", n_jobs=300, n_failures=300, load_scale=1.0,
        policy=policy, parameter=0.1, seed=0,
        config=SimulationConfig(trace=True),
    )
    sim = build(setup)
    report = sim.run()
    assert report.counters.backfills > 0 and report.counters.migrations > 0
    assert filtered_trace_digest(sim.recorder.records) == (
        GOLDEN["trace_filtered"][policy]
    )


@settings(max_examples=15, deadline=None)
@given(
    n_jobs=st.integers(min_value=20, max_value=70),
    failures_per_job=st.sampled_from([0.5, 1.0, 2.0]),
    load_scale=st.sampled_from([1.0, 1.2]),
    policy=st.sampled_from(POLICIES),
    mode=st.sampled_from(sorted(MODES)),
    parameter=st.sampled_from([0.1, 0.5, 0.9]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_congested_runs_match_flat_scan(
    n_jobs, failures_per_job, load_scale, policy, mode, parameter, seed
):
    setup = SimulationSetup(
        site="sdsc", n_jobs=n_jobs, n_failures=int(n_jobs * failures_per_job),
        load_scale=load_scale, policy=policy, parameter=parameter, seed=seed,
        config=SimulationConfig(backfill=MODES[mode], migration=True, trace=True),
    )
    fast = build(setup)
    flat = build(setup, FlatScanSimulator)
    assert report_digest(fast.run()) == report_digest(flat.run())
    assert filtered_trace_digest(fast.recorder.records) == filtered_trace_digest(
        flat.recorder.records
    )
    # The fast scan drops zero-candidate records; it never adds any.
    assert len(fast.recorder.records) <= len(flat.recorder.records)
