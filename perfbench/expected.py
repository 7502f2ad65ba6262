"""Regenerate ``expected.json``: the output digests every run checks.

    python3 perfbench/expected.py

Digests come from batch runs (``Simulator.run``), never from the timed
paths, so the pump-sliced simulations and the TCP service session are
checked against the batch simulator.  ``canonical`` is the report with
the per-seed job-id shift undone, so it is the same for every seed.
``raw`` holds the digest of the report as produced, ids still shifted,
for the default seed 0 and the held-out seed 1.
"""

import json
import sys

import common

sys.path.insert(0, str(common.SRC))

HELD_OUT_SEED = 1


def batch_digests(scenario) -> dict:
    from child import build_sim
    from repro.metrics.serialize import report_to_dict

    out = {"raw": {}}
    for seed in (0, HELD_OUT_SEED):
        report = report_to_dict(build_sim(scenario, seed).run())
        digests = common.report_digests(report, common.id_shift(seed))
        out["raw"][str(seed)] = digests["raw"]
        if out.setdefault("canonical", digests["canonical"]) != digests["canonical"]:
            raise SystemExit(f"{scenario}: canonical digest depends on the seed")
    return out


def main() -> int:
    from repro.experiments.figures import fig3
    from repro.experiments.pool import shutdown_warm_pool

    expected = {
        name: batch_digests(scenario)
        for name, scenario in common.SIM_SCENARIOS.items()
    }
    expected["serve-tcp-sdsc"] = batch_digests(common.SERVE)
    figure = fig3(n_jobs=common.SWEEP_JOBS, seeds=common.SWEEP_SEEDS,
                  workers=common.SWEEP_WORKERS)
    shutdown_warm_pool()
    expected["sweep-fig3"] = {"canonical": common.series_digest(figure)}
    path = common.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(expected, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
