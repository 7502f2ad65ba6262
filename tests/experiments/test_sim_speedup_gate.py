"""The growth check of ``benchmarks/perf/check_sim_speedup.py``."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

GATE_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "check_sim_speedup.py"
)


@pytest.fixture()
def gate():
    spec = importlib.util.spec_from_file_location("_check_sim_speedup_test", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop(spec.name, None)


def bench_file(tmp_path: Path, wall_2k: float, wall_4k: float) -> Path:
    """A result file that passes checks 1-3, with the given scaling pair."""
    rates = {
        "placement_index_build": 40000.0,
        "sim_trace_off": 25.0,
        "sim_event_batched": 25.0,
        "sim_event_unbatched": 5.0,
    }
    records = [
        {"bench": name, "wall_s": 1.0 / rate, "cells_per_s": rate}
        for name, rate in rates.items()
    ]
    for name, wall, jobs in (("sim_scale_2k", wall_2k, 2000), ("sim_scale_4k", wall_4k, 4000)):
        records.append({"bench": name, "wall_s": wall, "cells_per_s": jobs / wall})
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(records))
    return path


def test_linear_growth_passes(gate, tmp_path):
    path = bench_file(tmp_path, wall_2k=4.0, wall_4k=8.4)
    assert gate.main(["--fresh", str(path), "--baseline", str(path)]) == 0


def test_quadratic_growth_fails(gate, tmp_path, capsys):
    path = bench_file(tmp_path, wall_2k=4.0, wall_4k=16.4)
    assert gate.main(["--fresh", str(path), "--baseline", str(path)]) == 1
    assert "doubling the jobs multiplied the wall time by 4.10" in capsys.readouterr().out

