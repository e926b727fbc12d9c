"""Tests of the benchmark's own code: wrappers, self time, generators, and
that a traced run still produces the golden trace."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """id of every attribute of every herdsim module, and of the wrapped methods."""
    from herdsim.formation_field import SweepReport
    from herdsim.sim import SimTrace

    out = {(name, key): id(value)
           for name, module in sys.modules.items()
           if name == "herdsim" or name.startswith("herdsim.")
           for key, value in vars(module).items()}
    out["SimTrace.to_csv"] = id(SimTrace.to_csv)
    out["SweepReport.to_csv"] = id(SweepReport.to_csv)
    return out


def test_wrappers_restore_every_binding():
    import herdsim
    from herdsim import cli, environment, formation_field, sim  # noqa: F401 (cli: load every module first)

    before = _bindings()
    original_distance = environment.superelliptic_distance
    original_run = sim.run
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Recorder()):
            for module in (environment, formation_field, sim, herdsim):
                assert module.superelliptic_distance is not original_distance
            assert herdsim.run is sim.run is not original_run
            raise RuntimeError("leave the block by an exception")
    assert _bindings() == before


def test_self_time_on_synthetic_spans():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert list(spans.self_times(start, end, parent)) == [6.0, 2.0, 1.0, 1.0]


def test_generators_are_deterministic_per_seed():
    assert workloads.cluttered_doc(7) == workloads.cluttered_doc(7)
    assert workloads.cluttered_doc(7) != workloads.cluttered_doc(8)
    assert len(workloads.cluttered_doc(8)["obstacles"]) == 6 + workloads.CLUTTER_COUNT


def test_traced_reference_run_yields_golden_trace(tmp_path):
    from herdsim import cli

    rec = spans.Recorder()
    with spans.instrument(rec):
        assert cli.main(["simulate", "--svg", "off", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == bench_run.GOLDEN_TRACE_SHA256
    metrics = bench_run.layer_metrics(rec, {"traced": 2.0, "untraced": 1.0})
    assert metrics["defender_control.defender_field.calls_per_step"][0] == 3.0
    assert metrics["environment.superelliptic_distance.calls_per_step.combined_field"][0] == 6.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "reference",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
