"""Checks of the benchmark itself.

    python -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's test run: the last test
runs every traced workload twice (about two minutes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(tracer.EXACT_COUNTS) <= set(tracer.PER_LAYER_UNITS)


def test_span_stats_self_time_and_outermost_inclusive():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["a", 2.0, 3.0, 1],  # recursion through b: not counted twice
        ["b", 5.0, 6.0, 0],
    ]
    st = tracer.span_stats(spans)
    assert st["a"] == {"calls": 2, "s": 10.0, "self_s": 6.0 + 1.0}
    assert st["b"] == {"calls": 2, "s": 4.0, "self_s": 2.0 + 1.0}
    shares = tracer.layer_self_seconds(spans)
    assert shares["other"] == pytest.approx(10.0)


def test_wrappers_record_spans_and_restore_originals():
    from repro import workloads
    from repro.workloads import scenarios

    original = workloads.generate_circuit
    rec = tracer.Recorder()
    patches = tracer.Patches(rec).install()
    try:
        assert not patches.missing
        # every module that bound the name sees the wrapper
        assert workloads.generate_circuit is scenarios.generate_circuit
        assert workloads.generate_circuit is not original
        workloads.generate_circuit(
            workloads.campaign_spec("t", n_gates=20, depth=3, n_pis=4, n_pos=2),
            1,
        )
    finally:
        patches.remove()
    assert workloads.generate_circuit is original
    assert scenarios.generate_circuit is original
    assert tracer.span_stats(rec.spans)["gen.generate_circuit"]["calls"] == 1


def test_missing_target_marks_its_metrics_missing():
    gone = tracer.Target("scg.specialize", "scg", "repro.core.pconf",
                         "ParameterizedBitstream.no_such_method")
    patches = tracer.Patches(tracer.Recorder(), targets=(gone,)).install()
    patches.remove()
    assert "scg.specialize" in patches.missing
    values = tracer.derive(tracer.Recorder(), 1.0, patches.missing, {})
    assert values["scg.specialize.calls"] == tracer.MISSING
    assert values["scg.expr_nodes"] == tracer.MISSING
    assert values["kern.steps"] == 0


def test_chrome_trace_is_complete_events():
    doc = tracer.chrome_trace([("p", [["x.y", 1.0, 1.5, -1]])], {"seed": 1})
    event = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
    assert event == {"name": "x.y", "cat": "x", "ph": "X", "ts": 0.0,
                     "dur": 500000.0, "pid": 1, "tid": 1}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "debug-turn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_across_traced_runs(workload):
    counts = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "2016", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        counts.append({k: metrics[k]["value"] for k in tracer.EXACT_COUNTS})
    assert counts[0] == counts[1]
