"""Experiment B2 — incremental recompilation via per-stage caching.

The paper's central claim — change the instrumentation *without*
recompiling the design — measured at the compile-flow level: a sweep of
warm single-knob configuration changes (the kind a debugging engineer
makes between turns) under two cost models:

* **cold** — no cache at all: every change pays the full generic flow,
  the conventional-recompile baseline (the same stage graph with caching
  disabled);
* **stage-granular** — the ``ArtifactStore`` of :mod:`repro.pipeline`:
  each stage keyed by exactly the config fields it reads plus upstream
  keys, so a changed ``fold_polarity`` rebuilds only the TCON mapping and
  a changed ``trace_depth`` rebuilds nothing.

Headline assertion: the stage-granular sweep beats the cold sweep on
wall clock, with identical artifacts.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.conftest import emit, emit_json
from repro.baselines.incremental import invalidation_table, stages_invalidated
from repro.campaign import ArtifactStore, resolve_offline
from repro.core.flow import DebugFlowConfig
from repro.util.trace import Trace
from repro.workloads import campaign_spec, generate_circuit

#: Sized so one generic stage costs a measurable fraction of a second —
#: large enough that key hashing is noise, small enough for CI.
SPEC = campaign_spec("incr-bench", n_gates=400, depth=10, n_pis=24, n_pos=12)

BASE = DebugFlowConfig()
#: One knob flipped per debugging turn — each invalidating a different
#: suffix of the stage graph (deepest reuse first).
VARIANTS = [
    ("trace_depth=2048", replace(BASE, trace_depth=2048)),
    ("fold_polarity=off", replace(BASE, fold_polarity=False)),
    ("n_buffer_inputs=12", replace(BASE, n_buffer_inputs=12)),
    ("area_rounds=1", replace(BASE, area_rounds=1)),
]


def _sweep(cache) -> tuple[float, list[str]]:
    """Build the base config then every variant; returns (seconds, summaries)."""
    net = generate_circuit(SPEC)
    summaries = []
    trace = Trace()
    with trace.span("sweep"):
        for _, cfg in [("base", BASE), *VARIANTS]:
            stage, _ = resolve_offline(net, cfg, cache=cache)
            summaries.append(stage.summary())
    return trace.seconds()["sweep"], summaries


@pytest.mark.slow
def test_incremental_stage_cache_speedup(results_dir):
    cold_s, cold_sum = _sweep(None)
    store = ArtifactStore()
    stage_s, stage_sum = _sweep(store)

    # caching may never change what is built
    assert stage_sum == cold_sum, "stage caching changed artifacts"

    net = generate_circuit(SPEC)
    per_variant = {
        label: stages_invalidated(net, BASE, cfg) for label, cfg in VARIANTS
    }
    assert per_variant["trace_depth=2048"] == []
    assert per_variant["fold_polarity=off"] == ["tcon-map"]

    speedup_vs_cold = cold_s / stage_s if stage_s else 0.0
    text = (
        "INCREMENTAL RECOMPILATION — STAGE-GRANULAR CACHING (measured)\n"
        f"{SPEC.name} ({SPEC.n_gates} gates); base config + "
        f"{len(VARIANTS)} warm single-knob changes, generic flow\n\n"
        f"cold (conventional recompile):  {cold_s:8.2f} s\n"
        f"stage-granular cache:           {stage_s:8.2f} s\n\n"
        f"stage vs cold: {speedup_vs_cold:.2f}x\n\n"
        "stages invalidated per change (parameterized vs conventional):\n"
        + invalidation_table(net, BASE, VARIANTS)
        + "\n\nper-stage store accounting:\n"
        + "\n".join(
            f"  {name}: {stats}"
            for name, stats in store.stats.as_dict()["per_stage"].items()
        )
    )
    emit(results_dir, "incremental_stage_cache", text)
    emit_json(
        results_dir,
        "incremental",
        {
            "cold_s": cold_s,
            "stage_granular_s": stage_s,
            "speedup_vs_cold": speedup_vs_cold,
            "variants": len(VARIANTS),
        },
    )

    assert speedup_vs_cold >= 1.2, (
        f"stage-granular caching gained only {speedup_vs_cold:.2f}x over "
        "cold recompiles on a warm single-knob sweep"
    )


@pytest.mark.slow
def test_stage_cache_disk_warm_restart(results_dir, tmp_path):
    """A fresh process (fresh store, same directory) reuses every stage."""
    d = str(tmp_path / "cache")
    net = generate_circuit(SPEC)
    first = ArtifactStore(cache_dir=d)
    trace = Trace()
    with trace.span("cold"):
        resolve_offline(net, BASE, cache=first)

    restarted = ArtifactStore(cache_dir=d)
    with trace.span("warm"):
        stage, hit = resolve_offline(net, BASE, cache=restarted)
    cold_s, warm_s = trace.seconds()["cold"], trace.seconds()["warm"]
    assert hit and restarted.stats.misses == 0
    assert restarted.stats.disk_hits == restarted.stats.hits
    assert stage.summary()

    ratio = cold_s / warm_s if warm_s else 0.0
    text = (
        "STAGE CACHE — CROSS-PROCESS WARM RESTART (measured)\n"
        f"cold build: {cold_s:.2f} s; disk-warm restart: "
        f"{warm_s:.2f} s ({ratio:.1f}x)\n"
        f"stats: {restarted.stats.as_dict()}"
    )
    emit(results_dir, "incremental_disk_restart", text)
    emit_json(
        results_dir,
        "incremental",
        {
            "disk_cold_s": cold_s,
            "disk_warm_s": warm_s,
            "disk_restart_speedup": ratio,
        },
    )
