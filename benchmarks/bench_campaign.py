"""Experiment B1 — campaign-level amortization of the offline stage.

The paper's economics, measured at batch scale: a debug campaign of many
bug scenarios on one design pays the offline stage (generic + physical
back-end, §IV-A) once when artifacts are cached by content, versus once
*per scenario* under conventional recompilation.  A cold campaign already
shares one build among a design's scenarios, so the conventional baseline
is built here as one cold single-scenario campaign per scenario.  The
headline assertion is the acceptance criterion of the campaign layer: ≥2×
wall-clock speedup on a ≥8-scenario campaign from offline-stage caching
alone.

Also reports online-phase parallel scaling (worker pool vs serial) for
reference — on single-core CI runners the pool can't win, so no shape is
asserted there.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit, emit_json
from repro.campaign import ArtifactStore, CampaignConfig, run_campaign
from repro.pipeline import GENERIC_STAGES, PHYSICAL_STAGES
from repro.workloads import campaign_spec, stuck_at_scenarios

#: Combinational design (the physical back-end does not route latches yet)
#: sized so one full offline stage costs seconds while each online debug
#: loop costs a fraction of that — the regime the paper targets.
SPEC = campaign_spec("campaign-bench", n_gates=120, depth=8, n_pis=20, n_pos=10)
N_SCENARIOS = 8
HORIZON = 48


@pytest.fixture(scope="module")
def scenarios():
    return stuck_at_scenarios(SPEC, N_SCENARIOS, horizon=HORIZON)


@pytest.mark.slow
def test_campaign_cache_speedup(scenarios, results_dir):
    config = CampaignConfig(workers=1, with_physical=True)

    # conventional: every scenario pays its own full offline stage
    cold = [
        run_campaign([sc], config=config, cache=None) for sc in scenarios
    ]
    cold_wall_s = sum(r.wall_s for r in cold)
    cold_offline_s = sum(r.offline_total_s for r in cold)
    cold_online_s = sum(r.online_total_s for r in cold)
    # cached: the design builds once, the other seven scenarios share it
    store = ArtifactStore()
    warm = run_campaign(scenarios, config=config, cache=store)

    assert warm.outcomes() == [o for r in cold for o in r.outcomes()], (
        "caching changed results"
    )
    stages = GENERIC_STAGES + PHYSICAL_STAGES
    assert all(store.stats.for_stage(s).misses == 1 for s in stages)
    hits = [r.offline_cache_hit for r in warm.results]
    assert hits == [False] + [True] * (N_SCENARIOS - 1)
    statuses = {r.status for r in warm.results}
    assert "error" not in statuses and "undetected" not in statuses

    speedup = cold_wall_s / warm.wall_s
    text = (
        "CAMPAIGN OFFLINE-STAGE AMORTIZATION (measured)\n"
        f"{N_SCENARIOS}-scenario stuck-at campaign on "
        f"{SPEC.name} ({SPEC.n_gates} gates), full offline stage "
        "(generic + pack/place/route + bitstream)\n\n"
        f"cold, one build per scenario: {cold_wall_s:8.2f} s  "
        f"({cold_offline_s:.2f} s offline, {cold_online_s:.2f} s online)\n"
        f"content-keyed cache:          {warm.wall_s:8.2f} s  "
        f"({warm.offline_total_s:.2f} s offline, "
        f"{warm.online_total_s:.2f} s online)\n\n"
        f"cache-hit speedup: {speedup:.2f}x "
        f"(1 build + {N_SCENARIOS - 1} shared)\n\n"
        "warm-campaign report:\n" + warm.render()
    )
    emit(results_dir, "campaign_cache_speedup", text)
    emit_json(
        results_dir,
        "campaign",
        {
            "scenarios": N_SCENARIOS,
            "cold_wall_s": cold_wall_s,
            "warm_wall_s": warm.wall_s,
            "cache_speedup": speedup,
            # per-stage offline build cost of the single warm-run build —
            # the physical-pipeline breakdown PR 5's rewrites target
            "offline_stage_s": {
                k: round(v, 3) for k, v in warm.offline_stage_s.items()
            },
            # supervision counters: a healthy bench run is all zeros;
            # nonzero retries/timeouts/respawns flag an unstable runner
            "resilience": warm.resilience(),
        },
    )

    assert speedup >= 2.0, (
        f"offline-stage caching gained only {speedup:.2f}x on a "
        f"{N_SCENARIOS}-scenario campaign"
    )


@pytest.mark.slow
def test_campaign_parallel_scaling(scenarios, results_dir):
    cache = ArtifactStore()
    # pre-warm so both runs measure the online phase only
    run_campaign(scenarios[:1], config=CampaignConfig(workers=1), cache=cache)

    serial = run_campaign(
        scenarios, config=CampaignConfig(workers=1), cache=cache
    )
    pooled = run_campaign(
        scenarios, config=CampaignConfig(workers=4), cache=cache
    )
    assert serial.outcomes() == pooled.outcomes(), "worker pool changed results"

    ratio = serial.wall_s / pooled.wall_s if pooled.wall_s else 0.0
    text = (
        "CAMPAIGN ONLINE-PHASE PARALLEL SCALING (measured)\n"
        f"{N_SCENARIOS} online debug loops, offline artifact cached\n\n"
        f"serial:           {serial.wall_s:8.2f} s\n"
        f"4-worker pool:    {pooled.wall_s:8.2f} s\n"
        f"speedup:          {ratio:8.2f}x  "
        "(bounded by available cores; reference only)\n"
    )
    for note in pooled.notes:
        text += f"note: {note}\n"
    emit(results_dir, "campaign_parallel_scaling", text)
    emit_json(
        results_dir,
        "campaign",
        {
            "serial_wall_s": serial.wall_s,
            "pooled_wall_s": pooled.wall_s,
            "pool_speedup": ratio,
            "effective_workers": pooled.workers,
        },
    )
