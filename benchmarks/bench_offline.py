"""Experiment C2 — offline physical-pipeline throughput (PR 5).

The paper's economics assume the offline flow is paid once and amortized,
but through PR 4 our reproduction's pack/place/route was the wall-clock
bottleneck by two orders of magnitude (~13 s per paper-suite design vs
~0.1 s of online debugging).  This benchmark pins the two PR 5 rewrites:

* **single-design physical-stage speedup** — the incremental-HPWL
  annealer (:func:`repro.place.tplace.place_design`) and the array-backed
  PathFinder (:class:`repro.route.pathfinder.PathFinder`) against the
  dictionary-based reference implementations they were rewritten from
  (``ref_place.py``, ``ref_route.py`` beside this file), on identical
  packed designs / placements.  Acceptance: **≥5×** (CI smoke runs a
  conservative 3× floor via ``REPRO_OFFLINE_FLOOR``).
* **cross-design build scaling** — an 8-design cold campaign at
  ``workers=4`` must beat serial offline builds by **≥2×** wall-clock
  (≥1.2× on 2-core hosts) with byte-identical outcomes.  Outcome parity
  is asserted unconditionally; the wall-clock floor only where the host
  actually has cores to scale across (single-core CI runners and
  sandboxes cannot parallelize processes, following the
  ``bench_campaign`` precedent).

Quality is gated alongside speed: the rewritten placer/router must be
equal-or-better on HPWL, wirelength and overuse (see also
``tests/test_physical_perf.py``).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import emit, emit_json
from benchmarks.ref_place import place_design_ref
from benchmarks.ref_route import PathFinderRef
from repro.arch.routing_graph import build_rr_graph
from repro.arch.virtex5 import VIRTEX5_LIKE
from repro.physical import pack_stage
from repro.place import place_design
from repro.route import route_design
from repro.workloads import get_spec, generate_circuit

OFFLINE_FLOOR = float(os.environ.get("REPRO_OFFLINE_FLOOR", "5.0"))
SEED = 2016
WORKERS = 4


@pytest.fixture(scope="module")
def packed():
    """The paper-suite design, mapped and packed once."""
    from repro.core.flow import run_generic_stage

    net = generate_circuit(get_spec("stereov."))
    offline = run_generic_stage(net)
    return pack_stage(offline.mapping, offline.instrumented, VIRTEX5_LIKE)


def test_physical_stage_speedup(packed, results_dir):
    # --- placement: rewritten vs reference on the identical packed design
    t0 = time.perf_counter()
    p_new = place_design(packed, seed=SEED)
    place_new_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    p_ref = place_design_ref(packed, seed=SEED)
    place_ref_s = time.perf_counter() - t0

    # --- routing: rewritten vs reference, each on its own placement (what
    # the production flow would have run end to end)
    rr_new = build_rr_graph(p_new.grid)
    t0 = time.perf_counter()
    r_new = route_design(p_new, rr_new)
    route_new_s = time.perf_counter() - t0
    rr_ref = build_rr_graph(p_ref.grid)
    t0 = time.perf_counter()
    r_ref = route_design(p_ref, rr_ref, pathfinder=PathFinderRef)
    route_ref_s = time.perf_counter() - t0

    speedup = (place_ref_s + route_ref_s) / (place_new_s + route_new_s)
    text = (
        "OFFLINE PHYSICAL-STAGE SPEEDUP (measured)\n"
        "paper-suite design stereov., identical packed input, seed "
        f"{SEED}\n\n"
        f"place: reference {place_ref_s:7.2f} s   rewritten "
        f"{place_new_s:7.2f} s   ({place_ref_s / place_new_s:.1f}x)\n"
        f"route: reference {route_ref_s:7.2f} s   rewritten "
        f"{route_new_s:7.2f} s   ({route_ref_s / route_new_s:.1f}x)\n\n"
        f"physical-stage speedup: {speedup:.1f}x  (floor: "
        f"{OFFLINE_FLOOR:g}x)\n\n"
        "quality (equal-or-better required):\n"
        f"  HPWL:        reference {p_ref.cost:8.1f}   rewritten "
        f"{p_new.cost:8.1f}\n"
        f"  wires used:  reference {r_ref.total_wires_used():8d}   "
        f"rewritten {r_new.total_wires_used():8d}\n"
        f"  iterations:  reference {r_ref.iterations:8d}   rewritten "
        f"{r_new.iterations:8d}\n"
    )
    emit(results_dir, "offline_physical_speedup", text)
    emit_json(
        results_dir,
        "offline",
        {
            "design": "stereov.",
            "place_ref_s": place_ref_s,
            "place_new_s": place_new_s,
            "route_ref_s": route_ref_s,
            "route_new_s": route_new_s,
            "physical_speedup": speedup,
            "hpwl_ref": p_ref.cost,
            "hpwl_new": p_new.cost,
            "wires_ref": r_ref.total_wires_used(),
            "wires_new": r_new.total_wires_used(),
        },
    )

    # quality gates ride along with the speed assertion; a single seed's
    # anneal outcome swings ±1% with any upstream netlist change (the
    # PR 10 mapping rewrite shifted same-rank cut tie-breaks), so the
    # placer gate carries that tolerance — the seed-robust equal-or-better
    # comparison lives in tests/test_physical_perf.py::TestQualityGates
    assert p_new.cost <= 1.01 * p_ref.cost, "rewritten placer lost HPWL quality"
    assert r_new.total_wires_used() <= 1.01 * r_ref.total_wires_used(), (
        "rewritten router lost wirelength quality"
    )
    assert speedup >= OFFLINE_FLOOR, (
        f"physical stage gained only {speedup:.2f}x "
        f"(floor {OFFLINE_FLOOR:g}x)"
    )


@pytest.mark.slow
def test_offline_parallel_scaling(results_dir):
    """8 distinct cold designs: workers=4 vs serial builds."""
    from repro.campaign import CampaignConfig, run_campaign
    from repro.workloads import campaign_spec, mutation_scenarios

    spec = campaign_spec(
        "offline-bench", n_gates=180, depth=8, n_pis=24, n_pos=12
    )
    # each mutation is its own design content — 8 distinct offline builds
    scenarios = mutation_scenarios(spec, 8, seed=11, horizon=48)

    serial = run_campaign(
        scenarios,
        config=CampaignConfig(workers=1, with_physical=True),
        cache=None,
    )
    parallel = run_campaign(
        scenarios,
        config=CampaignConfig(workers=WORKERS, with_physical=True),
        cache=None,
    )
    assert parallel.outcomes() == serial.outcomes(), (
        "parallel offline builds changed results"
    )

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    scaling = serial.offline_wall_s / parallel.offline_wall_s
    text = (
        "CROSS-DESIGN OFFLINE BUILD SCALING (measured)\n"
        "8 distinct mutated designs, full offline stage (generic + "
        "pack/place/route + bitstream), cold\n\n"
        f"serial builds:        {serial.offline_wall_s:8.2f} s offline "
        f"wall ({serial.wall_s:.2f} s campaign)\n"
        f"{WORKERS} workers:            {parallel.offline_wall_s:8.2f} s "
        f"offline wall ({parallel.wall_s:.2f} s campaign)\n\n"
        f"offline scaling: {scaling:.2f}x  (pool size: "
        f"{parallel.workers}, host cores: {cores})\n"
        "outcomes: byte-identical to serial builds\n"
    )
    emit(results_dir, "offline_parallel_scaling", text)
    emit_json(
        results_dir,
        "offline",
        {
            "designs": 8,
            "serial_offline_wall_s": serial.offline_wall_s,
            "parallel_offline_wall_s": parallel.offline_wall_s,
            "offline_scaling": scaling,
            "workers": parallel.workers,
            "host_cores": cores,
            "offline_stage_s": {
                k: round(v, 3) for k, v in serial.offline_stage_s.items()
            },
        },
    )

    # process-level scaling needs processors: on a single-core host the
    # pool can only add overhead, so (like bench_campaign's online pool
    # test) the wall-clock floor is asserted only where cores exist
    if cores >= 4:
        assert scaling >= 2.0, (
            f"{WORKERS} workers gained only {scaling:.2f}x on 8 cold designs"
        )
    elif cores >= 2:
        assert scaling >= 1.2, (
            f"{WORKERS} workers gained only {scaling:.2f}x on {cores} cores"
        )
