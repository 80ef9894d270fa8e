"""Experiment K — compiled simulation kernels vs the interpreted path.

Three measurements, one per acceptance criterion:

* **per-step** (fast; the CI bench-smoke floor): a single packed
  emulation step of the mapped campaign design, compiled
  (:mod:`repro.netlist.compiled` — generated straight-line kernel over
  word-packed integers) vs interpreted (per-gate numpy cover
  evaluation).  Target: **≥5× single-word step speedup**.
* **backend axis** (fast; the CI backend floor): the same compiled
  program executed by the python big-int kernels vs the vectorized
  numpy lowering at **512 lanes** (8 words, cycle-batched), on a larger
  mapped design.  Target: **≥3× numpy-over-python step throughput at
  width ≥512**.
* **end-to-end** (slow tier): the PR 3 32-scenario stuck-at campaign at
  ``lane_width=64`` run compiled vs ``interpreted=True``, offline cache
  pre-warmed so only the online phase is compared.  Target: **≥2×
  online-phase speedup** with byte-identical outcomes.

All write their headline numbers into ``results/BENCH_kernels.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import emit, emit_json
from repro.campaign import ArtifactStore, CampaignConfig, run_campaign
from repro.core.flow import run_generic_stage
from repro.netlist.simulate import SequentialSimulator
from repro.workloads import campaign_spec, generate_circuit, stuck_at_scenarios

SPEC = campaign_spec("kernels-bench", n_gates=150, depth=8, n_pis=20, n_pos=10)
N_SCENARIOS = 32
HORIZON = 48
STEP_CYCLES = 300

#: Acceptance bar on dev machines; CI's bench-smoke job overrides this to
#: its conservative 3x floor (shared runners are noisy) via the env var
#: and re-enforces the same floor from the emitted JSON.
STEP_FLOOR = float(os.environ.get("REPRO_KERNEL_STEP_FLOOR", "5.0"))

#: The backend axis: numpy-over-python throughput at 512 lanes.  The
#: wide design below measures ~3.3x in a 1-core container; the floor is
#: the issue's acceptance bar.
NUMPY_FLOOR = float(os.environ.get("REPRO_NUMPY_STEP_FLOOR", "3.0"))
WIDE_SPEC = campaign_spec(
    "kernels-bench-wide", n_gates=600, depth=10, n_pis=40, n_pos=20
)
WIDE_WORDS = 8  # 512 lanes
WIDE_CYCLES = 192


@pytest.fixture(scope="module")
def mapped_net():
    # the network the online engine actually steps: the mapped LUT/TCON
    # materialization, not the source netlist
    offline = run_generic_stage(generate_circuit(SPEC))
    return offline.mapping.to_lut_network()


def _time_steps(sim: SequentialSimulator, stims: list[dict]) -> float:
    t0 = time.perf_counter()
    for stim in stims:
        sim.step(stim)
    return (time.perf_counter() - t0) / len(stims)


def test_step_kernel_speedup(mapped_net, results_dir):
    rng = np.random.default_rng(0)
    stims = [
        {
            p: rng.integers(
                0,
                np.iinfo(np.uint64).max,
                size=1,
                dtype=np.uint64,
                endpoint=True,
            )
            for p in mapped_net.pis
        }
        for _ in range(STEP_CYCLES)
    ]

    interp = SequentialSimulator(mapped_net, interpreted=True)
    compiled = SequentialSimulator(mapped_net)

    # parity spot-check before timing: same stimulus, identical values
    vi = interp.step(stims[0])
    vc = compiled.step(stims[0])
    for nid in mapped_net.nodes():
        assert np.array_equal(vi[nid], vc[nid]), mapped_net.node_name(nid)
    interp.reset()
    compiled.reset()

    t_interp = _time_steps(interp, stims)
    t_compiled = _time_steps(compiled, stims)
    speedup = t_interp / t_compiled

    text = (
        "COMPILED SIMULATION KERNELS — per-step (measured)\n"
        f"mapped {SPEC.name} ({mapped_net.n_gates} LUT/TCON gates, "
        f"{mapped_net.n_pis} PIs), single packed word, "
        f"{STEP_CYCLES} cycles\n\n"
        f"interpreted (per-gate numpy covers): {t_interp * 1e6:9.1f} us/step\n"
        f"compiled (generated int kernel):     {t_compiled * 1e6:9.1f} us/step\n\n"
        f"per-step speedup: {speedup:.1f}x  (floor: {STEP_FLOOR:g}x)\n"
        "values bit-identical across every node\n"
    )
    emit(results_dir, "kernel_step_speedup", text)
    emit_json(
        results_dir,
        "kernels",
        {
            "design": SPEC.name,
            "mapped_gates": mapped_net.n_gates,
            "step_cycles": STEP_CYCLES,
            "interpreted_us_per_step": t_interp * 1e6,
            "compiled_us_per_step": t_compiled * 1e6,
            "step_speedup": speedup,
        },
    )
    assert speedup >= STEP_FLOOR, (
        f"compiled kernel gained only {speedup:.2f}x per step"
    )


def test_numpy_backend_speedup_512_lanes(results_dir):
    """Backend axis: python big-int kernels vs the vectorized numpy
    lowering, same compiled program, 512 lanes (8 words)."""
    import random

    from repro.netlist.compiled import CompiledSimulator, program_for

    offline = run_generic_stage(generate_circuit(WIDE_SPEC))
    net = offline.mapping.to_lut_network()
    program = program_for(net)
    rng = random.Random(0)
    stims = [
        {p: rng.getrandbits(64 * WIDE_WORDS) for p in net.pis}
        for _ in range(WIDE_CYCLES)
    ]

    py = CompiledSimulator(program, WIDE_WORDS, backend="python")
    vec = CompiledSimulator(program, WIDE_WORDS, backend="numpy")

    # parity spot-check before timing: a few stepwise cycles, every node
    for stim in stims[:4]:
        py.step(stim)
        vec.step(stim)
        nodes = list(net.nodes())
        assert py.node_ints(nodes) == vec.node_ints(nodes)

    # each backend is fed its native stimulus format, prepared up front:
    # big-int dicts for the python kernels, dense uint64 matrices (one
    # per batch, ``run_block_array``) for the vectorized plan — the
    # measurement is kernel step throughput, not int<->array conversion
    blk = vec.block_cycles
    wb = 8 * WIDE_WORDS
    batches = []
    for at in range(0, len(stims), blk):
        chunk = stims[at : at + blk]
        data = b"".join(
            row[p].to_bytes(wb, "little") for p in program.pi_nodes for row in chunk
        )
        batches.append(
            np.frombuffer(data, dtype=np.uint64).reshape(
                len(program.pi_nodes), len(chunk) * WIDE_WORDS
            )
        )

    def time_python() -> float:
        py.reset()
        t0 = time.perf_counter()
        for stim in stims:
            py.step(stim)
        return (time.perf_counter() - t0) / len(stims)

    def time_numpy() -> float:
        vec.reset()
        t0 = time.perf_counter()
        for batch in batches:
            vec.run_block_array(batch)
        return (time.perf_counter() - t0) / len(stims)

    t_py = min(time_python() for _ in range(3))
    t_np = min(time_numpy() for _ in range(3))
    speedup = t_py / t_np

    # batched-path parity: the final batch's last cycle must match the
    # python backend's final step bit for bit
    nodes = list(net.nodes())
    assert py.node_ints(nodes) == vec.node_ints(nodes)

    text = (
        "COMPILED SIMULATION KERNELS — backend axis (measured)\n"
        f"mapped {WIDE_SPEC.name} ({net.n_gates} LUT/TCON gates, "
        f"{net.n_pis} PIs), {64 * WIDE_WORDS} lanes ({WIDE_WORDS} words), "
        f"{WIDE_CYCLES} cycles, numpy cycle-batching x{vec.block_cycles}\n\n"
        f"python backend (big-int kernels):  {t_py * 1e6:9.1f} us/step\n"
        f"numpy backend (vectorized plan):   {t_np * 1e6:9.1f} us/step\n\n"
        f"numpy-over-python speedup: {speedup:.2f}x  "
        f"(floor: {NUMPY_FLOOR:g}x)\n"
        "values bit-identical across every node\n"
    )
    emit(results_dir, "kernel_numpy_speedup", text)
    emit_json(
        results_dir,
        "kernels",
        {
            "wide_design": WIDE_SPEC.name,
            "wide_mapped_gates": net.n_gates,
            "wide_lane_width": 64 * WIDE_WORDS,
            "wide_block_cycles": vec.block_cycles,
            "python_us_per_step_512": t_py * 1e6,
            "numpy_us_per_step_512": t_np * 1e6,
            "numpy_step_speedup_512": speedup,
        },
    )
    assert speedup >= NUMPY_FLOOR, (
        f"numpy backend gained only {speedup:.2f}x at 512 lanes"
    )


@pytest.mark.slow
def test_online_phase_speedup(results_dir):
    scenarios = stuck_at_scenarios(SPEC, N_SCENARIOS, horizon=HORIZON)
    cache = ArtifactStore()
    # pre-warm the offline artifact so both runs measure the online phase
    run_campaign(scenarios[:1], config=CampaignConfig(), cache=cache)

    interp = run_campaign(
        scenarios,
        config=CampaignConfig(lane_width=64, interpreted=True),
        cache=cache,
    )
    compiled = run_campaign(
        scenarios, config=CampaignConfig(lane_width=64), cache=cache
    )

    assert compiled.outcomes() == interp.outcomes(), (
        "compiled kernels changed campaign outcomes"
    )
    assert "error" not in {r.status for r in compiled.results}

    speedup = interp.online_total_s / compiled.online_total_s
    text = (
        "COMPILED SIMULATION KERNELS — online phase (measured)\n"
        f"{N_SCENARIOS}-scenario stuck-at campaign on {SPEC.name}, "
        f"lane_width=64, horizon {HORIZON}, offline cache pre-warmed\n\n"
        f"interpreted engine: {interp.online_total_s:8.2f} s online "
        f"({interp.wall_s:.2f} s wall)\n"
        f"compiled kernels:   {compiled.online_total_s:8.2f} s online "
        f"({compiled.wall_s:.2f} s wall)\n\n"
        f"online-phase speedup: {speedup:.2f}x  (acceptance floor: 2x)\n"
        "outcomes: byte-identical\n"
    )
    emit(results_dir, "kernel_online_speedup", text)
    emit_json(
        results_dir,
        "kernels",
        {
            "campaign_scenarios": N_SCENARIOS,
            "campaign_horizon": HORIZON,
            "interpreted_online_s": interp.online_total_s,
            "compiled_online_s": compiled.online_total_s,
            "online_speedup": speedup,
        },
    )
    assert speedup >= 2.0, (
        f"compiled kernels gained only {speedup:.2f}x online"
    )
