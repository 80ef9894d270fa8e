"""Experiment K — compiled simulation kernels vs the interpreted path.

Three measurements, one per acceptance criterion:

* **per-step** (fast; the CI bench-smoke floor): a single packed
  emulation step of the mapped campaign design at 64 lanes, compiled
  (:class:`~repro.netlist.compiled.CompiledSimulator` — generated
  straight-line kernel over lane-packed integers) vs interpreted (the
  per-gate numpy cover evaluation of
  ``benchmarks/ref_simulate.py::ReferenceKernel``), both fed the same
  integers.  Target: **≥5× single-word step speedup**.
* **block axis** (fast; the CI block floor): per-cycle cost of one
  compiled program stepped a cycle at a time vs evaluated in
  cycle-batched blocks (``run_block``), on a larger mapped design at
  1, 24, 64, 256, 512 and 1024 lanes (a simulator carries exactly its
  lanes, so the narrow legs evaluate narrower values).  Target: **≥3×
  block-over-step throughput at 512 lanes**, recorded as
  ``block_speedup`` next to its ``block_floor`` so
  ``tools/bench_report.py --check`` re-enforces it.
* **end-to-end** (slow tier): the PR 3 32-scenario stuck-at campaign at
  ``lane_width=64`` run compiled vs on the reference simulator
  (:func:`~benchmarks.ref_simulate.reference_online`), offline cache
  pre-warmed so only the online phase is compared.  Target: **≥2×
  online-phase speedup** with byte-identical outcomes.

All write their headline numbers into ``results/BENCH_kernels.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks import ref_simulate
from benchmarks.conftest import emit, emit_json
from repro.campaign import ArtifactStore, CampaignConfig, run_campaign
from repro.core.flow import run_generic_stage
from repro.netlist.compiled import CompiledSimulator, program_for, words_to_int
from repro.workloads import campaign_spec, generate_circuit, stuck_at_scenarios

SPEC = campaign_spec("kernels-bench", n_gates=150, depth=8, n_pis=20, n_pos=10)
N_SCENARIOS = 32
HORIZON = 48
STEP_CYCLES = 300

#: Acceptance bar on dev machines; CI's bench-smoke job overrides this to
#: its conservative 3x floor (shared runners are noisy) via the env var
#: and re-enforces the same floor from the emitted JSON.
STEP_FLOOR = float(os.environ.get("REPRO_KERNEL_STEP_FLOOR", "5.0"))

WIDE_SPEC = campaign_spec(
    "kernels-bench-wide", n_gates=600, depth=10, n_pis=40, n_pos=20
)
WIDE_CYCLES = 192
#: Lane counts of the block axis's legs: one lane (a debug session), a
#: 24-lane batch, then one to 16 words.
AXIS_LANES = (1, 24, 64, 256, 512, 1024)
#: The block axis's floor: python blocks over python steps per cycle at
#: 512 lanes (8 words).  The wide design measures ~7x on a 2-core host.
BLOCK_FLOOR = 3.0
BLOCK_FLOOR_LANES = 512


@pytest.fixture(scope="module")
def mapped_net():
    # the network the online engine actually steps: the mapped LUT/TCON
    # materialization, not the source netlist
    offline = run_generic_stage(generate_circuit(SPEC))
    return offline.mapping.to_lut_network()


def _time_steps(sim, stims: list[dict]) -> float:
    t0 = time.perf_counter()
    for stim in stims:
        sim.step(stim)
    return (time.perf_counter() - t0) / len(stims)


def test_step_kernel_speedup(mapped_net, results_dir):
    rng = np.random.default_rng(0)
    stims = [
        {
            p: words_to_int(
                rng.integers(
                    0,
                    np.iinfo(np.uint64).max,
                    size=1,
                    dtype=np.uint64,
                    endpoint=True,
                )
            )
            for p in mapped_net.pis
        }
        for _ in range(STEP_CYCLES)
    ]

    interp = ref_simulate.ReferenceKernel(mapped_net)
    compiled = CompiledSimulator(program_for(mapped_net))

    # parity spot-check before timing: same stimulus, identical values
    nodes = list(mapped_net.nodes())
    interp.step(stims[0])
    compiled.step(stims[0])
    assert interp.node_ints(nodes) == compiled.node_ints(nodes)
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


@pytest.mark.slow
def test_online_phase_speedup(results_dir):
    scenarios = stuck_at_scenarios(SPEC, N_SCENARIOS, horizon=HORIZON)
    cache = ArtifactStore()
    # pre-warm the offline artifact so both runs measure the online phase
    run_campaign(scenarios[:1], config=CampaignConfig(), cache=cache)

    with ref_simulate.reference_online():
        interp = run_campaign(
            scenarios, config=CampaignConfig(lane_width=64), cache=cache
        )
    compiled = run_campaign(
        scenarios, config=CampaignConfig(lane_width=64), cache=cache
    )

    assert compiled.outcomes() == interp.outcomes(), (
        "compiled kernels changed campaign outcomes"
    )
    assert "error" not in {r.status for r in compiled.results}

    interp_online_s = interp.trace.seconds()["online"]
    compiled_online_s = compiled.trace.seconds()["online"]
    speedup = interp_online_s / compiled_online_s
    text = (
        "COMPILED SIMULATION KERNELS — online phase (measured)\n"
        f"{N_SCENARIOS}-scenario stuck-at campaign on {SPEC.name}, "
        f"lane_width=64, horizon {HORIZON}, offline cache pre-warmed\n\n"
        f"interpreted engine: {interp_online_s:8.2f} s online "
        f"({interp.wall_s:.2f} s wall)\n"
        f"compiled kernels:   {compiled_online_s:8.2f} s online "
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
            "interpreted_online_s": interp_online_s,
            "compiled_online_s": compiled_online_s,
            "online_speedup": speedup,
        },
    )
    assert speedup >= 2.0, (
        f"compiled kernels gained only {speedup:.2f}x online"
    )


def test_backend_axis_block_legs(results_dir):
    """Block axis: per-cycle kernel cost of python steps and python
    blocks on the wide design at 1 to 1024 lanes.  Block stimulus is
    prepared up front as block-wide integers, so only kernel passes are
    timed."""
    import random

    from repro.netlist.compiled import CompiledSimulator, program_for

    offline = run_generic_stage(generate_circuit(WIDE_SPEC))
    net = offline.mapping.to_lut_network()
    program = program_for(net)
    nodes = list(net.nodes())
    legs: dict[str, dict[str, float]] = {"python_step": {}, "python_block": {}}
    lines = []
    for lanes in AXIS_LANES:
        rng = random.Random(lanes)
        stims = [
            {p: rng.getrandbits(lanes) for p in net.pis}
            for _ in range(WIDE_CYCLES)
        ]
        step = CompiledSimulator(program, lanes)
        pyb = CompiledSimulator(program, lanes)
        blk = pyb.block_cycles
        width = lanes
        chunks = [stims[at : at + blk] for at in range(0, WIDE_CYCLES, blk)]
        words = [
            {
                p: sum(row[p] << (c * width) for c, row in enumerate(chunk))
                for p in program.pi_nodes
            }
            for chunk in chunks
        ]

        def time_step() -> float:
            step.reset()
            t0 = time.perf_counter()
            for stim in stims:
                step.step(stim)
            return (time.perf_counter() - t0) / WIDE_CYCLES

        def time_python_block() -> float:
            pyb.reset()
            t0 = time.perf_counter()
            for w, chunk in zip(words, chunks):
                pyb.run_block(w, len(chunk))
            return (time.perf_counter() - t0) / WIDE_CYCLES

        timings = {
            "python_step": min(time_step() for _ in range(3)),
            "python_block": min(time_python_block() for _ in range(3)),
        }
        # both legs end on the same cycle with identical values
        assert step.node_ints(nodes) == pyb.node_ints(nodes)
        for leg, t in timings.items():
            legs[leg][str(lanes)] = t * 1e6
        lines.append(
            f"{lanes:5d} lanes  x{blk:<3d}  "
            + "  ".join(f"{timings[leg] * 1e6:11.1f}" for leg in legs)
        )

    at = str(BLOCK_FLOOR_LANES)
    speedup = legs["python_step"][at] / legs["python_block"][at]
    text = (
        "COMPILED SIMULATION KERNELS — block axis (measured)\n"
        f"mapped {WIDE_SPEC.name} ({net.n_gates} LUT/TCON gates, "
        f"{net.n_pis} PIs), {WIDE_CYCLES} cycles, us per cycle, "
        f"{os.cpu_count()} core(s)\n\n"
        "lanes       block  python-step  python-block\n"
        + "\n".join(lines)
        + f"\n\nblock-over-step speedup at {at} lanes: {speedup:.2f}x  "
        f"(floor: {BLOCK_FLOOR:g}x)\n"
        "values bit-identical across every node\n"
    )
    emit(results_dir, "kernel_backend_axis_blocks", text)
    emit_json(
        results_dir,
        "kernels",
        {
            "axis_design": WIDE_SPEC.name,
            "axis_cycles": WIDE_CYCLES,
            "axis_python_step_us_per_cycle": legs["python_step"],
            "axis_python_block_us_per_cycle": legs["python_block"],
            "block_speedup": speedup,
            "block_floor": BLOCK_FLOOR,
            "host_cores": os.cpu_count(),
        },
    )
    assert speedup >= BLOCK_FLOOR, (
        f"python blocks gained only {speedup:.2f}x over steps at {at} lanes"
    )
