"""Experiment R1 — §V-C.2: run-time overhead of the online stage.

Specialization (PConf Boolean-function evaluation + partial
reconfiguration) vs full reconfiguration on the modeled Virtex-5:
the paper quotes ≤50 µs evaluation, 176 ms full configuration (~3 orders
of magnitude) and a break-even of ~5000 debugging turns at 400 MHz with a
4-tick debug loop.

The table's host "SCG software time" is the compiled PConf plan's.  The
bench also times the same respecializations of the same PConf on the
reference evaluator of ``benchmarks/ref_scg.py`` (checking equal stats
and frame sets on the way) and records both per-call medians, their
ratio against ``scg_floor``, and the modeled on-device evaluation time.
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks.conftest import emit, emit_json
from benchmarks.ref_scg import ReferenceSCG
from repro.analysis import run_runtime_overhead
from repro.analysis.experiments import run_benchmark_columns
from repro.core.costmodel import Virtex5Model
from repro.core.scg import SpecializedConfigGenerator
from repro.core.virtual import build_virtual_pconf
from repro.workloads import paper_suite

#: Compiled-over-reference host SCG time on clma must stay above this
#: (measured 53-65x on a 2-core x86-64 host).
SCG_FLOOR = 10.0
#: Passes over the table's respecializations per evaluator.
ROUNDS = 5


def _specialize_seconds(scg: SpecializedConfigGenerator, assign) -> float:
    """Host time of one evaluation of ``scg``'s PConf for ``assign`` —
    the work a respecialization does before its frame diff."""
    t0 = time.perf_counter()
    scg.pconf.specialize(assign)
    return time.perf_counter() - t0


def _scg_software_times(model: Virtex5Model) -> dict:
    """Per-call host SCG time of the compiled plan and of the reference
    evaluator on ``run_runtime_overhead``'s PConf and assignments."""
    cols = run_benchmark_columns(paper_suite()[3])  # cached by the table run
    design = cols.offline.instrumented
    pconf = build_virtual_pconf(cols.offline.mapping, design).bitstream
    net, taps = design.network, design.taps
    assigns = [
        design.param_space.assignment(
            design.selection_for([net.node_name(taps[(i * 7) % len(taps)])])
        )
        for i in range(8)
    ]
    fast = SpecializedConfigGenerator(pconf, model=model)
    ref = ReferenceSCG(pconf, model=model)
    zeros = design.param_space.zeros()
    fast.load_full(zeros)
    ref.load_full(zeros)
    fast_s: list[float] = []
    ref_s: list[float] = []
    for _ in range(ROUNDS):
        for assign in assigns:
            got, want = fast.respecialize(assign), ref.respecialize(assign)
            assert got.stats == want.stats
            assert got.frames_touched == want.frames_touched
            fast_s.append(_specialize_seconds(fast, assign))
            ref_s.append(_specialize_seconds(ref, assign))
    scg_us = 1e6 * statistics.median(fast_s)
    ref_us = 1e6 * statistics.median(ref_s)
    return {
        "scg_software_us": scg_us,
        "ref_scg_software_us": ref_us,
        "scg_speedup": ref_us / scg_us,
        "scg_floor": SCG_FLOOR,
        "evaluation_us": 1e6 * got.device_cost.evaluation_s,
        "host_cores": os.cpu_count() or 1,
    }


def test_runtime_overhead(benchmark, results_dir):
    text = benchmark.pedantic(
        lambda: run_runtime_overhead(),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    emit(results_dir, "runtime_overhead", text)

    model = Virtex5Model()
    full = model.full_reconfig_s()
    assert abs(full - 0.176) < 0.002, "full reconfiguration must be ~176 ms"
    assert model.debug_turn_s() == 4 / 400e6
    # 50 us of specialization amortizes over ~5000 debugging turns
    assert model.break_even_turns(50e-6) == 5000

    # three-orders-of-magnitude shape from the measured report
    factor = None
    for line in text.splitlines():
        if line.startswith("shape check"):
            factor = float(line.split("is ")[1].split("x")[0])
            assert factor >= 1000, f"only {factor}x faster than full reconfig"

    scg = _scg_software_times(model)
    print(
        f"host SCG time per respecialization on clma: "
        f"{scg['ref_scg_software_us']:.0f} us reference -> "
        f"{scg['scg_software_us']:.0f} us compiled "
        f"({scg['scg_speedup']:.1f}x; modeled on-device evaluation "
        f"{scg['evaluation_us']:.1f} us)"
    )
    assert scg["scg_speedup"] >= SCG_FLOOR, (
        f"compiled SCG only {scg['scg_speedup']:.1f}x the reference "
        f"(< {SCG_FLOOR}x floor)"
    )
    emit_json(
        results_dir,
        "runtime_overhead",
        {
            "full_reconfig_s": full,
            "debug_turn_s": model.debug_turn_s(),
            "break_even_turns_50us": model.break_even_turns(50e-6),
            "specialization_vs_full_factor": factor,
            **scg,
        },
    )
