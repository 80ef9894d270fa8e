"""Ablation A1 — trace-buffer input budget sweep.

The buffer-input count (B = #taps / 4 by default,
``DebugFlowConfig.n_buffer_inputs``) is the central instrumentation
knob: more buffer inputs mean more signals per debugging run but more
TCONs and wiring.  This sweep quantifies that trade-off on stereov.
"""

from __future__ import annotations

from benchmarks.conftest import emit, emit_json
from repro.core.muxnet import build_trace_network
from repro.mapping import AbcMap, TconMap
from repro.util.tables import TextTable
from repro.workloads import generate_circuit, get_spec


def _sweep():
    spec = get_spec("stereov.")
    net = generate_circuit(spec)
    initial = AbcMap().map(net)
    taps = sorted(initial.luts.keys()) + [l.q for l in net.latches]
    t = TextTable(
        ["buffer inputs", "signals/run", "LUTs", "TLUTs", "TCONs", "params"],
        aligns="rrrrrr",
    )
    rows = []
    for divisor in (2, 4, 8, 16):
        b = max(1, len(taps) // divisor)
        instr = build_trace_network(net, taps, n_buffer_inputs=b)
        tm = TconMap(
            params=instr.param_ids, taps=set(taps)
        ).map(instr.network)
        t.add_row(
            [
                b,
                b,
                tm.n_luts,
                tm.n_tluts,
                tm.n_tcons,
                len(instr.param_space),
            ]
        )
        rows.append((b, tm.n_tcons))
    return (
        "ABLATION A1 — TRACE-BUFFER INPUT BUDGET (stereov.)\n" + t.render(),
        rows,
    )


def test_ablation_mux_arity(benchmark, results_dir):
    text, rows = benchmark.pedantic(
        _sweep, rounds=1, iterations=1, warmup_rounds=0
    )
    emit(results_dir, "ablation_muxarity", text)
    emit_json(
        results_dir,
        "ablation_muxarity",
        {"tcons_per_budget": {str(b): t for b, t in rows}},
    )
    # rows sweep b from large to small; fewer buffer inputs → deeper trees
    # → more muxes → monotonically more TCONs
    tcons = [t for _b, t in rows]
    assert tcons == sorted(tcons), f"TCONs not monotone over budget: {tcons}"
