#!/usr/bin/env python
"""Quickstart: the whole debug flow on a small circuit in ~40 lines.

Offline (once): synthesize → parameterize signals → TCON-map → PConf.
Online (per debugging turn): pick signals → SCG respecializes → run →
read waveforms.  No recompilation anywhere.

Run:  python examples/quickstart.py
"""

import os
import sys

# allow running straight from a source checkout, from any working directory
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import DebugSession, generate_circuit, get_spec, run_generic_stage

def main() -> None:
    # a synthetic stand-in for the paper's stereovision benchmark
    net = generate_circuit(get_spec("stereov."))
    print(f"design: {net}")

    # ---- offline "generic" stage: runs once -----------------------------
    offline = run_generic_stage(net)
    print("offline:", offline.summary())
    print("  flow phases:")
    for name, secs in offline.trace.seconds("stage.").items():
        print(f"    {name:<24s} {secs:10.4f} s")

    # ---- online stage: each turn costs microseconds, not a recompile ----
    session = DebugSession(offline)
    signals = session.observable_signals[:4]
    routed = session.observe(signals)
    print(f"\nobserving {signals}")
    print(f"buffer hookup: {routed}")

    # drive a simple walking-ones stimulus for 64 cycles
    pi_names = [net.node_name(p) for p in net.pis]
    session.run(
        64,
        stimulus=lambda cyc: {pi_names[cyc % len(pi_names)]: 1},
    )
    for sig, wave in session.waveforms().items():
        bits = "".join(str(int(b)) for b in wave[-32:])
        print(f"  {sig:>10s} ...{bits}")

    # switch the observed set — this is the paper's headline operation
    new_signals = session.observable_signals[4:8]
    session.observe(new_signals)
    session.run(64, stimulus=lambda cyc: {pi_names[0]: cyc & 1})
    print(f"\nswitched to {new_signals} without recompilation")
    report = session.amortization_report()
    print(
        f"modeled specialization overhead: "
        f"{report['modeled_overhead_s'] * 1e6:.1f} us over "
        f"{int(report['specializations'])} turns "
        f"(break-even {int(report['break_even_turns_per_specialization'])} "
        f"debug turns each)"
    )


if __name__ == "__main__":
    main()
