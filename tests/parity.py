"""Shared helpers for the differential parity harnesses.

The compiled simulation kernels (the generated big-int kernels) are the
implementation under test; the reference per-gate simulator of
``benchmarks/ref_simulate.py`` and the evaluator below are two
independent oracles it must agree with bit-for-bit.  This module supplies
the harness ingredients the test files and the CI backend-parity job
share:

* a **pure-python seeded network generator** — random ISOP-shaped
  networks over the full structural envelope (multi-fanin gates with
  arbitrary truth tables, repeated fanins, folded constants, latches) so
  the sweep is not limited to what the workload generator happens to
  emit;
* an **independent big-int reference evaluator** — walks the network's
  topo order evaluating ISOP covers directly, sharing no code with
  the compiled kernels' lowering or the reference simulator's array
  path;
* a **one-candidate-at-a-time stuck-at screen**
  (:func:`reference_stuck_at_scenarios`) — the oracle for the packed
  screening of :func:`repro.workloads.scenarios.stuck_at_scenarios`,
  its golden outputs from :func:`reference_traces` (the reference
  evaluator, not the package's golden simulator).

It also holds :func:`check_equivalent`, the random-simulation check the
transform and mapping tests use.  That one runs *on* the compiled
kernels and is not one of the oracles.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import SimulationError
from repro.netlist.compiled import CompiledSimulator, program_for, words_to_int
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.sop import truthtable_to_cover
from repro.netlist.truthtable import TruthTable

__all__ = [
    "block_overrides",
    "block_words",
    "check_equivalent",
    "random_network",
    "random_stimulus_ints",
    "random_override_ints",
    "reference_eval",
    "reference_sequential",
    "reference_stuck_at_scenarios",
    "reference_traces",
]


def block_words(
    rows: "list[dict[int, int]]", nodes, n_lanes: int
) -> dict[int, int]:
    """Per-cycle ``{node: int}`` rows side by side as the block-wide
    integers ``CompiledSimulator.run_block`` takes: cycle *c* on bits
    ``[c * L, (c+1) * L)``, ``L = n_lanes`` (each row cut to its lanes)."""
    full = (1 << n_lanes) - 1
    return {
        x: sum((row[x] & full) << (c * n_lanes) for c, row in enumerate(rows))
        for x in nodes
    }


def block_overrides(
    rows: "list[dict[int, tuple[int, int]] | None]", n_lanes: int
) -> "dict[int, tuple[int, int]] | None":
    """Per-cycle ``node -> (forced, mask)`` overrides (``None`` for a
    clean cycle) as one block-wide override mapping over ``n_lanes``
    lanes."""
    width = n_lanes
    full = (1 << width) - 1
    out: dict[int, tuple[int, int]] = {}
    for c, row in enumerate(rows):
        for node, (forced, mask) in (row or {}).items():
            f0, m0 = out.get(node, (0, 0))
            out[node] = (
                f0 | (forced & mask & full) << (c * width),
                m0 | (mask & full) << (c * width),
            )
    return out or None


def random_network(
    seed: int,
    *,
    n_pis: int = 10,
    n_gates: int = 60,
    n_latches: int = 0,
    n_pos: int = 6,
    max_fanin: int = 3,
) -> LogicNetwork:
    """A seeded random network built gate by gate, pure python.

    Fanins are drawn with replacement from everything built so far (PIs,
    latch outputs, two folded constants, earlier gates), and each gate's
    function is a uniformly random truth table — so repeated literals,
    constant-0/1 functions (empty covers and tautology cubes) and deep
    reconvergence all occur naturally.  Latch drivers are drawn from the
    later half of the gates to give sequential state real depth.
    """
    rng = random.Random(seed)
    net = LogicNetwork(f"parity-{seed}")
    pool = [net.add_pi(f"pi{i}") for i in range(n_pis)]
    for i in range(n_latches):
        pool.append(net.add_latch(f"lq{i}", init=rng.randrange(2)))
    pool.append(net.add_const("k0", 0))
    pool.append(net.add_const("k1", 1))
    gates: list[int] = []
    for g in range(n_gates):
        k = rng.randint(1, max_fanin)
        fanins = [rng.choice(pool) for _ in range(k)]
        func = TruthTable(k, rng.getrandbits(1 << k))
        nid = net.add_gate(f"g{g}", fanins, func)
        pool.append(nid)
        gates.append(nid)
    for latch in net.latches:
        driver = rng.choice(gates[len(gates) // 2 :])
        net.set_latch_driver(latch.q, driver)
    for nid in rng.sample(gates, min(n_pos, len(gates))):
        net.add_po(net.node_name(nid))
    return net


def random_stimulus_ints(
    rng: random.Random, net: LogicNetwork, n_lanes: int
) -> dict[int, int]:
    """One cycle of lane-packed integer stimulus for every PI."""
    return {pi: rng.getrandbits(n_lanes) for pi in net.pis}


def random_override_ints(
    rng: random.Random,
    net: LogicNetwork,
    n_lanes: int,
    *,
    n_nodes: int = 3,
    lane_masked: bool = True,
) -> dict[int, tuple[int, int]]:
    """Random ``node -> (forced, mask)`` integer overrides.

    Draws across every node kind (gates, PIs, latch outputs, constants) —
    the fault-injection surface.  ``lane_masked=False`` forces all lanes
    (a full replacement, mask = all-ones), the mutation-style override.
    """
    full = (1 << n_lanes) - 1
    picks = rng.sample(range(net.n_nodes), min(n_nodes, net.n_nodes))
    return {
        nid: (
            rng.getrandbits(n_lanes),
            rng.getrandbits(n_lanes) if lane_masked else full,
        )
        for nid in picks
    }


def reference_eval(
    net: LogicNetwork,
    source_ints: "dict[int, int]",
    n_lanes: int,
    overrides: "dict[int, tuple[int, int]] | None" = None,
) -> dict[int, int]:
    """Independent big-int evaluation of every node for one settle.

    Walks the topo order evaluating each gate's ISOP cover literal by
    literal over ``n_lanes``-bit lane-packed integers.  Overrides are ``(forced, mask)``
    integer pairs blended as ``(clean & ~mask) | (forced & mask)`` — on
    any node kind, exactly the engine's fault semantics.  Shares no
    evaluation code with the simulators under test.
    """
    full = (1 << n_lanes) - 1
    ov = overrides or {}

    def blend(nid: int, clean: int) -> int:
        pair = ov.get(nid)
        if pair is None:
            return clean & full
        forced, mask = pair
        return ((clean & ~mask) | (forced & mask)) & full

    values: dict[int, int] = {}
    for nid in net.topo_order():
        if net.kind(nid) is not NodeKind.GATE:
            values[nid] = blend(nid, source_ints[nid])
            continue
        fanins = net.fanins(nid)
        acc = 0
        for cube in truthtable_to_cover(net.func(nid)).cubes:
            term = full
            for i, fanin in enumerate(fanins):
                if (cube.mask >> i) & 1:
                    v = values[fanin]
                    term &= v if (cube.polarity >> i) & 1 else v ^ full
            acc |= term
        values[nid] = blend(nid, acc)
    return values


def reference_sequential(
    net: LogicNetwork,
    stim_rows: "list[dict[int, int]]",
    n_lanes: int,
    overrides_by_cycle: "dict[int, dict[int, tuple[int, int]]] | None" = None,
) -> list[dict[int, int]]:
    """Cycle-accurate big-int reference: one value dict per cycle.

    D-flip-flop semantics matching the simulators: latch outputs present
    the stored state during the settle, next state latches from the
    drivers' settled values (post-override, like the real kernels).
    """
    full = (1 << n_lanes) - 1
    state = {
        latch.q: full if latch.init == 1 else 0 for latch in net.latches
    }
    out: list[dict[int, int]] = []
    for cycle, pis in enumerate(stim_rows):
        sources = dict(pis)
        sources.update(state)
        values = reference_eval(
            net,
            sources,
            n_lanes,
            (overrides_by_cycle or {}).get(cycle),
        )
        state = {latch.q: values[latch.driver] for latch in net.latches}
        out.append(values)
    return out


def reference_traces(
    net: LogicNetwork,
    stims: "list[list[dict[str, int]]]",
    names: "list[str]",
    n_lanes: int,
) -> dict[str, list[int]]:
    """Golden traces from :func:`reference_sequential`: per name, one
    ``n_lanes``-bit lane-packed integer per cycle, lane *k* driven by the
    per-cycle ``{pi name: 0/1}`` script ``stims[k]`` (PIs missing from a
    row read 0)."""
    rows = [
        {
            p: sum(
                (int(stim[c].get(net.node_name(p), 0)) & 1) << k
                for k, stim in enumerate(stims)
            )
            for p in net.pis
        }
        for c in range(len(stims[0]))
    ]
    values = reference_sequential(net, rows, n_lanes)
    return {n: [v[net.require(n)] for v in values] for n in names}


def reference_stuck_at_scenarios(
    spec,
    n: int,
    *,
    seed: int = 2016,
    design_seed: int = 2016,
    horizon: int = 64,
    stimulus_seed: int = 7,
    offline=None,
):
    """Stuck-at screening one candidate at a time, on one-lane sessions.

    The screen :func:`repro.workloads.scenarios.stuck_at_scenarios` ran
    before it packed candidates into lanes: one shared
    :class:`~repro.core.debug.DebugSession`, re-armed per candidate, whose
    full-horizon primary-output trace is compared with the golden one.
    Same seeded candidate order, same per-candidate value draw, same
    accepted list and the same :class:`~repro.errors.WorkloadError` when
    too few faults show.
    """
    from repro.core.debug import DebugSession
    from repro.core.flow import run_generic_stage
    from repro.errors import WorkloadError
    from repro.util.rng import RngHub
    from repro.workloads.generator import generate_circuit
    from repro.workloads.scenarios import DebugScenario, stimulus_script
    from repro.workloads.suites import get_spec

    spec = get_spec(spec) if isinstance(spec, str) else spec
    golden = generate_circuit(spec, design_seed)
    stim = stimulus_script(golden, horizon, stimulus_seed)
    golden_pos = reference_traces(golden, [stim], list(golden.po_names), 1)
    if offline is None:
        offline = run_generic_stage(golden)
    session = DebugSession(offline)
    po_names = set(golden.po_names)
    candidates = [
        t
        for t in offline.annotation.tap_names
        if golden.find(t) is not None and t not in po_names
    ]
    rng = RngHub(seed).stream(f"campaign/stuck_at/{spec.name}")
    order = [candidates[i] for i in rng.permutation(len(candidates))]

    def observable(signal: str, value: int) -> bool:
        session.clear_forces()
        session.force(signal, value)
        session.reset()
        observed = session.output_trace(horizon, stimulus=lambda c: stim[c])
        return any(
            po in golden_pos and got != golden_pos[po][cycle] & 1
            for cycle, row in enumerate(observed)
            for po, got in row.items()
        )

    scenarios = []
    for signal in order:
        if len(scenarios) >= n:
            break
        first_value = int(rng.integers(0, 2))
        for value in (first_value, 1 - first_value):
            if observable(signal, value):
                scenarios.append(
                    DebugScenario(
                        name=f"{spec.name}/sa{value}@{signal}",
                        kind="stuck_at",
                        spec=spec,
                        design_seed=design_seed,
                        horizon=horizon,
                        stimulus_seed=stimulus_seed,
                        fault_signal=signal,
                        fault_value=value,
                        description=f"{signal} stuck at {value}",
                    )
                )
                break
    if len(scenarios) < n:
        raise WorkloadError(
            f"only {len(scenarios)}/{n} observable stuck-at faults found "
            f"for {spec.name} within {horizon} cycles"
        )
    return scenarios


def check_equivalent(
    net_a: LogicNetwork,
    net_b: LogicNetwork,
    *,
    n_vectors: int = 256,
    n_cycles: int = 8,
    rng: "np.random.Generator | None" = None,
) -> bool:
    """Random-simulation equivalence check between two networks.

    PIs and POs are matched by *name*; both networks must agree on the PI
    name set, and every PO name they share is compared.  Sequential
    networks are compared over ``n_cycles`` cycles from their initial
    states.  Both run on :class:`CompiledSimulator` with exactly
    ``n_vectors`` lanes, so this checks a transform *with* the kernels and
    is not one of the oracles above.  Each cycle draws every PI's words in
    ``net_a.pis`` order, so the vectors depend on ``rng`` alone.  A
    falsifier, not a prover: tests that want proof use exhaustive vectors.
    """
    rng = rng or np.random.default_rng(0)
    names = [net_a.node_name(p) for p in net_a.pis]
    pis_b = {net_b.node_name(p): p for p in net_b.pis}
    only_a, only_b = set(names) - set(pis_b), set(pis_b) - set(names)
    if only_a or only_b:
        raise SimulationError(
            f"PI name mismatch: only in A {sorted(only_a)[:4]}, "
            f"only in B {sorted(only_b)[:4]}"
        )
    pos = [n for n in net_a.po_names if n in set(net_b.po_names)]
    if not pos:
        raise SimulationError("no common primary outputs to compare")
    sim_a = CompiledSimulator(program_for(net_a), n_vectors)
    sim_b = CompiledSimulator(program_for(net_b), n_vectors)
    pos_a = [net_a.require(n) for n in pos]
    pos_b = [net_b.require(n) for n in pos]
    n_words = (n_vectors + 63) // 64
    for _ in range(n_cycles if net_a.latches or net_b.latches else 1):
        words = [
            words_to_int(
                rng.integers(
                    0, np.iinfo(np.uint64).max, size=n_words,
                    dtype=np.uint64, endpoint=True,
                )
            )
            for _ in names
        ]
        sim_a.step(dict(zip(net_a.pis, words)))
        sim_b.step({pis_b[name]: w for name, w in zip(names, words)})
        if sim_a.node_ints(pos_a) != sim_b.node_ints(pos_b):
            return False
    return True
