"""Debug-campaign scenario generation.

A *scenario* is one (design, bug) pair a batch debug campaign must
localize: a benchmark design plus either an emulation-level stuck-at fault
(:class:`repro.core.debug.ForcedFault` semantics — the configuration is
clean, so every scenario on the same design shares one offline-stage
artifact) or a netlist-level mutation (:func:`repro.workloads.perturb.
inject_bug` — a genuinely different design that pays its own generic
stage, exactly like a fresh RTL revision would).

Generators are pure functions of their arguments: the same ``(spec, seed)``
always yields the same scenario list, which is what makes campaign results
reproducible across serial and parallel execution (see
``tests/test_campaign.py``).  Candidates are screened against the golden
primary outputs so that campaigns are not dominated by silent faults:
stuck-at candidates on the *mapped emulation* — packed two lanes per
candidate on one :class:`~repro.engine.LaneEngine`, since technology
mapping may duplicate the faulted logic into LUT cones where the override
never lands — and mutations on a source-level simulation of the mutated
copy.  The campaign runner still reports a scenario whose fault stays
invisible on the emulated design as ``undetected`` (the paper's
motivating problem).

The module also holds the scenario path's two shared halves:
:func:`packed_signal_traces`, the one golden simulator (many stimuli as
the lanes of one compiled pass; :func:`signal_traces` is its lane 0), and
:func:`first_divergence`, the one detector comparing a lane engine's
primary outputs with those golden words — used by stuck-at screening
here and by :func:`repro.campaign.runner.run_scenario_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.netlist.compiled import (
    CompiledSimulator,
    block_ints,
    block_rows,
    program_for,
    words_to_int,
)
from repro.netlist.network import LogicNetwork
from repro.util.bitops import lane_bits, pack_lane_scripts, words_for_bits
from repro.util.rng import RngHub, derive_seed
from repro.workloads.generator import generate_circuit
from repro.workloads.perturb import InjectedBug, inject_bug
from repro.workloads.suites import BenchmarkSpec, get_spec

__all__ = [
    "DebugScenario",
    "campaign_spec",
    "stimulus_script",
    "signal_traces",
    "packed_signal_traces",
    "first_divergence",
    "stuck_at_scenarios",
    "mutation_scenarios",
]


@dataclass(frozen=True)
class DebugScenario:
    """One (design, bug) pair of a debug campaign.

    ``kind`` is ``"stuck_at"`` (emulation-level fault on ``fault_signal``;
    the debugged design equals the golden design, so offline artifacts are
    shared) or ``"mutation"`` (netlist bug reproduced deterministically
    from ``bug_seed``; the debugged design is the mutated copy).
    Scenarios are frozen, hashable and picklable — they travel to campaign
    worker processes as-is.
    """

    name: str
    kind: str
    spec: BenchmarkSpec
    design_seed: int = 2016
    horizon: int = 64
    """Cycles of stimulus within which the failure must be caught."""
    stimulus_seed: int = 7
    fault_signal: str | None = None
    fault_value: int = 0
    fault_from_cycle: int = 0
    bug_seed: int = 0
    description: str = ""

    def golden_network(self) -> LogicNetwork:
        """The bug-free reference design (the engineer's specification)."""
        return generate_circuit(self.spec, self.design_seed)

    def design_identity(self) -> tuple:
        """Exactly the fields :meth:`debug_network` reads: scenarios with
        equal identities instrument byte-identical designs, so a campaign
        derives each identity's network and offline key once."""
        return (
            self.spec,
            self.design_seed,
            self.bug_seed if self.kind == "mutation" else None,
        )

    def debug_network(self) -> LogicNetwork:
        """The design the offline stage instruments.

        For ``stuck_at`` scenarios this *is* the golden network — the whole
        point of emulation-level faults is that the implemented design, and
        therefore its offline artifact, is shared by every scenario.  For
        ``mutation`` scenarios it is the deterministically re-mutated copy.
        """
        net = self.golden_network()
        if self.kind == "mutation":
            self.reproduce_bug(net)
            net.name = f"{net.name}_bug{self.bug_seed}"
        return net

    def reproduce_bug(self, net: LogicNetwork) -> InjectedBug:
        """Re-apply this scenario's mutation to ``net`` (in place).

        :func:`inject_bug` draws node, kind and mutation details from its
        generator, so seeding a fresh generator with ``bug_seed``
        reproduces the exact bug the screening pass accepted.
        """
        if self.kind != "mutation":
            raise WorkloadError(f"scenario {self.name!r} has no netlist bug")
        return inject_bug(net, np.random.default_rng(self.bug_seed))

    def stimulus(self, n_cycles: int | None = None) -> list[dict[str, int]]:
        """The scenario's deterministic per-cycle stimulus script."""
        return stimulus_script(
            self.golden_network(),
            n_cycles if n_cycles is not None else self.horizon,
            self.stimulus_seed,
        )


def campaign_spec(
    name: str = "campaign-small",
    *,
    n_gates: int = 120,
    depth: int = 8,
    n_latches: int = 0,
    n_pis: int = 20,
    n_pos: int = 10,
) -> BenchmarkSpec:
    """A synthetic benchmark spec for campaign tests and benchmarks.

    Unlike the Table I/II suite these carry no published reference numbers;
    they exist so campaigns can be sized freely.  ``n_latches`` defaults
    to 0: a combinational design.
    """
    return BenchmarkSpec(
        name=name,
        n_gates=n_gates,
        golden_depth=0,
        paper_initial_luts=0,
        paper_sm_luts=0,
        paper_abc_luts=0,
        paper_proposed_luts=0,
        paper_tluts=0,
        paper_tcons=0,
        n_latches=n_latches,
        n_pis=n_pis,
        n_pos=n_pos,
        gate_depth_target=depth,
        seed_salt=name,
    )


def stimulus_script(
    net: LogicNetwork, n_cycles: int, seed: int
) -> list[dict[str, int]]:
    """Deterministic random per-cycle PI values, keyed by PI name.

    One ``integers(0, 2)`` draw of ``(n_cycles, n_pis)`` bits fills
    cycle by cycle, PI by PI, from the stream exactly as one scalar draw
    per PI per cycle would, at a fraction of the calls.
    """
    rng = np.random.default_rng(seed)
    names = [net.node_name(p) for p in net.pis]
    bits = rng.integers(0, 2, size=(n_cycles, len(names))).tolist()
    return [dict(zip(names, row)) for row in bits]


def signal_traces(
    net: LogicNetwork,
    stim: list[dict[str, int]],
    names: list[str],
) -> dict[str, np.ndarray]:
    """Simulate ``net`` under ``stim`` recording the named signals.

    Lane 0 of :func:`packed_signal_traces`, one ``uint8`` array (one
    entry per cycle) per signal.  Names absent from ``net`` are skipped;
    PIs missing from a stimulus row read 0.
    """
    return {
        n: lane_bits(arr, 0)
        for n, arr in packed_signal_traces(net, [stim], names).items()
    }


def packed_signal_traces(
    net: LogicNetwork,
    stims: list[list[dict[str, int]]],
    names: list[str],
) -> dict[str, np.ndarray]:
    """Lane-packed golden traces: one simulation pass for many stimuli.

    The one golden simulator — campaign batches, stuck-at and mutation
    screening and :func:`signal_traces` all read their reference values
    from it.  ``stims`` holds one per-cycle ``{pi name: 0/1}`` script per
    lane (all the same length; missing PIs read 0); every 64 lanes occupy
    one ``uint64`` word, so the returned arrays have shape ``(n_cycles,
    n_words)`` and bit ``k % 64`` of word ``k // 64`` of
    ``traces[name][cyc]`` is lane ``k``'s value of ``name`` on cycle
    ``cyc`` (bits past the last lane read 0).  Names absent from ``net``
    are skipped.

    The pass drives the network's
    :class:`~repro.netlist.compiled.CompiledSimulator` over exactly
    ``len(stims)`` lanes, directly on the lane-packed PI integers of
    :func:`~repro.util.bitops.pack_lane_scripts`, the way the lane engine
    does: one :meth:`~repro.netlist.compiled.CompiledSimulator.run_block`
    pass per :meth:`~repro.netlist.compiled.CompiledSimulator.block_span`
    cycles (a combinational horizon of up to ``block_cycles`` cycles is
    one pass; a sequential network's first run has no latch record to
    predict from, so it steps), reading only the named nodes' rows
    (:meth:`~repro.netlist.compiled.CompiledSimulator.block_export`).
    """
    n_lanes = max(1, len(stims))
    n_words = words_for_bits(n_lanes)
    n_cycles = len(stims[0]) if stims else 0
    if any(len(s) != n_cycles for s in stims):
        raise WorkloadError("stimulus lanes must share one horizon")
    names = [n for n in names if net.find(n) is not None]
    nodes = [net.require(n) for n in names]
    pi_words = pack_lane_scripts(
        stims, {p: net.node_name(p) for p in net.pis}, n_cycles
    )
    # each PI's per-cycle words as one row, cycle c on columns c * n_words
    pis = list(pi_words)
    pi_rows = block_rows(
        [w for p in pis for w in pi_words[p]], 1, n_lanes
    ).reshape(len(pis), n_cycles * n_words)
    sim = CompiledSimulator(program_for(net), n_lanes)
    blk = sim.block_cycles
    buf = np.empty((len(nodes), blk * n_words), dtype=np.uint64)
    block = buf.reshape(len(nodes), blk, n_words)
    packed = np.zeros((len(nodes), n_cycles, n_words), dtype=np.uint64)
    cyc = 0
    while cyc < n_cycles:
        n = sim.block_span(n_cycles - cyc)
        if n == 1:
            sim.step({p: words[cyc] for p, words in pi_words.items()})
            packed[:, cyc] = block_rows(sim.node_ints(nodes), 1, n_lanes)
        else:
            lo, hi = cyc * n_words, (cyc + n) * n_words
            words = block_ints(pi_rows[:, lo:hi], n, n_lanes)
            n = sim.run_block(dict(zip(pis, words)), n)
            sim.block_export(nodes, buf)
            packed[:, cyc : cyc + n] = block[:, :n]
        cyc += n
    return {n: packed[i] for i, n in enumerate(names)}


def first_divergence(
    engine,
    golden: dict[str, np.ndarray],
    lanes: Sequence[int],
    horizon: int,
) -> dict[int, tuple[int, int]]:
    """Where each of ``lanes`` first leaves the golden primary outputs.

    The one divergence detector: campaign batches and stuck-at screening
    both call it.  ``golden`` holds lane-packed traces in ``engine``'s
    lane layout (:func:`packed_signal_traces`, at least ``horizon``
    cycles); one :meth:`~repro.engine.LaneEngine.run_outputs` call from
    the engine's current state compares every cycle's PO words with them
    and stops the moment every lane of ``lanes`` has diverged — a lane
    that never diverges keeps it going to ``horizon``.  POs missing from
    ``golden`` cannot diverge.

    Returns ``{lane: (cycle, PO index)}`` for every diverged lane: its
    earliest cycle, ties broken by the order of ``engine.user_po_names``.
    """
    checked = [
        (j, [words_to_int(row) for row in golden[po]])
        for j, po in enumerate(engine.user_po_names)
        if po in golden
    ]
    undiverged = 0
    for lane in lanes:
        undiverged |= 1 << lane
    first: dict[int, tuple[int, int]] = {}

    def all_diverged(cycle: int, row_ints: list[int]) -> bool:
        nonlocal undiverged
        for j, want in checked:
            d = (row_ints[j] ^ want[cycle]) & undiverged
            undiverged ^= d
            while d:
                low = d & -d
                first[low.bit_length() - 1] = (cycle, j)
                d ^= low
        return undiverged == 0

    engine.run_outputs(horizon, lanes=lanes, stop=all_diverged)
    return first


def _resolve_spec(spec: BenchmarkSpec | str) -> BenchmarkSpec:
    return get_spec(spec) if isinstance(spec, str) else spec


def stuck_at_scenarios(
    spec: BenchmarkSpec | str,
    n: int,
    *,
    seed: int = 2016,
    design_seed: int = 2016,
    horizon: int = 64,
    stimulus_seed: int = 7,
    offline=None,
) -> list[DebugScenario]:
    """Generate ``n`` emulation-level stuck-at scenarios for one design.

    Candidate sites are the design's observable taps in a seeded order,
    screened on the *mapped emulation*: a scenario is kept only if
    forcing the stuck value diverges from the golden primary outputs
    within ``horizon`` cycles.  Mapped-level screening matters because
    technology mapping duplicates logic — a fault that propagates in the
    source netlist can be absorbed into LUT cones and stay invisible on
    the emulated design.

    Screening runs as packed lanes of one
    :class:`~repro.engine.LaneEngine`: each round takes the next
    ``n − accepted`` candidates, forces both stuck values of each on a
    lane of its own and emulates them together against one golden pass
    (the scenario stimulus in every lane), through the campaign runner's
    detector (:func:`first_divergence`).  The seeded selection then reads
    those verdicts candidate by candidate; a round can accept at most one
    fault per candidate, so it never screens a candidate the selection
    would not visit, and the accepted list equals a
    one-candidate-at-a-time screen's.

    ``offline`` optionally supplies the design's offline artifact (e.g.
    from a campaign cache); by default one generic-stage run is performed
    here.  Raises :class:`WorkloadError` when the design cannot yield
    ``n`` observable faults.
    """
    from repro.core.flow import run_generic_stage
    from repro.engine import LaneEngine

    spec = _resolve_spec(spec)
    golden = generate_circuit(spec, design_seed)
    stim = stimulus_script(golden, horizon, stimulus_seed)
    if offline is None:
        offline = run_generic_stage(golden)
    po_names = set(golden.po_names)
    candidates = [
        t
        for t in offline.annotation.tap_names
        if golden.find(t) is not None and t not in po_names
    ]
    rng = RngHub(seed).stream(f"campaign/stuck_at/{spec.name}")
    order = [candidates[i] for i in rng.permutation(len(candidates))]

    scenarios: list[DebugScenario] = []
    if n > 0 and order:
        engine = LaneEngine(offline, n_lanes=2 * min(n, len(order)))
        for lane in range(engine.n_lanes):
            engine.bind_stimulus(lane, stim)
        golden_pos = packed_signal_traces(
            golden, [stim] * engine.n_lanes, list(golden.po_names)
        )
        screened = 0
        while len(scenarios) < n and screened < len(order):
            batch = order[screened : screened + n - len(scenarios)]
            screened += len(batch)
            # lane 2 * i + v forces batch[i] to v; further lanes stay clean
            for lane in range(engine.n_lanes):
                engine.clear_forces(lane)
            for i, signal in enumerate(batch):
                for value in (0, 1):
                    engine.force(signal, value, lane=2 * i + value)
            engine.reset()
            diverged = first_divergence(
                engine, golden_pos, range(2 * len(batch)), horizon
            )
            for i, signal in enumerate(batch):
                first = int(rng.integers(0, 2))
                value = next(
                    (v for v in (first, 1 - first) if 2 * i + v in diverged),
                    None,
                )
                if value is None:
                    continue
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
    if len(scenarios) < n:
        raise WorkloadError(
            f"only {len(scenarios)}/{n} observable stuck-at faults found "
            f"for {spec.name} within {horizon} cycles"
        )
    return scenarios


def mutation_scenarios(
    spec: BenchmarkSpec | str,
    n: int,
    *,
    seed: int = 2016,
    design_seed: int = 2016,
    horizon: int = 64,
    stimulus_seed: int = 7,
    max_attempts_per_scenario: int = 25,
) -> list[DebugScenario]:
    """Generate ``n`` netlist-mutation scenarios for one design.

    Each attempt mutates a fresh copy of the golden design with a seed
    derived from ``(seed, attempt)`` and keeps it only if (a) the mutation
    is observable at a primary output within ``horizon`` cycles — the same
    screening :mod:`examples.bug_hunt` performs — and (b) the mutated gate
    survives the flow's netlist cleanup, so the ground-truth site exists in
    the instrumented design a localization can be judged against.  The
    accepted ``bug_seed`` is recorded so workers can re-create the
    identical bug.
    """
    from repro.netlist.transforms import cleanup

    spec = _resolve_spec(spec)
    golden = generate_circuit(spec, design_seed)
    stim = stimulus_script(golden, horizon, stimulus_seed)
    po_names = list(golden.po_names)
    golden_pos = signal_traces(golden, stim, po_names)

    scenarios: list[DebugScenario] = []
    attempt = 0
    budget = n * max_attempts_per_scenario
    while len(scenarios) < n and attempt < budget:
        bug_seed = derive_seed(seed, f"campaign/mutation/{spec.name}/{attempt}")
        attempt += 1
        trial = golden.copy()
        bug = inject_bug(trial, np.random.default_rng(bug_seed))
        buggy_pos = signal_traces(trial, stim, po_names)
        if all(
            np.array_equal(buggy_pos[po], want)
            for po, want in golden_pos.items()
        ):
            continue
        if cleanup(trial).find(bug.node_name) is None:
            continue
        scenarios.append(
            DebugScenario(
                name=f"{spec.name}/mut{len(scenarios)}@{bug.node_name}",
                kind="mutation",
                spec=spec,
                design_seed=design_seed,
                horizon=horizon,
                stimulus_seed=stimulus_seed,
                bug_seed=bug_seed,
                description=bug.description,
            )
        )
    if len(scenarios) < n:
        raise WorkloadError(
            f"only {len(scenarios)}/{n} observable mutations found for "
            f"{spec.name} in {attempt} attempts"
        )
    return scenarios
