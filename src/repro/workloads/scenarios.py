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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.netlist.compiled import int_to_words
from repro.netlist.network import LogicNetwork
from repro.netlist.simulate import SequentialSimulator
from repro.util.bitops import pack_lane_scripts, words_for_bits
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
    "po_trace",
    "stuck_at_scenarios",
    "mutation_scenarios",
]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


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
    they exist so campaigns can be sized freely (the physical back-end
    currently supports combinational designs only, hence the
    ``n_latches=0`` default).
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
    """Deterministic random per-cycle PI values, keyed by PI name."""
    rng = np.random.default_rng(seed)
    names = [net.node_name(p) for p in net.pis]
    return [
        {n: int(rng.integers(0, 2)) for n in names} for _ in range(n_cycles)
    ]


def signal_traces(
    net: LogicNetwork,
    stim: list[dict[str, int]],
    names: list[str],
    *,
    interpreted: bool = False,
) -> dict[str, np.ndarray]:
    """Simulate ``net`` under ``stim`` recording the named signals.

    The single per-cycle PI-packing loop every reference trace derives
    from — golden oracles (:func:`repro.campaign.golden_signal_traces`)
    and PO traces (:func:`po_trace`) are views over it, so value packing
    can never diverge between them.  One simulation pass serves any
    number of signals; names absent from ``net`` are skipped.
    ``interpreted`` bypasses the compiled kernels (benchmark baseline).
    """
    sim = SequentialSimulator(net, n_words=1, interpreted=interpreted)
    traces: dict[str, list[int]] = {
        n: [] for n in names if net.find(n) is not None
    }
    for cyc_stim in stim:
        values = sim.step(
            {
                p: np.array(
                    [_ALL_ONES if cyc_stim[net.node_name(p)] else 0],
                    dtype=np.uint64,
                )
                for p in net.pis
            }
        )
        for n in traces:
            traces[n].append(int(values[net.require(n)][0] & np.uint64(1)))
    return {n: np.array(v, dtype=np.uint8) for n, v in traces.items()}


def packed_signal_traces(
    net: LogicNetwork,
    stims: list[list[dict[str, int]]],
    names: list[str],
    *,
    interpreted: bool = False,
) -> dict[str, np.ndarray]:
    """Lane-packed golden traces: one simulation pass for many stimuli.

    ``stims`` holds one per-cycle stimulus script per lane (all the same
    length); every 64 lanes occupy one ``uint64`` word, so the returned
    arrays have shape ``(n_cycles, n_words)``.  Bit ``k % 64`` of word
    ``k // 64`` of ``traces[name][cyc]`` is what :func:`signal_traces`
    would report for ``name`` on cycle ``cyc`` under ``stims[k]`` — the
    simulator evaluates every lane's golden reference in the same bitwise
    operations, which is what lets the lane-parallel campaign runner pay
    for one golden pass per *batch* instead of one per scenario.  Extract
    lane ``k`` with ``((arr[:, k // 64] >> (k % 64)) & 1).astype(np.uint8)``.
    """
    n_words = max(1, words_for_bits(len(stims)))
    if not stims:
        return {n: np.zeros((0, n_words), dtype=np.uint64) for n in names}
    n_cycles = len(stims[0])
    if any(len(s) != n_cycles for s in stims):
        raise WorkloadError("stimulus lanes must share one horizon")
    sim = SequentialSimulator(net, n_words=n_words, interpreted=interpreted)
    names = [n for n in names if net.find(n) is not None]
    traces = {n: np.zeros((n_cycles, n_words), dtype=np.uint64) for n in names}
    name_ids = {n: net.require(n) for n in names}
    # pack each PI's whole script once: one word-packed integer per cycle
    packed_pis = pack_lane_scripts(
        stims, {p: net.node_name(p) for p in net.pis}, n_cycles
    )
    for cyc in range(n_cycles):
        values = sim.step(
            {
                p: int_to_words(script[cyc], n_words)
                for p, script in packed_pis.items()
            }
        )
        for n, nid in name_ids.items():
            traces[n][cyc] = values[nid]
    return traces


def po_trace(
    net: LogicNetwork, stim: list[dict[str, int]]
) -> list[dict[str, int]]:
    """Primary-output values per cycle of ``net`` under ``stim``.

    The golden reference trace failure detection and scenario screening
    compare against (stuck-at candidates themselves are screened on the
    mapped emulation, as forced faults on the lanes of a
    :class:`~repro.engine.LaneEngine`).
    """
    traces = signal_traces(net, stim, list(net.po_names))
    return [
        {po: int(traces[po][cyc]) for po in traces}
        for cyc in range(len(stim))
    ]


def _resolve_spec(spec: BenchmarkSpec | str) -> BenchmarkSpec:
    return get_spec(spec) if isinstance(spec, str) else spec


def _observable_faults(
    engine,
    signals: list[str],
    golden_pos: list[dict[str, int]],
    po_names: set[str],
    horizon: int,
) -> list[tuple[bool, bool]]:
    """Which stuck values of ``signals`` show at a golden primary output.

    Lane ``2 * i + v`` of ``engine`` forces ``signals[i]`` to ``v`` (any
    further lanes stay clean and unchecked); one packed run from reset
    compares every lane's primary outputs with ``golden_pos`` and stops
    once every forced lane has diverged.  Returns ``(stuck-at-0
    observable, stuck-at-1 observable)`` per signal.
    """
    live = (1 << 2 * len(signals)) - 1
    for lane in range(engine.n_lanes):
        engine.clear_forces(lane)
    for i, signal in enumerate(signals):
        for value in (0, 1):
            engine.force(signal, value, lane=2 * i + value)
    engine.reset()
    checked = [
        (j, po) for j, po in enumerate(engine.user_po_names) if po in po_names
    ]
    undiverged = live

    def all_diverged(cycle: int, row_ints: "list[int]") -> bool:
        nonlocal undiverged
        want = golden_pos[cycle]
        for j, po in checked:
            undiverged &= ~(row_ints[j] ^ (live if want[po] else 0))
        return undiverged == 0

    engine.run_outputs(horizon, stop=all_diverged)
    diverged = live & ~undiverged
    return [
        (bool(diverged >> (2 * i) & 1), bool(diverged >> (2 * i + 1) & 1))
        for i in range(len(signals))
    ]


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
    lane of its own and emulates them together
    (:func:`_observable_faults`).  The seeded selection then reads those
    verdicts candidate by candidate; a round can accept at most one fault
    per candidate, so it never screens a candidate the selection would
    not visit, and the accepted list equals a one-candidate-at-a-time
    screen's.

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
    golden_pos = po_trace(golden, stim)
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
        screened = 0
        while len(scenarios) < n and screened < len(order):
            batch = order[screened : screened + n - len(scenarios)]
            screened += len(batch)
            verdicts = _observable_faults(
                engine, batch, golden_pos, po_names, horizon
            )
            for signal, observable in zip(batch, verdicts):
                first = int(rng.integers(0, 2))
                value = next(
                    (v for v in (first, 1 - first) if observable[v]), None
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
    golden_pos = po_trace(golden, stim)

    scenarios: list[DebugScenario] = []
    attempt = 0
    budget = n * max_attempts_per_scenario
    while len(scenarios) < n and attempt < budget:
        bug_seed = derive_seed(seed, f"campaign/mutation/{spec.name}/{attempt}")
        attempt += 1
        trial = golden.copy()
        bug = inject_bug(trial, np.random.default_rng(bug_seed))
        buggy_pos = po_trace(trial, stim)
        if all(a == b for a, b in zip(golden_pos, buggy_pos)):
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
