"""The lane-parallel engine core (§IV-B at SIMD width).

A :class:`LaneEngine` drives one packed
:class:`~repro.netlist.simulate.SequentialSimulator` over the mapped
network of an offline artifact, with debug scenarios bound to the lanes
of its packed words.  All shared state (the mapped network, the virtual
PConf layout, the tap/PO directories) is built once; everything a
scenario owns — stimulus, forced faults, the current observation
(select-parameter values), the SCG accounting, the captured trace — is
per lane.

Since the compiled-kernel refactor the emulation step executes the
mapped network's :class:`~repro.netlist.compiled.CompiledProgram` (built
once per network content key, optionally persisted through an
:class:`~repro.pipeline.ArtifactStore`): per cycle the engine hands the
kernel word-packed integer stimulus and lane-blended override indices,
and reads trace samples and PO words straight out of the flat value
list — no per-node dicts, no per-cycle array allocation.  Because a
word-packed integer spans ``n_words`` 64-lane words, ``n_lanes`` may
exceed 64: lane *k* lives at word ``k // 64``, bit ``k % 64`` everywhere
(stimulus, faults, trace memory, PO captures).  ``interpreted=True``
falls back to the historical per-gate interpreter (single-word only) —
the escape hatch and the benchmark baseline.

Correctness bar: lane *k* of a packed run is bit-for-bit what a solo
:class:`~repro.core.debug.DebugSession` produces for the same scenario,
because gate evaluation is bitwise (lanes cannot interact), faults are
lane-masked, and each lane's parameters/stimulus occupy only its bit of
the packed PI words.  ``tests/test_engine.py`` and
``tests/test_compiled.py`` pin this down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.costmodel import Virtex5Model
from repro.core.flow import OfflineStage
from repro.core.parameters import ParameterAssignment
from repro.core.scg import SpecializedConfigGenerator
from repro.core.tracebuffer import LaneTraceBuffer
from repro.core.virtual import build_virtual_pconf
from repro.emu.fault import (
    NEVER_ENDS,
    ForcedFault,
    active_override_ints,
    active_overrides,
)
from repro.errors import DebugFlowError
from repro.netlist.compiled import int_to_words
from repro.netlist.simulate import SequentialSimulator
from repro.util.bitops import pack_lane_scripts, words_for_bits

__all__ = ["DebugTurnLog", "LaneEngine", "Stimulus"]

Stimulus = Callable[[int], Mapping[str, int]]
"""Per-cycle primary-input values: cycle → {pi name: 0/1}."""

#: A lane's stimulus: a per-cycle callable, or a pre-recorded script
#: (one ``{pi name: 0/1}`` row per cycle) the engine packs into lane
#: bits once and replays across debugging turns.
StimulusLike = "Stimulus | Sequence[Mapping[str, int]] | None"


@dataclass
class DebugTurnLog:
    """Bookkeeping for one observe+run round (of one lane)."""

    observed: list[str]
    cycles_run: int
    modeled_overhead_s: float
    frames_touched: int
    software_s: float


class LaneEngine:
    """Many concurrent debug scenarios over one offline artifact.

    ``n_lanes`` is unbounded above (words are added every 64 lanes);
    memory and per-cycle cost grow linearly with the word count, so
    campaigns pick the width that saturates their batch sizes.
    """

    def __init__(
        self,
        offline: OfflineStage,
        *,
        n_lanes: int = 1,
        model: Virtex5Model | None = None,
        trace_depth: int | None = None,
        interpreted: bool = False,
        program_store=None,
        backend: str | None = None,
    ) -> None:
        if n_lanes < 1:
            raise DebugFlowError("lane count must be at least 1")
        if interpreted and n_lanes > 64:
            raise DebugFlowError(
                "the interpreted escape hatch is single-word: lane counts "
                "beyond 64 need the compiled kernels (interpreted=False)"
            )
        self.offline = offline
        self.design = offline.instrumented
        self.model = model or Virtex5Model()
        self.n_lanes = n_lanes
        self.n_words = max(1, words_for_bits(n_lanes))
        self.mapped_net = offline.mapping.to_lut_network()
        self.sim = SequentialSimulator(
            self.mapped_net,
            n_words=self.n_words,
            interpreted=interpreted,
            store=program_store,
            backend=backend,
        )
        self._csim = self.sim.compiled  # None on the interpreted path
        self.backend = self.sim.backend  # resolved name; None if interpreted
        self.pconf = build_virtual_pconf(offline.mapping, self.design)
        depth = trace_depth or offline.config.trace_depth
        self.trace = LaneTraceBuffer(
            width=self.design.n_buffer_inputs, depth=depth, n_lanes=n_lanes
        )

        # -- shared directories (identical to the historical session's) ----
        self._param_pi_values = {
            self.mapped_net.require(name): 0
            for name in self.design.param_space.names
        }
        self._user_pis = [
            pi
            for pi in self.mapped_net.pis
            if self.mapped_net.node_name(pi) not in self.design.param_nodes
        ]
        self._user_pi_names = {
            pi: self.mapped_net.node_name(pi) for pi in self._user_pis
        }
        self._tb_nodes = [
            self.mapped_net.require(g.po_name) for g in self.design.groups
        ]
        # design nodes a fault may be forced on: taps, latches and user PIs
        # (param PIs excluded — forcing a select corrupts observation)
        net_i = self.design.network
        self._forceable_nodes = (
            set(self.design.taps)
            | {latch.q for latch in net_i.latches}
            | set(net_i.pis)
        ) - set(self.design.param_nodes.values())
        tb_pos = {g.po_name for g in self.design.groups}
        self._user_po_names = [
            po
            for po in offline.source.po_names
            if po not in tb_pos and self.mapped_net.find(po) is not None
        ]
        self._user_po_ids = [
            self.mapped_net.require(po) for po in self._user_po_names
        ]

        # preallocated packed-sample row the trace capture reads through
        # (rebound per cycle from the kernel's integer values; zero numpy
        # allocation on the emulation fast path)
        self._word_bytes = 8 * self.n_words
        self._sample_buf = bytearray(len(self._tb_nodes) * self._word_bytes)
        self._sample_view = np.frombuffer(
            self._sample_buf, dtype=np.uint64
        ).reshape(len(self._tb_nodes), self.n_words)
        # cycle-batched gather buffers (numpy backend, combinational
        # programs): allocated on first blocked run
        self._blk_tb: np.ndarray | None = None
        self._blk_po: np.ndarray | None = None

        # -- per-lane state -------------------------------------------------
        # every lane starts on the all-zeros configuration: specialize it
        # once and give each lane its own SCG over those (read-only) bits —
        # respecialization replaces a lane's bits, never writes into them
        zeros = self.design.param_space.zeros()
        initial = SpecializedConfigGenerator(
            self.pconf.bitstream, model=self.model
        )
        initial.load_full(zeros)
        initial.current_bits.flags.writeable = False
        self.scgs: list[SpecializedConfigGenerator] = [
            replace(initial, history=list(initial.history))
            for _ in range(n_lanes)
        ]
        self.assignments: list[ParameterAssignment] = [zeros] * n_lanes
        observed = self.design.observed_at({})
        self._observed: list[dict[str, str]] = [
            dict(observed) for _ in range(n_lanes)
        ]
        self.turns: list[list[DebugTurnLog]] = [[] for _ in range(n_lanes)]
        self._forces: list[list[ForcedFault]] = [[] for _ in range(n_lanes)]
        self._stim_fns: list[Stimulus | None] = [None] * n_lanes
        self._stim_scripts: list[Sequence[Mapping[str, int]] | None] = [
            None
        ] * n_lanes
        self._packed_stim: dict[int, list[int]] | None = None

    # -- lanes ------------------------------------------------------------------

    def _check_lane(self, lane: int) -> int:
        if not 0 <= lane < self.n_lanes:
            raise DebugFlowError(
                f"lane {lane} out of range (engine has {self.n_lanes})"
            )
        return lane

    def bind_stimulus(self, lane: int, stimulus: "StimulusLike") -> None:
        """Attach a lane's stimulus: a callable, a script, or ``None``.

        Scripts (sequences of per-cycle PI rows) are packed into lane
        bits once and replayed from the packed form every run — the fast
        path batch campaigns use.  Callables are consulted cycle by
        cycle, exactly like the historical session's ``stimulus``
        argument.  Missing PIs default to 0 either way.
        """
        self._check_lane(lane)
        if stimulus is not None and not callable(stimulus):
            self._stim_scripts[lane] = stimulus
            self._stim_fns[lane] = None
            self._packed_stim = None
        else:
            self._stim_fns[lane] = stimulus
            if self._stim_scripts[lane] is not None:
                self._stim_scripts[lane] = None
                self._packed_stim = None

    # -- observation ------------------------------------------------------------

    @property
    def observable_signals(self) -> list[str]:
        net = self.design.network
        return [net.node_name(t) for t in self.design.taps]

    def observe(self, signals: list[str], *, lane: int = 0) -> dict[str, str]:
        """Route ``signals`` to lane ``lane``'s view of the trace buffers.

        Respecializes that lane's SCG (one debugging turn *for that
        lane*), packs the lane's select-parameter values into its bit of
        the packed parameter-PI words, and logs the turn.  Other lanes'
        observations are untouched — each lane can watch a different
        signal set in the same packed emulation.
        """
        self._check_lane(lane)
        values = self.design.selection_for(signals)
        assignment = self.design.param_space.assignment(values)
        self.assignments[lane] = assignment
        rec = self.scgs[lane].respecialize(assignment)
        bit = 1 << lane
        for name in self.design.param_space.names:
            nid = self.mapped_net.require(name)
            if values.get(name, 0):
                self._param_pi_values[nid] |= bit
            else:
                self._param_pi_values[nid] &= ~bit
        self._observed[lane] = self.design.observed_at(values)
        self.turns[lane].append(
            DebugTurnLog(
                observed=list(signals),
                cycles_run=0,
                modeled_overhead_s=rec.device_cost.specialization_s,
                frames_touched=len(rec.frames_touched),
                software_s=rec.software_seconds,
            )
        )
        return dict(self._observed[lane])

    def observed(self, lane: int = 0) -> dict[str, str]:
        """Lane's current buffer input → observed signal name."""
        self._check_lane(lane)
        return dict(self._observed[lane])

    # -- fault forcing ------------------------------------------------------------

    def force(
        self,
        signal: str,
        value: int,
        *,
        lane: int = 0,
        first_cycle: int = 0,
        last_cycle: int | None = None,
    ) -> ForcedFault:
        """Force ``signal`` to ``value`` in lane ``lane`` only.

        The fault carries ``lane_mask = 1 << lane``: during emulation the
        node's value is ``(clean & ~mask) | (forced & mask)``, so every
        other lane keeps the clean computed value.  Only *design* signals
        that physically exist in the mapped network — observable taps
        (LUT roots), latches and user PIs — can be forced;
        debug-infrastructure nodes (select parameters, mux tree,
        trace-buffer outputs) are rejected, since forcing those would
        corrupt observation itself.
        """
        self._check_lane(lane)
        nid = self.mapped_net.find(signal)
        design_node = self.design.network.find(signal)
        if (
            nid is None
            or design_node is None
            or design_node not in self._forceable_nodes
        ):
            raise DebugFlowError(
                f"signal {signal!r} is not a forceable design signal; only "
                "observable taps, latches and user PIs exist in the mapped "
                "network as design nodes (debug-network nodes cannot be "
                "forced without corrupting observation)"
            )
        if value not in (0, 1):
            raise DebugFlowError("forced value must be 0 or 1")
        fault = ForcedFault(
            node=nid,
            signal=signal,
            value=value,
            first_cycle=first_cycle,
            last_cycle=last_cycle if last_cycle is not None else NEVER_ENDS,
            lane_mask=1 << lane,
        )
        self._forces[lane].append(fault)
        return fault

    def clear_forces(self, lane: int = 0) -> None:
        """Remove every active forced fault of one lane."""
        self._check_lane(lane)
        self._forces[lane].clear()

    def forces(self, lane: int = 0) -> list[ForcedFault]:
        """The lane's currently active forced faults."""
        self._check_lane(lane)
        return list(self._forces[lane])

    def _cycle_overrides_ints(self, cycle: int):
        """Word-packed blended overrides for all lanes' faults, one cycle."""
        flat = [f for lane_faults in self._forces for f in lane_faults]
        return active_override_ints(flat, cycle, n_words=self.n_words)

    # -- execution ----------------------------------------------------------------

    def reset(self) -> None:
        """Reset emulated latches and the trace memory (not the turn logs)."""
        self.sim.reset()
        self.trace.reset()

    def reset_trace(self) -> None:
        """Reset only the (shared) trace memory."""
        self.trace.reset()

    def _ensure_packed_stim(self) -> dict[int, list[int]]:
        if self._packed_stim is None:
            horizon = max(
                (len(s) for s in self._stim_scripts if s is not None),
                default=0,
            )
            self._packed_stim = pack_lane_scripts(
                self._stim_scripts, self._user_pi_names, horizon
            )
        return self._packed_stim

    def _pi_values_ints(self, cycle: int) -> dict[int, int]:
        """Word-packed PI values for one cycle: parameters + lane stimulus."""
        pi_vals = dict(self._param_pi_values)
        packed = self._ensure_packed_stim()
        rows: list[Mapping[str, int] | None] | None = None
        if any(fn is not None for fn in self._stim_fns):
            rows = [fn(cycle) if fn is not None else None for fn in self._stim_fns]
        for pi in self._user_pis:
            script = packed.get(pi)
            word = script[cycle] if script is not None and cycle < len(script) else 0
            if rows is not None:
                name = self._user_pi_names[pi]
                for lane, row in enumerate(rows):
                    if row is None:
                        continue
                    if int(row.get(name, 0)) & 1:
                        word |= 1 << lane
                    else:
                        word &= ~(1 << lane)
            pi_vals[pi] = word
        return pi_vals

    def _step_compiled(self) -> None:
        """One packed cycle on the compiled kernel (no array traffic)."""
        cycle = self._csim.cycle
        self._csim.step(
            self._pi_values_ints(cycle),
            overrides=self._cycle_overrides_ints(cycle),
        )

    def _step_interpreted(self) -> dict[int, np.ndarray]:
        cycle = self.sim.cycle
        pi_arrays = {
            pi: int_to_words(word, self.n_words)
            for pi, word in self._pi_values_ints(cycle).items()
        }
        flat = [f for lane_faults in self._forces for f in lane_faults]
        overrides = active_overrides(flat, cycle, n_words=self.n_words)
        return self.sim.step(pi_arrays, overrides=overrides)

    def _trigger_mask(self, triggers, cycle: int, lane_bit) -> int:
        """Evaluate each lane's trigger against its view of this cycle's
        trace-buffer inputs.  ``lane_bit(group_index, lane)`` extracts one
        lane's 0/1 sample — the only piece that differs between the
        compiled and interpreted step paths."""
        if not triggers:
            return 0
        mask = 0
        for lane, trig in triggers.items():
            if trig is None:
                continue
            named = {
                g.po_name: lane_bit(i, lane)
                for i, g in enumerate(self.design.groups)
            }
            if trig(cycle, named):
                mask |= 1 << lane
        return mask

    def _account_cycles(
        self, n_cycles: int, lanes: "Sequence[int] | None"
    ) -> None:
        """Charge the run's cycles to each participating lane's open turn.

        ``lanes=None`` charges every lane — right for the facade and for
        detection runs.  Batch walk drivers pass the lanes that actually
        took a turn this replay, so a retired lane's accounting stops at
        its last real turn (matching what a solo session would report).
        """
        targets = range(self.n_lanes) if lanes is None else lanes
        for lane in targets:
            lane_turns = self.turns[lane]
            if lane_turns:
                lane_turns[-1].cycles_run += n_cycles

    def run(
        self,
        n_cycles: int,
        *,
        triggers: Mapping[int, Callable[[int, dict[str, int]], bool]]
        | None = None,
        lanes: "Sequence[int] | None" = None,
    ) -> None:
        """Emulate ``n_cycles``, capturing every lane's trace-buffer inputs.

        ``triggers`` optionally maps lane → ``trigger(cycle, buffer
        values)`` callables arming that lane's post-trigger stop (the
        facade's per-session trigger).  ``lanes`` restricts which lanes'
        turn logs the cycles are charged to (emulation always advances
        every lane — they share the simulator).  Waveforms are read back
        per lane via :meth:`waveforms`.
        """
        if n_cycles < 0:
            raise DebugFlowError("n_cycles must be non-negative")
        tb_nodes = self._tb_nodes
        csim = self._csim
        if csim is not None:
            if csim.block_cycles > 1:
                self._run_blocked(n_cycles, triggers)
                self._account_cycles(n_cycles, lanes)
                return
            vals = csim.values
            for _ in range(n_cycles):
                self._step_compiled()
                csim.export_words(tb_nodes, self._sample_buf)
                trigger_mask = self._trigger_mask(
                    triggers,
                    csim.cycle - 1,
                    lambda i, lane: (vals[tb_nodes[i]] >> lane) & 1,
                )
                self.trace.capture(
                    self._sample_view, trigger_mask=trigger_mask
                )
            self._account_cycles(n_cycles, lanes)
            return
        width = len(tb_nodes)
        for _ in range(n_cycles):
            values = self._step_interpreted()
            sample = np.fromiter(
                (values[n][0] for n in tb_nodes),
                dtype=np.uint64,
                count=width,
            )
            trigger_mask = self._trigger_mask(
                triggers,
                self.sim.cycle - 1,
                lambda i, lane: int(
                    (sample[i] >> np.uint64(lane)) & np.uint64(1)
                ),
            )
            self.trace.capture(sample, trigger_mask=trigger_mask)
        self._account_cycles(n_cycles, lanes)

    def _run_blocked(
        self, n_cycles: int, triggers
    ) -> None:
        """Cycle-batched body of :meth:`run` (numpy backend, combinational
        program): each batch of up to ``block_cycles`` cycles settles in
        one vectorized pass; trace captures then replay per cycle out of
        the batch's gathered trace-buffer rows."""
        csim = self._csim
        tb_nodes = self._tb_nodes
        n_tb = len(tb_nodes)
        blk = csim.block_cycles
        nw = self.n_words
        if self._blk_tb is None:
            self._blk_tb = np.empty((n_tb, blk * nw), dtype=np.uint64)
        v3 = self._blk_tb.reshape(n_tb, blk, nw)
        done = 0
        base = csim.cycle
        while done < n_cycles:
            n_batch = min(blk, n_cycles - done)
            cycles = range(base + done, base + done + n_batch)
            rows = [self._pi_values_ints(cy) for cy in cycles]
            ovs = [self._cycle_overrides_ints(cy) for cy in cycles]
            if n_batch == 1:
                csim.step(rows[0], overrides=ovs[0])
                csim.export_words(tb_nodes, self._sample_buf)
                sample = self._sample_view
            else:
                csim.run_block(rows, ovs)
                csim.block_export(tb_nodes, self._blk_tb)
            for c in range(n_batch):
                if n_batch > 1:
                    sample = v3[:, c, :]
                trigger_mask = self._trigger_mask(
                    triggers,
                    base + done + c,
                    lambda i, lane, s=sample: int(
                        s[i, lane >> 6] >> np.uint64(lane & 63)
                    )
                    & 1,
                )
                self.trace.capture(sample, trigger_mask=trigger_mask)
            done += n_batch

    @property
    def user_po_names(self) -> list[str]:
        """The design's own primary outputs (excluding trace-buffer POs)."""
        return list(self._user_po_names)

    def run_outputs(
        self,
        n_cycles: int,
        *,
        lanes: "Sequence[int] | None" = None,
        stop: Callable[[int, "list[int]"], bool] | None = None,
    ) -> np.ndarray:
        """Emulate up to ``n_cycles`` recording the packed primary outputs.

        The lane-parallel analogue of the session's ``output_trace``:
        advances the same emulation state as :meth:`run` (active forces
        apply, cycles count toward each lane's current turn) but captures
        nothing into the trace buffer.  Returns a ``(cycles_run, n_pos,
        n_words)`` ``uint64`` array; bit *k* of word *w* of entry
        ``[c, j]`` is lane ``64*w + k``'s value of ``user_po_names[j]``
        on cycle ``c``.

        ``stop(cycle_index, po_words)`` is consulted after every cycle
        with the word-packed integer PO values; returning ``True`` halts
        the run early (the packed-detection early exit: once every active
        lane has diverged there is nothing left to learn from the rest of
        the horizon).  Only the cycles actually emulated are charged and
        returned.
        """
        if n_cycles < 0:
            raise DebugFlowError("n_cycles must be non-negative")
        po_ids = self._user_po_ids
        out = np.zeros((n_cycles, len(po_ids), self.n_words), dtype=np.uint64)
        csim = self._csim
        ran = 0
        if csim is not None and csim.block_cycles > 1:
            ran = self._run_outputs_blocked(n_cycles, out, stop)
            self._account_cycles(ran, lanes)
            return out[:ran]
        for c in range(n_cycles):
            if csim is not None:
                self._step_compiled()
                vals = csim.values
                row_ints = [vals[nid] for nid in po_ids]
            else:
                values = self._step_interpreted()
                row_ints = [int(values[nid][0]) for nid in po_ids]
            if self.n_words == 1:
                for j, x in enumerate(row_ints):
                    out[c, j, 0] = x
            else:
                for j, x in enumerate(row_ints):
                    out[c, j] = int_to_words(x, self.n_words)
            ran += 1
            if stop is not None and stop(c, row_ints):
                break
        self._account_cycles(ran, lanes)
        return out[:ran]

    def _run_outputs_blocked(self, n_cycles: int, out: np.ndarray, stop) -> int:
        """Cycle-batched body of :meth:`run_outputs`: batches settle in
        one vectorized pass, PO rows gather once per batch, and the stop
        predicate replays per cycle — an early stop rewinds the batch's
        overshoot (:meth:`~repro.netlist.compiled.CompiledSimulator.rewind_block`)
        so cycle accounting and final state match the per-cycle path."""
        csim = self._csim
        po_ids = self._user_po_ids
        n_po = len(po_ids)
        blk = csim.block_cycles
        nw = self.n_words
        if self._blk_po is None:
            self._blk_po = np.empty((n_po, blk * nw), dtype=np.uint64)
        v3 = self._blk_po.reshape(n_po, blk, nw)
        ran = 0
        base = csim.cycle
        while ran < n_cycles:
            n_batch = min(blk, n_cycles - ran)
            cycles = range(base + ran, base + ran + n_batch)
            rows = [self._pi_values_ints(cy) for cy in cycles]
            ovs = [self._cycle_overrides_ints(cy) for cy in cycles]
            if n_batch == 1:
                csim.step(rows[0], overrides=ovs[0])
                row_ints = csim.node_ints(po_ids)
                for j, x in enumerate(row_ints):
                    out[ran, j] = int_to_words(x, nw)
                ran += 1
                if stop is not None and stop(ran - 1, row_ints):
                    return ran
                continue
            csim.run_block(rows, ovs)
            csim.block_export(po_ids, self._blk_po)
            consumed = n_batch
            stopped = False
            for c in range(n_batch):
                out[ran + c] = v3[:, c, :]
                if stop is not None:
                    row_ints = [
                        int.from_bytes(v3[j, c].tobytes(), "little")
                        for j in range(n_po)
                    ]
                    if stop(ran + c, row_ints):
                        consumed = c + 1
                        stopped = True
                        break
            if stopped:
                if consumed < n_batch:
                    csim.rewind_block(consumed)
                return ran + consumed
            ran += n_batch
        return ran

    # -- results --------------------------------------------------------------------

    def waveforms(self, lane: int = 0) -> dict[str, np.ndarray]:
        """Lane's captured windows keyed by its observed *signal* names."""
        self._check_lane(lane)
        window = self.trace.window(lane)
        out: dict[str, np.ndarray] = {}
        for i, g in enumerate(self.design.groups):
            sig = self._observed[lane].get(g.po_name)
            if sig is not None:
                out[sig] = window[:, i]
        return out

    # -- accounting ------------------------------------------------------------

    def total_modeled_overhead_s(self, lane: int = 0) -> float:
        self._check_lane(lane)
        return sum(t.modeled_overhead_s for t in self.turns[lane])

    def total_cycles(self, lane: int = 0) -> int:
        self._check_lane(lane)
        return sum(t.cycles_run for t in self.turns[lane])
