"""The lane-parallel engine core (§IV-B at SIMD width).

A :class:`LaneEngine` steps one packed
:class:`~repro.netlist.compiled.CompiledSimulator` over the mapped
network of an offline artifact, with debug scenarios bound to the lanes
of its packed words.  All shared state (the mapped network, the virtual
PConf layout, the tap/PO directories) is built once; everything a
scenario owns — stimulus, forced faults, the current observation
(select-parameter values), the SCG accounting, the captured trace — is
per lane.

The emulation step executes the mapped network's
:class:`~repro.netlist.compiled.CompiledProgram`, taken with the virtual
PConf from the offline artifact's ``emulation`` stage
(:class:`~repro.core.flow.Emulation`, built once per design and persisted
with the other stages), on a simulator of exactly ``n_lanes`` lanes: a
node's per-cycle value is an ``n_lanes``-bit integer (lane *k* at bit
*k*), so a one-lane session evaluates one bit per cycle.  The engine
hands the kernel lane-packed integer stimulus and lane-masked override
indices, and reads trace samples and PO words straight out of the kernel
state — no per-node dicts, no per-cycle array allocation.  Every array
view (stimulus scripts, select bits, trace samples, PO captures) keeps
``n_words = ceil(n_lanes / 64)`` ``uint64`` words per value, lane *k* at
word ``k // 64``, bit ``k % 64``; the conversion to and from a block's
integers is the simulator's row helpers'
(:func:`~repro.netlist.compiled.block_ints` and friends).
:meth:`LaneEngine.run` and :meth:`LaneEngine.run_outputs` each have one
emulation loop over kernel passes: each pass covers
:meth:`~repro.netlist.compiled.CompiledSimulator.block_span` cycles (up
to :attr:`~repro.netlist.compiled.CompiledSimulator.block_cycles`; for a
sequential design as far as the kernel's latch record predicts) and
consumes the exact prefix the kernel's prediction check accepts, so the
loops advance by the cycles each pass consumed.  Block stimulus is one
list in the program's PI order, cycle *c* of the block at bits ``[c *
n_lanes, (c+1) * n_lanes)``: the user PIs' words are packed out of the
script rows in one step, callable stimuli are consulted cycle by cycle,
and the select-parameter words — in the program's late-PI order — are
held across the block in one vectorised step per observation and block
length.  The user PIs' words of a ``(cycle, n_cycles)`` block are kept
until a lane rebinds a script, so a replay from cycle 0 packs nothing.

A debug turn changes only what is observed.  :meth:`LaneEngine.observe`
looks its signals up in the design's per-tap table
(:attr:`~repro.core.muxnet.InstrumentedDesign.pick_table`) and lands
them in the assignment vector with one scatter; the emulation program is
split at the select parameters, so a replay whose stimulus, start state
and faults repeat re-runs only the select cone (see
:meth:`~repro.netlist.compiled.CompiledSimulator.run_block`).

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
from repro.emu.fault import NEVER_ENDS, ForcedFault, active_override_ints
from repro.errors import DebugFlowError
from repro.netlist.compiled import (
    CompiledSimulator,
    block_ints,
    block_rows,
    held_block_ints,
    network_signature,
)
from repro.util.bitops import pack_lane_scripts, words_for_bits

__all__ = ["DebugTurnLog", "LaneEngine", "Stimulus"]

Stimulus = Callable[[int], Mapping[str, int]]
"""Per-cycle primary-input values: cycle → {pi name: 0/1}."""

#: A lane's stimulus: a per-cycle callable, or a pre-recorded script
#: (one ``{pi name: 0/1}`` row per cycle) the engine packs into lane
#: bits once and replays across debugging turns.
StimulusLike = "Stimulus | Sequence[Mapping[str, int]] | None"


@dataclass(slots=True)
class DebugTurnLog:
    """Bookkeeping for one observe+run round (of one lane)."""

    cycles_run: int
    modeled_overhead_s: float
    frames_touched: int


class LaneEngine:
    """Many concurrent debug scenarios over one offline artifact.

    ``n_lanes`` is unbounded above (row views add a word every 64
    lanes); the kernel evaluates exactly ``n_lanes`` bits per cycle, so
    its cost grows with the lane count and a narrow batch costs less
    than a full word.  The
    compiled program and the virtual PConf come from
    :meth:`~repro.core.flow.OfflineStage.ensure_emulation`, checked
    against the signature of the mapped network the engine names.
    """

    def __init__(
        self,
        offline: OfflineStage,
        *,
        n_lanes: int = 1,
        model: Virtex5Model | None = None,
        trace_depth: int | None = None,
    ) -> None:
        if n_lanes < 1:
            raise DebugFlowError("lane count must be at least 1")
        self.offline = offline
        self.design = offline.instrumented
        self.model = model or Virtex5Model()
        self.n_lanes = n_lanes
        self.n_words = max(1, words_for_bits(n_lanes))
        self.mapped_net = offline.mapping.to_lut_network()
        emulation = offline.ensure_emulation()
        program = emulation.program
        if program.signature != network_signature(self.mapped_net):
            raise DebugFlowError(
                "the offline artifact's emulation program was not compiled "
                "from its mapped network"
            )
        self.sim = CompiledSimulator(program, n_lanes)
        self.backend = self.sim.backend
        self.pconf = emulation.pconf
        depth = trace_depth or offline.config.trace_depth
        self.trace = LaneTraceBuffer(
            width=self.design.n_buffer_inputs, depth=depth, n_lanes=n_lanes
        )

        # -- shared directories (identical to the historical session's) ----
        # parameter PI ids, in the order of an assignment's vector, and
        # their lane-packed values: row i, word w, bit k = lane 64*w + k's
        # value of parameter i.  The program is split at exactly these
        # PIs: block PI words list the user PIs (early) and then the
        # select words in the program's late-PI order, built once per
        # observation and block length.
        self._param_pis = [
            self.mapped_net.require(name)
            for name in self.design.param_space.names
        ]
        self._pi_order = program.pi_order
        self._user_pis = list(self._pi_order[: program.n_early_pis])
        late = self._pi_order[program.n_early_pis :]
        if sorted(late) != sorted(self._param_pis):
            raise DebugFlowError(
                "the offline artifact's emulation program is not split at "
                "its select parameters"
            )
        param_row = {pi: i for i, pi in enumerate(self._param_pis)}
        self._late_rows = np.array(
            [param_row[pi] for pi in late], dtype=np.intp
        )
        self._param_bits = np.zeros(
            (len(self._param_pis), self.n_words), dtype=np.uint64
        )
        self._param_words: dict[int, list[int]] = {}
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

        # the passes' export buffers, ``block_cycles`` cycles wide, each
        # allocated by the first call of the loop that reads it
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
            replace(initial) for _ in range(n_lanes)
        ]
        self.assignments: list[ParameterAssignment] = [zeros] * n_lanes
        # what each buffer input sees with every select at 0: a group no
        # pick routes keeps it
        unrouted = self.design.observed_at({})
        self._group_pos = list(unrouted)
        self._unrouted_names = np.array(list(unrouted.values()), object)
        # each lane's observed signals in buffer order: its observed map's
        # values and its waveforms' keys
        self._observed: list[list[str]] = [
            list(unrouted.values()) for _ in range(n_lanes)
        ]
        self.turns: list[list[DebugTurnLog]] = [[] for _ in range(n_lanes)]
        self._forces: list[list[ForcedFault]] = [[] for _ in range(n_lanes)]
        self._stim_fns: list[Stimulus | None] = [None] * n_lanes
        self._stim_scripts: list[Sequence[Mapping[str, int]] | None] = [
            None
        ] * n_lanes
        # packed scripts as one row of words per user PI, a row of
        # ``n_words`` per cycle and a block of zero cycles past the
        # longest script (block stimulus packs a slice of them), and the
        # user PI words of each ``(cycle, n_cycles)`` block packed from
        # them; both dropped when a lane rebinds a script
        self._script_rows: np.ndarray | None = None
        self._script_words: dict[tuple[int, int], list[int]] = {}

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
        path batch campaigns use.  Rebinding a lane to the *same* script
        object keeps the packed form, so scripts must not be mutated in
        place after binding (bind a new object instead).  Callables are
        consulted cycle by cycle, exactly like the historical session's
        ``stimulus`` argument.  Missing PIs default to 0 either way.
        """
        self._check_lane(lane)
        if stimulus is not None and not callable(stimulus):
            if self._stim_scripts[lane] is not stimulus:
                self._stim_scripts[lane] = stimulus
                self._drop_packed_scripts()
            self._stim_fns[lane] = None
        else:
            self._stim_fns[lane] = stimulus
            if self._stim_scripts[lane] is not None:
                self._stim_scripts[lane] = None
                self._drop_packed_scripts()

    def _drop_packed_scripts(self) -> None:
        self._script_rows = None
        self._script_words.clear()

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
        signal set in the same packed emulation.  Each signal is one
        lookup in the design's per-tap table
        (:attr:`~repro.core.muxnet.InstrumentedDesign.pick_table`); the
        picks' rows then fill the assignment vector in one scatter and
        the lane's observed names in another.  An unknown or untapped
        signal, or two picks in one trace group, fall back to
        :meth:`~repro.core.muxnet.InstrumentedDesign.picks`, which raises
        the error.
        """
        self._check_lane(lane)
        table = self.design.pick_table
        try:
            rows = np.fromiter(
                map(table.row.__getitem__, signals), np.intp, len(signals)
            )
        except KeyError:
            rows = None
        if rows is None or self._collide(table.group.take(rows)):
            # picks raises its unknown, untapped or collision error
            rows = np.array(
                [table.row[r.observed] for r in self.design.picks(signals)],
                dtype=np.intp,
            )
        vector = np.zeros(len(self._param_pis) + 1, dtype=np.uint8)
        vector[table.ones.take(rows, axis=0)] = 1
        vector = vector[:-1]
        assignment = ParameterAssignment(self.design.param_space, vector)
        self.assignments[lane] = assignment
        rec = self.scgs[lane].respecialize(assignment)
        shift = np.uint64(lane & 63)
        column = self._param_bits[:, lane >> 6]
        column &= ~(np.uint64(1) << shift)
        column |= np.left_shift(vector, shift, dtype=np.uint64)
        self._param_words.clear()
        names = self._unrouted_names.copy()
        names[table.group.take(rows)] = table.name.take(rows)
        names = names.tolist()
        self._observed[lane] = names
        self.turns[lane].append(
            DebugTurnLog(
                cycles_run=0,
                modeled_overhead_s=rec.device_cost.specialization_s,
                frames_touched=len(rec.frames_touched),
            )
        )
        return self.observed(lane)

    def _collide(self, groups: np.ndarray) -> bool:
        """Whether two picks share a trace group."""
        hit = np.zeros(len(self._group_pos), dtype=bool)
        hit[groups] = True
        return int(np.count_nonzero(hit)) != len(groups)

    def observed(self, lane: int = 0) -> dict[str, str]:
        """Lane's current buffer input → observed signal name."""
        self._check_lane(lane)
        return dict(zip(self._group_pos, self._observed[lane]))

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

    def _block_overrides(self, cycle: int, n_cycles: int):
        """Block-wide blended overrides for all lanes' faults: cycle *c*
        of the block on bits ``[c * L, (c+1) * L)``."""
        flat = [f for lane_faults in self._forces for f in lane_faults]
        if not flat:
            return None
        width = self.n_lanes
        acc: dict[int, tuple[int, int]] | None = None
        for c in range(n_cycles):
            ov = active_override_ints(flat, cycle + c, n_lanes=width)
            if not ov:
                continue
            if acc is None:
                acc = {}
            sh = c * width
            for node, (forced, mask) in ov.items():
                f0, m0 = acc.get(node, (0, 0))
                acc[node] = (f0 | (forced << sh), m0 | (mask << sh))
        return acc

    # -- execution ----------------------------------------------------------------

    def reset(self) -> None:
        """Reset emulated latches and the trace memory (not the turn logs)."""
        self.sim.reset()
        self.trace.reset()

    def reset_trace(self) -> None:
        """Reset only the (shared) trace memory."""
        self.trace.reset()

    def _packed_scripts(self) -> np.ndarray:
        """Every user PI's packed script as one row of words (prepared
        once per packing; see ``_script_rows``)."""
        if self._script_rows is None:
            horizon = max(
                (len(s) for s in self._stim_scripts if s is not None),
                default=0,
            )
            packed = pack_lane_scripts(
                self._stim_scripts, self._user_pi_names, horizon
            )
            k, nw = len(self._user_pis), self.n_words
            rows = np.zeros(
                (k, (horizon + self.sim.block_cycles) * nw), dtype=np.uint64
            )
            flat = [w for pi in self._user_pis for w in packed[pi]]
            rows[:, : horizon * nw] = block_rows(
                flat, 1, self.n_lanes
            ).reshape(k, horizon * nw)
            self._script_rows = rows
        return self._script_rows

    def _block_param_words(self, n_cycles: int) -> list[int]:
        """Select-parameter words held across ``n_cycles`` cycles, in the
        program's late-PI order: one vectorised step per observation and
        block length."""
        words = self._param_words.get(n_cycles)
        if words is None:
            words = self._param_words[n_cycles] = held_block_ints(
                self._param_bits.take(self._late_rows, axis=0),
                n_cycles,
                self.n_lanes,
            )
        return words

    def _block_pi_words(self, cycle: int, n_cycles: int) -> list[int]:
        """Block-wide PI words for ``n_cycles`` cycles from ``cycle``, in
        the program's PI order: lane stimulus from the packed scripts and
        callable stimuli row by row (the user PIs), then the select
        parameters held across the block."""
        words = self._script_words.get((cycle, n_cycles))
        if words is None:
            rows = self._packed_scripts()
            lo, hi = cycle * self.n_words, (cycle + n_cycles) * self.n_words
            if hi <= rows.shape[1]:
                words = self._script_words[cycle, n_cycles] = block_ints(
                    rows[:, lo:hi], n_cycles, self.n_lanes
                )
            else:  # past every script
                words = [0] * len(self._user_pis)
        fns = [(lane, fn) for lane, fn in enumerate(self._stim_fns) if fn]
        if fns:
            words = list(words)  # callable stimulus is never kept
        width = self.n_lanes
        for c in range(n_cycles if fns else 0):
            rows_c = [(1 << lane, fn(cycle + c)) for lane, fn in fns]
            for i, pi in enumerate(self._user_pis):
                name = self._user_pi_names[pi]
                bits = 0
                for bit, row in rows_c:
                    if int(row.get(name, 0)) & 1:
                        bits |= bit
                words[i] |= bits << (c * width)
        return words + self._block_param_words(n_cycles)

    def _advance(self, cycle: int, n_cycles: int) -> int:
        """Emulate up to ``n_cycles`` cycles from ``cycle`` with every
        lane's stimulus and active faults in one
        :meth:`~repro.netlist.compiled.CompiledSimulator.run_block` pass
        of the kernel's block span; return the cycles consumed, which may
        be fewer than the pass evaluated."""
        n = self.sim.block_span(n_cycles)
        return self.sim.run_block(
            self._block_pi_words(cycle, n),
            n,
            self._block_overrides(cycle, n),
        )

    def _trigger_mask(self, triggers, cycle: int, sample: np.ndarray) -> int:
        """Evaluate each lane's trigger against its view of this cycle's
        trace-buffer inputs (``sample`` is the ``(n_groups, n_words)``
        packed row the trace captures)."""
        if not triggers:
            return 0
        mask = 0
        for lane, trig in triggers.items():
            if trig is None:
                continue
            word, bit = lane >> 6, np.uint64(lane & 63)
            named = {
                g.po_name: int(sample[i, word] >> bit) & 1
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
        per lane via :meth:`waveforms`.  Each block of cycles settles in
        one kernel pass; captures and triggers then replay per consumed
        cycle.
        """
        if n_cycles < 0:
            raise DebugFlowError("n_cycles must be non-negative")
        sim = self.sim
        tb_nodes = self._tb_nodes
        blk = sim.block_cycles
        if self._blk_tb is None:
            self._blk_tb = np.empty(
                (len(tb_nodes), blk * self.n_words), dtype=np.uint64
            )
        per_cycle = self._blk_tb.reshape(
            len(tb_nodes), blk, self.n_words
        ).swapaxes(0, 1)
        done = 0
        base = sim.cycle
        while done < n_cycles:
            n_batch = self._advance(base + done, n_cycles - done)
            sim.block_export(tb_nodes, self._blk_tb)
            samples = per_cycle[:n_batch]
            if triggers:
                for c, sample in enumerate(samples):
                    self.trace.capture(
                        sample,
                        trigger_mask=self._trigger_mask(
                            triggers, base + done + c, sample
                        ),
                    )
            else:
                self.trace.capture_block(samples)
            done += n_batch
        self._account_cycles(n_cycles, lanes)

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
        returned: a stop inside a block rewinds the block's overshoot
        (:meth:`~repro.netlist.compiled.CompiledSimulator.rewind_block`),
        leaving the state a cycle-by-cycle run stopping there would.
        """
        if n_cycles < 0:
            raise DebugFlowError("n_cycles must be non-negative")
        sim = self.sim
        po_ids = self._user_po_ids
        n_po = len(po_ids)
        nw = self.n_words
        out = np.zeros((n_cycles, n_po, nw), dtype=np.uint64)
        blk = sim.block_cycles
        if self._blk_po is None:
            self._blk_po = np.empty((n_po, blk * nw), dtype=np.uint64)
        block = self._blk_po.reshape(n_po, blk, nw)
        ran = 0
        base = sim.cycle
        stopped = False
        while ran < n_cycles and not stopped:
            n_batch = self._advance(base + ran, n_cycles - ran)
            sim.block_export(po_ids, self._blk_po)
            out[ran : ran + n_batch] = block[:, :n_batch].swapaxes(0, 1)
            if stop is not None:
                for c in range(n_batch):
                    row = [
                        int.from_bytes(block[j, c].tobytes(), "little")
                        for j in range(n_po)
                    ]
                    if stop(ran + c, row):
                        if c + 1 < n_batch:
                            sim.rewind_block(c + 1)
                        n_batch, stopped = c + 1, True
                        break
            ran += n_batch
        self._account_cycles(ran, lanes)
        return out[:ran]

    # -- results --------------------------------------------------------------------

    def waveforms(self, lane: int = 0) -> dict[str, np.ndarray]:
        """Lane's captured windows keyed by its observed *signal* names:
        rows of one fresh array, so later turns leave them as they are."""
        self._check_lane(lane)
        channels = np.ascontiguousarray(self.trace.window(lane).T)
        return dict(zip(self._observed[lane], channels))

    # -- accounting ------------------------------------------------------------

    def total_modeled_overhead_s(self, lane: int = 0) -> float:
        self._check_lane(lane)
        return sum(t.modeled_overhead_s for t in self.turns[lane])

    def total_cycles(self, lane: int = 0) -> int:
        self._check_lane(lane)
        return sum(t.cycles_run for t in self.turns[lane])
