"""The online debugging loop (§IV-B, Fig. 4(b)).

A :class:`DebugSession` drives the specialisation stage over an
:class:`~repro.core.flow.OfflineStage`:

1. ``observe(signals)`` — compute the select-parameter values routing the
   requested signals to trace-buffer inputs, run the SCG (respecialize the
   PConf; only changed frames are rewritten) and account the overhead;
2. ``run(n_cycles, stimulus)`` — emulate the specialized design cycle by
   cycle, capturing every trace-buffer input into the trace memory;
3. ``waveforms()`` — hand back the captured windows keyed by the *observed
   signal names*, exactly what an engineer inspects.

The session executes the **mapped** network (LUTs/TLUTs/TCONs materialized
via :meth:`~repro.mapping.result.MappingResult.to_lut_network`), so what
runs is the artifact the flow produced, not the source netlist; parameters
enter the emulation as the PIs they physically are.

Since the lane-parallel refactor the session is a **one-lane facade**
over :class:`repro.engine.LaneEngine`: the exact same engine that packs
whole campaign batches (one bit per scenario) into one compiled-kernel
emulation serves a single interactive session bound to lane 0, whose
kernel evaluates one bit per cycle.  The public API is unchanged; batch users who want many
scenarios per emulation step should use the engine (or the campaign
layer) directly.  :attr:`DebugSession.sim` is the engine's
:class:`~repro.netlist.compiled.CompiledSimulator`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.costmodel import Virtex5Model
from repro.core.flow import OfflineStage
from repro.core.parameters import ParameterAssignment
from repro.core.tracebuffer import LaneView
from repro.emu.fault import ForcedFault
from repro.engine import DebugTurnLog, LaneEngine, Stimulus

__all__ = ["DebugSession", "DebugTurnLog", "ForcedFault", "Stimulus"]


# ForcedFault lives in repro.emu.fault (one shared stuck-at implementation
# for plain netlist simulation and mapped-network debug sessions) and is
# re-exported here for the session-facing API.  In a session, the fault's
# node is a *mapped-network* node: the emulated design misbehaves, but the
# bitstream is the clean one, so every scenario targeting the same design
# shares one offline-stage artifact.  Forcing a mapped node is not always
# equivalent to forcing it in the source netlist — technology mapping
# duplicates logic into LUT cones, so paths that absorbed the signal's
# logic do not see the override.  Failure detection must therefore happen
# at the mapped level (:meth:`DebugSession.output_trace`), which is also
# what a real bench observes.


class DebugSession:
    """Interactive debugging against an offline-stage artifact."""

    def __init__(
        self,
        offline: OfflineStage,
        *,
        model: Virtex5Model | None = None,
        trace_depth: int | None = None,
    ) -> None:
        self._engine = LaneEngine(
            offline, n_lanes=1, model=model, trace_depth=trace_depth
        )
        self.trace = LaneView(self._engine.trace, lane=0)

    # -- engine delegation --------------------------------------------------------

    @property
    def engine(self) -> LaneEngine:
        """The underlying one-lane engine (this session is lane 0)."""
        return self._engine

    @property
    def offline(self) -> OfflineStage:
        return self._engine.offline

    @property
    def design(self):
        return self._engine.design

    @property
    def model(self) -> Virtex5Model:
        return self._engine.model

    @property
    def mapped_net(self):
        return self._engine.mapped_net

    @property
    def sim(self):
        """The engine's compiled simulator (one lane: lane 0)."""
        return self._engine.sim

    @property
    def pconf(self):
        return self._engine.pconf

    @property
    def scg(self):
        return self._engine.scgs[0]

    @property
    def assignment(self) -> ParameterAssignment:
        return self._engine.assignments[0]

    @property
    def turns(self) -> list[DebugTurnLog]:
        return self._engine.turns[0]

    # -- observation ------------------------------------------------------------

    @property
    def observable_signals(self) -> list[str]:
        return self._engine.observable_signals

    def observe(self, signals: list[str]) -> dict[str, str]:
        """Route ``signals`` to trace buffers; returns buffer→signal map.

        This closes the previous debug turn: its cycle count and the
        specialization overhead are logged for the amortization analysis.
        """
        hookup = self._engine.observe(signals, lane=0)
        self._engine.reset_trace()
        return hookup

    @property
    def observed(self) -> dict[str, str]:
        """Current buffer input → observed signal name."""
        return self._engine.observed(0)

    # -- fault forcing ------------------------------------------------------------

    def force(
        self,
        signal: str,
        value: int,
        *,
        first_cycle: int = 0,
        last_cycle: int | None = None,
    ) -> ForcedFault:
        """Force ``signal`` to ``value`` during ``[first_cycle, last_cycle]``.

        The override is applied inside the mapped-network emulation on every
        :meth:`run` / :meth:`output_trace` cycle in range, modeling a bug
        manifesting in the emulated design while the configuration itself
        stays clean.  Only *design* signals that physically exist in the
        mapped network — the observable taps (LUT roots), latches and user
        PIs — can be forced; debug-infrastructure nodes (select parameters,
        mux tree, trace-buffer outputs) are rejected, since forcing those
        would corrupt observation itself.  Forces survive :meth:`reset`;
        use :meth:`clear_forces` to remove them.
        """
        return self._engine.force(
            signal,
            value,
            lane=0,
            first_cycle=first_cycle,
            last_cycle=last_cycle,
        )

    def clear_forces(self) -> None:
        """Remove every active forced fault."""
        self._engine.clear_forces(0)

    @property
    def forces(self) -> list[ForcedFault]:
        """The currently active forced faults."""
        return self._engine.forces(0)

    # -- execution ----------------------------------------------------------------

    def reset(self) -> None:
        """Reset emulated latches and the trace memory (not the turn log)."""
        self._engine.reset()

    def run(
        self,
        n_cycles: int,
        stimulus: Stimulus,
        *,
        trigger: Callable[[int, dict[str, int]], bool] | None = None,
    ) -> np.ndarray:
        """Emulate ``n_cycles``, capturing trace-buffer inputs every cycle.

        ``stimulus(cycle)`` provides user PI values (missing PIs default 0).
        ``trigger(cycle, buffer_values)`` may arm the trace buffer's
        post-trigger stop.  Returns the captured window.
        """
        self._engine.bind_stimulus(0, stimulus)
        self._engine.run(
            n_cycles, triggers={0: trigger} if trigger is not None else None
        )
        return self.trace.window()

    @property
    def user_po_names(self) -> list[str]:
        """The design's own primary outputs (excluding trace-buffer POs)."""
        return self._engine.user_po_names

    def output_trace(
        self, n_cycles: int, stimulus: Stimulus
    ) -> list[dict[str, int]]:
        """Emulate ``n_cycles`` recording the design's primary outputs.

        Primary outputs are board pins — visible without any
        instrumentation — so this models the engineer watching the failing
        outputs before deciding which internal signals to observe.  It
        advances the same emulation state as :meth:`run` (active forces
        apply, cycles count toward the current debug turn) but does not
        capture into the trace buffer.  Returns one ``{po name: 0/1}`` dict
        per cycle.
        """
        self._engine.bind_stimulus(0, stimulus)
        packed = self._engine.run_outputs(n_cycles)
        names = self._engine.user_po_names
        one = np.uint64(1)
        return [
            {po: int(packed[c, j, 0] & one) for j, po in enumerate(names)}
            for c in range(packed.shape[0])
        ]

    # -- results --------------------------------------------------------------------

    def waveforms(self) -> dict[str, np.ndarray]:
        """Captured windows keyed by observed *signal* name."""
        return self._engine.waveforms(0)

    # -- session accounting ------------------------------------------------------------

    def total_modeled_overhead_s(self) -> float:
        return self._engine.total_modeled_overhead_s(0)

    def total_cycles(self) -> int:
        return self._engine.total_cycles(0)

    def amortization_report(self) -> dict[str, float]:
        """Overhead vs emulation time — the §V-C.2 trade-off for this session."""
        overhead = self.total_modeled_overhead_s()
        turn_s = self.model.debug_turn_s()
        run_s = self.total_cycles() * (1.0 / self.model.fpga_clock_hz)
        turns = self.turns
        return {
            "specializations": float(len(turns)),
            "modeled_overhead_s": overhead,
            "emulated_run_s": run_s,
            "overhead_fraction": overhead / (overhead + run_s)
            if (overhead + run_s) > 0
            else 0.0,
            "break_even_turns_per_specialization": float(
                self.model.break_even_turns(overhead / max(1, len(turns)))
            ),
            "debug_turn_s": turn_s,
        }
