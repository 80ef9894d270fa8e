"""The Specialized Configuration Generator (SCG, §IV-B).

On the real system the SCG runs on an embedded processor: it evaluates the
Boolean functions of the parameterized configuration for the chosen
parameter values and swaps the changed configuration frames into the FPGA
through the HWICAP.  Here it wraps a
:class:`~repro.core.pconf.ParameterizedBitstream` plus a frame geometry,
tracks the currently-loaded configuration, and reports the modeled
on-device cost of every respecialization.  A generator keeps two records
however long a session runs (the initial load and the latest one) and a
running overhead total, so a debug session's memory does not grow with
its turns.  Records carry no host time:
the §V-C.2 experiment (``analysis.experiments.run_runtime_overhead``) and
``benchmarks/bench_runtime_overhead.py`` time
:meth:`~repro.core.pconf.ParameterizedBitstream.specialize` themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SpecializationError
from repro.core.costmodel import ReconfigCostReport, Virtex5Model
from repro.core.parameters import ParameterAssignment
from repro.core.pconf import ParameterizedBitstream, SpecializeStats

__all__ = ["SpecializedConfigGenerator", "SpecializationRecord"]


@dataclass(frozen=True)
class SpecializationRecord:
    """One respecialization: what changed and what it cost."""

    stats: SpecializeStats
    frames_touched: tuple[int, ...]
    device_cost: ReconfigCostReport


@dataclass
class SpecializedConfigGenerator:
    """Evaluates PConfs into concrete configurations, frame-aware.

    Parameters
    ----------
    pconf:
        The parameterized bitstream produced by the offline stage.
    frame_bits:
        Configuration frame size — the granularity of partial
        reconfiguration (HWICAP writes whole frames).
    model:
        Device timing model used to price each operation.

    ``initial`` is the first record (the initial full load) and
    ``latest`` the most recent one; ``modeled_overhead_s`` sums the
    modeled specialization time of every record after the first.  A
    copy (``dataclasses.replace``) shares the records and the loaded
    bits; specializing replaces them, never writes into them.
    """

    pconf: ParameterizedBitstream
    frame_bits: int = 1312
    model: Virtex5Model = field(default_factory=Virtex5Model)
    current_bits: np.ndarray | None = None
    initial: SpecializationRecord | None = None
    latest: SpecializationRecord | None = None
    modeled_overhead_s: float = 0.0

    @property
    def n_frames(self) -> int:
        return -(-self.pconf.n_bits // self.frame_bits) if self.pconf.n_bits else 0

    def _frames_of_changes(self, old: np.ndarray, new: np.ndarray) -> tuple[int, ...]:
        # changed bits come sorted, so their frame ids do too: keep the
        # first id of each run (np.unique would sort again, and its first
        # call in a process imports numpy.ma, about 14 ms)
        frames = np.flatnonzero(old != new) // self.frame_bits
        first = np.ones(frames.size, dtype=bool)
        first[1:] = frames[1:] != frames[:-1]
        return tuple(frames[first].tolist())

    def _keep(self, rec: SpecializationRecord) -> SpecializationRecord:
        if self.initial is None:
            self.initial = rec
        else:
            self.modeled_overhead_s += rec.device_cost.specialization_s
        self.latest = rec
        return rec

    def load_full(self, assignment: ParameterAssignment) -> SpecializationRecord:
        """Initial full configuration load (all frames written)."""
        bits, stats = self.pconf.specialize(assignment)
        self.current_bits = bits
        frames = tuple(range(self.n_frames))
        cost = ReconfigCostReport(
            evaluation_s=self.model.evaluation_s(
                stats.n_expr_nodes_evaluated, stats.n_tunable_bits
            ),
            partial_reconfig_s=self.model.full_reconfig_s(),
            specialization_s=self.model.evaluation_s(
                stats.n_expr_nodes_evaluated, stats.n_tunable_bits
            )
            + self.model.full_reconfig_s(),
            full_reconfig_s=self.model.full_reconfig_s(),
            speedup_vs_full=1.0,
            break_even_turns=self.model.break_even_turns(
                self.model.full_reconfig_s()
            ),
            debug_turn_s=self.model.debug_turn_s(),
        )
        return self._keep(
            SpecializationRecord(
                stats=stats, frames_touched=frames, device_cost=cost
            )
        )

    def respecialize(self, assignment: ParameterAssignment) -> SpecializationRecord:
        """Specialize for a new signal set; only changed frames are rewritten.

        This is the paper's fast online path: Boolean-function evaluation
        (≤50 µs modeled) plus dynamic partial reconfiguration of the frames
        whose bits actually changed.
        """
        if self.current_bits is None:
            raise SpecializationError("no configuration loaded; call load_full")
        bits, stats = self.pconf.specialize(assignment)
        frames = self._frames_of_changes(self.current_bits, bits)
        self.current_bits = bits
        cost = self.model.report(
            n_expr_nodes=stats.n_expr_nodes_evaluated,
            n_tunable_bits=stats.n_tunable_bits,
            n_frames_touched=len(frames),
        )
        return self._keep(
            SpecializationRecord(
                stats=stats, frames_touched=frames, device_cost=cost
            )
        )

    def total_modeled_overhead_s(self) -> float:
        """Summed device-side specialization time over the session."""
        return self.modeled_overhead_s
