"""Reference per-gate simulator (the pre-compilation implementation).

This is the bit-parallel interpreter exactly as it shipped before the
compiled kernels of :mod:`repro.netlist.compiled` became the only way
the package simulates: every step walks the network's topological order
and evaluates each gate's ISOP cover (:func:`repro.netlist.sop.
truthtable_to_cover`) cube by cube with numpy ops over packed ``uint64``
words.  It shares no lowering or code generation with the compiled
kernels, which makes it useful twice:

* as an **independent oracle** — ``tests/test_compiled.py`` and
  ``tests/test_backend_parity.py`` diff the compiled kernels against it
  node for node, cycle for cycle;
* as a **benchmark denominator** — ``bench_kernels.py`` (per step and
  per campaign), ``bench_lanes.py`` and ``bench_micro.py`` measure the
  compiled path against it.  :func:`reference_online` runs a whole
  campaign's online phase on it without any hook in the package.

Not part of the package — the program simulates through
:class:`repro.netlist.compiled.CompiledSimulator`.
"""

from __future__ import annotations

import contextlib
from typing import Mapping

import numpy as np

from repro.engine import LaneEngine
from repro.errors import SimulationError
from repro.netlist.compiled import int_to_words, words_to_int
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.sop import truthtable_to_cover

__all__ = [
    "ReferenceKernel",
    "ReferenceLaneEngine",
    "SequentialSimulator",
    "apply_override",
    "reference_online",
    "simulate_combinational",
]


def apply_override(clean: np.ndarray, override) -> np.ndarray:
    """Resolve one override against the clean (computed) value.

    Full-array overrides replace ``clean``; ``(forced, mask)`` pairs blend
    per lane: ``(clean & ~mask) | (forced & mask)``.
    """
    if isinstance(override, tuple):
        forced, mask = override
        forced = np.asarray(forced, dtype=np.uint64)
        mask = np.asarray(mask, dtype=np.uint64)
        return (clean & ~mask) | (forced & mask)
    return np.asarray(override, dtype=np.uint64)


def _eval_gate(
    func, fanin_values: list[np.ndarray], n_words: int
) -> np.ndarray:
    """Evaluate one gate's truth table over packed words."""
    const = func.const_value()
    if const is not None:
        if const:
            return np.full(n_words, np.iinfo(np.uint64).max, dtype=np.uint64)
        return np.zeros(n_words, dtype=np.uint64)
    cover = truthtable_to_cover(func)
    acc = np.zeros(n_words, dtype=np.uint64)
    for cube in cover.cubes:
        term = np.full(n_words, np.iinfo(np.uint64).max, dtype=np.uint64)
        for i, val in enumerate(fanin_values):
            bit = (cube.mask >> i) & 1
            if not bit:
                continue
            if (cube.polarity >> i) & 1:
                np.bitwise_and(term, val, out=term)
            else:
                np.bitwise_and(term, ~val, out=term)
        np.bitwise_or(acc, term, out=acc)
    return acc


def _override_to_arrays(override, n_words: int):
    """Normalize integer-form overrides to array forms (arrays pass
    through untouched)."""
    if isinstance(override, tuple):
        forced, mask = override
        if isinstance(forced, int):
            forced = int_to_words(forced, n_words)
        if isinstance(mask, int):
            mask = int_to_words(mask, n_words)
        return forced, mask
    if isinstance(override, int):
        return int_to_words(override, n_words)
    return override


def simulate_combinational(
    net: LogicNetwork,
    source_values: Mapping[int, np.ndarray],
    *,
    overrides=None,
) -> dict[int, np.ndarray]:
    """Evaluate all nodes given packed words for every PI and latch
    output; ``overrides`` takes every form
    :func:`repro.netlist.simulate.simulate_combinational` accepts.
    Returns a dict mapping every node id to its packed value array."""
    values: dict[int, np.ndarray] = {}
    n_words: int | None = None
    for nid in net.sources():
        if nid not in source_values:
            raise SimulationError(
                f"no stimulus for source {net.node_name(nid)!r}"
            )
        arr = np.asarray(source_values[nid], dtype=np.uint64)
        if n_words is None:
            n_words = arr.size
        elif arr.size != n_words:
            raise SimulationError("stimulus arrays must share length")
        values[nid] = arr
    if n_words is None:
        raise SimulationError("network has no sources")
    overrides = {
        nid: _override_to_arrays(ov, n_words)
        for nid, ov in (overrides or {}).items()
    }

    for nid in net.topo_order():
        ov = overrides.get(nid)
        if nid in values and ov is None:
            continue
        kind = net.kind(nid)
        if kind != NodeKind.GATE:
            if ov is not None:
                clean = values.get(nid)
                if clean is None and isinstance(ov, tuple):
                    clean = np.zeros(n_words, dtype=np.uint64)
                values[nid] = apply_override(clean, ov)
            continue
        if ov is not None and not isinstance(ov, tuple):
            values[nid] = np.asarray(ov, dtype=np.uint64)
            continue
        func = net.func(nid)
        assert func is not None
        fanin_vals = [values[f] for f in net.fanins(nid)]
        clean = _eval_gate(func, fanin_vals, n_words)
        values[nid] = apply_override(clean, ov) if ov is not None else clean
    return values


class SequentialSimulator:
    """Cycle-accurate reference simulation with D flip-flop latches.

    Same API as :class:`repro.netlist.simulate.SequentialSimulator`:
    :meth:`step` takes packed arrays (or word-packed integers) per PI and
    returns every node's packed value array for the cycle.
    """

    def __init__(self, net: LogicNetwork, n_words: int = 1) -> None:
        self.net = net
        self.n_words = int(n_words)
        self.cycle = 0
        self.state: dict[int, np.ndarray] = {}
        self.reset()

    def reset(self) -> None:
        """Load latch initial values (init=1 → all-ones, else zeros)."""
        self.cycle = 0
        self.state = {}
        ones = np.full(self.n_words, np.iinfo(np.uint64).max, dtype=np.uint64)
        for latch in self.net.latches:
            if latch.init == 1:
                self.state[latch.q] = ones.copy()
            else:
                self.state[latch.q] = np.zeros(self.n_words, dtype=np.uint64)

    def step(
        self,
        pi_values: Mapping[int, np.ndarray],
        *,
        overrides=None,
    ) -> dict[int, np.ndarray]:
        """Advance one clock cycle; returns every node's value this cycle."""
        sources: dict[int, np.ndarray] = {}
        for pi in self.net.pis:
            if pi not in pi_values:
                raise SimulationError(
                    f"cycle {self.cycle}: no value for PI "
                    f"{self.net.node_name(pi)!r}"
                )
            val = pi_values[pi]
            if isinstance(val, int):
                val = int_to_words(val, self.n_words)
            arr = np.asarray(val, dtype=np.uint64)
            if arr.size != self.n_words:
                raise SimulationError("PI value width mismatch")
            sources[pi] = arr
        sources.update(self.state)
        values = simulate_combinational(self.net, sources, overrides=overrides)
        next_state: dict[int, np.ndarray] = {}
        for latch in self.net.latches:
            next_state[latch.q] = values[latch.driver].copy()
        self.state = next_state
        self.cycle += 1
        return values


class ReferenceKernel:
    """The reference simulator behind the part of
    :class:`~repro.netlist.compiled.CompiledSimulator`'s API the lane
    engine steps through: lane-packed integer stimulus and overrides in,
    lane-packed node values out, one cycle per pass.  Like the compiled
    simulator it serves exactly ``n_lanes`` lanes: it evaluates whole
    words and reads back only the lanes it has."""

    backend = "interpreted"
    block_cycles = 1

    def __init__(self, net: LogicNetwork, n_lanes: int = 64) -> None:
        self.n_lanes = n_lanes
        self.n_words = (n_lanes + 63) // 64
        self._full = (1 << n_lanes) - 1
        self._word_lanes = int_to_words(self._full, self.n_words)
        self._sim = SequentialSimulator(net, self.n_words)
        self._values: dict[int, np.ndarray] = {}

    @property
    def cycle(self) -> int:
        return self._sim.cycle

    def block_span(self, n_cycles: int) -> int:
        return 1

    def reset(self) -> None:
        self._sim.reset()

    def step(self, pi_values: Mapping[int, int], *, overrides=None) -> None:
        self._values = self._sim.step(pi_values, overrides=overrides)

    def node_ints(self, nodes) -> list[int]:
        return [words_to_int(self._values[n]) & self._full for n in nodes]

    def export_words(self, nodes, buf: bytearray) -> None:
        width = 8 * self.n_words
        for i, n in enumerate(nodes):
            row = self._values[n] & self._word_lanes
            buf[i * width : (i + 1) * width] = row.tobytes()


class ReferenceLaneEngine(LaneEngine):
    """A :class:`~repro.engine.LaneEngine` that emulates on the reference
    simulator instead of the compiled kernels."""

    def __init__(self, offline, **kwargs) -> None:
        super().__init__(offline, **kwargs)
        self.sim = ReferenceKernel(self.mapped_net, self.n_lanes)
        self.backend = self.sim.backend


@contextlib.contextmanager
def reference_online():
    """Run campaigns' online phase on the reference simulator: lane
    batches emulate on :class:`ReferenceLaneEngine` and golden passes
    (:func:`repro.workloads.scenarios.packed_signal_traces`) step
    :class:`ReferenceKernel` on the golden network itself.  Patches
    in-process names only, so campaigns must run with ``workers=1``."""
    import repro.campaign.runner as runner
    import repro.workloads.scenarios as scenarios

    names = [
        (runner, "LaneEngine", ReferenceLaneEngine),
        (scenarios, "CompiledSimulator", ReferenceKernel),
        (scenarios, "program_for", lambda net, **_: net),
    ]
    saved = [getattr(module, name) for module, name, _ in names]
    for module, name, value in names:
        setattr(module, name, value)
    try:
        yield
    finally:
        for (module, name, _), value in zip(names, saved):
            setattr(module, name, value)
