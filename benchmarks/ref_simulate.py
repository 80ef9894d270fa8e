"""Reference per-gate simulator (the pre-compilation implementation).

This is the bit-parallel interpreter exactly as it shipped before the
compiled kernels of :mod:`repro.netlist.compiled` became the only way
the package simulates: every step walks the network's topological order
and evaluates each gate's ISOP cover (:func:`repro.netlist.sop.
truthtable_to_cover`) cube by cube with numpy ops over packed ``uint64``
words.  It shares no lowering or code generation with the compiled
kernels, which makes it useful twice:

* as an **independent oracle** — ``tests/test_compiled.py`` and
  ``tests/test_backend_parity.py`` feed it and the compiled kernels the
  same lane-packed integers and diff them node for node, cycle for
  cycle;
* as a **benchmark denominator** — ``bench_kernels.py`` (per step and
  per campaign), ``bench_lanes.py`` and ``bench_micro.py`` measure the
  compiled path against it.  :func:`reference_online` runs a whole
  campaign's online phase on it without any hook in the package.

Not part of the package — the program simulates through
:class:`repro.netlist.compiled.CompiledSimulator`.
"""

from __future__ import annotations

import contextlib
from collections.abc import Mapping

import numpy as np

from repro.engine import LaneEngine
from repro.netlist.compiled import int_to_words, words_to_int
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.sop import truthtable_to_cover

__all__ = [
    "ReferenceKernel",
    "ReferenceLaneEngine",
    "apply_override",
    "reference_online",
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


class ReferenceKernel:
    """The reference simulator behind the part of
    :class:`~repro.netlist.compiled.CompiledSimulator`'s API the tests,
    the benchmarks, the golden pass and the lane engine run: lane-packed
    integer stimulus and ``(forced, mask)`` overrides in, lane-packed
    node values out, one cycle per pass (:meth:`step`, or
    :meth:`run_block` with a block span of one).  Like the compiled
    simulator it serves exactly ``n_lanes`` lanes: it evaluates whole
    ``uint64`` words and reads back only the lanes it has.

    :meth:`run_block` takes its PI words as a mapping, or as a list in
    ``pi_order`` (the lane engine's program PI order)."""

    backend = "interpreted"
    block_cycles = 1

    def __init__(
        self, net: LogicNetwork, n_lanes: int = 64, *, pi_order=None
    ) -> None:
        self.net = net
        self.n_lanes = n_lanes
        self.n_words = (n_lanes + 63) // 64
        self.pi_order = tuple(net.pis if pi_order is None else pi_order)
        self._full = (1 << n_lanes) - 1
        self._word_lanes = int_to_words(self._full, self.n_words)
        self._values: dict[int, np.ndarray] = {}
        self.reset()

    def block_span(self, n_cycles: int) -> int:
        return 1

    def reset(self) -> None:
        """Load latch initial values (init=1 → all-ones, else zeros)."""
        self.cycle = 0
        nw = self.n_words
        self._state = {
            latch.q: np.full(nw, np.iinfo(np.uint64).max, dtype=np.uint64)
            if latch.init == 1
            else np.zeros(nw, dtype=np.uint64)
            for latch in self.net.latches
        }

    def step(self, pi_values: Mapping[int, int], *, overrides=None) -> None:
        """Advance one clock cycle: walk the topological order, evaluating
        every gate's ISOP cover and blending overrides as it goes."""
        net, nw = self.net, self.n_words
        values = {pi: int_to_words(pi_values[pi], nw) for pi in net.pis}
        values.update(self._state)
        ovs = {
            nid: (int_to_words(forced, nw), int_to_words(mask, nw))
            for nid, (forced, mask) in (overrides or {}).items()
        }
        for nid in net.topo_order():
            ov = ovs.get(nid)
            if net.kind(nid) != NodeKind.GATE:
                if ov is not None:
                    values[nid] = apply_override(values[nid], ov)
                continue
            fanin_vals = [values[f] for f in net.fanins(nid)]
            clean = _eval_gate(net.func(nid), fanin_vals, nw)
            values[nid] = apply_override(clean, ov) if ov is not None else clean
        self._state = {
            latch.q: values[latch.driver].copy() for latch in net.latches
        }
        self.cycle += 1
        self._values = values

    def run_block(self, pi_words, n_cycles: int, overrides=None) -> int:
        """A pass of the block span, one cycle: :meth:`step` on
        ``pi_words`` (a PI mapping, or a list in ``pi_order``) and
        ``overrides``; returns the one cycle consumed."""
        if not isinstance(pi_words, Mapping):
            pi_words = dict(zip(self.pi_order, pi_words))
        self.step(pi_words, overrides=overrides)
        return 1

    def node_ints(self, nodes) -> list[int]:
        return [words_to_int(self._values[n]) & self._full for n in nodes]

    def block_export(self, nodes, out: np.ndarray) -> None:
        """The last cycle's rows for ``nodes`` on the first ``n_words``
        columns of ``out``."""
        for i, n in enumerate(nodes):
            out[i, : self.n_words] = self._values[n] & self._word_lanes


class ReferenceLaneEngine(LaneEngine):
    """A :class:`~repro.engine.LaneEngine` that emulates on the reference
    simulator instead of the compiled kernels."""

    def __init__(self, offline, **kwargs) -> None:
        super().__init__(offline, **kwargs)
        self.sim = ReferenceKernel(
            self.mapped_net, self.n_lanes, pi_order=self._pi_order
        )
        self.backend = self.sim.backend


@contextlib.contextmanager
def reference_online():
    """Run campaigns' online phase on the reference simulator: lane
    batches emulate on :class:`ReferenceLaneEngine` and golden passes
    (:func:`repro.workloads.scenarios.packed_signal_traces`) run
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
