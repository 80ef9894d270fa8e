"""Bit-parallel functional simulation.

Values are packed 64 test vectors per ``numpy.uint64`` word: a node's value
is a vector of ``n_words`` words, so lane ``k`` of a packed run lives at
word ``k // 64``, bit ``k % 64``.

Both entry points are **façades over the compiled kernels** of
:mod:`repro.netlist.compiled` by default: the network is lowered once into
a :class:`~repro.netlist.compiled.CompiledProgram` (cached per content
key) and every step executes generated straight-line bitwise code instead
of walking the gate list.  Pass ``interpreted=True`` to run the historical
reference interpreter — a per-gate loop evaluating ISOP covers
(:func:`repro.netlist.sop.truthtable_to_cover`) with numpy ops — which the
compiled path is tested bit-for-bit against (``tests/test_compiled.py``).

Two entry points:

* :func:`simulate_combinational` — evaluate every node given source values;
* :class:`SequentialSimulator` — cycle-accurate simulation with latch state,
  used by the emulation layer and the debug-loop examples.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import SimulationError
from repro.netlist.compiled import (
    CompiledSimulator,
    int_to_words,
    program_for,
    words_to_int,
)
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.sop import truthtable_to_cover
from repro.util.bitops import words_for_bits

__all__ = [
    "random_stimulus",
    "apply_override",
    "simulate_combinational",
    "SequentialSimulator",
    "check_equivalent",
]

#: An override entry: either a packed value array (the node's value is
#: replaced wholesale — the historical behavior) or a ``(forced, mask)``
#: pair of packed arrays, where only the lanes selected by ``mask`` are
#: forced and every other lane keeps the *clean* computed value:
#: ``value = (clean & ~mask) | (forced & mask)``.  Lane-masked overrides
#: are how the lane-parallel debug engine injects one scenario's fault
#: into one SIMD lane without disturbing its 63 neighbours.
Override = "np.ndarray | tuple[np.ndarray, np.ndarray]"


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


def random_stimulus(
    net: LogicNetwork, n_vectors: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Random packed stimulus for every PI, keyed by PI name."""
    n_words = max(1, words_for_bits(n_vectors))
    return {
        net.node_name(pi): rng.integers(
            0, np.iinfo(np.uint64).max, size=n_words, dtype=np.uint64, endpoint=True
        )
        for pi in net.pis
    }


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
    """Normalize integer-form overrides to the array forms the reference
    interpreter consumes (arrays pass through untouched)."""
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


def _override_to_ints(override, n_words: int) -> tuple[int, int]:
    """Normalize one override entry to a ``(forced, mask)`` integer pair.

    Accepts every form the stack produces: packed arrays (full
    replacement), ``(forced, mask)`` array pairs (lane blends), plain
    integers and ``(forced, mask)`` integer pairs (the word-packed form
    multi-word lane engines use natively).
    """
    full = (1 << (64 * n_words)) - 1
    if isinstance(override, tuple):
        forced, mask = override
        forced = forced if isinstance(forced, int) else words_to_int(
            np.asarray(forced, dtype=np.uint64)
        )
        mask = mask if isinstance(mask, int) else words_to_int(
            np.asarray(mask, dtype=np.uint64)
        )
        return forced & full, mask & full
    if isinstance(override, int):
        return override & full, full
    return words_to_int(np.asarray(override, dtype=np.uint64)) & full, full


def _overrides_to_ints(
    overrides, n_words: int
) -> "dict[int, tuple[int, int]] | None":
    if not overrides:
        return None
    return {
        nid: _override_to_ints(ov, n_words) for nid, ov in overrides.items()
    }


def simulate_combinational(
    net: LogicNetwork,
    source_values: Mapping[int, np.ndarray],
    *,
    overrides: Mapping[int, np.ndarray] | None = None,
    interpreted: bool = False,
    backend: str | None = None,
) -> dict[int, np.ndarray]:
    """Evaluate all nodes given values for every combinational source.

    Parameters
    ----------
    source_values:
        Packed words for every PI and LATCH node id.
    overrides:
        Optional forced values for arbitrary nodes (used by fault injection:
        the override wins over the computed value).  Each entry is either a
        packed array (full replacement) or a ``(forced, mask)`` pair that
        forces only the masked lanes — see :func:`apply_override`; the
        word-packed integer forms are accepted too.
    interpreted:
        ``False`` (default) runs the compiled per-network kernel of
        :mod:`repro.netlist.compiled`; ``True`` runs the reference
        per-gate interpreter.  Results are bit-identical.
    backend:
        Compiled kernel backend (``"python"`` / ``"numpy"`` / ``None``
        for auto — see :func:`repro.netlist.compiled.resolve_backend`).
        Ignored when ``interpreted=True``.

    Returns a dict mapping *every* node id to its packed value array.
    """
    if not interpreted:
        return _simulate_combinational_compiled(
            net, source_values, overrides=overrides, backend=backend
        )
    values: dict[int, np.ndarray] = {}
    overrides = overrides or {}
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
        for nid, ov in overrides.items()
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


def _export_values(csim: CompiledSimulator) -> dict[int, np.ndarray]:
    """Materialize a compiled simulator's state as the historical
    dict-of-arrays result (one fresh matrix per call, rows are views)."""
    matrix = csim.dense().copy()
    return {nid: matrix[nid] for nid in range(csim.program.n_nodes)}


def _simulate_combinational_compiled(
    net: LogicNetwork,
    source_values: Mapping[int, np.ndarray],
    *,
    overrides=None,
    backend: str | None = None,
) -> dict[int, np.ndarray]:
    ints: dict[int, int] = {}
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
        ints[nid] = words_to_int(arr)
    if n_words is None:
        raise SimulationError("network has no sources")
    csim = CompiledSimulator(program_for(net), n_words=n_words, backend=backend)
    csim.eval_combinational(
        ints, overrides=_overrides_to_ints(overrides, n_words)
    )
    return _export_values(csim)


class SequentialSimulator:
    """Cycle-accurate simulation of a sequential network.

    Latches behave as D flip-flops: in each :meth:`step`, outputs present
    their stored state, combinational logic settles, and state is updated
    from the D inputs at the end of the cycle.

    ``64 * n_words`` parallel *runs* share each step, so a testbench can
    drive that many independent stimulus streams at once.

    By default steps execute the network's compiled kernel
    (:mod:`repro.netlist.compiled`); ``interpreted=True`` selects the
    reference per-gate interpreter (bit-identical, an order of magnitude
    slower — the escape hatch and the parity-test baseline).  ``program``
    injects a pre-compiled program; ``store`` threads an
    :class:`~repro.pipeline.ArtifactStore` through
    :func:`~repro.netlist.compiled.program_for` so program compilation is
    skipped on warm restarts.

    >>> from repro.netlist.blif import parse_blif
    >>> net = parse_blif('''
    ... .model counterbit
    ... .inputs en
    ... .outputs q
    ... .latch d q 0
    ... .names en q d
    ... 01 1
    ... 10 1
    ... .end''')
    >>> import numpy as np
    >>> sim = SequentialSimulator(net, n_words=1)
    >>> ones = np.array([np.uint64(0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    >>> _ = sim.step({net.pis[0]: ones})
    >>> vals = sim.step({net.pis[0]: ones})
    >>> bool(vals[net.require('q')][0] == np.uint64(0xFFFFFFFFFFFFFFFF))
    True
    """

    def __init__(
        self,
        net: LogicNetwork,
        n_words: int = 1,
        *,
        interpreted: bool = False,
        program=None,
        store=None,
        backend: str | None = None,
    ) -> None:
        self.net = net
        self.n_words = int(n_words)
        self.interpreted = bool(interpreted)
        if self.interpreted:
            self.compiled: CompiledSimulator | None = None
            self.backend: str | None = None
        else:
            self.compiled = CompiledSimulator(
                program if program is not None else program_for(net, store=store),
                n_words=self.n_words,
                backend=backend,
            )
            self.backend = self.compiled.backend
        self._cycle = 0
        self._state: dict[int, np.ndarray] = {}
        self.reset()

    @property
    def cycle(self) -> int:
        """Cycles stepped since reset (shared with the compiled core)."""
        if self.compiled is not None:
            return self.compiled.cycle
        return self._cycle

    @property
    def state(self) -> dict[int, np.ndarray]:
        """Current latch state, keyed by latch-output node id."""
        if self.compiled is None:
            return self._state
        return {
            q: int_to_words(s, self.n_words)
            for q, s in zip(
                self.compiled.program.latch_qs, self.compiled.latch_state
            )
        }

    def reset(self) -> None:
        """Load latch initial values (init=1 → all-ones, else zeros)."""
        self._cycle = 0
        if self.compiled is not None:
            self.compiled.reset()
            return
        self._state = {}
        ones = np.full(self.n_words, np.iinfo(np.uint64).max, dtype=np.uint64)
        for latch in self.net.latches:
            if latch.init == 1:
                self._state[latch.q] = ones.copy()
            else:
                self._state[latch.q] = np.zeros(self.n_words, dtype=np.uint64)

    def _pi_ints(self, pi_values: Mapping[int, np.ndarray]) -> dict[int, int]:
        ints: dict[int, int] = {}
        for pi in self.net.pis:
            if pi not in pi_values:
                raise SimulationError(
                    f"cycle {self.cycle}: no value for PI "
                    f"{self.net.node_name(pi)!r}"
                )
            val = pi_values[pi]
            if isinstance(val, int):
                ints[pi] = val
                continue
            arr = np.asarray(val, dtype=np.uint64)
            if arr.size != self.n_words:
                raise SimulationError("PI value width mismatch")
            ints[pi] = words_to_int(arr)
        return ints

    def step(
        self,
        pi_values: Mapping[int, np.ndarray],
        *,
        overrides: Mapping[int, np.ndarray] | None = None,
    ) -> dict[int, np.ndarray]:
        """Advance one clock cycle; returns every node's value this cycle."""
        if self.compiled is not None:
            self.compiled.step(
                self._pi_ints(pi_values),
                overrides=_overrides_to_ints(overrides, self.n_words),
            )
            return _export_values(self.compiled)
        sources: dict[int, np.ndarray] = {}
        for pi in self.net.pis:
            if pi not in pi_values:
                raise SimulationError(
                    f"cycle {self.cycle}: no value for PI "
                    f"{self.net.node_name(pi)!r}"
                )
            arr = np.asarray(pi_values[pi], dtype=np.uint64)
            if arr.size != self.n_words:
                raise SimulationError("PI value width mismatch")
            sources[pi] = arr
        sources.update(self._state)
        values = simulate_combinational(
            self.net, sources, overrides=overrides, interpreted=True
        )
        next_state: dict[int, np.ndarray] = {}
        for latch in self.net.latches:
            next_state[latch.q] = values[latch.driver].copy()
        self._state = next_state
        self._cycle += 1
        return values


def check_equivalent(
    net_a: LogicNetwork,
    net_b: LogicNetwork,
    *,
    n_vectors: int = 256,
    n_cycles: int = 8,
    rng: np.random.Generator | None = None,
    po_names: list[str] | None = None,
) -> bool:
    """Random-simulation equivalence check between two networks.

    PIs and POs are matched by *name*; both networks must agree on the PI
    name set.  Sequential networks are compared over ``n_cycles`` cycles
    starting from their initial states.  This is a falsifier, not a prover —
    the test suite uses exhaustive vectors for small circuits where proof is
    wanted.
    """
    rng = rng or np.random.default_rng(0)
    pis_a = {net_a.node_name(p) for p in net_a.pis}
    pis_b = {net_b.node_name(p) for p in net_b.pis}
    if pis_a != pis_b:
        raise SimulationError(
            f"PI name mismatch: only in A {sorted(pis_a - pis_b)[:4]}, "
            f"only in B {sorted(pis_b - pis_a)[:4]}"
        )
    if po_names is None:
        po_names = [n for n in net_a.po_names if n in set(net_b.po_names)]
        if not po_names:
            raise SimulationError("no common primary outputs to compare")

    n_words = max(1, words_for_bits(n_vectors))
    seq = bool(net_a.latches or net_b.latches)
    cycles = n_cycles if seq else 1

    sim_a = SequentialSimulator(net_a, n_words)
    sim_b = SequentialSimulator(net_b, n_words)
    tail_mask = np.uint64((1 << (n_vectors - (n_words - 1) * 64)) - 1) if n_vectors % 64 else np.uint64(0xFFFFFFFFFFFFFFFF)

    for _ in range(cycles):
        stim_by_name = {
            name: rng.integers(
                0, np.iinfo(np.uint64).max, size=n_words, dtype=np.uint64,
                endpoint=True,
            )
            for name in pis_a
        }
        vals_a = sim_a.step(
            {p: stim_by_name[net_a.node_name(p)] for p in net_a.pis}
        )
        vals_b = sim_b.step(
            {p: stim_by_name[net_b.node_name(p)] for p in net_b.pis}
        )
        for name in po_names:
            va = vals_a[net_a.require(name)].copy()
            vb = vals_b[net_b.require(name)].copy()
            va[-1] &= tail_mask
            vb[-1] &= tail_mask
            if not np.array_equal(va, vb):
                return False
    return True
