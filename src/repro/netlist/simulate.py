"""Bit-parallel functional simulation: the dict-of-arrays API.

Values are packed 64 test vectors per ``numpy.uint64`` word: a node's value
is a vector of ``n_words`` words, so lane ``k`` of a packed run lives at
word ``k // 64``, bit ``k % 64``.

Both entry points are **façades over the compiled kernels** of
:mod:`repro.netlist.compiled`: the network is lowered once into a
:class:`~repro.netlist.compiled.CompiledProgram` (cached per content key)
and every step executes generated bitwise code.  The façades convert
packed arrays to word-packed integers at their boundary and export every
node's value back as an array:

* :func:`simulate_combinational` — evaluate every node given source values;
* :class:`SequentialSimulator` — cycle-accurate simulation with latch state,
  used by the bitstream emulator, fault injection and equivalence checks.

The lane engine and the golden pass
(:func:`repro.workloads.scenarios.packed_signal_traces`) step a
:class:`~repro.netlist.compiled.CompiledSimulator` directly and never
build the per-node arrays.
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
from repro.netlist.network import LogicNetwork
from repro.util.bitops import words_for_bits

__all__ = [
    "random_stimulus",
    "simulate_combinational",
    "SequentialSimulator",
    "check_equivalent",
]


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


def _override_to_ints(override, n_words: int) -> tuple[int, int]:
    """Normalize one override entry to a ``(forced, mask)`` integer pair.

    Accepts packed arrays (full replacement), ``(forced, mask)`` array
    pairs (lane blends), plain integers and ``(forced, mask)`` integer
    pairs (the word-packed form multi-word lane engines use natively).
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


def _export_values(csim: CompiledSimulator) -> dict[int, np.ndarray]:
    """Materialize a compiled simulator's state as a dict of arrays (one
    fresh matrix per call, rows are views)."""
    matrix = csim.dense().copy()
    return {nid: matrix[nid] for nid in range(csim.program.n_nodes)}


def simulate_combinational(
    net: LogicNetwork,
    source_values: Mapping[int, np.ndarray],
    *,
    overrides: Mapping[int, np.ndarray] | None = None,
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
        forces only the masked lanes, ``value = (clean & ~mask) | (forced
        & mask)``; the word-packed integer forms are accepted too.

    Returns a dict mapping *every* node id to its packed value array.
    """
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
    csim = CompiledSimulator(program_for(net), 64 * n_words)
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
    drive that many independent stimulus streams at once.  Steps run the
    network's compiled kernel (:attr:`compiled`); this class converts
    packed arrays at its boundary.

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

    def __init__(self, net: LogicNetwork, n_words: int = 1) -> None:
        self.net = net
        self.n_words = int(n_words)
        self.compiled = CompiledSimulator(program_for(net), 64 * self.n_words)

    @property
    def cycle(self) -> int:
        """Cycles stepped since reset."""
        return self.compiled.cycle

    @property
    def state(self) -> dict[int, np.ndarray]:
        """Current latch state, keyed by latch-output node id."""
        return {
            q: int_to_words(s, self.n_words)
            for q, s in zip(
                self.compiled.program.latch_qs, self.compiled.latch_state
            )
        }

    def reset(self) -> None:
        """Load latch initial values (init=1 → all-ones, else zeros)."""
        self.compiled.reset()

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
        self.compiled.step(
            self._pi_ints(pi_values),
            overrides=_overrides_to_ints(overrides, self.n_words),
        )
        return _export_values(self.compiled)


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
