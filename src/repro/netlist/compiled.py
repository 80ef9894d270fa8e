"""Compiled simulation kernels: per-network evaluation programs.

This is the only way the package simulates.  It follows the ESSENT-style
"compile the design into a program" idiom from the HPC simulation
literature: a :class:`LogicNetwork` is lowered **once** into a
:class:`CompiledProgram` — a topo-ordered straight-line op list with
integer-indexed fanins, ISOP cube masks/polarities flattened into the op
stream, constants folded, and PI/latch/PO index tables — and that
program is code-generated into a Python kernel whose only per-cycle work
is bitwise integer arithmetic over the dense lane state.  Walking the
gate list every cycle instead would pay, per node, for dict lookups,
cover-cache hits and fresh small-array allocations.

Lane state representation
-------------------------
A node's packed value is one **word-packed integer** carrying all
``n_words * 64`` SIMD lanes (Python integers are arbitrary-precision, so
one value object spans every word; lane *k* lives at bit ``k``, i.e. word
``k // 64``, bit ``k % 64``).  The generated kernel rebinds slots of one
preallocated flat list — no per-node dicts, no per-cycle array
allocation — and :meth:`CompiledSimulator.dense` exports the state as the
contiguous ``(n_nodes, n_words)`` ``uint64`` matrix (into a preallocated
buffer) whenever an array view is wanted.  Bit *k* of word *w* of row *n*
is lane ``64*w + k`` of node ``n`` — the layout the dict-of-arrays façade
of :mod:`repro.netlist.simulate` hands out per node.

Cycle batching
--------------
The simulator evaluates *blocks* of cycles in one pass: cycle *c* of a
block occupies bits ``[c * W, (c+1) * W)`` of every value (``W = 64 *
n_words``), so the same generated kernels run over wider integers with
``M`` set to the block mask.
Sequential programs batch by checked prediction: the simulator records
the latch state at the start of every cycle since reset, feeds a block's
later cycles the recorded states, and consumes only the prefix whose
predictions its latch drivers confirm (:meth:`CompiledSimulator.run_block`).

Overrides (fault forcing) resolve through precomputed node indices: gate
overrides blend inside a second generated kernel via per-node
``(forced, ~mask)`` tables (``value = (clean & ~mask) | (forced & mask)``
per lane), while source and folded-constant overrides blend before the
kernel runs.

Program caching
---------------
Compilation costs one cover extraction + codegen pass per network, so
programs are cached at three levels by :func:`program_for`:

* a ``WeakKeyDictionary`` keyed by network *instance* (revalidated
  against the structural signature — in-place rewires miss instead of
  returning a stale program);
* a bounded signature-keyed LRU, so regenerated-but-identical networks
  (every ``mapping.to_lut_network()`` call builds a fresh object) share
  one program;
* optionally an :class:`~repro.pipeline.ArtifactStore` under the
  :data:`COMPILED_SIM_STAGE` pseudo-stage, so warm campaign restarts
  skip compilation the way they skip every other pipeline stage.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Mapping
from weakref import WeakKeyDictionary

import numpy as np

from repro.errors import SimulationError
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.sop import truthtable_to_cover

__all__ = [
    "COMPILED_SIM_STAGE",
    "PROGRAM_VERSION",
    "CompiledProgram",
    "CompiledSimulator",
    "compile_network",
    "network_signature",
    "program_for",
    "resolve_backend",
]

#: ArtifactStore pseudo-stage name compiled programs persist under (the
#: online-phase analogue of the offline pipeline's stage entries).
COMPILED_SIM_STAGE = "compiled-sim"

#: Folded into :func:`network_signature`; bump when program lowering or
#: kernel semantics change so persisted programs from older versions miss.
PROGRAM_VERSION = 1

#: Straight-line ops per generated kernel function; very large networks
#: are split into several functions to keep CPython's compiler happy.
_OPS_PER_CHUNK = 2000

#: Cycle batching targets this total state width per evaluation pass,
#: capped at :data:`MAX_BLOCK_CYCLES` cycles.
BLOCK_TARGET_WORDS = 128
MAX_BLOCK_CYCLES = 64

#: Memory cap, in uint64 words, of a sequential simulator's latch-state
#: record (``cycles * latches * n_words``; 8 MiB).  Cycles past the cap
#: are not recorded, so they run one per evaluation pass.
RECORD_MAX_WORDS = 1 << 20


def resolve_backend(backend: "str | None" = None, *, n_words: int = 1) -> str:
    """The kernel backend a request names.

    The generated big-int kernels (``"python"``) are the only backend, at
    every width; ``n_words`` stays for callers that report the backend of
    a lane width.  ``None`` and ``"auto"`` resolve to it, and any other
    name raises :class:`SimulationError`.
    """
    if backend not in (None, "auto", "python"):
        raise SimulationError(
            f"unknown simulation backend {backend!r} (known: python, or 'auto')"
        )
    return "python"


def network_signature(net: LogicNetwork) -> str:
    """Structural content key of a network for program caching.

    Hashes kinds, fanin indices, truth tables, latch wiring, PO node
    indices and the program version — *not* signal names, so a
    renamed-but-structurally identical network (e.g. every regeneration
    of the same mapped design) shares one compiled program.  Cheap
    relative to compilation: one linear pass, no cover extraction.
    """
    h = hashlib.sha256()
    h.update(f"{COMPILED_SIM_STAGE}-v{PROGRAM_VERSION}:{net.n_nodes}\n".encode())
    h.update(repr(tuple(net.pis)).encode())
    h.update(
        repr([(l.driver, l.q, l.init) for l in net.latches]).encode()
    )
    # PO membership by node index (still name-free): the program's
    # po_nodes table must belong to the network a cache hit serves
    h.update(repr([net.require(n) for n in net.po_names]).encode())
    for nid in range(net.n_nodes):
        kind = net.kind(nid)
        if kind == NodeKind.GATE:
            func = net.func(nid)
            assert func is not None
            h.update(
                f"g{nid}:{net.fanins(nid)}:{func.n_vars}:{func.bits:x}\n".encode()
            )
        else:
            h.update(f"n{nid}:{int(kind)}\n".encode())
    return h.hexdigest()


class CompiledProgram:
    """A network lowered to a flat, name-free evaluation program.

    Attributes
    ----------
    signature:
        The :func:`network_signature` this program was compiled from.
    n_nodes:
        Size of the node id space (= the lane-state vector length).
    ops:
        Topo-ordered gate ops, each ``(node, fanins, cubes)`` with
        ``cubes`` a tuple of ``(mask, polarity)`` pairs over the fanin
        positions — the ISOP cover flattened out of the truth table.
    const_nodes:
        ``(node, 0/1)`` pairs for constant gates — folded at reset, never
        re-evaluated per cycle.
    pi_nodes / latch_qs / latch_drivers / latch_inits / po_nodes:
        Integer index tables for the simulator's per-cycle bookkeeping.

    Programs are picklable (generated kernels are dropped from the state
    and regenerated lazily on first use), which is what lets an
    :class:`~repro.pipeline.ArtifactStore` persist them as pipeline
    artifacts.
    """

    def __init__(
        self,
        *,
        signature: str,
        n_nodes: int,
        ops: tuple,
        const_nodes: tuple,
        pi_nodes: tuple,
        latch_qs: tuple,
        latch_drivers: tuple,
        latch_inits: tuple,
        po_nodes: tuple,
    ) -> None:
        self.signature = signature
        self.n_nodes = n_nodes
        self.ops = ops
        self.const_nodes = const_nodes
        self.pi_nodes = pi_nodes
        self.latch_qs = latch_qs
        self.latch_drivers = latch_drivers
        self.latch_inits = latch_inits
        self.po_nodes = po_nodes
        self._finish_init()

    def _finish_init(self) -> None:
        self.source_nodes = self.pi_nodes + self.latch_qs
        is_op = [False] * self.n_nodes
        for node, _fanins, _cubes in self.ops:
            is_op[node] = True
        self.is_op = is_op
        self.const_value = dict(self.const_nodes)
        self._kernels: "tuple | None" = None

    # -- pickling (kernels are exec-generated functions; regenerate) --------

    def __getstate__(self) -> dict:
        return {
            "signature": self.signature,
            "n_nodes": self.n_nodes,
            "ops": self.ops,
            "const_nodes": self.const_nodes,
            "pi_nodes": self.pi_nodes,
            "latch_qs": self.latch_qs,
            "latch_drivers": self.latch_drivers,
            "latch_inits": self.latch_inits,
            "po_nodes": self.po_nodes,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._finish_init()

    # -- kernel generation ---------------------------------------------------

    def kernels(self):
        """The generated ``(clean, forced)`` kernel pair (cached).

        ``clean(v, M)`` evaluates every gate op into the flat value list
        ``v`` (``M`` is the all-lanes mask).  ``forced(v, M, f, nm)``
        additionally blends each result through the per-node forced/
        not-mask tables: ``v[n] = (expr & nm[n]) | f[n]`` — with the
        tables at their neutral values (``0`` / ``M``) this reduces to
        the clean result, so only the nodes an override actually targets
        need their table slots armed.
        """
        if self._kernels is None:
            self._kernels = _codegen(self)
        return self._kernels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledProgram(n_nodes={self.n_nodes}, ops={len(self.ops)}, "
            f"consts={len(self.const_nodes)}, sig={self.signature[:12]}...)"
        )


def _op_exprs(ops) -> "list[tuple[int, str]]":
    """Lower each op to a Python bitwise expression over ``v``/``M``."""
    out = []
    for node, fanins, cubes in ops:
        terms = []
        for cmask, cpol in cubes:
            lits = []
            for pos, src in enumerate(fanins):
                if not (cmask >> pos) & 1:
                    continue
                if (cpol >> pos) & 1:
                    lits.append(f"v[{src}]")
                else:
                    lits.append(f"(M^v[{src}])")
            if lits:
                terms.append("&".join(lits))
            else:  # tautology cube (defensive; consts are folded earlier)
                terms.append("M")
        out.append((node, "|".join(terms) if terms else "0"))
    return out


def _codegen(program: CompiledProgram):
    """Generate the straight-line clean/forced kernels for a program."""
    exprs = _op_exprs(program.ops)
    clean_chunks = []
    forced_chunks = []
    for base in range(0, max(1, len(exprs)), _OPS_PER_CHUNK):
        chunk = exprs[base : base + _OPS_PER_CHUNK]
        clean_lines = [f"def _clean_{base}(v, M):"]
        forced_lines = [f"def _forced_{base}(v, M, f, nm):"]
        if not chunk:
            clean_lines.append("    pass")
            forced_lines.append("    pass")
        for node, expr in chunk:
            clean_lines.append(f"    v[{node}] = {expr}")
            forced_lines.append(
                f"    v[{node}] = (({expr})&nm[{node}])|f[{node}]"
            )
        ns: dict = {}
        exec(  # noqa: S102 — code generated from our own lowering, no user input
            compile(
                "\n".join(clean_lines + forced_lines),
                f"<compiled-sim:{program.signature[:12]}:{base}>",
                "exec",
            ),
            ns,
        )
        clean_chunks.append(ns[f"_clean_{base}"])
        forced_chunks.append(ns[f"_forced_{base}"])

    if len(clean_chunks) == 1:
        return clean_chunks[0], forced_chunks[0]

    def clean(v, M, _chunks=tuple(clean_chunks)):
        for fn in _chunks:
            fn(v, M)

    def forced(v, M, f, nm, _chunks=tuple(forced_chunks)):
        for fn in _chunks:
            fn(v, M, f, nm)

    return clean, forced


def compile_network(
    net: LogicNetwork, *, signature: str | None = None
) -> CompiledProgram:
    """Lower ``net`` into a :class:`CompiledProgram` (no caching here —
    use :func:`program_for` for the cached entry point)."""
    ops = []
    const_nodes = []
    for nid in net.topo_order():
        if net.kind(nid) != NodeKind.GATE:
            continue
        func = net.func(nid)
        assert func is not None
        const = func.const_value()
        if const is not None:
            const_nodes.append((nid, int(const)))
            continue
        cover = truthtable_to_cover(func)
        cubes = tuple((c.mask, c.polarity) for c in cover.cubes)
        ops.append((nid, net.fanins(nid), cubes))
    return CompiledProgram(
        signature=signature or network_signature(net),
        n_nodes=net.n_nodes,
        ops=tuple(ops),
        const_nodes=tuple(const_nodes),
        pi_nodes=tuple(net.pis),
        latch_qs=tuple(l.q for l in net.latches),
        latch_drivers=tuple(l.driver for l in net.latches),
        latch_inits=tuple(l.init for l in net.latches),
        po_nodes=tuple(
            net.require(name) for name in net.po_names
        ),
    )


# -- program caches ----------------------------------------------------------

_BY_NET: "WeakKeyDictionary[LogicNetwork, CompiledProgram]" = WeakKeyDictionary()
_BY_KEY: "OrderedDict[str, CompiledProgram]" = OrderedDict()
_BY_KEY_LIMIT = 64


def program_for(net: LogicNetwork, *, store=None) -> CompiledProgram:
    """The compiled program for ``net``, through every cache level.

    ``store`` (an :class:`~repro.pipeline.ArtifactStore` or anything with
    its ``get``/``put`` protocol) persists programs under the
    :data:`COMPILED_SIM_STAGE` pseudo-stage keyed by the structural
    signature, so a warm campaign restart pays zero compilations; in-
    process, programs are memoized per network instance (signature-
    revalidated, so in-place rewires recompile) and per signature (so
    regenerated identical networks — every ``to_lut_network()`` call —
    share one program and its generated kernels, store hit or not).
    """
    sig = network_signature(net)
    hit = _BY_NET.get(net)
    if hit is not None and hit.signature == sig:
        return hit
    program = _BY_KEY.get(sig)
    if store is not None:
        # looked up even when memoized, so store statistics do not
        # depend on this process's history
        found = store.get(COMPILED_SIM_STAGE, sig, expect=CompiledProgram)
        if found is None:
            if program is None:
                program = compile_network(net, signature=sig)
            store.put(COMPILED_SIM_STAGE, sig, program)
        elif program is None:
            program = found.value
    elif program is None:
        program = compile_network(net, signature=sig)
    _BY_KEY[sig] = program
    _BY_KEY.move_to_end(sig)
    while len(_BY_KEY) > _BY_KEY_LIMIT:
        _BY_KEY.popitem(last=False)
    try:
        _BY_NET[net] = program
    except TypeError:  # pragma: no cover — un-weakref-able network subclass
        pass
    return program


# -- execution ----------------------------------------------------------------


def int_to_words(value: int, n_words: int) -> "np.ndarray":
    """A word-packed integer as a little-endian ``uint64`` array (bits
    beyond ``64 * n_words`` are dropped)."""
    value &= (1 << (64 * n_words)) - 1
    return np.frombuffer(
        value.to_bytes(8 * n_words, "little"), dtype=np.uint64
    )


def words_to_int(arr: "np.ndarray") -> int:
    """Inverse of :func:`int_to_words` (any uint64 array, little-endian)."""
    return int.from_bytes(
        np.ascontiguousarray(arr, dtype=np.uint64).tobytes(), "little"
    )


class CompiledSimulator:
    """Executes a :class:`CompiledProgram`, one cycle or one block of
    cycles per evaluation pass.

    The generated big-int kernels are the one kernel implementation.  All
    per-cycle state lives in preallocated containers: the flat value list
    (one word-packed integer per node), the latch-state list, the forced/
    not-mask override tables and the dense export buffer.  A step is:
    write PI and latch-output slots, run the generated kernel, capture
    next latch state — nothing allocates an array.

    :meth:`run_block` batches cycles (up to :attr:`block_cycles` per
    pass), and :attr:`values`, :meth:`value`, :meth:`node_ints`,
    :meth:`export_words` and :meth:`dense` serve node values.  Sequential
    programs batch by checked prediction: the simulator records the latch
    state at the start of every cycle since reset, keeps that record
    across resets, and feeds a block's later cycles the recorded states
    (see :meth:`run_block`).

    The lane engine steps this class directly; the dict-of-arrays API
    is :class:`repro.netlist.simulate.SequentialSimulator`, which wraps
    this class and converts at its boundary.
    """

    #: The kernel backend, as reports name it (see :func:`resolve_backend`).
    backend = "python"

    def __init__(self, program: CompiledProgram, n_words: int = 1) -> None:
        if n_words < 1:
            raise SimulationError("n_words must be at least 1")
        self.program = program
        self.n_words = int(n_words)
        self.full_mask = (1 << (64 * self.n_words)) - 1
        self.cycle = 0
        n = program.n_nodes
        n_latches = len(program.latch_qs)
        self.latch_state: list[int] = [0] * n_latches
        self._dirty_consts: list[int] = []
        self._dirty_consts_blk: list[int] = []
        self._word_bytes = 8 * self.n_words
        self._dense_buf = bytearray(n * self._word_bytes)
        self._dense = None  # numpy view over _dense_buf, built on demand
        self._block_cycles = max(
            1, min(MAX_BLOCK_CYCLES, BLOCK_TARGET_WORDS // self.n_words)
        )
        # the last run_block pass: cycles evaluated and consumed, its
        # latch-driver rows, and the slot per-cycle reads see (None: the
        # per-cycle state of the last step)
        self._blk_len = 0
        self._last_block = 0
        self._blk_drivers: "np.ndarray | None" = None
        self._slot: "int | None" = None
        # latch state at the start of every cycle since reset: entries up
        # to the current cycle are true, later ones predictions
        self._rec: "np.ndarray | None" = None
        self._rec_len = 0
        self._rec_cap = (
            RECORD_MAX_WORDS // (n_latches * self.n_words) if n_latches else 0
        )
        self._v: list[int] = [0] * n
        self._bv: list[int] = [0] * n  # block values, C cycles wide
        self._blk_mask = 0  # the block width _bv's constants hold
        self._forced: list[int] = [0] * n
        self._notmask: list[int] = [self.full_mask] * n
        self._blk_notmask: list[int] = []
        self._armed: list[int] = []
        self._clean_kernel, self._forced_kernel = program.kernels()
        self.reset()

    # -- state ---------------------------------------------------------------

    def reset(self) -> None:
        """Reload latch initial values and re-fold constants (the latch
        record is kept: it predicts the next run from this reset)."""
        self.cycle = 0
        self._slot = None
        self._last_block = 0
        full = self.full_mask
        v = self._v
        for node, const in self.program.const_nodes:
            v[node] = full if const else 0
        self._blk_mask = 0  # re-fold block constants on the next block
        self._dirty_consts.clear()
        self._dirty_consts_blk.clear()
        for i, init in enumerate(self.program.latch_inits):
            self.latch_state[i] = full if init == 1 else 0
        if self._rec_cap and self._rec is None:
            self._rec = np.zeros(
                (self._rec_cap, len(self.latch_state), self.n_words),
                dtype=np.uint64,
            )
            self._rec[0] = self._state_rows()
            self._rec_len = 1

    @property
    def values(self) -> "list[int]":
        """Every node's word-packed value on the current cycle (after a
        :meth:`run_block`, a fresh read-only list)."""
        if self._slot is None:
            return self._v
        sh = 64 * self.n_words * self._slot
        full = self.full_mask
        return [(x >> sh) & full for x in self._bv]

    def value(self, node: int) -> int:
        """Node's current word-packed value (all lanes, one integer)."""
        return self.node_ints((node,))[0]

    def node_ints(self, nodes) -> "list[int]":
        """Word-packed integer values for a list of node ids, without
        materializing the full state."""
        if self._slot is None:
            v = self._v
            return [v[n] for n in nodes]
        bv = self._bv
        sh = 64 * self.n_words * self._slot
        full = self.full_mask
        return [(bv[n] >> sh) & full for n in nodes]

    def export_words(self, nodes, buf: bytearray) -> None:
        """Serialize ``nodes``' word-packed values into ``buf``
        (little-endian, ``8 * n_words`` bytes per node) — the one
        int→uint64 conversion loop shared by :meth:`dense` and the
        engine's per-cycle trace-sample capture."""
        bl = self._word_bytes
        pos = 0
        for x in self.node_ints(nodes):
            buf[pos : pos + bl] = x.to_bytes(bl, "little")
            pos += bl

    def dense(self) -> "np.ndarray":
        """Export state as the contiguous ``(n_nodes, n_words)`` matrix.

        Fills the preallocated buffer in place — callers that keep the
        result across steps must copy.  Row ``n`` word ``w`` bit ``k`` is
        lane ``64*w + k`` of node ``n``.
        """
        if self._dense is None:
            self._dense = np.frombuffer(
                self._dense_buf, dtype=np.uint64
            ).reshape(self.program.n_nodes, self.n_words)
        self.export_words(range(self.program.n_nodes), self._dense_buf)
        return self._dense

    # -- evaluation ----------------------------------------------------------

    def _restore_consts(self) -> None:
        if not self._dirty_consts:
            return
        full = self.full_mask
        cv = self.program.const_value
        v = self._v
        for node in self._dirty_consts:
            v[node] = full if cv[node] else 0
        self._dirty_consts.clear()

    def _eval(self, v, full: int, nm, dirty, overrides) -> None:
        """Run one combinational settle of value list ``v``.

        Values are ``full`` wide and ``nm`` is the not-mask table neutral
        at ``full``.  ``overrides`` maps node → ``(forced, mask)``
        word-packed integer pairs: source and folded-constant overrides
        blend into ``v`` before the kernel runs (overridden constants are
        noted in ``dirty``); gate overrides blend through the forced
        kernel's per-node tables the moment the gate is evaluated, so its
        fanouts see the forced value.
        """
        if not overrides:
            self._clean_kernel(v, full)
            return
        is_op = self.program.is_op
        const_value = self.program.const_value
        armed = self._armed
        f = self._forced
        for node, (forced, mask) in overrides.items():
            forced &= full
            mask &= full
            if is_op[node]:
                f[node] = forced & mask
                nm[node] = full ^ mask
                armed.append(node)
            else:
                v[node] = (v[node] & (full ^ mask)) | (forced & mask)
                if node in const_value:
                    dirty.append(node)
        if armed:
            self._forced_kernel(v, full, f, nm)
            for node in armed:
                f[node] = 0
                nm[node] = full
            armed.clear()
        else:
            self._clean_kernel(v, full)

    # -- stepping -------------------------------------------------------------

    def step(
        self,
        pi_values: "Mapping[int, int]",
        *,
        overrides: "Mapping[int, tuple[int, int]] | None" = None,
    ) -> None:
        """Advance one clock cycle over word-packed integer stimulus."""
        self._restore_consts()
        self._slot = None
        self._last_block = 0
        full = self.full_mask
        state = self.latch_state
        v = self._v
        try:
            for pid in self.program.pi_nodes:
                v[pid] = pi_values[pid] & full
        except KeyError as exc:
            raise SimulationError(
                f"cycle {self.cycle}: no value for PI node {exc.args[0]}"
            ) from exc
        for i, q in enumerate(self.program.latch_qs):
            v[q] = state[i]
        self._eval(v, full, self._notmask, self._dirty_consts, overrides)
        for i, d in enumerate(self.program.latch_drivers):
            state[i] = v[d]
        self.cycle += 1
        self._record_state()

    def eval_combinational(
        self,
        source_values: "Mapping[int, int]",
        *,
        overrides: "Mapping[int, tuple[int, int]] | None" = None,
    ) -> None:
        """One combinational settle from explicit source values (PIs and
        latch outputs alike), without touching latch state or the cycle
        counter — the compiled counterpart of
        :func:`repro.netlist.simulate.simulate_combinational`."""
        self._restore_consts()
        self._slot = None
        self._last_block = 0
        v = self._v
        full = self.full_mask
        for src in self.program.source_nodes:
            if src not in source_values:
                raise SimulationError(f"no stimulus for source node {src}")
            v[src] = source_values[src] & full
        self._eval(v, full, self._notmask, self._dirty_consts, overrides)

    # -- latch-state record ----------------------------------------------------

    def _state_rows(self) -> "np.ndarray":
        """The current latch state as an ``(n_latches, n_words)`` array."""
        wb = self._word_bytes
        return np.frombuffer(
            b"".join([x.to_bytes(wb, "little") for x in self.latch_state]),
            dtype=np.uint64,
        ).reshape(len(self.latch_state), self.n_words)

    def _set_state_rows(self, rows: "np.ndarray") -> None:
        wb = self._word_bytes
        data = np.ascontiguousarray(rows).tobytes()
        state = self.latch_state
        for i in range(len(state)):
            state[i] = int.from_bytes(data[i * wb : (i + 1) * wb], "little")

    def _record_state(self) -> None:
        """Record the state a step reached; a state that differs from the
        recorded one ends the record there (what follows was predicted
        from another trajectory)."""
        c = self.cycle
        if c >= self._rec_cap:
            return
        rows = self._state_rows()
        if c < self._rec_len and np.array_equal(self._rec[c], rows):
            return
        self._rec[c] = rows
        self._rec_len = c + 1

    # -- cycle batching ----------------------------------------------------------

    @property
    def block_cycles(self) -> int:
        """Cycles one :meth:`run_block` pass can evaluate at most:
        :data:`BLOCK_TARGET_WORDS` words of state per pass, capped at
        :data:`MAX_BLOCK_CYCLES` cycles (every program)."""
        return self._block_cycles

    def block_span(self, n_cycles: int) -> int:
        """Cycles of the next ``n_cycles`` that one :meth:`run_block`
        pass evaluates: up to :attr:`block_cycles`, and for sequential
        programs only as far as the latch record predicts (the current
        cycle plus the recorded states ahead of it).  ``1`` means the
        next cycle is best stepped."""
        span = min(n_cycles, self._block_cycles)
        if self.program.latch_qs:
            span = min(span, self._rec_len - self.cycle)
        return max(1, span)

    def run_block(
        self,
        pi_words: "Mapping[int, int]",
        n_cycles: int,
        overrides: "Mapping[int, tuple[int, int]] | None" = None,
    ) -> int:
        """Evaluate up to ``n_cycles`` cycles in one pass; return how many
        were consumed (at least one).

        Cycle *c* of the block occupies bits ``[c * W, (c+1) * W)`` of
        every value (``W = 64 * n_words``): ``pi_words`` maps each PI
        node to its block-wide integer, and ``overrides`` maps nodes to
        block-wide ``(forced, mask)`` pairs, so each cycle's forcing
        lands only on its own bits.  The generated kernels run unchanged
        over the wider values.

        Combinational cycles are independent, so every evaluated cycle is
        consumed.  A sequential program's cycle 0 gets the true latch
        state and cycles ``1..C-1`` the recorded states; each latch
        driver's value at cycle *c* is then checked against the state fed
        to cycle *c+1*.  By induction from the true start state every
        cycle up to the first mismatch is exact: those are consumed, the
        rest rewound, and the corrected state recorded.  A wrong
        prediction costs a pass, never a wrong value.  The pass covers
        :meth:`block_span` cycles, so cycles with no prediction are
        evaluated one per pass.

        After the call, per-cycle reads (:attr:`values`, :meth:`value`,
        :meth:`node_ints`, :meth:`export_words`, :meth:`dense`) see the
        last consumed cycle and :meth:`block_export` serves every
        evaluated cycle's values.
        """
        return self._run_block(n_cycles, pi_words, None, overrides)

    def run_block_array(self, stim: "np.ndarray") -> int:
        """:meth:`run_block` from a dense stimulus matrix, clean cycles.

        ``stim`` is a ``(n_pis, C * n_words)`` uint64 array, rows aligned
        to ``program.pi_nodes`` order, cycle ``c`` of the batch on word
        columns ``[c * n_words, (c+1) * n_words)``.  Callers that already
        hold word-packed arrays (trace replays, generated stimulus
        matrices, the kernel benchmark) pass them as they are; semantics
        are identical to an override-free :meth:`run_block`.
        """
        nw = self.n_words
        n_pis = len(self.program.pi_nodes)
        if (
            stim.ndim != 2
            or stim.shape[0] != n_pis
            or stim.dtype != np.uint64
            or stim.shape[1] % nw
            or stim.shape[1] == 0
        ):
            raise SimulationError(
                f"run_block_array stimulus must be uint64 of shape "
                f"({n_pis}, C * {nw}), got {stim.dtype} {stim.shape}"
            )
        return self._run_block(stim.shape[1] // nw, None, stim, None)

    def _run_block(self, n_cycles: int, pi_words, stim, overrides) -> int:
        if not 0 < n_cycles <= self._block_cycles:
            raise SimulationError(
                f"run_block of {n_cycles} cycles outside block capacity "
                f"1..{self._block_cycles}"
            )
        program = self.program
        n = self.block_span(n_cycles)
        mask = (1 << (64 * self.n_words * n)) - 1
        self._blk_begin(mask)
        if pi_words is None:
            self._blk_write(program.pi_nodes, stim, n)
        else:
            self._blk_write_ints(program.pi_nodes, pi_words, mask)
        pred = self._predict(n) if program.latch_qs else None
        if pred is not None:
            self._blk_write(program.latch_qs, pred, n)
        self._eval(
            self._bv, mask, self._blk_notmask, self._dirty_consts_blk,
            overrides,
        )
        consumed = n
        if pred is not None:
            drivers = self._blk_rows(program.latch_drivers, n)
            consumed = self._check(pred, drivers, n)
        self._blk_len = n
        self._last_block = consumed
        self._slot = consumed - 1
        self.cycle += consumed
        return consumed

    def _predict(self, n: int) -> "np.ndarray":
        """Latch-output rows for an ``n``-cycle block: the true state in
        cycle 0, the recorded states in cycles ``1..n-1``."""
        nw = self.n_words
        pred = np.empty((len(self.latch_state), n, nw), dtype=np.uint64)
        pred[:, 0] = self._state_rows()
        if n > 1:
            b = self.cycle
            pred[:, 1:] = self._rec[b + 1 : b + n].transpose(1, 0, 2)
        return pred.reshape(len(self.latch_state), n * nw)

    def _check(self, pred: "np.ndarray", drivers: "np.ndarray", n: int) -> int:
        """Consume the exact prefix of a predicted block: cycle *c* is
        exact when the drivers of every earlier cycle matched the state
        fed to the cycle after it.  Records the true states reached and
        moves the latch state to the end of the prefix."""
        n_latches, nw = len(self.latch_state), self.n_words
        fed = pred.reshape(n_latches, n, nw)
        got = drivers.reshape(n_latches, n, nw)
        miss = np.flatnonzero((got[:, :-1] != fed[:, 1:]).any(axis=(0, 2)))
        consumed = int(miss[0]) + 1 if miss.size else n
        # got[:, c] is the true state at the start of cycle b + c + 1
        b, end = self.cycle, self.cycle + consumed
        top = min(end + 1, self._rec_cap)
        if b + 1 < top:
            rec = self._rec
            agrees = end < self._rec_len and np.array_equal(
                rec[end], got[:, consumed - 1]
            )
            rec[b + 1 : top] = got[:, : top - b - 1].transpose(1, 0, 2)
            if not agrees:  # the rest of the record left this trajectory
                self._rec_len = top
        self._blk_drivers = got
        self._set_state_rows(got[:, consumed - 1])
        return consumed

    # -- block state -----------------------------------------------------------

    def _blk_begin(self, mask: int) -> None:
        """Ready the block values for ``mask``-wide evaluation: constants
        folded and the not-mask table neutral at ``mask``."""
        bv = self._bv
        if mask != self._blk_mask:
            for node, const in self.program.const_nodes:
                bv[node] = mask if const else 0
            self._blk_notmask = [mask] * self.program.n_nodes
            self._blk_mask = mask
        else:
            cv = self.program.const_value
            for node in self._dirty_consts_blk:
                bv[node] = mask if cv[node] else 0
        self._dirty_consts_blk.clear()

    def _blk_write_ints(self, nodes, words, mask: int) -> None:
        """Land block-wide integer source values (``words[node]``)."""
        bv = self._bv
        try:
            for x in nodes:
                bv[x] = words[x] & mask
        except KeyError as exc:
            raise SimulationError(
                f"cycle {self.cycle}: no value for PI node {exc.args[0]}"
            ) from exc

    def _blk_write(self, nodes, rows: "np.ndarray", n: int) -> None:
        """Land ``(len(nodes), >= n * n_words)`` source rows on the block
        values."""
        nb = n * self._word_bytes
        data = np.ascontiguousarray(rows[:, : n * self.n_words]).tobytes()
        bv = self._bv
        for i, x in enumerate(nodes):
            bv[x] = int.from_bytes(data[i * nb : (i + 1) * nb], "little")

    def _blk_rows(self, nodes, n: int) -> "np.ndarray":
        """``nodes``' values over the first ``n`` cycles of the block."""
        nb = n * self._word_bytes
        bv = self._bv
        return np.frombuffer(
            b"".join([bv[x].to_bytes(nb, "little") for x in nodes]),
            dtype=np.uint64,
        ).reshape(len(nodes), n * self.n_words)

    def rewind_block(self, n_consumed: int) -> None:
        """Declare that only the first ``n_consumed`` cycles of the last
        :meth:`run_block` pass were used (an early-stop predicate fired
        mid-block): the cycle counter and latch state rewind past the
        overshoot and per-cycle reads see cycle ``n_consumed - 1`` —
        exactly the state a cycle-by-cycle run stopping there would
        leave."""
        last = self._last_block
        if not 0 < n_consumed <= last:
            raise SimulationError(
                f"rewind_block({n_consumed}) without a matching run_block"
            )
        if self._blk_drivers is not None:
            self._set_state_rows(self._blk_drivers[:, n_consumed - 1])
        self.cycle -= last - n_consumed
        self._last_block = n_consumed
        self._slot = n_consumed - 1

    def block_export(self, nodes, out: "np.ndarray") -> None:
        """Gather the last :meth:`run_block` pass's rows for ``nodes``
        into preallocated ``out`` of shape ``(len(nodes), block_cycles *
        n_words)`` — reshape to ``(len(nodes), block_cycles, n_words)``
        for per-cycle views.  Only the consumed cycles are meaningful."""
        if not self._blk_len:
            raise SimulationError("block_export before any run_block")
        out[:, : self._blk_len * self.n_words] = self._blk_rows(
            nodes, self._blk_len
        )
