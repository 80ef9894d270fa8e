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
    "BACKENDS",
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

_MASK64 = (1 << 64) - 1

#: Straight-line ops per generated kernel function; very large networks
#: are split into several functions to keep CPython's compiler happy.
_OPS_PER_CHUNK = 2000

# -- execution backends -------------------------------------------------------

#: Registered kernel execution backends: ``"python"`` runs the generated
#: big-int kernels (arbitrary lane width, no dependencies); ``"numpy"``
#: runs the vectorized whole-array lowering of :mod:`repro.netlist.vector`
#: (amortizes dispatch across words — the high-lane-width fast path).
BACKENDS = ("python", "numpy")

#: Auto selection switches to numpy at this many words (256 lanes): below
#: it, big-int ops are cheap and numpy dispatch dominates; above it, the
#: vectorized kernels amortize dispatch across the word axis.
AUTO_NUMPY_MIN_WORDS = 4

#: Cycle batching (combinational programs only) targets this total state
#: width per evaluation pass, capped at :data:`MAX_BLOCK_CYCLES` cycles.
BLOCK_TARGET_WORDS = 128
MAX_BLOCK_CYCLES = 64


def resolve_backend(backend: "str | None" = None, *, n_words: int = 1) -> str:
    """Resolve a backend request to a concrete registered backend.

    ``None``/``"auto"`` selects by width: numpy when ``n_words >=
    AUTO_NUMPY_MIN_WORDS`` (dispatch amortized across the word axis),
    python otherwise.  Explicit requests (kernel tests and benchmarks
    comparing the two backends) are validated.
    """
    if backend in (None, "auto"):
        if n_words >= AUTO_NUMPY_MIN_WORDS:
            return "numpy"
        return "python"
    if backend not in BACKENDS:
        raise SimulationError(
            f"unknown simulation backend {backend!r} (known: "
            f"{', '.join(BACKENDS)}, or 'auto')"
        )
    return backend


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
    share one program).
    """
    sig = network_signature(net)
    hit = _BY_NET.get(net)
    if hit is not None and hit.signature == sig:
        return hit
    program = None
    if store is not None:
        found = store.get(COMPILED_SIM_STAGE, sig, expect=CompiledProgram)
        if found is not None:
            program = found.value
        else:
            program = _BY_KEY.get(sig)
            if program is None:
                program = compile_network(net, signature=sig)
            store.put(COMPILED_SIM_STAGE, sig, program)
    else:
        program = _BY_KEY.get(sig)
        if program is None:
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
    """Executes a :class:`CompiledProgram` cycle by cycle.

    ``backend`` selects the kernel implementation (see
    :func:`resolve_backend`; ``None`` auto-selects by word count):

    * ``"python"`` — the generated big-int kernels.  All per-cycle state
      lives in preallocated containers: the flat value list (one
      word-packed integer per node), the latch-state list, the forced/
      not-mask override tables and the dense export buffer.  A step is:
      write PI and latch-output slots, run the generated kernel, capture
      next latch state — nothing allocates an array.
    * ``"numpy"`` — the vectorized whole-array lowering of
      :mod:`repro.netlist.vector` over a dense ``uint64`` state matrix;
      per-op dispatch is amortized across the word axis, and
      combinational programs additionally support cycle batching through
      :meth:`run_block` (up to :attr:`block_cycles` cycles per
      vectorized pass — the 512+-lane fast path).

    Both backends serve node values through :meth:`value`,
    :meth:`node_ints`, :meth:`export_words` and :meth:`dense`.

    The lane engine steps this class directly; the dict-of-arrays API
    is :class:`repro.netlist.simulate.SequentialSimulator`, which wraps
    this class and converts at its boundary.
    """

    def __init__(
        self,
        program: CompiledProgram,
        n_words: int = 1,
        *,
        backend: "str | None" = None,
    ) -> None:
        if n_words < 1:
            raise SimulationError("n_words must be at least 1")
        self.program = program
        self.n_words = int(n_words)
        self.backend = resolve_backend(backend, n_words=self.n_words)
        self.full_mask = (1 << (64 * self.n_words)) - 1
        self.cycle = 0
        n = program.n_nodes
        self.latch_state: list[int] = [0] * len(program.latch_qs)
        self._dirty_consts: list[int] = []
        self._word_bytes = 8 * self.n_words
        self._dense_buf = bytearray(n * self._word_bytes)
        self._dense = None  # numpy view over _dense_buf, built on demand
        if self.backend == "numpy":
            from repro.netlist.vector import VectorState, plan_for

            self._plan = plan_for(program)
            self._vec = VectorState(self._plan, self.n_words)
            self._block_cycles = (
                1
                if program.latch_qs
                else max(
                    1,
                    min(MAX_BLOCK_CYCLES, BLOCK_TARGET_WORDS // self.n_words),
                )
            )
            self._blk = None  # cycle-batched VectorState, built on demand
            self._dirty_consts_blk: list[int] = []
            # block stimulus marshalling: PI scatter indices (built on
            # first run_block) and the broadcast zero-row byte constant
            self._pi_idx = None
            self._pi_inv_sel = None
            self._pi_inv_pos = None
            self._pi_inv_rows = None
            self._inv_buf = None
            self._zero_row_bytes = b"\x00" * self._word_bytes
        else:
            self._plan = None
            self._vec = None
            self.values: list[int] = [0] * n
            self._forced: list[int] = [0] * n
            self._notmask: list[int] = [self.full_mask] * n
            self._armed: list[int] = []
            self._block_cycles = 1
            self._clean_kernel, self._forced_kernel = program.kernels()
        self.reset()

    # -- state ---------------------------------------------------------------

    def reset(self) -> None:
        """Reload latch initial values and re-fold constants."""
        self.cycle = 0
        full = self.full_mask
        if self._vec is not None:
            self._vec.reset_consts()
            if self._blk is not None:
                self._blk.reset_consts()
                self._dirty_consts_blk.clear()
        else:
            v = self.values
            for node, const in self.program.const_nodes:
                v[node] = full if const else 0
        for i, init in enumerate(self.program.latch_inits):
            self.latch_state[i] = full if init == 1 else 0
        self._dirty_consts.clear()

    def value(self, node: int) -> int:
        """Node's current word-packed value (all lanes, one integer)."""
        return self.node_ints((node,))[0]

    def word(self, node: int, word: int = 0) -> int:
        """One 64-lane word of a node's value."""
        if self._vec is not None:
            return int(self._vec.state[node, word])
        return (self.values[node] >> (64 * word)) & _MASK64

    def node_ints(self, nodes) -> "list[int]":
        """Word-packed integer values for a list of node ids — the bulk
        read both backends serve without materializing the full state."""
        if self._vec is not None:
            state = self._vec.state
            return [
                int.from_bytes(state[n].tobytes(), "little") for n in nodes
            ]
        v = self.values
        return [v[n] for n in nodes]

    def export_words(self, nodes, buf: bytearray) -> None:
        """Serialize ``nodes``' word-packed values into ``buf``
        (little-endian, ``8 * n_words`` bytes per node) — the one
        int→uint64 conversion loop shared by :meth:`dense` and the
        engine's per-cycle trace-sample capture."""
        if self._vec is not None:
            idx = np.asarray(nodes, dtype=np.intp)
            view = np.frombuffer(buf, dtype=np.uint64).reshape(
                idx.size, self.n_words
            )
            np.take(self._vec.state, idx, axis=0, out=view)
            return
        bl = self._word_bytes
        v = self.values
        pos = 0
        for n in nodes:
            buf[pos : pos + bl] = v[n].to_bytes(bl, "little")
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
        if self._vec is not None:
            self._dense[:] = self._vec.state[: self.program.n_nodes]
        else:
            self.export_words(range(len(self.values)), self._dense_buf)
        return self._dense

    # -- evaluation ----------------------------------------------------------

    def _restore_consts(self) -> None:
        if not self._dirty_consts:
            return
        full = self.full_mask
        cv = self.program.const_value
        if self._vec is not None:
            state = self._vec.state
            n = self.program.n_nodes
            for node in self._dirty_consts:
                state[node] = (
                    ~np.uint64(0) if cv[node] else np.uint64(0)
                )
                state[node + n] = ~state[node]
        else:
            v = self.values
            for node in self._dirty_consts:
                v[node] = full if cv[node] else 0
        self._dirty_consts.clear()

    def _eval(
        self, overrides: "Mapping[int, tuple[int, int]] | None"
    ) -> None:
        """Run one combinational settle with overrides already split out.

        ``overrides`` maps node → ``(forced, mask)`` word-packed integer
        pairs.  Source and folded-constant overrides blend into the value
        state before the kernel runs; gate overrides blend the moment the
        gate is evaluated — its fanouts see the forced value (python: the
        forced kernel's per-node tables; numpy: per-level fixups applied
        between level passes).
        """
        if self._vec is not None:
            fixups = self._vec_overrides(
                self._vec, overrides, self._dirty_consts
            )
            self._vec.eval_levels(fixups)
            return
        v = self.values
        full = self.full_mask
        if not overrides:
            self._clean_kernel(v, full)
            return
        is_op = self.program.is_op
        const_value = self.program.const_value
        armed = self._armed
        f = self._forced
        nm = self._notmask
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
                    self._dirty_consts.append(node)
        if armed:
            self._forced_kernel(v, full, f, nm)
            for node in armed:
                f[node] = 0
                nm[node] = full
            armed.clear()
        else:
            self._clean_kernel(v, full)

    # -- numpy-backend internals ---------------------------------------------

    def _row_from_int(self, value: int) -> "np.ndarray":
        return np.frombuffer(
            (value & self.full_mask).to_bytes(self._word_bytes, "little"),
            dtype=np.uint64,
        )

    def _vec_overrides(self, vec, overrides, dirty):
        """Blend source/const overrides into ``vec`` now; return the gate
        overrides grouped by level index for mid-eval fixups."""
        if not overrides:
            return None
        is_op = self.program.is_op
        const_value = self.program.const_value
        full = self.full_mask
        fixups: "dict[int, list] | None" = None
        for node, (forced, mask) in overrides.items():
            farr = self._row_from_int(forced & mask)
            nmarr = self._row_from_int(full ^ mask)
            if is_op[node]:
                if fixups is None:
                    fixups = {}
                fixups.setdefault(self._plan.op_level[node], []).append(
                    (node, farr, nmarr)
                )
            else:
                vec.blend(node, farr, nmarr)
                if node in const_value:
                    dirty.append(node)
        return fixups

    # -- stepping -------------------------------------------------------------

    def step(
        self,
        pi_values: "Mapping[int, int]",
        *,
        overrides: "Mapping[int, tuple[int, int]] | None" = None,
    ) -> None:
        """Advance one clock cycle over word-packed integer stimulus."""
        self._restore_consts()
        full = self.full_mask
        state = self.latch_state
        if self._vec is not None:
            vec = self._vec
            try:
                for pid in self.program.pi_nodes:
                    vec.set_source(pid, self._row_from_int(pi_values[pid]))
            except KeyError as exc:
                raise SimulationError(
                    f"cycle {self.cycle}: no value for PI node {exc.args[0]}"
                ) from exc
            for i, q in enumerate(self.program.latch_qs):
                vec.set_source(q, self._row_from_int(state[i]))
            self._eval(overrides)
            st = vec.state
            for i, d in enumerate(self.program.latch_drivers):
                state[i] = int.from_bytes(st[d].tobytes(), "little")
            self.cycle += 1
            return
        v = self.values
        try:
            for pid in self.program.pi_nodes:
                v[pid] = pi_values[pid] & full
        except KeyError as exc:
            raise SimulationError(
                f"cycle {self.cycle}: no value for PI node {exc.args[0]}"
            ) from exc
        for i, q in enumerate(self.program.latch_qs):
            v[q] = state[i]
        self._eval(overrides)
        for i, d in enumerate(self.program.latch_drivers):
            state[i] = v[d]
        self.cycle += 1

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
        if self._vec is not None:
            vec = self._vec
            for src in self.program.source_nodes:
                if src not in source_values:
                    raise SimulationError(f"no stimulus for source node {src}")
                vec.set_source(src, self._row_from_int(source_values[src]))
            self._eval(overrides)
            return
        v = self.values
        full = self.full_mask
        for src in self.program.source_nodes:
            if src not in source_values:
                raise SimulationError(f"no stimulus for source node {src}")
            v[src] = source_values[src] & full
        self._eval(overrides)

    # -- cycle batching (numpy backend, combinational programs) ---------------

    @property
    def block_cycles(self) -> int:
        """Cycles one :meth:`run_block` call can evaluate vectorized
        (``1`` on the python backend and for sequential programs)."""
        return self._block_cycles

    def run_block(
        self,
        pi_rows: "Sequence[Mapping[int, int]]",
        overrides_rows: "Sequence[Mapping[int, tuple[int, int]] | None] | None" = None,
    ) -> None:
        """Advance ``len(pi_rows)`` cycles in one evaluation pass.

        Combinational cycles are independent, so the numpy backend lays
        cycle *c* of the batch on word columns ``[c * n_words,
        (c+1) * n_words)`` of an extra-wide state and settles them all in
        one vectorized pass — gather and dispatch overhead amortized
        ``C``-fold.  Per-cycle overrides keep exact per-cycle semantics
        (each cycle's ``(forced, mask)`` lands only on its columns).
        After the call the ordinary per-cycle state reflects the *last*
        cycle of the batch and :meth:`block_export` serves every cycle's
        values.  Backends/programs without batching (``block_cycles ==
        1``) fall back to looped :meth:`step` calls — callers need no
        backend-specific logic, only an optional fast path.
        """
        n_cycles = len(pi_rows)
        if overrides_rows is None:
            overrides_rows = [None] * n_cycles
        if self._block_cycles <= 1 or n_cycles <= 1:
            for row, ov in zip(pi_rows, overrides_rows):
                self.step(row, overrides=ov)
            return
        blk = self._block_begin(n_cycles)
        full = self.full_mask
        wb = self._word_bytes
        pis = self.program.pi_nodes
        # one python-level pass converts every (PI, cycle) integer to its
        # 8*n_words little-endian bytes, then a single fancy-index scatter
        # lands the whole stimulus matrix — per-call numpy overhead is
        # paid once per block, not once per source.  The hot path assumes
        # in-range non-negative values (to_bytes raises on anything else,
        # and the masking fallback re-runs the conversion).  Padding
        # columns past n_cycles stay stale; nothing reads them.
        zb = self._zero_row_bytes
        try:
            try:
                data = b"".join(
                    [
                        zb if not (v := row[pid]) else v.to_bytes(wb, "little")
                        for pid in pis
                        for row in pi_rows
                    ]
                )
            except OverflowError:  # out-of-range/negative stimulus: mask
                data = b"".join(
                    [
                        (row[pid] & full).to_bytes(wb, "little")
                        for pid in pis
                        for row in pi_rows
                    ]
                )
        except KeyError as exc:
            raise SimulationError(
                f"cycle {self.cycle}: no value for PI node {exc.args[0]}"
            ) from exc
        cols = n_cycles * self.n_words
        stim = np.frombuffer(data, dtype=np.uint64).reshape(len(pis), cols)
        self._block_scatter_stim(blk, stim, cols)
        fixups = None
        if any(overrides_rows):
            per_node: "dict[int, tuple[bytearray, bytearray]]" = {}
            blank = bytes(wb * self._block_cycles)
            for c, ov in enumerate(overrides_rows):
                if not ov:
                    continue
                for node, (forced, mask) in ov.items():
                    fb, mb = per_node.setdefault(
                        node, (bytearray(blank), bytearray(blank))
                    )
                    fb[c * wb : (c + 1) * wb] = (
                        forced & mask & full
                    ).to_bytes(wb, "little")
                    mb[c * wb : (c + 1) * wb] = (mask & full).to_bytes(
                        wb, "little"
                    )
            is_op = self.program.is_op
            const_value = self.program.const_value
            for node, (fb, mb) in per_node.items():
                farr = np.frombuffer(bytes(fb), dtype=np.uint64)
                nmarr = ~np.frombuffer(bytes(mb), dtype=np.uint64)
                if is_op[node]:
                    if fixups is None:
                        fixups = {}
                    fixups.setdefault(self._plan.op_level[node], []).append(
                        (node, farr, nmarr)
                    )
                else:
                    blk.blend(node, farr, nmarr)
                    if node in const_value:
                        self._dirty_consts_blk.append(node)
        blk.eval_levels(fixups)
        self._block_finish(blk, n_cycles)

    def _block_begin(self, n_cycles: int):
        """Validate capacity and return the cycle-batched state, consts
        restored and PI scatter indices ready."""
        if n_cycles > self._block_cycles:
            raise SimulationError(
                f"run_block of {n_cycles} cycles exceeds block capacity "
                f"{self._block_cycles}"
            )
        if self._blk is None:
            from repro.netlist.vector import VectorState

            self._blk = VectorState(
                self._plan, self.n_words * self._block_cycles
            )
        blk = self._blk
        if self._dirty_consts_blk:
            blk.reset_consts()
            self._dirty_consts_blk.clear()
        self._restore_consts()
        if self._pi_idx is None:
            self._pi_idx = np.asarray(self.program.pi_nodes, dtype=np.intp)
            self._pi_inv_sel = np.asarray(
                [
                    bool(self._plan.needs_inv[p])
                    for p in self.program.pi_nodes
                ],
                dtype=bool,
            )
            self._pi_inv_pos = np.flatnonzero(self._pi_inv_sel)
            self._pi_inv_rows = (
                self._pi_idx[self._pi_inv_sel] + self._plan.n_nodes
            )
            self._inv_buf = np.empty(
                (
                    self._pi_inv_pos.size,
                    self.n_words * self._block_cycles,
                ),
                dtype=np.uint64,
            )
        return blk

    def _block_scatter_stim(self, blk, stim: "np.ndarray", cols: int) -> None:
        """Land the ``(n_pis, cols)`` stimulus matrix (rows in
        ``program.pi_nodes`` order) plus the complement rows literals
        read inverted — the complements pass through a preallocated
        buffer so the scatter is allocation-free."""
        blk.state[self._pi_idx, :cols] = stim
        if self._pi_inv_pos.size:
            buf = self._inv_buf[:, :cols]
            np.take(stim, self._pi_inv_pos, axis=0, out=buf)
            np.invert(buf, out=buf)
            blk.state[self._pi_inv_rows, :cols] = buf

    def _block_finish(self, blk, n_cycles: int) -> None:
        # the ordinary per-cycle state tracks the batch's last cycle, so
        # single-cycle reads after a block see a consistent snapshot
        nw = self.n_words
        self._vec.state[:, :] = blk.state[
            :, (n_cycles - 1) * nw : n_cycles * nw
        ]
        self._last_block = n_cycles
        self.cycle += n_cycles

    def run_block_array(self, stim: "np.ndarray") -> None:
        """Advance a batch of clean cycles from a dense stimulus matrix.

        ``stim`` is a ``(n_pis, C * n_words)`` uint64 array, rows aligned
        to ``program.pi_nodes`` order, cycle ``c`` of the batch on word
        columns ``[c * n_words, (c+1) * n_words)`` — the numpy backend's
        native stimulus format.  Callers that already hold word-packed
        arrays (trace replays, generated stimulus matrices, the kernel
        benchmark) skip :meth:`run_block`'s per-integer marshalling
        entirely; semantics are otherwise identical to a clean
        (override-free) :meth:`run_block`, including :meth:`block_export`
        and :meth:`rewind_block` on the result.  Requires the numpy
        backend on a combinational program (``block_cycles > 1``).
        """
        if self._vec is None or self._block_cycles <= 1:
            raise SimulationError(
                "run_block_array requires the numpy backend on a "
                "combinational program"
            )
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
        n_cycles = stim.shape[1] // nw
        blk = self._block_begin(n_cycles)
        self._block_scatter_stim(blk, stim, stim.shape[1])
        blk.eval_levels(None)
        self._block_finish(blk, n_cycles)

    def rewind_block(self, n_consumed: int) -> None:
        """Declare that only the first ``n_consumed`` cycles of the last
        :meth:`run_block` batch were used (an early-stop predicate fired
        mid-block): the cycle counter rewinds past the overshoot and the
        per-cycle state re-mirrors cycle ``n_consumed - 1`` — exactly the
        state a cycle-by-cycle run stopping there would leave."""
        last = getattr(self, "_last_block", 0)
        if not 0 < n_consumed <= last:
            raise SimulationError(
                f"rewind_block({n_consumed}) without a matching run_block"
            )
        nw = self.n_words
        self._vec.state[:, :] = self._blk.state[
            :, (n_consumed - 1) * nw : n_consumed * nw
        ]
        self.cycle -= last - n_consumed
        self._last_block = n_consumed

    def block_export(self, nodes, out: "np.ndarray") -> None:
        """Gather the last :meth:`run_block` batch's rows for ``nodes``
        into preallocated ``out`` of shape ``(len(nodes), block_cycles *
        n_words)`` — reshape to ``(len(nodes), block_cycles, n_words)``
        for per-cycle views."""
        if self._blk is None:
            raise SimulationError("block_export before any run_block")
        np.take(
            self._blk.state,
            np.asarray(nodes, dtype=np.intp),
            axis=0,
            out=out,
        )
