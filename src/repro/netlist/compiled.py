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
A simulator carries exactly its ``L`` lanes (``CompiledSimulator(program,
n_lanes=L)``).  A node's per-cycle value is one ``L``-bit Python integer
with lane *k* at bit ``k`` (Python integers are arbitrary-precision, so
one value object spans every lane, however many).  The generated kernel
rebinds slots of one preallocated flat list — no per-node dicts, no
per-cycle array allocation — and a one-lane simulator evaluates one-bit
values, not 64-bit ones.

Every array view keeps the word layout of ``n_words = ceil(L / 64)``
``uint64`` words per value: lane *k* is bit ``k % 64`` of word ``k // 64``
(bits past lane ``L - 1`` read 0).  The block export, the dense stimulus
of :meth:`~CompiledSimulator.run_block_array` and the latch-state record
use one ``(..., n_words)`` row per cycle.  The conversion between integers
and rows lives in one place, the row helpers :func:`block_rows`,
:func:`block_ints` and :func:`held_block_ints`, which the simulator and
the lane engine share: ``64 * n_words`` lanes give the word layout bit
for bit, other widths re-stride on whole bytes or bits, and a block of
at most 64 bits converts in one numpy step.

Cycle batching
--------------
The simulator evaluates *blocks* of cycles in one pass: cycle *c* of a
block occupies bits ``[c * L, (c+1) * L)`` of every value, so the same
generated kernels run over ``C * L``-bit integers with ``M`` set to the
block mask (a one-lane 32-cycle block is a 32-bit value).  A pass is the
simulator's one evaluation path over its one node-value list: a step is
a one-cycle pass.
Sequential programs batch by checked prediction: the simulator records
the latch state at the start of every cycle since reset, feeds a block's
later cycles the recorded states, and consumes only the prefix whose
predictions its latch drivers confirm (:meth:`CompiledSimulator.run_block`).

A program may be split at a set of *late* sources
(:func:`compile_network`'s ``late``): every op in their fanout — closed
through any latch whose driver it reaches — is late, every other op is
early and runs first, and no generated chunk mixes the two.  Early ops
read only early sources, so a block pass whose early inputs (start
cycle, span, latch state, latch record, early PI words and overrides)
equal the last pass's would recompute exactly the early values the node
values still hold: the simulator then rewrites only the late PI words,
runs only the late chunks, and restores the last pass's consumed count,
latch state and driver rows.  The lane engine's emulation programs are
split at the select parameters, so a debug turn that changes only what
is observed re-evaluates only the select cone.

Overrides (fault forcing) resolve through precomputed node indices: gate
overrides blend inside a second generated kernel via per-node
``(forced, ~mask)`` tables (``value = (clean & ~mask) | (forced & mask)``
per lane; a node's neutral entries, ``0`` and ``-1``, leave its value as
it is at any pass width), while source and folded-constant overrides
blend before the kernel runs.  Each kernel kind is generated on first
use, so a pass that never arms a gate override (every golden pass)
compiles only ``clean``.

Program caching
---------------
Compilation costs one cover extraction + codegen pass per network.  In a
process, :func:`program_for` memoizes programs per structural signature
and split in a bounded LRU: every ``mapping.to_lut_network()`` call
builds a fresh but identical network, which shares the program, and an
in-place rewire changes the signature, which recompiles.
Across processes, the mapped network's program is part of the pipeline's
``emulation`` stage artifact (:mod:`repro.pipeline.stages`), which
generates both kernel kinds only when it pickles: its :class:`KernelCode`
pickles the generated code objects as :mod:`marshal` bytes tagged with
:data:`importlib.util.MAGIC_NUMBER` — Python's own ``.pyc`` rule — so a
warm store serves kernels that need no ``compile()``, and a store written
by another bytecode version regenerates them from the ops on first use.
Generated code is split into chunks bounded by the code they hold
(:data:`_LITERALS_PER_CHUNK`), which bounds ``compile()``'s peak memory.
"""

from __future__ import annotations

import hashlib
import marshal
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from importlib.util import MAGIC_NUMBER
from types import CodeType
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.sop import truthtable_to_cover

__all__ = [
    "PROGRAM_VERSION",
    "CompiledProgram",
    "CompiledSimulator",
    "KernelCode",
    "block_ints",
    "block_rows",
    "compile_network",
    "held_block_ints",
    "network_signature",
    "program_for",
    "resolve_backend",
]

#: Folded into :func:`network_signature` and the version of the pipeline's
#: ``emulation`` stage; bump when program lowering, kernel semantics, the
#: chunk layout or the PConf plan change so persisted programs and plans
#: from older versions miss.  v2: emulation programs are split at the
#: select parameters.  v3: chunks are bounded by
#: :data:`_LITERALS_PER_CHUNK` (a stored kernel's late chunks are sliced
#: by the current layout).
PROGRAM_VERSION = 3

#: Fanin literals per generated kernel function, each op's assignment
#: counting as one more (a tautology cube counts as one literal).  Longer
#: op lists are split into several functions, which bounds
#: ``compile()``'s peak memory by the code a chunk holds rather than by
#: its op count: or1200's early ops average 11 literals and its late
#: (select-cone) ops 5.  A single op over the budget gets a chunk of its
#: own.
_LITERALS_PER_CHUNK = 2000

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
    h.update(f"program-v{PROGRAM_VERSION}:{net.n_nodes}\n".encode())
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
    late_sources / late_qs / n_early:
        The early/late split (see :func:`compile_network`): the late PIs,
        the latches their fanout reaches, and how many leading ops are
        early (all of them when nothing is late).
    code:
        The :class:`KernelCode` over ``ops``: the ``clean`` and ``forced``
        kernels, each generated on first use, chunked so that no chunk
        holds both early and late ops.

    Programs pickle with whatever kernel code they have generated (see
    :class:`KernelCode`), which is what lets the pipeline's ``emulation``
    stage persist them.
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
        late_sources: tuple = (),
        late_qs: tuple = (),
        n_early: int | None = None,
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
        self.late_sources = late_sources
        self.late_qs = late_qs
        self.n_early = len(ops) if n_early is None else n_early
        self.code = KernelCode(
            ops, f"program:{signature[:12]}", n_early=self.n_early
        )
        self._finish_init()

    def _finish_init(self) -> None:
        is_op = [False] * self.n_nodes
        for node, _fanins, _cubes in self.ops:
            is_op[node] = True
        self.is_op = is_op
        self.const_value = dict(self.const_nodes)
        # PIs early first, then late: the order a block pass reads them in
        late = set(self.late_sources)
        self.pi_order = tuple(
            sorted(self.pi_nodes, key=lambda pi: pi in late)
        )
        self.n_early_pis = len(self.pi_nodes) - len(late)
        # a pass may reuse its early half when something is late and the
        # latch state cannot depend on it
        self.reusable = bool(late) and not self.late_qs
        is_late = [False] * self.n_nodes
        for node in self.late_sources:
            is_late[node] = True
        for node, _fanins, _cubes in self.ops[self.n_early :]:
            is_late[node] = True
        self.is_late = is_late

    # -- pickling (derived tables are rebuilt) ---------------------------------

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
            "late_sources": self.late_sources,
            "late_qs": self.late_qs,
            "n_early": self.n_early,
            "code": self.code,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._finish_init()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledProgram(n_nodes={self.n_nodes}, ops={len(self.ops)}, "
            f"early={self.n_early}, consts={len(self.const_nodes)}, "
            f"sig={self.signature[:12]}...)"
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
            else:  # tautology cube: a constant-1 op
                terms.append("M")
        out.append((node, "|".join(terms) if terms else "0"))
    return out


#: Kernel kinds :class:`KernelCode` generates: parameters and per-op statement.
#: ``clean(v, M)`` evaluates every op into the flat value list ``v`` (``M``
#: is the all-lanes mask); ``forced(v, M, f, nm)`` additionally blends each
#: result through the per-node forced/not-mask tables — ``v[n] = (expr &
#: nm[n]) | f[n]``, which with the tables at their neutral values (``0`` /
#: ``-1``, every bit set) is the clean result at any width, so only
#: overridden nodes need armed slots.
_KERNEL_KINDS = {
    "clean": ("v, M", "v[{node}] = {expr}"),
    "forced": ("v, M, f, nm", "v[{node}] = (({expr})&nm[{node}])|f[{node}]"),
}


class KernelCode:
    """Straight-line kernels over ``ops``, one per kind, generated on first
    use.

    ``ops`` are ``(slot, fanins, cubes)`` triples in evaluation order; each
    kernel rebinds the slots of a flat value list ``v`` in op order.  Long
    op lists are split into chunks whose code fits
    :data:`_LITERALS_PER_CHUNK` (:meth:`_chunk_starts`, computed once from
    the ops), compiled under ``<label:kind:first op>``; the first
    ``n_early`` ops and the rest never share a chunk, so the late ops run
    alone as ``kernel(kind, late=True)``.  Which kinds exist is the owner's
    choice: a simulator links ``clean`` when it is built and ``forced``
    on its first armed gate override, and the pipeline's ``emulation``
    artifact generates both before it pickles
    (:class:`repro.core.flow.Emulation`).

    Pickling keeps the ops and every generated code object, as
    :mod:`marshal` bytes tagged with :data:`importlib.util.MAGIC_NUMBER`
    (the ``.pyc`` rule): unpickled under the same bytecode magic, a kernel
    links without ``compile()``; under another, the code is dropped and
    regenerates from the ops on first use.
    """

    def __init__(
        self, ops: tuple, label: str, *, n_early: int | None = None
    ) -> None:
        self.ops = ops
        self.label = label
        self.n_early = len(ops) if n_early is None else n_early
        self._code: "dict[str, tuple[CodeType, ...]]" = {}
        self._fns: "dict[tuple[str, bool], Callable]" = {}
        self._starts: "tuple[list[int], list[int]] | None" = None

    def _chunk_starts(self) -> "tuple[list[int], list[int]]":
        """First op of every early chunk and of every late chunk (a pure
        function of the ops and ``n_early``, computed once)."""
        if self._starts is None:
            self._starts = (
                _split_chunks(self.ops, 0, self.n_early),
                _split_chunks(self.ops, self.n_early, len(self.ops)),
            )
        return self._starts

    def generate(self, *kinds: str) -> None:
        """Generate the code of every kind in ``kinds`` not generated yet
        (one expression pass shared by all of them)."""
        missing = [kind for kind in kinds if kind not in self._code]
        if not missing:
            return
        exprs = _op_exprs(self.ops)
        early, late = self._chunk_starts()
        bounds = [
            (base, end)
            for starts, last in ((early, self.n_early), (late, len(exprs)))
            for base, end in zip(starts, starts[1:] + [last])
        ] or [(0, 0)]
        for kind in missing:
            params, stmt = _KERNEL_KINDS[kind]
            chunks = []
            for base, end in bounds:
                lines = [f"def kernel({params}):"]
                lines += [
                    "    " + stmt.format(node=node, expr=expr)
                    for node, expr in exprs[base:end]
                ] or ["    pass"]
                chunks.append(
                    compile(
                        "\n".join(lines), f"<{self.label}:{kind}:{base}>", "exec"
                    )
                )
            self._code[kind] = tuple(chunks)

    def kernel(self, kind: str, *, late: bool = False) -> Callable:
        """The ``kind`` kernel, generated and linked on first use; with
        ``late``, only the chunks of the ops after the first ``n_early``."""
        fn = self._fns.get((kind, late))
        if fn is None:
            self.generate(kind)
            codes = self._code[kind]
            if late:
                codes = codes[len(self._chunk_starts()[0]) :]
            fns = []
            for code in codes:
                ns: dict = {}
                exec(code, ns)  # noqa: S102 — code generated from our own lowering
                fns.append(ns["kernel"])
            fn = self._fns[(kind, late)] = _chained(fns)
        return fn

    def __getstate__(self) -> dict:
        return {
            "ops": self.ops,
            "label": self.label,
            "n_early": self.n_early,
            "magic": MAGIC_NUMBER,
            "code": {
                kind: [marshal.dumps(c) for c in codes]
                for kind, codes in self._code.items()
            },
        }

    def __setstate__(self, state: dict) -> None:
        self.ops = state["ops"]
        self.label = state["label"]
        self.n_early = state["n_early"]
        self._fns = {}
        self._starts = None
        self._code = (
            {
                kind: tuple(marshal.loads(b) for b in blobs)
                for kind, blobs in state["code"].items()
            }
            if state["magic"] == MAGIC_NUMBER
            else {}
        )


def _split_chunks(ops, first: int, end: int) -> "list[int]":
    """First op of every chunk of ``ops[first:end]``: each chunk takes ops
    while their code fits :data:`_LITERALS_PER_CHUNK`."""
    starts: list[int] = []
    held = 0
    for i in range(first, end):
        size = 1 + sum([max(1, mask.bit_count()) for mask, _pol in ops[i][2]])
        if not starts or held + size > _LITERALS_PER_CHUNK:
            starts.append(i)
            held = 0
        held += size
    return starts


def _chained(fns: list):
    """One callable running every chunk kernel in order."""
    if not fns:
        return _no_ops
    if len(fns) == 1:
        return fns[0]

    def run(*args, _chunks=tuple(fns)):
        for fn in _chunks:
            fn(*args)

    return run


def _no_ops(*_args) -> None:
    """The kernel of an empty op range."""


def _late_nodes(net: LogicNetwork, order: list, late_pis) -> "list[bool]":
    """Which nodes depend on ``late_pis``: their combinational fanout,
    closed through every latch whose driver it reaches (one topological
    pass per round of newly reached latches, so one pass when none is)."""
    late = [False] * net.n_nodes
    for pi in late_pis:
        late[pi] = True
    while True:
        for nid in order:
            if (
                not late[nid]
                and net.kind(nid) == NodeKind.GATE
                and any(late[f] for f in net.fanins(nid))
            ):
                late[nid] = True
        reached = [
            l.q
            for l in net.latches
            if l.driver >= 0 and late[l.driver] and not late[l.q]
        ]
        if not reached:
            return late
        for q in reached:
            late[q] = True


def compile_network(
    net: LogicNetwork, *, signature: str | None = None, late=()
) -> CompiledProgram:
    """Lower ``net`` into a :class:`CompiledProgram` (no caching here —
    use :func:`program_for` for the cached entry point).

    ``late`` names PIs whose values are expected to change while the
    others repeat (the lane engine passes the select parameters).  Every
    op in their fanout, closed through latches, is *late*; the early ops
    come first, both halves in topological order, so early ops read only
    early sources and a block pass can re-run the late half alone (see
    :meth:`CompiledSimulator.run_block`).
    """
    late_pis = set(late)
    if any(net.kind(pi) != NodeKind.PI for pi in late_pis):
        raise SimulationError("late sources must be primary inputs")
    order = net.topo_order()
    is_late = _late_nodes(net, order, late_pis)
    ops: "tuple[list, list]" = ([], [])
    const_nodes = []
    for nid in order:
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
        ops[is_late[nid]].append((nid, net.fanins(nid), cubes))
    early, late_ops = ops
    return CompiledProgram(
        signature=signature or network_signature(net),
        n_nodes=net.n_nodes,
        ops=tuple(early + late_ops),
        const_nodes=tuple(const_nodes),
        pi_nodes=tuple(net.pis),
        latch_qs=tuple(l.q for l in net.latches),
        latch_drivers=tuple(l.driver for l in net.latches),
        latch_inits=tuple(l.init for l in net.latches),
        po_nodes=tuple(
            net.require(name) for name in net.po_names
        ),
        late_sources=tuple(sorted(late_pis)),
        late_qs=tuple(l.q for l in net.latches if is_late[l.q]),
        n_early=len(early),
    )


# -- program cache -----------------------------------------------------------

_BY_KEY: "OrderedDict[tuple, CompiledProgram]" = OrderedDict()
_BY_KEY_LIMIT = 64


def program_for(net: LogicNetwork, *, late=()) -> CompiledProgram:
    """The compiled program for ``net``, split at the ``late`` PIs (see
    :func:`compile_network`), memoized in this process.

    Programs are memoized per structural signature and split, so
    regenerated identical networks — every ``to_lut_network()`` call —
    share one program and its generated kernels, and an in-place rewire
    (a new signature) recompiles.
    """
    key = (network_signature(net), tuple(sorted(set(late))))
    program = _BY_KEY.get(key)
    if program is None:
        program = compile_network(net, signature=key[0], late=key[1])
    _BY_KEY[key] = program
    _BY_KEY.move_to_end(key)
    while len(_BY_KEY) > _BY_KEY_LIMIT:
        _BY_KEY.popitem(last=False)
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


def block_rows(ints, n_cycles: int, n_lanes: int) -> "np.ndarray":
    """Block integers as word rows: ``ints[i]``'s cycle *c* (bits ``[c *
    L, (c+1) * L)``, ``L = n_lanes``) lands on columns ``[c * W, (c+1) *
    W)`` of row *i* of the returned ``(len(ints), n_cycles * W)``
    ``uint64`` array, ``W = ceil(L / 64)`` words.

    A block of at most 64 bits converts in one numpy shift; lane counts
    on whole bytes (every ``64 * W`` among them) move bytes, and other
    lane counts re-pack bits.  Values must lie within the block (below
    ``2 ** (n_cycles * L)``).
    """
    lanes, n, k = n_lanes, n_cycles, len(ints)
    nw = (lanes + 63) >> 6
    if n * lanes <= 64:
        cells = np.array(ints, dtype=np.uint64)[:, None]
        return (cells >> _cycle_shifts(n, lanes)) & np.uint64(_lanes(lanes))
    if n == 1 or lanes % 8 == 0:
        lb = 8 * nw if n == 1 else lanes // 8
        data = b"".join([x.to_bytes(n * lb, "little") for x in ints])
        cells = np.frombuffer(data, dtype=np.uint8).reshape(k, n, lb)
    else:  # cycles off byte boundaries: each cycle's lanes on own bytes
        lb = (lanes + 7) // 8
        nb = (n * lanes + 7) // 8
        data = b"".join([x.to_bytes(nb, "little") for x in ints])
        bits = np.zeros((k, n, 8 * lb), dtype=np.uint8)
        bits[:, :, :lanes] = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8).reshape(k, nb),
            axis=1, bitorder="little",
        )[:, : n * lanes].reshape(k, n, lanes)
        cells = np.packbits(bits, axis=2, bitorder="little")
    if lb < 8 * nw:
        wide = np.zeros((k, n, 8 * nw), dtype=np.uint8)
        wide[:, :, :lb] = cells
        cells = wide
    return np.ascontiguousarray(cells).view(np.uint64).reshape(k, n * nw)


def block_ints(rows: "np.ndarray", n_cycles: int, n_lanes: int) -> "list[int]":
    """Inverse of :func:`block_rows`: the first ``n_cycles`` cycles of
    each row of ``(k, >= n_cycles * W)`` ``uint64`` rows as one block
    integer.  Rows must carry no bits past lane ``n_lanes - 1`` of any
    cycle."""
    lanes, n, k = n_lanes, n_cycles, len(rows)
    nw = (lanes + 63) >> 6
    if n * lanes <= 64:
        return np.bitwise_or.reduce(
            rows[:, :n] << _cycle_shifts(n, lanes), axis=1
        ).tolist()
    cells = (
        np.ascontiguousarray(rows[:, : n * nw])
        .view(np.uint8)
        .reshape(k, n, 8 * nw)
    )
    if n == 1 or lanes % 8 == 0:
        lb = 8 * nw if n == 1 else lanes // 8
        nb = n * lb
        data = cells[:, :, :lb].tobytes()
    else:
        nb = (n * lanes + 7) // 8
        bits = np.unpackbits(cells, axis=2, bitorder="little")
        data = np.packbits(
            bits[:, :, :lanes].reshape(k, n * lanes), axis=1, bitorder="little"
        ).tobytes()
    return [
        int.from_bytes(data[i * nb : (i + 1) * nb], "little") for i in range(k)
    ]


def held_block_ints(
    rows: "np.ndarray", n_cycles: int, n_lanes: int
) -> "list[int]":
    """Per-cycle ``(k, W)`` word rows held for ``n_cycles`` cycles, as
    block integers (each row's lanes repeated in every cycle)."""
    rep = _lanes(n_cycles * n_lanes) // _lanes(n_lanes)
    if n_cycles * n_lanes <= 64:
        return (rows[:, 0] * np.uint64(rep)).tolist()
    return [v * rep for v in block_ints(rows, 1, n_lanes)]


def _lanes(n: int) -> int:
    """The mask of ``n`` lanes."""
    return (1 << n) - 1


def _cycle_shifts(n_cycles: int, n_lanes: int) -> "np.ndarray":
    return np.arange(0, n_cycles * n_lanes, n_lanes, dtype=np.uint64)


def _runs(nodes, at: int) -> "list[tuple[int, int, int]]":
    """``nodes`` as maximal runs of consecutive ids: ``(first, end, i)``
    with ``i`` the run's position in a word list starting at ``at``."""
    runs: list[list[int]] = []
    for i, x in enumerate(nodes, at):
        if runs and runs[-1][1] == x:
            runs[-1][1] += 1
        else:
            runs.append([x, x + 1, i])
    return [tuple(run) for run in runs]


class CompiledSimulator:
    """Executes a :class:`CompiledProgram` over ``n_lanes`` SIMD lanes,
    one evaluation pass of one or more cycles at a time.

    The generated big-int kernels are the one kernel implementation, and
    one pass runs them: :meth:`run_block` evaluates up to
    :attr:`block_cycles` cycles, and :meth:`step` is a one-cycle pass.
    All state lives in preallocated containers: one node-value list (a
    ``C * n_lanes``-bit integer per node after a ``C``-cycle pass), the
    latch-state list and one forced/not-mask override table, neutral at
    every pass width.  A pass writes the PI and latch-output slots, runs
    the generated kernel and captures the next latch state.

    :attr:`values`, :meth:`value` and :meth:`node_ints` serve the last
    consumed cycle and :meth:`block_export` every evaluated cycle.
    Sequential programs batch by checked prediction: the simulator
    records the latch state at the start of every cycle since reset,
    keeps that record across resets, and feeds a block's later cycles the
    recorded states (see :meth:`run_block`).

    ``n_lanes`` (default: one 64-lane word) fixes the value width;
    ``n_words`` is derived from it and sizes every ``uint64`` row view.
    ``64 * n_words`` lanes give the historical word-packed layout bit for
    bit.  It is the package's one simulator API: the lane engine, golden
    passes (:func:`repro.workloads.scenarios.packed_signal_traces`) and
    the bitstream emulator (:class:`repro.emu.FpgaEmulator`) all run it
    on lane-packed integers.
    """

    #: The kernel backend, as reports name it (see :func:`resolve_backend`).
    backend = "python"

    def __init__(self, program: CompiledProgram, n_lanes: int = 64) -> None:
        if n_lanes < 1:
            raise SimulationError("n_lanes must be at least 1")
        self.program = program
        self.n_lanes = lanes = int(n_lanes)
        self.n_words = (lanes + 63) >> 6
        self.full_mask = (1 << lanes) - 1
        self.cycle = 0
        n = program.n_nodes
        n_latches = len(program.latch_qs)
        self.latch_state: list[int] = [0] * n_latches
        # each word's lanes, and PI writes as runs of consecutive node ids
        self._word_lanes = int_to_words(self.full_mask, self.n_words)
        order = program.pi_order
        n_early = program.n_early_pis
        self._early_runs = _runs(order[:n_early], 0)
        self._late_runs = _runs(order[n_early:], n_early)
        at = {x: i for i, x in enumerate(program.pi_nodes)}
        self._stim_rows = np.array([at[x] for x in order], dtype=np.intp)
        self._block_cycles = max(
            1, min(MAX_BLOCK_CYCLES, BLOCK_TARGET_WORDS // self.n_words)
        )
        # the last pass: cycles evaluated and consumed, its latch-driver
        # rows, and the slot per-cycle reads see
        self._blk_len = 0
        self._last_block = 0
        self._blk_drivers: "np.ndarray | None" = None
        self._slot = 0
        # the early inputs of the last full pass of a split program and
        # what that pass left: (consumed, latch state, driver rows)
        self._key: "tuple | None" = None
        self._after: "tuple | None" = None
        # latch state at the start of every cycle since reset: entries up
        # to the current cycle are true, later ones predictions; the
        # version changes with every write that may change an entry
        self._rec: "np.ndarray | None" = None
        self._rec_len = 0
        self._rec_version = 0
        self._rec_cap = (
            RECORD_MAX_WORDS // (n_latches * self.n_words) if n_latches else 0
        )
        # node values, C cycles wide after a C-cycle pass, and the width
        # their constants are folded at
        self._bv: list[int] = [0] * n
        self._blk_mask = 0
        self._dirty_consts: list[int] = []
        # gate-override tables, neutral at every width: f = 0, nm = -1
        # (every bit set, so expr & nm == expr)
        self._forced: list[int] = [0] * n
        self._notmask: list[int] = [-1] * n
        self._armed: list[int] = []
        self._clean_kernel = program.code.kernel("clean")
        self._latch_inits = [
            self.full_mask if init == 1 else 0 for init in program.latch_inits
        ]
        self._blk_begin(self.full_mask)  # reads before a pass see constants
        self.reset()

    # -- state ---------------------------------------------------------------

    def reset(self) -> None:
        """Reload latch initial values (the latch record is kept: it
        predicts the next run from this reset).  The node values stay as
        the last pass left them: a repeated pass of a split program
        reuses them."""
        self.cycle = 0
        self._last_block = 0
        self.latch_state[:] = self._latch_inits
        if self._rec_cap and self._rec is None:
            self._rec = np.zeros(
                (self._rec_cap, len(self.latch_state), self.n_words),
                dtype=np.uint64,
            )
            self._rec[0] = self._state_rows()
            self._rec_len = 1

    @property
    def values(self) -> "list[int]":
        """Every node's lane-packed value on the current cycle, as a
        fresh read-only list."""
        sh = self.n_lanes * self._slot
        full = self.full_mask
        return [(x >> sh) & full for x in self._bv]

    def value(self, node: int) -> int:
        """Node's current lane-packed value (all lanes, one integer)."""
        return self.node_ints((node,))[0]

    def node_ints(self, nodes) -> "list[int]":
        """Lane-packed integer values for a list of node ids, without
        materializing the full state."""
        bv = self._bv
        sh = self.n_lanes * self._slot
        full = self.full_mask
        return [(bv[n] >> sh) & full for n in nodes]

    # -- evaluation ----------------------------------------------------------

    def _eval(self, full: int, overrides, late: bool = False) -> None:
        """Run one combinational settle of the node values, ``full``
        wide (with ``late``, only the program's late ops).

        ``overrides`` maps node → ``(forced, mask)`` word-packed integer
        pairs: source and folded-constant overrides blend into the values
        before the kernel runs (overridden constants are noted for the
        next pass to refold); gate overrides blend through the forced
        kernel's per-node tables the moment the gate is evaluated, so its
        fanouts see the forced value (the forced kernel is linked on the
        first armed gate override).
        """
        v = self._bv
        if not overrides:
            if late:
                self.program.code.kernel("clean", late=True)(v, full)
            else:
                self._clean_kernel(v, full)
            return
        is_op = self.program.is_op
        const_value = self.program.const_value
        armed = self._armed
        f, nm = self._forced, self._notmask
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
            self.program.code.kernel("forced", late=late)(v, full, f, nm)
            for node in armed:
                f[node] = 0
                nm[node] = -1
            armed.clear()
        else:
            self.program.code.kernel("clean", late=late)(v, full)

    # -- latch-state rows ----------------------------------------------------

    def _state_rows(self) -> "np.ndarray":
        """The current latch state as an ``(n_latches, n_words)`` array."""
        return block_rows(self.latch_state, 1, self.n_lanes)

    def _set_state_rows(self, rows: "np.ndarray") -> None:
        self.latch_state[:] = block_ints(rows, 1, self.n_lanes)

    # -- passes --------------------------------------------------------------

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
        cycle plus the recorded states ahead of it)."""
        span = min(n_cycles, self._block_cycles)
        if self.program.latch_qs:
            span = min(span, self._rec_len - self.cycle)
        return max(1, span)

    def step(
        self,
        pi_values: "Mapping[int, int]",
        *,
        overrides: "Mapping[int, tuple[int, int]] | None" = None,
    ) -> None:
        """Advance one clock cycle: a one-cycle :meth:`run_block` pass
        over ``pi_values``, a mapping of every PI node to its lane-packed
        integer, with per-cycle ``(forced, mask)`` overrides."""
        self._run_block(1, pi_values, None, overrides)

    def run_block(
        self,
        pi_words: "Mapping[int, int] | Sequence[int]",
        n_cycles: int,
        overrides: "Mapping[int, tuple[int, int]] | None" = None,
    ) -> int:
        """Evaluate up to ``n_cycles`` cycles in one pass; return how many
        were consumed (at least one).

        Cycle *c* of the block occupies bits ``[c * L, (c+1) * L)`` of
        every value (``L = n_lanes``).  ``pi_words`` maps each PI node to
        its block-wide integer, or lists them in ``program.pi_order``
        (early PIs, then late), each already below ``2 ** (C * L)`` for
        the ``C = block_span(n_cycles)`` cycles the pass evaluates — how
        the lane engine hands them over.  ``overrides`` maps nodes to
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
        evaluated one per pass; a one-cycle pass records the state it
        reached the same way.

        After the call, per-cycle reads (:attr:`values`, :meth:`value`,
        :meth:`node_ints`) see the last consumed cycle and
        :meth:`block_export` serves every evaluated cycle's values.

        A program split at late PIs (:func:`compile_network`) whose late
        cone reaches no latch keeps the early inputs of its last full
        pass — start cycle, span, latch state, latch-record version,
        early PI words and overrides.  A pass with equal early inputs
        writes only the late PI words, runs only the late ops and takes
        the last pass's consumed count, latch state and driver rows: the
        early ops read only early sources, so they would recompute what
        the node values still hold.  Every pass, a one-cycle pass
        included, keeps or clears those inputs before it writes a value.
        """
        return self._run_block(n_cycles, pi_words, None, overrides)

    def run_block_array(self, stim: "np.ndarray") -> int:
        """:meth:`run_block` from a dense stimulus matrix, clean cycles.

        ``stim`` is a ``(n_pis, C * n_words)`` uint64 array, rows aligned
        to ``program.pi_nodes`` order, cycle ``c`` of the batch on word
        columns ``[c * n_words, (c+1) * n_words)`` (bits past lane
        ``n_lanes - 1`` are ignored).  Callers that already hold
        word-packed arrays (trace replays, generated stimulus matrices,
        the kernel benchmark) pass them as they are; semantics are
        identical to an override-free :meth:`run_block`.
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
        mask = (1 << (self.n_lanes * n)) - 1
        if stim is not None:
            words = block_ints(
                stim[self._stim_rows, : n * self.n_words]
                & np.tile(self._word_lanes, n),
                n,
                self.n_lanes,
            )
        elif isinstance(pi_words, Mapping):
            words = self._pi_ints(pi_words, mask)
        elif len(pi_words) != len(program.pi_order):
            raise SimulationError(
                f"run_block got {len(pi_words)} PI words for "
                f"{len(program.pi_order)} PIs"
            )
        else:
            words = pi_words
        early = words[: program.n_early_pis]
        overrides = dict(overrides) if overrides else None
        key = None
        if program.reusable:
            key = (
                self.cycle, n, self._rec_version, self.latch_state, early,
                overrides,
            )
            if key == self._key:
                return self._rerun_late(words, n, mask, overrides)
            # keep a copy of the start state: the latch state moves on
            key = (*key[:3], list(self.latch_state), *key[4:])
            self._key = None  # the block state is about to change
        self._blk_begin(mask)
        self._write(self._early_runs, words)
        self._write(self._late_runs, words)
        pred = self._predict(n) if program.latch_qs else None
        if pred is not None:
            self._blk_write(program.latch_qs, pred, n)
        self._eval(mask, overrides)
        consumed = n
        if pred is not None:
            drivers = self._blk_rows(program.latch_drivers, n)
            consumed = self._check(pred, drivers, n)
        if key is not None:
            self._key = key
            self._after = (consumed, list(self.latch_state), self._blk_drivers)
        return self._finish_block(n, consumed)

    def _rerun_late(self, words, n: int, mask: int, overrides) -> int:
        """The pass the last one was, but for the late PI words: the
        early values it left in the node values are what this pass would
        compute, so only the late ops run, and its consumed cycles, latch
        state and driver rows are the last pass's."""
        self._write(self._late_runs, words)
        if overrides:
            is_late = self.program.is_late
            overrides = {x: ov for x, ov in overrides.items() if is_late[x]}
        self._eval(mask, overrides, late=True)
        consumed, state, self._blk_drivers = self._after
        self.latch_state[:] = state
        return self._finish_block(n, consumed)

    def _finish_block(self, n: int, consumed: int) -> int:
        self._blk_len = n
        self._last_block = consumed
        self._slot = consumed - 1
        self.cycle += consumed
        return consumed

    def _pi_ints(self, pi_words, mask: int) -> "list[int]":
        """A PI mapping's block-wide integers in ``program.pi_order``."""
        try:
            return [pi_words[x] & mask for x in self.program.pi_order]
        except KeyError:
            missing = next(
                x for x in self.program.pi_nodes if x not in pi_words
            )
            raise SimulationError(
                f"cycle {self.cycle}: no value for PI node {missing}"
            ) from None

    def _write(self, runs, words) -> None:
        """Land PI words (in ``program.pi_order``) on the block values,
        one slice per run of consecutive PI ids."""
        bv = self._bv
        for first, end, i in runs:
            bv[first:end] = words[i : i + end - first]

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
                self._rec_version += 1
        self._blk_drivers = got
        self._set_state_rows(got[:, consumed - 1])
        return consumed

    # -- block state -----------------------------------------------------------

    def _blk_begin(self, mask: int) -> None:
        """Ready the node values for ``mask``-wide evaluation: constants
        folded at ``mask`` (only the overridden ones when the width
        repeats)."""
        bv = self._bv
        if mask != self._blk_mask:
            for node, const in self.program.const_nodes:
                bv[node] = mask if const else 0
            self._blk_mask = mask
        else:
            cv = self.program.const_value
            for node in self._dirty_consts:
                bv[node] = mask if cv[node] else 0
        self._dirty_consts.clear()

    def _blk_write(self, nodes, rows: "np.ndarray", n: int) -> None:
        """Land ``(len(nodes), >= n * n_words)`` source rows on the block
        values."""
        bv = self._bv
        for x, value in zip(nodes, block_ints(rows, n, self.n_lanes)):
            bv[x] = value

    def _blk_rows(self, nodes, n: int) -> "np.ndarray":
        """``nodes``' values over the first ``n`` cycles of the block."""
        bv = self._bv
        return block_rows([bv[x] for x in nodes], n, self.n_lanes)

    def rewind_block(self, n_consumed: int) -> None:
        """Declare that only the first ``n_consumed`` cycles of the last
        pass were used (an early-stop predicate fired mid-block): the
        cycle counter and latch state rewind past the overshoot and
        per-cycle reads see cycle ``n_consumed - 1`` — exactly the state
        a cycle-by-cycle run stopping there would leave.  After a
        one-cycle pass, ``rewind_block(1)`` changes nothing."""
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
        """Gather the last pass's rows for ``nodes`` into preallocated
        ``out``: its ``C`` evaluated cycles land on the first ``C *
        n_words`` columns of ``(len(nodes), >= C * n_words)`` ``out``.  A
        ``(len(nodes), block_cycles * n_words)`` buffer holds any pass
        (reshape it to ``(len(nodes), block_cycles, n_words)`` for
        per-cycle views), and a view of a longer array at the pass's
        first cycle exports in place.  Only the consumed cycles are
        meaningful: a pass may evaluate more cycles than it consumes, and
        the next pass, exported at its own first cycle, overwrites
        them."""
        if not self._blk_len:
            raise SimulationError("block_export before any pass")
        out[:, : self._blk_len * self.n_words] = self._blk_rows(
            nodes, self._blk_len
        )
