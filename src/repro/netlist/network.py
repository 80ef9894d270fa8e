"""The central gate-level network data structure.

A :class:`LogicNetwork` is a named DAG of logic nodes:

* **PI** nodes — primary inputs;
* **LATCH** nodes — outputs of sequential elements (treated as combinational
  sources; their drivers are recorded in :attr:`LogicNetwork.latches`);
* **GATE** nodes — combinational functions (:class:`TruthTable`) of a fan-in
  tuple.  A gate with an empty fan-in is a constant.

Signals are identified with the node that drives them, exactly as in BLIF
where every signal name appears once as a ``.names``/``.latch`` output.
Primary outputs are signal names designated in :attr:`po_names`.

The structure is append-mostly: transforms build rewires in place
(:meth:`rewire`, :meth:`replace_uses`) and then call :meth:`compact` to drop
dead nodes, which keeps ids dense for the array-heavy downstream stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Sequence

from repro.errors import NetlistError
from repro.netlist.truthtable import TruthTable

__all__ = ["NodeKind", "Latch", "LogicNetwork"]


class NodeKind(IntEnum):
    """Discriminates the three node flavours."""

    PI = 0
    LATCH = 1
    GATE = 2


@dataclass
class Latch:
    """A D-type sequential element.

    Attributes
    ----------
    driver:
        Node id of the D input (``-1`` until connected — BLIF allows
        forward references).
    q:
        Node id of the LATCH output node.
    init:
        Initial state: 0, 1, or 2 for "don't care" (simulated as 0).
    """

    driver: int
    q: int
    init: int = 0


class LogicNetwork:
    """A combinational/sequential gate-level netlist.

    Examples
    --------
    >>> net = LogicNetwork("toy")
    >>> a = net.add_pi("a")
    >>> b = net.add_pi("b")
    >>> f = net.add_gate("f", (a, b), TruthTable.var(0, 2) & TruthTable.var(1, 2))
    >>> net.add_po("f")
    >>> net.n_gates, net.n_pis, len(net.po_names)
    (1, 2, 1)
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self._kinds: list[NodeKind] = []
        self._names: list[str] = []
        self._fanins: list[tuple[int, ...]] = []
        self._funcs: list[TruthTable | None] = []
        self._name2node: dict[str, int] = {}
        self.pis: list[int] = []
        self.latches: list[Latch] = []
        self.po_names: list[str] = []

    # -- construction ------------------------------------------------------

    def _add_node(
        self,
        kind: NodeKind,
        name: str,
        fanins: tuple[int, ...],
        func: TruthTable | None,
    ) -> int:
        if name in self._name2node:
            raise NetlistError(f"duplicate signal name {name!r}")
        nid = len(self._kinds)
        self._kinds.append(kind)
        self._names.append(name)
        self._fanins.append(fanins)
        self._funcs.append(func)
        self._name2node[name] = nid
        return nid

    def add_pi(self, name: str) -> int:
        """Add a primary input and return its node id."""
        nid = self._add_node(NodeKind.PI, name, (), None)
        self.pis.append(nid)
        return nid

    def add_gate(
        self, name: str, fanins: Sequence[int], func: TruthTable
    ) -> int:
        """Add a combinational gate.

        ``func`` must have exactly ``len(fanins)`` variables; variable ``i``
        corresponds to ``fanins[i]``.
        """
        fanins = tuple(int(f) for f in fanins)
        if func.n_vars != len(fanins):
            raise NetlistError(
                f"gate {name!r}: function has {func.n_vars} vars "
                f"but {len(fanins)} fanins given"
            )
        for f in fanins:
            if not 0 <= f < len(self._kinds):
                raise NetlistError(f"gate {name!r}: fanin id {f} undefined")
        return self._add_node(NodeKind.GATE, name, fanins, func)

    def add_const(self, name: str, value: int) -> int:
        """Add a constant-0/1 gate."""
        return self.add_gate(name, (), TruthTable.const(value, 0))

    def add_latch(self, q_name: str, driver: int = -1, init: int = 0) -> int:
        """Add a latch; returns the id of its Q output node.

        The driver may be connected later with :meth:`set_latch_driver`.
        """
        if init not in (0, 1, 2, 3):
            raise NetlistError(f"latch {q_name!r}: bad init value {init}")
        q = self._add_node(NodeKind.LATCH, q_name, (), None)
        self.latches.append(Latch(driver=driver, q=q, init=init))
        return q

    def set_latch_driver(self, q: int, driver: int) -> None:
        for latch in self.latches:
            if latch.q == q:
                latch.driver = driver
                return
        raise NetlistError(f"node {q} is not a latch output")

    def add_po(self, name: str) -> None:
        """Designate signal ``name`` as a primary output."""
        self.po_names.append(name)

    # -- accessors -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._kinds)

    @property
    def n_pis(self) -> int:
        return len(self.pis)

    @property
    def n_latches(self) -> int:
        return len(self.latches)

    @property
    def n_gates(self) -> int:
        return sum(1 for k in self._kinds if k == NodeKind.GATE)

    def kind(self, nid: int) -> NodeKind:
        return self._kinds[nid]

    def node_name(self, nid: int) -> str:
        return self._names[nid]

    def fanins(self, nid: int) -> tuple[int, ...]:
        return self._fanins[nid]

    def func(self, nid: int) -> TruthTable | None:
        return self._funcs[nid]

    def find(self, name: str) -> int | None:
        """Node id for a signal name, or None."""
        return self._name2node.get(name)

    def require(self, name: str) -> int:
        nid = self._name2node.get(name)
        if nid is None:
            raise NetlistError(f"unknown signal {name!r}")
        return nid

    def nodes(self) -> range:
        return range(len(self._kinds))

    def gates(self) -> Iterator[int]:
        """Iterate over gate node ids in creation order."""
        for nid, k in enumerate(self._kinds):
            if k == NodeKind.GATE:
                yield nid

    def sources(self) -> list[int]:
        """Combinational sources: PIs followed by latch outputs."""
        return list(self.pis) + [latch.q for latch in self.latches]

    def po_nodes(self) -> list[int]:
        """Node ids driving each primary output (same order as po_names)."""
        return [self.require(n) for n in self.po_names]

    def latch_of(self, q: int) -> Latch:
        for latch in self.latches:
            if latch.q == q:
                return latch
        raise NetlistError(f"node {q} is not a latch output")

    # -- graph queries -------------------------------------------------------

    def fanouts(self) -> list[list[int]]:
        """Adjacency: for each node, the gate ids reading it (combinational)."""
        outs: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for nid, k in enumerate(self._kinds):
            if k == NodeKind.GATE:
                for f in self._fanins[nid]:
                    outs[f].append(nid)
        return outs

    def fanout_counts(self) -> list[int]:
        """Combinational + sequential + PO reader counts per node."""
        counts = [0] * self.n_nodes
        for nid, k in enumerate(self._kinds):
            if k == NodeKind.GATE:
                for f in self._fanins[nid]:
                    counts[f] += 1
        for latch in self.latches:
            if latch.driver >= 0:
                counts[latch.driver] += 1
        for name in self.po_names:
            counts[self.require(name)] += 1
        return counts

    def topo_order(self) -> list[int]:
        """All nodes in combinational topological order (sources first).

        Raises :class:`NetlistError` on a combinational cycle.
        """
        n = self.n_nodes
        indeg = [0] * n
        for nid, k in enumerate(self._kinds):
            if k == NodeKind.GATE:
                indeg[nid] = len(self._fanins[nid])
        order: list[int] = [nid for nid in range(n) if indeg[nid] == 0]
        outs = self.fanouts()
        head = 0
        while head < len(order):
            nid = order[head]
            head += 1
            for reader in outs[nid]:
                indeg[reader] -= 1
                if indeg[reader] == 0:
                    order.append(reader)
        if len(order) != n:
            cyclic = [self._names[i] for i in range(n) if indeg[i] > 0][:5]
            raise NetlistError(f"combinational cycle involving {cyclic}")
        return order

    def transitive_fanin(self, roots: Iterable[int]) -> set[int]:
        """All nodes in the combinational cone feeding ``roots`` (inclusive)."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self._fanins[nid])
        return seen

    # -- mutation (used by transforms) ----------------------------------------

    def rewire(self, nid: int, fanins: Sequence[int], func: TruthTable) -> None:
        """Replace a gate's fan-in list and function in place."""
        if self._kinds[nid] != NodeKind.GATE:
            raise NetlistError(f"cannot rewire non-gate node {self._names[nid]!r}")
        fanins = tuple(int(f) for f in fanins)
        if func.n_vars != len(fanins):
            raise NetlistError("rewire arity mismatch")
        self._fanins[nid] = fanins
        self._funcs[nid] = func

    def replace_uses(self, old: int, new: int) -> None:
        """Redirect every reader of ``old`` (gates, latches, POs) to ``new``."""
        if old == new:
            return
        for nid, k in enumerate(self._kinds):
            if k == NodeKind.GATE and old in self._fanins[nid]:
                self._fanins[nid] = tuple(
                    new if f == old else f for f in self._fanins[nid]
                )
        for latch in self.latches:
            if latch.driver == old:
                latch.driver = new
        old_name = self._names[old]
        new_name = self._names[new]
        self.po_names = [new_name if p == old_name else p for p in self.po_names]

    def compact(self, keep: Iterable[int] | None = None) -> "LogicNetwork":
        """Rebuild the network keeping only live nodes.

        A node is live if it is a PI, a PO driver, a latch or latch driver,
        in the transitive fan-in of any of those, or listed in ``keep``.
        Returns a *new* network (ids change); PIs are all retained to keep
        interfaces stable.
        """
        roots: list[int] = [self.require(n) for n in self.po_names]
        for latch in self.latches:
            if latch.driver >= 0:
                roots.append(latch.driver)
            roots.append(latch.q)
        if keep is not None:
            roots.extend(keep)
        live = self.transitive_fanin(roots)
        live.update(self.pis)

        out = LogicNetwork(self.name)
        remap: dict[int, int] = {}
        for nid in self.topo_order():
            if nid not in live:
                continue
            kind = self._kinds[nid]
            if kind == NodeKind.PI:
                remap[nid] = out.add_pi(self._names[nid])
            elif kind == NodeKind.LATCH:
                latch = self.latch_of(nid)
                remap[nid] = out.add_latch(self._names[nid], init=latch.init)
            else:
                fanins = tuple(remap[f] for f in self._fanins[nid])
                func = self._funcs[nid]
                assert func is not None
                remap[nid] = out.add_gate(self._names[nid], fanins, func)
        for latch in self.latches:
            if latch.driver >= 0:
                out.set_latch_driver(remap[latch.q], remap[latch.driver])
        for name in self.po_names:
            out.add_po(name)
        return out

    def copy(self) -> "LogicNetwork":
        """Deep copy (new id space identical to the old one)."""
        out = LogicNetwork(self.name)
        out._kinds = list(self._kinds)
        out._names = list(self._names)
        out._fanins = list(self._fanins)
        out._funcs = list(self._funcs)
        out._name2node = dict(self._name2node)
        out.pis = list(self.pis)
        out.latches = [Latch(l.driver, l.q, l.init) for l in self.latches]
        out.po_names = list(self.po_names)
        return out

    def fresh_name(self, stem: str) -> str:
        """A signal name not yet used, derived from ``stem``."""
        if stem not in self._name2node:
            return stem
        i = 0
        while f"{stem}_{i}" in self._name2node:
            i += 1
        return f"{stem}_{i}"

    def __repr__(self) -> str:
        return (
            f"LogicNetwork({self.name!r}, pis={self.n_pis}, "
            f"gates={self.n_gates}, latches={self.n_latches}, "
            f"pos={len(self.po_names)})"
        )
