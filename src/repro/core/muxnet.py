"""Signal parameterisation: the reconfigurable multiplexer network.

This is the paper's added CAD step (§IV-A.2, Fig. 5/6): starting from the
synthesized netlist, every observable signal is connected through a network
of 2:1 multiplexers to a small number of trace-buffer inputs.  The mux
select inputs are fresh primary inputs annotated as *parameters*: in the
proposed flow they fold into the configuration (TCON/TLUT), in the
conventional baseline they are ordinary inputs and the muxes cost LUTs.

Layout: the taps are split round-robin over ``n_buffer_inputs`` groups; each
group gets a balanced binary tree of 2:1 muxes, one select parameter per
mux.  Observing signal *s* at its group's buffer input means asserting the
select literals along *s*'s leaf-to-root path (don't-care elsewhere) — the
condition the SCG evaluates.

The conventional baseline can additionally instantiate ILA-style trigger
units per buffer input (``with_triggers=True``): pattern-match comparators
plus an arming flop, built from ordinary gates.  Vendor debug cores ship as
pre-synthesized macros, so all instrumentation nodes are reported in
:attr:`InstrumentedDesign.macro_nodes` for the mapper's boundary set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import DebugFlowError
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.truthtable import TruthTable
from repro.core.annotate import ParAnnotation
from repro.core.parameters import ParameterSpace

__all__ = [
    "PickTable",
    "TapSelect",
    "TraceGroup",
    "InstrumentedDesign",
    "build_trace_network",
    "default_taps",
]

#: mux function over fan-in order (a, b, sel): sel=0 → a, sel=1 → b
_MUX_TT = TruthTable.mux(
    TruthTable.var(2, 3), TruthTable.var(0, 3), TruthTable.var(1, 3)
)
_XNOR2 = ~(TruthTable.var(0, 2) ^ TruthTable.var(1, 2))
_OR2 = TruthTable.var(0, 2) | TruthTable.var(1, 2)
_AND2 = TruthTable.var(0, 2) & TruthTable.var(1, 2)


@dataclass
class TraceGroup:
    """One trace-buffer input and its mux tree."""

    index: int
    po_name: str
    root: int
    leaves: list[int]
    mux_nodes: list[int] = field(default_factory=list)
    #: per tapped node: select literals (param name, required value) on the
    #: path from that leaf to the tree root.
    path: dict[int, list[tuple[str, int]]] = field(default_factory=dict)


class TapSelect(NamedTuple):
    """One row of :attr:`InstrumentedDesign.select_table`: what observing
    one tapped signal asserts."""

    group: int  # index of the tap's trace group
    selects: tuple  # parameter indices on the tap's leaf-to-root path
    bits: tuple  # the value each of those selects takes
    observed: str  # the signal the group's buffer input then sees


class PickTable(NamedTuple):
    """:attr:`InstrumentedDesign.pick_table`: the :attr:`~InstrumentedDesign.
    select_table` as arrays with one row per tapped signal, so the lane
    engine's ``observe`` combines its picks in a few array operations."""

    row: dict  # signal name → its row
    group: np.ndarray  # the tap's trace group
    name: np.ndarray  # the tap's name (objects): what its group then sees
    ones: np.ndarray  # the selects its path sets to 1, padded with n_params


@dataclass
class InstrumentedDesign:
    """The instrumented netlist plus all debug metadata."""

    network: LogicNetwork
    taps: list[int]
    param_space: ParameterSpace
    param_nodes: dict[str, int]
    groups: list[TraceGroup]
    trigger_nodes: list[int] = field(default_factory=list)
    trigger_inputs: list[str] = field(default_factory=list)

    @property
    def param_ids(self) -> frozenset[int]:
        return frozenset(self.param_nodes.values())

    @property
    def mux_nodes(self) -> list[int]:
        return [m for g in self.groups for m in g.mux_nodes]

    @property
    def macro_nodes(self) -> frozenset[int]:
        """All instrumentation nodes (mux network + triggers)."""
        return frozenset(self.mux_nodes) | frozenset(self.trigger_nodes)

    @property
    def n_buffer_inputs(self) -> int:
        return len(self.groups)

    def group_of(self, tap: int) -> TraceGroup:
        group = self._group_lookup.get(tap)
        if group is None:
            raise DebugFlowError(
                f"signal {self.network.node_name(tap)!r} is not tapped"
            )
        return group

    @property
    def _group_lookup(self) -> dict[int, TraceGroup]:
        """Tapped node → its trace group (the first group tapping it)."""
        cache = getattr(self, "_group_lookup_cache", None)
        if cache is None:
            cache = {}
            for g in self.groups:
                for tap in g.path:
                    cache.setdefault(tap, g)
            object.__setattr__(self, "_group_lookup_cache", cache)
        return cache

    @property
    def select_table(self) -> dict[str, TapSelect]:
        """Tapped signal name → its :class:`TapSelect` row, built once per
        design: the one select-resolution table :meth:`picks` (and so
        :meth:`selection_for` and the lane engine's ``observe``) reads."""
        cache = getattr(self, "_select_table_cache", None)
        if cache is None:
            index = {name: i for i, name in enumerate(self.param_space.names)}
            net = self.network
            cache = {}
            for tap, group in self._group_lookup.items():
                path = group.path[tap]
                name = net.node_name(tap)
                cache[name] = TapSelect(
                    group=group.index,
                    selects=tuple(index[p] for p, _bit in path),
                    bits=tuple(bit for _p, bit in path),
                    observed=name,
                )
            object.__setattr__(self, "_select_table_cache", cache)
        return cache

    @property
    def pick_table(self) -> PickTable:
        """The :attr:`select_table` as a :class:`PickTable`, built once
        per design.  Picks in distinct groups set distinct selects, so
        one scatter of their ``ones`` rows into zeros fills an assignment
        vector of ``n_params + 1`` entries (the padding lands on the
        last); errors are :meth:`picks`'s to report."""
        cache = getattr(self, "_pick_table_cache", None)
        if cache is None:
            table = self.select_table
            ones = [
                [i for i, bit in zip(r.selects, r.bits) if bit]
                for r in table.values()
            ]
            cache = PickTable(
                row={name: i for i, name in enumerate(table)},
                group=np.array([r.group for r in table.values()], np.intp),
                name=np.array([r.observed for r in table.values()], object),
                ones=np.full(
                    (len(table), max(map(len, ones), default=0)),
                    len(self.param_space),
                    np.intp,
                ),
            )
            for i, row in enumerate(ones):
                cache.ones[i, : len(row)] = row
            object.__setattr__(self, "_pick_table_cache", cache)
        return cache

    def picks(self, signals: list[str]) -> list[TapSelect]:
        """The :attr:`select_table` rows observing ``signals`` at once, in
        request order.

        Each trace-buffer input can observe one signal at a time, so at
        most one requested signal may live in any group.  Every mux has
        its own select parameter, so picks in distinct groups never
        constrain the same select.
        """
        table = self.select_table
        rows = []
        used: set[int] = set()
        for name in signals:
            row = table.get(name)
            if row is None:
                if self.network.find(name) is None:
                    raise DebugFlowError(f"unknown signal {name!r}")
                raise DebugFlowError(f"signal {name!r} is not tapped")
            if row.group in used:
                raise DebugFlowError(
                    f"signals {signals!r} collide in trace group "
                    f"{row.group} (one signal per buffer input)"
                )
            used.add(row.group)
            rows.append(row)
        return rows

    def selection_for(self, signals: list[str]) -> dict[str, int]:
        """Parameter values observing the named signals simultaneously
        (see :meth:`picks`); selects no pick constrains are left out (an
        assignment reads them as 0)."""
        names = self.param_space.names
        return {
            names[i]: bit
            for row in self.picks(signals)
            for i, bit in zip(row.selects, row.bits)
        }

    def observed_at(self, values: dict[str, int]) -> dict[str, str]:
        """Inverse of :meth:`selection_for`: buffer PO → observed signal.

        Given (possibly partial) select values, resolve which tapped signal
        each trace-buffer input actually sees; missing selects default 0.
        """
        out: dict[str, str] = {}
        net = self.network
        muxes = self._mux_lookup
        for g in self.groups:
            node = g.root
            # walk the tree downward following select values
            while node in muxes:
                a, b, sel_name = muxes[node]
                bit = values.get(sel_name, 0)
                node = b if bit else a
            out[g.po_name] = net.node_name(node)
        return out

    @property
    def _mux_lookup(self) -> dict[int, tuple[int, int, str]]:
        cache = getattr(self, "_mux_lookup_cache", None)
        if cache is None:
            cache = {}
            net = self.network
            for g in self.groups:
                for m in g.mux_nodes:
                    fanins = net.fanins(m)
                    if len(fanins) != 3:
                        continue  # the tb_* interface buffer, not a mux
                    a, b, sel = fanins
                    cache[m] = (a, b, net.node_name(sel))
            object.__setattr__(self, "_mux_lookup_cache", cache)
        return cache

    def annotation(self) -> ParAnnotation:
        """Produce the ``.par`` view of this instrumentation."""
        return ParAnnotation(
            param_names=list(self.param_space.names),
            tap_names=[self.network.node_name(t) for t in self.taps],
            buffer_names=[g.po_name for g in self.groups],
        )


def default_taps(net: LogicNetwork) -> list[int]:
    """The default observable set: every gate output and latch output."""
    taps = [nid for nid in net.gates()]
    taps += [latch.q for latch in net.latches]
    return taps


def build_trace_network(
    net: LogicNetwork,
    taps: list[int] | None = None,
    *,
    n_buffer_inputs: int | None = None,
    with_triggers: bool = False,
    trigger_pattern_width: int = 3,
    param_prefix: str = "dbg_sel",
) -> InstrumentedDesign:
    """Instrument a copy of ``net`` with the trace mux network.

    Parameters
    ----------
    taps:
        Node ids (of ``net``) to make observable; defaults to every gate
        and latch output (the paper: "all signals are multiplexed to
        trace-buffers").
    n_buffer_inputs:
        Number of trace-buffer inputs (groups); defaults to ``len(taps)//4``
        clamped to at least 1 — a quarter of the signals observable per
        debugging run, the ratio used throughout our experiments.
    with_triggers:
        Instantiate conventional ILA trigger units (pattern comparators +
        arming flop) per buffer input.  The proposed flow keeps triggers
        out of the fabric, so this defaults to off.
    """
    if taps is None:
        taps = default_taps(net)
    if not taps:
        raise DebugFlowError("no signals to observe")
    seen: set[int] = set()
    for t in taps:
        if t in seen:
            raise DebugFlowError(f"duplicate tap id {t}")
        seen.add(t)
        if not 0 <= t < net.n_nodes:
            raise DebugFlowError(f"tap id {t} out of range")
        if net.kind(t) == NodeKind.PI:
            raise DebugFlowError(
                f"PI {net.node_name(t)!r} needs no tap (already observable)"
            )

    if n_buffer_inputs is None:
        n_buffer_inputs = max(1, len(taps) // 4)
    n_buffer_inputs = min(n_buffer_inputs, len(taps))

    work = net.copy()
    space = ParameterSpace()
    param_nodes: dict[str, int] = {}
    groups: list[TraceGroup] = []

    def new_param(name: str) -> int:
        space.add(name)
        nid = work.add_pi(name)
        param_nodes[name] = nid
        return nid

    for g_idx in range(n_buffer_inputs):
        leaves = [taps[i] for i in range(g_idx, len(taps), n_buffer_inputs)]
        group = TraceGroup(
            index=g_idx, po_name=f"tb_{g_idx}", root=-1, leaves=list(leaves)
        )
        # balanced binary tree, one select parameter per mux
        frontier: list[int] = list(leaves)
        paths: dict[int, list[tuple[str, int]]] = {l: [] for l in leaves}
        # membership map: which original leaves sit under each frontier node
        under: dict[int, list[int]] = {l: [l] for l in leaves}
        level = 0
        while len(frontier) > 1:
            nxt: list[int] = []
            nxt_under: dict[int, list[int]] = {}
            for i in range(0, len(frontier) - 1, 2):
                a, b = frontier[i], frontier[i + 1]
                sel_name = f"{param_prefix}_{g_idx}_{level}_{i // 2}"
                sel = new_param(sel_name)
                m = work.add_gate(
                    work.fresh_name(f"dbg_mux_{g_idx}_{level}_{i // 2}"),
                    (a, b, sel),
                    _MUX_TT,
                )
                group.mux_nodes.append(m)
                for leaf in under[a]:
                    paths[leaf].append((sel_name, 0))
                for leaf in under[b]:
                    paths[leaf].append((sel_name, 1))
                nxt.append(m)
                nxt_under[m] = under[a] + under[b]
            if len(frontier) % 2:
                carry = frontier[-1]
                nxt.append(carry)
                nxt_under[carry] = under[carry]
            frontier = nxt
            under = nxt_under
            level += 1
        group.root = frontier[0]
        group.path = paths
        work.add_po(group.po_name)
        # the PO name must resolve: alias the root under the tb name by
        # adding a buffer gate named tb_g (keeps original root name intact)
        work.po_names.pop()
        tb_gate = work.add_gate(
            group.po_name, (group.root,), TruthTable.var(0, 1)
        )
        group.mux_nodes.append(tb_gate)
        work.add_po(group.po_name)
        groups.append(group)

    trigger_nodes: list[int] = []
    trigger_inputs: list[str] = []
    if with_triggers:
        for g in groups:
            root = work.require(g.po_name)
            stage: list[int] = []
            for i in range(trigger_pattern_width):
                pat = work.add_pi(f"trig_pat_{g.index}_{i}")
                msk = work.add_pi(f"trig_msk_{g.index}_{i}")
                trigger_inputs += [f"trig_pat_{g.index}_{i}", f"trig_msk_{g.index}_{i}"]
                cmp_n = work.add_gate(
                    f"trig_cmp_{g.index}_{i}", (root, pat), _XNOR2
                )
                m_n = work.add_gate(
                    f"trig_m_{g.index}_{i}", (cmp_n, msk), _OR2
                )
                trigger_nodes += [cmp_n, m_n]
                stage.append(m_n)
            # AND-reduce the masked comparator outputs
            while len(stage) > 1:
                nxt = []
                for i in range(0, len(stage) - 1, 2):
                    r = work.add_gate(
                        work.fresh_name(f"trig_red_{g.index}"),
                        (stage[i], stage[i + 1]),
                        _AND2,
                    )
                    trigger_nodes.append(r)
                    nxt.append(r)
                if len(stage) % 2:
                    nxt.append(stage[-1])
                stage = nxt
            arm_q = work.add_latch(f"trig_arm_{g.index}", init=0)
            hold = work.add_gate(
                f"trig_hold_{g.index}", (stage[0], arm_q), _OR2
            )
            trigger_nodes.append(hold)
            work.set_latch_driver(arm_q, hold)
            work.add_po(f"trig_hold_{g.index}")

    return InstrumentedDesign(
        network=work,
        taps=list(taps),
        param_space=space,
        param_nodes=param_nodes,
        groups=groups,
        trigger_nodes=trigger_nodes,
        trigger_inputs=trigger_inputs,
    )
