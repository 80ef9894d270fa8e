"""TconMap: parameter-aware technology mapping (the paper's §IV-A.3/4).

The instrumented network contains a multiplexer network whose select inputs
are *parameters* — inputs that change only between debugging runs, never
during operation.  TconMap exploits that in three ways:

* **TCONs** — a 2:1 multiplexer whose select is a parameter is not logic at
  all once the parameter is fixed: it is a *choice of connection*.  Such
  nodes are emitted as :class:`~repro.mapping.result.TconImpl` and realized
  in the FPGA's routing fabric (switch-box/connection-box configuration
  bits become Boolean functions of the select parameter).  They cost zero
  LUTs and add zero logic depth.

* **TLUTs** — a leaf multiplexer whose two tapped signals have small cones
  can instead *recompute* either cone inside one LUT whose configuration
  bits depend on the select parameter (the TLUT mechanism): the LUT holds
  cone(A) when sel=0 and cone(B) when sel=1.  This trades one physical LUT
  for two routed taps, which pays off for latch-adjacent taps where direct
  routing into the capture domain needs gating anyway.  Emitted as a
  :class:`~repro.mapping.result.LutImpl` with a parameter leaf.

* **Polarity folds** — mapped single-input LUTs (buffers/inverters) are
  folded into the configuration bits of their reader LUTs, removing a
  logic level; this is why the proposed flow's depth in Table II sometimes
  *undercuts* the golden depth.

Observed signals ("taps") are forced mapping roots so that the physical
net exists for the routing-level taps — except where a TLUT recomputation
serves the tap instead.
"""

from __future__ import annotations

from typing import Collection

from repro.errors import MappingError
from repro.mapping.cuts import cut_size
from repro.mapping.mapper_base import PriorityCutMapper
from repro.mapping.result import LutImpl, MappingResult, TconImpl
from repro.netlist.network import LogicNetwork, NodeKind
from repro.netlist.truthtable import TruthTable

__all__ = ["TconMap"]


class TconMap(PriorityCutMapper):
    """Parameter-aware mapper producing LUTs, TLUTs and TCONs."""

    name = "tconmap"

    def __init__(
        self,
        k: int = 6,
        cut_limit: int = 8,
        area_rounds: int = 2,
        *,
        params: Collection[int],
        taps: Collection[int] = (),
        latch_adjacent: Collection[int] | None = None,
        fold_polarity: bool = True,
    ) -> None:
        """
        Parameters
        ----------
        params:
            Node ids of the debug parameters (mux-network select inputs).
        taps:
            Observed signal node ids; forced to remain physical nets.
        latch_adjacent:
            Taps requiring gated (TLUT) capture; computed from the network
            (latch Q nodes, latch drivers and their direct readers) when
            omitted.
        fold_polarity:
            Enable the buffer/inverter configuration-bit fold.
        """
        super().__init__(
            k=k,
            cut_limit=cut_limit,
            area_rounds=area_rounds,
            free_leaves=params,
            forced_roots=taps,
        )
        self.taps = frozenset(taps)
        self._latch_adjacent = (
            None if latch_adjacent is None else frozenset(latch_adjacent)
        )
        self.fold_polarity = fold_polarity
        self._mux_nodes: dict[int, tuple[int, int, int]] = {}

    # -- parameter-mux recognition ------------------------------------------

    def _find_param_muxes(self, net: LogicNetwork) -> None:
        """Identify 2:1 muxes whose select input is a parameter."""
        self._mux_nodes = {}
        for nid in net.gates():
            func = net.func(nid)
            assert func is not None
            if func.n_vars != 3:
                continue
            m = func.as_mux()
            if m is None:
                continue
            sel_var, a_var, b_var = m
            fanins = net.fanins(nid)
            sel, a, b = fanins[sel_var], fanins[a_var], fanins[b_var]
            if sel in self.free and a not in self.free and b not in self.free:
                self._mux_nodes[nid] = (sel, a, b)

    def _compute_latch_adjacent(self, net: LogicNetwork) -> frozenset[int]:
        adj: set[int] = set()
        for latch in net.latches:
            adj.add(latch.q)
            if latch.driver >= 0:
                adj.add(latch.driver)
        for nid in net.gates():
            if any(f in adj for f in net.fanins(nid)):
                adj.add(nid)
        return frozenset(adj)

    # -- mapper hooks ----------------------------------------------------------

    def map(self, net: LogicNetwork) -> MappingResult:
        self._find_param_muxes(net)
        if self._latch_adjacent is None:
            self._latch_adjacent = self._compute_latch_adjacent(net)
        # Mux nodes are routing-level objects, emitted as TCONs rather than
        # LUTs.  Making them boundaries keeps downstream (other mux nodes /
        # trace-buffer POs) from absorbing through them: a boundary exposes
        # only its trivial cut.  They still sit in the gate order, so the
        # forward and recovery passes merge their own fan-ins' cuts, and
        # the cut chosen there sets the mux's arrival and area flow.
        self.boundary = frozenset(self.boundary) | frozenset(self._mux_nodes)
        result = super().map(net)
        if self.fold_polarity:
            self._fold_polarity(result)
        return result

    def _handle_special(self, nid: int, result: MappingResult) -> bool:
        mux = self._mux_nodes.get(nid)
        if mux is None:
            return False
        net = self._net
        assert net is not None
        sel, a, b = mux

        if self._qualifies_tlut(nid, sel, a, b):
            leaves_set = self._tlut_leaves(sel, a, b)
            leaves = tuple(sorted(leaves_set))
            func = self._cone(nid, leaves)
            params = tuple(l for l in leaves if l in self.free)
            result.luts[nid] = LutImpl(
                root=nid, leaves=leaves, func=func, param_leaves=params
            )
            self._deps = tuple(
                l for l in leaves if l not in self.free
            )
            return True

        result.tcons[nid] = TconImpl(root=nid, source0=a, source1=b, sel=sel)
        self._deps = (a, b)
        return True

    def _special_deps(self, nid: int) -> tuple[int, ...]:
        return self._deps

    def _tlut_leaves(self, sel: int, a: int, b: int) -> set[int]:
        """Leaf set of a TLUT recomputing both data cones plus the select.

        A data input whose best cut is missing (source-like) or empty
        (constant gate) contributes its trivial leaf, matching the
        pre-flat-engine ``self._best.get(x) or frozenset((x,))``.
        """
        cut_a = self._best[a]
        cut_b = self._best[b]
        merged = set(cut_a.leaves if cut_a else (a,))
        merged.update(cut_b.leaves if cut_b else (b,))
        merged.add(sel)
        return merged

    def _qualifies_tlut(self, nid: int, sel: int, a: int, b: int) -> bool:
        """TLUT recomputation pays off for gated, latch-adjacent leaf taps."""
        assert self._latch_adjacent is not None
        # leaf mux: both data inputs are user signals (taps), not other muxes
        if a in self._mux_nodes or b in self._mux_nodes:
            return False
        if a in self.free or b in self.free:
            return False
        if not (a in self._latch_adjacent or b in self._latch_adjacent):
            return False
        merged = self._tlut_leaves(sel, a, b)
        if len(merged) > self.cap:
            return False
        return cut_size(merged, self.free) <= self.k

    # -- polarity folding -------------------------------------------------------

    def _fold_polarity(self, result: MappingResult) -> None:
        """Fold single-input LUTs into their readers' configuration bits.

        A buffer or inverter LUT whose every reader is another LUT of the
        cover disappears: readers re-express their function on the fold's
        source with adjusted polarity.  Each fold is one extra tunable
        connection (the reader's input now routes through a configured
        switch choice), recorded via :attr:`MappingResult.tcons` with both
        sources equal.
        """
        net = result.network
        changed = True
        while changed:
            changed = False
            # collect candidate folds: 1-real-input LUTs
            candidates: dict[int, tuple[int, bool]] = {}
            for nid, lut in result.luts.items():
                phys = lut.physical_inputs
                if len(phys) != 1 or lut.is_tlut:
                    continue
                if nid in self.taps:
                    continue  # observed nets must keep their own signal
                var = lut.leaves.index(phys[0])
                buf = lut.func.is_buffer_of()
                inv = lut.func.is_inverter_of()
                if buf == var:
                    candidates[nid] = (phys[0], False)
                elif inv == var:
                    candidates[nid] = (phys[0], True)
            if not candidates:
                break

            # reader map over the current cover
            readers: dict[int, list[int]] = {}
            for nid, lut in result.luts.items():
                for leaf in lut.physical_inputs:
                    readers.setdefault(leaf, []).append(nid)
            blocked: set[int] = set()
            for t in result.tcons.values():
                blocked.add(t.source0)
                blocked.add(t.source1)
            for latch in net.latches:
                blocked.add(latch.driver)
            for po in net.po_names:
                blocked.add(net.require(po))

            for nid, (src, inverted) in candidates.items():
                if nid in blocked:
                    continue
                if src in candidates or src in result.tcons:
                    continue  # fold one layer per sweep; chains converge
                reading = readers.get(nid, [])
                if not reading:
                    continue
                ok = True
                for r in reading:
                    lut = result.luts[r]
                    if nid not in lut.leaves or src in lut.leaves:
                        ok = False
                        break
                if not ok:
                    continue
                for r in reading:
                    lut = result.luts[r]
                    var = lut.leaves.index(nid)
                    func = lut.func
                    if inverted:
                        c0 = func.cofactor(var, 0)
                        c1 = func.cofactor(var, 1)
                        v = TruthTable.var(var, func.n_vars)
                        func = (v & c0) | (~v & c1)
                    new_leaves = tuple(
                        src if l == nid else l for l in lut.leaves
                    )
                    result.luts[r] = LutImpl(
                        root=lut.root,
                        leaves=new_leaves,
                        func=func,
                        param_leaves=lut.param_leaves,
                    )
                del result.luts[nid]
                result.polarity_folds += 1
                changed = True
