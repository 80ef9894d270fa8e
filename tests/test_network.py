"""LogicNetwork structure, mutation and validation."""

from __future__ import annotations

import pytest

from repro.errors import NetlistError
from repro.netlist import LogicNetwork, NodeKind, validate_network
from repro.netlist.truthtable import TruthTable

AND2 = TruthTable.var(0, 2) & TruthTable.var(1, 2)
OR2 = TruthTable.var(0, 2) | TruthTable.var(1, 2)


def small_net() -> LogicNetwork:
    net = LogicNetwork("t")
    a = net.add_pi("a")
    b = net.add_pi("b")
    f = net.add_gate("f", (a, b), AND2)
    q = net.add_latch("q", init=1)
    net.set_latch_driver(q, f)
    g = net.add_gate("g", (q, a), OR2)
    net.add_po("g")
    return net


class TestConstruction:
    def test_counts(self):
        net = small_net()
        assert (net.n_pis, net.n_gates, net.n_latches) == (2, 2, 1)

    def test_duplicate_name(self):
        net = LogicNetwork()
        net.add_pi("a")
        with pytest.raises(NetlistError):
            net.add_pi("a")

    def test_gate_arity_check(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        with pytest.raises(NetlistError):
            net.add_gate("g", (a,), AND2)

    def test_undefined_fanin(self):
        net = LogicNetwork()
        with pytest.raises(NetlistError):
            net.add_gate("g", (5,), TruthTable.var(0, 1))

    def test_bad_latch_init(self):
        net = LogicNetwork()
        with pytest.raises(NetlistError):
            net.add_latch("q", init=7)

    def test_const_gate(self):
        net = LogicNetwork()
        c = net.add_const("one", 1)
        assert net.func(c).const_value() == 1

    def test_set_latch_driver_non_latch(self):
        net = small_net()
        with pytest.raises(NetlistError):
            net.set_latch_driver(net.require("g"), 0)


class TestQueries:
    def test_find_require(self):
        net = small_net()
        assert net.find("f") == net.require("f")
        assert net.find("nope") is None
        with pytest.raises(NetlistError):
            net.require("nope")

    def test_sources(self):
        net = small_net()
        srcs = net.sources()
        assert net.require("a") in srcs and net.require("q") in srcs

    def test_topo_order_sources_first(self):
        net = small_net()
        order = net.topo_order()
        pos = {n: i for i, n in enumerate(order)}
        for nid in net.gates():
            for f in net.fanins(nid):
                assert pos[f] < pos[nid]

    def test_topo_cycle_detection(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        g1 = net.add_gate("g1", (a, a), AND2)  # placeholder fanins
        g2 = net.add_gate("g2", (g1, a), AND2)
        net.rewire(g1, (g2, a), AND2)  # creates a combinational cycle
        with pytest.raises(NetlistError):
            net.topo_order()

    def test_fanouts_and_counts(self):
        net = small_net()
        outs = net.fanouts()
        assert net.require("g") in outs[net.require("q")]
        counts = net.fanout_counts()
        assert counts[net.require("f")] == 1  # read by the latch
        assert counts[net.require("g")] == 1  # read by the PO

    def test_transitive_fanin(self):
        net = small_net()
        cone = net.transitive_fanin([net.require("g")])
        assert net.require("q") in cone and net.require("a") in cone


class TestMutation:
    def test_replace_uses(self):
        net = small_net()
        a, b = net.require("a"), net.require("b")
        net.replace_uses(a, b)
        assert a not in net.fanins(net.require("g"))

    def test_replace_uses_fixes_po(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        g = net.add_gate("g", (a,), TruthTable.var(0, 1))
        h = net.add_gate("h", (a,), ~TruthTable.var(0, 1))
        net.add_po("g")
        net.replace_uses(g, h)
        assert net.po_names == ["h"]

    def test_fresh_name(self):
        net = small_net()
        assert net.fresh_name("zz") == "zz"
        assert net.fresh_name("f") != "f"

    def test_compact_drops_dead(self):
        net = small_net()
        a = net.require("a")
        dead = net.add_gate("dead", (a,), TruthTable.var(0, 1))
        out = net.compact()
        assert out.find("dead") is None
        validate_network(out)

    def test_compact_keeps_protected(self):
        net = small_net()
        a = net.require("a")
        keep = net.add_gate("keepme", (a,), TruthTable.var(0, 1))
        out = net.compact(keep=[keep])
        assert out.find("keepme") is not None

    def test_copy_independent(self):
        net = small_net()
        cp = net.copy()
        cp.add_pi("new")
        assert net.find("new") is None


class TestValidate:
    def test_valid(self, tiny_seq):
        validate_network(tiny_seq)

    def test_no_pos(self):
        net = LogicNetwork()
        net.add_pi("a")
        with pytest.raises(NetlistError):
            validate_network(net)
        validate_network(net, require_pos=False)

    def test_undriven_latch(self):
        net = LogicNetwork()
        net.add_pi("a")
        net.add_latch("q")
        net.add_po("q")
        with pytest.raises(NetlistError):
            validate_network(net)
