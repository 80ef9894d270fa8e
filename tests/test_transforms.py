"""Netlist cleanup transforms."""

from __future__ import annotations

import pytest

from parity import check_equivalent
from repro.netlist import (
    LogicNetwork,
    parse_blif,
    propagate_constants,
    remove_buffers,
    sweep_dead,
    validate_network,
)
from repro.netlist.transforms import cleanup
from repro.netlist.truthtable import TruthTable

AND2 = TruthTable.var(0, 2) & TruthTable.var(1, 2)


class TestConstProp:
    def test_folds_constant_input(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        one = net.add_const("one", 1)
        g = net.add_gate("g", (a, one), AND2)
        net.add_po("g")
        n = propagate_constants(net)
        assert n >= 1
        assert net.fanins(net.require("g")) == (a,)
        assert net.func(net.require("g")) == TruthTable.var(0, 1)

    def test_collapse_to_constant(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        zero = net.add_const("zero", 0)
        g = net.add_gate("g", (a, zero), AND2)
        net.add_po("g")
        propagate_constants(net)
        assert net.func(net.require("g")).const_value() == 0

    def test_iterates_to_fixpoint(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        one = net.add_const("one", 1)
        g1 = net.add_gate("g1", (a, one), TruthTable.var(1, 2))  # = const 1
        g2 = net.add_gate("g2", (a, g1), AND2)
        net.add_po("g2")
        propagate_constants(net)
        assert net.func(net.require("g2")) == TruthTable.var(0, 1)


class TestBufferRemoval:
    def test_bypasses_buffer(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        buf = net.add_gate("buf", (a,), TruthTable.var(0, 1))
        g = net.add_gate("g", (buf, a), AND2)
        net.add_po("g")
        assert remove_buffers(net) == 1
        assert buf not in net.fanins(net.require("g"))

    def test_keeps_inverters(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        inv = net.add_gate("inv", (a,), ~TruthTable.var(0, 1))
        net.add_po("inv")
        assert remove_buffers(net) == 0

    def test_protected_buffers_survive(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        buf = net.add_gate("buf", (a,), TruthTable.var(0, 1))
        net.add_po("buf")
        assert remove_buffers(net, protected=[buf]) == 0


class TestSweepCleanup:
    def test_sweep_drops_unreachable(self, tiny_seq):
        net = tiny_seq.copy()
        a = net.require("a")
        net.add_gate("orphan", (a,), TruthTable.var(0, 1))
        swept = sweep_dead(net)
        assert swept.find("orphan") is None
        validate_network(swept)

    def test_cleanup_equivalent(self, tiny_seq):
        out = cleanup(tiny_seq)
        validate_network(out)
        assert check_equivalent(tiny_seq, out)

    def test_cleanup_on_constant_rich_net(self):
        net = parse_blif(
            ".model m\n.inputs a\n.outputs f\n"
            ".names one\n1\n"
            ".names a one t\n11 1\n"
            ".names t f\n1 1\n.end\n"
        )
        out = cleanup(net)
        validate_network(out)
        assert check_equivalent(net, out)
