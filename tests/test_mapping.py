"""Technology mapping: cuts, SimpleMap, AbcMap, result containers."""

from __future__ import annotations

import pytest

from parity import check_equivalent
from repro.errors import MappingError
from repro.mapping import AbcMap, SimpleMap, cone_function, enumerate_cuts
from repro.mapping.cuts import cut_size, merge_cut_lists
from repro.netlist import LogicNetwork, validate_network
from repro.netlist.truthtable import TruthTable
from repro.workloads import generate_circuit, get_spec

AND2 = TruthTable.var(0, 2) & TruthTable.var(1, 2)
XOR2 = TruthTable.var(0, 2) ^ TruthTable.var(1, 2)


def chain_net(n: int = 8) -> LogicNetwork:
    """A chain of XORs with side inputs: depth n at gate level."""
    net = LogicNetwork("chain")
    prev = net.add_pi("a0")
    for i in range(n):
        side = net.add_pi(f"s{i}")
        prev = net.add_gate(f"g{i}", (prev, side), XOR2)
    net.add_po(f"g{n-1}")
    return net


class TestCuts:
    def test_trivial_for_sources(self, tiny_comb):
        cuts = enumerate_cuts(tiny_comb, k=4)
        for pi in tiny_comb.pis:
            assert cuts[pi] == [frozenset((pi,))]

    def test_cut_is_valid_cut(self, tiny_comb):
        cuts = enumerate_cuts(tiny_comb, k=4)
        out1 = tiny_comb.require("out1")
        for cut in cuts[out1]:
            # collapsing over the cut must succeed (i.e. the cut separates)
            cone_function(tiny_comb, out1, tuple(sorted(cut)))

    def test_k_limit_respected(self, stereov_net):
        cuts = enumerate_cuts(stereov_net, k=4, cut_limit=4)
        for nid, clist in cuts.items():
            for c in clist:
                assert cut_size(c, ()) <= 4 or c == frozenset((nid,))

    def test_boundary_exposes_only_trivial(self, tiny_comb):
        w = tiny_comb.require("w")
        cuts = enumerate_cuts(tiny_comb, k=4, boundary=[w])
        assert cuts[w] == [frozenset((w,))]
        out1 = tiny_comb.require("out1")
        for cut in cuts[out1]:
            # nothing may look through w
            assert not (
                tiny_comb.require("x") in cut and tiny_comb.require("y") in cut
            ) or w not in cut

    def test_free_leaves_not_counted(self):
        assert cut_size(frozenset((1, 2, 3)), frozenset((2,))) == 2

    def test_bad_k(self):
        with pytest.raises(MappingError):
            enumerate_cuts(LogicNetwork(), k=1)

    def test_merge_respects_total_cap(self):
        lists = [[frozenset((i,))] for i in range(3)]
        out = merge_cut_lists(
            lists, k=6, limit=4, free_leaves=(), rank=lambda c: (len(c),),
            max_total_leaves=2,
        )
        assert out == []


class TestConeFunction:
    def test_collapses_and_chain(self):
        net = LogicNetwork()
        a, b, c = (net.add_pi(x) for x in "abc")
        g1 = net.add_gate("g1", (a, b), AND2)
        g2 = net.add_gate("g2", (g1, c), AND2)
        tt = cone_function(net, g2, (a, b, c))
        assert tt == (
            TruthTable.var(0, 3) & TruthTable.var(1, 3) & TruthTable.var(2, 3)
        )

    def test_escaping_cone_raises(self):
        net = LogicNetwork()
        a, b = net.add_pi("a"), net.add_pi("b")
        g = net.add_gate("g", (a, b), AND2)
        with pytest.raises(MappingError):
            cone_function(net, g, (a,))  # b missing from the cut


@pytest.mark.parametrize("mapper_cls", [SimpleMap, AbcMap])
class TestMappers:
    def test_equivalence(self, tiny_seq, mapper_cls):
        res = mapper_cls(k=4).map(tiny_seq)
        lutnet = res.to_lut_network()
        validate_network(lutnet)
        assert check_equivalent(tiny_seq, lutnet, n_vectors=128, n_cycles=6)

    def test_depth_compression(self, mapper_cls):
        net = chain_net(10)
        res = mapper_cls(k=6).map(net)
        # a 10-deep 2-input chain fits in ceil(10/5)=2..4 levels of 6-LUTs
        assert res.depth() <= 5

    def test_lut_inputs_bounded(self, mapper_cls, stereov_net):
        res = mapper_cls(k=6).map(stereov_net)
        for lut in res.luts.values():
            assert len(lut.physical_inputs) <= 6

    def test_all_pos_implemented(self, mapper_cls, tiny_seq):
        res = mapper_cls().map(tiny_seq)
        lutnet = res.to_lut_network()
        assert set(lutnet.po_names) == set(tiny_seq.po_names)

    def test_forced_roots_present(self, mapper_cls, tiny_comb):
        w = tiny_comb.require("w")
        res = mapper_cls(forced_roots=[w]).map(tiny_comb)
        assert w in res.luts

    def test_macro_node_identity(self, mapper_cls, tiny_comb):
        w = tiny_comb.require("w")
        res = mapper_cls(macro_nodes=[w]).map(tiny_comb)
        assert res.luts[w].leaves == tuple(sorted(tiny_comb.fanins(w)))


class TestAreaAndDepth:
    def test_abc_never_bigger_than_simplemap_on_suite(self):
        net = generate_circuit(get_spec("stereov."))
        sm = SimpleMap().map(net)
        abc = AbcMap().map(net)
        assert abc.n_luts <= sm.n_luts

    def test_area_recovery_helps(self, stereov_net):
        no_rec = AbcMap(area_rounds=0).map(stereov_net)
        rec = AbcMap(area_rounds=2).map(stereov_net)
        assert rec.n_luts <= no_rec.n_luts
        assert rec.depth() <= no_rec.depth()

    def test_depth_to_subset(self, tiny_comb):
        res = AbcMap().map(tiny_comb)
        assert res.depth_to(["out2"]) <= res.depth()

    def test_levels_consistent(self, stereov_net):
        res = AbcMap().map(stereov_net)
        levels = res.levels()
        for root, lut in res.luts.items():
            for leaf in lut.physical_inputs:
                assert levels.get(leaf, 0) < levels[root]

    def test_summary_mentions_counts(self, tiny_comb):
        res = AbcMap().map(tiny_comb)
        assert "LUTs" in res.summary()
