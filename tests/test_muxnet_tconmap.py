"""Signal parameterisation (mux network) and TconMap."""

from __future__ import annotations

import re

import pytest

from parity import check_equivalent
from repro.core.muxnet import build_trace_network, default_taps
from repro.core.parameters import ParameterSpace
from repro.errors import DebugFlowError
from repro.mapping import AbcMap, TconMap
from repro.netlist import CompiledSimulator, program_for, validate_network


@pytest.fixture
def instrumented(tiny_seq):
    return build_trace_network(tiny_seq, n_buffer_inputs=2)


class TestBuild:
    def test_structure(self, instrumented):
        d = instrumented
        assert d.n_buffer_inputs == 2
        assert len(d.taps) == len(set(d.taps))
        validate_network(d.network)

    def test_every_tap_has_a_path(self, instrumented):
        for g in instrumented.groups:
            for leaf in g.leaves:
                assert leaf in g.path

    def test_params_are_pis(self, instrumented):
        net = instrumented.network
        for name, nid in instrumented.param_nodes.items():
            assert net.node_name(nid) == name
            assert nid in net.pis

    def test_annotation_roundtrip(self, instrumented):
        from repro.core.annotate import parse_par, write_par

        ann = instrumented.annotation()
        again = parse_par(write_par(ann))
        assert again.param_names == ann.param_names
        assert again.tap_names == ann.tap_names
        assert again.buffer_names == ann.buffer_names

    def test_default_taps_exclude_pis(self, tiny_seq):
        taps = default_taps(tiny_seq)
        assert not any(t in tiny_seq.pis for t in taps)

    def test_pi_tap_rejected(self, tiny_seq):
        with pytest.raises(DebugFlowError):
            build_trace_network(tiny_seq, [tiny_seq.pis[0]])

    def test_duplicate_tap_rejected(self, tiny_seq):
        t = list(tiny_seq.gates())[0]
        with pytest.raises(DebugFlowError):
            build_trace_network(tiny_seq, [t, t])

    def test_triggers_add_logic(self, tiny_seq):
        with_t = build_trace_network(tiny_seq, with_triggers=True)
        without = build_trace_network(tiny_seq, with_triggers=False)
        assert len(with_t.trigger_nodes) > 0
        assert with_t.network.n_gates > without.network.n_gates
        assert with_t.network.n_latches == without.network.n_latches + len(
            with_t.groups
        )


class TestSelection:
    def test_selection_routes_signal(self, instrumented):
        d = instrumented
        net = d.network
        sig = net.node_name(d.taps[0])
        values = d.selection_for([sig])
        assert d.observed_at(values)[d.group_of(d.taps[0]).po_name] == sig

    def test_every_signal_selectable(self, instrumented):
        d = instrumented
        net = d.network
        for tap in d.taps:
            sig = net.node_name(tap)
            values = d.selection_for([sig])
            observed = d.observed_at(values)
            assert sig in observed.values()

    def test_collision_rejected(self, instrumented):
        d = instrumented
        g0 = d.groups[0]
        if len(g0.leaves) < 2:
            pytest.skip("group too small")
        names = [d.network.node_name(l) for l in g0.leaves[:2]]
        with pytest.raises(DebugFlowError):
            d.selection_for(names)

    def test_unknown_signal_rejected(self, instrumented):
        with pytest.raises(DebugFlowError):
            instrumented.selection_for(["who"])

    def test_group_index_matches_group_scan(self, instrumented):
        d = instrumented
        for tap in d.taps:
            first = next(g for g in d.groups if tap in g.path)
            assert d.group_of(tap) is first
        assert d._group_lookup is d._group_lookup  # built once, then cached

    def test_selection_error_messages(self, instrumented):
        d = instrumented
        net = d.network
        with pytest.raises(DebugFlowError, match=r"^unknown signal 'who'$"):
            d.selection_for(["who"])
        param = next(iter(d.param_nodes.values()))
        untapped = net.node_name(param)
        message = f"^signal {re.escape(repr(untapped))} is not tapped$"
        with pytest.raises(DebugFlowError, match=message):
            d.selection_for([untapped])
        with pytest.raises(DebugFlowError, match=message):
            d.group_of(param)
        g = next(g for g in d.groups if len(g.leaves) >= 2)
        names = [net.node_name(leaf) for leaf in g.leaves[:2]]
        with pytest.raises(
            DebugFlowError,
            match=re.escape(
                f"signals {names!r} collide in trace group {g.index} "
                "(one signal per buffer input)"
            ),
        ):
            d.selection_for(names)

    def test_selection_is_functionally_correct(self, instrumented, rng):
        """Simulating the instrumented net, tb_g equals the selected signal."""
        d = instrumented
        net = d.network
        sig = net.node_name(d.taps[-1])
        values = d.selection_for([sig])
        group = d.group_of(d.taps[-1])

        sim = CompiledSimulator(program_for(net), 128)
        for _ in range(6):
            stim = {}
            for pi in net.pis:
                nm = net.node_name(pi)
                if nm in d.param_nodes:
                    stim[pi] = sim.full_mask * values.get(nm, 0)
                else:
                    stim[pi] = int.from_bytes(rng.bytes(16), "little")
            sim.step(stim)
            assert sim.value(net.require(group.po_name)) == sim.value(
                net.require(sig)
            )


class TestTconMap:
    def test_muxes_become_tcons(self, instrumented):
        tm = TconMap(
            params=instrumented.param_ids, taps=set(instrumented.taps)
        ).map(instrumented.network)
        assert tm.n_tcons > 0

    def test_equivalence_with_params_as_pis(self, instrumented):
        tm = TconMap(
            params=instrumented.param_ids, taps=set(instrumented.taps)
        ).map(instrumented.network)
        lutnet = tm.to_lut_network()
        validate_network(lutnet)
        assert check_equivalent(
            instrumented.network, lutnet, n_vectors=128, n_cycles=6
        )

    def test_taps_remain_physical(self, instrumented):
        from repro.netlist.network import NodeKind

        tm = TconMap(
            params=instrumented.param_ids, taps=set(instrumented.taps)
        ).map(instrumented.network)
        for tap in instrumented.taps:
            if instrumented.network.kind(tap) == NodeKind.GATE:
                assert tap in tm.luts, "tapped gate must exist as a LUT"
            else:
                # latch outputs are physical by construction
                assert instrumented.network.kind(tap) == NodeKind.LATCH

    def test_param_aware_smaller_than_blind(self, stereov_net):
        initial = AbcMap().map(stereov_net)
        taps = sorted(initial.luts.keys()) + [
            l.q for l in stereov_net.latches
        ]
        instr = build_trace_network(stereov_net, taps)
        aware = TconMap(params=instr.param_ids, taps=set(taps)).map(
            instr.network
        )
        blind = AbcMap(forced_roots=frozenset(taps)).map(instr.network)
        assert aware.n_luts < blind.n_luts

    def test_tcon_edges_counted(self, instrumented):
        tm = TconMap(
            params=instrumented.param_ids, taps=set(instrumented.taps)
        ).map(instrumented.network)
        assert tm.n_tcons == 2 * len(tm.tcons)

    def test_depth_ignores_tcons(self, stereov_offline):
        from repro.baselines.conventional import user_sink_names

        sinks = user_sink_names(stereov_offline.source)
        prop = stereov_offline.mapping.depth_to(sinks)
        golden = stereov_offline.initial.depth_to(sinks)
        assert prop <= golden
