"""Fault injection and VCD export."""

from __future__ import annotations

import numpy as np
import pytest

from repro.emu.fault import ForcedFault, active_override_ints
from repro.emu.vcd import VcdWriter, write_vcd
from repro.errors import DebugFlowError
from repro.netlist import CompiledSimulator, program_for

ONES = (1 << 64) - 1


class TestFaultInjector:
    """A :class:`ForcedFault` applied as :func:`active_override_ints`
    overrides of a compiled simulator step."""

    STIM = {"x": ONES, "y": 0, "z": ONES}

    def _run(self, net, faults, n_cycles):
        """``out1`` on each of ``n_cycles`` cycles of :data:`STIM` with
        ``faults`` armed."""
        sim = CompiledSimulator(program_for(net), 64)
        out1 = []
        for cycle in range(n_cycles):
            sim.step(
                {net.require(n): v for n, v in self.STIM.items()},
                overrides=active_override_ints(faults, cycle, n_lanes=64),
            )
            out1.append(sim.value(net.require("out1")))
        return out1

    def test_stuck_at_changes_output(self, tiny_comb):
        w = ForcedFault(node=tiny_comb.require("w"), value=0)
        assert self._run(tiny_comb, [], 1) != self._run(tiny_comb, [w], 1)

    def test_fault_window(self, tiny_comb):
        w = ForcedFault(
            node=tiny_comb.require("w"), value=0, first_cycle=1, last_cycle=1
        )
        first, second, third = self._run(tiny_comb, [w], 3)
        assert first == third and second != first


class TestVcd:
    def test_header_and_changes(self):
        w = VcdWriter(["sig_a", "sig_b"])
        w.sample({"sig_a": 0, "sig_b": 1})
        w.sample({"sig_a": 1, "sig_b": 1})
        text = w.render()
        assert "$timescale 1 ns $end" in text
        assert "$var wire 1" in text
        assert "#1" in text

    def test_no_signals_rejected(self):
        with pytest.raises(DebugFlowError):
            VcdWriter([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DebugFlowError):
            VcdWriter(["a", "a"])

    def test_write_vcd_file(self, tmp_path):
        path = str(tmp_path / "x.vcd")
        write_vcd(
            {"a": np.array([0, 1, 1]), "b": np.array([1, 1, 0])}, path
        )
        with open(path) as fh:
            content = fh.read()
        assert "$enddefinitions" in content

    def test_write_vcd_length_mismatch(self, tmp_path):
        with pytest.raises(DebugFlowError):
            write_vcd(
                {"a": np.array([0]), "b": np.array([0, 1])},
                str(tmp_path / "y.vcd"),
            )

    def test_write_vcd_empty(self, tmp_path):
        with pytest.raises(DebugFlowError):
            write_vcd({}, str(tmp_path / "z.vcd"))

    def test_identifiers_unique_for_many_signals(self):
        names = [f"s{i}" for i in range(200)]
        w = VcdWriter(names)
        assert len(set(w._ids.values())) == 200
