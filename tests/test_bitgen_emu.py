"""End-to-end: bitstream generation, SCG specialization, emulator decode.

These are the strongest tests in the suite: what the emulator runs is
reconstructed *purely from configuration bits*, so agreement with the
reference simulation proves mapping, packing, placement, routing, bitgen
and the SCG simultaneously.  The emulator and the references run 64
independent stimuli per cycle, lane for lane.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks import ref_scg
from repro.core.boolfunc import bf_var
from repro.core.costmodel import Virtex5Model
from repro.core.flow import DebugFlowConfig, run_generic_stage, run_physical_stage
from repro.core.parameters import ParameterSpace
from repro.core.pconf import ParameterizedBitstream
from repro.core.scg import SpecializedConfigGenerator
from repro.emu import FpgaEmulator
from repro.errors import BitstreamError
from repro.netlist import CompiledSimulator, parse_blif, program_for
from repro.workloads import campaign_spec, generate_circuit
from tests.conftest import TINY_SEQ_BLIF


@pytest.fixture(scope="module")
def physical_stage():
    net = parse_blif(TINY_SEQ_BLIF)
    offline = run_generic_stage(net, DebugFlowConfig(n_buffer_inputs=2))
    phys = run_physical_stage(offline)
    return offline, phys


def _checked_taps(design) -> list[int]:
    """Three taps: the first one driving a latch's D input, then the
    first two others."""
    drivers = {latch.driver for latch in design.network.latches}
    first = [t for t in design.taps if t in drivers][:1]
    assert first, "no tapped latch-driving LUT"
    return first + [t for t in design.taps if t not in first][:2]


#: Independent stimuli per emulated cycle, one per lane.
LANES = 64


def _random_stimulus(offline, rng) -> dict[str, int]:
    """One cycle of every source PI, lane-packed over :data:`LANES`."""
    return {
        offline.source.node_name(p): int.from_bytes(rng.bytes(8), "little")
        for p in offline.source.pis
    }


def _reference_outputs(offline, values, stim_seq):
    """The mapped network's lane-packed POs per cycle, with the select
    parameters held at ``values`` in every lane."""
    mapped = offline.mapping.to_lut_network()
    sim = CompiledSimulator(program_for(mapped), LANES)
    held = {nm: sim.full_mask * bit for nm, bit in values.items()}
    pis = [(pi, mapped.node_name(pi)) for pi in mapped.pis]
    pos = [mapped.require(po) for po in mapped.po_names]
    out = []
    for stim in stim_seq:
        sim.step({pi: held.get(nm, stim.get(nm, 0)) for pi, nm in pis})
        out.append(dict(zip(mapped.po_names, sim.node_ints(pos))))
    return out


class TestEndToEnd:
    def test_pconf_has_tunable_bits(self, physical_stage):
        _off, phys = physical_stage
        assert phys.bitstream.pconf.n_tunable > 0

    @pytest.mark.parametrize("tap_index", [0, 1, 2])
    def test_emulator_matches_reference(self, physical_stage, tap_index, rng):
        offline, phys = physical_stage
        design = offline.instrumented
        sig = design.network.node_name(_checked_taps(design)[tap_index])
        values = design.selection_for([sig])
        assign = design.param_space.assignment(values)
        bits, _stats = phys.bitstream.pconf.specialize(assign)

        emu = FpgaEmulator(bits, phys.bitstream, phys.rr, n_lanes=LANES)
        stim_seq = [_random_stimulus(offline, rng) for _ in range(20)]
        full_values = {
            name: values.get(name, 0) for name in design.param_space.names
        }
        expected = _reference_outputs(offline, full_values, stim_seq)
        for cyc, stim in enumerate(stim_seq):
            got = emu.step(stim)
            for po, want in expected[cyc].items():
                assert got[po] == want, f"cycle {cyc} PO {po}"

    def test_tb_output_equals_selected_signal(self, physical_stage, rng):
        """The decoded device really routes the selected signal to tb_*."""
        offline, phys = physical_stage
        design = offline.instrumented
        for tap in _checked_taps(design):
            sig = design.network.node_name(tap)
            group = design.group_of(tap)
            values = design.selection_for([sig])
            assign = design.param_space.assignment(values)
            bits, _ = phys.bitstream.pconf.specialize(assign)
            emu = FpgaEmulator(bits, phys.bitstream, phys.rr, n_lanes=LANES)

            # reference: simulate the *source* network and read the signal
            source = offline.source
            src_sim = CompiledSimulator(program_for(source), LANES)
            for _ in range(16):
                stim = _random_stimulus(offline, rng)
                got = emu.step(stim)
                src_sim.step({p: stim[source.node_name(p)] for p in source.pis})
                want = src_sim.value(source.require(sig))
                assert got[group.po_name] == want, f"{sig}"

    def test_specialize_matches_reference(self, physical_stage):
        """The physical PConf's compiled plan against the reference
        evaluator: bits, stats and frame sets for the checked taps."""
        offline, phys = physical_stage
        design = offline.instrumented
        pconf = phys.bitstream.pconf
        frame_bits = phys.layout.frame_bits
        fast = SpecializedConfigGenerator(pconf, frame_bits=frame_bits)
        ref = ref_scg.ReferenceSCG(pconf, frame_bits=frame_bits)
        zeros = design.param_space.zeros()
        assert fast.load_full(zeros).stats == ref.load_full(zeros).stats
        for tap in _checked_taps(design):
            assign = design.param_space.assignment(
                design.selection_for([design.network.node_name(tap)])
            )
            bits, stats = pconf.specialize(assign)
            want, want_stats = ref_scg.specialize(pconf, assign)
            assert np.array_equal(bits, want) and stats == want_stats
            got_rec, want_rec = fast.respecialize(assign), ref.respecialize(assign)
            assert got_rec.frames_touched == want_rec.frames_touched

    def test_respecialization_touches_few_frames(self, physical_stage):
        offline, phys = physical_stage
        design = offline.instrumented
        scg = SpecializedConfigGenerator(
            phys.bitstream.pconf,
            frame_bits=phys.layout.frame_bits,
            model=Virtex5Model(),
        )
        scg.load_full(design.param_space.zeros())
        # choose a signal whose selection actually flips a parameter (the
        # first leaf of each group is selected by the all-zero default)
        sig = None
        for tap in design.taps:
            values = design.selection_for([design.network.node_name(tap)])
            if any(values.values()):
                sig = design.network.node_name(tap)
                break
        assert sig is not None
        rec = scg.respecialize(
            design.param_space.assignment(design.selection_for([sig]))
        )
        assert 0 < len(rec.frames_touched) < scg.n_frames
        assert rec.device_cost.specialization_s < rec.device_cost.full_reconfig_s

    def test_same_assignment_touches_no_frames(self, physical_stage):
        offline, phys = physical_stage
        design = offline.instrumented
        scg = SpecializedConfigGenerator(phys.bitstream.pconf)
        scg.load_full(design.param_space.zeros())
        rec = scg.respecialize(design.param_space.zeros())
        assert rec.frames_touched == ()

    def test_decode_rejects_wrong_length(self, physical_stage):
        _off, phys = physical_stage
        from repro.emu import decode_bitstream

        with pytest.raises(BitstreamError):
            decode_bitstream(
                np.zeros(3, dtype=np.uint8), phys.bitstream, phys.rr
            )


class TestSequentialEndToEnd(TestEndToEnd):
    """The same checks on a 60-gate design with six latches, each D input
    a LUT that is also a debug-mux option: packing must not fuse such a
    LUT into its FF's BLE, or the router finds no source for the mux
    input."""

    @pytest.fixture(scope="class")
    def physical_stage(self):
        spec = campaign_spec(
            n_gates=60, depth=6, n_latches=6, n_pis=8, n_pos=6
        )
        offline = run_generic_stage(generate_circuit(spec))
        return offline, run_physical_stage(offline)


class TestFrameDiff:
    """The SCG's frame diff: the frames a respecialization rewrites."""

    @staticmethod
    def _loaded_scg():
        """A 100-bit PConf whose bits 5 and 77 follow ``p0``, loaded with
        ``p0 = 0`` on 32-bit frames."""
        space = ParameterSpace(["p0"])
        pconf = ParameterizedBitstream(space, n_bits=100)
        for bit in (5, 77):
            pconf.set_tunable(bit, bf_var(0))
        scg = SpecializedConfigGenerator(pconf, frame_bits=32)
        scg.load_full(space.assignment({"p0": 0}))
        return space, scg

    def test_changed_frames_basic(self):
        space, scg = self._loaded_scg()
        rec = scg.respecialize(space.assignment({"p0": 1}))
        assert rec.frames_touched == (0, 2)

    def test_no_change(self):
        space, scg = self._loaded_scg()
        rec = scg.respecialize(space.assignment({"p0": 0}))
        assert rec.frames_touched == ()
