"""Bitstream decoding and device emulation.

:func:`decode_bitstream` reconstructs a :class:`LogicNetwork` from a
*specialized* (fully constant) configuration:

1. enabled routing switches define the active RR edges; walking backward
   from every used IPIN yields the OPIN that drives it;
2. BLE pin-select fields bind LUT pins to cluster IPINs or feedbacks;
3. LUT masks give each BLE its function, FF control bits its mode.

The decoded network's signals are named after the pinout (pads) and the
BLE name directory, so it can be simulated against the original design
name-for-name.  :class:`FpgaEmulator` wraps decode and a
:class:`~repro.netlist.compiled.CompiledSimulator` of the decoded network
into a device-like object with a clock-step interface, one stimulus per
lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.arch.config_cells import ConfigLayout
from repro.arch.routing_graph import RRGraph, RRNodeType
from repro.bitgen.genbit import GeneratedBitstream
from repro.errors import BitstreamError
from repro.netlist.compiled import CompiledSimulator, program_for
from repro.netlist.network import LogicNetwork
from repro.netlist.truthtable import TruthTable

__all__ = ["DecodedDesign", "decode_bitstream", "FpgaEmulator"]


@dataclass
class DecodedDesign:
    """A logic network reconstructed purely from configuration bits."""

    network: LogicNetwork
    used_bles: list[tuple[int, int, int]] = field(default_factory=list)
    active_switches: int = 0


def _read_field(bits: np.ndarray, base: int, width: int) -> int:
    v = 0
    for i in range(width):
        v |= int(bits[base + i]) << i
    return v


def decode_bitstream(
    bits: np.ndarray,
    gen: GeneratedBitstream,
    rr: RRGraph,
) -> DecodedDesign:
    """Reconstruct the configured design from a concrete bit array."""
    layout = gen.layout
    grid = layout.grid
    spec = grid.spec
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size != layout.n_bits:
        raise BitstreamError(
            f"bitstream has {bits.size} bits, device needs {layout.n_bits}"
        )

    # ---- active routing: driver of every node -----------------------------
    edge_src = rr.edge_src_array()
    driver_of: dict[int, int] = {}
    active = 0
    for edge, bit in layout.switch_bit.items():
        if not bits[bit]:
            continue
        active += 1
        src = int(edge_src[edge])
        dst = int(rr.edge_dst[edge])
        if dst in driver_of and driver_of[dst] != src:
            raise BitstreamError(
                f"node {rr.node_str(dst)} driven by two active switches"
            )
        driver_of[dst] = src

    def trace_to_opin(node: int) -> int | None:
        """Walk active switches backward until an OPIN (or give up)."""
        seen = set()
        cur = node
        while True:
            if cur in seen:
                raise BitstreamError(
                    f"routing loop decoding {rr.node_str(node)}"
                )
            seen.add(cur)
            if rr.ntype[cur] == RRNodeType.OPIN:
                return cur
            prev = driver_of.get(cur)
            if prev is None:
                return None
            cur = prev

    # ---- pads ------------------------------------------------------------------
    net = LogicNetwork("decoded")
    signal_of_opin: dict[int, int] = {}
    for site, name in sorted(gen.iomap.inputs.items()):
        nid = net.add_pi(name)
        signal_of_opin[rr.pad_opin[site]] = nid

    # ---- first pass: create BLE output nodes ------------------------------------
    sel_w = layout.select_width()
    unconnected = 0  # the erased state: code 0 = pin not connected
    used_bles: list[tuple[int, int, int]] = []
    ble_site_output: dict[tuple[int, int, int], int] = {}
    ble_mode: dict[tuple[int, int, int], dict] = {}

    for (x, y) in grid.clb_positions():
        for b in range(spec.n_ble):
            key = (x, y, b)
            pins = []
            for p in range(spec.k):
                base = layout.pin_select_base[key + (p,)]
                pins.append(_read_field(bits, base, sel_w))
            lut_base = layout.lut_base[key]
            mask = 0
            for i in range(spec.lut_bits):
                if bits[lut_base + i]:
                    mask |= 1 << i
            out_sel_bit, init_bit = layout.ble_ctrl[key]
            uses_ff = bool(bits[out_sel_bit])
            ff_init = int(bits[init_bit])
            if all(v == unconnected for v in pins) and not uses_ff and mask == 0:
                continue  # unused BLE (fully erased state)
            used_bles.append(key)
            ble_mode[key] = {
                "pins": pins,
                "mask": mask,
                "uses_ff": uses_ff,
                "ff_init": ff_init,
            }

    # create output signals: FF outputs are latches (created up front so
    # feedback cycles through registers resolve), LUT outputs are gates
    # added once their inputs exist.
    name_of = gen.ble_names
    for key in used_bles:
        label = name_of.get(key, f"ble_{key[0]}_{key[1]}_{key[2]}")
        if ble_mode[key]["uses_ff"]:
            q = net.add_latch(label, init=ble_mode[key]["ff_init"])
            ble_site_output[key] = q
        # LUT-mode outputs created in dependency order below

    # ---- resolve each cluster's IPIN signals ---------------------------------------
    def ipin_signal_node(x: int, y: int, ptc: int) -> tuple[int, int, int] | int | None:
        """What drives cluster (x,y) input pin ptc: a BLE site or a PI node."""
        ipin = rr.ipins_of[(x, y)][ptc]
        opin = trace_to_opin(ipin)
        if opin is None:
            return None
        if opin in signal_of_opin:
            return signal_of_opin[opin]
        ox, oy, ob = int(rr.xs[opin]), int(rr.ys[opin]), int(rr.ptc[opin])
        return (ox, oy, ob)

    # iterative creation of LUT gates in dependency order
    pending = [k for k in used_bles]
    guard = 0
    while pending:
        guard += 1
        if guard > len(used_bles) + 10_000:
            raise BitstreamError("could not order decoded BLEs (comb. loop?)")
        key = pending.pop(0)
        x, y, b = key
        mode = ble_mode[key]
        input_nodes: list[int] = []
        ready = True
        for p, val in enumerate(mode["pins"]):
            if val == unconnected:
                continue
            if val > spec.n_cluster_inputs:
                fb = val - spec.n_cluster_inputs - 1
                src_key = (x, y, fb)
                node = ble_site_output.get(src_key)
                if node is None:
                    ready = False
                    break
                input_nodes.append(node)
            else:
                ptc = val - 1
                res = ipin_signal_node(x, y, ptc)
                if res is None:
                    raise BitstreamError(
                        f"cluster ({x},{y}) pin {ptc} used but undriven"
                    )
                if isinstance(res, tuple):
                    node = ble_site_output.get(res)
                    if node is None:
                        ready = False
                        break
                    input_nodes.append(node)
                else:
                    input_nodes.append(res)
        if not ready:
            pending.append(key)
            continue

        n_in = len(input_nodes)
        column = [(mode["mask"] >> (i & ((1 << n_in) - 1))) & 1 for i in range(1 << n_in)]
        tt = TruthTable.from_outputs(column) if n_in else TruthTable.const(mode["mask"] & 1, 0)
        label = name_of.get(key, f"ble_{x}_{y}_{b}")
        if mode["uses_ff"]:
            d_gate = net.add_gate(
                net.fresh_name(f"{label}__d"), input_nodes, tt
            )
            net.set_latch_driver(ble_site_output[key], d_gate)
        else:
            gate = net.add_gate(label, input_nodes, tt)
            ble_site_output[key] = gate

    # ---- primary outputs --------------------------------------------------------------
    for site, name in sorted(gen.iomap.outputs.items()):
        ipin = rr.pad_ipin[site]
        opin = trace_to_opin(ipin)
        if opin is None:
            raise BitstreamError(f"output pad {name!r} undriven")
        if opin in signal_of_opin:
            src = signal_of_opin[opin]
        else:
            key = (int(rr.xs[opin]), int(rr.ys[opin]), int(rr.ptc[opin]))
            src = ble_site_output.get(key)
            if src is None:
                raise BitstreamError(f"output pad {name!r} driven by unused BLE")
        # alias through a buffer so the PO carries its pad name
        if net.node_name(src) != name:
            buf = net.add_gate(name, (src,), TruthTable.var(0, 1))
            src = buf
        net.add_po(name)

    return DecodedDesign(
        network=net, used_bles=used_bles, active_switches=active
    )


class FpgaEmulator:
    """A configured device with a clock-step interface over ``n_lanes``
    lanes: every pad and output carries one lane-packed integer, lane *k*
    at bit *k*, so one step runs ``n_lanes`` independent stimuli.

    >>> # emu = FpgaEmulator(bits, generated, rr, n_lanes=64)
    >>> # emu.step({"pi0": 0b1010})  # pi0 high in lanes 1 and 3
    """

    def __init__(
        self, bits: np.ndarray, gen: GeneratedBitstream, rr: RRGraph,
        *, n_lanes: int = 1,
    ) -> None:
        self.decoded = decode_bitstream(bits, gen, rr)
        net = self.decoded.network
        self.sim = CompiledSimulator(program_for(net), n_lanes)
        self._pads = [(pi, net.node_name(pi)) for pi in net.pis]
        self._pos = [net.require(name) for name in net.po_names]

    def reset(self) -> None:
        self.sim.reset()

    def step(self, pi_values: Mapping[str, int]) -> dict[str, int]:
        """Advance one cycle: pad name → lane-packed input (a missing pad
        reads 0); returns PO name → lane-packed output."""
        self.sim.step({pi: pi_values.get(name, 0) for pi, name in self._pads})
        return dict(
            zip(self.decoded.network.po_names, self.sim.node_ints(self._pos))
        )
