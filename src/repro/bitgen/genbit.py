"""Configuration-bit generation from the physical design.

Every configuration cell of the device gets its value here:

* **LUT masks** — the mapped function's truth table; TLUT masks become
  Boolean functions of the parameters (via the same cofactoring used for
  the virtual PConf);
* **BLE pin selects** — crossbar indices binding each LUT pin to the
  cluster IPIN (or BLE feedback) that carries its signal.  When a tunable
  connection delivers different signals to the same pin under different
  parameter values, the select-field bits are parameterized;
* **FF controls** — output-select (LUT vs FF) and initial state;
* **routing switch bits** — one per programmable RR edge used by the
  routing; edges used only by tunable branches carry the branch's
  activation condition.

The output is a :class:`~repro.core.pconf.ParameterizedBitstream` over the
device's :class:`~repro.arch.config_cells.ConfigLayout`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config_cells import ConfigLayout
from repro.arch.routing_graph import RRGraph, RRNodeType
from repro.core.boolfunc import BoolExpr, bf_const, bf_or
from repro.core.muxnet import InstrumentedDesign
from repro.core.parameters import ParameterSpace
from repro.core.pconf import ParameterizedBitstream
from repro.core.virtual import tlut_bit_exprs
from repro.errors import BitstreamError
from repro.pack.tpack import PackedDesign
from repro.place.tplace import Placement
from repro.route.troute import RoutingResult

__all__ = ["IoMap", "GeneratedBitstream", "generate_bitstream"]


@dataclass
class IoMap:
    """Pinout: pad sites bound to signal names (the device's 'UCF')."""

    inputs: dict[tuple[int, int, int], str] = field(default_factory=dict)
    outputs: dict[tuple[int, int, int], str] = field(default_factory=dict)


@dataclass
class GeneratedBitstream:
    """The PConf plus everything the emulator needs to decode it."""

    pconf: ParameterizedBitstream
    layout: ConfigLayout
    iomap: IoMap
    ble_names: dict[tuple[int, int, int], str] = field(default_factory=dict)
    """(x, y, ble) → produced signal name (debug/reporting aid)."""


def _pin_ipin_code(ptc: int) -> int:
    """Select code for cluster input pin ``ptc`` (0 = unconnected)."""
    return ptc + 1


def _pin_feedback_code(spec, ble_pos: int) -> int:
    """Select code for the feedback output of BLE ``ble_pos``."""
    return spec.n_cluster_inputs + ble_pos + 1


def generate_bitstream(
    packed: PackedDesign,
    placement: Placement,
    routing: RoutingResult,
    layout: ConfigLayout,
    design: InstrumentedDesign | None = None,
) -> GeneratedBitstream:
    """Emit the parameterized bitstream for a routed design."""
    physical = packed.physical
    rr = routing.rr
    spec = packed.arch
    space = design.param_space if design is not None else ParameterSpace()
    param_index_of: dict[int, int] = {}
    if design is not None:
        param_index_of = {
            nid: space.index_of(name)
            for name, nid in design.param_nodes.items()
        }

    pb = ParameterizedBitstream(space, layout.n_bits)
    sel_w = layout.select_width()
    if _pin_feedback_code(spec, spec.n_ble - 1) >= (1 << sel_w):
        raise BitstreamError("select field too narrow for the pin codes")

    # ---- cluster input delivery from routing ------------------------------
    # For each cluster, which IPIN carries which signal, under what condition.
    # connection sink paths end ... -> IPIN -> SINK.
    deliveries: dict[tuple[int, int], dict[int, list[tuple[int, BoolExpr]]]] = {}
    for conn in routing.connections:
        logical = conn.group if conn.group is not None else conn.signal
        for sink, path in conn.tree.sink_paths.items():
            if rr.ntype[sink] != RRNodeType.SINK:
                continue
            if len(path) < 2:
                raise BitstreamError("sink path too short")
            ipin = path[-2]
            if rr.ntype[ipin] != RRNodeType.IPIN:
                raise BitstreamError(
                    f"sink reached from {rr.node_str(ipin)}, expected IPIN"
                )
            x, y = int(rr.xs[sink]), int(rr.ys[sink])
            key = (x, y)
            deliveries.setdefault(key, {}).setdefault(logical, []).append(
                (int(rr.ptc[ipin]), conn.condition)
            )

    iomap = IoMap()
    ble_names: dict[tuple[int, int, int], str] = {}

    # ---- BLE cells -----------------------------------------------------------
    for cluster in packed.clusters:
        x, y = placement.cluster_site(cluster.index)
        produced_by_pos = {
            ble.output: pos for pos, ble in enumerate(cluster.bles)
        }
        lut_out_by_pos = {}
        for pos, ble in enumerate(cluster.bles):
            if ble.lut is not None:
                lut_out_by_pos[ble.lut.output] = pos

        for pos, ble in enumerate(cluster.bles):
            ble_names[(x, y, pos)] = physical.signal_name(ble.output)
            lut_base = layout.lut_base[(x, y, pos)]
            out_sel_bit, init_bit = layout.ble_ctrl[(x, y, pos)]

            atom = ble.lut
            inputs = atom.inputs if atom is not None else ble.inputs
            # pin select fields (code 0 = unconnected, the erased default,
            # so unused pins and unused BLEs need no explicit bits)
            for pin in range(spec.k):
                base = layout.pin_select_base[(x, y, pos, pin)]
                if pin >= len(inputs):
                    continue
                sig = inputs[pin]
                options: list[tuple[int, BoolExpr]]
                if sig in produced_by_pos and sig not in physical.tunable_groups:
                    options = [
                        (
                            _pin_feedback_code(spec, produced_by_pos[sig]),
                            bf_const(1),
                        )
                    ]
                else:
                    delivered = deliveries.get((x, y), {}).get(sig)
                    if delivered is None and sig in produced_by_pos:
                        options = [
                            (
                                _pin_feedback_code(spec, produced_by_pos[sig]),
                                bf_const(1),
                            )
                        ]
                    elif delivered is None:
                        raise BitstreamError(
                            f"cluster ({x},{y}): no route delivers signal "
                            f"{physical.signal_name(sig)!r}"
                        )
                    else:
                        options = [
                            (_pin_ipin_code(ptc), cond)
                            for ptc, cond in delivered
                        ]
                # merge options into per-bit expressions
                for b in range(sel_w):
                    exprs = [
                        cond for val, cond in options if (val >> b) & 1
                    ]
                    if not exprs:
                        pb.set_constant(base + b, 0)
                    else:
                        expr = exprs[0]
                        for e in exprs[1:]:
                            expr = bf_or(expr, e)
                        pb.set_tunable(base + b, expr)

            # LUT mask
            if atom is not None:
                func = atom.func
                assert func is not None
                root_lut = physical.mapping.luts.get(atom.output)
                n_bits = 1 << spec.k
                if root_lut is not None and root_lut.is_tlut:
                    exprs = tlut_bit_exprs(root_lut, param_index_of)
                    phys_mask = len(exprs) - 1
                    for i in range(n_bits):
                        pb.set_tunable(lut_base + i, exprs[i & phys_mask])
                else:
                    n_in = len(inputs)
                    for i in range(n_bits):
                        pb.set_constant(
                            lut_base + i,
                            func.eval_index(i & ((1 << n_in) - 1)),
                        )
            else:
                # FF-only BLE: LUT configured as a pass-through of pin 0
                for i in range(1 << spec.k):
                    pb.set_constant(lut_base + i, i & 1)

            pb.set_constant(out_sel_bit, 1 if ble.uses_ff else 0)
            pb.set_constant(init_bit, ble.ff.ff_init if ble.ff else 0)

    # ---- routing switches -------------------------------------------------------
    for edge, cond in routing.used_switch_edges().items():
        bit = layout.switch_bit.get(edge)
        if bit is None:
            raise BitstreamError(f"edge {edge} has no switch bit")
        pb.set_tunable(bit, cond)

    # ---- pinout --------------------------------------------------------------------
    for sig in physical.pi_signals:
        site = placement.pad_site(sig, "ipad")
        iomap.inputs[site] = physical.signal_name(sig)
    for sig in physical.po_signals:
        site = placement.pad_site(sig, "opad")
        iomap.outputs[site] = physical.signal_name(sig)

    return GeneratedBitstream(
        pconf=pb, layout=layout, iomap=iomap, ble_names=ble_names
    )
