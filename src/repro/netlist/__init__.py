"""Logic-netlist substrate.

This package provides the gate-level data structures the whole flow is built
on: truth tables, sum-of-products covers, the :class:`LogicNetwork` DAG,
BLIF reading/writing, structural validation, cleanup transforms and a
bit-parallel functional simulator.

It corresponds to the front half of the paper's tool flow (Fig. 5): the
synthesized ``.blif`` netlist that enters signal parameterisation.
"""

from repro.netlist.truthtable import TruthTable
from repro.netlist.sop import Cube, Cover, cover_to_truthtable, truthtable_to_cover
from repro.netlist.network import LogicNetwork, NodeKind, Latch
from repro.netlist.blif import parse_blif, parse_blif_file, write_blif
from repro.netlist.validate import validate_network
from repro.netlist.transforms import sweep_dead, propagate_constants, remove_buffers
from repro.netlist.simulate import (
    simulate_combinational,
    SequentialSimulator,
    random_stimulus,
    check_equivalent,
)
from repro.netlist.compiled import (
    COMPILED_SIM_STAGE,
    CompiledProgram,
    CompiledSimulator,
    compile_network,
    network_signature,
    program_for,
)
from repro.netlist.stats import network_stats, NetworkStats, logic_depth

__all__ = [
    "TruthTable",
    "Cube",
    "Cover",
    "cover_to_truthtable",
    "truthtable_to_cover",
    "LogicNetwork",
    "NodeKind",
    "Latch",
    "parse_blif",
    "parse_blif_file",
    "write_blif",
    "validate_network",
    "sweep_dead",
    "propagate_constants",
    "remove_buffers",
    "simulate_combinational",
    "SequentialSimulator",
    "random_stimulus",
    "check_equivalent",
    "COMPILED_SIM_STAGE",
    "CompiledProgram",
    "CompiledSimulator",
    "compile_network",
    "network_signature",
    "program_for",
    "network_stats",
    "NetworkStats",
    "logic_depth",
]
