"""repro — parameterized FPGA reconfiguration for efficient hardware debugging.

A from-scratch Python reproduction of Kourfali & Stroobandt, *"Efficient
Hardware Debugging using Parameterized FPGA Reconfiguration"* (IPDPSW
2016): a complete FPGA CAD flow (netlists, technology mapping, pack/place/
route, bitstreams) plus the paper's contribution — a parameterized debug
multiplexer network living in the FPGA's routing fabric, specialized in
micro-seconds instead of recompiled in hours.

Quick start::

    from repro import generate_circuit, get_spec, run_generic_stage, DebugSession

    net = generate_circuit(get_spec("stereov."))
    offline = run_generic_stage(net)          # §IV-A: the generic stage, once
    session = DebugSession(offline)           # §IV-B: the online stage
    session.observe(session.observable_signals[:4])
    session.run(64, stimulus=lambda cycle: {"pi0": cycle & 1})
    print(session.waveforms())

See ``docs/ARCHITECTURE.md`` for how the flow maps onto the code and the
README for the experiments and their measured results.
"""

from repro.errors import (
    ReproError,
    NetlistError,
    MappingError,
    RoutingError,
    ParameterError,
    SpecializationError,
    DebugFlowError,
)
from repro.netlist import (
    LogicNetwork,
    TruthTable,
    parse_blif,
    parse_blif_file,
    write_blif,
)
from repro.workloads import generate_circuit, get_spec, inject_bug, paper_suite
from repro.mapping import AbcMap, MappingResult, SimpleMap, TconMap
from repro.core import (
    DebugFlowConfig,
    DebugSession,
    OfflineStage,
    ParameterizedBitstream,
    SpecializedConfigGenerator,
    Virtex5Model,
    build_trace_network,
    run_generic_stage,
)
from repro.baselines import RecompileModel, run_conventional_flow
from repro.engine import LaneEngine

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "NetlistError",
    "MappingError",
    "RoutingError",
    "ParameterError",
    "SpecializationError",
    "DebugFlowError",
    "LogicNetwork",
    "TruthTable",
    "parse_blif",
    "parse_blif_file",
    "write_blif",
    "generate_circuit",
    "get_spec",
    "paper_suite",
    "inject_bug",
    "SimpleMap",
    "AbcMap",
    "TconMap",
    "MappingResult",
    "DebugFlowConfig",
    "DebugSession",
    "LaneEngine",
    "OfflineStage",
    "ParameterizedBitstream",
    "SpecializedConfigGenerator",
    "Virtex5Model",
    "build_trace_network",
    "run_generic_stage",
    "run_conventional_flow",
    "RecompileModel",
    "__version__",
]
