"""The paper's contribution: parameterized configurations for debugging.

Subpackage map (paper section in parentheses):

* :mod:`repro.core.parameters` — parameter declarations/assignments (§II-A)
* :mod:`repro.core.boolfunc` — Boolean functions of parameters (§II-A)
* :mod:`repro.core.pconf` — the parameterized bitstream (§I, §III)
* :mod:`repro.core.annotate` — the ``.par`` signal annotation (§V-A)
* :mod:`repro.core.muxnet` — signal parameterisation / mux network (§IV-A.2)
* :mod:`repro.core.tracebuffer` — trace buffers (§I)
* :mod:`repro.core.flow` — the offline generic stage (§IV-A)
* :mod:`repro.core.scg` — the Specialized Configuration Generator (§IV-B)
* :mod:`repro.core.debug` — the online debugging loop (§IV-B, Fig. 4b)
* :mod:`repro.core.selection` — signal-selection strategies (§VI)
* :mod:`repro.core.costmodel` — device timing model (§V-C)
"""

from repro.core.parameters import Parameter, ParameterSpace, ParameterAssignment
from repro.core.boolfunc import BoolExpr, bf_const, bf_var, bf_and, bf_or, bf_not, bf_xor
from repro.core.annotate import ParAnnotation, write_par, parse_par
from repro.core.muxnet import (
    InstrumentedDesign,
    TraceGroup,
    build_trace_network,
)
from repro.core.pconf import ParameterizedBitstream
from repro.core.scg import SpecializedConfigGenerator
from repro.core.flow import DebugFlowConfig, OfflineStage, run_generic_stage
from repro.core.debug import DebugSession
from repro.core.selection import (
    SelectionStrategy,
    ManualSelection,
    RoundRobinSweep,
    ConeOfInfluenceSelection,
)
from repro.core.costmodel import Virtex5Model, ReconfigCostReport

__all__ = [
    "Parameter",
    "ParameterSpace",
    "ParameterAssignment",
    "BoolExpr",
    "bf_const",
    "bf_var",
    "bf_and",
    "bf_or",
    "bf_not",
    "bf_xor",
    "ParAnnotation",
    "write_par",
    "parse_par",
    "InstrumentedDesign",
    "TraceGroup",
    "build_trace_network",
    "ParameterizedBitstream",
    "SpecializedConfigGenerator",
    "DebugFlowConfig",
    "OfflineStage",
    "run_generic_stage",
    "DebugSession",
    "SelectionStrategy",
    "ManualSelection",
    "RoundRobinSweep",
    "ConeOfInfluenceSelection",
    "Virtex5Model",
    "ReconfigCostReport",
]
