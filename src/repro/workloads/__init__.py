"""Benchmark workloads.

The paper evaluates on ISCAS89 and VTR benchmark netlists, which are not
redistributable here.  This package generates *synthetic stand-ins* with the
same published structural statistics (gate count, logic depth, latch count,
I/O width) per benchmark, deterministically from a seed — see
``docs/ARCHITECTURE.md`` §2 for the experiments that run on them.
"""

from repro.workloads.suites import (
    BenchmarkSpec,
    PAPER_SUITE,
    paper_suite,
    get_spec,
)
from repro.workloads.generator import generate_circuit
from repro.workloads.perturb import inject_bug, InjectedBug
from repro.workloads.scenarios import (
    DebugScenario,
    campaign_spec,
    mutation_scenarios,
    stimulus_script,
    stuck_at_scenarios,
)

__all__ = [
    "BenchmarkSpec",
    "PAPER_SUITE",
    "paper_suite",
    "get_spec",
    "generate_circuit",
    "inject_bug",
    "InjectedBug",
    "DebugScenario",
    "campaign_spec",
    "mutation_scenarios",
    "stimulus_script",
    "stuck_at_scenarios",
]
