"""Experiment drivers and reporting.

One entry point per paper artifact (see ``docs/ARCHITECTURE.md`` §2):

* :func:`~repro.analysis.experiments.run_table1` — Table I (area)
* :func:`~repro.analysis.experiments.run_table2` — Table II (depth)
* :func:`~repro.analysis.experiments.run_fig7` — Fig. 7 (area chart)
* :func:`~repro.analysis.experiments.run_compile_time` — §V-C.1
* :func:`~repro.analysis.experiments.run_runtime_overhead` — §V-C.2
"""

from repro.analysis.experiments import (
    BenchColumns,
    run_benchmark_columns,
    run_table1,
    run_table2,
    run_fig7,
    run_compile_time,
    run_runtime_overhead,
)
from repro.analysis.reporting import ascii_bar_chart, save_result

__all__ = [
    "BenchColumns",
    "run_benchmark_columns",
    "run_table1",
    "run_table2",
    "run_fig7",
    "run_compile_time",
    "run_runtime_overhead",
    "ascii_bar_chart",
    "save_result",
]
