"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can distinguish library failures from
programming mistakes with a single ``except`` clause.  The hierarchy mirrors
the flow stages: netlist handling, technology mapping, physical design
(pack/place/route), bitstream generation, and the parameterized-debug core.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor

#: Executor failures that mean "the worker pool is unusable", not "the
#: submitted task is wrong": the pool could not start (sandboxes,
#: restricted containers), a worker process died (OOM-kill, SIGKILL), or
#: the executor broke mid-flight.  ``BrokenProcessPool`` subclasses
#: ``BrokenExecutor``, so this one tuple covers both the process-pool and
#: generic executor flavors.  The library's pool consumer
#: (:mod:`repro.pipeline.scheduler`) catches exactly this tuple and degrades — respawn, retry or in-process
#: fallback — instead of crashing the campaign.
POOL_ERRORS: tuple = (OSError, PermissionError, BrokenExecutor)


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Structural or semantic problem with a logic network."""


class BlifParseError(NetlistError):
    """Malformed BLIF input.

    Attributes
    ----------
    line_no:
        1-based line number where the problem was detected, or ``None`` if
        the error is not tied to a specific line.
    """

    def __init__(self, message: str, line_no: int | None = None) -> None:
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class SimulationError(NetlistError):
    """Inconsistent stimulus or state during functional simulation."""


class MappingError(ReproError):
    """Technology mapping failed (e.g. unmappable node, bad K)."""


class ArchitectureError(ReproError):
    """Invalid FPGA architecture specification or device construction."""


class PackingError(ReproError):
    """Clustering could not fit the netlist into legal clusters."""


class PlacementError(ReproError):
    """Placement failed or produced an illegal result."""


class RoutingError(ReproError):
    """Routing failed to converge or produced an illegal route."""


class UnroutableError(RoutingError):
    """The router exhausted its iteration budget with congestion left."""


class BitstreamError(ReproError):
    """Bitstream generation / frame addressing failure."""


class ParameterError(ReproError):
    """Problem with parameter declarations or assignments."""


class SpecializationError(ReproError):
    """The SCG could not specialize a parameterized configuration."""


class DebugFlowError(ReproError):
    """Errors in the offline/online debug flow orchestration."""


class WorkloadError(ReproError):
    """Benchmark/workload generation failure."""
