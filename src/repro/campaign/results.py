"""Structured results of campaign runs.

Every scenario produces one :class:`ScenarioResult` — a flat, picklable
record of what happened (status, localization outcome, modeled online
overhead) that travels back from worker processes; it carries no host
time.  :class:`CampaignReport` aggregates them with the run's
:class:`~repro.util.trace.Trace`, where all of the campaign's time lives,
and renders through :func:`repro.analysis.reporting.
render_campaign_report`, keeping one reporting surface for experiments and
campaigns alike.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.analysis.reporting import render_campaign_report, save_result
from repro.util.trace import Trace

__all__ = ["STATUSES", "ScenarioResult", "CampaignReport"]

#: Possible scenario outcomes:
#:
#: ``localized``   the walk's bug region contains the ground-truth site;
#: ``missed``      the walk converged elsewhere (or ran out of turns);
#: ``undetected``  the bug never diverged at a primary output within the
#:                 horizon on the *emulated* design — the paper's motivating
#:                 observability problem;
#: ``error``       the scenario raised; see ``error``.
STATUSES = ("localized", "missed", "undetected", "error")


@dataclass
class ScenarioResult:
    """Outcome and accounting for one campaign scenario."""

    scenario: str
    design: str
    kind: str
    status: str
    truth: str = ""
    """Ground-truth bug site (fault signal or mutated gate)."""
    suspect: str = ""
    region_size: int = 0
    failing_po: str = ""
    fail_cycle: int = -1
    turns: int = 0
    signals_checked: int = 0
    offline_cache_hit: bool = False
    offline_ok: bool = True
    """False when the offline stage itself failed (no artifact was built)."""
    modeled_overhead_s: float = 0.0
    """Modeled device-side specialization time summed over all turns."""
    frames_touched: int = 0
    lane: int = 0
    """SIMD lane this scenario occupied in its batch's packed emulation
    (0 in a one-lane batch).  Execution placement, not an outcome — kept
    out of :meth:`outcome` so campaigns at different lane widths diff
    clean."""
    lane_batch: int = 1
    """Lanes in the scenario's batch (1 = a one-lane batch)."""
    error: str = ""

    def as_record(self) -> dict:
        """Plain-dict view (what the reporting layer consumes)."""
        return asdict(self)

    def outcome(self) -> tuple:
        """The deterministic fields — identical across serial/parallel runs
        and across repeated campaigns (timings excluded)."""
        return (
            self.scenario,
            self.design,
            self.kind,
            self.status,
            self.truth,
            self.suspect,
            self.region_size,
            self.failing_po,
            self.fail_cycle,
            self.turns,
            self.signals_checked,
            self.frames_touched,
        )


@dataclass
class CampaignReport:
    """Aggregated outcome of one campaign run."""

    results: list[ScenarioResult]
    workers: int = 1
    """Effective size of the shared worker pool (1 when nothing ran
    pooled or the pool fell back to in-process execution)."""
    cache_stats: dict | None = None
    """Snapshot of the store's :class:`~repro.pipeline.StoreStats`
    ``as_dict()``, including a ``per_stage`` breakdown.  ``None`` when
    the campaign ran cold, without a store."""
    lane_width: int = 1
    """Configured scenarios-per-batch limit of the online engine."""
    lane_batches: list[int] = field(default_factory=list)
    """Lane occupancy per online batch."""
    notes: list[str] = field(default_factory=list)
    journal_path: str = ""
    """Checkpoint journal backing this campaign ('' = journaling off)."""
    trace: Trace = field(default_factory=Trace)
    """The run's record, the one place a campaign's time lives and which
    every timing line of :meth:`render` reads: spans ``campaign`` (the
    whole run), ``offline`` (registration, store probes, build tasks),
    ``online`` (lane batches), ``online.<phase>`` (a lane batch's
    ``setup``, ``golden``, ``detect`` and ``localize``), ``run`` (the
    scheduler loop) and ``stage.<name>`` (a built stage), plus the
    scheduler's counters, ``builds`` (designs whose build ran) and
    ``resumed_scenarios``."""

    @property
    def wall_s(self) -> float:
        """Seconds of the ``campaign`` span."""
        return self.trace.seconds().get("campaign", 0.0)

    def aggregate(self) -> dict:
        """Campaign aggregates — single source of truth is
        :func:`repro.analysis.reporting.aggregate_campaign`."""
        from repro.analysis.reporting import aggregate_campaign

        return aggregate_campaign([r.as_record() for r in self.results])

    def counts(self) -> dict[str, int]:
        return self.aggregate()["counts"]

    @property
    def n_scenarios(self) -> int:
        return len(self.results)

    @property
    def localization_rate(self) -> float:
        return self.aggregate()["localization_rate"]

    def outcomes(self) -> list[tuple]:
        """Deterministic per-scenario outcomes, in scenario order."""
        return [r.outcome() for r in self.results]

    def render(self) -> str:
        """Human-readable campaign report (tables + aggregate lines)."""
        return render_campaign_report(
            [r.as_record() for r in self.results],
            self.trace,
            workers=self.workers,
            cache=self.cache_stats,
            lane_width=self.lane_width,
            lane_batches=self.lane_batches,
            notes=self.notes,
            journal_path=self.journal_path,
        )

    def save(self, name: str = "campaign", base: str | None = None) -> str:
        """Persist the rendered report to ``results/<name>.txt``."""
        return save_result(name, self.render(), base)
