"""Structured results of campaign runs.

Every scenario produces one :class:`ScenarioResult` — a flat, picklable
record of what happened (status, localization outcome, per-phase timings
via :class:`~repro.util.timing.PhaseTimer`, modeled online overhead) that
travels back from worker processes.  :class:`CampaignReport` aggregates
them and renders through :func:`repro.analysis.reporting.
render_campaign_report`, keeping one reporting surface for experiments and
campaigns alike.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.analysis.reporting import render_campaign_report, save_result

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
    offline_s: float = 0.0
    """Wall-clock the orchestrator spent obtaining this scenario's offline
    artifact (≈0 on a cache hit)."""
    setup_s: float = 0.0
    golden_s: float = 0.0
    detect_s: float = 0.0
    localize_s: float = 0.0
    online_s: float = 0.0
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
    wall_s: float = 0.0
    workers: int = 1
    """Effective size of the shared worker pool (1 when nothing ran
    pooled or the pool fell back to in-process execution)."""
    offline_total_s: float = 0.0
    offline_wall_s: float = 0.0
    """Wall-clock of the whole offline phase; less than
    ``offline_total_s`` when cold designs built concurrently."""
    offline_stage_s: dict[str, float] = field(default_factory=dict)
    """Seconds spent *building* each offline stage this run (cache hits
    excluded), summed across designs — the per-stage cost breakdown
    behind ``offline_total_s``."""
    online_total_s: float = 0.0
    cache_stats: dict | None = None
    """Snapshot of the store's :class:`~repro.pipeline.StoreStats`
    ``as_dict()``, including a ``per_stage`` breakdown.  ``None`` when
    the campaign ran cold, without a store."""
    lane_width: int = 1
    """Configured scenarios-per-batch limit of the online engine."""
    lane_batches: list[int] = field(default_factory=list)
    """Lane occupancy per online batch."""
    notes: list[str] = field(default_factory=list)
    sched_wall_s: float = 0.0
    """Wall-clock the dataflow scheduler's event loop ran — the
    critical-path time all task execution (offline and online) fit in."""
    overlap_ratio: float = 0.0
    """Fraction of ``sched_wall_s`` during which offline and online work
    executed simultaneously — 0 with nothing to overlap, approaching the
    smaller phase's share of the wall when one hides behind the other."""
    stage_concurrency: dict[str, float] = field(default_factory=dict)
    """Per-stage busy-seconds / span-seconds over the campaign (pooled
    builds only; includes an ``"online"`` pseudo-stage).  Values above 1
    mean that stage ran concurrently across designs."""
    retries: int = 0
    """Supervised task retries performed (timeouts + task failures;
    retries change wall clock only, never outcomes)."""
    timeouts: int = 0
    """Pooled task attempts that exceeded their wall-clock budget."""
    pool_respawns: int = 0
    """Worker-pool teardown/respawn cycles the supervisor performed."""
    resumed_scenarios: int = 0
    """Scenarios replayed from the campaign journal instead of re-run."""
    journal_path: str = ""
    """Checkpoint journal backing this campaign ('' = journaling off)."""

    def resilience(self) -> dict:
        """Supervision counters + checkpoint state, for the report's
        ``resilience:`` line and the benchmark JSON."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_respawns": self.pool_respawns,
            "resumed_scenarios": self.resumed_scenarios,
            "journal_path": self.journal_path,
        }

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
            wall_s=self.wall_s,
            workers=self.workers,
            cache=self.cache_stats,
            lane_width=self.lane_width,
            lane_batches=self.lane_batches,
            offline_wall_s=self.offline_wall_s,
            offline_stage_s=self.offline_stage_s,
            notes=self.notes,
            sched_wall_s=self.sched_wall_s,
            overlap_ratio=self.overlap_ratio,
            stage_concurrency=self.stage_concurrency,
            resilience=self.resilience(),
        )

    def save(self, name: str = "campaign", base: str | None = None) -> str:
        """Persist the rendered report to ``results/<name>.txt``."""
        return save_result(name, self.render(), base)
