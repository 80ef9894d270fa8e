"""Batch campaign orchestration: one dataflow scheduler, one shared pool.

:func:`run_campaign` drives a whole batch of (design, bug-scenario) pairs
through the two-stage debug flow:

* **Offline work**: scenarios are grouped by their design's offline
  cache key and every distinct design is resolved once — against a
  stage-granular :class:`~repro.pipeline.ArtifactStore` (each compile
  stage reused independently under its content-addressed key) or cold.
  The network and key are derived once per design identity
  (:meth:`~repro.workloads.scenarios.DebugScenario.design_identity`),
  and duplicate scenarios share the build, so a campaign of N stuck-at
  scenarios on one design generates, keys and pays the generic stage
  (and, with ``with_physical``, the full pack/place/route back-end)
  exactly once.
* **Online work**: scenarios are grouped by **lane batch** — the finest
  key that lets them share one packed emulation: the offline artifact's
  identity plus the golden design and the horizon.  Each batch of up to
  ``lane_width`` scenarios runs as the lanes of a single
  :class:`~repro.engine.LaneEngine`
  (:func:`~repro.campaign.runner.run_scenario_batch`); ``lane_width=1``
  runs one-lane batches.

Both phases are tasks on one
:class:`~repro.pipeline.scheduler.DataflowScheduler` sharing one pool of
``workers`` processes.  There is no phase barrier: a design's lane
batches launch the moment its build lands, while other designs are still
packing/placing/routing, and a cold design's independent stages
(``rr-graph`` vs ``place``) run as separate segment tasks
(:func:`~repro.pipeline.scheduler.submit_compile`).  ``workers=1`` is the
same scheduler with nothing pooled.

Store semantics are identical at any worker count: the parent process
performs every compile-stage probe and store put, under the same
content-addressed keys and in the same per-design order, so outcomes are
byte-identical and every stage's hit/miss/invalidation statistics match
exactly.  Each design's build includes the ``emulation`` stage (the
compiled program and the lowered virtual PConf), which travels to pooled
lane batches inside the artifact, so no lane batch compiles or touches
the store.  A pool that cannot start (sandboxes, restricted containers)
falls back to in-parent execution, reported in the notes.

:func:`run_campaign` is journal set-up, :func:`plan` (design identities,
networks, group keys, lane batches and the pool decision, with no
scheduler and no store), :func:`execute` (registers the builds and lane
batches on the scheduler and drains it) and the report.  Results aggregate
into a :class:`~repro.campaign.results.CampaignReport`, whose ``workers``
field reports the *effective* pool size (1 when nothing ran pooled or the
pool fell back to serial), whose ``lane_batches`` field records per-batch
lane occupancy, and whose ``trace`` — the scheduler's
:class:`~repro.util.trace.Trace` — is the one record every timing line of
the report is derived from.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Collection, Mapping, Sequence

from repro.campaign.cache import ArtifactStore
from repro.campaign.results import CampaignReport, ScenarioResult
from repro.campaign.runner import run_scenario_batch
from repro.core.flow import DebugFlowConfig, OfflineStage, offline_cache_key
from repro.pipeline.scheduler import DataflowScheduler, ScheduledTask
from repro.util.trace import Trace
from repro.workloads.scenarios import DebugScenario

__all__ = [
    "CampaignConfig",
    "CampaignPlan",
    "execute",
    "plan",
    "prebuild_offline",
    "run_campaign",
]


@dataclass
class CampaignConfig:
    """Knobs of a campaign run."""

    flow: DebugFlowConfig = field(default_factory=DebugFlowConfig)
    workers: int = 1
    """Size of the one shared worker pool.  Distinct cold designs build
    concurrently (each design's independent stages as separate segment
    tasks) and lane batches run concurrently; ``<= 1`` runs everything
    in the calling process.  Artifacts land under the same
    content-addressed keys at any size, so outcomes and warm restarts are
    byte-identical."""
    with_physical: bool = False
    """Include the physical back-end (pack/place/route, bitstream) in the
    offline artifact — the paper's full §IV-A stage."""
    max_turns: int = 48
    """Per-scenario budget of debugging turns for the localization walk."""
    lane_width: int = 64
    """Scenarios packed per emulation batch (≥ 1; widths beyond 64 span
    multiple ``uint64`` words — lane *k* is word ``k // 64``, bit
    ``k % 64``).  Scenarios sharing an offline artifact and a horizon are
    batched into lanes of one packed :class:`~repro.engine.LaneEngine`;
    ``1`` runs one-lane batches.  Outcomes are byte-identical at every
    width — only the throughput changes."""
    task_timeout_s: float | None = None
    """Wall-clock budget per pooled task attempt (offline segment or
    online lane batch).  ``None`` (default) never times out.  A timed-out
    task is retried up to ``task_retries`` times with deterministic
    backoff, then reported as an error result — outcomes depend only on
    whether the work eventually succeeded, never on the elapsed time."""
    task_retries: int = 1
    """Extra attempts for a pooled task that timed out or raised.  Stage
    bodies marshal their own exceptions into error *results*, so
    deterministic failures do not burn retries — only supervision-level
    faults (hangs, worker loss, marshalling errors) do."""
    fail_fast: bool = False
    """Abort the whole campaign at the first failing design: pending
    scenarios complete as ``status="error"`` placeholders (not journaled,
    so a later ``resume`` recomputes them).  Default ``False`` ("keep
    going"): a failure is isolated to its own design's scenarios."""
    campaign_id: str | None = None
    """Enable the checkpoint journal under this identity (requires a
    store with a persistent ``cache_dir``).  Every finished scenario is
    appended to ``<cache_dir>/journal/<campaign_id>.jsonl``; see
    ``resume``."""
    resume: bool = False
    """Replay finished scenarios from ``campaign_id``'s journal and run
    only the remainder.  The resumed campaign's deterministic outcomes
    are byte-identical to an uninterrupted run's; a journal written by a
    different scenario list or flow config is refused."""
    journal_fsync: bool = False
    """fsync the journal after every appended line (crash-consistent even
    against power loss, at a per-scenario I/O cost)."""


#: One pool task: a stripped offline artifact, the scenarios of one lane
#: batch and the turn budget.  Each distinct artifact is pickled once per
#: batch instead of once per scenario; the batch's golden network is not
#: shipped, since generation is memoized per process.
GroupPayload = tuple[OfflineStage, "list[tuple[int, DebugScenario]]", int]


def _online_group_worker(
    payload: GroupPayload,
) -> tuple[list[tuple[int, ScenarioResult]], Trace]:
    """One lane batch: its indexed results and the trace of its phases."""
    offline, items, max_turns = payload
    trace = Trace()
    results = run_scenario_batch(
        [sc for _idx, sc in items], offline, max_turns=max_turns, trace=trace
    )
    return [(idx, r) for (idx, _sc), r in zip(items, results)], trace


def _payloads(
    stage: OfflineStage,
    batches: "list[list[tuple[int, DebugScenario]]]",
    max_turns: int,
) -> list[GroupPayload]:
    """One payload per lane batch of a built design.  The online loop runs
    against the virtual PConf: the artifact is stripped of its physical
    stage (MBs of placement/routing state) once, not shipped per batch."""
    stripped = replace(stage, physical=None)
    return [(stripped, batch, max_turns) for batch in batches]


def _make_pool(n: int):
    # resolved through the module global so tests that monkeypatch
    # ProcessPoolExecutor on this module intercept pool creation
    return ProcessPoolExecutor(max_workers=n)


def _offline_group_key(
    net, flow: DebugFlowConfig, with_physical: bool
) -> str:
    """The identity under which scenarios share one offline build."""
    return offline_cache_key(
        net, flow, extra=("physical",) if with_physical else ()
    )


def _error(sc: DebugScenario, message: str, **fields) -> ScenarioResult:
    return ScenarioResult(
        scenario=sc.name,
        design=sc.spec.name,
        kind=sc.kind,
        status="error",
        error=message,
        **fields,
    )


def _offline_error(sc: DebugScenario, message: str) -> ScenarioResult:
    return _error(sc, f"offline stage failed: {message}", offline_ok=False)


def _submit_design_build(
    sched: DataflowScheduler,
    net,
    flow: DebugFlowConfig,
    with_physical: bool,
    store: ArtifactStore | None,
    label: str,
    *,
    pooled: bool,
    timeout_s: "float | None" = None,
    max_retries: int = 0,
    on_complete,
) -> list[ScheduledTask]:
    """Register one design's offline build as dataflow tasks.

    :func:`~repro.pipeline.submit_design` probes ``store`` **now**, in
    the parent, one single-read lookup per stage — the same probes
    :func:`~repro.campaign.cache.resolve_offline` makes.  A warm design
    fires ``on_complete(stage, True, None)`` synchronously and creates no
    task; a cold design becomes fused segment tasks whose completion
    lands every built stage in the store parent-side, assembles the
    artifact (its ``trace`` holds the stages built) and fires
    ``on_complete(stage, False, None)``.  Failures fire
    ``on_complete(None, False, message)``.  Returns the created tasks
    (empty when the design resolved warm or failed to plan).
    """
    from repro.pipeline import assemble_offline, debug_stages, submit_design

    def complete(result, err):
        stage = None
        if err is None:
            try:
                stage = assemble_offline(result)
            except Exception as exc:  # noqa: BLE001
                err = f"{type(exc).__name__}: {exc}"
        if stage is None:
            on_complete(None, False, err)
        else:
            on_complete(stage, result.full_hit, None)

    try:
        return submit_design(
            sched,
            net,
            flow,
            stages=debug_stages(with_physical),
            store=store,
            pooled=pooled,
            label=label,
            timeout_s=timeout_s,
            max_retries=max_retries,
            on_complete=complete,
        )
    except Exception as exc:  # noqa: BLE001 — one bad design ≠ dead campaign
        on_complete(None, False, f"{type(exc).__name__}: {exc}")
        return []


def prebuild_offline(
    nets: "Sequence[object]",
    *,
    flow: DebugFlowConfig | None = None,
    cache: ArtifactStore | None = None,
    with_physical: bool = False,
    workers: int = 1,
    notes: "list[str] | None" = None,
) -> "list[OfflineStage | None]":
    """Warm the store with offline artifacts for ``nets``, concurrently.

    The campaign's scheduler path, for callers that need artifacts
    *before* a campaign exists — e.g. stuck-at screening, which picks
    fault sites from each design's tap directory.  Designs are deduped by
    offline cache key; cold ones build on a pool of up to ``workers``,
    under the keys :func:`~repro.campaign.cache.resolve_offline` would
    use.  Returns each net's artifact, ``None`` where its build
    failed; ``notes`` collects fallback messages (pool unavailable etc.).
    """
    flow = flow or DebugFlowConfig()
    keys = [_offline_group_key(net, flow, with_physical) for net in nets]
    # nets sharing a key have the same content: any one of them builds it
    keyed = dict(zip(keys, nets))
    built: "dict[str, OfflineStage]" = {}
    sched = DataflowScheduler(
        pool_size=min(max(1, workers), max(1, len(keyed))),
        executor_factory=_make_pool,
    )
    try:
        for key, net in keyed.items():

            def done(stage, _hit, err, key=key):
                if err is None:
                    built[key] = stage

            _submit_design_build(
                sched,
                net,
                flow,
                with_physical,
                cache,
                key[:12],
                pooled=workers > 1,
                on_complete=done,
            )
        sched.run()
    finally:
        sched.shutdown()
    if sched.pool_broken and notes is not None:
        notes.append(
            "offline prebuild pool unavailable "
            f"({type(sched.pool_error).__name__}); built cold design(s) "
            "in-process"
        )
    return [built.get(key) for key in keys]


@dataclass
class CampaignPlan:
    """What a campaign builds and runs, derived before anything runs."""

    groups: dict = field(default_factory=dict)
    """Offline group key -> ``[(index, scenario)]`` sharing its build."""
    nets: dict = field(default_factory=dict)
    """Offline group key -> the design's debug network."""
    errors: dict[int, str] = field(default_factory=dict)
    """Scenario index -> why its design could not be derived."""
    batches: dict = field(default_factory=dict)
    """Offline group key -> its lane batches: scenarios sharing one
    packed emulation (one artifact, golden design and horizon), at most
    ``lane_width`` each."""
    pooled_online: bool = False
    """Lane batches go to the pool only with more than one to spread: a
    lone batch rides one worker anyway, after the parent paid pool
    startup and artifact pickling."""

    @property
    def n_batches(self) -> int:
        return sum(map(len, self.batches.values()))


def plan(
    scenarios: Sequence[DebugScenario],
    config: CampaignConfig,
    trace: Trace,
    *,
    skip: Collection[int] = (),
) -> CampaignPlan:
    """Derive what a campaign over ``scenarios`` builds and runs.

    One debug network and offline group key per design identity
    (:meth:`~repro.workloads.scenarios.DebugScenario.design_identity`),
    the scenarios of each group, the lane-batch sizes and the pool
    decision — without a scheduler or a store.  Scenarios in ``skip``
    (replayed from a journal) are left out.  Each scenario's
    registration is one ``offline`` span of ``trace``.
    """
    out = CampaignPlan()
    # design identity -> (group key, network, error message)
    designs: dict[tuple, tuple] = {}
    # group key -> (spec, design seed, horizon) -> scenarios
    lanes: dict[str, dict[tuple, list]] = {}
    for idx, sc in enumerate(scenarios):
        if idx in skip:
            continue
        with trace.span("offline"):
            identity = sc.design_identity()
            if identity not in designs:
                try:
                    net = sc.debug_network()
                    gkey = _offline_group_key(
                        net, config.flow, config.with_physical
                    )
                    designs[identity] = (gkey, net, None)
                except Exception as exc:  # noqa: BLE001
                    err = f"{type(exc).__name__}: {exc}"
                    designs[identity] = (None, None, err)
        gkey, net, err = designs[identity]
        if err is not None:
            out.errors[idx] = err
            continue
        out.groups.setdefault(gkey, []).append((idx, sc))
        out.nets.setdefault(gkey, net)
        lanes.setdefault(gkey, {}).setdefault(
            (sc.spec, sc.design_seed, sc.horizon), []
        ).append((idx, sc))
    width = max(1, config.lane_width)
    out.batches = {
        gkey: [
            items[base : base + width]
            for items in keyed.values()
            for base in range(0, len(items), width)
        ]
        for gkey, keyed in lanes.items()
    }
    out.pooled_online = config.workers > 1 and out.n_batches > 1
    return out


def execute(
    campaign: CampaignPlan,
    scenarios: Sequence[DebugScenario],
    sched: DataflowScheduler,
    *,
    config: CampaignConfig,
    cache: ArtifactStore | None,
    journal,
    resumed: Mapping[int, ScenarioResult],
    notes: list[str],
) -> tuple[list[ScenarioResult], list[int], int]:
    """Register the builds and lane batches of ``campaign`` on ``sched``
    and drain it; ``campaign`` must be planned into ``sched.trace``.

    Each design's store probe is one ``offline`` span of ``sched.trace``,
    each design whose build ran adds one to its ``builds`` counter, and
    each lane batch's phases land in it as ``online.<phase>`` spans,
    pooled or not; lane batches launch the moment their design's build
    lands.  Every final outcome is journaled (when ``journal`` is given)
    as it lands.  Returns every scenario's result in scenario order
    (``resumed`` ones as replayed), the lanes of each launched batch and
    the effective pool size.
    """
    trace = sched.trace
    workers = max(1, config.workers)
    hits: dict[int, bool] = {}
    done: dict[int, ScenarioResult] = {}
    payloads: list[GroupPayload] = []
    aborted: list[str] = []

    def keep(idx: int, result: ScenarioResult, journaled: bool = True):
        result.offline_cache_hit = hits.get(idx, False)
        done[idx] = result
        if journal is not None and journaled:
            # the full record a resumed campaign replays
            journal.append_scenario(idx, result.as_record())

    def abort(err: str) -> None:
        if config.fail_fast and not aborted:
            aborted.append(err)
            sched.abort()

    def online_done(_task, out) -> None:
        indexed, batch_trace = out
        # the batch's phases were measured on this clock (in a pool
        # worker or here), so they are recorded as they are
        for name, start, end, _parent in batch_trace.spans:
            trace.record(f"online.{name}", start, end)
        for idx, res in indexed:
            keep(idx, res)

    def online_failed(payload: GroupPayload, _task, msg: str) -> None:
        # supervision gave up on this lane batch (timeout/retries
        # exhausted).  The error message is wall-clock-dependent, so the
        # results are NOT journaled — a resumed campaign re-runs them.
        for idx, sc in payload[1]:
            error = _error(sc, f"online stage failed: {msg}")
            keep(idx, error, journaled=False)
        abort(msg)

    def design_done(gkey, stage, hit, err):
        items = campaign.groups[gkey]
        if err is not None:
            for idx, sc in items:
                keep(idx, _offline_error(sc, err))
            abort(err)
            return
        if not hit:
            trace.add("builds")
        # duplicates of a built design ride the group's artifact: a cache
        # hit when a store holds it, plain build sharing when running
        # cold (outcomes are unaffected, only the redundant rebuilds go)
        for idx, _sc in items:
            hits[idx] = hit if idx == items[0][0] else cache is not None
        # lane batches launch the moment their design's build lands
        for payload in _payloads(
            stage, campaign.batches[gkey], config.max_turns
        ):
            if aborted:
                return
            items = payload[1]
            payloads.append(payload)
            sched.add(
                ScheduledTask(
                    kind="online",
                    label=f"lanes[{len(items)}]",
                    worker_fn=_online_group_worker,
                    payload=payload,
                    pooled=campaign.pooled_online,
                    on_done=online_done,
                    on_fail=partial(online_failed, payload),
                    timeout_s=config.task_timeout_s,
                    max_retries=max(0, config.task_retries),
                    key=f"online:{items[0][0]}",
                )
            )

    for idx, err in campaign.errors.items():
        keep(idx, _offline_error(scenarios[idx], err))
        abort(done[idx].error)
    if workers > 1 and campaign.n_batches == 1:
        notes.append(
            "worker pool skipped: 1 online payload (serial is cheaper than "
            f"pool startup; requested {workers} workers)"
        )

    # -- offline tasks: one build unit per distinct design ---------------------
    n_cold = 0
    for gkey in campaign.groups:
        if aborted:
            break
        with trace.span("offline"):
            created = _submit_design_build(
                sched,
                campaign.nets[gkey],
                config.flow,
                config.with_physical,
                cache,
                gkey[:12],
                pooled=workers > 1,
                timeout_s=config.task_timeout_s,
                max_retries=max(0, config.task_retries),
                on_complete=partial(design_done, gkey),
            )
        n_cold += bool(created)

    # one shared pool, sized for whichever phase needs more slots — the
    # pool is created lazily at the first pooled dispatch, so fully
    # inline configurations never pay process startup
    sched.pool_size = max(
        min(workers, max(1, n_cold)),
        min(workers, campaign.n_batches) if campaign.pooled_online else 1,
    )
    try:
        sched.run()
    finally:
        sched.shutdown()

    # -- fallback notes + effective pool size ----------------------------------
    if "offline" in sched.inline_fallbacks:
        notes.append(
            "offline build pool unavailable "
            f"({type(sched.pool_error).__name__}); built remaining cold "
            "design(s) in-process"
        )
    if "online" in sched.inline_fallbacks:
        notes.append(
            f"worker pool unavailable ({type(sched.pool_error).__name__}); "
            f"fell back to serial execution (effective workers: 1, requested "
            f"{workers})"
        )
    ran_pooled = (workers > 1 and n_cold > 0) or (
        campaign.pooled_online and bool(payloads)
    )
    effective_workers = (
        sched.pool_size if ran_pooled and not sched.inline_fallbacks else 1
    )
    abort_err = aborted[0] if aborted else None
    if abort_err is not None:
        notes.append(f"campaign aborted (fail-fast): {abort_err}")

    # re-interleave results — journal replays, offline-failure and
    # fail-fast placeholders — in scenario order
    results: list[ScenarioResult] = []
    for idx, sc in enumerate(scenarios):
        if idx in resumed:
            # replayed records keep their original accounting
            results.append(resumed[idx])
            continue
        # absent: cancelled by a fail-fast abort before any outcome
        # existed; deliberately not journaled (a resume recomputes it)
        results.append(
            done.get(idx)
            or _error(
                sc,
                f"aborted (fail-fast): {abort_err}",
                offline_cache_hit=hits.get(idx, False),
            )
        )
    return results, [len(p[1]) for p in payloads], effective_workers


def _open_journal(
    scenarios: Sequence[DebugScenario],
    config: CampaignConfig,
    cache: ArtifactStore | None,
    notes: list[str],
):
    """The campaign's checkpoint journal and the results it replays:
    ``(journal or None, {scenario index: result})``."""
    if not config.campaign_id:
        return None, {}
    from repro.campaign.journal import (
        CampaignJournal,
        campaign_fingerprint,
        journal_path,
    )

    cache_dir = cache.cache_dir if cache is not None else None
    if cache_dir is None:
        if config.resume:
            raise ValueError(
                "resume requires a persistent cache directory "
                "(the journal lives under cache_dir/journal/)"
            )
        notes.append(
            "journal disabled: no persistent cache directory "
            f"(campaign id {config.campaign_id!r})"
        )
        return None, {}
    fp = campaign_fingerprint(scenarios, config)
    jpath = journal_path(cache_dir, config.campaign_id)
    if not config.resume:
        journal = CampaignJournal.start(
            jpath,
            campaign_id=config.campaign_id,
            fingerprint=fp,
            n_scenarios=len(scenarios),
            fsync=config.journal_fsync,
        )
        return journal, {}
    # the previous run may have died mid-put; readers never touch .tmp
    # files, so sweeping the leftovers is safe here (no concurrent writer
    # exists yet)
    cache.sweep_stale_tmp()
    journal, done_records = CampaignJournal.resume(
        jpath, fingerprint=fp, fsync=config.journal_fsync
    )
    resumed = {
        idx: ScenarioResult(**rec)
        for idx, rec in done_records.items()
        if 0 <= idx < len(scenarios)
    }
    notes.append(
        f"resumed {len(resumed)} of {len(scenarios)} scenario(s) from journal"
    )
    return journal, resumed


def run_campaign(
    scenarios: Sequence[DebugScenario],
    *,
    config: CampaignConfig | None = None,
    cache: ArtifactStore | None = None,
) -> CampaignReport:
    """Run a debug campaign over ``scenarios``.

    Parameters
    ----------
    scenarios:
        The (design, bug) pairs to localize — see
        :mod:`repro.workloads.scenarios` for generators.
    config:
        Orchestration knobs; defaults to serial execution, generic-only
        offline artifacts and a 48-turn localization budget.
    cache:
        Offline-artifact store: an :class:`~repro.pipeline.ArtifactStore`
        reuses every compile stage across scenarios, campaigns and (with
        a ``cache_dir``) processes; ``None`` runs *cold* — each distinct
        design builds once for this campaign and nothing is kept.

    Scenario outcomes are deterministic — the same scenarios and flow
    config produce the same statuses, suspects and turn counts at any
    worker count, lane width and store state.  Journal set-up, then
    :func:`plan`, :func:`execute` and the report, all recorded in the
    scheduler's trace.
    """
    config = config or CampaignConfig()
    sched = DataflowScheduler(executor_factory=_make_pool)
    trace = sched.trace
    notes: list[str] = []
    with trace.span("campaign"):
        journal, resumed = _open_journal(scenarios, config, cache, notes)
        trace.add("resumed_scenarios", len(resumed))
        try:
            results, lane_batches, workers = execute(
                plan(scenarios, config, trace, skip=resumed),
                scenarios,
                sched,
                config=config,
                cache=cache,
                journal=journal,
                resumed=resumed,
                notes=notes,
            )
        finally:
            if journal is not None:
                journal.close()
    return CampaignReport(
        results=results,
        workers=workers,
        cache_stats=cache.stats.as_dict() if cache is not None else None,
        lane_width=max(1, config.lane_width),
        lane_batches=lane_batches,
        notes=notes,
        journal_path=journal.path if journal is not None else "",
        trace=trace,
    )
