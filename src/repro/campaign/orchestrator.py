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
byte-identical and the compile stages' hit/miss/invalidation statistics
match exactly.  (Compiled simulation programs are stored only by lane
batches that run in the parent; a pooled batch compiles its own.)  A
pool that cannot start (sandboxes, restricted containers) falls back to
in-parent execution, reported in the notes.

Results aggregate into a :class:`~repro.campaign.results.CampaignReport`,
whose ``workers`` field reports the *effective* pool size (1 when nothing
ran pooled or the pool fell back to serial), whose ``lane_batches`` field
records per-batch lane occupancy, and which carries the critical-path
breakdown — ``sched_wall_s``, ``overlap_ratio`` and per-stage
concurrency.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.campaign.cache import ArtifactStore
from repro.campaign.results import CampaignReport, ScenarioResult
from repro.campaign.runner import run_scenario_batch
from repro.core.flow import DebugFlowConfig, OfflineStage, offline_cache_key
from repro.pipeline.scheduler import (
    DataflowScheduler,
    ScheduledTask,
    submit_compile,
)
from repro.workloads.scenarios import DebugScenario

__all__ = ["CampaignConfig", "prebuild_offline", "run_campaign"]


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
    offline artifact — the paper's full §IV-A stage.  Currently limited to
    combinational designs (the TPaR back-end does not yet route latches)."""
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
#: batch instead of once per scenario.
GroupPayload = tuple[OfflineStage, "list[tuple[int, DebugScenario]]", int]


def _online_group_worker(
    payload: GroupPayload, store=None
) -> list[tuple[int, ScenarioResult]]:
    offline, items, max_turns = payload
    results = run_scenario_batch(
        [sc for _idx, sc in items], offline, max_turns=max_turns, store=store
    )
    return [(idx, result) for (idx, _sc), result in zip(items, results)]


def _lane_batch_key(sc: DebugScenario, stage: OfflineStage) -> tuple:
    """The finest grouping under which scenarios can share lanes: one
    offline artifact, one golden design, one replay horizon."""
    return (
        stage.cache_key or id(stage),
        sc.spec,
        sc.design_seed,
        sc.horizon,
    )


def _group_payloads(
    resolved: "list[tuple[int, DebugScenario, OfflineStage]]",
    max_turns: int,
    lane_width: int,
) -> list[GroupPayload]:
    """Split scenarios into lane batches, one payload each.

    Scenarios are grouped by :func:`_lane_batch_key` and split into
    batches of at most ``lane_width`` lanes; each batch is one payload
    (one engine, one worker task).  The artifact is stripped of its
    physical stage **once** per group — the online loop runs against the
    virtual PConf.
    """
    groups: dict[tuple, list[tuple[int, DebugScenario, OfflineStage]]] = {}
    for idx, sc, stage in resolved:
        groups.setdefault(_lane_batch_key(sc, stage), []).append(
            (idx, sc, stage)
        )
    payloads: list[GroupPayload] = []
    for items in groups.values():
        # the online loop runs against the virtual PConf; don't ship the
        # physical stage (MBs of placement/routing state) to workers
        stripped = replace(items[0][2], physical=None)
        for base in range(0, len(items), lane_width):
            chunk = items[base : base + lane_width]
            payloads.append(
                (stripped, [(idx, sc) for idx, sc, _ in chunk], max_turns)
            )
    return payloads


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


def _offline_error(sc: DebugScenario, message: str) -> ScenarioResult:
    return ScenarioResult(
        scenario=sc.name,
        design=sc.spec.name,
        kind=sc.kind,
        status="error",
        offline_ok=False,
        error=f"offline stage failed: {message}",
    )


def _accumulate_stage_s(into: dict[str, float], totals: dict) -> None:
    for name, secs in totals.items():
        into[name] = into.get(name, 0.0) + float(secs)


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

    :func:`~repro.pipeline.scheduler.submit_compile` probes ``store``
    **now**, in the parent, one single-read lookup per stage — counted
    exactly like a serial resolution.  A warm design fires
    ``on_complete(stage, True, {}, None)`` synchronously and creates no
    task; a cold design becomes fused segment tasks whose completion
    lands every built stage in the store parent-side, assembles the
    artifact and fires ``on_complete(stage, False, stage_seconds,
    None)``.  Failures fire ``on_complete(None, False, {}, message)``.
    Returns the created tasks (empty when the design resolved warm or
    failed to plan).
    """
    from repro.pipeline import (
        DEBUG_FLOW_GRAPH,
        GENERIC_STAGES,
        PHYSICAL_STAGES,
        assemble_offline,
    )

    stages = (
        GENERIC_STAGES + PHYSICAL_STAGES if with_physical else GENERIC_STAGES
    )
    try:
        plan = DEBUG_FLOW_GRAPH.plan(net, flow, stages=stages)
    except Exception as exc:  # noqa: BLE001 — one bad design ≠ dead campaign
        on_complete(None, False, {}, f"{type(exc).__name__}: {exc}")
        return []

    def complete(result, err):
        stage = None
        if err is None:
            try:
                stage = assemble_offline(result)
            except Exception as exc:  # noqa: BLE001
                err = f"{type(exc).__name__}: {exc}"
        if stage is None:
            on_complete(None, False, {}, err)
        else:
            on_complete(
                stage, result.full_hit, dict(result.timers.totals), None
            )

    return submit_compile(
        sched,
        DEBUG_FLOW_GRAPH,
        net,
        plan,
        store=store,
        pooled=pooled,
        label=label,
        timeout_s=timeout_s,
        max_retries=max_retries,
        on_complete=complete,
    )


def prebuild_offline(
    nets: "Sequence[object]",
    *,
    flow: DebugFlowConfig | None = None,
    cache: ArtifactStore | None = None,
    with_physical: bool = False,
    workers: int = 1,
    notes: "list[str] | None" = None,
) -> "dict[str, OfflineStage]":
    """Warm the store with offline artifacts for ``nets``, concurrently.

    The same scheduler path the campaign's offline work rides, exposed
    for callers that need artifacts *before* a campaign exists — e.g.
    stuck-at scenario screening, which needs each design's tap directory
    to pick fault sites.  Designs are deduped by offline cache key; warm
    keys resolve in-process with one counted lookup per stage, cold keys
    build as segment tasks on a process pool of up to ``workers`` (in
    process when ``workers <= 1`` or the pool is unavailable), and every
    artifact lands in ``cache`` under the same content-addressed keys a
    serial :func:`~repro.campaign.cache.resolve_offline` call would use —
    later resolutions of the same design are pure hits.

    Returns ``{offline cache key: artifact}`` for every design that
    built (or resolved warm) — the map the CLI's screening step consumes
    directly instead of re-probing the store.  Failed designs are simply
    absent; callers decide whether to retry without the physical stage
    or surface the error.  ``notes``, when given, collects
    human-readable fallback messages (pool unavailable etc.).
    """
    flow = flow or DebugFlowConfig()
    keyed: "dict[str, object]" = {}
    for net in nets:
        keyed.setdefault(_offline_group_key(net, flow, with_physical), net)
    return _prebuild_keyed(
        keyed,
        flow=flow,
        cache=cache,
        with_physical=with_physical,
        workers=workers,
        notes=notes,
    )


def _prebuild_keyed(
    keyed: "dict[str, object]",
    *,
    flow: DebugFlowConfig,
    cache: ArtifactStore | None,
    with_physical: bool,
    workers: int,
    notes: "list[str] | None" = None,
) -> "dict[str, OfflineStage]":
    """:func:`prebuild_offline` over designs its caller already keyed:
    ``keyed`` maps each :func:`_offline_group_key` to its network."""
    if notes is None:
        notes = []
    out: "dict[str, OfflineStage]" = {}
    sched = DataflowScheduler(
        pool_size=min(max(1, workers), max(1, len(keyed))),
        executor_factory=_make_pool,
    )
    try:
        for key, net in keyed.items():

            def done(stage, _hit, _totals, err, key=key):
                if err is None:
                    out[key] = stage

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
    if sched.pool_broken:
        notes.append(
            "offline prebuild pool unavailable "
            f"({type(sched.pool_error).__name__}); built cold design(s) "
            "in-process"
        )
    return out


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
    worker count, lane width and store state.
    """
    config = config or CampaignConfig()
    notes: list[str] = []
    t_wall = time.perf_counter()
    workers = max(1, config.workers)
    lane_width = max(1, config.lane_width)

    # -- checkpoint journal ----------------------------------------------------
    journal = None
    resumed: dict[int, ScenarioResult] = {}
    if config.campaign_id:
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
        else:
            fp = campaign_fingerprint(scenarios, config)
            jpath = journal_path(cache_dir, config.campaign_id)
            if config.resume:
                # the previous run may have died mid-put; readers never
                # touch .tmp files, so sweeping the leftovers is safe here
                # (no concurrent writer exists yet)
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
                    f"resumed {len(resumed)} of {len(scenarios)} "
                    f"scenario(s) from journal"
                )
            else:
                journal = CampaignJournal.start(
                    jpath,
                    campaign_id=config.campaign_id,
                    fingerprint=fp,
                    n_scenarios=len(scenarios),
                    fsync=config.journal_fsync,
                )

    offline_s: dict[int, float] = {}
    hits: dict[int, bool] = {}
    failed: dict[int, ScenarioResult] = {}
    offline_stage_s: dict[str, float] = {}
    indexed: list[tuple[int, ScenarioResult]] = []
    payloads: list[GroupPayload] = []
    aborted: dict = {"err": None}

    def checkpoint(idx: int, result: ScenarioResult) -> None:
        """Journal a finished scenario the moment its outcome is final.

        Timing/hit fields are attached now (they are known by the time
        any outcome exists) so the journaled record is the full record a
        resumed campaign replays."""
        if journal is None:
            return
        result.offline_s = offline_s.get(idx, 0.0)
        result.offline_cache_hit = hits.get(idx, False)
        journal.append_scenario(idx, result.as_record())

    # -- registration: one network and key per design identity ----------------
    t_offline = time.perf_counter()
    groups: dict[str, list[tuple[int, DebugScenario]]] = {}
    group_net: dict[str, object] = {}
    lane_sizes: Counter = Counter()
    # design identity -> (group key, network, error message)
    designs: dict[tuple, tuple] = {}
    for idx, sc in enumerate(scenarios):
        if idx in resumed:
            continue
        t0 = time.perf_counter()
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
        offline_s[idx] = time.perf_counter() - t0
        if err is not None:
            failed[idx] = _offline_error(sc, err)
            hits[idx] = False
            checkpoint(idx, failed[idx])
            if config.fail_fast and aborted["err"] is None:
                aborted["err"] = failed[idx].error
            continue
        groups.setdefault(gkey, []).append((idx, sc))
        group_net.setdefault(gkey, net)
        # within one campaign the flow config is fixed, so this key is
        # equivalent to _lane_batch_key over the resolved artifacts —
        # known *before* any artifact exists
        lane_sizes[(gkey, sc.spec, sc.design_seed, sc.horizon)] += 1

    expected_payloads = sum(
        (n + lane_width - 1) // lane_width for n in lane_sizes.values()
    )
    # a pool only pays for itself when there is more than one payload to
    # spread: a single lane batch would ride one worker anyway, while the
    # parent still paid pool startup plus artifact pickling — the
    # "pooled slower than serial" regression BENCH_campaign.json recorded
    use_online_pool = workers > 1 and expected_payloads > 1
    if workers > 1 and expected_payloads == 1:
        notes.append(
            "worker pool skipped: 1 online payload (serial is cheaper than "
            f"pool startup; requested {workers} workers)"
        )

    sched = DataflowScheduler(executor_factory=_make_pool)

    def fail_fast_abort(err: str) -> None:
        if not config.fail_fast or aborted["err"] is not None:
            return
        aborted["err"] = err
        sched.abort()

    def online_done(out: "list[tuple[int, ScenarioResult]]") -> None:
        for idx, res in out:
            indexed.append((idx, res))
            checkpoint(idx, res)

    def online_failed(payload: GroupPayload, msg: str) -> None:
        # supervision gave up on this lane batch (timeout/retries
        # exhausted).  The error message is wall-clock-dependent, so the
        # results are NOT journaled — a resumed campaign re-runs them.
        for idx, sc in payload[1]:
            indexed.append(
                (
                    idx,
                    ScenarioResult(
                        scenario=sc.name,
                        design=sc.spec.name,
                        kind=sc.kind,
                        status="error",
                        error=f"online stage failed: {msg}",
                    ),
                )
            )
        fail_fast_abort(msg)

    def submit_online(payload: GroupPayload) -> None:
        if aborted["err"] is not None:
            return
        payloads.append(payload)
        sched.add(
            ScheduledTask(
                kind="online",
                label=f"lanes[{len(payload[1])}]",
                worker_fn=_online_group_worker,
                payload=payload,
                # compiled programs persist in the stage store when one is
                # in play — worker processes compile their own (the store
                # isn't shipped), but in-parent runs and warm restarts
                # skip compilation entirely
                inline_fn=lambda p=payload: _online_group_worker(
                    p, store=cache
                ),
                pooled=use_online_pool,
                on_done=lambda _task, out: online_done(out),
                on_fail=lambda _task, msg, p=payload: online_failed(p, msg),
                timeout_s=config.task_timeout_s,
                max_retries=max(0, config.task_retries),
                key=f"online:{payload[1][0][0]}",
            )
        )

    def design_done(gkey, stage, hit, totals, err):
        items = groups[gkey]
        first_idx = items[0][0]
        if err is not None:
            for idx, sc in items:
                failed[idx] = _offline_error(sc, err)
                hits[idx] = False
                checkpoint(idx, failed[idx])
            fail_fast_abort(err)
            return
        _accumulate_stage_s(offline_stage_s, totals)
        offline_s[first_idx] += sum(totals.values())
        # duplicates of a built design ride the group's artifact: a cache
        # hit when a store holds it, plain build sharing when running
        # cold (outcomes are unaffected, only the redundant rebuilds go)
        for idx, _sc in items:
            hits[idx] = hit if idx == first_idx else cache is not None
        # lane batches launch the moment their design's build lands
        for payload in _group_payloads(
            [(idx, sc, stage) for idx, sc in items],
            config.max_turns,
            lane_width,
        ):
            submit_online(payload)

    # -- offline tasks: one build unit per distinct design ---------------------
    n_cold = 0
    for gkey, items in groups.items():
        if aborted["err"] is not None:
            break
        t0 = time.perf_counter()
        created = _submit_design_build(
            sched,
            group_net[gkey],
            config.flow,
            config.with_physical,
            cache,
            gkey[:12],
            pooled=workers > 1,
            timeout_s=config.task_timeout_s,
            max_retries=max(0, config.task_retries),
            on_complete=(
                lambda stage, hit, totals, err, g=gkey: design_done(
                    g, stage, hit, totals, err
                )
            ),
        )
        offline_s[items[0][0]] += time.perf_counter() - t0
        if created:
            n_cold += 1

    t_probes_done = time.perf_counter()
    # one shared pool, sized for whichever phase needs more slots — the
    # pool is created lazily at the first pooled dispatch, so fully
    # inline configurations never pay process startup
    sched.pool_size = max(
        min(workers, max(1, n_cold)),
        min(workers, expected_payloads) if use_online_pool else 1,
    )

    # -- drain -----------------------------------------------------------------
    try:
        sched.run()
    finally:
        sched.shutdown()
        if journal is not None:
            journal.close()

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
        use_online_pool and bool(payloads)
    )
    effective_workers = (
        sched.pool_size if ran_pooled and not sched.inline_fallbacks else 1
    )

    # -- critical-path metrics -------------------------------------------------
    off_ends = [e for k, _s, e in sched.intervals if k == "offline"]
    offline_wall_s = max([t_probes_done, *off_ends]) - t_offline
    sched_wall_s = sched.sched_wall_s
    overlap = sched.overlap_s("offline", "online")
    overlap_ratio = overlap / sched_wall_s if sched_wall_s > 0 else 0.0
    stage_concurrency = sched.stage_concurrency()
    online_spans = [(s, e) for k, s, e in sched.intervals if k == "online"]
    if online_spans:
        busy = sum(e - s for s, e in online_spans)
        lo = min(s for s, _ in online_spans)
        hi = max(e for _, e in online_spans)
        stage_concurrency["online"] = (
            round(busy / (hi - lo), 3) if hi > lo else 1.0
        )

    if aborted["err"] is not None:
        notes.append(f"campaign aborted (fail-fast): {aborted['err']}")

    # re-interleave results — journal replays, offline-failure and
    # fail-fast placeholders — in scenario order
    by_idx = dict(indexed)
    results: list[ScenarioResult] = []
    for idx in range(len(scenarios)):
        if idx in failed:
            results.append(failed[idx])
        elif idx in resumed:
            results.append(resumed[idx])
        elif idx in by_idx:
            results.append(by_idx[idx])
        else:
            # cancelled by a fail-fast abort before any outcome existed;
            # deliberately not journaled (a resume recomputes it)
            sc = scenarios[idx]
            results.append(
                ScenarioResult(
                    scenario=sc.name,
                    design=sc.spec.name,
                    kind=sc.kind,
                    status="error",
                    error=f"aborted (fail-fast): {aborted['err']}",
                )
            )

    for idx, r in enumerate(results):
        if idx in resumed:
            continue  # replayed records keep their original accounting
        r.offline_s = offline_s.get(idx, 0.0)
        r.offline_cache_hit = hits.get(idx, False)

    return CampaignReport(
        results=results,
        wall_s=time.perf_counter() - t_wall,
        workers=effective_workers,
        offline_total_s=sum(offline_s.values()),
        offline_wall_s=offline_wall_s,
        offline_stage_s=offline_stage_s,
        online_total_s=sum(r.online_s for r in results),
        cache_stats=cache.stats.as_dict() if cache is not None else None,
        lane_width=lane_width,
        lane_batches=[len(p[1]) for p in payloads],
        notes=notes,
        sched_wall_s=sched_wall_s,
        overlap_ratio=overlap_ratio,
        stage_concurrency=stage_concurrency,
        retries=sched.n_retries,
        timeouts=sched.n_timeouts,
        pool_respawns=sched.pool_respawns,
        resumed_scenarios=len(resumed),
        journal_path=journal.path if journal is not None else "",
    )
