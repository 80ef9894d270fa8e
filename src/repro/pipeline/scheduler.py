"""Futures-based dataflow scheduler for overlapped stage-graph execution.

The campaign runner's two historical barriers — offline-then-online phase
ordering, and lockstep stage execution within a design — both disappear
here.  Work is modelled as :class:`ScheduledTask` nodes (a fused segment
of compile stages, or an online lane batch) wired by explicit
dependencies; one single-threaded event loop in the parent process
dispatches every ready task onto one shared worker pool and fires
completion callbacks the moment results land, so a design's online work
launches while other designs are still building and a design's
independent stages (``rr-graph`` vs ``place``) run concurrently.

Store semantics are kept *exactly* equal to the serial path by
construction: the parent — never a worker — performs every
:class:`~repro.pipeline.store.ArtifactStore` probe and put, under the
same keys and in the same per-design order the serial executor uses
(:func:`submit_compile` probes with
:meth:`~repro.pipeline.store.ArtifactStore.get_if_present` in topological
order, then ships only the missing suffix to workers).  Hit/miss/
invalidation counters therefore match the serial path at any worker
count, and outcomes are byte-identical.

Failure isolation: a segment raising cancels only the *same design's*
downstream segments (its compile completes with an error); other designs'
tasks are untouched.

Supervision: every pooled task runs under the parent's watch.  A broken
worker pool (:data:`repro.errors.POOL_ERRORS`) is **respawned** up to
:attr:`DataflowScheduler.max_pool_respawns` times — completed in-flight
results are salvaged, only genuinely unfinished tasks are re-enqueued, so
store puts already performed are never redone.  Once the respawn budget
is exhausted the pool is declared dead and pooled tasks degrade to
in-parent execution, recorded per task kind in
:attr:`DataflowScheduler.inline_fallbacks` (the pre-supervision
behaviour).  Tasks may additionally carry a wall-clock ``timeout_s`` and
a bounded ``max_retries``; a timed-out or failing task is retried after a
**deterministic** backoff — :func:`retry_delay` derives the delay purely
from the task key and attempt number, so a retried schedule differs from
a fault-free one only in wall-clock time, never in outcomes.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Sequence

from repro.errors import POOL_ERRORS
from repro.pipeline.graph import (
    SOURCE,
    Artifact,
    CompileResult,
    StageContext,
    StageGraph,
    StagePlan,
)
from repro.util import chaos
from repro.util.timing import PhaseTimer

__all__ = [
    "ScheduledTask",
    "DataflowScheduler",
    "submit_compile",
    "retry_delay",
    "POOL_ERRORS",
]


def retry_delay(key: str, attempt: int, base_s: float) -> float:
    """Deterministic exponential backoff for retry ``attempt`` of ``key``.

    ``base_s * 2**(attempt-1)`` scaled by a key-derived factor in
    ``[1, 2)`` — the factor spreads simultaneous retries apart (so a
    respawned pool is not thundering-herded) without any randomness:
    the same task key always backs off by the same amount, which keeps
    retried schedules reproducible.
    """
    h = int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=2).digest(), "little"
    )
    return base_s * (2.0 ** max(0, attempt - 1)) * (1.0 + h / 65536.0)


def _timed_call(fn: Callable[[Any], Any], payload: Any, label: str = ""):
    """Pool-side wrapper: run ``fn(payload)`` and report absolute times.

    ``time.perf_counter`` is ``CLOCK_MONOTONIC`` system-wide on Linux, so
    worker-side timestamps are directly comparable with the parent's —
    which is what makes the cross-process overlap/concurrency metrics
    honest rather than estimated.  The :mod:`repro.util.chaos` hook is a
    no-op unless a test armed fault injection for this process tree.
    """
    chaos.on_pooled_task(label)
    t0 = time.perf_counter()
    out = fn(payload)
    return out, t0, time.perf_counter()


@dataclass
class ScheduledTask:
    """One schedulable unit: a compile segment or an online lane batch."""

    kind: str
    """Metric bucket — ``"offline"`` or ``"online"``."""
    label: str
    worker_fn: Callable[[Any], Any] | None = None
    """Module-level (picklable) function for pool execution."""
    payload_fn: Callable[[], Any] | None = None
    """Builds the payload lazily at dispatch time, after deps resolved."""
    payload: Any = None
    inline_fn: Callable[[], Any] | None = None
    """In-parent alternative body (used when not pooled, or pool broken)."""
    pooled: bool = False
    on_done: Callable[["ScheduledTask", Any], None] | None = None
    on_fail: Callable[["ScheduledTask", str], None] | None = None
    """Fired instead of ``on_done`` when supervision gives up on the task
    (timeout/retries exhausted).  Tasks whose ``on_done`` already speaks
    the ``("err", message)`` outcome protocol (compile segments) may
    leave this unset — they receive the failure through ``on_done``."""
    timeout_s: float | None = None
    """Wall-clock budget per pooled attempt (inline runs are unbounded —
    the parent cannot preempt itself)."""
    max_retries: int = 0
    """Extra attempts after the first, for timeouts and task errors."""
    key: str = ""
    """Stable retry-backoff identity; defaults to ``label``."""
    attempts: int = 0
    """Pooled attempts charged so far (crash victims are not charged)."""
    result: Any = None
    start_s: float = 0.0
    end_s: float = 0.0
    done: bool = False
    cancelled: bool = False
    _n_deps: int = 0
    _deadline: float = 0.0
    _children: list["ScheduledTask"] = field(default_factory=list)

    def _materialize(self) -> Any:
        if self.payload_fn is not None:
            self.payload = self.payload_fn()
            self.payload_fn = None
        return self.payload


class DataflowScheduler:
    """Single-threaded event loop over one shared worker pool.

    The parent owns all bookkeeping (dependency counts, store access via
    task callbacks); only task bodies run in workers.  The pool is
    created lazily at the first pooled dispatch, so fully-inline
    configurations (``workers=1``, warm caches) never pay process
    startup — the serial path is literally this scheduler with no pooled
    tasks.
    """

    def __init__(
        self,
        *,
        pool_size: int = 1,
        executor_factory: Callable[[int], Any] | None = None,
        max_pool_respawns: int = 1,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.pool_size = max(1, pool_size)
        self._executor_factory = executor_factory
        self._pool = None
        self.max_pool_respawns = max(0, max_pool_respawns)
        """Pool failures tolerated before declaring the pool dead."""
        self.retry_backoff_s = retry_backoff_s
        """Base unit for :func:`retry_delay` (wall time only — outcomes
        do not depend on it)."""
        self.pool_error: BaseException | None = None
        """Most recent pool-level failure (survives a successful respawn
        as a diagnostic; see :attr:`pool_broken` for the current state)."""
        self.inline_fallbacks: set[str] = set()
        """Task kinds that had a pooled task degrade to in-parent runs."""
        self.pool_respawns = 0
        """Pool teardowns observed (charged crashes + timeout kills)."""
        self.n_retries = 0
        self.n_timeouts = 0
        self.n_reenqueued = 0
        """In-flight victim tasks re-enqueued after a pool teardown."""
        self._respawns_charged = 0
        self._pool_dead = False
        self._ready: deque[ScheduledTask] = deque()
        self._delayed: list[tuple[float, int, ScheduledTask]] = []
        self._seq = itertools.count()
        self._inflight: dict[Future, ScheduledTask] = {}
        self._tasks: list[ScheduledTask] = []
        self._n_pending = 0
        self.intervals: list[tuple[str, float, float]] = []
        """(kind, start, end) execution interval per completed task."""
        self.stage_spans: dict[str, list[tuple[float, float]]] = {}
        """Per-compile-stage execution spans, fed by segment completions."""
        self.n_tasks: dict[str, int] = {}
        """Tasks ever added, per kind."""
        self.sched_wall_s = 0.0

    @property
    def pool_broken(self) -> bool:
        """The pool is *permanently* unusable (respawn budget exhausted);
        transient failures that a respawn absorbed do not count."""
        return self._pool_dead

    # -- graph construction ----------------------------------------------------

    def add(
        self, task: ScheduledTask, deps: Sequence[ScheduledTask] = ()
    ) -> ScheduledTask:
        live = [d for d in deps if not d.done and not d.cancelled]
        task._n_deps = len(live)
        for d in live:
            d._children.append(task)
        self.n_tasks[task.kind] = self.n_tasks.get(task.kind, 0) + 1
        self._tasks.append(task)
        self._n_pending += 1
        if task._n_deps == 0:
            self._ready.append(task)
        return task

    def cancel(self, task: ScheduledTask) -> None:
        """Drop a not-yet-finished task (and never fire its callback).

        In-flight pool work is left to finish; its result is discarded on
        arrival.  Dependents are *not* cancelled implicitly — the caller
        owns its task sub-graph and cancels exactly what it means to.
        """
        if task.done or task.cancelled:
            return
        task.cancelled = True
        self._n_pending -= 1

    def abort(self) -> None:
        """Cancel every not-yet-finished task (the fail-fast path).

        No callback fires for aborted tasks; in-flight pool results are
        discarded on arrival.  :meth:`run` returns promptly (within one
        in-flight task completion), and the scheduler stays usable —
        :meth:`add` after an abort starts a fresh graph.
        """
        for task in self._tasks:
            self.cancel(task)
        self._delayed.clear()
        self._ready.clear()

    # -- event loop ------------------------------------------------------------

    def run(self) -> None:
        """Drain every pending task; returns when all are done/cancelled.

        Callbacks may :meth:`add` further tasks (that is how online lane
        batches chain onto offline completions); the loop keeps going
        until the whole transitive graph is drained.  Wall time across
        all :meth:`run` calls accumulates in :attr:`sched_wall_s`.
        """
        t0 = time.perf_counter()
        try:
            while self._n_pending:
                self._promote_delayed()
                self._dispatch_pooled()
                task = self._pop_ready()
                if task is not None:
                    self._run_inline(task)
                elif self._inflight:
                    done, _ = wait(
                        self._inflight,
                        timeout=self._wait_timeout(),
                        return_when=FIRST_COMPLETED,
                    )
                    for fut in done:
                        self._finish_pooled(fut)
                    self._expire_timeouts()
                elif self._delayed:
                    # nothing runnable until the earliest backoff matures
                    time.sleep(
                        max(0.0, self._delayed[0][0] - time.monotonic())
                    )
                elif self._ready:
                    # pooled tasks parked while the pool respawns; each
                    # failed (re)spawn charges the budget, so this loops
                    # at most max_pool_respawns times before the tasks
                    # degrade to inline execution
                    continue
                else:  # pragma: no cover - defensive: bookkeeping drift
                    break
        finally:
            self.sched_wall_s += time.perf_counter() - t0

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # -- metrics ---------------------------------------------------------------

    def overlap_s(self, kind_a: str = "offline", kind_b: str = "online") -> float:
        """Seconds during which both kinds had work executing."""

        def merged(kind: str) -> list[tuple[float, float]]:
            spans = sorted(
                (s, e) for k, s, e in self.intervals if k == kind and e > s
            )
            out: list[tuple[float, float]] = []
            for s, e in spans:
                if out and s <= out[-1][1]:
                    out[-1] = (out[-1][0], max(out[-1][1], e))
                else:
                    out.append((s, e))
            return out

        a, b = merged(kind_a), merged(kind_b)
        total, i, j = 0.0, 0, 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if hi > lo:
                total += hi - lo
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return total

    def stage_concurrency(self) -> dict[str, float]:
        """Per-stage busy-time / span-time — 1.0 means fully serialized.

        A stage whose executions overlap across designs (busy seconds
        exceeding its first-start-to-last-end span would be impossible;
        instead *campaign-level* concurrency shows up as span ≪ sum of a
        serial schedule) is reported as busy/span of the union timeline.
        """
        out: dict[str, float] = {}
        for stage, spans in sorted(self.stage_spans.items()):
            busy = sum(e - s for s, e in spans)
            lo = min(s for s, _ in spans)
            hi = max(e for _, e in spans)
            out[stage] = round(busy / (hi - lo), 3) if hi > lo else 1.0
        return out

    # -- internals -------------------------------------------------------------

    def _acquire_pool(self):
        if self._pool is None and not self._pool_dead:
            if self._executor_factory is None:
                self.pool_error = RuntimeError("no executor factory")
                self._pool_dead = True
            else:
                try:
                    self._pool = self._executor_factory(self.pool_size)
                except POOL_ERRORS as exc:
                    self._respawn_pool(exc, charge=True)
        return self._pool

    def _respawn_pool(self, exc: BaseException, *, charge: bool) -> None:
        """Tear down the pool after a failure and recover its in-flight work.

        Futures that already finished successfully are *salvaged* — their
        results are delivered normally, so work (and the store puts its
        callbacks perform) is never redone.  Everything else is
        re-enqueued for the next pool, uncharged: crash victims are not
        at fault.  ``charge`` spends one unit of the respawn budget
        (crashes); timeout-driven teardowns pass ``charge=False`` — they
        are bounded by per-task retry budgets instead.
        """
        self.pool_error = exc
        pool, self._pool = self._pool, None
        if pool is not None:
            # ProcessPoolExecutor cannot cancel a *running* task; the only
            # way to reclaim a hung or poisoned worker is to kill the lot.
            try:
                for proc in list(
                    (getattr(pool, "_processes", None) or {}).values()
                ):
                    proc.kill()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001
                pass
        self.pool_respawns += 1
        if charge:
            self._respawns_charged += 1
            if self._respawns_charged > self.max_pool_respawns:
                self._pool_dead = True
        salvaged: dict[Future, ScheduledTask] = {}
        for fut, task in self._inflight.items():
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                salvaged[fut] = task
                continue
            if not task.cancelled:
                task.attempts = max(0, task.attempts - 1)
                self.n_reenqueued += 1
                self._ready.append(task)
        self._inflight = salvaged

    def _dispatch_pooled(self) -> None:
        if self._pool_dead or not any(t.pooled for t in self._ready):
            return
        pending, self._ready = self._ready, deque()
        while pending:
            task = pending.popleft()
            if task.cancelled:
                continue
            if not task.pooled or self._pool_dead:
                self._ready.append(task)
                continue
            pool = self._acquire_pool()
            if pool is None:
                self._ready.append(task)
                continue
            task.attempts += 1
            if task.timeout_s is not None:
                task._deadline = time.monotonic() + task.timeout_s
            try:
                fut = pool.submit(
                    _timed_call, task.worker_fn, task._materialize(), task.label
                )
            except POOL_ERRORS as exc:
                task.attempts = max(0, task.attempts - 1)
                self._respawn_pool(exc, charge=True)
                self._ready.append(task)
                continue
            self._inflight[fut] = task
        # crash victims _respawn_pool re-enqueued onto self._ready during
        # the loop are picked up by the next dispatch pass

    def _pop_ready(self) -> ScheduledTask | None:
        for _ in range(len(self._ready)):
            task = self._ready.popleft()
            if task.cancelled:
                continue
            if task.pooled and not self._pool_dead:
                # parked for pool (re)dispatch — inlining it here would
                # defeat the respawn budget and serialize the campaign
                self._ready.append(task)
                continue
            return task
        return None

    def _promote_delayed(self) -> None:
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            _, _, task = heappop(self._delayed)
            if not task.cancelled:
                self._ready.append(task)

    def _wait_timeout(self) -> float | None:
        """Soonest in-flight deadline as a ``wait()`` timeout (None = block)."""
        deadlines = [
            t._deadline
            for t in self._inflight.values()
            if t.timeout_s is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic()) + 1e-3

    def _expire_timeouts(self) -> None:
        now = time.monotonic()
        expired = [
            (fut, task)
            for fut, task in self._inflight.items()
            if task.timeout_s is not None
            and now >= task._deadline
            and not fut.done()
        ]
        if not expired:
            return
        respawn = False
        for fut, task in expired:
            del self._inflight[fut]
            if not fut.cancel():
                # already running on a worker — only a pool teardown can
                # actually stop it (see _respawn_pool)
                respawn = True
            self.n_timeouts += 1
            if not task.cancelled:
                self._retry_or_fail(
                    task,
                    f"timeout: {task.label!r} exceeded "
                    f"{task.timeout_s}s (attempt {task.attempts})",
                )
        if respawn:
            self._respawn_pool(TimeoutError("pooled task timeout"), charge=False)

    def _retry_or_fail(self, task: ScheduledTask, msg: str) -> None:
        if task.attempts <= task.max_retries:
            self.n_retries += 1
            delay = retry_delay(
                task.key or task.label, task.attempts, self.retry_backoff_s
            )
            heappush(
                self._delayed,
                (time.monotonic() + delay, next(self._seq), task),
            )
        else:
            self._fail(task, msg)

    def _fail(self, task: ScheduledTask, msg: str) -> None:
        now = time.perf_counter()
        if task.on_fail is not None:
            task.on_fail(task, msg)
            task.on_done = None  # reported; don't double-deliver
        self._complete(task, ("err", msg), now, now)

    def _run_inline(self, task: ScheduledTask) -> None:
        if task.pooled:
            # a pooled task running here means the pool broke under it
            self.inline_fallbacks.add(task.kind)
        if task.inline_fn is not None:
            fn = task.inline_fn
        else:
            payload = task._materialize()
            fn = lambda: task.worker_fn(payload)  # noqa: E731
        t0 = time.perf_counter()
        out = fn()
        if task.cancelled:
            # aborted by its own (or a sibling's) callback mid-execution;
            # same contract as the pooled path: discard, no callback
            return
        self._complete(task, out, t0, time.perf_counter())

    def _finish_pooled(self, fut: Future) -> None:
        task = self._inflight.pop(fut, None)
        if task is None:
            # swept out by a _respawn_pool triggered earlier in this batch
            return
        try:
            out, t0, t1 = fut.result()
        except POOL_ERRORS as exc:
            # The pool died under this future.  Respawn (charged) and put
            # the triggering task back too — it is usually a victim, not
            # the culprit, and if it *does* reliably break its pool the
            # respawn budget caps the damage at inline degradation.
            self._respawn_pool(exc, charge=True)
            if not task.cancelled:
                task.attempts = max(0, task.attempts - 1)
                self.n_reenqueued += 1
                self._ready.append(task)
            return
        except Exception as exc:  # noqa: BLE001 - supervised task failure
            if not task.cancelled:
                self._retry_or_fail(task, f"{type(exc).__name__}: {exc}")
            return
        if task.cancelled:
            return
        self._complete(task, out, t0, t1)

    def _complete(
        self, task: ScheduledTask, out: Any, t0: float, t1: float
    ) -> None:
        task.result, task.start_s, task.end_s = out, t0, t1
        task.done = True
        self._n_pending -= 1
        self.intervals.append((task.kind, t0, t1))
        if task.on_done is not None:
            task.on_done(task, out)
        for child in task._children:
            if child.cancelled or child.done:
                continue
            child._n_deps -= 1
            if child._n_deps == 0:
                self._ready.append(child)


# -- compile-as-dataflow -------------------------------------------------------


def _segment_worker(payload):
    """Run one fused chain of stage bodies (pool- or parent-side).

    Returns ``("ok", values, times, spans)`` with absolute
    ``perf_counter`` spans per stage, or ``("err", message)`` — stage
    exceptions are marshalled, not raised, so a worker failure surfaces
    as a normal completion the parent can route to the owning design.
    """
    graph, config, params, names, values = payload
    values = dict(values)
    out: dict[str, Any] = {}
    times: dict[str, float] = {}
    spans: dict[str, tuple[float, float]] = {}
    try:
        for name in names:
            stage = graph[name]
            ctx = StageContext(config=config, params=params, artifacts=values)
            s0 = time.perf_counter()
            value = stage.fn(ctx)
            s1 = time.perf_counter()
            values[name] = out[name] = value
            times[name] = s1 - s0
            spans[name] = (s0, s1)
    except Exception as exc:  # noqa: BLE001 - marshalled to the parent
        return ("err", f"{type(exc).__name__}: {exc}")
    return ("ok", out, times, spans)


def submit_compile(
    sched: DataflowScheduler,
    graph: StageGraph,
    net,
    plan: StagePlan,
    *,
    store=None,
    pooled: bool = False,
    kind: str = "offline",
    label: str = "",
    timeout_s: float | None = None,
    max_retries: int = 0,
    on_complete: Callable[[CompileResult | None, str | None], None],
) -> list[ScheduledTask]:
    """Register one design's compile as dataflow tasks on ``sched``.

    Probes the store for every planned stage **now**, in the parent, in
    topological order — exactly the serial executor's lookup sequence, so
    hit/miss statistics are identical by construction.  Missing stages
    are fused into segments (:meth:`StageGraph.segments`) and submitted
    as tasks wired by their true dependencies; segment completions store
    built artifacts (again parent-side, same keys, same pass-through-ref
    aliasing) and, when the last segment lands, ``on_complete(result,
    None)`` fires.  A failing segment cancels only the segments
    *downstream of it* (independent siblings of the same design still
    complete and store their artifacts) and fires
    ``on_complete(None, message)`` once.

    ``timeout_s`` and ``max_retries`` are applied to every created
    segment task (supervision: a hung or failing segment is retried with
    deterministic backoff, then reported through the normal error path).

    A fully-warm design never creates a task: ``on_complete`` fires
    synchronously before this returns.  Returns the created tasks.
    """
    values: dict[str, Any] = {SOURCE: net}
    artifacts: dict[str, Artifact] = {}
    totals: dict[str, float] = {}
    for name, (key, value) in plan.preset.items():
        values[name] = value
        artifacts[name] = Artifact(name, key, value, hit=True)
    missing: list[str] = []
    for stage in plan.selected:
        key = plan.keys[stage.name]
        found = (
            store.get_if_present(stage.name, key, group=plan.group)
            if store is not None
            else None
        )
        if found is not None:
            values[stage.name] = found.value
            artifacts[stage.name] = Artifact(stage.name, key, found.value, hit=True)
        else:
            missing.append(stage.name)

    def finish() -> None:
        result = CompileResult(
            config=plan.config,
            source_key=plan.source_key,
            params=dict(plan.params),
            artifacts=artifacts,
            timers=PhaseTimer(
                totals=dict(totals), counts={k: 1 for k in totals}
            ),
        )
        on_complete(result, None)

    if not missing:
        finish()
        return []

    missing_set = set(missing)
    state = {"left": 0, "failed": False}
    owner: dict[str, ScheduledTask] = {}  # stage name -> owning task
    created: list[ScheduledTask] = []
    for seg_names in graph.segments(missing):
        seg_set = set(seg_names)
        ext = sorted(
            {
                d
                for n in seg_names
                for d in graph[n].inputs
                if d not in seg_set
            }
        )
        dep_tasks = sorted(
            {id(owner[d]): owner[d] for d in ext if d in missing_set}.values(),
            key=lambda t: t.label,
        )

        def payload_fn(names=tuple(seg_names), ext=tuple(ext)):
            return (
                graph,
                plan.config,
                plan.params,
                names,
                {d: values[d] for d in ext},
            )

        def seg_done(task, outcome, names=tuple(seg_names)):
            if outcome[0] == "err":
                already = state["failed"]
                state["failed"] = True
                # cancel only the segments downstream of the failure;
                # independent sibling segments keep running (their
                # artifacts are valid and land in the store as usual)
                stack, seen = [task], set()
                while stack:
                    for child in stack.pop()._children:
                        if id(child) not in seen:
                            seen.add(id(child))
                            sched.cancel(child)
                            stack.append(child)
                if not already:
                    on_complete(None, outcome[1])
                return
            _tag, out, times, spans = outcome
            values.update(out)
            for name in names:
                key = plan.keys[name]
                value = out[name]
                if store is not None:
                    store.put(
                        name,
                        key,
                        value,
                        group=plan.group,
                        ref=graph._passthrough_ref(
                            graph[name], value, values, plan.keys
                        ),
                    )
                artifacts[name] = Artifact(name, key, value, hit=False)
                totals[name] = times[name]
                sched.stage_spans.setdefault(name, []).append(spans[name])
            state["left"] -= 1
            if state["left"] == 0 and not state["failed"]:
                finish()

        task = ScheduledTask(
            kind=kind,
            label=f"{label or plan.group or 'design'}:{seg_names[0]}",
            worker_fn=_segment_worker,
            payload_fn=payload_fn,
            pooled=pooled,
            on_done=seg_done,
            # seg_done already speaks the ("err", message) protocol, so
            # supervision failures (timeout, retries exhausted) flow
            # through the same downstream-cancel path as stage exceptions
            timeout_s=timeout_s,
            max_retries=max_retries,
            key=f"{plan.group or label or 'design'}:{seg_names[0]}",
        )
        state["left"] += 1
        created.append(task)
        for n in seg_names:
            owner[n] = task
        sched.add(task, deps=dep_tasks)
    return created
