"""Supervision layer of the dataflow scheduler: deterministic retry
backoff, per-task timeouts, pool respawn with in-flight recovery, the
fail-fast abort, and the campaign journal's crash-consistent format."""

from __future__ import annotations

import os
import time

import pytest

from repro.campaign.journal import CampaignJournal, JOURNAL_VERSION
from repro.errors import POOL_ERRORS as ERRORS_CANONICAL
from repro.pipeline.scheduler import (
    POOL_ERRORS,
    DataflowScheduler,
    ScheduledTask,
    retry_delay,
)
from repro.util import chaos


def _real_pool(n):
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=n)


# -- module-level (picklable) worker bodies ------------------------------------


def _double(x):
    return x * 2


def _always_raises(_x):
    raise ValueError("deterministically bad task")


def _slow_first_attempt(payload):
    """Sleeps far past any test timeout on the first call (marker file
    absent), returns instantly on the retry — a deterministic hang."""
    marker, value = payload
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        time.sleep(60.0)
    return value * 2


class TestUnifiedPoolErrors:
    def test_one_definition_everywhere(self):
        # the scheduler must use the single canonical errors.POOL_ERRORS
        # object, not a divergent copy of the tuple
        assert POOL_ERRORS is ERRORS_CANONICAL

    def test_covers_both_executor_flavors(self):
        from concurrent.futures import BrokenExecutor
        from concurrent.futures.process import BrokenProcessPool

        assert issubclass(BrokenProcessPool, ERRORS_CANONICAL[-1])
        assert issubclass(BrokenExecutor, ERRORS_CANONICAL[-1])


class TestRetryDelay:
    def test_deterministic(self):
        assert retry_delay("k", 1, 0.05) == retry_delay("k", 1, 0.05)

    def test_exponential_in_attempt(self):
        d1, d2, d3 = (retry_delay("task-x", a, 0.05) for a in (1, 2, 3))
        assert d2 == pytest.approx(2 * d1) and d3 == pytest.approx(4 * d1)

    def test_key_spread_bounded(self):
        # the key-derived factor spreads tasks within [1, 2) * base
        delays = {retry_delay(f"t{i}", 1, 0.05) for i in range(50)}
        assert len(delays) > 1
        assert all(0.05 <= d < 0.10 for d in delays)


class TestRetries:
    def test_task_exception_retries_then_fails_via_on_fail(self):
        sched = DataflowScheduler(
            pool_size=1, executor_factory=_real_pool, retry_backoff_s=0.01
        )
        failures, results = [], []
        task = sched.add(
            ScheduledTask(
                kind="online",
                label="bad",
                pooled=True,
                worker_fn=_always_raises,
                payload=0,
                max_retries=1,
                on_done=lambda _t, out: results.append(out),
                on_fail=lambda _t, msg: failures.append(msg),
            )
        )
        try:
            sched.run()
        finally:
            sched.shutdown()
        assert results == []  # on_fail consumed the delivery
        assert len(failures) == 1 and "ValueError" in failures[0]
        assert task.done and task.result[0] == "err"
        assert task.attempts == 2  # initial + one retry
        assert sched.n_retries == 1
        assert not sched.pool_broken  # a bad task is not a bad pool

    def test_without_on_fail_the_err_tuple_reaches_on_done(self):
        sched = DataflowScheduler(
            pool_size=1, executor_factory=_real_pool, retry_backoff_s=0.01
        )
        results = []
        sched.add(
            ScheduledTask(
                kind="online",
                label="bad",
                pooled=True,
                worker_fn=_always_raises,
                payload=0,
                on_done=lambda _t, out: results.append(out),
            )
        )
        try:
            sched.run()
        finally:
            sched.shutdown()
        assert len(results) == 1
        assert results[0][0] == "err" and "ValueError" in results[0][1]


class TestTimeouts:
    def test_hung_task_times_out_and_retry_succeeds(self, tmp_path):
        sched = DataflowScheduler(
            pool_size=1, executor_factory=_real_pool, retry_backoff_s=0.01
        )
        results = []
        sched.add(
            ScheduledTask(
                kind="online",
                label="hang",
                pooled=True,
                worker_fn=_slow_first_attempt,
                payload=(str(tmp_path / "marker"), 21),
                timeout_s=0.5,
                max_retries=1,
                on_done=lambda _t, out: results.append(out),
            )
        )
        try:
            sched.run()
        finally:
            sched.shutdown()
        assert results == [42]
        assert sched.n_timeouts == 1
        assert sched.n_retries == 1
        # a running pooled task can only be cancelled by pool teardown;
        # that teardown must not poison the pool permanently
        assert sched.pool_respawns >= 1
        assert not sched.pool_broken

    def test_hung_task_with_no_retries_fails(self, tmp_path):
        sched = DataflowScheduler(
            pool_size=1, executor_factory=_real_pool, retry_backoff_s=0.01
        )
        failures = []
        sched.add(
            ScheduledTask(
                kind="online",
                label="hang-hard",
                pooled=True,
                worker_fn=_slow_first_attempt,
                payload=(str(tmp_path / "marker"), 1),
                timeout_s=0.4,
                max_retries=0,
                on_fail=lambda _t, msg: failures.append(msg),
            )
        )
        try:
            sched.run()
        finally:
            sched.shutdown()
        assert len(failures) == 1 and "timeout" in failures[0]
        assert sched.n_timeouts == 1 and sched.n_retries == 0


class TestPoolRespawn:
    def _run_with_chaos(self, tmp_path, **spec):
        sched = DataflowScheduler(pool_size=2, executor_factory=_real_pool)
        results = []
        chaos.arm(str(tmp_path), **spec)
        try:
            for i in range(6):
                sched.add(
                    ScheduledTask(
                        kind="online",
                        label=f"t{i}",
                        pooled=True,
                        worker_fn=_double,
                        payload=i,
                        on_done=lambda _t, out: results.append(out),
                    )
                )
            sched.run()
        finally:
            chaos.disarm()
            sched.shutdown()
        return sched, results

    def test_killed_worker_recovers_with_identical_results(self, tmp_path):
        sched, results = self._run_with_chaos(
            tmp_path, kill_worker_at_task=2
        )
        assert sorted(results) == [0, 2, 4, 6, 8, 10]
        assert sched.pool_respawns == 1
        assert sched.n_reenqueued >= 1  # the in-flight victims came back
        assert not sched.pool_broken  # one crash is within budget
        assert sched.inline_fallbacks == set()  # pool recovered, no inlining

    def test_injected_pool_error_recovers(self, tmp_path):
        sched, results = self._run_with_chaos(tmp_path, pool_error_at_task=2)
        assert sorted(results) == [0, 2, 4, 6, 8, 10]
        assert sched.pool_respawns == 1
        assert not sched.pool_broken

    def test_respawn_budget_exhaustion_degrades_inline(self):
        calls = {"n": 0}

        def factory(_n):
            calls["n"] += 1
            raise OSError("no pools ever")

        sched = DataflowScheduler(
            pool_size=2, executor_factory=factory, max_pool_respawns=1
        )
        results = []
        sched.add(
            ScheduledTask(
                kind="online",
                label="p",
                pooled=True,
                worker_fn=_double,
                payload=5,
                on_done=lambda _t, out: results.append(out),
            )
        )
        sched.run()
        assert results == [10]
        assert calls["n"] == 2  # initial attempt + the one budgeted respawn
        assert sched.pool_broken
        assert "online" in sched.inline_fallbacks


class TestAbort:
    def test_abort_cancels_everything_pending(self):
        sched = DataflowScheduler()
        ran = []

        def first():
            ran.append("first")
            sched.abort()

        sched.add(ScheduledTask(kind="offline", label="a", inline_fn=first))
        later = [
            sched.add(
                ScheduledTask(
                    kind="offline",
                    label=f"b{i}",
                    inline_fn=lambda i=i: ran.append(i),
                )
            )
            for i in range(3)
        ]
        sched.run()
        assert ran == ["first"]
        assert all(t.cancelled and not t.done for t in later)

    def test_scheduler_usable_after_abort(self):
        sched = DataflowScheduler()
        sched.add(
            ScheduledTask(
                kind="offline", label="x", inline_fn=lambda: sched.abort()
            )
        )
        sched.run()
        ran = []
        sched.add(
            ScheduledTask(
                kind="offline", label="y", inline_fn=lambda: ran.append(1)
            )
        )
        sched.run()
        assert ran == [1]


class TestJournalFormat:
    def _start(self, tmp_path, **kw):
        path = str(tmp_path / "j" / "c1.jsonl")
        defaults = dict(
            campaign_id="c1", fingerprint="fp", n_scenarios=3, fsync=False
        )
        defaults.update(kw)
        return path, CampaignJournal.start(path, **defaults)

    def test_round_trip(self, tmp_path):
        path, j = self._start(tmp_path)
        j.append_scenario(0, {"scenario": "s0", "status": "localized"})
        j.append_scenario(2, {"scenario": "s2", "status": "missed"})
        j.close()
        header, records = CampaignJournal.load(path)
        assert header["v"] == JOURNAL_VERSION and header["n"] == 3
        assert set(records) == {0, 2}
        assert records[0]["status"] == "localized"

    def test_torn_final_line_is_dropped(self, tmp_path):
        path, j = self._start(tmp_path)
        j.append_scenario(0, {"scenario": "s0"})
        j.append_scenario(1, {"scenario": "s1"})
        j.close()
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 7)  # tear the last record
        header, records = CampaignJournal.load(path)
        assert header is not None
        assert set(records) == {0}  # torn record recomputed, not trusted

    def test_mid_file_corruption_stops_replay(self, tmp_path):
        path, j = self._start(tmp_path)
        j.append_scenario(0, {"scenario": "s0"})
        j.append_scenario(1, {"scenario": "s1"})
        j.close()
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = b"deadbeef " + lines[1].split(b" ", 1)[1]  # bad crc
        with open(path, "wb") as fh:
            fh.writelines(lines)
        _header, records = CampaignJournal.load(path)
        assert records == {}  # nothing after the corruption is trusted

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path, j = self._start(tmp_path, fingerprint="fp-a")
        j.close()
        with pytest.raises(ValueError, match="different scenarios"):
            CampaignJournal.resume(path, fingerprint="fp-b")

    def test_resume_appends_after_existing_records(self, tmp_path):
        path, j = self._start(tmp_path)
        j.append_scenario(0, {"scenario": "s0"})
        j.close()
        j2, records = CampaignJournal.resume(path, fingerprint="fp")
        assert set(records) == {0}
        j2.append_scenario(1, {"scenario": "s1"})
        j2.close()
        _header, records = CampaignJournal.load(path)
        assert set(records) == {0, 1}

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignJournal.resume(
                str(tmp_path / "nope.jsonl"), fingerprint="fp"
            )
