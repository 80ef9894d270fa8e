"""End-to-end chaos matrix: a campaign with exactly one injected fault —
worker SIGKILL, broken pool, hung task, torn store write, or a killed
parent process — must converge to outcomes byte-identical to the
fault-free baseline (recomputing, retrying or resuming as needed), at
both serial and parallel worker counts."""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.cache import ArtifactStore
from repro.util import chaos
from repro.workloads import campaign_spec, stuck_at_scenarios

SPEC = campaign_spec("chaos-a", n_gates=80, depth=6, n_pis=12, n_pos=6)
HORIZON = 48
WORKERS = (1, 4)


@pytest.fixture(scope="module")
def scenarios():
    return stuck_at_scenarios(SPEC, 4, horizon=HORIZON)


@pytest.fixture(scope="module")
def baseline(scenarios):
    """Fault-free outcomes JSON every chaos run must reproduce."""
    report = run_campaign(
        scenarios, config=CampaignConfig(workers=1), cache=ArtifactStore()
    )
    return _outcomes_json(report)


def _outcomes_json(report) -> str:
    """The campaign CLI's outcomes serialization (byte-comparable)."""
    return json.dumps(report.outcomes(), indent=2, default=str)


def _armed_run(once_dir, scenarios, config, cache=None, **spec):
    # NB: an empty ArtifactStore is falsy (len == 0) — `cache or ...`
    # would silently swap a fresh disk store for a memory one
    if cache is None:
        cache = ArtifactStore()
    chaos.arm(str(once_dir), **spec)
    try:
        return run_campaign(scenarios, config=config, cache=cache)
    finally:
        chaos.disarm()


class TestWorkerFaults:
    """Faults inside pooled workers.  At ``workers=1`` nothing is pooled,
    so the hooks never fire — the matrix row degenerates to the baseline,
    which is exactly the claim (armed-but-unreachable chaos is inert)."""

    @pytest.mark.parametrize("workers", WORKERS)
    def test_worker_sigkill_recovers(
        self, tmp_path, scenarios, baseline, workers
    ):
        report = _armed_run(
            tmp_path,
            scenarios,
            # lane_width=1 keeps one online payload per scenario — a
            # single packed batch would make the orchestrator skip the
            # pool for the online phase.  The cold build is pooled too,
            # so the first pooled task, and the one killed, is the build
            CampaignConfig(workers=workers, lane_width=1),
            kill_worker_at_task=1,
        )
        assert _outcomes_json(report) == baseline

    def test_worker_sigkill_in_lane_batch_recovers(
        self, tmp_path, scenarios, baseline
    ):
        # a warm store leaves only lane batches to pool, so the kill
        # lands on an online task instead of the build segment
        store = ArtifactStore()
        run_campaign(
            scenarios[:1], config=CampaignConfig(workers=1), cache=store
        )
        report = _armed_run(
            tmp_path,
            scenarios,
            CampaignConfig(workers=4, lane_width=1),
            cache=store,
            kill_worker_at_task=1,
        )
        assert _outcomes_json(report) == baseline
        assert report.offline_stage_s == {}
        assert report.pool_respawns >= 1

    @pytest.mark.parametrize("workers", WORKERS)
    def test_injected_pool_error_recovers(
        self, tmp_path, scenarios, baseline, workers
    ):
        report = _armed_run(
            tmp_path,
            scenarios,
            CampaignConfig(workers=workers, lane_width=1),
            pool_error_at_task=1,
        )
        assert _outcomes_json(report) == baseline
        if workers > 1:
            assert report.pool_respawns >= 1

    @pytest.mark.parametrize("workers", WORKERS)
    def test_hung_online_task_times_out_and_retries(
        self, tmp_path, scenarios, baseline, workers
    ):
        report = _armed_run(
            tmp_path,
            scenarios,
            CampaignConfig(
                workers=workers,
                lane_width=1,
                task_timeout_s=2.0,
                task_retries=1,
            ),
            delay_task={"match": "lanes", "seconds": 30.0},
        )
        assert _outcomes_json(report) == baseline
        if workers > 1:
            assert report.timeouts >= 1
            assert report.retries >= 1


class TestStoreFaults:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_torn_store_write_quarantined_on_next_run(
        self, tmp_path, scenarios, baseline, workers
    ):
        cache_dir = str(tmp_path / "cache")
        # run 1 (armed): the first persisted artifact is torn mid-write;
        # its in-memory copy keeps this run correct
        report1 = _armed_run(
            tmp_path,
            scenarios,
            CampaignConfig(workers=workers),
            cache=ArtifactStore(cache_dir=cache_dir),
            truncate_store_at_put=1,
        )
        assert _outcomes_json(report1) == baseline
        # run 2 (disarmed, cold store on the same dir): the torn entry
        # must surface as quarantine + rebuild, never an exception
        store = ArtifactStore(cache_dir=cache_dir)
        report2 = run_campaign(
            scenarios, config=CampaignConfig(workers=workers), cache=store
        )
        assert _outcomes_json(report2) == baseline
        assert store.stats.corrupt == 1
        assert os.listdir(os.path.join(cache_dir, "quarantine"))


class TestFailFast:
    def _with_bad_design(self, scenarios):
        bad = dataclasses.replace(
            scenarios[0],
            name="bad",
            # depth > n_gates is ungeneratable -> registration failure
            spec=campaign_spec("chaos-bad", n_gates=2, depth=7),
        )
        return [bad, *scenarios]

    def test_fail_fast_aborts_pending_as_placeholders(self, scenarios):
        report = run_campaign(
            self._with_bad_design(scenarios),
            config=CampaignConfig(workers=2, fail_fast=True),
            cache=ArtifactStore(),
        )
        assert report.results[0].status == "error"
        assert all(r.status == "error" for r in report.results)
        assert all(
            "fail-fast" in r.error for r in report.results[1:]
        )
        assert any("fail-fast" in note for note in report.notes)

    def test_keep_going_isolates_the_failure(self, scenarios, baseline):
        report = run_campaign(
            self._with_bad_design(scenarios),
            config=CampaignConfig(workers=2, fail_fast=False),
            cache=ArtifactStore(),
        )
        assert report.results[0].status == "error"
        assert _outcomes_json(
            dataclasses.replace(report, results=report.results[1:])
        ) == baseline


class TestResume:
    def test_full_journal_replays_byte_identical(self, scenarios, tmp_path):
        cache_dir = str(tmp_path / "c")
        cfg = CampaignConfig(workers=1, campaign_id="camp")
        first = run_campaign(
            scenarios, config=cfg, cache=ArtifactStore(cache_dir=cache_dir)
        )
        assert first.resumed_scenarios == 0
        assert first.journal_path.endswith("camp.jsonl")

        second = run_campaign(
            scenarios,
            config=dataclasses.replace(cfg, resume=True),
            cache=ArtifactStore(cache_dir=cache_dir),
        )
        assert _outcomes_json(second) == _outcomes_json(first)
        assert second.resumed_scenarios == len(scenarios)
        assert "resilience:" in second.render()

    def test_resume_tolerates_different_worker_count(
        self, scenarios, tmp_path
    ):
        # the fingerprint excludes execution knobs on purpose: a campaign
        # interrupted at --workers 4 may be finished at --workers 1
        cache_dir = str(tmp_path / "c")
        first = run_campaign(
            scenarios,
            config=CampaignConfig(workers=4, campaign_id="camp"),
            cache=ArtifactStore(cache_dir=cache_dir),
        )
        second = run_campaign(
            scenarios,
            config=CampaignConfig(workers=1, campaign_id="camp", resume=True),
            cache=ArtifactStore(cache_dir=cache_dir),
        )
        assert _outcomes_json(second) == _outcomes_json(first)
        assert second.resumed_scenarios == len(scenarios)


class TestParentKill:
    """The tentpole acceptance test: SIGKILL the orchestrator process
    mid-campaign, ``--resume`` it, and diff the outcomes JSON against an
    uninterrupted run byte-for-byte."""

    def _cli(self, tmp_path, extra, chaos_spec=None):
        env = {**os.environ, "PYTHONPATH": "src"}
        env.pop(chaos.ENV_VAR, None)
        if chaos_spec is not None:
            env[chaos.ENV_VAR] = json.dumps(
                {**chaos_spec, "dir": str(tmp_path)}
            )
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.campaign",
                "--per-design",
                "3",
                "--horizon",
                "48",
                *extra,
            ],
            env=env,
            cwd="/root/repo",
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_parent_sigkill_then_resume_byte_identical(self, tmp_path):
        base_json = tmp_path / "base.json"
        resumed_json = tmp_path / "resumed.json"

        clean = self._cli(
            tmp_path,
            [
                "--cache-dir",
                str(tmp_path / "c0"),
                "--outcomes-json",
                str(base_json),
            ],
        )
        assert clean.returncode == 0, clean.stderr

        # armed run: SIGKILL the parent right after the first scenario
        # lands in the journal (append 1 is the header)
        killed = self._cli(
            tmp_path,
            [
                "--cache-dir",
                str(tmp_path / "c1"),
                "--campaign-id",
                "night",
            ],
            chaos_spec={"kill_parent_at_append": 2},
        )
        assert killed.returncode == -signal.SIGKILL

        resumed = self._cli(
            tmp_path,
            [
                "--cache-dir",
                str(tmp_path / "c1"),
                "--resume",
                "night",
                "--outcomes-json",
                str(resumed_json),
            ],
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed 1 of 3 scenario(s)" in resumed.stdout
        assert "resilience:" in resumed.stdout
        assert resumed_json.read_bytes() == base_json.read_bytes()

    def test_resume_without_journal_exits_2(self, tmp_path):
        r = self._cli(
            tmp_path,
            ["--cache-dir", str(tmp_path / "c"), "--resume", "ghost"],
        )
        assert r.returncode == 2
        assert "no journal found" in r.stderr

    def test_journal_requires_cache_dir(self, tmp_path):
        r = self._cli(tmp_path, ["--campaign-id", "x"])
        assert r.returncode == 2
        assert "--cache-dir" in r.stderr
