"""Dataflow scheduler semantics: segment fusion, failure isolation,
store-stats parity with the serial executor, and campaign equivalence
at several worker counts."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.cache import ArtifactStore
from repro.core.flow import DebugFlowConfig
from repro.pipeline import (
    DEBUG_FLOW_GRAPH,
    GENERIC_STAGES,
    PHYSICAL_STAGES,
    DataflowScheduler,
    ScheduledTask,
    Stage,
    StageGraph,
    submit_compile,
)
from repro.workloads import campaign_spec, generate_circuit, stuck_at_scenarios

SPEC_A = campaign_spec("sched-a", n_gates=80, depth=6, n_pis=12, n_pos=6)
SPEC_B = campaign_spec("sched-b", n_gates=60, depth=5, n_pis=10, n_pos=5)
HORIZON = 48


@pytest.fixture(scope="module")
def scenarios():
    return stuck_at_scenarios(SPEC_A, 3, horizon=HORIZON) + stuck_at_scenarios(
        SPEC_B, 3, horizon=HORIZON
    )


def _outcomes_json(report) -> str:
    """The campaign CLI's outcomes serialization (byte-comparable)."""
    return json.dumps(report.outcomes(), indent=2, default=str)


class TestSegments:
    def test_full_flow_partition(self):
        segs = DEBUG_FLOW_GRAPH.segments(GENERIC_STAGES + PHYSICAL_STAGES)
        assert segs == [
            (
                "validate",
                "cleanup",
                "initial-map",
                "signal-parameterisation",
                "tcon-map",
                "pack",
            ),
            ("rr-graph",),
            ("place",),
            ("route", "bitgen"),
        ]

    def test_generic_flow_is_one_chain(self):
        assert DEBUG_FLOW_GRAPH.segments(GENERIC_STAGES) == [
            tuple(GENERIC_STAGES)
        ]

    def test_suffix_subset(self):
        # dependencies outside the subset count as externally supplied
        # (rr-graph is a store hit here), so the suffix fuses into one chain
        assert DEBUG_FLOW_GRAPH.segments(("place", "route", "bitgen")) == [
            ("place", "route", "bitgen"),
        ]

    def test_segments_cover_and_order(self):
        names = GENERIC_STAGES + PHYSICAL_STAGES
        segs = DEBUG_FLOW_GRAPH.segments(names)
        flat = [n for seg in segs for n in seg]
        assert sorted(flat) == sorted(names)
        # topological: every dependency inside the selection appears earlier
        seen = set()
        for seg in segs:
            for n in seg:
                deps = set(DEBUG_FLOW_GRAPH[n].inputs) & set(names)
                assert deps <= seen | set(seg)
                seen.add(n)


class TestSchedulerCore:
    def test_dependency_order_and_callbacks(self):
        sched = DataflowScheduler()
        order = []

        def make(name):
            return ScheduledTask(
                kind="offline",
                label=name,
                inline_fn=lambda: order.append(name),
            )

        a = sched.add(make("a"))
        b = sched.add(make("b"), deps=[a])
        sched.add(make("c"), deps=[a, b])
        sched.add(make("d"))
        sched.run()
        assert order.index("a") < order.index("b") < order.index("c")
        assert set(order) == {"a", "b", "c", "d"}

    def test_cancelled_task_never_runs(self):
        sched = DataflowScheduler()
        ran = []
        t = sched.add(
            ScheduledTask(
                kind="offline", label="x", inline_fn=lambda: ran.append(1)
            )
        )
        sched.cancel(t)
        sched.run()
        assert ran == []
        assert t.cancelled and not t.done

    def test_broken_pool_falls_back_inline(self):
        def factory(_n):
            raise OSError("no pools here")

        sched = DataflowScheduler(pool_size=2, executor_factory=factory)
        out = []
        sched.add(
            ScheduledTask(
                kind="online",
                label="p",
                pooled=True,
                worker_fn=len,
                payload=[1, 2, 3],
                on_done=lambda _t, r: out.append(r),
            )
        )
        sched.run()
        assert out == [3]
        assert sched.pool_broken
        assert "online" in sched.inline_fallbacks


# -- a tiny diamond graph for failure-isolation tests --------------------------
#
#   source -> s1 -> s2 -> s4      (s2 raises when params["boom"] is set)
#               \-> s3 --^


def _s1(ctx):
    return ("s1", ctx["source"].name)


def _s2(ctx):
    if ctx.params.get("boom"):
        raise ValueError("boom")
    return ("s2", *ctx["s1"])


def _s3(ctx):
    return ("s3", *ctx["s1"])


def _s4(ctx):
    return ("s4", ctx["s2"], ctx["s3"])


DIAMOND = StageGraph(
    [
        Stage("s1", _s1, inputs=("source",)),
        Stage("s2", _s2, inputs=("s1",), param_fields=("boom",)),
        Stage("s3", _s3, inputs=("s1",)),
        Stage("s4", _s4, inputs=("s2", "s3")),
    ]
)


class TestFailureIsolation:
    def test_failing_stage_cancels_only_its_designs_downstream(self):
        net_a = generate_circuit(SPEC_A)
        net_b = generate_circuit(SPEC_B)
        store = ArtifactStore()
        sched = DataflowScheduler()
        done = {}

        plan_a = DIAMOND.plan(net_a, params={"boom": True})
        plan_b = DIAMOND.plan(net_b)
        tasks_a = submit_compile(
            sched,
            DIAMOND,
            net_a,
            plan_a,
            store=store,
            on_complete=lambda res, err: done.setdefault("a", (res, err)),
        )
        tasks_b = submit_compile(
            sched,
            DIAMOND,
            net_b,
            plan_b,
            store=store,
            on_complete=lambda res, err: done.setdefault("b", (res, err)),
        )
        sched.run()

        res_a, err_a = done["a"]
        assert res_a is None and "ValueError: boom" in err_a
        res_b, err_b = done["b"]
        assert err_b is None and res_b.value("s4")[0] == "s4"
        assert all(t.done for t in tasks_b)
        # design A: the s4 segment (downstream of the failure) was
        # cancelled; the independent s3 segment still completed and its
        # artifact landed in the store
        by_head = {t.label.split(":")[-1]: t for t in tasks_a}
        assert by_head["s4"].cancelled and not by_head["s4"].done
        assert by_head["s3"].done
        assert store.contains("s3", plan_a.keys["s3"])
        assert not store.contains("s4", plan_a.keys["s4"])

    def test_on_complete_fires_exactly_once_on_failure(self):
        net = generate_circuit(SPEC_B)
        sched = DataflowScheduler()
        calls = []
        submit_compile(
            sched,
            DIAMOND,
            net,
            DIAMOND.plan(net, params={"boom": True}),
            on_complete=lambda res, err: calls.append((res, err)),
        )
        sched.run()
        assert len(calls) == 1
        assert calls[0][0] is None


class TestStoreStatsParity:
    """The scheduler's probe/put discipline must be indistinguishable
    from the serial executor's — cold, warm, and across an invalidating
    config change."""

    def _scheduled(self, net, config, store):
        sched = DataflowScheduler()
        out = {}
        submit_compile(
            sched,
            DEBUG_FLOW_GRAPH,
            net,
            DEBUG_FLOW_GRAPH.plan(net, config, stages=GENERIC_STAGES),
            store=store,
            on_complete=lambda res, err: out.update(res=res, err=err),
        )
        sched.run()
        assert out["err"] is None
        return out["res"]

    def test_cold_warm_and_invalidation_stats_match_serial(self):
        net = generate_circuit(SPEC_B)
        serial_store, sched_store = ArtifactStore(), ArtifactStore()
        configs = [
            DebugFlowConfig(),
            DebugFlowConfig(),  # fully warm repeat
            DebugFlowConfig(fold_polarity=False),  # invalidates tcon-map
        ]
        for config in configs:
            serial = DEBUG_FLOW_GRAPH.run(
                net, config, store=serial_store, stages=GENERIC_STAGES
            )
            scheduled = self._scheduled(net, config, sched_store)
            assert scheduled.keys() == serial.keys()
            assert scheduled.hits() == serial.hits()
            assert sched_store.stats.as_dict() == serial_store.stats.as_dict()


class TestScheduleParity:
    """The one schedule: outcomes JSON and store statistics are
    identical to a serial run at any worker count (two designs, so at
    ``workers=4`` both the builds and the lane batches are pooled)."""

    @pytest.fixture(scope="class")
    def serial(self, scenarios):
        return run_campaign(
            scenarios, config=CampaignConfig(workers=1), cache=ArtifactStore()
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_outcomes_and_stats_parity(self, scenarios, serial, workers):
        report = run_campaign(
            scenarios,
            config=CampaignConfig(workers=workers),
            cache=ArtifactStore(),
        )
        assert _outcomes_json(report) == _outcomes_json(serial)
        for stage in GENERIC_STAGES:
            got = report.cache_stats["per_stage"][stage]
            assert got == serial.cache_stats["per_stage"][stage]
        # the pool is sized for the widest phase: 2 cold designs, 2 batches
        assert report.workers == min(workers, 2)

    def test_critical_path_metrics_reported(self, scenarios):
        report = run_campaign(
            scenarios,
            config=CampaignConfig(workers=2),
            cache=ArtifactStore(),
        )
        assert report.sched_wall_s > 0
        assert 0.0 <= report.overlap_ratio <= 1.0
        assert "online" in report.stage_concurrency
        assert "scheduler: task wall" in report.render()

    def test_failing_design_does_not_poison_others(self, scenarios):
        # a design whose generation fails leaves the other design's
        # scenarios fully processed
        import dataclasses

        bad = dataclasses.replace(
            scenarios[0],
            name="bad",
            # depth > n_gates is ungeneratable -> registration failure
            spec=campaign_spec("sched-bad", n_gates=2, depth=7),
        )
        report = run_campaign(
            [bad, *scenarios[3:]],
            config=CampaignConfig(workers=2),
            cache=ArtifactStore(),
        )
        assert report.results[0].status == "error"
        assert "offline stage failed" in report.results[0].error
        assert all(r.status != "error" for r in report.results[1:])
