"""Dataflow scheduler semantics: segment fusion, failure isolation,
store statistics and typed errors of the one compile executor, and
campaign equivalence at several worker counts."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.analysis.reporting import stage_busy_ratios
from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.cache import ArtifactStore
from repro.core.flow import (
    DebugFlowConfig,
    run_generic_stage,
    run_physical_stage,
)
from repro.errors import PlacementError
from repro.pipeline import (
    DEBUG_FLOW_GRAPH,
    GENERIC_STAGES,
    PHYSICAL_STAGES,
    DataflowScheduler,
    ScheduledTask,
    Stage,
    StageGraph,
    compile_design,
    debug_stages,
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


class TestStoreStats:
    """One store across cold, warm and an invalidating config change over
    the five generic stages: every probe and every put counts once."""

    def test_cold_warm_and_invalidation_totals(self):
        net = generate_circuit(SPEC_B)
        store = ArtifactStore()

        def totals():
            st = store.stats
            return st.hits, st.misses, st.stores, st.invalidations

        assert len(GENERIC_STAGES) == 5
        compile_design(net, store=store)
        assert totals() == (0, 5, 5, 0)
        compile_design(net, store=store)  # fully warm repeat
        assert totals() == (5, 5, 5, 0)
        # invalidates tcon-map only
        compile_design(net, DebugFlowConfig(fold_polarity=False), store=store)
        assert totals() == (9, 6, 6, 1)
        tcon = store.stats.for_stage("tcon-map")
        assert (tcon.misses, tcon.stores, tcon.invalidations) == (2, 2, 1)


class TestTypedStageErrors:
    """An in-process compile raises the failing stage's own exception; a
    campaign reports the same failure as its ``Type: message`` string."""

    MESSAGE = "no legal site for block 3"

    @pytest.fixture
    def failing_place(self, monkeypatch):
        import repro.physical

        def place_stage(packed, **_kw):
            raise PlacementError(self.MESSAGE)

        monkeypatch.setattr(repro.physical, "place_stage", place_stage)

    def test_run_physical_stage_raises_placement_error(self, failing_place):
        offline = run_generic_stage(generate_circuit(SPEC_B))
        with pytest.raises(PlacementError) as info:
            run_physical_stage(offline)
        assert type(info.value) is PlacementError
        assert str(info.value) == self.MESSAGE

    def test_campaign_reports_type_and_message(self, scenarios, failing_place):
        report = run_campaign(
            [scenarios[3]],
            config=CampaignConfig(with_physical=True),
            cache=ArtifactStore(),
        )
        [result] = report.results
        assert result.status == "error"
        assert result.error == (
            f"offline stage failed: PlacementError: {self.MESSAGE}"
        )


class TestScheduleParity:
    """The one schedule: outcomes JSON and store statistics are
    identical to a serial run at any worker count (two designs, so at
    ``workers=4`` both the builds and the lane batches are pooled)."""

    @pytest.fixture(scope="class")
    def serial(self, scenarios):
        return run_campaign(
            scenarios, config=CampaignConfig(workers=1), cache=ArtifactStore()
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_outcomes_and_stats_parity(self, scenarios, serial, workers):
        report = run_campaign(
            scenarios,
            config=CampaignConfig(workers=workers),
            cache=ArtifactStore(),
        )
        assert _outcomes_json(report) == _outcomes_json(serial)
        # every stage's counters, emulation included: lane batches never
        # touch the store, pooled or not
        assert set(serial.cache_stats["per_stage"]) == set(debug_stages())
        assert report.cache_stats == serial.cache_stats
        # the pool is sized for the widest phase: 2 cold designs, 2 batches
        assert report.workers == min(workers, 2)

    def test_critical_path_metrics_reported(self, scenarios):
        report = run_campaign(
            scenarios,
            config=CampaignConfig(workers=2),
            cache=ArtifactStore(),
        )
        task_wall = report.trace.seconds()["run"]
        assert task_wall > 0
        assert 0.0 <= report.trace.overlap("offline", "online") <= task_wall
        assert "online" in stage_busy_ratios(report.trace)
        assert "scheduler: task wall" in report.render()

    def test_built_stage_record_matches_serial_within_campaign_wall(
        self, scenarios, serial
    ):
        pooled = run_campaign(
            scenarios,
            config=CampaignConfig(workers=2),
            cache=ArtifactStore(),
        )

        def built(report) -> Counter:
            return Counter(
                name
                for name, _s, _e, _p in report.trace.spans
                if name.startswith("stage.")
            )

        # two cold designs: every debug stage built once per design
        assert built(serial) == Counter(
            {f"stage.{name}": 2 for name in debug_stages()}
        )
        assert built(pooled) == built(serial)
        for report in (serial, pooled):
            [(_name, lo, hi, _parent)] = [
                s for s in report.trace.spans if s[0] == "campaign"
            ]
            for name, start, end, _parent in report.trace.spans:
                if name.startswith("stage."):
                    assert lo <= start <= end <= hi

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
