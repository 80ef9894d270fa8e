"""The campaign layer: cache semantics, determinism, reports, CLI."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    ArtifactStore,
    CampaignConfig,
    resolve_offline,
    run_campaign,
    run_scenario_batch,
)
from repro.core.debug import DebugSession
from repro.core.flow import DebugFlowConfig, offline_cache_key, run_generic_stage
from repro.errors import DebugFlowError
from repro.pipeline import GENERIC_STAGES
from repro.workloads import (
    DebugScenario,
    campaign_spec,
    generate_circuit,
    mutation_scenarios,
    stuck_at_scenarios,
)

SPEC = campaign_spec("camp-test", n_gates=100, depth=7, n_pis=16, n_pos=8)
HORIZON = 48


@pytest.fixture(scope="module")
def scenarios():
    return stuck_at_scenarios(SPEC, 3, horizon=HORIZON)


@pytest.fixture(scope="module")
def offline():
    return run_generic_stage(generate_circuit(SPEC))


def run_scenario(sc, offline):
    """One scenario's online loop: a one-lane batch."""
    (result,) = run_scenario_batch([sc], offline)
    return result


def _count_calls(monkeypatch, calls: dict, owner, name: str) -> None:
    """Count every call of ``owner.name`` into ``calls[name]``."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestCacheKey:
    def test_content_keyed(self):
        a = generate_circuit(SPEC)
        b = generate_circuit(SPEC)
        assert offline_cache_key(a) == offline_cache_key(b)

    def test_config_and_extra_discriminate(self):
        net = generate_circuit(SPEC)
        base = offline_cache_key(net)
        assert base != offline_cache_key(net, DebugFlowConfig(k=5))
        assert base != offline_cache_key(net, extra=("physical",))

    def test_distinct_designs_distinct_keys(self):
        net = generate_circuit(SPEC)
        other = generate_circuit(campaign_spec("camp-test2", n_gates=100))
        assert offline_cache_key(net) != offline_cache_key(other)


class TestOfflineCache:
    """Offline artifacts cached by content in the stage store."""

    def test_hit_returns_same_artifact(self):
        store = ArtifactStore()
        first, hit1 = resolve_offline(generate_circuit(SPEC), cache=store)
        second, hit2 = resolve_offline(generate_circuit(SPEC), cache=store)
        assert (hit1, hit2) == (False, True)
        assert second.mapping is first.mapping
        assert second.cache_key == first.cache_key
        n = len(GENERIC_STAGES)
        assert store.stats.hits == n and store.stats.misses == n

    def test_config_miss(self):
        store = ArtifactStore()
        net = generate_circuit(SPEC)
        resolve_offline(net, cache=store)
        _, hit = resolve_offline(net, DebugFlowConfig(k=4), cache=store)
        assert not hit
        assert store.stats.for_stage("initial-map").misses == 2

    def test_disk_roundtrip(self, tmp_path):
        d = str(tmp_path / "cache")
        resolve_offline(generate_circuit(SPEC), cache=ArtifactStore(cache_dir=d))
        # a fresh store (new process, same directory) hits from disk
        cold = ArtifactStore(cache_dir=d)
        stage, hit = resolve_offline(generate_circuit(SPEC), cache=cold)
        assert hit and cold.stats.disk_hits == cold.stats.hits > 0
        assert stage.summary()  # artifact survived pickling intact

    def test_corrupt_disk_entry_is_miss(self, tmp_path):
        d = str(tmp_path / "cache")
        warm = ArtifactStore(cache_dir=d)
        stage, _ = resolve_offline(generate_circuit(SPEC), cache=warm)
        with open(warm._path("tcon-map", stage.cache_key), "wb") as fh:
            fh.write(b"not a pickle")
        cold = ArtifactStore(cache_dir=d)
        _, hit = resolve_offline(generate_circuit(SPEC), cache=cold)
        assert not hit and cold.stats.misses == 1
        assert cold.stats.corrupt == 1


class TestScenarioGeneration:
    def test_deterministic(self, scenarios):
        again = stuck_at_scenarios(SPEC, 3, horizon=HORIZON)
        assert again == scenarios

    def test_mutation_deterministic(self):
        a = mutation_scenarios(SPEC, 2, horizon=HORIZON)
        b = mutation_scenarios(SPEC, 2, horizon=HORIZON)
        assert a == b
        # the recorded seed reproduces the identical bug
        bug1 = a[0].reproduce_bug(a[0].golden_network())
        bug2 = a[0].reproduce_bug(a[0].golden_network())
        assert (bug1.node_name, bug1.kind) == (bug2.node_name, bug2.kind)

    def test_stuck_at_shares_design_content(self, scenarios):
        keys = {offline_cache_key(sc.debug_network()) for sc in scenarios}
        assert len(keys) == 1

    def test_mutations_have_distinct_content(self):
        muts = mutation_scenarios(SPEC, 2, horizon=HORIZON)
        keys = {offline_cache_key(sc.debug_network()) for sc in muts}
        assert len(keys) == 2


class TestSessionForce:
    def test_force_changes_waveform(self, offline, scenarios):
        sig = scenarios[0].fault_signal
        value = scenarios[0].fault_value
        stim = scenarios[0].stimulus()

        clean = DebugSession(offline)
        clean.observe([sig])
        clean.run(HORIZON, stimulus=lambda c: stim[c])
        baseline = clean.waveforms()[sig]

        forced = DebugSession(offline)
        forced.force(sig, value)
        forced.observe([sig])
        forced.run(HORIZON, stimulus=lambda c: stim[c])
        wave = forced.waveforms()[sig]
        assert np.all(wave == value)
        assert not np.array_equal(wave, baseline)

        forced.clear_forces()
        forced.reset()
        forced.run(HORIZON, stimulus=lambda c: stim[c])
        assert np.array_equal(forced.waveforms()[sig], baseline)

    def test_force_unknown_signal_rejected(self, offline):
        session = DebugSession(offline)
        with pytest.raises(DebugFlowError):
            session.force("no_such_signal", 1)
        with pytest.raises(DebugFlowError):
            session.force(session.observable_signals[0], 2)
        # select parameters exist in the mapped net but are not designs
        # signals — forcing one would corrupt observation routing
        param = next(iter(offline.instrumented.param_space.names))
        with pytest.raises(DebugFlowError):
            session.force(param, 1)

    def test_output_trace_shape(self, offline):
        session = DebugSession(offline)
        trace = session.output_trace(4, stimulus=lambda c: {})
        assert len(trace) == 4
        assert set(trace[0]) == set(session.user_po_names)
        assert all(bit in (0, 1) for row in trace for bit in row.values())


class TestRunScenario:
    def test_stuck_at_localizes(self, offline, scenarios):
        result = run_scenario(scenarios[0], offline)
        assert result.status == "localized"
        assert result.truth == scenarios[0].fault_signal
        assert result.turns >= 1
        assert result.fail_cycle >= 0 and result.failing_po
        assert result.online_s > 0 and result.detect_s > 0
        assert (result.lane, result.lane_batch) == (0, 1)

    def test_mutation_localizes(self, scenarios):
        sc = mutation_scenarios(SPEC, 1, horizon=HORIZON)[0]
        offline = run_generic_stage(sc.debug_network())
        result = run_scenario(sc, offline)
        assert result.status == "localized"
        assert result.truth  # ground-truth gate recorded

    def test_error_captured_not_raised(self, offline, scenarios):
        import dataclasses

        broken = dataclasses.replace(scenarios[0], fault_signal="nope")
        result = run_scenario(broken, offline)
        assert result.status == "error"
        assert "nope" in result.error


class TestCampaign:
    def test_cache_amortizes_offline(self, scenarios):
        store = ArtifactStore()
        report = run_campaign(scenarios, cache=store)
        hits = [r.offline_cache_hit for r in report.results]
        assert hits == [False, True, True]
        # one build: every compile stage missed exactly once
        per_stage = store.stats.as_dict()["per_stage"]
        assert all(per_stage[s]["misses"] == 1 for s in GENERIC_STAGES)
        assert report.counts().get("localized") == len(scenarios)

    def test_serial_parallel_deterministic(self, scenarios):
        serial = run_campaign(
            scenarios, config=CampaignConfig(workers=1), cache=ArtifactStore()
        )
        parallel = run_campaign(
            scenarios, config=CampaignConfig(workers=2), cache=ArtifactStore()
        )
        assert serial.outcomes() == parallel.outcomes()
        # repeated runs are also reproducible
        again = run_campaign(
            scenarios, config=CampaignConfig(workers=1), cache=ArtifactStore()
        )
        assert serial.outcomes() == again.outcomes()

    def test_cold_run_builds_each_design_once(self, scenarios, monkeypatch):
        """A cold campaign shares one build among a design's scenarios."""
        import repro.pipeline.stages as stages

        built = []
        real = stages.validate_network

        def counting(net):
            built.append(net.name)
            return real(net)

        monkeypatch.setattr(stages, "validate_network", counting)
        report = run_campaign(
            scenarios, config=CampaignConfig(workers=1), cache=None
        )
        assert len(built) == 1
        assert report.cache_stats is None
        assert all(not r.offline_cache_hit for r in report.results)
        assert all(r.offline_s > 0 for r in report.results)
        assert report.counts().get("localized") == len(scenarios)

    def test_report_renders_and_saves(self, scenarios, tmp_path):
        report = run_campaign(scenarios, cache=ArtifactStore())
        text = report.render()
        assert "DEBUG-CAMPAIGN REPORT" in text
        assert "localization rate" in text
        for r in report.results:
            assert r.scenario in text
        path = report.save("campaign_test", str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            assert fh.read().strip() == text.strip()
        assert 0.0 <= report.localization_rate <= 1.0


#: Two small designs for the design-identity property: two specs, each
#: generated from two design seeds.
IDENTITY_SPECS = (
    campaign_spec("ident-a", n_gates=40, depth=5, n_pis=8, n_pos=4),
    campaign_spec("ident-b", n_gates=40, depth=5, n_pis=8, n_pos=4),
)

_identity_scenarios = st.lists(
    st.one_of(
        st.builds(
            lambda spec, seed: DebugScenario(
                name="sa", kind="stuck_at", spec=spec, design_seed=seed
            ),
            st.sampled_from(IDENTITY_SPECS),
            st.sampled_from([1, 2]),
        ),
        st.builds(
            lambda spec, seed, bug: DebugScenario(
                name="mut",
                kind="mutation",
                spec=spec,
                design_seed=seed,
                bug_seed=bug,
            ),
            st.sampled_from(IDENTITY_SPECS),
            st.sampled_from([1, 2]),
            st.integers(0, 2),
        ),
    ),
    min_size=1,
    max_size=10,
)


class TestDesignIdentity:
    """A campaign derives each design's network and offline key once per
    design identity; the groups it builds must be exactly the ones a
    per-scenario key derivation gives."""

    @settings(max_examples=30, deadline=None)
    @given(_identity_scenarios)
    def test_offline_groups_equal_partition_by_key(self, scenarios):
        import repro.campaign.orchestrator as orch

        def tag_group(*_args, on_complete, **_kw):
            # fail each group's build with its own tag: a scenario's error
            # names the offline group it was registered in
            on_complete(None, False, {}, f"group{next(tags)}")
            return []

        tags = iter(range(len(scenarios)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orch, "_submit_design_build", tag_group)
            report = run_campaign(scenarios, cache=None)
        by_group: dict[str, set[int]] = {}
        for idx, r in enumerate(report.results):
            by_group.setdefault(r.error, set()).add(idx)
        by_key: dict[str, set[int]] = {}
        for idx, sc in enumerate(scenarios):
            key = offline_cache_key(sc.debug_network(), DebugFlowConfig())
            by_key.setdefault(key, set()).add(idx)
        assert sorted(map(sorted, by_group.values())) == sorted(
            map(sorted, by_key.values())
        )

    def test_one_design_generated_and_keyed_once(self, monkeypatch):
        import repro.campaign.orchestrator as orch
        import repro.core.flow as flow
        import repro.workloads.scenarios as scenarios_mod

        spec = campaign_spec(
            "ident-24", n_gates=300, depth=8, n_pis=32, n_pos=24
        )
        scenarios = stuck_at_scenarios(spec, 24, horizon=24)
        calls = {"generate_circuit": 0, "offline_cache_key": 0}
        _count_calls(monkeypatch, calls, scenarios_mod, "generate_circuit")
        _count_calls(monkeypatch, calls, flow, "offline_cache_key")
        _count_calls(monkeypatch, calls, orch, "offline_cache_key")
        report = run_campaign(
            scenarios, config=CampaignConfig(max_turns=16), cache=None
        )
        assert report.counts().get("error") is None
        # one debug network at registration, one golden for the lane batch
        assert calls["generate_circuit"] <= 2
        assert calls["offline_cache_key"] == 1

    def test_failing_design_fails_each_of_its_scenarios(self):
        # a gate depth three gates cannot reach: generation raises
        spec = campaign_spec("ident-bad", n_gates=3, depth=10)
        bad = [
            DebugScenario(name=f"bad{i}", kind="stuck_at", spec=spec)
            for i in range(3)
        ]
        report = run_campaign(bad, cache=None)
        assert [r.status for r in report.results] == ["error"] * 3
        assert len({r.error for r in report.results}) == 1
        assert "offline stage failed" in report.results[0].error


class TestReportingAggregation:
    def test_aggregate_campaign(self, scenarios):
        from repro.analysis.reporting import aggregate_campaign

        report = run_campaign(scenarios, cache=ArtifactStore())
        agg = aggregate_campaign([r.as_record() for r in report.results])
        assert agg["n_scenarios"] == len(scenarios)
        assert agg["counts"]["localized"] == len(scenarios)
        assert agg["cache_hits"] == len(scenarios) - 1
        assert agg["localization_rate"] == 1.0

    def test_experiments_accept_offline_fn(self):
        from repro.analysis.experiments import _CACHE, run_benchmark_columns
        from repro.workloads import get_spec

        store = ArtifactStore()
        spec = get_spec("stereov.")
        _CACHE.pop((spec.name, 2016), None)
        try:
            cols = run_benchmark_columns(spec, offline_fn=store.as_offline_fn())
            assert store.stats.stores == len(GENERIC_STAGES)
            assert cols.offline.cache_key is not None
        finally:
            _CACHE.pop((spec.name, 2016), None)

    def test_warm_offline_fn_offer_memoized(self):
        # a warm in-process hit offers the artifact to an explicit
        # offline_fn once — not once per Table I/II/Fig. 7 column replay
        from repro.analysis.experiments import _CACHE, run_benchmark_columns
        from repro.core.flow import run_generic_stage
        from repro.workloads import get_spec

        spec = get_spec("stereov.")
        _CACHE.pop((spec.name, 2016), None)
        calls = []

        def offline_fn(net, config):
            calls.append(net.name)
            return run_generic_stage(net, config)

        try:
            run_benchmark_columns(spec, offline_fn=offline_fn)
            assert len(calls) == 1  # the build itself
            for _ in range(3):  # warm replays: no further offers
                run_benchmark_columns(spec, offline_fn=offline_fn)
            assert len(calls) == 1
            # a *different* offline_fn still gets its one offer
            other_calls = []

            def other_fn(net, config):
                other_calls.append(net.name)
                return run_generic_stage(net, config)

            run_benchmark_columns(spec, offline_fn=other_fn)
            assert len(other_calls) == 1
        finally:
            _CACHE.pop((spec.name, 2016), None)


class TestCli:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "0"),
            ("--workers", "-3"),
            ("--lane-width", "0"),
            ("--per-design", "0"),
            ("--horizon", "0"),
            ("--max-turns", "0"),
            ("--task-retries", "-2"),
            ("--task-timeout", "0"),
            ("--task-timeout", "-1"),
        ],
    )
    def test_bad_numbers_exit_2_before_any_work(
        self, flag, value, monkeypatch, capsys
    ):
        import repro.campaign.cli as cli

        generated = []
        monkeypatch.setattr(
            cli, "_build_scenarios", lambda *a: generated.append(a) or []
        )
        assert cli.main(["--physical", flag, value]) == 2
        assert generated == []
        assert flag in capsys.readouterr().err

    def test_screening_reuses_the_prebuilt_design_and_key(self, monkeypatch):
        import repro.campaign.cli as cli
        import repro.campaign.orchestrator as orch
        import repro.workloads as workloads

        calls = {"generate_circuit": 0, "_offline_group_key": 0}
        _count_calls(monkeypatch, calls, workloads, "generate_circuit")
        _count_calls(monkeypatch, calls, cli, "_offline_group_key")
        _count_calls(monkeypatch, calls, orch, "_offline_group_key")
        args = cli._parser().parse_args(
            ["--designs", "stereov.", "--per-design", "2", "--horizon", "48"]
        )
        scenarios = cli._build_scenarios(args, ArtifactStore())
        assert len(scenarios) == 2
        assert calls == {"generate_circuit": 1, "_offline_group_key": 1}

    def test_cli_runs_small_campaign(self, capsys):
        from repro.campaign.cli import main

        rc = main(
            [
                "--designs",
                "stereov.",
                "--per-design",
                "1",
                "--horizon",
                "48",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "DEBUG-CAMPAIGN REPORT" in out
