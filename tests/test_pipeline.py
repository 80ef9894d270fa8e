"""The stage-graph pipeline: key algebra, store semantics, campaign threading."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignConfig,
    resolve_offline,
    run_campaign,
)
from repro.core.flow import DebugFlowConfig, run_generic_stage
from repro.errors import DebugFlowError
from repro.util.trace import Trace
from repro.mapping import AbcMap, TconMap
from repro.netlist.transforms import cleanup
from repro.pipeline import (
    DEBUG_FLOW_GRAPH,
    GENERIC_STAGES,
    PHYSICAL_STAGES,
    Stage,
    StageGraph,
    assemble_offline,
    compile_design,
    debug_stages,
)
from repro.workloads import campaign_spec, generate_circuit, stuck_at_scenarios

SPEC = campaign_spec("pipe-test", n_gates=100, depth=7, n_pis=16, n_pos=8)
ALL_STAGES = debug_stages(with_physical=True)
HORIZON = 48


@pytest.fixture(scope="module")
def net():
    return generate_circuit(SPEC)


@pytest.fixture(scope="module")
def offline(net):
    return run_generic_stage(net)


@pytest.fixture(scope="module")
def scenarios():
    return stuck_at_scenarios(SPEC, 3, horizon=HORIZON)


def downstream_from(first: str) -> set[str]:
    return set(DEBUG_FLOW_GRAPH.downstream_of(first))


class TestStageKeys:
    #: The exact invalidation footprint of every DebugFlowConfig field:
    #: changing a knob must re-key the stage that reads it plus its
    #: downstream closure — and nothing upstream.
    FIELD_FOOTPRINT = {
        ("k", 5): downstream_from("initial-map"),
        ("cut_limit", 6): downstream_from("initial-map"),
        ("area_rounds", 1): downstream_from("initial-map"),
        ("n_buffer_inputs", 4): downstream_from("signal-parameterisation"),
        ("run_cleanup", False): downstream_from("cleanup"),
        ("fold_polarity", False): downstream_from("tcon-map"),
        ("trace_depth", 2048): set(),
    }

    def test_every_config_field_has_a_pinned_footprint(self):
        from dataclasses import fields

        covered = {f for f, _ in self.FIELD_FOOTPRINT}
        assert covered == {f.name for f in fields(DebugFlowConfig)}

    def test_deterministic(self, net):
        a = DEBUG_FLOW_GRAPH.stage_keys(net, DebugFlowConfig())
        b = DEBUG_FLOW_GRAPH.stage_keys(generate_circuit(SPEC), DebugFlowConfig())
        assert a == b
        assert set(a) == set(ALL_STAGES)

    @pytest.mark.parametrize(
        "field,value", sorted(FIELD_FOOTPRINT, key=str), ids=lambda v: str(v)
    )
    def test_field_invalidates_exactly_downstream(self, net, field, value):
        base = DebugFlowConfig()
        old = DEBUG_FLOW_GRAPH.stage_keys(net, base)
        new = DEBUG_FLOW_GRAPH.stage_keys(net, replace(base, **{field: value}))
        changed = {s for s in ALL_STAGES if old[s] != new[s]}
        assert changed == self.FIELD_FOOTPRINT[(field, value)]

    def test_renamed_design_conservatively_misses(self, net):
        renamed = net.copy()
        renamed.name = "pipe-test-renamed"
        old = DEBUG_FLOW_GRAPH.stage_keys(net)
        new = DEBUG_FLOW_GRAPH.stage_keys(renamed)
        assert all(old[s] != new[s] for s in ALL_STAGES)

    def test_tap_override_enters_at_parameterisation(self, net):
        old = DEBUG_FLOW_GRAPH.stage_keys(net)
        new = DEBUG_FLOW_GRAPH.stage_keys(net, params={"taps": [1, 2, 3]})
        changed = {s for s in ALL_STAGES if old[s] != new[s]}
        assert changed == downstream_from("signal-parameterisation")

    def test_param_keys_hash_full_content_not_lossy_repr(self, net):
        # numpy's repr elides the middle of large arrays; keys must hash
        # the full content, so near-identical big overrides never collide
        import numpy as np

        a = np.arange(2000)
        b = a.copy()
        b[500] = 7
        assert repr(a) == repr(b)  # the hazard being guarded against
        ka = DEBUG_FLOW_GRAPH.stage_keys(net, params={"taps": a})
        kb = DEBUG_FLOW_GRAPH.stage_keys(net, params={"taps": b})
        assert ka["signal-parameterisation"] != kb["signal-parameterisation"]
        # list-vs-array of the same content is the same key
        kl = DEBUG_FLOW_GRAPH.stage_keys(net, params={"taps": list(a)})
        assert kl["signal-parameterisation"] == ka["signal-parameterisation"]

    def test_empty_tap_override_is_honored_not_defaulted(self, net):
        # an explicit empty selection must not silently fall back to the
        # default tap set its key claims to exclude
        with pytest.raises(DebugFlowError):
            compile_design(net, params={"taps": []})

    def test_physical_params_only_touch_their_stage_onward(self, net):
        old = DEBUG_FLOW_GRAPH.stage_keys(net)
        new = DEBUG_FLOW_GRAPH.stage_keys(net, params={"seed": 7})
        changed = {s for s in ALL_STAGES if old[s] != new[s]}
        assert changed == downstream_from("place")


class TestStageGraphStructure:
    def test_rejects_unordered_dependencies(self):
        with pytest.raises(DebugFlowError):
            StageGraph(
                [Stage("b", fn=lambda ctx: None, inputs=("a",))]
            )

    def test_rejects_duplicate_names(self):
        s = Stage("a", fn=lambda ctx: None, inputs=("source",))
        with pytest.raises(DebugFlowError):
            StageGraph([s, s])

    def test_prefix_must_be_dependency_closed(self):
        with pytest.raises(DebugFlowError):
            DEBUG_FLOW_GRAPH.prefix(["tcon-map"])
        # preset upstream artifacts satisfy the dependencies instead
        names = [
            s.name
            for s in DEBUG_FLOW_GRAPH.prefix(
                ["tcon-map"], have=["initial-map", "signal-parameterisation"]
            )
        ]
        assert names == ["tcon-map"]


class TestArtifactStore:
    def test_miss_then_hit_and_invalidation(self):
        store = ArtifactStore()
        assert store.get_if_present("s", "k1") is None
        store.put("s", "k1", 41)
        assert store.get_if_present("s", "k1").value == 41
        # a miss under a *different* key for a stage that has entries is
        # an invalidation; the very first miss was a cold build
        assert store.get_if_present("s", "k2") is None
        st = store.stats.for_stage("s")
        assert (st.hits, st.misses, st.invalidations) == (1, 2, 1)

    def test_new_group_is_cold_build_not_invalidation(self):
        # an invalidation means a *prior build of the same design* became
        # unreachable; a genuinely-new design entering a warm store is a
        # cold build
        store = ArtifactStore()
        store.get_if_present("s", "k1", group="design-a")
        store.put("s", "k1", 1, group="design-a")
        store.get_if_present("s", "k2", group="design-b")  # new design: cold
        assert store.stats.for_stage("s").invalidations == 0
        # same design, new key
        store.get_if_present("s", "k3", group="design-a")
        assert store.stats.for_stage("s").invalidations == 1
        # without a group the conservative heuristic still applies
        store.get_if_present("s", "k4")
        assert store.stats.for_stage("s").invalidations == 2

    def test_new_design_not_counted_as_invalidation_via_pipeline(self):
        store = ArtifactStore()
        compile_design(generate_circuit(SPEC), store=store)
        other = campaign_spec("pipe-test-b", n_gates=100, depth=7)
        compile_design(generate_circuit(other), store=store)
        assert store.stats.invalidations == 0
        # a knob change on a known design still counts
        compile_design(
            generate_circuit(SPEC),
            DebugFlowConfig(fold_polarity=False),
            store=store,
        )
        assert store.stats.for_stage("tcon-map").invalidations == 1
        assert store.stats.invalidations == 1

    def test_passthrough_cleanup_persists_ref_not_duplicate(self, tmp_path):
        import os

        from repro.pipeline.store import StoreRef

        d = str(tmp_path / "refstore")
        store = ArtifactStore(cache_dir=d)
        cfg = DebugFlowConfig(run_cleanup=False)
        net = generate_circuit(SPEC)
        result = compile_design(net, cfg, store=store)
        # pass-through: cleanup returned the validate artifact by identity
        assert result.value("cleanup") is result.value("validate")
        val_path = store._path("validate", result.artifacts["validate"].key)
        cln_path = store._path("cleanup", result.artifacts["cleanup"].key)
        # the cleanup entry on disk is a tiny StoreRef, not a second pickle
        assert os.path.getsize(cln_path) < os.path.getsize(val_path) / 2
        import pickle

        with open(cln_path, "rb") as fh:
            ref = pickle.load(fh)
        assert isinstance(ref, StoreRef) and ref.stage == "validate"
        # a fresh store (new process) resolves the ref transparently
        fresh = ArtifactStore(cache_dir=d)
        again = compile_design(net, cfg, store=fresh)
        assert again.full_hit
        assert again.value("cleanup").name == net.name

    def test_disk_roundtrip_and_corrupt_entry(self, tmp_path):
        d = str(tmp_path / "store")
        warm = ArtifactStore(cache_dir=d)
        warm.put("stage-a", "key1", {"payload": [1, 2]})

        fresh = ArtifactStore(cache_dir=d)
        found = fresh.get_if_present("stage-a", "key1")
        assert found.value == {"payload": [1, 2]}
        assert fresh.stats.disk_hits == 1

        with open(fresh._path("stage-a", "key1"), "wb") as fh:
            fh.write(b"not a pickle")
        broken = ArtifactStore(cache_dir=d)
        assert broken.get_if_present("stage-a", "key1") is None


class TestCompileDesign:
    def test_cold_then_fully_warm(self, net):
        store = ArtifactStore()
        cold = compile_design(net, store=store)
        assert not any(cold.hits().values())
        warm = compile_design(net, store=store)
        assert warm.full_hit
        # the warm run did zero stage work
        assert warm.trace.spans == []

    def test_store_does_not_alias_caller_network(self, net):
        # the cached source/cleanup artifacts must be copies: mutating the
        # caller's network after a compile may not rewrite store contents
        store = ArtifactStore()
        mine = net.copy()
        cfg = DebugFlowConfig(run_cleanup=False)
        first = compile_design(mine, cfg, store=store)
        assert first.value("cleanup") is not mine
        name_before = first.value("cleanup").name
        mine.name = "mutated-after-compile"
        again = compile_design(net.copy(), cfg, store=store)
        assert again.full_hit
        assert again.value("cleanup").name == name_before

    def test_single_knob_rebuilds_only_invalidated_suffix(self, net):
        store = ArtifactStore()
        compile_design(net, store=store)
        partial = compile_design(
            net, DebugFlowConfig(fold_polarity=False), store=store
        )
        assert partial.hits() == {
            "validate": True,
            "cleanup": True,
            "initial-map": True,
            "signal-parameterisation": True,
            "tcon-map": False,
        }

    def test_facade_matches_manual_flow(self, net, offline):
        """run_generic_stage through the graph ≡ the historical sequence."""
        config = DebugFlowConfig()
        work = cleanup(net)
        initial = AbcMap(
            k=config.k,
            cut_limit=config.cut_limit,
            area_rounds=config.area_rounds,
        ).map(work)
        taps = sorted(initial.luts.keys()) + [l.q for l in work.latches]
        assert offline.initial.n_luts == initial.n_luts
        assert offline.taps == offline.instrumented.taps
        assert sorted(offline.initial.luts.keys()) + [
            l.q for l in offline.source.latches
        ] == taps
        mapping = TconMap(
            k=config.k,
            cut_limit=config.cut_limit,
            area_rounds=config.area_rounds,
            params=offline.instrumented.param_ids,
            taps=set(offline.taps),
            fold_polarity=config.fold_polarity,
        ).map(offline.instrumented.network)
        assert (offline.mapping.n_luts, offline.mapping.n_tcons) == (
            mapping.n_luts,
            mapping.n_tcons,
        )
        # one span per stage, under the stage's name
        assert set(offline.trace.seconds("stage.")) == set(GENERIC_STAGES)

    def test_assemble_offline_equivalent_to_facade(self, net, offline):
        again = assemble_offline(compile_design(net))
        assert again.summary() == offline.summary()
        assert again.stage_keys["tcon-map"] == offline.stage_keys["tcon-map"]


class TestResolveOffline:
    def test_cold_builds_every_time(self, net):
        a, hit_a = resolve_offline(net)
        b, hit_b = resolve_offline(net)
        assert not hit_a and not hit_b
        assert a is not b

    def test_stage_granular_flavor(self, net):
        store = ArtifactStore()
        _, h1 = resolve_offline(net, cache=store)
        _, h2 = resolve_offline(net, cache=store)
        # trace_depth is an online knob: nothing is invalidated, so even a
        # "changed" config is a full hit at stage granularity
        _, h3 = resolve_offline(
            net, DebugFlowConfig(trace_depth=2048), cache=store
        )
        assert (h1, h2, h3) == (False, True, True)
        # a mapping knob is a partial rebuild, reported as a build
        _, h4 = resolve_offline(
            net, DebugFlowConfig(fold_polarity=False), cache=store
        )
        assert not h4
        assert store.stats.for_stage("tcon-map").invalidations == 1


class TestResolveOfflineParams:
    def test_params_honored_on_every_cache_flavor(self, net, offline):
        sub = offline.taps[: max(2, len(offline.taps) // 2)]
        cold, _ = resolve_offline(net, params={"taps": sub})
        assert cold.instrumented.taps == list(sub)

        store = ArtifactStore()
        resolve_offline(net, cache=store)
        staged, hit = resolve_offline(net, cache=store, params={"taps": sub})
        # a params-bearing request may not be served the default-taps hit
        assert not hit and staged.instrumented.taps == list(sub)

    def test_emulation_entry_of_older_program_version_misses(
        self, net, offline, tmp_path
    ):
        """A store holding ``emulation`` artifacts under the stage keys of
        every older program version (1: unsplit programs; 2: kernel chunks
        of 1,000 ops, which the current layout would slice wrongly) serves
        nothing to the current version: the stage misses, rebuilds and
        stores under its own key."""
        import os

        from repro.netlist.compiled import PROGRAM_VERSION

        assert PROGRAM_VERSION == 3
        config = DebugFlowConfig()
        new_key = DEBUG_FLOW_GRAPH.stage_keys(net, config)["emulation"]
        d = str(tmp_path / "cache")
        stale = offline.ensure_emulation()
        for version in range(1, PROGRAM_VERSION):
            old = StageGraph(
                [
                    replace(s, version=version) if s.name == "emulation" else s
                    for s in DEBUG_FLOW_GRAPH
                ]
            )
            old_key = old.stage_keys(net, config)["emulation"]
            assert old_key != new_key
            ArtifactStore(cache_dir=d).put("emulation", old_key, stale)
        store = ArtifactStore(cache_dir=d)
        rebuilt, hit = resolve_offline(net, config, cache=store)
        assert not hit
        st = store.stats.for_stage("emulation")
        assert (st.hits, st.misses, st.stores) == (0, 1, 1)
        assert rebuilt.emulation is not stale
        assert os.path.exists(store._path("emulation", new_key))


class TestCampaignWithStageStore:
    def test_stage_hits_and_report_breakdown(self, scenarios):
        store = ArtifactStore()
        report = run_campaign(scenarios, cache=store)
        assert [r.offline_cache_hit for r in report.results] == [
            False,
            True,
            True,
        ]
        # one build plan per design: the duplicates share it unprobed
        tcon = report.cache_stats["per_stage"]["tcon-map"]
        assert (tcon["misses"], tcon["hits"], tcon["stores"]) == (1, 0, 1)
        text = report.render()
        assert "stage tcon-map:" in text

    def test_config_change_between_campaigns_is_incremental(self, scenarios):
        store = ArtifactStore()
        first = run_campaign(scenarios, cache=store)
        changed = CampaignConfig(flow=DebugFlowConfig(fold_polarity=False))
        second = run_campaign(scenarios, config=changed, cache=store)
        assert {r.status for r in first.results + second.results} == {
            "localized"
        }
        # the second campaign rebuilt only the TCON mapping
        per_stage = store.stats.as_dict()["per_stage"]
        assert per_stage["tcon-map"]["misses"] == 2
        for unaffected in ("validate", "cleanup", "initial-map"):
            assert per_stage[unaffected]["misses"] == 1


class TestOrchestratorPolish:
    def test_payloads_deduped_per_cache_key(self, scenarios):
        from repro.campaign.orchestrator import _payloads, plan

        def batches(lane_width):
            config = CampaignConfig(lane_width=lane_width)
            [lanes] = plan(scenarios, config, Trace()).batches.values()
            return lanes

        net = scenarios[0].debug_network()
        stage, _hit = resolve_offline(net, with_physical=True)
        # the shared-artifact group packs into one 64-lane batch, its
        # artifact stripped of the physical stage and shipped once; no
        # network rides along (each batch takes its golden network from
        # the generator's per-process memo)
        lanes = _payloads(stage, batches(64), 48)
        assert len(lanes) == 1
        assert len(lanes[0]) == 3
        shipped, items, max_turns = lanes[0]
        assert stage.physical is not None
        assert shipped.physical is None and max_turns == 48
        assert [idx for idx, _ in items] == [0, 1, 2]
        # narrow lanes split the group into ceil(n / lane_width) batches
        narrow = _payloads(stage, batches(2), 48)
        assert sorted(len(p[1]) for p in narrow) == [1, 2]
        assert all(p[0] is narrow[0][0] for p in narrow)
        # lane_width=1: one one-lane batch per scenario
        solo = batches(1)
        assert [[idx for idx, _ in b] for b in solo] == [[0], [1], [2]]

    def test_pool_fallback_reports_effective_workers(
        self, scenarios, monkeypatch
    ):
        import repro.campaign.orchestrator as orch

        class BrokenPool:
            def __init__(self, *a, **kw):
                raise OSError("no process pools here")

        monkeypatch.setattr(orch, "ProcessPoolExecutor", BrokenPool)
        # lane_width=1 with several workers yields multiple payloads, so
        # the pool is genuinely attempted — and its failure reported
        report = run_campaign(
            scenarios,
            config=CampaignConfig(workers=4, lane_width=1),
            cache=ArtifactStore(),
        )
        assert report.workers == 1
        assert any("effective workers: 1" in n for n in report.notes)
        assert {r.status for r in report.results} == {"localized"}

    def test_pool_skipped_for_single_payload(self, scenarios, monkeypatch):
        """One lane batch can't be spread over a pool: the orchestrator
        must not pay pool startup for it (the BENCH_campaign pool_speedup
        < 1 regression) and must record the true effective workers."""
        import repro.campaign.orchestrator as orch

        def explode(*a, **kw):  # the pool must not even be constructed
            raise AssertionError("pool should have been skipped")

        # a warm store leaves no cold build to pool either
        store = ArtifactStore()
        resolve_offline(scenarios[0].debug_network(), cache=store)
        monkeypatch.setattr(orch, "ProcessPoolExecutor", explode)
        report = run_campaign(
            scenarios, config=CampaignConfig(workers=4), cache=store
        )
        assert report.workers == 1
        assert any("worker pool skipped" in n for n in report.notes)
        assert {r.status for r in report.results} == {"localized"}


class TestFaultUnification:
    def test_one_shared_forced_fault_type(self):
        from repro.core.debug import ForcedFault as SessionFault
        from repro.emu.fault import ForcedFault as EmuFault

        assert SessionFault is EmuFault

    def test_injector_and_session_share_semantics(self, offline):
        from repro.core.debug import DebugSession
        from repro.emu.fault import active_override_ints

        session = DebugSession(offline)
        sig = session.observable_signals[0]
        fault = session.force(sig, 1, first_cycle=2, last_cycle=3)
        # the session's per-cycle overrides are exactly active_override_ints,
        # and a block's are the per-cycle ones side by side, one lane apart
        packed = {}
        width = session.engine.n_lanes
        for cycle in range(5):
            direct = active_override_ints([fault], cycle, n_lanes=width)
            assert (direct is not None) == (2 <= cycle <= 3)
            assert session.engine._block_overrides(cycle, 1) == direct
            for node, (forced, mask) in (direct or {}).items():
                f0, m0 = packed.get(node, (0, 0))
                sh = width * cycle
                packed[node] = (f0 | forced << sh, m0 | mask << sh)
        assert session.engine._block_overrides(0, 5) == packed
        assert fault.active_at(2) and not fault.active_at(4)


@pytest.mark.slow
class TestPhysicalPipeline:
    SPEC = campaign_spec("pipe-phys", n_gates=60, depth=6, n_pis=12, n_pos=6)

    def test_physical_stages_cache_and_invalidate(self):
        net = generate_circuit(self.SPEC)
        store = ArtifactStore()
        cold = compile_design(net, store=store, with_physical=True)
        assert set(cold.artifacts) == set(ALL_STAGES)
        warm = compile_design(net, store=store, with_physical=True)
        assert warm.full_hit
        # fold_polarity invalidates tcon-map and the physical suffix only
        part = compile_design(
            net,
            DebugFlowConfig(fold_polarity=False),
            store=store,
            with_physical=True,
        )
        misses = {s for s, hit in part.hits().items() if not hit}
        assert misses == downstream_from("tcon-map")

    def test_facade_shares_store_entries_with_full_graph(self):
        from repro.core.flow import run_physical_stage

        net = generate_circuit(self.SPEC)
        store = ArtifactStore()
        compile_design(net, store=store, with_physical=True)
        offline = assemble_offline(compile_design(net, store=store))
        via_facade = run_physical_stage(offline, store=store)
        assert offline.physical is via_facade
        # the façade's physical stages hit the entries the full-graph
        # compile stored (graph-native preset keys), never rebuilding
        for s in PHYSICAL_STAGES:
            stats = store.stats.for_stage(s)
            assert stats.misses == 1 and stats.hits >= 1


class TestCliCacheCorrectness:
    @pytest.mark.slow
    def test_second_run_is_all_stage_hits_with_identical_outcomes(
        self, tmp_path
    ):
        import json

        from repro.campaign.cli import main

        cache_dir = str(tmp_path / "cache")
        out1 = str(tmp_path / "run1.json")
        out2 = str(tmp_path / "run2.json")
        args = [
            "--designs",
            "stereov.",
            "--per-design",
            "1",
            "--horizon",
            "48",
            "--cache-dir",
            cache_dir,
        ]
        assert main([*args, "--outcomes-json", out1]) == 0
        assert main([*args, "--outcomes-json", out2, "--assert-warm"]) == 0
        with open(out1) as fh1, open(out2) as fh2:
            assert json.load(fh1) == json.load(fh2)

    def test_assert_warm_rejects_no_cache(self):
        from repro.campaign.cli import main

        assert main(["--no-cache", "--assert-warm"]) == 2

    def test_assert_warm_fails_cold(self, tmp_path):
        from repro.campaign.cli import main

        rc = main(
            [
                "--designs",
                "stereov.",
                "--per-design",
                "1",
                "--horizon",
                "48",
                "--cache-dir",
                str(tmp_path / "fresh"),
                "--assert-warm",
            ]
        )
        assert rc == 3
