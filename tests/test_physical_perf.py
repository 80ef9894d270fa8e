"""PR 5's fast offline physical pipeline: determinism, quality, parity.

Three families of guarantees around the vectorized placer/router rewrite
and the pooled offline builds:

* **seed determinism** — the rewritten annealer and PathFinder produce
  bit-identical results for a fixed seed (and different placements for
  different seeds), including the incremental-HPWL bookkeeping matching
  a from-scratch recomputation;
* **quality gates** — on the paper-suite design, the rewritten placer's
  final HPWL and the rewritten router's wirelength/overuse are
  equal-or-better than the reference implementations they replaced
  (``benchmarks/ref_place.py``, ``benchmarks/ref_route.py``);
* **worker parity** — a campaign run at ``workers=2`` produces
  byte-identical outcomes JSON and store statistics to ``workers=1``,
  for memory-only and disk-backed stores and cold (``cache=None``), and
  a warm restart over the pooled build's store hits every stage.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.ref_place import _net_hpwl, place_design_ref
from benchmarks.ref_route import PathFinderRef
from repro.arch import ArchSpec
from repro.arch.routing_graph import build_rr_graph
from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.cache import ArtifactStore
from repro.core.muxnet import build_trace_network
from repro.mapping import TconMap
from repro.netlist.compiled import COMPILED_SIM_STAGE
from repro.pack import build_atoms, pack_design
from repro.place import place_design
from repro.route import route_design
from repro.workloads import campaign_spec, generate_circuit, mutation_scenarios

ARCH = ArchSpec(k=6, n_ble=4, n_cluster_inputs=14, channel_width=24, io_capacity=4)


def _pack(net):
    instr = build_trace_network(net, n_buffer_inputs=2)
    mapping = TconMap(params=instr.param_ids, taps=set(instr.taps)).map(
        instr.network
    )
    return pack_design(build_atoms(mapping, instr), ARCH)


@pytest.fixture(scope="module")
def packed_small():
    spec = campaign_spec("perf-small", n_gates=70, depth=6, n_pis=12, n_pos=6)
    return _pack(generate_circuit(spec))


class TestPlacerRewrite:
    def test_seed_deterministic(self, packed_small):
        a = place_design(packed_small, seed=11)
        b = place_design(packed_small, seed=11)
        assert a.loc_of == b.loc_of
        assert a.cost == b.cost
        assert a.moves_tried == b.moves_tried

    def test_seed_changes_placement(self, packed_small):
        a = place_design(packed_small, seed=11)
        b = place_design(packed_small, seed=12)
        assert a.loc_of != b.loc_of

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_incremental_cost_matches_recompute(self, packed_small, seed):
        """The incremental bounding-box ledger must land on exactly the
        HPWL a from-scratch recomputation gives — any drift means a bad
        boundary-count update."""
        p = place_design(packed_small, seed=seed)
        recomputed = sum(_net_hpwl(net, p.loc_of) for net in p.nets)
        assert p.cost == pytest.approx(recomputed, abs=1e-9)

    def test_blocks_on_distinct_valid_sites(self, packed_small):
        p = place_design(packed_small, seed=3)
        seen = set()
        for b in p.blocks:
            loc = p.loc_of[b.index]
            assert loc not in seen
            seen.add(loc)
            tt = p.grid.tile_type(loc[0], loc[1])
            assert tt.name == ("CLB" if b.kind == "clb" else "IO")


class TestRouterRewrite:
    def test_seed_deterministic(self, packed_small):
        p = place_design(packed_small, seed=5)
        a = route_design(p, build_rr_graph(p.grid))
        b = route_design(p, build_rr_graph(p.grid))
        assert [c.tree.nodes for c in a.connections] == [
            c.tree.nodes for c in b.connections
        ]
        assert [c.tree.edges for c in a.connections] == [
            c.tree.edges for c in b.connections
        ]

    def test_no_overuse_and_sinks_reached(self, packed_small):
        p = place_design(packed_small, seed=5)
        routing = route_design(p, build_rr_graph(p.grid))
        rr = routing.rr
        users: dict[int, set[int]] = {}
        for c in routing.connections:
            assert set(c.request.sinks) == set(c.tree.sink_paths)
            for n in c.tree.nodes:
                users.setdefault(n, set()).add(c.request.key)
        for n, keys in users.items():
            assert len(keys) <= int(rr.capacity[n]), rr.node_str(n)


@pytest.mark.slow
class TestQualityGates:
    """Rewritten vs reference on the paper-suite design (stereov.)."""

    @pytest.fixture(scope="class")
    def packed_paper(self):
        from repro.workloads import get_spec

        return _pack(generate_circuit(get_spec("stereov.")))

    # A single seed's anneal outcome swings ±1% with any change to the
    # packed input (the PR 10 mapping rewrite shifted same-rank cut
    # tie-breaks), so the quality gate compares across a small seed set:
    # the placers' best results must be equal-or-better and the summed
    # HPWL within 1% — a systematic regression fails both.
    SEEDS = (2016, 7, 123)

    def test_placer_hpwl_equal_or_better(self, packed_paper):
        new = [
            place_design(packed_paper, seed=s, effort=2.0).cost
            for s in self.SEEDS
        ]
        ref = [
            place_design_ref(packed_paper, seed=s, effort=2.0).cost
            for s in self.SEEDS
        ]
        assert min(new) <= min(ref), (
            f"rewritten placer best HPWL {min(new)} worse than reference "
            f"best {min(ref)} over seeds {self.SEEDS}"
        )
        assert sum(new) <= 1.01 * sum(ref), (
            f"rewritten placer HPWL {new} systematically worse than "
            f"reference {ref}"
        )

    def test_router_equal_or_better(self, packed_paper):
        new_p = place_design(packed_paper, seed=2016, effort=2.0)
        ref_p = place_design_ref(packed_paper, seed=2016, effort=2.0)
        new = route_design(new_p, build_rr_graph(new_p.grid))
        ref = route_design(
            ref_p, build_rr_graph(ref_p.grid), pathfinder=PathFinderRef
        )
        # both routers must reach legality (zero overuse, by construction
        # of route(); reaching here without UnroutableError proves it) and
        # the rewrite must not pay materially more wires than the
        # reference flow (same ±1% anneal-outcome tolerance as above:
        # each router pays for its own placer's placement)
        assert new.total_wires_used() <= 1.01 * ref.total_wires_used()
        assert new.iterations <= ref.iterations


def _outcomes_json(report) -> str:
    """The campaign CLI's outcomes serialization (byte-comparable)."""
    return json.dumps(report.outcomes(), indent=2, default=str)


def _build_stats(report) -> dict:
    """Per-stage store counters of the compile stages.  Compiled
    simulation programs are stored only by lane batches that run in the
    parent (a pooled batch compiles its own), so that pseudo-stage is
    left out of worker-count comparisons."""
    per_stage = dict(report.cache_stats["per_stage"])
    per_stage.pop(COMPILED_SIM_STAGE, None)
    return per_stage


class TestOfflineWorkersParity:
    """One worker knob, one build layout: ``workers`` ∈ {1, 2} must agree
    on outcomes JSON and on every store counter."""

    @pytest.fixture(scope="class")
    def scenarios(self):
        spec = campaign_spec(
            "perf-parity", n_gates=60, depth=6, n_pis=12, n_pos=6
        )
        # mutations: each scenario is its own design → 5 distinct builds
        return mutation_scenarios(spec, 5, seed=3, horizon=32)

    def _pair(self, scenarios, make_cache):
        return [
            run_campaign(
                scenarios,
                config=CampaignConfig(workers=w),
                cache=make_cache(w),
            )
            for w in (1, 2)
        ]

    def test_memory_store_parity(self, scenarios):
        serial, pooled = self._pair(scenarios, lambda _w: ArtifactStore())
        assert _outcomes_json(pooled) == _outcomes_json(serial)
        assert _build_stats(pooled) == _build_stats(serial)
        assert pooled.workers == 2

    def test_disk_store_parity_and_warm_restart(self, scenarios, tmp_path):
        serial, pooled = self._pair(
            scenarios,
            lambda w: ArtifactStore(cache_dir=str(tmp_path / f"w{w}")),
        )
        assert _outcomes_json(pooled) == _outcomes_json(serial)
        assert _build_stats(pooled) == _build_stats(serial)
        # artifacts landed under the same content-addressed keys: a
        # serial run over the pooled build's store hits every stage
        warm = run_campaign(
            scenarios,
            config=CampaignConfig(workers=1),
            cache=ArtifactStore(cache_dir=str(tmp_path / "w2")),
        )
        assert _outcomes_json(warm) == _outcomes_json(serial)
        stats = _build_stats(warm).values()
        assert all(st["misses"] == 0 for st in stats)
        assert all(st["hits"] == st["disk_hits"] > 0 for st in stats)
        assert all(r.offline_cache_hit for r in warm.results)

    def test_cold_parity_no_cache(self, scenarios):
        serial, pooled = self._pair(scenarios, lambda _w: None)
        assert _outcomes_json(pooled) == _outcomes_json(serial)
        assert pooled.cache_stats is serial.cache_stats is None

    def test_warm_groups_resolve_in_process(self, scenarios):
        """A fully warm store dispatches no build workers."""
        store = ArtifactStore()
        run_campaign(scenarios, config=CampaignConfig(workers=1), cache=store)
        warm = run_campaign(
            scenarios, config=CampaignConfig(workers=4), cache=store
        )
        assert warm.offline_stage_s == {}  # nothing was built
        assert all(r.offline_cache_hit for r in warm.results)
        assert set(warm.stage_concurrency) <= {"online"}

    def test_single_design_campaign_groups_once(self):
        """Stuck-at scenarios share one design: one build group, and the
        duplicates ride the first build as cache hits."""
        from repro.workloads import stuck_at_scenarios

        spec = campaign_spec(
            "perf-single", n_gates=60, depth=6, n_pis=12, n_pos=6
        )
        scenarios = stuck_at_scenarios(spec, 4, seed=5, horizon=32)
        serial, pooled = self._pair(scenarios, lambda _w: ArtifactStore())
        assert _outcomes_json(pooled) == _outcomes_json(serial)
        assert pooled.cache_stats == serial.cache_stats
        assert pooled.workers == 1  # one cold build, one lane batch
        hits = [r.offline_cache_hit for r in pooled.results]
        assert hits == [False, True, True, True]

    def test_per_stage_offline_timings_recorded(self, scenarios):
        report = run_campaign(
            scenarios,
            config=CampaignConfig(workers=2),
            cache=ArtifactStore(),
        )
        assert "tcon-map" in report.offline_stage_s
        assert report.offline_wall_s > 0.0
        assert sum(report.offline_stage_s.values()) > 0.0
        # and the renderer surfaces them
        assert "offline stages built:" in report.render()
