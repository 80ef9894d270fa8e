"""Drivers regenerating every table and figure of the paper's §V.

Per-benchmark flow artifacts are cached in-process so Table I, Table II
and Fig. 7 (which share the same runs) cost one pass.  The drivers are
embarrassingly parallel over benchmarks: pass ``map_fn`` (e.g. an MPI or
multiprocessing pool's ``map``) to distribute them.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.analysis.reporting import ascii_bar_chart
from repro.baselines import ConventionalResult, RecompileModel, run_conventional_flow
from repro.baselines.conventional import user_sink_names
from repro.core.costmodel import Virtex5Model
from repro.core.flow import DebugFlowConfig, OfflineStage, run_generic_stage
from repro.core.parameters import ParameterAssignment
from repro.core.scg import SpecializedConfigGenerator
from repro.core.virtual import build_virtual_pconf
from repro.mapping import MappingResult
from repro.util.tables import TextTable
from repro.workloads import BenchmarkSpec, generate_circuit, paper_suite

__all__ = [
    "BenchColumns",
    "run_benchmark_columns",
    "run_table1",
    "run_table2",
    "run_fig7",
    "run_compile_time",
    "run_runtime_overhead",
]

_CACHE: dict[tuple[str, int], "BenchColumns"] = {}

#: Per ``offline_fn``, the ``(benchmark, seed)`` pairs already offered to
#: it.  A warm :data:`_CACHE` hit still offers the artifact to an explicit
#: ``offline_fn`` once (the caller wants its cache populated), but Table
#: I, Table II and Fig. 7 all replay the same columns — without this memo
#: every driver would regenerate the circuit and re-offer per column.
#: Weakly keyed so dropping the cache adapter also drops its memo.
_OFFERED: "weakref.WeakKeyDictionary[Callable, set[tuple[str, int]]]" = (
    weakref.WeakKeyDictionary()
)


@dataclass
class BenchColumns:
    """All four Table I/II columns for one benchmark."""

    spec: BenchmarkSpec
    offline: OfflineStage
    sm: ConventionalResult
    abc: ConventionalResult
    user_sinks: list[str]
    runtime_s: float = 0.0

    @property
    def initial(self) -> MappingResult:
        return self.offline.initial

    @property
    def proposed(self) -> MappingResult:
        return self.offline.mapping

    def row_table1(self) -> list[object]:
        p = self.proposed
        return [
            self.spec.name,
            self.spec.n_gates,
            self.initial.n_luts,
            self.sm.n_luts,
            self.abc.n_luts,
            f"{p.n_luts}({p.n_tluts}/{p.n_tcons})",
        ]

    def row_table2(self) -> list[object]:
        return [
            self.spec.name,
            self.initial.depth_to(self.user_sinks),
            self.sm.user_depth,
            self.abc.user_depth,
            self.proposed.depth_to(self.user_sinks),
        ]


def run_benchmark_columns(
    spec: BenchmarkSpec,
    seed: int = 2016,
    *,
    offline_fn: Callable[..., OfflineStage] | None = None,
) -> BenchColumns:
    """Run Initial / SimpleMap / ABC / Proposed for one benchmark (cached).

    ``offline_fn(net, config) -> OfflineStage`` overrides how the offline
    artifact is produced; pass
    :meth:`repro.pipeline.ArtifactStore.as_offline_fn` to share artifacts
    with a debug campaign instead of re-running the generic stage here.
    """
    key = (spec.name, seed)
    got = _CACHE.get(key)
    if got is not None:
        if offline_fn is not None:
            # honor an explicit offline_fn even on a warm hit (the caller
            # wants its own cache populated) without re-running the
            # already-cached conventional flows — but offer each artifact
            # to a given offline_fn only once, so replaying the columns
            # across Table I/II/Fig. 7 doesn't regenerate the circuit and
            # re-offer per driver
            offered = _OFFERED.setdefault(offline_fn, set())
            if key not in offered:
                offered.add(key)
                offline_fn(generate_circuit(spec, seed), DebugFlowConfig())
        return got
    t0 = time.perf_counter()
    net = generate_circuit(spec, seed)
    sinks = user_sink_names(net)
    offline = (offline_fn or run_generic_stage)(net, DebugFlowConfig())
    if offline_fn is not None:
        # the build path already offered (net, config) to offline_fn
        _OFFERED.setdefault(offline_fn, set()).add(key)
    sm = run_conventional_flow(net, "simplemap")
    abc = run_conventional_flow(net, "abc")
    cols = BenchColumns(
        spec=spec,
        offline=offline,
        sm=sm,
        abc=abc,
        user_sinks=sinks,
        runtime_s=time.perf_counter() - t0,
    )
    _CACHE[key] = cols
    return cols


def _resolve_specs(
    specs: Sequence[BenchmarkSpec] | None, small_only: bool
) -> list[BenchmarkSpec]:
    if specs is not None:
        return list(specs)
    return paper_suite(small_only=small_only)


def run_table1(
    specs: Sequence[BenchmarkSpec] | None = None,
    *,
    seed: int = 2016,
    small_only: bool = False,
    map_fn: Callable = map,
) -> str:
    """Regenerate Table I: area results in #LUTs."""
    specs = _resolve_specs(specs, small_only)
    cols = list(map_fn(lambda s: run_benchmark_columns(s, seed), specs))
    t = TextTable(
        ["Benchmark", "#Gate", "Initial", "SM", "ABC", "Proposed (TLUT/TCON)"],
        aligns="lrrrrr",
    )
    for c in cols:
        t.add_row(c.row_table1())
    ref = TextTable(
        ["Benchmark", "Initial", "SM", "ABC", "Proposed (TLUT/TCON)"],
        aligns="lrrrr",
    )
    for c in cols:
        s = c.spec
        ref.add_row(
            [
                s.name,
                s.paper_initial_luts,
                s.paper_sm_luts,
                s.paper_abc_luts,
                f"{s.paper_proposed_luts}({s.paper_tluts}/{s.paper_tcons})",
            ]
        )
    ratios = [
        (c.sm.n_luts + c.abc.n_luts) / 2.0 / max(1, c.proposed.n_luts)
        for c in cols
    ]
    avg = sum(ratios) / len(ratios) if ratios else 0.0
    return (
        "TABLE I — AREA RESULTS IN #LUTS (measured)\n"
        + t.render()
        + f"\n\nconventional/proposed area ratio: avg {avg:.2f}x "
        f"(paper: ~3.5x)\n\nPaper reference values:\n"
        + ref.render()
    )


def run_table2(
    specs: Sequence[BenchmarkSpec] | None = None,
    *,
    seed: int = 2016,
    small_only: bool = False,
    map_fn: Callable = map,
) -> str:
    """Regenerate Table II: logic depth of the user design."""
    specs = _resolve_specs(specs, small_only)
    cols = list(map_fn(lambda s: run_benchmark_columns(s, seed), specs))
    t = TextTable(
        ["Benchmark", "Golden", "SimpleMap", "ABC", "Proposed"],
        aligns="lrrrr",
    )
    for c in cols:
        t.add_row(c.row_table2())
    ref = TextTable(
        ["Benchmark", "Golden", "SimpleMap", "ABC", "Proposed"],
        aligns="lrrrr",
    )
    for c in cols:
        s = c.spec
        # paper's per-column depths: SM/ABC are golden or golden+1; proposed
        # golden or golden-1 — encode the published values directly
        paper_depths = {
            "stereov.": (4, 5, 5, 4),
            "diffeq2": (14, 15, 15, 14),
            "diffeq1": (15, 15, 15, 14),
            "clma": (11, 11, 11, 11),
            "or1200": (27, 28, 28, 27),
            "frisc": (14, 14, 14, 14),
            "s38417": (7, 8, 8, 7),
            "s38584": (7, 8, 8, 7),
        }
        g, sm, abc, prop = paper_depths.get(
            s.name, (s.golden_depth,) * 4
        )
        ref.add_row([s.name, g, sm, abc, prop])
    return (
        "TABLE II — DEPTH RESULTS (measured)\n"
        + t.render()
        + "\n\nPaper reference values:\n"
        + ref.render()
    )


def run_fig7(
    specs: Sequence[BenchmarkSpec] | None = None,
    *,
    seed: int = 2016,
    small_only: bool = False,
    map_fn: Callable = map,
) -> str:
    """Regenerate Fig. 7: the area comparison as an ASCII bar chart + CSV."""
    specs = _resolve_specs(specs, small_only)
    cols = list(map_fn(lambda s: run_benchmark_columns(s, seed), specs))
    groups = [
        (
            c.spec.name,
            {
                "Initial": float(c.initial.n_luts),
                "SimpleMap": float(c.sm.n_luts),
                "ABC": float(c.abc.n_luts),
                "Proposed": float(c.proposed.n_luts),
            },
        )
        for c in cols
    ]
    chart = ascii_bar_chart(groups, unit="LUTs")
    csv = TextTable(["benchmark", "initial", "simplemap", "abc", "proposed"])
    for c in cols:
        csv.add_row(
            [
                c.spec.name,
                c.initial.n_luts,
                c.sm.n_luts,
                c.abc.n_luts,
                c.proposed.n_luts,
            ]
        )
    return (
        "FIG. 7 — AREA RESULTS IN TERMS OF LOOK-UP TABLES (measured)\n\n"
        + chart
        + "\n\nCSV series:\n"
        + csv.render_csv()
    )


def run_compile_time(
    specs: Sequence[BenchmarkSpec] | None = None,
    *,
    seed: int = 2016,
    map_fn: Callable = map,
) -> str:
    """Regenerate §V-C.1: wires, CLBs and P&R runtime, both flows.

    The paper runs this on "small designs"; by default we use the <1000
    gate subset of the suite, full pack/place/route in both flows.
    """
    from repro.physical import physical_from_mapping

    specs = _resolve_specs(specs, small_only=True)

    def one(spec: BenchmarkSpec):
        cols = run_benchmark_columns(spec, seed)
        prop_phys = physical_from_mapping(
            cols.offline.mapping, cols.offline.instrumented, seed=seed
        )
        conv_phys = physical_from_mapping(cols.abc.final, None, seed=seed)
        return spec, prop_phys, conv_phys

    rows = list(map_fn(one, specs))
    t = TextTable(
        [
            "Benchmark",
            "wires conv",
            "wires prop",
            "wire ratio",
            "CLBs conv",
            "CLBs prop",
            "CLB ratio",
            "P&R conv (s)",
            "P&R prop (s)",
        ],
        aligns="lrrrrrrrr",
    )
    for spec, prop, conv in rows:
        wc, wp = conv.wires_used, prop.wires_used
        cc, cp = conv.n_clbs_used, prop.n_clbs_used
        t.add_row(
            [
                spec.name,
                wc,
                wp,
                f"{wc / max(1, wp):.2f}x",
                cc,
                cp,
                f"{cc / max(1, cp):.2f}x",
                f"{conv.timers.total():.2f}",
                f"{prop.timers.total():.2f}",
            ]
        )
    return (
        "COMPILE-TIME OVERHEAD (§V-C.1, measured)\n"
        + t.render()
        + "\n\nPaper reference (small designs): 5316 wires parameterized vs "
        "15699 conventional (~3x less);\nP&R runtimes up to 3x faster; up "
        "to 4x fewer CLBs."
    )


def run_runtime_overhead(
    spec: BenchmarkSpec | None = None,
    *,
    seed: int = 2016,
    model: Virtex5Model | None = None,
    n_respecializations: int = 8,
) -> str:
    """Regenerate §V-C.2: specialization vs full reconfiguration.

    Uses the virtual PConf of a mid-size benchmark: measured software
    evaluation time, modeled device-side time, the three-orders-of-
    magnitude comparison against full reconfiguration, the 5000-turn
    break-even, and the conventional recompile comparison.
    """
    model = model or Virtex5Model()
    if spec is None:
        # clma: the largest benchmark — its PConf size puts the evaluation
        # time in the paper's quoted tens-of-microseconds regime
        spec = paper_suite()[3]
    cols = run_benchmark_columns(spec, seed)
    design = cols.offline.instrumented
    vp = build_virtual_pconf(cols.offline.mapping, design)
    scg = SpecializedConfigGenerator(vp.bitstream, model=model)
    scg.load_full(design.param_space.zeros())

    net = design.network
    taps = design.taps
    sw_times: list[float] = []
    records = []
    for i in range(n_respecializations):
        sig = net.node_name(taps[(i * 7) % len(taps)])
        values = design.selection_for([sig])
        rec = scg.respecialize(design.param_space.assignment(values))
        sw_times.append(rec.software_seconds)
        records.append(rec)

    last = records[-1]
    stats = last.stats
    cost = last.device_cost
    recomp = RecompileModel()
    conv_luts = cols.abc.n_luts
    recompile_s = recomp.compile_time_s(conv_luts)

    t = TextTable(["quantity", "value"], aligns="lr")
    t.add_row(["benchmark", spec.name])
    t.add_row(["tunable bits", vp.bitstream.n_tunable])
    t.add_row(["distinct Boolean functions", vp.bitstream.n_distinct_exprs])
    t.add_row(
        ["expr nodes / respecialization", stats.n_expr_nodes_evaluated]
    )
    t.add_row(
        [
            "SCG software time (this host)",
            f"{1e3 * sum(sw_times) / len(sw_times):.2f} ms",
        ]
    )
    for k, v in cost.rows():
        t.add_row([k, v])
    t.add_row(
        ["conventional recompile (model)", f"{recompile_s:.0f} s"]
    )
    t.add_row(
        [
            "specialization vs recompile",
            f"{recompile_s / cost.specialization_s:.0f}x faster",
        ]
    )
    full_vs_spec = cost.full_reconfig_s / cost.specialization_s
    return (
        "RUN-TIME OVERHEAD (§V-C.2, measured + modeled)\n"
        + t.render()
        + f"\n\nshape check: specialization is {full_vs_spec:.0f}x faster than a "
        "full reconfiguration\n(paper: ~3 orders of magnitude; 176 ms full vs "
        "<=50 us evaluation;\nbreak-even ~5000 debugging turns at 400 MHz / "
        "4-tick loop)."
    )
