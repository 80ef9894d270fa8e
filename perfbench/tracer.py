"""Span recorder and layer wrappers for the traced benchmark run.

The benchmark never edits the program to trace it.  Instead it wraps the
public function each layer exposes, patching the name everywhere callers
look it up: a module-level function is replaced in every loaded ``repro``
module that bound it (``from x import f`` copies the name), a method is
replaced on its class.  Each wrapper records one span (name, start, end,
parent) in memory; the spans are turned into per-layer metrics and a
Chrome trace-event file when the run ends.

A target that no longer exists is reported as missing, with the reason,
and every metric derived from it is marked missing instead of crashing
the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Value a per-layer metric takes when a wrapped target has disappeared.
MISSING = -1.0


class Recorder:
    """In-memory spans plus counters of one traced sample.

    ``spans`` holds ``[name, start, end, parent index]`` lists, parents
    always before children; ``counts`` holds integer counters and
    ``keys`` the values key derivations returned.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.keys: dict[str, list[str]] = {}
        self.pconfs: dict[int, tuple[int, int]] = {}
        self.backends: set[str] = set()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, n: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def merged(self, later: "Recorder") -> "Recorder":
        """This recorder's spans and counts followed by ``later``'s."""
        out = Recorder()
        base = len(self.spans)
        out.spans = [list(s) for s in self.spans] + [
            [n, a, b, p + base if p >= 0 else -1] for n, a, b, p in later.spans
        ]
        for counts in (self.counts, later.counts):
            for k, v in counts.items():
                out.add(k, v)
        for keys in (self.keys, later.keys):
            for k, v in keys.items():
                out.keys.setdefault(k, []).extend(v)
        out.pconfs = {**self.pconfs, **later.pconfs}
        out.backends = self.backends | later.backends
        return out

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block (the benchmark's own steps)."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


# -- post-call hooks: counts measured where the work happens -------------------


def _record_key(kind: str):
    def hook(rec: Recorder, args, kwargs, out, pre) -> None:
        rec.keys.setdefault(kind, []).append(out)

    return hook


def _specialize_hook(rec: Recorder, args, kwargs, out, pre) -> None:
    pconf = args[0]
    rec.add("scg.expr_nodes", out[1].n_expr_nodes_evaluated)
    if id(pconf) not in rec.pconfs:
        rec.pconfs[id(pconf)] = (pconf.n_distinct_exprs, pconf.n_tunable)


def _cycle_before(args, kwargs):
    return args[0].cycle


def _cycles_hook(rec: Recorder, args, kwargs, out, pre) -> None:
    rec.add("kern.steps", args[0].cycle - pre)


def _engine_hook(rec: Recorder, args, kwargs, out, pre) -> None:
    backend = args[0].backend
    rec.backends.add(backend if backend is not None else "interpreted")


@dataclass(frozen=True)
class Target:
    """One wrapped public function: span name, layer, and where it lives."""

    span: str
    layer: str
    module: str
    qualname: str
    hook: Callable | None = None
    pre: Callable | None = None


#: Layer boundaries, in report order.  Stage spans time the public
#: function each stage body calls (``repro.pipeline.stages``).
TARGETS: tuple[Target, ...] = (
    Target("gen.generate_circuit", "gen", "repro.workloads.generator", "generate_circuit"),
    Target("keys.offline_cache_key", "keys", "repro.core.flow", "offline_cache_key",
           hook=_record_key("offline_cache_key")),
    Target("keys.source_key", "keys", "repro.pipeline.graph", "source_key",
           hook=_record_key("source_key")),
    Target("keys.write_blif", "keys", "repro.netlist.blif", "write_blif"),
    Target("screen.stuck_at_scenarios", "screen", "repro.workloads.scenarios",
           "stuck_at_scenarios"),
    Target("screen.output_trace", "screen", "repro.core.debug", "DebugSession.output_trace"),
    Target("store.get", "store", "repro.pipeline.store", "ArtifactStore.get_if_present"),
    Target("store.put", "store", "repro.pipeline.store", "ArtifactStore.put"),
    Target("stage.validate", "stages", "repro.netlist.validate", "validate_network"),
    Target("stage.cleanup", "stages", "repro.netlist.transforms", "cleanup"),
    Target("stage.initial-map", "stages", "repro.mapping.abc_map", "AbcMap.map"),
    Target("stage.signal-parameterisation", "stages", "repro.core.muxnet", "build_trace_network"),
    Target("stage.tcon-map", "stages", "repro.mapping.tconmap", "TconMap.map"),
    Target("stage.pack", "stages", "repro.physical", "pack_stage"),
    Target("stage.rr-graph", "stages", "repro.physical", "rr_graph_stage"),
    Target("stage.place", "stages", "repro.physical", "place_stage"),
    Target("stage.route", "stages", "repro.physical", "route_stage"),
    Target("stage.bitgen", "stages", "repro.physical", "bitgen_stage"),
    Target("sched.run", "sched", "repro.pipeline.scheduler", "DataflowScheduler.run"),
    Target("orch.run_campaign", "sched", "repro.campaign.orchestrator", "run_campaign"),
    Target("lanes.init", "lanes", "repro.engine.lanes", "LaneEngine.__init__", hook=_engine_hook),
    Target("lanes.to_lut_network", "lanes", "repro.mapping.result",
           "MappingResult.to_lut_network"),
    Target("lanes.build_virtual_pconf", "lanes", "repro.core.virtual", "build_virtual_pconf"),
    Target("lanes.program_for", "lanes", "repro.netlist.compiled", "program_for"),
    Target("scg.specialize", "scg", "repro.core.pconf", "ParameterizedBitstream.specialize",
           hook=_specialize_hook),
    Target("scg.load_full", "scg", "repro.core.scg", "SpecializedConfigGenerator.load_full"),
    Target("scg.respecialize", "scg", "repro.core.scg", "SpecializedConfigGenerator.respecialize"),
    Target("mux.selection_for", "mux", "repro.core.muxnet", "InstrumentedDesign.selection_for"),
    Target("mux.observed_at", "mux", "repro.core.muxnet", "InstrumentedDesign.observed_at"),
    Target("kern.step", "kern", "repro.netlist.compiled", "CompiledSimulator.step",
           hook=_cycles_hook, pre=_cycle_before),
    Target("kern.run_block", "kern", "repro.netlist.compiled", "CompiledSimulator.run_block",
           hook=_cycles_hook, pre=_cycle_before),
    Target("kern.run_block_array", "kern", "repro.netlist.compiled",
           "CompiledSimulator.run_block_array", hook=_cycles_hook, pre=_cycle_before),
    Target("lanes.run", "kern", "repro.engine.lanes", "LaneEngine.run"),
    Target("lanes.run_outputs", "kern", "repro.engine.lanes", "LaneEngine.run_outputs"),
    Target("lanes.waveforms", "kern", "repro.engine.lanes", "LaneEngine.waveforms"),
    Target("golden.packed_signal_traces", "golden", "repro.workloads.scenarios",
           "packed_signal_traces"),
    Target("runner.run_scenario_batch", "localize", "repro.campaign.runner", "run_scenario_batch"),
)

LAYERS = ("gen", "keys", "screen", "store", "stages", "sched", "lanes",
          "scg", "mux", "kern", "golden", "localize")


def _wrap(fn: Callable, target: Target, rec: Recorder) -> Callable:
    name, hook, pre = target.span, target.hook, target.pre

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = pre(args, kwargs) if pre is not None else None
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, kwargs, out, token)
        return out

    return wrapper


def _repro_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


class Patches:
    """Installs the wrappers of :data:`TARGETS` for one recorder.

    ``missing`` maps the span name of every target that could not be
    resolved to the reason.  :meth:`remove` restores every original.
    """

    def __init__(self, rec: Recorder, targets=TARGETS) -> None:
        self.rec = rec
        self.targets = targets
        self.missing: dict[str, str] = {}
        self._undo: list[tuple[Any, str, Any]] = []
        self._originals: dict[int, tuple[Callable, Callable]] = {}

    def install(self) -> "Patches":
        resolved = []
        for t in self.targets:
            try:
                owner = importlib.import_module(t.module)
                *path, attr = t.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[t.span] = f"{t.module}.{t.qualname}: {exc}"
                continue
            resolved.append((t, owner, attr, orig, bool(path)))
        # resolve every original before patching any: a subclass that
        # inherits a wrapped method must get its own wrapper of the
        # original, never a wrapper of a wrapper
        for t, owner, attr, orig, is_method in resolved:
            wrapper = _wrap(orig, t, self.rec)
            self._originals[id(wrapper)] = (wrapper, orig)
            if is_method:
                self._set(owner, attr, wrapper)
                continue
            for mod in _repro_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
        return self

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()
        # a module first imported while tracing bound the wrappers itself
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                pair = self._originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, key, pair[1])


_ABSENT = object()


# -- derived metrics -----------------------------------------------------------


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive seconds count only the outermost span of a name, so a
    recursive call is not counted twice; self seconds are a span's
    duration minus the time its direct children cover.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        st = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (end - start) - child_s[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st["s"] += end - start
    return out


#: Per-layer metrics reported by the traced run, with their units.  The
#: names match ``per_layer`` in BENCHMARK.json.
PER_LAYER_UNITS: dict[str, str] = {
    "gen.generate_circuit.calls": "count",
    "gen.generate_circuit.s": "s",
    "keys.offline_cache_key.calls": "count",
    "keys.offline_cache_key.s": "s",
    "keys.source_key.calls": "count",
    "keys.source_key.s": "s",
    "keys.write_blif.calls": "count",
    "keys.write_blif.s": "s",
    "keys.distinct_ratio": "ratio",
    "screen.candidates": "count",
    "screen.output_trace.s": "s",
    "screen.accept_ratio": "ratio",
    "store.get.calls": "count",
    "store.get.s": "s",
    "store.hits": "count",
    "store.disk_hits": "count",
    "store.misses": "count",
    "store.put.calls": "count",
    "store.put.s": "s",
    "store.put.bytes": "bytes",
    "store.hit_ratio": "ratio",
    "stage.validate.s": "s",
    "stage.cleanup.s": "s",
    "stage.initial-map.s": "s",
    "stage.signal-parameterisation.s": "s",
    "stage.tcon-map.s": "s",
    "stage.pack.s": "s",
    "stage.rr-graph.s": "s",
    "stage.place.s": "s",
    "stage.route.s": "s",
    "stage.bitgen.s": "s",
    "sched.run.self_s": "s",
    "orch.run_campaign.self_s": "s",
    "lanes.init.calls": "count",
    "lanes.init.s": "s",
    "lanes.to_lut_network.s": "s",
    "lanes.build_virtual_pconf.s": "s",
    "lanes.program_for.s": "s",
    "scg.specialize.calls": "count",
    "scg.specialize.s": "s",
    "scg.load_full.s": "s",
    "scg.respecialize.s": "s",
    "scg.frames_diff.s": "s",
    "scg.expr_nodes": "count",
    "scg.memo_ratio": "ratio",
    "mux.selection_for.s": "s",
    "mux.observed_at.s": "s",
    "kern.steps": "count",
    "kern.step.s": "s",
    "lanes.run.s": "s",
    "lanes.run_outputs.s": "s",
    "lanes.waveforms.s": "s",
    "golden.packed_signal_traces.s": "s",
    "runner.run_scenario_batch.self_s": "s",
    "localize.turns": "count",
    "localize.signals_checked": "count",
    **{f"share.{layer}": "ratio" for layer in LAYERS + ("other",)},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Counts that must repeat exactly between two traced samples of one seed.
EXACT_COUNTS = (
    "gen.generate_circuit.calls",
    "keys.offline_cache_key.calls",
    "keys.source_key.calls",
    "keys.write_blif.calls",
    "scg.specialize.calls",
    "scg.expr_nodes",
    "kern.steps",
    "store.hits",
    "store.misses",
    "store.put.calls",
    "screen.candidates",
    "localize.turns",
)

#: Spans each metric is derived from; a metric whose span's target is
#: missing is reported as missing.
_SOURCES: dict[str, tuple[str, ...]] = {
    "keys.distinct_ratio": ("keys.offline_cache_key", "keys.source_key"),
    "screen.candidates": ("screen.output_trace",),
    "screen.accept_ratio": ("screen.output_trace", "screen.stuck_at_scenarios"),
    "scg.frames_diff.s": ("scg.respecialize", "scg.specialize"),
    "scg.expr_nodes": ("scg.specialize",),
    "scg.memo_ratio": ("scg.specialize",),
    "kern.steps": ("kern.step", "kern.run_block", "kern.run_block_array"),
    "kern.step.s": ("kern.step", "kern.run_block", "kern.run_block_array"),
}


def _sources(metric: str) -> tuple[str, ...]:
    if metric in _SOURCES:
        return _SOURCES[metric]
    base = metric.rsplit(".", 1)[0]
    return (base,) if base in {t.span for t in TARGETS} else ()


def layer_self_seconds(spans: list[list]) -> dict[str, float]:
    """Self seconds per layer; spans of no layer (the benchmark's own
    operation spans) count as ``other``."""
    layer_of = {t.span: t.layer for t in TARGETS}
    out = {layer: 0.0 for layer in LAYERS + ("other",)}
    for name, st in span_stats(spans).items():
        out[layer_of.get(name, "other")] += st["self_s"]
    return out


def derive(rec: Recorder, wall_s: float, missing: dict[str, str],
           extra: dict[str, float],
           share_spans: list[list] | None = None) -> dict[str, float]:
    """Per-layer metric values of one traced sample.

    ``extra`` carries values the benchmark measured itself (store
    counters, localization counts, bytes written); ``wall_s`` is the
    traced sample's wall time, the base of every layer share.  Shares are
    taken over ``share_spans`` when given (the timed phase of a sample
    whose recorder also holds its set-up), else over every span.
    """
    st = span_stats(rec.spans)

    def get(span: str, field: str) -> float:
        return st.get(span, {}).get(field, 0.0)

    kern = ("kern.step", "kern.run_block", "kern.run_block_array")
    derivations = sum(len(v) for v in rec.keys.values())
    distinct = sum(len(set(v)) for v in rec.keys.values())
    candidates = get("screen.output_trace", "calls")
    distinct_exprs = sum(d for d, _ in rec.pconfs.values())
    tunable = sum(t for _, t in rec.pconfs.values())
    values: dict[str, float] = {
        "keys.distinct_ratio": distinct / derivations if derivations else 0.0,
        "screen.candidates": candidates,
        "screen.accept_ratio": (
            extra.get("screen.accepted", 0) / candidates if candidates else 0.0
        ),
        # respecialize minus the specialize call it makes: the frame diff
        "scg.frames_diff.s": get("scg.respecialize", "self_s"),
        "scg.expr_nodes": rec.counts.get("scg.expr_nodes", 0),
        "scg.memo_ratio": distinct_exprs / tunable if tunable else 0.0,
        "kern.steps": rec.counts.get("kern.steps", 0),
        "kern.step.s": sum(get(k, "s") for k in kern),
        "trace.wall_s": wall_s,
    }
    shares = layer_self_seconds(rec.spans if share_spans is None else share_spans)
    tracked = sum(v for k, v in shares.items() if k != "other")
    for layer in LAYERS:
        values[f"share.{layer}"] = shares[layer] / wall_s if wall_s else 0.0
    values["share.other"] = max(0.0, wall_s - tracked) / wall_s if wall_s else 0.0
    hits, misses = extra.get("store.hits", 0), extra.get("store.misses", 0)
    values["store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for metric in PER_LAYER_UNITS:
        if metric in values or metric.startswith("trace."):
            continue
        if metric in extra:
            values[metric] = extra[metric]
            continue
        base, field = metric.rsplit(".", 1)
        values[metric] = get(base, field)
    for metric in values:
        if any(src in missing for src in _sources(metric)):
            values[metric] = MISSING
    return values


# -- export --------------------------------------------------------------------


def chrome_trace(groups: list[tuple[str, list[list]]], meta: dict) -> dict:
    """Chrome trace-event JSON for ``(process label, spans)`` groups.

    Each group becomes one ``pid`` (one traced sample process); complete
    events (``ph: "X"``) carry microsecond start and duration, so the
    file opens in Perfetto or ``chrome://tracing``.
    """
    events: list[dict] = []
    for pid, (label, spans) in enumerate(groups, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": label}})
        t0 = min((s[1] for s in spans), default=0.0)
        for name, start, end, parent in spans:
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": 1,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


def write_chrome_trace(path: str, groups: list[tuple[str, list[list]]],
                       meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(groups, meta), fh)
