"""The stage-graph compiler core: declared stages and derived keys.

The paper's incremental-recompilation advantage — change the
instrumentation, keep the compile — becomes an architectural property
here: the flow is an explicit DAG of :class:`Stage` declarations, each
producing exactly one artifact whose **content-addressed key** is derived
from (a) the stage's own declaration (name + version), (b) the subset of
:class:`~repro.core.flow.DebugFlowConfig` fields the stage actually reads,
(c) any extra per-stage parameters (tap overrides, placement seed, ...)
and (d) the keys of its upstream artifacts.  A knob change therefore
invalidates exactly the stages downstream of the knob and nothing
upstream; compiling the same graph against a
:class:`~repro.pipeline.store.ArtifactStore` turns that key algebra into
cache hits.  The graph itself only plans (:meth:`StageGraph.plan`); the
one executor is :func:`repro.pipeline.scheduler.submit_compile`.

Keys chain derivations rather than hashing intermediate artifacts: the
only content ever serialized for hashing is the source network (its
canonical BLIF, names included — a renamed-but-structurally-equal design
conservatively misses).  Key computation is therefore cheap enough to run
speculatively (see :func:`StageGraph.stage_keys` and
:mod:`repro.baselines.incremental`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.flow import FLOW_CACHE_VERSION, DebugFlowConfig
from repro.errors import DebugFlowError
from repro.netlist.blif import write_blif
from repro.netlist.network import LogicNetwork
from repro.util.trace import Trace

__all__ = [
    "SOURCE",
    "Stage",
    "StageContext",
    "Artifact",
    "CompileResult",
    "StagePlan",
    "StageGraph",
    "source_key",
    "canonical_param",
]

#: Name of the pseudo-artifact holding the input network.  Every stage
#: graph is rooted at it; its key hashes the canonical BLIF.
SOURCE = "source"


@dataclass
class StageContext:
    """What a stage's ``fn`` sees: config, params and upstream artifacts."""

    config: DebugFlowConfig
    params: Mapping[str, Any]
    artifacts: dict[str, Any]

    def __getitem__(self, name: str) -> Any:
        return self.artifacts[name]


@dataclass(frozen=True)
class Stage:
    """One declared phase of the compile flow.

    Parameters
    ----------
    name:
        Unique stage name; also the name of the single artifact it emits.
    fn:
        ``fn(ctx) -> artifact value``.  Must be a pure function of the
        context (same inputs ⇒ equivalent artifact) — that is what makes
        the derived key a safe cache address.
    inputs:
        Upstream artifact names consumed (stage names, or :data:`SOURCE`).
    config_fields:
        The :class:`DebugFlowConfig` fields this stage reads.  Only these
        are folded into the key, so knobs a stage ignores can change
        without invalidating it.
    param_fields:
        Extra key discriminators looked up in the run's ``params`` mapping
        (e.g. ``"taps"`` for an explicit tap-selection override,
        ``"seed"`` for placement).
    version:
        Bump when the stage's semantics change, so persisted artifacts
        from the older implementation become unreachable.
    """

    name: str
    fn: Callable[[StageContext], Any]
    inputs: tuple[str, ...] = ()
    config_fields: tuple[str, ...] = ()
    param_fields: tuple[str, ...] = ()
    version: int = 1


@dataclass
class Artifact:
    """One stage output: the value plus its content-addressed key."""

    stage: str
    key: str
    value: Any
    hit: bool = False
    """Whether the value was served by the store rather than rebuilt."""


@dataclass
class CompileResult:
    """Everything one compile of a :class:`StagePlan` produced."""

    config: DebugFlowConfig
    source_key: str
    """Content key of the input network (empty when no executed stage
    rooted in it — e.g. a physical-only run over preset artifacts)."""
    params: dict[str, Any] = field(default_factory=dict)
    artifacts: dict[str, Artifact] = field(default_factory=dict)
    trace: Trace = field(default_factory=Trace)
    """A ``stage.<name>`` span per stage this run built (hits have none)."""

    def value(self, stage: str) -> Any:
        return self.artifacts[stage].value

    def keys(self) -> dict[str, str]:
        return {name: a.key for name, a in self.artifacts.items()}

    def hits(self) -> dict[str, bool]:
        return {name: a.hit for name, a in self.artifacts.items()}

    @property
    def full_hit(self) -> bool:
        """True when every stage was served from the store."""
        return all(a.hit for a in self.artifacts.values())


@dataclass
class StagePlan:
    """The execution-independent half of a compile.

    Which stages will run, under which derived content keys, against which
    store lookup group — everything the dataflow scheduler needs to probe
    the store, partition the remaining work into segments and ship those
    segments to workers, without executing anything.  Produced by
    :meth:`StageGraph.plan`; consumed by
    :func:`repro.pipeline.scheduler.submit_compile`, the one executor.
    """

    config: DebugFlowConfig
    params: dict[str, Any]
    source_key: str
    group: str | None
    selected: tuple[Stage, ...]
    """Stages to execute, topologically ordered, preset entries excluded."""
    keys: dict[str, str]
    """Derived content key per artifact name (selected + preset)."""
    preset: dict[str, tuple[str, Any]]


def canonical_param(value: Any) -> Any:
    """Reduce a stage parameter to a stably-``repr``-able form for hashing.

    Sequences (including numpy arrays, whose ``repr`` elides the middle of
    large arrays — a silent key-collision hazard) become plain tuples of
    their full content; mappings become sorted item tuples.
    """
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple(canonical_param(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, canonical_param(v)) for k, v in value.items()))
    return value


def source_key(net: LogicNetwork) -> str:
    """Content key of the input network (canonical BLIF, names included)."""
    h = hashlib.sha256()
    h.update(f"repro-pipeline-source-v{FLOW_CACHE_VERSION}\n".encode())
    h.update(write_blif(net).encode())
    return h.hexdigest()


class StageGraph:
    """An ordered DAG of stages with derived per-stage cache keys.

    Stages are given in topological order (each stage's inputs must be
    :data:`SOURCE` or an earlier stage) — the natural shape of a compile
    flow, checked at construction.
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        names: set[str] = set()
        for stage in stages:
            if stage.name in names or stage.name == SOURCE:
                raise DebugFlowError(f"duplicate stage name {stage.name!r}")
            for dep in stage.inputs:
                if dep != SOURCE and dep not in names:
                    raise DebugFlowError(
                        f"stage {stage.name!r} depends on {dep!r}, which is "
                        "not an earlier stage"
                    )
            names.add(stage.name)
        self.stages: tuple[Stage, ...] = tuple(stages)
        self._by_name = {s.name: s for s in self.stages}

    def __iter__(self):
        return iter(self.stages)

    def __getitem__(self, name: str) -> Stage:
        return self._by_name[name]

    def prefix(
        self, names: Sequence[str], *, have: Sequence[str] = ()
    ) -> list[Stage]:
        """The requested stages, validated to be dependency-closed.

        ``have`` names artifacts available from elsewhere (preset entries),
        which satisfy dependencies without being selected.
        """
        want = set(names)
        unknown = want - set(self._by_name)
        if unknown:
            raise DebugFlowError(f"unknown stage(s): {sorted(unknown)}")
        selected = [s for s in self.stages if s.name in want]
        have = {SOURCE, *have}
        for stage in selected:
            missing = [d for d in stage.inputs if d not in have]
            if missing:
                raise DebugFlowError(
                    f"stage {stage.name!r} requires {missing} which are not "
                    "in the selected stage set"
                )
            have.add(stage.name)
        return selected

    def downstream_of(self, name: str) -> list[str]:
        """``name`` plus every stage that (transitively) consumes it."""
        dirty = {name}
        for stage in self.stages:
            if stage.name in dirty:
                continue
            if any(d in dirty for d in stage.inputs):
                dirty.add(stage.name)
        return [s.name for s in self.stages if s.name in dirty]

    # -- key derivation --------------------------------------------------------

    def _stage_key(
        self,
        stage: Stage,
        config: DebugFlowConfig,
        params: Mapping[str, Any],
        keys: Mapping[str, str],
    ) -> str:
        h = hashlib.sha256()
        h.update(
            f"repro-stage/{stage.name}/v{stage.version}/"
            f"flow-v{FLOW_CACHE_VERSION}\n".encode()
        )
        for f in stage.config_fields:
            h.update(f"config:{f}={getattr(config, f)!r}\n".encode())
        for f in stage.param_fields:
            h.update(f"param:{f}={canonical_param(params.get(f))!r}\n".encode())
        for dep in stage.inputs:
            h.update(f"dep:{dep}={keys[dep]}\n".encode())
        return h.hexdigest()

    def stage_keys(
        self,
        net: LogicNetwork,
        config: DebugFlowConfig | None = None,
        *,
        params: Mapping[str, Any] | None = None,
        stages: Sequence[str] | None = None,
    ) -> dict[str, str]:
        """Every selected stage's content key, without running anything.

        This is the cheap, speculative half of the cache: the only content
        hashed is the source BLIF, so callers (invalidation analysis, the
        conventional-recompile baseline, tests) can ask "what *would* a
        config change rebuild?" in microseconds.
        """
        return self.plan(net, config, params=params, stages=stages).keys

    # -- planning --------------------------------------------------------------

    def plan(
        self,
        net: LogicNetwork,
        config: DebugFlowConfig | None = None,
        *,
        params: Mapping[str, Any] | None = None,
        stages: Sequence[str] | None = None,
        preset: Mapping[str, tuple[str, Any]] | None = None,
    ) -> StagePlan:
        """Derive keys, selection and lookup group without running anything.

        ``stages`` defaults to the whole graph.  ``preset`` maps artifact
        names to ``(key, value)`` pairs injected as already-available
        upstream artifacts — how the physical sub-graph runs over an
        existing offline artifact.  Every compile and every speculative
        key query (:meth:`stage_keys`) goes through this one derivation.
        """
        config = config or DebugFlowConfig()
        params = dict(params or {})
        preset = dict(preset or {})
        if stages is not None:
            selected = self.prefix(stages, have=tuple(preset))
        else:
            selected = list(self.stages)
        # hash the source BLIF only when a stage to run actually roots in
        # it — a physical-only run over preset artifacts skips the
        # O(design) serialization entirely
        needs_source = any(
            SOURCE in s.inputs for s in selected if s.name not in preset
        )
        src_key = source_key(net) if needs_source else ""
        keys: dict[str, str] = {SOURCE: src_key}
        for name, (key, _value) in preset.items():
            keys[name] = key
        selected = tuple(s for s in selected if s.name not in preset)
        # the lookup group identifies the design behind this run for the
        # store's invalidation accounting: the source content key, or —
        # on preset-rooted (physical-only) runs — the preset artifact key
        group = src_key or None
        if group is None and preset:
            group = (preset.get("tcon-map") or next(iter(preset.values())))[0]
        for stage in selected:
            keys[stage.name] = self._stage_key(stage, config, params, keys)
        del keys[SOURCE]
        return StagePlan(
            config=config,
            params=params,
            source_key=src_key,
            group=group,
            selected=selected,
            keys=keys,
            preset=preset,
        )

    def segments(self, names: Sequence[str]) -> list[tuple[str, ...]]:
        """Partition stages into maximal fusable chains for the scheduler.

        ``names`` is any subset of this graph's stages (dependencies
        outside the subset are treated as externally supplied — e.g.
        store hits).  Returns topologically-ordered segments such that

        * every segment is a chain the scheduler can run as **one** task
          (no concurrency is lost: a stage is fused into its producer's
          segment only when every *other* consumer of that segment
          transitively depends on the stage, so nothing outside could
          have started earlier anyway), and
        * segments only depend on earlier segments.

        For the full debug flow this yields the linear generic prefix
        through ``tcon-map`` as one segment, ``emulation`` and ``pack``
        (both consume ``tcon-map``) and then ``rr-graph`` and ``place`` as
        independent segments (the concurrency inside one design), and
        ``route``+``bitgen`` fused at the join.
        """
        want = set(names)
        selected = [s for s in self.stages if s.name in want]
        consumers: dict[str, list[str]] = {}
        depends: dict[str, set[str]] = {}
        for s in selected:
            deps = [d for d in s.inputs if d in want]
            closure = set(deps)
            for d in deps:
                consumers.setdefault(d, []).append(s.name)
                closure |= depends[d]
            depends[s.name] = closure
        seg_of: dict[str, int] = {}
        segs: list[list[str]] = []
        anc: list[set[int]] = []  # transitive segment ancestors
        for s in selected:
            dep_segs = {seg_of[d] for d in s.inputs if d in want}
            target = None
            for cand in dep_segs:
                # candidate must dominate the other dep segments ...
                if not all(d == cand or d in anc[cand] for d in dep_segs):
                    continue
                # ... and fusing must not delay any other consumer of it
                blocked = any(
                    s.name not in depends.get(c, ())
                    for m in segs[cand]
                    for c in consumers.get(m, ())
                    if c != s.name and seg_of.get(c) != cand
                )
                if not blocked:
                    target = cand
                    break
            new_anc = set().union(*(anc[d] for d in dep_segs)) if dep_segs else set()
            if target is None:
                seg_of[s.name] = len(segs)
                segs.append([s.name])
                anc.append(dep_segs | new_anc)
            else:
                seg_of[s.name] = target
                segs[target].append(s.name)
                anc[target] |= (dep_segs - {target}) | new_anc
        return [tuple(seg) for seg in segs]
