"""Command-line entry point: ``python -m repro.campaign``.

Builds a scenario batch for the requested designs, runs the campaign and
prints (optionally persists) the aggregated report.  Examples::

    # 3 stuck-at scenarios on each of two designs, stage-granular cache
    python -m repro.campaign --designs stereov. diffeq2 --per-design 3

    # mixed fault kinds, a 4-process pool, artifacts persisted on disk
    python -m repro.campaign --kind mixed --workers 4 --cache-dir .repro-cache

    # cold baseline (no offline amortization), report saved to results/
    python -m repro.campaign --no-cache --save campaign_cold

    # CI cache-correctness: run twice on one dir; the second run must be
    # all stage-hits and produce identical deterministic outcomes
    python -m repro.campaign --cache-dir /tmp/c --outcomes-json /tmp/a.json
    python -m repro.campaign --cache-dir /tmp/c --outcomes-json /tmp/b.json \
        --assert-warm

    # checkpointed campaign: if this process is killed mid-run, the
    # second command replays the journaled scenarios and finishes the
    # rest — outcomes byte-identical to an uninterrupted run
    python -m repro.campaign --cache-dir /tmp/c --campaign-id nightly
    python -m repro.campaign --cache-dir /tmp/c --resume nightly

Exit status: 0 on success, 1 when any scenario ended in an error result
(a failing design is isolated by default — ``--keep-going`` — or aborts
the batch under ``--fail-fast``), 2 on usage errors (checked before any
work starts), 3 when ``--assert-warm`` saw a cache miss.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.campaign.cache import ArtifactStore, resolve_offline
from repro.campaign.orchestrator import (
    CampaignConfig,
    _offline_group_key,
    _prebuild_keyed,
    run_campaign,
)
from repro.netlist.compiled import BACKENDS
from repro.errors import WorkloadError
from repro.workloads.scenarios import (
    DebugScenario,
    mutation_scenarios,
    stuck_at_scenarios,
)
from repro.workloads.suites import PAPER_SUITE

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Batch debug campaign over many (design, bug) scenarios.",
    )
    p.add_argument(
        "--designs",
        nargs="+",
        default=["stereov."],
        metavar="NAME",
        help=f"benchmark designs (known: {', '.join(sorted(PAPER_SUITE))})",
    )
    p.add_argument(
        "--per-design",
        type=int,
        default=3,
        help="bug scenarios generated per design, >= 1 (default 3)",
    )
    p.add_argument(
        "--kind",
        choices=["stuck-at", "mutation", "mixed"],
        default="stuck-at",
        help="emulation-level faults (amortized offline stage), netlist "
        "mutations (one offline run each), or half/half",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes shared by cold design builds and online "
        "lane batches, >= 1 (default 1 = everything in this process; "
        "outcomes and built artifacts are byte-identical at any N)",
    )
    p.add_argument(
        "--lane-width",
        type=int,
        default=64,
        metavar="N",
        help="scenarios packed per emulation batch, >= 1 (default 64; "
        "widths beyond 64 span multiple uint64 words; 1 runs one-lane "
        "batches) — outcomes are byte-identical at every width (the CI "
        "lane-equivalence job diffs them)",
    )
    p.add_argument(
        "--sim-backend",
        choices=("auto",) + BACKENDS,
        default="auto",
        help="compiled simulation kernel backend: 'python' (big-int "
        "kernels), 'numpy' (vectorized whole-array kernels — the wide-"
        "lane fast path), or 'auto' (default: numpy at lane widths >= "
        "256, python below; the REPRO_SIM_BACKEND environment variable "
        "overrides auto). "
        "Outcomes are byte-identical across backends",
    )
    p.add_argument(
        "--interpreted",
        action="store_true",
        help="run the online phase on the reference per-gate interpreter "
        "instead of the compiled simulation kernels (escape hatch / "
        "benchmark baseline; outcomes are bit-identical)",
    )
    p.add_argument(
        "--synthetic-gates",
        type=int,
        default=None,
        metavar="N",
        help="replace --designs with one synthetic N-gate campaign design "
        "(sized freely — how the CI jobs build >64-scenario campaigns "
        "without a paper benchmark large enough)",
    )
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument(
        "--horizon",
        type=int,
        default=64,
        help="stimulus cycles within which failures must appear, >= 1 "
        "(default 64)",
    )
    p.add_argument(
        "--max-turns",
        type=int,
        default=48,
        help="debugging-turn budget per localization, >= 1 (default 48)",
    )
    p.add_argument(
        "--physical",
        action="store_true",
        help="include pack/place/route + bitstream in the offline artifact "
        "(combinational designs only)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist offline artifacts under DIR (reused across runs)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="run cold: each distinct design builds once for this run and "
        "nothing is kept",
    )
    p.add_argument(
        "--save",
        default=None,
        metavar="NAME",
        help="also write the report to results/NAME.txt",
    )
    p.add_argument(
        "--outcomes-json",
        default=None,
        metavar="PATH",
        help="write the deterministic per-scenario outcomes to PATH as "
        "JSON (timings excluded; identical across repeated runs)",
    )
    p.add_argument(
        "--assert-warm",
        action="store_true",
        help="exit with status 3 unless every cache lookup hit — the CI "
        "cache-correctness check for a second run on a warm --cache-dir",
    )
    p.add_argument(
        "--campaign-id",
        default=None,
        metavar="ID",
        help="checkpoint every finished scenario to an append-only "
        "journal under <cache-dir>/journal/ID.jsonl, so a killed "
        "campaign can be continued with --resume ID (requires "
        "--cache-dir)",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="ID",
        help="resume campaign ID: replay scenarios already journaled "
        "under <cache-dir>/journal/ID.jsonl and run only the remainder "
        "— outcomes are byte-identical to an uninterrupted run",
    )
    p.add_argument(
        "--journal-fsync",
        action="store_true",
        help="fsync the journal after every appended scenario "
        "(crash-consistent against power loss, at an I/O cost)",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per pooled task attempt, > 0; a timed-out "
        "task is retried (see --task-retries) then reported as an error "
        "result (default: no timeout)",
    )
    p.add_argument(
        "--task-retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts for a task that timed out or crashed its "
        "worker, >= 0 (default 1; deterministic stage errors are never "
        "retried)",
    )
    fail = p.add_mutually_exclusive_group()
    fail.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="isolate a failing design to its own scenarios' error "
        "results and keep running everything else (the default)",
    )
    fail.add_argument(
        "--fail-fast",
        dest="fail_fast",
        action="store_true",
        help="abort the whole campaign at the first failing design; "
        "pending scenarios complete as error placeholders (which are "
        "not journaled, so --resume recomputes them)",
    )
    p.set_defaults(fail_fast=False)
    return p


def _build_scenarios(
    args: argparse.Namespace, cache
) -> list[DebugScenario]:
    from repro.workloads import campaign_spec, generate_circuit, get_spec

    designs: list = list(args.designs)
    if args.synthetic_gates is not None:
        # one freely-sized synthetic design; scale the PI/PO interface
        # with the gate count so wide campaigns find enough taps
        n_gates = args.synthetic_gates
        designs = [
            campaign_spec(
                f"synthetic-{n_gates}",
                n_gates=n_gates,
                depth=8,
                n_pis=max(16, n_gates // 16),
                n_pos=max(8, n_gates // 32),
            )
        ]

    # Stuck-at screening needs each design's offline artifact (its tap
    # directory picks the fault sites) before any scenario exists.  Each
    # design is generated and keyed once; its (net, key) warms the cache
    # in one pass through the same scheduler path and --workers pool the
    # campaign uses, and screening looks its key up in the returned
    # {cache key: artifact} map instead of probing the cache for warmth
    # again (mutation-only runs never need it: each mutation is its own
    # design content).
    keyed: list = []
    prebuilt: dict = {}
    if args.kind != "mutation" and cache is not None:
        flow = CampaignConfig().flow
        for design in designs:
            spec = get_spec(design) if isinstance(design, str) else design
            net = generate_circuit(spec)
            keyed.append((net, _offline_group_key(net, flow, args.physical)))
        prebuilt = _prebuild_keyed(
            {key: net for net, key in keyed},
            flow=flow,
            cache=cache,
            with_physical=args.physical,
            workers=args.workers,
        )

    scenarios: list[DebugScenario] = []
    for i, design in enumerate(designs):
        n = args.per_design
        kw = dict(seed=args.seed, horizon=args.horizon)

        def screening_offline():
            if cache is None:
                return None
            net, key = keyed[i]
            found = prebuilt.get(key)
            if found is not None:
                return found
            # only a failed prebuild (e.g. physical back-end rejection)
            # falls through to a cache resolution here
            try:
                return resolve_offline(
                    net, cache=cache, with_physical=args.physical
                )[0]
            except Exception:
                # screening only needs the generic artifact; let the
                # campaign's offline phase surface the physical-stage
                # failure as a per-scenario error result
                return resolve_offline(net, cache=cache)[0]

        if args.kind == "stuck-at":
            scenarios += stuck_at_scenarios(
                design, n, offline=screening_offline(), **kw
            )
        elif args.kind == "mutation":
            scenarios += mutation_scenarios(design, n, **kw)
        else:
            n_mut = n // 2
            scenarios += stuck_at_scenarios(
                design, n - n_mut, offline=screening_offline(), **kw
            )
            if n_mut:
                scenarios += mutation_scenarios(design, n_mut, **kw)
    return scenarios


def _make_cache(args: argparse.Namespace) -> ArtifactStore | None:
    return None if args.no_cache else ArtifactStore(cache_dir=args.cache_dir)


#: Lower bound of every integer option, checked before any work starts.
_MINIMUMS = {
    "workers": 1,
    "lane_width": 1,
    "per_design": 1,
    "horizon": 1,
    "max_turns": 1,
    "task_retries": 0,
}


def _usage_error(args: argparse.Namespace) -> str | None:
    """The first invalid option or option combination, else ``None``."""
    for name, low in _MINIMUMS.items():
        value = getattr(args, name)
        if value < low:
            flag = "--" + name.replace("_", "-")
            return f"{flag} must be at least {low}, got {value}"
    if args.task_timeout is not None and args.task_timeout <= 0:
        return f"--task-timeout must be positive, got {args.task_timeout:g}"
    if args.assert_warm and args.no_cache:
        return "--assert-warm requires a cache (drop --no-cache)"
    if args.resume is not None and args.campaign_id is not None:
        return "--resume already names the campaign; drop --campaign-id"
    journaled = args.resume is not None or args.campaign_id is not None
    if journaled and (args.no_cache or args.cache_dir is None):
        return (
            "the campaign journal lives under the cache directory; "
            "--campaign-id/--resume require --cache-dir"
        )
    if args.interpreted and args.lane_width > 64:
        return (
            "--interpreted is single-word; use --lane-width <= 64 "
            "(multi-word lanes need the compiled kernels)"
        )
    if args.interpreted and args.sim_backend != "auto":
        return (
            "--interpreted bypasses the compiled kernels; drop "
            "--sim-backend or drop --interpreted"
        )
    return None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    error = _usage_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    campaign_id = args.resume if args.resume is not None else args.campaign_id
    names = (
        [f"synthetic-{args.synthetic_gates}"]
        if args.synthetic_gates is not None
        else args.designs
    )
    print(
        f"generating {args.per_design} {args.kind} scenario(s) per design "
        f"for: {', '.join(names)}"
    )
    cache = _make_cache(args)
    try:
        scenarios = _build_scenarios(args, cache)
    except (KeyError, WorkloadError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2

    config = CampaignConfig(
        workers=args.workers,
        with_physical=args.physical,
        max_turns=args.max_turns,
        lane_width=args.lane_width,
        interpreted=args.interpreted,
        backend=None if args.sim_backend == "auto" else args.sim_backend,
        task_timeout_s=args.task_timeout,
        task_retries=args.task_retries,
        fail_fast=args.fail_fast,
        campaign_id=campaign_id,
        resume=args.resume is not None,
        journal_fsync=args.journal_fsync,
    )
    try:
        report = run_campaign(scenarios, config=config, cache=cache)
    except FileNotFoundError as exc:
        print(
            f"error: --resume {campaign_id}: no journal found ({exc})",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print()
    print(report.render())
    if args.save:
        path = report.save(args.save)
        print(f"\n[saved to {path}]")
    if args.outcomes_json:
        with open(args.outcomes_json, "w", encoding="utf-8") as fh:
            json.dump(report.outcomes(), fh, indent=2, default=str)
        print(f"[outcomes written to {args.outcomes_json}]")
    if args.assert_warm:
        misses = cache.stats.as_dict()["misses"]
        if misses:
            print(
                f"--assert-warm failed: {misses} cache miss(es) on a run "
                "that should have been fully warm",
                file=sys.stderr,
            )
            return 3
        print("[--assert-warm ok: every cache lookup hit]")
    return 1 if any(r.status == "error" for r in report.results) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
