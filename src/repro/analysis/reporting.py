"""Plain-text rendering of experiment results.

Every benchmark target writes its output both to stdout (visible with
``pytest -s``) and to ``results/<name>.txt``, so the EXPERIMENTS.md record
can be regenerated without scraping terminal logs.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

__all__ = [
    "ascii_bar_chart",
    "save_result",
    "results_dir",
    "aggregate_campaign",
    "lane_occupancy",
    "render_campaign_report",
]


def results_dir(base: str | None = None) -> str:
    """The results directory (created on demand)."""
    d = base or os.environ.get("REPRO_RESULTS_DIR") or os.path.join(
        os.getcwd(), "results"
    )
    os.makedirs(d, exist_ok=True)
    return d


def save_result(name: str, text: str, base: str | None = None) -> str:
    """Write ``text`` to ``results/<name>.txt``; returns the path."""
    path = os.path.join(results_dir(base), f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.rstrip() + "\n")
    return path


def ascii_bar_chart(
    groups: Sequence[tuple[str, Mapping[str, float]]],
    *,
    width: int = 50,
    unit: str = "LUTs",
) -> str:
    """Grouped horizontal bar chart (one block per benchmark).

    >>> print(ascii_bar_chart([("x", {"a": 2.0, "b": 4.0})], width=4))
    x
      a  ##    2 LUTs
      b  ####  4 LUTs
    """
    peak = max(
        (v for _g, series in groups for v in series.values()), default=1.0
    )
    label_w = max(
        (len(k) for _g, series in groups for k in series), default=1
    )
    lines: list[str] = []
    for gname, series in groups:
        lines.append(gname)
        for key, value in series.items():
            n = max(0, round(width * value / peak)) if peak else 0
            bar = "#" * n
            lines.append(
                f"  {key.ljust(label_w)}  {bar.ljust(width)}  "
                f"{value:.0f} {unit}"
            )
    return "\n".join(lines)


def aggregate_campaign(records: Sequence[Mapping]) -> dict:
    """Campaign-level aggregates over per-scenario result records.

    ``records`` are plain dicts as produced by
    :meth:`repro.campaign.results.ScenarioResult.as_record` — this module
    stays independent of the campaign types so either layer can evolve.
    """
    counts: dict[str, int] = {}
    for r in records:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    done = [r for r in records if r["status"] != "error"]
    localized = [r for r in done if r["status"] == "localized"]
    return {
        "n_scenarios": len(records),
        "counts": counts,
        "localization_rate": len(localized) / len(done) if done else 0.0,
        "offline_s": sum(r.get("offline_s", 0.0) for r in records),
        "online_s": sum(r.get("online_s", 0.0) for r in records),
        "cache_hits": sum(bool(r.get("offline_cache_hit")) for r in records),
        "offline_builds": sum(
            not r.get("offline_cache_hit") and r.get("offline_ok", True)
            for r in records
        ),
        "turns": sum(r.get("turns", 0) for r in records),
        "modeled_overhead_s": sum(
            r.get("modeled_overhead_s", 0.0) for r in records
        ),
    }


def lane_occupancy(lane_batches: Sequence[int]) -> dict:
    """Per-batch lane-occupancy aggregates of a lane-parallel campaign.

    ``lane_batches`` holds the number of scenarios bound to each online
    batch's packed emulation.  Occupancy is measured against the words
    each batch actually allocated (64 lanes per ``uint64`` word, so a
    96-lane batch occupies 96 of 128 word bits) — the fraction of the
    packed machine the batched engine actually used.
    """
    if not lane_batches:
        return {"n_batches": 0, "mean_lanes": 0.0, "max_lanes": 0, "occupancy": 0.0}
    capacity = sum(64 * ((n + 63) // 64) for n in lane_batches)
    return {
        "n_batches": len(lane_batches),
        "mean_lanes": sum(lane_batches) / len(lane_batches),
        "max_lanes": max(lane_batches),
        "occupancy": sum(lane_batches) / capacity if capacity else 0.0,
    }


def render_campaign_report(
    records: Sequence[Mapping],
    *,
    wall_s: float | None = None,
    workers: int | None = None,
    cache: Mapping | None = None,
    lane_width: int | None = None,
    lane_batches: Sequence[int] = (),
    offline_wall_s: float | None = None,
    offline_stage_s: Mapping[str, float] | None = None,
    notes: Sequence[str] = (),
    sched_wall_s: float | None = None,
    overlap_ratio: float | None = None,
    stage_concurrency: Mapping[str, float] | None = None,
    resilience: Mapping | None = None,
    title: str = "DEBUG-CAMPAIGN REPORT",
) -> str:
    """Render per-scenario records plus campaign aggregates as plain text.

    The same conventions as the Table I/II drivers: a ``TextTable`` block,
    aggregate lines below, persistable via :func:`save_result`.
    """
    from repro.util.tables import TextTable

    t = TextTable(
        [
            "Scenario",
            "Kind",
            "Status",
            "Fail@",
            "Suspect",
            "Region",
            "Turns",
            "Frames",
            "Spec (us)",
            "Online (s)",
            "Offline (s)",
            "Hit",
        ],
        aligns="llllrrrrrrrl",
    )
    for r in records:
        fail = (
            f"{r.get('failing_po', '')}:{r['fail_cycle']}"
            if r.get("fail_cycle", -1) >= 0
            else "-"
        )
        t.add_row(
            [
                r["scenario"],
                r["kind"],
                r["status"],
                fail,
                r.get("suspect") or "-",
                r.get("region_size", 0),
                r.get("turns", 0),
                r.get("frames_touched", 0),
                f"{1e6 * r.get('modeled_overhead_s', 0.0):.1f}",
                f"{r.get('online_s', 0.0):.2f}",
                f"{r.get('offline_s', 0.0):.2f}",
                "y" if r.get("offline_cache_hit") else "n",
            ]
        )
    agg = aggregate_campaign(records)
    lines = [title, t.render(), ""]
    counts = ", ".join(
        f"{k}={v}" for k, v in sorted(agg["counts"].items())
    )
    lines.append(
        f"scenarios: {agg['n_scenarios']} ({counts}); "
        f"localization rate {100 * agg['localization_rate']:.0f}%"
    )
    builds = agg["offline_builds"]
    lines.append(
        f"offline stage: {builds} build(s) + {agg['cache_hits']} cache "
        f"hit(s), {agg['offline_s']:.2f} s total; "
        f"online: {agg['online_s']:.2f} s over {agg['turns']} debugging "
        f"turn(s), {1e6 * agg['modeled_overhead_s']:.1f} us modeled "
        "specialization"
    )
    if offline_stage_s:
        breakdown = ", ".join(
            f"{name}={secs:.2f}s" for name, secs in offline_stage_s.items()
        )
        wall = (
            f" ({offline_wall_s:.2f} s wall)"
            if offline_wall_s is not None
            else ""
        )
        lines.append(f"offline stages built: {breakdown}{wall}")
    if wall_s is not None:
        par = f", {workers} worker(s)" if workers else ""
        lines.append(f"wall clock: {wall_s:.2f} s{par}")
    if sched_wall_s is not None:
        line = (
            f"scheduler: task wall {sched_wall_s:.2f} s, "
            f"offline/online overlap {100 * (overlap_ratio or 0.0):.0f}%"
        )
        if stage_concurrency:
            conc = ", ".join(
                f"{name}={value:.2f}"
                for name, value in stage_concurrency.items()
            )
            line += f"; stage concurrency: {conc}"
        lines.append(line)
    if lane_batches:
        occ = lane_occupancy(lane_batches)
        width = f" (lane width {lane_width})" if lane_width else ""
        lines.append(
            f"online engine{width}: {occ['n_batches']} lane batch(es), "
            f"mean {occ['mean_lanes']:.1f} / max {occ['max_lanes']} lanes "
            f"per word, {100 * occ['occupancy']:.0f}% word occupancy"
        )
    if cache:
        cache = dict(cache)
        per_stage = cache.pop("per_stage", None)
        lines.append(
            "cache: "
            + ", ".join(f"{k}={v}" for k, v in sorted(cache.items()))
        )
        # stage-granular stores break the accounting down per compile
        # stage — what "stages invalidated per instrumentation change"
        # looks like at campaign scale
        for stage, stats in (per_stage or {}).items():
            lines.append(
                f"  stage {stage}: "
                + ", ".join(f"{k}={v}" for k, v in sorted(dict(stats).items()))
            )
    if resilience:
        # supervision counters + checkpoint state: only rendered when the
        # campaign hit a fault, retried, resumed or kept a journal at all
        parts = [
            f"{k}={v}"
            for k, v in resilience.items()
            if k != "journal_path" and v
        ]
        path = resilience.get("journal_path")
        if path:
            parts.append(f"journal={path}")
        if parts:
            lines.append("resilience: " + ", ".join(parts))
    for note in notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
