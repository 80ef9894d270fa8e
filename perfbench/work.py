"""One benchmark process: runs one role and writes one JSON result.

``python3 perfbench/work.py TASK.json RESULT.json``

:mod:`run` starts every measured process through this file, so each timed
sample begins with empty in-memory caches, like a rerun on the next day.
Roles:

``warm-prewarm``  fill an on-disk store for the warm campaign (set-up);
``warm-sample``   resolve the artifact on the warm store, screen the
                  stuck-at scenarios and run the campaign (timed);
``cold-setup``    screen the cold campaign's scenarios on a generic-only
                  artifact from a throwaway store (set-up);
``cold-sample``   run the physical campaign against an empty store (timed);
``turns``         build a debug session, then run debug turns (set-up,
                  then timed); with ``setup_only`` it stops after set-up.

Every call into the program goes through a module attribute looked up at
call time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402

#: Every design and its screened scenario set come from this seed.
#: ``--seed`` drives the order scenarios enter a campaign (so the lane
#: each occupies) and the signals each debug turn observes: every seed
#: does the same work, and a campaign's sorted outcomes never change.
DESIGN_SEED = 2016

WARM = {
    "spec": {"name": "parity-camp", "n_gates": 300, "depth": 8,
             "n_pis": 32, "n_pos": 24},
    "n_scenarios": 24,
    "horizon": 24,
    "lane_width": 1024,
    "max_turns": 16,
}
COLD = {
    "spec": {"name": "synth150", "n_gates": 150, "depth": 10,
             "n_pis": 20, "n_pos": 10},
    "n_scenarios": 24,
    "horizon": 32,
    "lane_width": 64,
    "max_turns": 16,
}
TURN = {
    "design": "or1200",
    "cycles": 32,
    "stimulus_seed": 7,
    "min_turns": 100,
    "block_turns": 32,
    "window_turns": 8,
}


#: Seconds one calibration repetition takes on the reference host (a
#: quiet 2-core x86-64 container, Python 3.11); a process's host speed
#: is this over the calibration it measures (see ``run.host_scale``).
CAL_REF_S = 0.009
CAL_REPS = 7


def _calibration_kernel() -> int:
    """Fixed interpreter-bound work: dict, str, int and list operations."""
    table: dict[str, int] = {}
    total = 0
    for i in range(34000):
        key = str(i % 977)
        table[key] = table.get(key, 0) + (i * 2654435761 & 0xFFFF)
        total += len(key)
    return total + len(sorted(table.items()))


def calibrate() -> float:
    """Median seconds of one calibration repetition, measured now."""
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[CAL_REPS // 2]


def _speed(*calibrations: float) -> float:
    """Host speed relative to the reference host, from calibrations
    measured right before and after the timed region."""
    return CAL_REF_S / (sum(calibrations) / len(calibrations))


def _import_repro():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    where = Path(repro.__file__).resolve()
    if not where.is_relative_to(src):
        raise SystemExit(f"imported repro from {where}, not from {src}")
    import repro.campaign
    import repro.pipeline
    import repro.workloads


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(base, f))
            except OSError:
                pass
    return total


def _outcome_hashes(report) -> list[str]:
    return [
        hashlib.sha256(json.dumps(list(r.outcome())).encode()).hexdigest()[:16]
        for r in report.results
    ]


def _ground_truth_failures(report, offline) -> list[list[str]]:
    """``[scenario, reason]`` for every status the ground truth refutes.

    The bug region is recomputed here from the instrumented design: a
    scenario is localized exactly when its truth site lies in the region
    rooted at its suspect.  Error results always fail.
    """
    from repro.campaign.localize import untapped_region

    design = offline.instrumented
    net, tapped = design.network, set(design.taps)
    bad = []
    for r in report.results:
        if r.status == "error":
            bad.append([r.scenario, f"error {r.error}"])
            continue
        if r.status not in ("localized", "missed"):
            continue
        if net.find(r.suspect) is None:
            bad.append([r.scenario, f"suspect {r.suspect!r} not in design"])
            continue
        region = untapped_region(net, tapped, r.suspect)
        if (r.truth in region) != (r.status == "localized"):
            bad.append([r.scenario, f"status {r.status} but truth "
                        f"{'in' if r.truth in region else 'outside'} region"])
        elif len(region) != r.region_size:
            bad.append([r.scenario, f"region size {r.region_size} != "
                        f"{len(region)}"])
    return bad


def _campaign_summary(report, offline) -> dict:
    statuses: dict[str, int] = {}
    for r in report.results:
        statuses[r.status] = statuses.get(r.status, 0) + 1
    return {
        "n": len(report.results),
        "statuses": statuses,
        "outcomes": _outcome_hashes(report),
        "gt_failures": _ground_truth_failures(report, offline),
        "turns": sum(r.turns for r in report.results),
        "signals_checked": sum(r.signals_checked for r in report.results),
    }


def _lanes(n_scenarios: int, lane_width: int) -> dict:
    """Lanes of the campaign's one batch and the kernel backend they
    resolve to."""
    from repro.netlist.compiled import resolve_backend
    from repro.util.bitops import words_for_bits

    lanes = min(n_scenarios, lane_width)
    return {"lanes": lanes,
            "backend": resolve_backend(None, n_words=words_for_bits(lanes))}


def _store_counts(*stores) -> dict[str, int]:
    return {
        "store.hits": sum(s.stats.hits for s in stores),
        "store.disk_hits": sum(s.stats.disk_hits for s in stores),
        "store.misses": sum(s.stats.misses for s in stores),
    }


class _Trace:
    """Optional tracing of one region: a no-op unless ``enabled``."""

    def __init__(self, enabled: bool) -> None:
        self.rec = tracer.Recorder() if enabled else None
        self.patches = None

    def __enter__(self):
        if self.rec is not None:
            self.patches = tracer.Patches(self.rec).install()
        return self

    def __exit__(self, *exc):
        if self.patches is not None:
            self.patches.remove()
        return False

    def span(self, name: str):
        if self.rec is None:
            return contextlib.nullcontext()
        return self.rec.span(name)

    def result(self, wall_s: float, extra: dict,
               setup: "_Trace | None" = None) -> dict:
        """Derived metrics and spans; ``setup`` prepends a set-up trace
        whose spans count toward seconds and counts but not shares."""
        if self.rec is None:
            return {}
        rec, missing = self.rec, dict(self.patches.missing)
        if setup is not None:
            rec = setup.rec.merged(self.rec)
            missing.update(setup.patches.missing)
        return {
            "metrics": tracer.derive(rec, wall_s, missing, extra,
                                     share_spans=self.rec.spans),
            "spans": rec.spans,
            "missing": missing,
            "backends": sorted(rec.backends),
        }


# -- warm campaign ---------------------------------------------------------------


def warm_prewarm(task: dict) -> dict:
    _import_repro()
    from repro import campaign, pipeline, workloads

    spec = workloads.campaign_spec(**WARM["spec"])
    store = pipeline.ArtifactStore(cache_dir=task["store"])
    net = workloads.generate_circuit(spec, DESIGN_SEED)
    offline, _hit = campaign.resolve_offline(net, cache=store)
    # the first accepted scenario is the same for any n: a one-scenario
    # campaign stores every stage and the compiled emulation program
    first = workloads.stuck_at_scenarios(
        spec, 1, seed=DESIGN_SEED, horizon=WARM["horizon"], offline=offline
    )
    campaign.run_campaign(
        first,
        config=campaign.CampaignConfig(
            workers=1, lane_width=WARM["lane_width"],
            max_turns=WARM["max_turns"],
        ),
        cache=store,
    )
    setup_s = time.time() - task["spawn"]
    return {"setup_s": setup_s, "speed": _speed(calibrate())}


def warm_sample(task: dict) -> dict:
    _import_repro()
    from repro import campaign, pipeline, workloads

    spec = workloads.campaign_spec(**WARM["spec"])
    config = campaign.CampaignConfig(
        workers=1, lane_width=WARM["lane_width"], max_turns=WARM["max_turns"]
    )
    bytes_before = _dir_bytes(task["store"])
    cal0 = calibrate()
    with _Trace(task["trace"]) as tr:
        t0 = time.perf_counter()
        with tr.span("bench.warm-campaign"):
            with tr.span("bench.resolve"):
                store = pipeline.ArtifactStore(cache_dir=task["store"])
                net = workloads.generate_circuit(spec, DESIGN_SEED)
                offline, hit = campaign.resolve_offline(net, cache=store)
            t1 = time.perf_counter()
            with tr.span("bench.screen"):
                scenarios = workloads.stuck_at_scenarios(
                    spec, WARM["n_scenarios"], seed=DESIGN_SEED,
                    horizon=WARM["horizon"], offline=offline,
                )
            t2 = time.perf_counter()
            random.Random(task["seed"]).shuffle(scenarios)
            with tr.span("bench.campaign"):
                store2 = pipeline.ArtifactStore(cache_dir=task["store"])
                report = campaign.run_campaign(
                    scenarios, config=config, cache=store2
                )
        t3 = time.perf_counter()
    speed = _speed(cal0, calibrate())
    counts = _store_counts(store, store2)
    summary = _campaign_summary(report, offline)
    extra = {
        **counts,
        "store.put.bytes": _dir_bytes(task["store"]) - bytes_before,
        "screen.accepted": len(scenarios),
        "localize.turns": summary["turns"],
        "localize.signals_checked": summary["signals_checked"],
    }
    return {
        "op_s": t3 - t0,
        "speed": speed,
        "resolve_s": t1 - t0,
        "screen_s": t2 - t1,
        "campaign_s": t3 - t2,
        "resolve_hit": hit,
        "accepted": len(scenarios),
        "store": counts,
        "rss_mb": _rss_mb(),
        **_lanes(len(scenarios), WARM["lane_width"]),
        **summary,
        "trace": tr.result(t3 - t0, extra),
    }


# -- cold physical campaign --------------------------------------------------------


def cold_setup(task: dict) -> dict:
    _import_repro()
    from repro import campaign, pipeline, workloads

    spec = workloads.campaign_spec(**COLD["spec"])
    net = workloads.generate_circuit(spec, DESIGN_SEED)
    offline, _hit = campaign.resolve_offline(
        net, cache=pipeline.ArtifactStore()
    )
    scenarios = workloads.stuck_at_scenarios(
        spec, COLD["n_scenarios"], seed=DESIGN_SEED,
        horizon=COLD["horizon"], offline=offline,
    )
    random.Random(task["seed"]).shuffle(scenarios)
    setup_s = time.time() - task["spawn"]
    speed = _speed(calibrate())
    with open(task["scenarios"], "wb") as fh:
        pickle.dump(scenarios, fh)
    return {"setup_s": setup_s, "speed": speed}


def cold_sample(task: dict) -> dict:
    _import_repro()
    from repro import campaign, pipeline, workloads

    with open(task["scenarios"], "rb") as fh:
        scenarios = pickle.load(fh)
    config = campaign.CampaignConfig(
        workers=1, lane_width=COLD["lane_width"], max_turns=COLD["max_turns"],
        with_physical=True,
    )
    os.makedirs(task["store"])
    cal0 = calibrate()
    with _Trace(task["trace"]) as tr:
        t0 = time.perf_counter()
        with tr.span("bench.cold-physical"):
            store = pipeline.ArtifactStore(cache_dir=task["store"])
            report = campaign.run_campaign(scenarios, config=config, cache=store)
        t1 = time.perf_counter()
    speed = _speed(cal0, calibrate())
    counts = _store_counts(store)
    written = _dir_bytes(task["store"])
    # the generic prefix of the artifact the campaign just built: every
    # stage hits, so this costs a few disk reads after the timed phase
    spec = workloads.campaign_spec(**COLD["spec"])
    offline, _hit = campaign.resolve_offline(
        workloads.generate_circuit(spec, DESIGN_SEED),
        cache=pipeline.ArtifactStore(cache_dir=task["store"]),
    )
    summary = _campaign_summary(report, offline)
    extra = {
        **counts,
        "store.put.bytes": written,
        "localize.turns": summary["turns"],
        "localize.signals_checked": summary["signals_checked"],
    }
    return {
        "op_s": t1 - t0,
        "speed": speed,
        "store": counts,
        "rss_mb": _rss_mb(),
        **_lanes(len(scenarios), COLD["lane_width"]),
        **summary,
        "trace": tr.result(t1 - t0, extra),
    }


# -- interactive debug turns ---------------------------------------------------------


def _check_waves(picks, waves, golden, cycles: int) -> int:
    """Mismatching signals of one turn against the source-level golden."""
    import numpy as np

    bad = 0 if set(waves) == set(picks) else 1
    for sig in picks:
        got, exp = waves.get(sig), golden.get(sig)
        if got is None or exp is None:
            bad += 1
            continue
        ref = exp[:cycles]
        ref = ref[max(0, len(ref) - len(got)):]
        if len(ref) == 0 or not np.array_equal(got[: len(ref)], ref):
            bad += 1
    return bad


def turns(task: dict) -> dict:
    _import_repro()
    from repro import campaign, workloads
    from repro.core import debug
    from repro.workloads import scenarios

    cycles = TURN["cycles"]
    net = workloads.generate_circuit(
        workloads.get_spec(TURN["design"]), DESIGN_SEED
    )
    stim = scenarios.stimulus_script(net, cycles, TURN["stimulus_seed"])
    with _Trace(task["trace"]) as setup_tr:
        with setup_tr.span("bench.session-setup"):
            offline, _hit = campaign.resolve_offline(net)
            session = debug.DebugSession(offline)
    design = session.design
    group_taps = [
        sorted(design.network.node_name(t) for t in g.path)
        for g in design.groups
    ]
    golden = scenarios.signal_traces(
        net, stim, [s for names in group_taps for s in names]
    )
    setup_s = time.time() - task["spawn"]
    out: dict = {"setup_s": setup_s, "speed": _speed(calibrate()),
                 "groups": len(group_taps),
                 "taps": sum(len(n) for n in group_taps)}
    if task.get("setup_only"):
        return out

    def run_turns(n: int | None, deadline: float | None, tr: _Trace) -> dict:
        """Seeded turns, with a host-speed calibration before the first
        and after every window of turns."""
        rng = random.Random(task["seed"])
        lat, modeled, frames, window = [], [], [], []
        speeds = [_speed(calibrate())]
        failed = checks = 0

        def close_window() -> None:
            speeds.append(_speed(calibrate()))
            lat.extend(window)
            window.clear()

        while (n is not None and len(lat) + len(window) < n) or (
            n is None and (time.perf_counter() < deadline
                           or len(lat) + len(window) < TURN["min_turns"])
        ):
            picks = [rng.choice(names) for names in group_taps]
            t0 = time.perf_counter()
            try:
                with tr.span("bench.turn"):
                    session.observe(picks)
                    session.reset()
                    session.run(cycles, stimulus=stim)
                    waves = session.waveforms()
            except Exception as exc:  # noqa: BLE001 — a failed turn is counted
                print(f"turn {len(lat) + len(window)} raised "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 1
                waves = None
            window.append(time.perf_counter() - t0)
            if waves is not None:
                log = session.turns[-1]
                modeled.append(log.modeled_overhead_s)
                frames.append(log.frames_touched)
                checks += len(picks)
                if _check_waves(picks, waves, golden, cycles):
                    failed += 1
            if len(window) == TURN["window_turns"]:
                close_window()
        if window:
            close_window()
        return {"lat_s": lat, "speeds": speeds, "modeled_s": modeled,
                "frames": frames, "failed": failed, "checks": checks,
                "wall_s": sum(lat)}

    if not task["trace"]:
        res = run_turns(None, time.perf_counter() + task["seconds"],
                        _Trace(False))
        return {**out, **res, "rss_mb": _rss_mb(),
                "backend": session.engine.backend}
    # traced run: the same seeded turn sequence, untraced then traced,
    # twice; each traced block's metrics include the traced set-up
    blocks = []
    for b in range(4):
        tr = _Trace(b % 2 == 1)
        with tr:
            res = run_turns(TURN["block_turns"], None, tr)
        res["trace"] = tr.result(res["wall_s"], {}, setup=setup_tr)
        blocks.append(res)
    return {**out, "blocks": blocks, "rss_mb": _rss_mb(),
            "backend": session.engine.backend}


ROLES = {
    "warm-prewarm": warm_prewarm,
    "warm-sample": warm_sample,
    "cold-setup": cold_setup,
    "cold-sample": cold_sample,
    "turns": turns,
}


def main(argv: list[str]) -> int:
    task_path, result_path = argv
    with open(task_path) as fh:
        task = json.load(fh)
    result = ROLES[task["role"]](task)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
