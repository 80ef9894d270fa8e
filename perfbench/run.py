"""End-to-end benchmark of the debug flow, split by layer on request.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/`` directory, so nothing needs installing.  Workloads (sizes in
``work.py``):

``warm-campaign``  a campaign whose every compile stage hits an on-disk
    store a separate process filled.  One timed sample, in a fresh
    process, resolves the artifact, screens 32 stuck-at scenarios and
    localizes them in one lane batch.  Redundant per-scenario work
    dominates: regenerating the design, serialising it for keys, one SCG
    per lane.
``cold-physical``  one physical campaign (32 scenarios, all ten compile
    stages) against an empty store, in a fresh process.  Place and route
    dominate; keys, SCG and kernels are small, so optimisations of those
    should leave it unchanged.  The store writes here and reads in
    ``warm-campaign``.
``debug-turn``  the paper's interactive loop on the ``or1200`` design:
    each turn observes one random tapped signal per trace group, resets,
    emulates 32 cycles and reads the waveforms.  One lane, a sequential
    design, no compiling and no store.

Designs and scenario sets are fixed; ``--seed`` orders the scenarios
(their lanes) and picks each turn's signals.  Every timed process runs
with ``workers=1``: each layer call stays in-process, where the traced
run's wrappers see it.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics: ``op_p50_ms`` (median wall time of one
timed operation: a warm sample, a cold campaign, a debug turn),
``setup_s`` (median of several set-ups, each from process start to the
timed phase, including imports and the store-filling process) and
``peak_rss_mb`` (median peak RSS of the timed processes).  Times are
scaled to a reference host speed (see ``HOST_SPEED_EXPONENT``).  The
lines before it print the per-workload metrics by name: scenario
throughput of screening and of the campaign, cold campaign seconds, turn
p50/p90, modelled reconfiguration time and frames per turn, localized
fraction and error rate.

With ``--trace 1`` the same operations run untraced and traced, twice
each, alternating; the JSON carries the per-layer metrics of
``tracer.PER_LAYER_UNITS`` (the mean of the two traced samples, whose
counts must agree exactly) plus the tracing overhead.  A layer-share
table is printed and the spans are written as Chrome trace-event JSON to
``.perfbench/traces/<workload>-seed<N>.json``.

Outputs are checked: a campaign scenario fails when it errors, when its
status disagrees with the ground truth (truth site inside the suspect's
region), or when its outcome differs from the run's other samples; a
run fails when its sorted outcomes differ from the digest recorded in
``digests.json``.  A debug turn fails when it raises or when any
waveform differs from a source-netlist simulation of the signal it
claims to observe.  The command exits 1 when any check fails, and 2
when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORKLOADS = ("warm-campaign", "cold-physical", "debug-turn")
#: Set-ups measured per run.  The campaign set-ups last well under a
#: second, mostly interpreter start and imports, so they take more
#: repetitions for a steady median.
SETUP_REPEATS = {"warm-campaign": 5, "cold-physical": 5, "debug-turn": 3}
MIN_SAMPLES = 3
#: Every process this run starts must end before this many seconds.
BUDGET_S = 170.0
#: Environment variables that would change what is measured.
PINNED_OFF = ("REPRO_CHAOS", "REPRO_SIM_BACKEND")

#: Wall times are scaled by the host's speed, measured by a calibration
#: kernel (``work.calibrate``) run beside every timed region, raised to
#: this power.  Neighbours on a shared host change its speed by up to
#: 1.8x within a minute.  On a shared 2-core x86-64 container (Python
#: 3.11) the program's time followed the calibration's to the power
#: 0.5-0.6 (least squares over 77 paired samples), and full scaling
#: (power 1) overcorrected.
HOST_SPEED_EXPONENT = 0.5

END_TO_END_UNITS = {"op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    pass


class Run:
    """One benchmark invocation: its work directory, children and checks."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.t_start = time.monotonic()
        self.work = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.n_tasks = 0
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.env = {k: v for k, v in os.environ.items() if k not in PINNED_OFF}
        self.env["PYTHONHASHSEED"] = "0"

    # -- child processes -----------------------------------------------------

    def spawn(self, role: str, **task) -> dict:
        """Run one ``work.py`` role in a fresh process and return its result."""
        self.n_tasks += 1
        task_path = self.work / f"task{self.n_tasks}.json"
        result_path = self.work / f"result{self.n_tasks}.json"
        task.update(role=role, seed=self.seed, spawn=time.time())
        task_path.write_text(json.dumps(task))
        remaining = BUDGET_S - (time.monotonic() - self.t_start)
        if remaining <= 0:
            raise CheckFailed("time budget exhausted before " + role)
        proc = subprocess.run(
            [sys.executable, str(HERE / "work.py"), str(task_path),
             str(result_path)],
            cwd=ROOT, env=self.env, stdout=sys.stderr, timeout=remaining,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"{role} process exited {proc.returncode}")
        return json.loads(result_path.read_text())

    def timed(self, run_one) -> list[dict]:
        """Samples until ``--seconds`` have passed (at least MIN_SAMPLES)."""
        samples: list[dict] = []
        t0 = time.monotonic()
        while len(samples) < MIN_SAMPLES or time.monotonic() - t0 < self.seconds:
            samples.append(run_one())
        return samples

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# -- statistics ------------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest(hashes: list[str]) -> str:
    return hashlib.sha256(",".join(hashes).encode()).hexdigest()[:16]


def recorded_digest(workload: str) -> str | None:
    """Digest of the workload's sorted outcomes, the same for every seed."""
    return json.loads((HERE / "digests.json").read_text()).get(workload)


# -- campaign workloads --------------------------------------------------------------


def check_campaign_samples(run: Run, samples: list[dict]) -> None:
    """Count failed scenarios; every sample must match the reference."""
    ref = samples[0]["outcomes"]
    want = recorded_digest(run.workload)
    print(f"sorted outcomes digest: {digest(sorted(ref))} "
          f"(recorded: {want or 'none'})")
    for s in samples:
        bad = {name for name, _reason in s["gt_failures"]}
        mismatched = sum(a != b for a, b in zip(s["outcomes"], ref))
        failed = max(len(bad), mismatched)
        if want is not None and digest(sorted(s["outcomes"])) != want:
            failed = s["n"]
        run.attempted += s["n"]
        run.failed += failed
        for name, reason in s["gt_failures"][:5]:
            print(f"ground truth: {name}: {reason}", file=sys.stderr)


def warm_campaign(run: Run) -> tuple[list[dict], list[dict]]:
    setups = []
    for i in range(1 if run.trace else SETUP_REPEATS[run.workload]):
        store = run.work / f"warm-store{i}"
        if i:
            shutil.rmtree(run.work / f"warm-store{i - 1}")
        setups.append(run.spawn("warm-prewarm", store=str(store)))

    def sample(trace: bool) -> dict:
        s = run.spawn("warm-sample", store=str(store), trace=trace)
        run.check(s["resolve_hit"], "warm resolve_offline missed the store")
        run.check(s["store"]["store.misses"] == 0,
                  f"warm store missed {s['store']['store.misses']} times")
        return s

    return setups, sampled(run, sample)


def cold_physical(run: Run) -> tuple[list[dict], list[dict]]:
    setups = []
    for _ in range(1 if run.trace else SETUP_REPEATS[run.workload]):
        scenarios = str(run.work / "cold-scenarios.pkl")
        setups.append(run.spawn("cold-setup", scenarios=scenarios))
    n = 0

    def sample(trace: bool) -> dict:
        nonlocal n
        n += 1
        store = run.work / f"cold-store{n}"
        s = run.spawn("cold-sample", scenarios=scenarios, store=str(store),
                      trace=trace)
        shutil.rmtree(store)
        run.check(s["store"]["store.misses"] > 0,
                  "cold campaign built nothing: its store was not empty")
        return s

    return setups, sampled(run, sample)


def sampled(run: Run, sample) -> list[dict]:
    """Untraced samples for ``--seconds``; when tracing, an untraced and a
    traced sample, twice."""
    if run.trace:
        samples = [sample(i % 2 == 1) for i in range(4)]
    else:
        samples = run.timed(lambda: sample(False))
    check_campaign_samples(run, samples)
    return samples


def host_scale(speeds: list[float]) -> float:
    """Factor taking this run's wall times to the reference host speed."""
    return statistics.median(speeds) ** HOST_SPEED_EXPONENT


def campaign_report(run: Run, setups: list[dict], samples: list[dict]) -> dict:
    plain = [s for s in samples if not s["trace"]]
    k = host_scale([s["speed"] for s in setups + samples])
    op_s = [s["op_s"] * k for s in plain]
    n = samples[0]["n"]
    localized = {s["statuses"].get("localized", 0) for s in samples}
    run.check(len(localized) == 1, f"localized count varies: {localized}")
    named = {
        "localized_frac": (min(localized) / n, "ratio"),
        "error_rate": (run.failed / run.attempted, "ratio"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups) * k, "s"),
        "peak_rss_mb": (statistics.median(s["rss_mb"] for s in plain), "MB"),
    }
    if run.workload == "warm-campaign":
        named["campaign_scen_per_s"] = (statistics.median(
            s["n"] / (s["campaign_s"] * k) for s in plain), "scenarios/s")
        named["screen_scen_per_s"] = (statistics.median(
            s["accepted"] / (s["screen_s"] * k) for s in plain),
            "scenarios/s")
    else:
        named["cold_campaign_s"] = (statistics.median(op_s), "s")
    print(f"{run.workload}: {len(plain)} timed samples of {n} scenarios, "
          f"{samples[0]['lanes']} lanes, backend {samples[0]['backend']}; "
          f"host scale {k:.3f}; raw seconds "
          + " ".join(f"{s['op_s']:.3f}" for s in plain))
    print_named(named)
    traced = [s for s in samples if s["trace"]]
    return {
        "op_p50_ms": statistics.median(op_s) * 1000.0,
        "setup_s": named["setup_s"][0],
        "peak_rss_mb": named["peak_rss_mb"][0],
        "_traced": [s["trace"] for s in traced],
        "_traced_s": [s["op_s"] * k for s in traced],
        "_untraced_s": op_s,
        "_backend": samples[0]["backend"],
    }


# -- debug turns -----------------------------------------------------------------------


def debug_turn(run: Run) -> dict:
    extra = 0 if run.trace else SETUP_REPEATS[run.workload] - 1
    setups = [run.spawn("turns", setup_only=True, trace=False)
              for _ in range(extra)]
    main = run.spawn("turns", trace=run.trace, seconds=run.seconds)
    setups.append(main)
    blocks = main["blocks"] if run.trace else [dict(main, trace={})]
    k = host_scale([s["speed"] for s in setups]
                   + [x for b in blocks for x in b["speeds"]])
    lat = [x * k for b in blocks for x in b["lat_s"]]
    modeled = [x for b in blocks for x in b["modeled_s"]]
    frames = [x for b in blocks for x in b["frames"]]
    run.attempted += len(lat)
    run.failed += sum(b["failed"] for b in blocks)
    checks = sum(b["checks"] for b in blocks)
    named = {
        "turn_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "modeled_turn_us": (statistics.fmean(modeled) * 1e6, "us (simulated)"),
        "frames_per_turn": (statistics.fmean(frames), "frames"),
        "error_rate": (run.failed / run.attempted, "ratio"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups) * k, "s"),
        "peak_rss_mb": (main["rss_mb"], "MB"),
    }
    if len(lat) >= 100:  # at least ten samples beyond the 90th percentile
        named["turn_p90_ms"] = (nearest_rank(lat, 0.9) * 1000.0, "ms")
    print(f"debug-turn: {len(lat)} turns on {main['groups']} trace groups "
          f"({main['taps']} taps), {checks} waveform checks, "
          f"backend {main['backend']}; raw median "
          f"{statistics.median(lat) / k * 1000.0:.4f} ms, host scale {k:.3f}")
    print_named(named)
    return {
        "op_p50_ms": named["turn_p50_ms"][0],
        "setup_s": named["setup_s"][0],
        "peak_rss_mb": main["rss_mb"],
        "_traced": [b["trace"] for b in blocks if b["trace"]],
        "_traced_s": [sum(b["lat_s"]) * k for b in blocks if b["trace"]],
        "_untraced_s": [sum(b["lat_s"]) * k for b in blocks if not b["trace"]],
        "_backend": main["backend"],
    }


# -- reporting -----------------------------------------------------------------------------


def print_named(named: dict) -> None:
    for name, (value, unit) in sorted(named.items()):
        print(f"  {name:<22} {value:12.4f} {unit}")


def per_layer(run: Run, result: dict) -> dict[str, float]:
    """Mean of the traced samples; their exact counts must agree."""
    traced = result["_traced"]
    metrics = [t["metrics"] for t in traced]
    for name in tracer.EXACT_COUNTS:
        seen = {m[name] for m in metrics}
        run.check(len(seen) == 1, f"count {name} differs between traced "
                                  f"samples: {sorted(seen)}")
    out = {name: statistics.fmean(m[name] for m in metrics)
           for name in tracer.PER_LAYER_UNITS if name in metrics[0]}
    untraced = statistics.median(result["_untraced_s"])
    out["trace.overhead_s"] = statistics.median(result["_traced_s"]) - untraced
    out["trace.overhead_frac"] = out["trace.overhead_s"] / untraced
    missing: dict[str, str] = {}
    for t in traced:
        missing.update(t["missing"])
    for span, reason in sorted(missing.items()):
        print(f"MISSING {span}: {reason}")
    backends = sorted({b for t in traced for b in t["backends"]})
    print(f"kern.backend: {','.join(backends) or result['_backend']}")
    print(f"layer shares of the traced wall time ({out['trace.wall_s']:.4f} s; "
          f"tracing overhead {out['trace.overhead_s']:+.4f} s, "
          f"{out['trace.overhead_frac']:+.2%}):")
    for layer in tracer.LAYERS + ("other",):
        share = out[f"share.{layer}"]
        print(f"  {layer:<10} {share * out['trace.wall_s']:9.4f} s  {share:7.2%}")
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{run.workload}-seed{run.seed}.json"
    tracer.write_chrome_trace(
        str(path),
        [(f"{run.workload} traced sample {i + 1}", t["spans"])
         for i, t in enumerate(traced)],
        {"workload": run.workload, "seed": run.seed},
    )
    print(f"trace written to {path.relative_to(ROOT)}")
    return out


def environment(backend: str) -> str:
    return (f"env: host_cores={os.cpu_count()} "
            f"python={platform.python_version()} "
            f"numpy={importlib.metadata.version('numpy')} "
            f"kernel_backend={backend} PYTHONHASHSEED=0 "
            f"cleared={','.join(PINNED_OFF)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if run.workload == "debug-turn":
            result = debug_turn(run)
        elif run.workload == "warm-campaign":
            result = campaign_report(run, *warm_campaign(run))
        else:
            result = campaign_report(run, *cold_physical(run))
        print(environment(result["_backend"]))
        if run.trace:
            values = per_layer(run, result)
            units = tracer.PER_LAYER_UNITS
        else:
            values = {k: result[k] for k in END_TO_END_UNITS}
            units = END_TO_END_UNITS
    except (CheckFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
