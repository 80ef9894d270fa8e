#!/usr/bin/env python
"""Regenerate every paper artifact without pytest.

Runs the five experiment drivers (Tables I/II, Fig. 7, §V-C.1, §V-C.2)
and writes the results under ``results/`` (see ``docs/ARCHITECTURE.md``
§2 for what each driver regenerates).

Usage::

    python tools/run_experiments.py            # full suite (several minutes)
    python tools/run_experiments.py --small    # small benchmarks only
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import (
    run_compile_time,
    run_fig7,
    run_runtime_overhead,
    run_table1,
    run_table2,
    save_result,
)
from repro.workloads import paper_suite


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--small", action="store_true", help="small benchmarks only")
    args = ap.parse_args(argv)

    specs = paper_suite(small_only=args.small)
    jobs = [
        ("table1_area", lambda: run_table1(specs)),
        ("table2_depth", lambda: run_table2(specs)),
        ("fig7_area_chart", lambda: run_fig7(specs)),
        ("compile_time", lambda: run_compile_time(
            [s for s in specs if s.n_gates < 300] or specs[:1]
        )),
        ("runtime_overhead", lambda: run_runtime_overhead(
            specs[3] if len(specs) > 3 else specs[-1]
        )),
    ]
    for name, job in jobs:
        t0 = time.perf_counter()
        text = job()
        path = save_result(name, text)
        print(f"[{time.perf_counter() - t0:7.1f}s] {path}")
        print(text)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
