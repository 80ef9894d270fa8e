"""Deterministic synthetic circuit generation.

:func:`generate_circuit` builds a layered gate-level DAG matching a
:class:`~repro.workloads.suites.BenchmarkSpec`: exact gate count, exact
gate-level depth, requested latch/PI/PO counts, and a fan-in/fan-out profile
typical of technology-independent synthesis output (mostly 2-input gates,
average fan-in ≈ 2.2, a few high-fan-out control signals).

Construction invariants (tested in ``tests/test_workloads.py``):

* the network is structurally valid and combinationally acyclic;
* gate-level depth equals ``spec.gate_depth_target`` exactly;
* every gate output is read by something (no dead logic inflating counts);
* generation is a pure function of ``(spec, seed)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.netlist.network import LogicNetwork
from repro.netlist.truthtable import TruthTable
from repro.util.rng import RngHub
from repro.workloads.suites import BenchmarkSpec

__all__ = ["generate_circuit"]


def _two_input_library() -> list[TruthTable]:
    a = TruthTable.var(0, 2)
    b = TruthTable.var(1, 2)
    return [
        a & b,          # AND
        a | b,          # OR
        ~(a & b),       # NAND
        ~(a | b),       # NOR
        a ^ b,          # XOR
        ~(a ^ b),       # XNOR
        a & ~b,         # ANDN
        ~a | b,         # ORN (implication)
    ]


#: selection weights: AND/OR family dominates real synthesis output, XORs
#: appear in datapaths (diffeq/clma) at a modest rate.
_TWO_INPUT_WEIGHTS = np.array([0.26, 0.24, 0.12, 0.08, 0.10, 0.06, 0.08, 0.06])


def _three_input_library() -> list[TruthTable]:
    a = TruthTable.var(0, 3)
    b = TruthTable.var(1, 3)
    c = TruthTable.var(2, 3)
    return [
        TruthTable.mux(c, a, b),          # 2:1 mux
        (a & b) | (b & c) | (a & c),      # majority (carry)
        a ^ b ^ c,                        # full-adder sum
        (a & b) | c,                      # and-or
        (a | b) & c,                      # or-and
    ]


def _level_sizes(n_gates: int, depth: int, rng: np.random.Generator) -> list[int]:
    """Split ``n_gates`` over ``depth`` levels with a mid-heavy profile."""
    if n_gates < depth:
        raise WorkloadError(
            f"cannot build depth {depth} with only {n_gates} gates"
        )
    # Triangular weight profile peaking at 40% depth — real circuits widen
    # after the input decode and narrow toward outputs.
    xs = np.arange(1, depth + 1, dtype=float) / depth
    weights = 1.2 - np.abs(xs - 0.4)
    weights = np.maximum(weights, 0.25)
    weights *= rng.uniform(0.85, 1.15, size=depth)
    sizes = np.maximum(1, np.floor(weights / weights.sum() * n_gates)).astype(int)
    # fix rounding drift while keeping every level ≥ 1
    diff = n_gates - int(sizes.sum())
    order = rng.permutation(depth)
    i = 0
    while diff != 0:
        lvl = order[i % depth]
        if diff > 0:
            sizes[lvl] += 1
            diff -= 1
        elif sizes[lvl] > 1:
            sizes[lvl] -= 1
            diff += 1
        i += 1
    return sizes.tolist()


def generate_circuit(
    spec: BenchmarkSpec, seed: int = 2016, *, name: str | None = None
) -> LogicNetwork:
    """Generate the synthetic stand-in circuit for ``spec``.

    Parameters
    ----------
    spec:
        Structural targets (gate count, depth, latches, I/O).
    seed:
        Root seed; the per-benchmark stream is salted with ``spec.seed_salt``
        so different benchmarks are independent under one experiment seed.

    >>> from repro.workloads.suites import get_spec
    >>> net = generate_circuit(get_spec("stereov."))
    >>> net.n_gates == get_spec("stereov.").n_gates
    True
    """
    hub = RngHub(seed)
    rng = hub.stream(f"workload/{spec.seed_salt or spec.name}")
    net = LogicNetwork(name or spec.name)

    lib2 = _two_input_library()
    lib3 = _three_input_library()
    inv = ~TruthTable.var(0, 1)

    pis = [net.add_pi(f"pi{idx}") for idx in range(spec.n_pis)]
    latch_qs = [
        net.add_latch(f"lq{idx}", init=int(rng.integers(0, 2)))
        for idx in range(spec.n_latches)
    ]
    sources = pis + latch_qs

    depth = spec.gate_depth_target
    sizes = _level_sizes(spec.n_gates, depth, rng)

    by_level: list[list[int]] = [list(sources)]
    unused: set[int] = set(sources)
    # Pool for O(1)-amortized random draws from `unused`, restricted to
    # strictly earlier levels (same-level picks would deepen the circuit
    # past the target).  Stale entries are skipped lazily.
    unused_pool: list[int] = list(sources)
    gate_idx = 0

    def draw_unused() -> int | None:
        """Random not-yet-read signal from an earlier level, or None."""
        while unused_pool:
            i = int(rng.integers(0, len(unused_pool)))
            unused_pool[i], unused_pool[-1] = unused_pool[-1], unused_pool[i]
            cand = unused_pool[-1]
            if cand in unused:
                return cand
            unused_pool.pop()  # stale: consumed since it was queued
        return None

    for level in range(1, depth + 1):
        this_level: list[int] = []
        prev_level = by_level[level - 1]
        n_here = sizes[level - 1]
        for j in range(n_here):
            # enforce exact depth: the first gate of every level anchors a
            # critical "spine" through the previous level's first node.
            if j == 0:
                first = prev_level[0]
            else:
                first = prev_level[int(rng.integers(0, len(prev_level)))]

            roll = rng.random()
            if roll < 0.05 and level > 1:
                fanins = [first]
                func = inv
            else:
                # remaining fan-ins drawn from any earlier level with a
                # geometric bias toward recent levels (local connectivity).
                n_extra = 2 if roll > 0.88 else 1
                fanins = [first]
                for _ in range(n_extra):
                    pick: int | None = None
                    if rng.random() < 0.7:
                        # consume a not-yet-used signal so no logic is dead
                        pick = draw_unused()
                    if pick is None:
                        back = min(int(rng.geometric(0.45)), level - 1)
                        pool = by_level[level - 1 - back] or prev_level
                        pick = pool[int(rng.integers(0, len(pool)))]
                    fanins.append(pick)
                if len(set(fanins)) < len(fanins):
                    # duplicate fan-in would make the function degenerate;
                    # fall back to an inverter of the anchor
                    fanins = [first]
                    func = inv
                elif n_extra == 1:
                    func = lib2[
                        int(rng.choice(len(lib2), p=_TWO_INPUT_WEIGHTS))
                    ]
                else:
                    func = lib3[int(rng.integers(0, len(lib3)))]

            nid = net.add_gate(f"n{gate_idx}", fanins, func)
            gate_idx += 1
            this_level.append(nid)
            for f in fanins:
                unused.discard(f)
        # expose this level's outputs to later levels only
        for nid in this_level:
            unused.add(nid)
            unused_pool.append(nid)
        by_level.append(this_level)

    all_gates = [g for lvl in by_level[1:] for g in lvl]

    # latch drivers: prefer unused signals from the deeper half of the circuit
    deep_pool = [g for lvl in by_level[depth // 2 :] for g in lvl]
    deep_set = set(deep_pool)
    for latch in net.latches:
        cand = [u for u in unused if u in deep_set]
        if cand:
            drv = cand[int(rng.integers(0, len(cand)))]
        else:
            drv = deep_pool[int(rng.integers(0, len(deep_pool)))]
        net.set_latch_driver(latch.q, drv)
        unused.discard(drv)

    # primary outputs: the spine end first (pins the measured depth), then
    # unused signals, then random deep gates.
    po_nodes: list[int] = [by_level[depth][0]]
    unused.discard(po_nodes[0])
    source_set = set(sources)
    unused_gates = [u for u in unused if u not in source_set]
    rng.shuffle(unused_gates)
    for u in unused_gates:
        if len(po_nodes) >= spec.n_pos:
            break
        if u not in po_nodes:
            po_nodes.append(u)
            unused.discard(u)
    while len(po_nodes) < spec.n_pos:
        cand = deep_pool[int(rng.integers(0, len(deep_pool)))]
        if cand not in po_nodes:
            po_nodes.append(cand)

    # anything still unused gets a reader: fold pairs into existing 1-input
    # gates is intrusive, so instead spread them over the PO list tail by
    # OR-ing into the last POs' drivers is also intrusive — the clean fix is
    # to rewire: make each leftover an extra fan-in of a same-or-deeper
    # inverter, upgrading it to a 2-input gate. This keeps gate count exact.
    po_set = set(po_nodes)
    leftovers = [u for u in unused if u not in source_set and u not in po_set]
    if leftovers:
        lvl_of = {g: lv for lv, nodes in enumerate(by_level) for g in nodes}
        # hosts: single-input gates sorted by level descending, consumed once
        hosts = sorted(
            (
                g
                for g in all_gates
                if len(net.fanins(g)) == 1 and g not in po_set
            ),
            key=lambda g: -lvl_of[g],
        )
        leftovers.sort(key=lambda u: lvl_of[u])
        hi = 0
        for u in leftovers:
            host = None
            while hi < len(hosts):
                g = hosts[hi]
                if lvl_of[g] > lvl_of[u] and net.fanins(g)[0] != u:
                    host = g
                    hi += 1
                    break
                hi += 1
            if host is not None:
                old_in = net.fanins(host)[0]
                # keep the inversion on the original input, OR in the orphan:
                # f = ~old | u  (still depends on both)
                f = (~TruthTable.var(0, 2)) | TruthTable.var(1, 2)
                net.rewire(host, (old_in, u), f)
            else:
                # no host inverter downstream: expose as an extra PO so the
                # signal is live (counts toward observability anyway)
                po_nodes.append(u)

    for idx, nid in enumerate(po_nodes):
        existing = net.node_name(nid)
        # POs are named after their driving signal, matching BLIF convention
        net.add_po(existing)

    return net
