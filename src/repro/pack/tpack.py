"""Greedy attraction-based clustering (the TPack step of TPaR).

VPack-style algorithm: pair each FF with its driving LUT when legal (the
LUT feeds only that FF), then grow clusters from a high-connectivity seed,
repeatedly absorbing the unclustered BLE with the highest attraction
(shared-signal count) that keeps the cluster's external input count within
the architecture bound.

Signals produced by TCONs count as external inputs of consuming clusters
(they arrive over the routing fabric like any net), but TCONs themselves
consume no BLEs — the area effect the paper's Fig. 3(b) illustrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.spec import ArchSpec
from repro.errors import PackingError
from repro.pack.cluster import Atom, Ble, Cluster, PhysicalNetlist

__all__ = ["PackedDesign", "pack_design"]


@dataclass
class PackedDesign:
    """Clusters plus signal directory for placement and routing."""

    physical: PhysicalNetlist
    arch: ArchSpec
    clusters: list[Cluster] = field(default_factory=list)
    cluster_of_signal: dict[int, int] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_bles(self) -> int:
        return sum(len(c.bles) for c in self.clusters)

    def stats(self) -> dict[str, float]:
        sizes = [len(c.bles) for c in self.clusters]
        return {
            "clusters": float(len(sizes)),
            "bles": float(sum(sizes)),
            "avg_fill": sum(sizes) / (len(sizes) * self.arch.n_ble)
            if sizes
            else 0.0,
        }


def _pair_bles(physical: PhysicalNetlist) -> list[Ble]:
    """Pair FFs with their driver LUTs where the pairing is free."""
    readers: dict[int, int] = {}
    for a in physical.atoms:
        for s in a.inputs:
            readers[s] = readers.get(s, 0) + 1
    # PO signals have an external reader
    for s in physical.po_signals:
        readers[s] = readers.get(s, 0) + 1
    # so does every debug-mux option: the mux reads it over the routing
    for group in physical.tunable_groups.values():
        for s, _cond in group.options:
            readers[s] = readers.get(s, 0) + 1

    luts = {a.output: a for a in physical.atoms if a.kind == "lut"}
    ffs = [a for a in physical.atoms if a.kind == "ff"]

    bles: list[Ble] = []
    used_luts: set[int] = set()
    idx = 0
    for ff in ffs:
        d = ff.inputs[0]
        host = luts.get(d)
        if (
            host is not None
            and d not in used_luts
            and readers.get(d, 0) == 1
            and d not in physical.tunable_groups
        ):
            # the LUT feeds only this FF: fuse into one BLE (FF output mode)
            bles.append(Ble(index=idx, lut=host, ff=ff))
            used_luts.add(d)
        else:
            bles.append(Ble(index=idx, lut=None, ff=ff))
        idx += 1
    for out, lut in sorted(luts.items()):
        if out not in used_luts:
            bles.append(Ble(index=idx, lut=lut))
            idx += 1
    return bles


def pack_design(physical: PhysicalNetlist, arch: ArchSpec) -> PackedDesign:
    """Cluster the physical netlist into CLBs."""
    bles = _pair_bles(physical)
    n = arch.n_ble
    max_in = arch.n_cluster_inputs

    # connectivity index: signal -> BLE indices touching it
    touching: dict[int, list[int]] = {}
    for b in bles:
        for s in set(b.inputs) | b.internal_signals:
            touching.setdefault(s, []).append(b.index)
    ble_by_index = {b.index: b for b in bles}

    unpacked: set[int] = {b.index for b in bles}
    clusters: list[Cluster] = []

    def feasible(cluster: Cluster, cand: Ble) -> bool:
        produced = cluster.produced() | cand.internal_signals
        need: set[int] = set()
        for b in cluster.bles + [cand]:
            need.update(s for s in b.inputs if s not in produced)
        return len(need) <= max_in

    while unpacked:
        # seed: the unclustered BLE with the most input pins (hard to place
        # later), ties broken by index for determinism
        seed_idx = max(unpacked, key=lambda i: (len(ble_by_index[i].inputs), -i))
        unpacked.discard(seed_idx)
        cluster = Cluster(index=len(clusters), bles=[ble_by_index[seed_idx]])

        while len(cluster.bles) < n:
            # candidates: unclustered BLEs sharing any signal with the cluster
            touched: dict[int, int] = {}
            csignals = cluster.produced()
            for b in cluster.bles:
                csignals |= set(b.inputs)
            for s in csignals:
                for i in touching.get(s, ()):
                    if i in unpacked:
                        touched[i] = touched.get(i, 0) + 1
            best = None
            best_score = -1
            for i, score in sorted(touched.items()):
                if score > best_score and feasible(cluster, ble_by_index[i]):
                    best, best_score = i, score
            if best is None:
                break
            unpacked.discard(best)
            cluster.bles.append(ble_by_index[best])
        clusters.append(cluster)

    packed = PackedDesign(physical=physical, arch=arch, clusters=clusters)
    for c in clusters:
        for b in c.bles:
            for s in b.internal_signals:
                if s in packed.cluster_of_signal:
                    raise PackingError(
                        f"signal {physical.signal_name(s)!r} produced twice"
                    )
                packed.cluster_of_signal[s] = c.index
    return packed
