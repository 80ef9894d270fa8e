"""Stage-granular artifact storage (memory + disk) with per-stage stats.

:class:`ArtifactStore` is the one artifact cache of the flow: entries are
keyed by ``(stage name, content key)``, so a single knob change re-fetches
every unaffected stage and rebuilds only the invalidated suffix of the
graph.

Entries never expire — a key embeds the source content, the read config
fields, the stage version and the flow version, so a stale entry is
unreachable rather than wrong.  Disk persistence is best-effort and
atomic (temp file + rename, with an optional ``fsync`` barrier before
the rename for crash-durability): concurrent users of one directory see
either nothing or a complete artifact, never a torn file.

Persisted entries additionally carry a **length + CRC32 trailer**
(:data:`_TRAILER`), so a file torn *outside* the rename discipline — a
crashed writer on a filesystem that reorders metadata, a truncated copy,
bit rot — is detected on read: the entry is **quarantined** (moved to
``<cache_dir>/quarantine/``, preserving the bytes for forensics) and the
lookup degrades to a miss-and-rebuild, counted in the per-stage
``corrupt`` statistic.  Pre-trailer files written by older versions
still load (pickle ignores trailing bytes, absent trailers fall back to
a plain parse); anything unparseable is quarantined the same way.  A
lookup never raises on bad disk state.

Every entry is a compile-graph stage's artifact — the ``emulation``
stage's included: the mapped network's compiled program and the lowered
virtual PConf, whose generated code pickles as :mod:`marshal` bytes
(:class:`repro.netlist.compiled.KernelCode`), so a warm campaign restart
skips kernel compilation the same way it skips every other stage.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.pipeline.graph import Artifact
from repro.util import chaos

__all__ = ["StageStats", "StoreStats", "StoreRef", "ArtifactStore"]

#: Trailer appended to every persisted entry: magic, payload length,
#: CRC32 of the payload.  ``pickle.loads`` stops at the STOP opcode, so
#: readers unaware of the trailer still parse the payload — the format is
#: both forward- and backward-compatible.
_TRAILER = struct.Struct("<4sQI")
_TRAILER_MAGIC = b"RSC1"


@dataclass(frozen=True)
class StoreRef:
    """A disk-level alias: "this entry's value lives at (stage, key)".

    Stages that pass their input through untouched (``cleanup`` with
    ``run_cleanup=False``) would otherwise pickle the identical value a
    second time under their own key.  Storing a tiny ``StoreRef`` instead
    keeps the two keys independently addressable while the bytes exist
    once; :meth:`ArtifactStore.get_if_present` resolves refs
    transparently.
    """

    stage: str
    key: str


@dataclass
class StageStats:
    """Hit/miss/invalidation accounting for one stage (or one cache)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    """Subset of ``hits`` served by unpickling a persisted artifact."""
    stores: int = 0
    invalidations: int = 0
    """Misses on a stage that had been built before for the *same design*
    (lookup group) under a different key — i.e. a config/upstream change
    made a prior build unreachable.  A genuinely-new design entering a
    warm store is a cold build, not an invalidation.  When the caller
    supplies no group, any other key under the stage counts
    (conservative).  ``misses - invalidations`` is cold builds."""
    corrupt: int = 0
    """Persisted entries that failed their integrity check (checksum
    trailer mismatch, torn/truncated/unparseable pickle) and were
    quarantined — each such lookup also counts as a miss (the consumer
    rebuilds), never as an exception."""

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class StoreStats:
    """Per-stage :class:`StageStats` plus aggregate views."""

    stages: dict[str, StageStats] = field(default_factory=dict)

    def for_stage(self, name: str) -> StageStats:
        if name not in self.stages:
            self.stages[name] = StageStats()
        return self.stages[name]

    def _sum(self, attr: str) -> int:
        return sum(getattr(s, attr) for s in self.stages.values())

    @property
    def hits(self) -> int:
        return self._sum("hits")

    @property
    def misses(self) -> int:
        return self._sum("misses")

    @property
    def disk_hits(self) -> int:
        return self._sum("disk_hits")

    @property
    def stores(self) -> int:
        return self._sum("stores")

    @property
    def invalidations(self) -> int:
        return self._sum("invalidations")

    @property
    def corrupt(self) -> int:
        return self._sum("corrupt")

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """Aggregate counters plus a ``per_stage`` breakdown."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate, 4),
            "per_stage": {
                name: s.as_dict()
                for name, s in sorted(self.stages.items())
                if s.lookups or s.stores
            },
        }


@dataclass
class ArtifactStore:
    """Two-level (memory, disk) store of stage artifacts.

    Parameters
    ----------
    cache_dir:
        Optional directory for persistence across processes and campaign
        invocations; entries live under ``<cache_dir>/<stage>/<key>.pkl``
        and are created on demand.  ``None`` keeps the store in-memory.
    keep_in_memory:
        Whether disk-loaded and freshly built artifacts are retained in
        the in-process map (the default; disable to bound memory on very
        large campaigns while still deduplicating via disk).
    fsync:
        When True, every persisted entry is fsync'd (file *and* the
        containing directory) before the atomic rename publishes it, so
        a completed ``put`` survives a machine crash — not just a process
        crash.  Off by default: the store is a cache, and a torn or lost
        entry already degrades to a quarantine + rebuild.
    """

    cache_dir: str | None = None
    keep_in_memory: bool = True
    fsync: bool = False
    stats: StoreStats = field(default_factory=StoreStats)
    _memory: dict[tuple[str, str], Any] = field(default_factory=dict)
    _groups: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    """Keys seen per ``(stage, lookup group)`` — the invalidation ledger."""

    def get_if_present(
        self,
        stage: str,
        key: str,
        *,
        group: str | None = None,
    ) -> Artifact | None:
        """Look up ``(stage, key)``; ``None`` on miss (stats updated).

        One memory probe, at most one disk read: a warm lookup costs
        exactly one load no matter who asks.

        ``group`` identifies the *design* behind the lookup (the pipeline
        passes the source content key) so invalidation accounting can tell
        "same design, changed knob" (an invalidation) from "new design on
        a warm store" (a cold build).  Without a group the old
        conservative heuristic applies: any other key under the stage
        counts as an invalidation.
        """
        st = self.stats.for_stage(stage)
        mem_key = (stage, key)
        if mem_key in self._memory:
            st.hits += 1
            self._record_group(stage, key, group)
            return Artifact(stage, key, self._memory[mem_key], hit=True)
        value = self._load_from_disk(stage, key)
        if value is not None:
            st.hits += 1
            st.disk_hits += 1
            if self.keep_in_memory:
                self._memory[mem_key] = value
            self._record_group(stage, key, group)
            return Artifact(stage, key, value, hit=True)
        st.misses += 1
        if self._is_invalidation(stage, key, group):
            st.invalidations += 1
        self._record_group(stage, key, group)
        return None

    def put(
        self,
        stage: str,
        key: str,
        value: Any,
        *,
        group: str | None = None,
        ref: StoreRef | None = None,
    ) -> Artifact:
        """Store ``value`` under ``(stage, key)`` (memory and disk).

        When ``ref`` names another entry already holding the identical
        value (a pass-through stage), the disk layer persists the tiny
        :class:`StoreRef` instead of pickling the value a second time;
        in-memory the value is shared by reference either way.
        """
        if self.keep_in_memory:
            self._memory[(stage, key)] = value
        if self.cache_dir is not None:
            self._store_to_disk(stage, key, value if ref is None else ref)
        self.stats.for_stage(stage).stores += 1
        self._record_group(stage, key, group)
        return Artifact(stage, key, value, hit=False)

    def contains(self, stage: str, key: str) -> bool:
        """Whether ``(stage, key)`` is available (memory or disk), without
        loading it and without touching the hit/miss stats.

        Prefer :meth:`get_if_present` when the value will be consumed on a
        hit — ``contains()`` followed by a lookup reads warm disk
        artifacts twice.  This stays for pure existence checks (admin
        tooling, tests).
        """
        if (stage, key) in self._memory:
            return True
        if self.cache_dir is None:
            return False
        return os.path.exists(self._path(stage, key))

    def clear(self) -> None:
        """Drop in-memory entries (persisted files are left untouched)."""
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)

    def count(self, stage: str) -> int:
        """In-memory entries held for one stage."""
        return sum(1 for s, _ in self._memory if s == stage)

    # -- invalidation accounting -----------------------------------------------

    def _record_group(self, stage: str, key: str, group: str | None) -> None:
        if group is not None:
            self._groups.setdefault((stage, group), set()).add(key)

    def _is_invalidation(
        self, stage: str, key: str, group: str | None
    ) -> bool:
        if group is not None:
            seen = self._groups.get((stage, group))
            return bool(seen) and any(k != key for k in seen)
        return self._stage_has_other_entries(stage, key)

    def _stage_has_other_entries(self, stage: str, key: str) -> bool:
        if any(s == stage and k != key for s, k in self._memory):
            return True
        if self.cache_dir is None:
            return False
        try:
            names = os.listdir(os.path.join(self.cache_dir, stage))
        except OSError:
            return False
        return any(
            n.endswith(".pkl") and n != f"{key}.pkl" for n in names
        )

    # -- disk layer ------------------------------------------------------------

    def _path(self, stage: str, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, stage, f"{key}.pkl")

    def _read_entry(self, stage: str, key: str) -> Any | None:
        """Read and integrity-check one persisted entry.

        Returns the decoded value (possibly a :class:`StoreRef`), or
        ``None`` when the file is absent — or present but corrupt, in
        which case it is quarantined and counted, never raised.
        """
        path = self._path(stage, key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        trailer_ok = None
        if (
            len(data) >= _TRAILER.size
            and data[-_TRAILER.size : -_TRAILER.size + 4] == _TRAILER_MAGIC
        ):
            _magic, length, crc = _TRAILER.unpack(data[-_TRAILER.size :])
            payload = data[: -_TRAILER.size]
            trailer_ok = (
                len(payload) == length and zlib.crc32(payload) == crc
            )
            data = payload
        if trailer_ok is not False:
            try:
                return pickle.loads(data)
            except Exception:
                pass  # unparseable payload: quarantine below
        self._quarantine(stage, key, path)
        return None

    def _quarantine(self, stage: str, key: str, path: str) -> None:
        """Move a corrupt entry aside (best-effort) and count it.

        The bad bytes are preserved under ``<cache_dir>/quarantine/`` for
        forensics; the live slot is freed either way, so the rebuild's
        ``put`` lands on a clean path.
        """
        self.stats.for_stage(stage).corrupt += 1
        assert self.cache_dir is not None
        qdir = os.path.join(self.cache_dir, "quarantine")
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, f"{stage}__{key}.pkl"))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _load_from_disk(self, stage: str, key: str) -> Any | None:
        if self.cache_dir is None:
            return None
        value = self._read_entry(stage, key)
        # resolve alias chains (pass-through stages persist a StoreRef
        # instead of duplicating the upstream pickle); bounded hops keep a
        # corrupt self-referencing entry from looping
        hops = 0
        while isinstance(value, StoreRef) and hops < 8:
            hops += 1
            target = self._memory.get((value.stage, value.key))
            if target is not None:
                return target
            value = self._read_entry(value.stage, value.key)
        return None if isinstance(value, StoreRef) else value

    def _store_to_disk(self, stage: str, key: str, value: Any) -> None:
        assert self.cache_dir is not None
        # best-effort: persistence is an optimization, so any failure
        # (disk full, unpicklable member, ...) degrades to memory-only
        stage_dir = os.path.join(self.cache_dir, stage)
        try:
            os.makedirs(stage_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=stage_dir, suffix=".tmp")
        except OSError:
            return
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
                fh.write(
                    _TRAILER.pack(
                        _TRAILER_MAGIC, len(payload), zlib.crc32(payload)
                    )
                )
                if self.fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            chaos.on_store_write(tmp, self._path(stage, key))
            os.replace(tmp, self._path(stage, key))
            if self.fsync:
                self._fsync_dir(stage_dir)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    @staticmethod
    def _fsync_dir(path: str) -> None:
        """Flush a directory entry (the rename itself) to stable storage."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def sweep_stale_tmp(self) -> int:
        """Remove ``*.tmp`` leftovers of crashed writers; returns the count.

        A reader never touches ``.tmp`` files (lookups address
        ``<key>.pkl`` only), so leftovers are harmless to correctness —
        this reclaims the disk.  Only safe to call when no other process
        is concurrently writing this directory (e.g. on a ``--resume``
        after a crash).
        """
        if self.cache_dir is None:
            return 0
        removed = 0
        try:
            stages = os.listdir(self.cache_dir)
        except OSError:
            return 0
        for name in stages:
            stage_dir = os.path.join(self.cache_dir, name)
            try:
                entries = os.listdir(stage_dir)
            except OSError:
                continue
            for entry in entries:
                if entry.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(stage_dir, entry))
                        removed += 1
                    except OSError:
                        pass
        return removed
