"""ArtifactStore corruption hardening: every damaged-entry shape must
degrade to a quarantined miss + rebuild — never an exception — with the
``corrupt`` statistic accounting for it."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.pipeline.store import ArtifactStore


def _disk_store(tmp_path) -> ArtifactStore:
    return ArtifactStore(cache_dir=str(tmp_path / "cache"))


def _entry_path(store: ArtifactStore, stage: str, key: str) -> str:
    path = store._path(stage, key)
    assert os.path.exists(path)
    return path


def _fresh_reader(store: ArtifactStore) -> ArtifactStore:
    """A second store on the same directory, cold in-memory layer —
    lookups must go to disk (what a restarted campaign sees)."""
    return ArtifactStore(cache_dir=store.cache_dir)


class TestCorruptEntries:
    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda p: _truncate(p, 0), id="zero-byte"),
            pytest.param(lambda p: _truncate_half(p), id="truncated"),
            pytest.param(
                lambda p: _overwrite(p, b"\x80\x05not a pickle at all"),
                id="garbage",
            ),
            pytest.param(lambda p: _flip_payload_byte(p), id="bit-flip"),
        ],
    )
    def test_damage_degrades_to_miss_and_rebuild(self, tmp_path, damage):
        store = _disk_store(tmp_path)
        store.put("place", "k1", {"value": 42})
        damage(_entry_path(store, "place", "k1"))

        reader = _fresh_reader(store)
        assert reader.get_if_present("place", "k1") is None
        st = reader.stats.for_stage("place").as_dict()
        assert st["corrupt"] == 1
        assert st["misses"] == 1
        # the consumer rebuilds exactly as after an invalidation-style miss
        reader.put("place", "k1", {"value": 42})
        again = _fresh_reader(store).get_if_present("place", "k1")
        assert again is not None and again.value == {"value": 42}

    def test_corrupt_entry_is_quarantined_not_deleted(self, tmp_path):
        store = _disk_store(tmp_path)
        store.put("route", "k9", [1, 2, 3])
        path = _entry_path(store, "route", "k9")
        _truncate_half(path)

        reader = _fresh_reader(store)
        assert reader.get_if_present("route", "k9") is None
        assert not os.path.exists(path)
        qdir = os.path.join(store.cache_dir, "quarantine")
        assert os.listdir(qdir) == ["route__k9.pkl"]

    def test_corrupt_counts_aggregate(self, tmp_path):
        store = _disk_store(tmp_path)
        for key in ("a", "b"):
            store.put("pack", key, key * 3)
            _truncate(_entry_path(store, "pack", key), 1)
        reader = _fresh_reader(store)
        assert reader.get_if_present("pack", "a") is None
        assert reader.get_if_present("pack", "b") is None
        assert reader.stats.corrupt == 2
        assert reader.stats.as_dict()["corrupt"] == 2


class TestCompatibilityAndDurability:
    def test_legacy_raw_pickle_still_loads(self, tmp_path):
        # entries written before the checksum trailer existed are plain
        # pickles; they must keep loading (a trailer is not required)
        store = _disk_store(tmp_path)
        store.put("validate", "old", "seed-era")  # ensure stage dir exists
        path = store._path("validate", "legacy")
        with open(path, "wb") as fh:
            fh.write(pickle.dumps({"legacy": True}))
        got = _fresh_reader(store).get_if_present("validate", "legacy")
        assert got is not None and got.value == {"legacy": True}

    def test_fsync_round_trip(self, tmp_path):
        store = ArtifactStore(cache_dir=str(tmp_path / "c"), fsync=True)
        store.put("place", "k", ("durable",))
        got = _fresh_reader(store).get_if_present("place", "k")
        assert got is not None and got.value == ("durable",)

    def test_memory_only_store_never_corrupts(self):
        store = ArtifactStore()
        store.put("place", "k", 1)
        assert store.get_if_present("place", "k").value == 1
        assert store.stats.corrupt == 0


class TestStaleTmpSweep:
    def test_sweep_removes_only_tmp_leftovers(self, tmp_path):
        store = _disk_store(tmp_path)
        store.put("place", "good", 7)
        stage_dir = os.path.dirname(_entry_path(store, "place", "good"))
        for name in ("dead1.tmp", "dead2.tmp"):
            with open(os.path.join(stage_dir, name), "wb") as fh:
                fh.write(b"partial write from a killed process")
        assert store.sweep_stale_tmp() == 2
        assert sorted(os.listdir(stage_dir)) == [
            os.path.basename(_entry_path(store, "place", "good"))
        ]
        # entries survive, repeat sweep is a no-op
        assert _fresh_reader(store).get_if_present("place", "good").value == 7
        assert store.sweep_stale_tmp() == 0

    def test_stale_tmp_never_shadows_a_lookup(self, tmp_path):
        # readers address <key>.pkl only: a .tmp for the same key is
        # invisible, a miss stays a plain miss (no exception, no corrupt)
        store = _disk_store(tmp_path)
        store.put("place", "seen", 1)  # create the stage dir
        stage_dir = os.path.dirname(_entry_path(store, "place", "seen"))
        with open(os.path.join(stage_dir, "ghost.pkl.tmp"), "wb") as fh:
            fh.write(b"\x00\x01")
        reader = _fresh_reader(store)
        assert reader.get_if_present("place", "ghost") is None
        st = reader.stats.for_stage("place").as_dict()
        assert st["corrupt"] == 0 and st["misses"] == 1

    def test_sweep_on_memory_store_is_noop(self):
        assert ArtifactStore().sweep_stale_tmp() == 0


# -- damage helpers ------------------------------------------------------------


def _truncate(path: str, size: int) -> None:
    with open(path, "r+b") as fh:
        fh.truncate(size)


def _truncate_half(path: str) -> None:
    _truncate(path, max(1, os.path.getsize(path) // 2))


def _overwrite(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _flip_payload_byte(path: str) -> None:
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        data[len(data) // 3] ^= 0xFF
        fh.seek(0)
        fh.write(data)
