"""Crash-consistent campaign checkpoint journal.

A campaign killed mid-run (parent OOM-kill, CI timeout, ^C) loses only
the scenarios whose outcomes had not yet been **journaled**: each
finished scenario appends one self-checking line to an append-only
journal under ``<cache_dir>/journal/<campaign_id>.jsonl``, and
``--resume <campaign_id>`` replays those lines instead of recomputing
the scenarios.  Because :meth:`~repro.campaign.results.ScenarioResult.
outcome` is deterministic, a resumed campaign's outcomes JSON is
byte-identical to an uninterrupted run's.

File format — one record per line, human-greppable::

    <crc32 hex of the JSON text> <JSON object>\\n

The first record is a header carrying a format version, the campaign id,
the scenario count and a :func:`campaign_fingerprint` of the scenario
list + outcome-relevant config; a resume against a journal whose
fingerprint does not match the requested campaign is refused rather than
silently mixing incompatible outcomes.  Scenario records carry the full
:meth:`~repro.campaign.results.ScenarioResult.as_record` dict, which
holds no host time since format v2 (a campaign's time lives in its run
record), so a resumed campaign's timings are its own; a v1 journal,
whose records carried per-scenario timings, is refused.

Crash consistency: every line is written with a single buffered write
followed by a flush (and an ``fsync`` when enabled), so the only
possible damage from a kill is a torn **final** line — detected by the
missing newline or a CRC mismatch and dropped on load; the scenario it
described is simply recomputed.  A CRC mismatch *before* the last line
means real corruption: loading stops at the first bad line and the
remainder of the campaign is recomputed (never trusted).

The fingerprint deliberately excludes execution knobs (workers and lane
width) — outcomes are byte-identical across those by construction, so a
campaign interrupted at ``--workers 4`` may be resumed at ``--workers 1``
and vice versa.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from typing import Any, Sequence

from repro.util import chaos

__all__ = [
    "JOURNAL_VERSION",
    "campaign_fingerprint",
    "journal_path",
    "CampaignJournal",
]

JOURNAL_VERSION = 2


def campaign_fingerprint(scenarios: Sequence, config) -> str:
    """Stable identity of (scenario list, outcome-relevant config).

    Hashes each scenario's defining fields plus the flow config,
    physical-stage flag and turn budget — everything that can change a
    deterministic outcome.  Worker counts and lane width are excluded on
    purpose (outcome-neutral knobs).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(config.flow).encode("utf-8"))
    h.update(
        f"|physical={config.with_physical}|turns={config.max_turns}".encode()
    )
    for sc in scenarios:
        h.update(
            "|".join(
                str(v)
                for v in (
                    sc.name,
                    sc.kind,
                    repr(sc.spec),
                    sc.design_seed,
                    sc.horizon,
                    sc.stimulus_seed,
                    sc.fault_signal,
                    sc.fault_value,
                    sc.fault_from_cycle,
                    sc.bug_seed,
                )
            ).encode("utf-8")
        )
        h.update(b"\x00")
    return h.hexdigest()


def journal_path(cache_dir: str, campaign_id: str) -> str:
    safe = "".join(
        c if c.isalnum() or c in "-_." else "_" for c in campaign_id
    )
    return os.path.join(cache_dir, "journal", f"{safe}.jsonl")


def _encode(record: dict) -> bytes:
    text = json.dumps(record, sort_keys=True, default=str)
    crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {text}\n".encode("utf-8")


def _decode(line: bytes) -> "dict | None":
    """One journal line back to its record; None if torn/corrupt."""
    if not line.endswith(b"\n"):
        return None
    try:
        crc_hex, text = line.rstrip(b"\n").split(b" ", 1)
        if int(crc_hex, 16) != zlib.crc32(text) & 0xFFFFFFFF:
            return None
        return json.loads(text.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None


class CampaignJournal:
    """Append-side handle on one campaign's journal file.

    Create with :meth:`start` (fresh campaign: truncates, writes the
    header) or :meth:`resume` (existing campaign: validates the header,
    returns the finished records, positions for further appends).
    """

    def __init__(self, path: str, *, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self.n_appended = 0
        self._fh = None

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def start(
        cls,
        path: str,
        *,
        campaign_id: str,
        fingerprint: str,
        n_scenarios: int,
        fsync: bool = False,
    ) -> "CampaignJournal":
        os.makedirs(os.path.dirname(path), exist_ok=True)
        j = cls(path, fsync=fsync)
        j._fh = open(path, "wb")
        j._append(
            {
                "t": "header",
                "v": JOURNAL_VERSION,
                "campaign": campaign_id,
                "fingerprint": fingerprint,
                "n": n_scenarios,
            }
        )
        return j

    @classmethod
    def resume(
        cls,
        path: str,
        *,
        fingerprint: str,
        fsync: bool = False,
    ) -> "tuple[CampaignJournal, dict[int, dict]]":
        """Reopen ``path`` for appends; return the finished records.

        Raises :class:`FileNotFoundError` when no such campaign was ever
        journaled and :class:`ValueError` when the journal belongs to a
        different scenario list / config (fingerprint mismatch) or is
        too damaged to trust (bad header).
        """
        header, records = cls.load(path)
        if header is None:
            raise ValueError(f"journal {path!r} has no readable header")
        if header.get("v") != JOURNAL_VERSION:
            raise ValueError(
                f"journal {path!r} is format v{header.get('v')}, "
                f"expected v{JOURNAL_VERSION}"
            )
        if header.get("fingerprint") != fingerprint:
            raise ValueError(
                "refusing to resume: the journal was written by a campaign "
                "with different scenarios or flow config "
                f"(journal fingerprint {header.get('fingerprint')}, "
                f"this campaign {fingerprint})"
            )
        j = cls(path, fsync=fsync)
        j._fh = open(path, "ab")
        return j, records

    @staticmethod
    def load(path: str) -> "tuple[dict | None, dict[int, dict]]":
        """Read ``(header, {scenario idx: result record})`` from ``path``.

        Stops at the first undecodable line: a torn final line (the
        expected kill artifact) is silently dropped; anything after a
        mid-file corruption is not trusted either way.  Missing file
        raises :class:`FileNotFoundError`.
        """
        header: "dict | None" = None
        records: dict[int, dict] = {}
        with open(path, "rb") as fh:
            for i, line in enumerate(fh):
                rec = _decode(line)
                if rec is None:
                    break
                if i == 0:
                    if rec.get("t") != "header":
                        return None, {}
                    header = rec
                elif rec.get("t") == "scenario":
                    records[int(rec["idx"])] = rec["result"]
        return header, records

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- appends ---------------------------------------------------------------

    def append_scenario(self, idx: int, record: dict) -> None:
        """Journal one finished scenario (its ``as_record()`` dict)."""
        self._append({"t": "scenario", "idx": idx, "result": record})

    def _append(self, record: dict) -> None:
        self._fh.write(_encode(record))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.n_appended += 1
        chaos.on_journal_append(self.n_appended)
