"""Structured JSON event log with correlation IDs.

One serve query (or campaign cell) gets one **correlation ID** (cid)
minted at the edge; every layer the request passes through — coalescing,
the executor pool, ``WorkQueue`` lease files, the worker's store
publish, store hit/miss — appends a JSON event tagged with that cid to
a shared-filesystem JSONL log.  ``repro obs tail --cid <id>`` then
reconstructs the request's full cross-process story by filtering and
time-ordering the log.

Write discipline mirrors the campaign ledger (the proven crash-safe
appender): each event is **one ``write`` of one full line** to an
``O_APPEND`` descriptor opened through the :mod:`repro.store.io`
facade, so concurrent writers (serve process, pool workers, fleet
workers on other hosts) interleave at line granularity and a crash can
only tear the final line.  The reader skips torn/garbage tails instead
of failing.  ``fsync`` per event is optional (``sync=True``) — the obs
log is diagnostic, not a ledger of record, so the default favors
latency.

Timestamps are host wall-clock (``time.time()`` via the fs facade's
``clock`` when available).  Obs events never feed fingerprints, so
this does not violate the determinism contract.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List, Optional

__all__ = [
    "EventLog",
    "new_cid",
    "read_events",
    "events_for_cid",
    "list_cids",
]

_CID_BYTES = 6


def new_cid() -> str:
    """Mint a correlation ID: 12 hex chars, unique across the fleet.

    Randomness comes from ``os.urandom`` — cids label host-side
    observability records only and never enter cell digests or
    fingerprints, so this does not perturb determinism.
    """
    return os.urandom(_CID_BYTES).hex()


def _resolve_fs(fs: Optional[object]) -> object:
    from repro.store import io as store_io

    return store_io.resolve_fs(fs)


class EventLog:
    """Append-only JSONL event sink shared by every fleet process.

    Thread-safe: a lock serializes the encode+write so one event is
    always one contiguous ``write``.  Cross-process safety comes from
    ``O_APPEND`` semantics, exactly like the campaign ledger.
    """

    def __init__(self, path: str, fs: Optional[object] = None, sync: bool = False):
        self.path = os.fspath(path)
        self.fs = _resolve_fs(fs)
        self.sync = bool(sync)
        self._fd: Optional[int] = None
        self._lock = threading.Lock()
        self._seq = 0
        self._pid = os.getpid()

    def _ensure_fd(self) -> int:
        if self._fd is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            if parent and not os.path.isdir(parent):
                self.fs.makedirs(parent, exist_ok=True)
            self._fd = self.fs.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self._fd

    def emit(self, event: str, cid: Optional[str] = None, **fields: object) -> Dict[str, object]:
        """Append one event; returns the record that was written.

        Failures are swallowed (the event is dropped): observability
        must never take down the serving path it observes.
        """
        with self._lock:
            pid = os.getpid()
            if pid != self._pid:
                # A forked worker inherited this log: take a fresh identity
                # (pid + seq restart) and descriptor so its records stay
                # correctly attributed and totally ordered.
                self._close_locked()
                self._pid = pid
                self._seq = 0
            record: Dict[str, object] = {
                "t": self._now(),
                "event": event,
                "pid": self._pid,
                "seq": self._next_seq(),
            }
            if cid is not None:
                record["cid"] = cid
            for key, value in fields.items():
                if value is not None:
                    record[key] = value
            line = json.dumps(
                record, sort_keys=True, separators=(",", ":")
            ).encode("utf-8") + b"\n"
            try:
                fd = self._ensure_fd()
                self.fs.write(fd, line)
                if self.sync:
                    self.fs.fsync(fd)
            except OSError:
                # Drop the event; reset the fd so a transient error
                # (e.g. ENOSPC burst under chaos) can heal on reopen.
                self._close_locked()
        return record

    def _now(self) -> float:
        clock = getattr(self.fs, "clock", None)
        if clock is not None:
            try:
                return float(clock())
            except Exception:
                pass
        return time.time()

    def _next_seq(self) -> int:
        # Monotonic per (pid, EventLog); with the pid it gives a total
        # order tiebreaker for events sharing a wall-clock timestamp.
        self._seq += 1
        return self._seq

    def _close_locked(self) -> None:
        if self._fd is not None:
            try:
                self.fs.close(self._fd)
            except OSError:
                pass
            self._fd = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_events(path: str, fs: Optional[object] = None) -> List[Dict[str, object]]:
    """Read every well-formed event from a JSONL obs log.

    Torn tails and garbage lines are skipped by the campaign ledger's
    parser (:func:`repro.store.io.parse_jsonl`): a crash mid-append must
    not make the log unreadable.  Events are returned in ``(t, pid, seq)``
    order so interleaved multi-process appends come back as one timeline.
    """
    from repro.store.io import parse_jsonl

    resolved = _resolve_fs(fs)
    try:
        raw = resolved.read_bytes(os.fspath(path))
    except (FileNotFoundError, OSError):
        return []
    events = [record for record in parse_jsonl(raw) if "event" in record]
    events.sort(key=lambda r: (r.get("t", 0.0), r.get("pid", 0), r.get("seq", 0)))
    return events


def events_for_cid(events: Iterable[Dict[str, object]], cid: str) -> List[Dict[str, object]]:
    """Filter one correlation chain out of a mixed event stream."""
    return [record for record in events if record.get("cid") == cid]


def list_cids(events: Iterable[Dict[str, object]]) -> List[str]:
    """Distinct cids in first-seen order (for ``repro obs tail`` with no --cid)."""
    seen: Dict[str, None] = {}
    for record in events:
        cid = record.get("cid")
        if isinstance(cid, str) and cid not in seen:
            seen[cid] = None
    return list(seen)
