"""``repro.store.io`` — the one durable-write helper every subsystem shares.

Before this module the repository carried three hand-rolled copies of the
tmp + fsync + rename discipline (the result store, the work queue, and the
checkpoint writer), two of which skipped the *parent directory* fsync —
the step that makes the rename itself durable.  A power loss after
``os.replace`` but before the directory's metadata reaches the platter can
silently undo the rename, which is fatal exactly when the caller has
already acknowledged the write (a published store entry, a diagnosed
failure record).  Everything durable now funnels through
:func:`write_atomic`.

The module doubles as the **chaos seam**: every function takes an optional
``fs`` argument — an object with the small OS-facade surface of
:class:`RealFS` — through which all filesystem side effects flow.  The
default, :data:`REAL_FS`, is a plain passthrough to :mod:`os`, so the
absent-by-default cost is one attribute lookup per call (the same contract
``trace=None`` and ``checkpoint=None`` honour).  :mod:`repro.chaos`
substitutes a :class:`~repro.chaos.fs.ChaosFS` here to inject torn writes,
dropped renames, lost fsyncs, ENOSPC/EIO bursts, short reads, clock skew,
and deterministic process-kill at enumerated crash points.

It also holds the one reader of the append-only JSONL files (the campaign
ledger and the obs event log), :func:`parse_jsonl`.

Nothing in this module imports anything above the standard library, so it
is importable from any layer (store, harness, sim) without cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "REAL_FS",
    "RealFS",
    "TMP_MARKER",
    "fsync_dir",
    "parse_jsonl",
    "read_bytes",
    "resolve_fs",
    "write_atomic",
]

#: Substring marking writer-private temporary files.  Kept identical to the
#: store's historical marker so ``ResultStore.gc`` keeps finding orphans.
TMP_MARKER = ".tmp."


class RealFS:
    """The real OS: every method is a direct passthrough.

    This is the *entire* surface the durable paths are allowed to touch for
    side effects — a deliberate bottleneck.  A chaos facade implements the
    same methods; production code never knows which one it holds.

    ``clock`` is wall-clock time (lease TTLs and staleness judgements flow
    through it, so a chaos facade can skew it).

    Methods resolve ``os.*`` at call time, not import time, so tests that
    monkeypatch :mod:`os` functions (dead-disk simulations) keep working
    against facade-threaded code.
    """

    @staticmethod
    def open(path: str, flags: int, mode: int = 0o777) -> int:
        return os.open(path, flags, mode)

    @staticmethod
    def write(fd: int, data: bytes) -> int:
        return os.write(fd, data)

    @staticmethod
    def fsync(fd: int) -> None:
        os.fsync(fd)

    @staticmethod
    def close(fd: int) -> None:
        os.close(fd)

    @staticmethod
    def replace(src: str, dst: str) -> None:
        os.replace(src, dst)

    @staticmethod
    def unlink(path: str) -> None:
        os.unlink(path)

    @staticmethod
    def clock() -> float:
        return time.time()

    @staticmethod
    def makedirs(path: str, exist_ok: bool = True) -> None:
        os.makedirs(path, exist_ok=exist_ok)

    @staticmethod
    def exists(path: str) -> bool:
        return os.path.exists(path)

    @staticmethod
    def read_bytes(path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    @staticmethod
    def fsync_dir(dirname: str) -> None:
        """Best-effort directory fsync: makes renames/creates durable.

        Filesystems that cannot open directories (or refuse to fsync them)
        are tolerated — the write itself already succeeded, and on such
        systems there is nothing more the process can do.
        """
        try:
            dfd = os.open(dirname, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dfd)
        except OSError:
            pass
        finally:
            os.close(dfd)


#: The module-wide default facade — plain :mod:`os`, zero added behaviour.
REAL_FS = RealFS()


def resolve_fs(fs: Optional[object]) -> object:
    """``fs`` itself, or the real filesystem when ``None``."""
    return REAL_FS if fs is None else fs


def write_atomic(
    path: str,
    data: bytes,
    fs: Optional[object] = None,
    dir_sync: bool = True,
    mode: int = 0o644,
) -> None:
    """Durably install ``data`` at ``path``: tmp + fsync + rename (+ dir fsync).

    The temporary name is private to this writer (pid + thread id), so any
    number of processes and threads may race on one target — every outcome
    is some writer's complete bytes, never an interleaving.  ``dir_sync``
    additionally fsyncs the parent directory so the *rename* survives a
    power loss; leave it on for anything the caller acknowledges to others
    (store entries, queue state transitions) and turn it off only for
    writes whose loss is recovered by protocol (lease heartbeat renewals,
    where the token fence already covers a rolled-back rename).
    """
    fs = resolve_fs(fs)
    tmp = f"{path}{TMP_MARKER}{os.getpid()}.{threading.get_ident()}"
    fd = fs.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode)
    try:
        fs.write(fd, data)
        fs.fsync(fd)
    finally:
        fs.close(fd)
    fs.replace(tmp, path)
    if dir_sync:
        fs.fsync_dir(os.path.dirname(os.path.abspath(path)))


def fsync_dir(dirname: str, fs: Optional[object] = None) -> None:
    """Facade-aware directory fsync (see :meth:`RealFS.fsync_dir`)."""
    resolve_fs(fs).fsync_dir(dirname)


def read_bytes(path: str, fs: Optional[object] = None) -> bytes:
    """Facade-aware whole-file read (the short-read injection point)."""
    return resolve_fs(fs).read_bytes(path)


def parse_jsonl(raw: bytes) -> List[Dict[str, object]]:
    """The intact records of an append-only JSONL file, in file order.

    A record exists only once its newline has landed: a final line without
    one is a torn append and is dropped, even if the truncation happens to
    leave parseable JSON.  Blank lines, undecodable fragments (an append
    that hit a partial write and was retried on its own line) and values
    that are not JSON objects are skipped.
    """
    lines = raw.split(b"\n")
    lines.pop()  # empty after the final newline, else the torn tail
    records: List[Dict[str, object]] = []
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if isinstance(record, dict):
            records.append(record)
    return records
