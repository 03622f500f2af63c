"""Satellites: ledger schema versioning and the injectable retry sleep.

* Every campaign-start and cell-start record carries the ledger schema
  version, so a reader (and the store's digest preimage) can tell the
  spec dialects apart: v1 had no ``kernel`` field, v2 always carried one,
  v3 drops it again.
* ``CampaignCell.from_spec`` decodes all three to the same cell, and a v2
  ledger resumes under v3 code without re-running its finished cells.
* ``CampaignLedger``'s ENOSPC/EIO backoff schedule is unit-tested through
  the injected ``sleep`` hook — no wall-clock delays.
"""

import errno
import hashlib
import json
import os
import warnings

import pytest

from repro.harness.campaign import (
    LEDGER_RETRIES,
    LEDGER_RETRY_BASE,
    LEDGER_SCHEMA_VERSION,
    CampaignCell,
    CampaignLedger,
    CampaignPolicy,
    LedgerWriteError,
    run_campaign,
)

CELLS = [CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)]


# ----------------------------------------------------------------------
# Schema stamping
# ----------------------------------------------------------------------


def test_ledger_records_carry_schema_version(tmp_path):
    ledger = str(tmp_path / "ledger.jsonl")
    run_campaign(CELLS, CampaignPolicy(), ledger_path=ledger)
    records = CampaignLedger.read(ledger)
    start = next(r for r in records if r["event"] == "campaign-start")
    assert start["schema"] == LEDGER_SCHEMA_VERSION
    cell_starts = [r for r in records if r["event"] == "cell-start"]
    assert cell_starts
    assert all(r["schema"] == LEDGER_SCHEMA_VERSION for r in cell_starts)
    assert not any("kernel" in r["spec"] for r in cell_starts)


def test_from_spec_decodes_v1_and_v2_specs_to_one_cell():
    v1 = CELLS[0].spec()  # no kernel field, like v3
    v2 = dict(v1, kernel="reference")
    cells = [CampaignCell.from_spec(json.loads(json.dumps(s))) for s in (v1, v2)]
    assert [c.key() for c in cells] == [CELLS[0].key()] * 2
    assert [c.kernel for c in cells] == ["event", "event"]


def test_from_spec_with_kernel_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cell = CampaignCell.from_spec(dict(CELLS[0].spec(), kernel="reference"))
    assert cell.kernel == "event"


def test_v2_ledger_resumes_without_rerunning_finished_cells(tmp_path):
    """A ledger written before the kernel left the spec (schema v2: every
    spec names its kernel, so every key hashes it) resumes under v3 code:
    its terminal cells are skipped, not simulated again."""
    cells = [
        CampaignCell(benchmark="wc", design_point=p, trip_count=48)
        for p in ("HEAVYWT", "EXISTING")
    ]
    done = cells[0]
    v2_spec = dict(done.spec(), kernel="reference")
    v2_digest = hashlib.sha256(
        json.dumps(v2_spec, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:8]
    v2_key = f"wc/HEAVYWT#{v2_digest}"
    assert v2_key != done.key()
    ledger = str(tmp_path / "v2.jsonl")
    with open(ledger, "w") as fh:
        for rec in (
            {"event": "campaign-start", "schema": 2, "resume": False, "n_cells": 2},
            {"event": "cell-start", "cell": v2_key, "attempt": 1, "schema": 2,
             "spec": v2_spec},
            {"event": "cell-end", "cell": v2_key, "attempt": 1, "terminal": True,
             "status": "done", "cycles": 1234, "fingerprint": "feedface",
             "kernel": "reference"},
        ):
            fh.write(json.dumps(rec) + "\n")

    report = run_campaign(cells, CampaignPolicy(), ledger_path=ledger, resume=True)
    assert list(report.skipped) == [done.key()]
    assert report.skipped[done.key()].fingerprint == "feedface"
    assert report.outcomes[cells[1].key()].ok
    started = [
        r["cell"] for r in CampaignLedger.read(ledger) if r["event"] == "cell-start"
    ]
    assert started == [v2_key, cells[1].key()]  # the v2 record, then the one miss


# ----------------------------------------------------------------------
# Injectable retry sleep
# ----------------------------------------------------------------------


class FlakyWrites:
    """Monkeypatch target: fail the first N *record* writes with ENOSPC.

    The retry loop's ``b"\\n"`` fragment terminators pass through — they
    model the disk accepting a byte between full-record failures, and
    letting them fail too would double-count the failure budget.
    """

    def __init__(self, failures, real_write):
        self.remaining = failures
        self.real_write = real_write
        self.attempts = 0

    def __call__(self, fd, data):
        if data == b"\n":
            return self.real_write(fd, data)
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.real_write(fd, data)


def test_append_retries_with_recorded_backoff_schedule(tmp_path, monkeypatch):
    path = str(tmp_path / "ledger.jsonl")
    sleeps = []
    ledger = CampaignLedger(path, sleep=sleeps.append)
    ledger.open()
    flaky = FlakyWrites(failures=2, real_write=os.write)
    monkeypatch.setattr(os, "write", flaky)
    ledger.append({"event": "probe", "n": 1})
    monkeypatch.undo()
    ledger.close()

    # Two failed attempts -> two exponential backoff sleeps, no real delay.
    assert sleeps == [LEDGER_RETRY_BASE, LEDGER_RETRY_BASE * 2]
    # The record eventually landed intact and replay skips nothing real.
    records = CampaignLedger.read(path)
    assert {"event": "probe", "n": 1} in records


def test_append_exhausts_retries_into_ledger_write_error(tmp_path, monkeypatch):
    path = str(tmp_path / "ledger.jsonl")
    sleeps = []
    ledger = CampaignLedger(path, sleep=sleeps.append)
    ledger.open()
    flaky = FlakyWrites(failures=10**6, real_write=os.write)
    monkeypatch.setattr(os, "write", flaky)
    with pytest.raises(LedgerWriteError, match="failed after"):
        ledger.append({"event": "probe"})
    monkeypatch.undo()
    ledger.close()
    assert sleeps == [LEDGER_RETRY_BASE * (2**i) for i in range(LEDGER_RETRIES)]


def test_default_sleep_is_wall_clock(tmp_path):
    import time

    ledger = CampaignLedger(str(tmp_path / "l.jsonl"))
    assert ledger._sleep is time.sleep
