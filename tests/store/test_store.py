"""The content-addressed result store: digests, durability, dedupe.

Acceptance properties:

* digests are stable across processes and sensitive to every spec field
  *and* the spec schema version;
* put/get round-trips the full RunStats — the rebuilt stats reproduce the
  recorded fingerprint bit for bit (float-typed counters included);
* a second publication of the same digest is a dedupe, a conflicting
  fingerprint is a loud determinism error;
* two processes racing to publish one digest converge on one valid entry;
* corrupt entries (truncation, bit flips, bad magic) are quarantined on
  read — never returned, never deleted — and verify/gc/stats account for
  every file.
"""

import json
import multiprocessing
import os

import pytest

from repro.harness.campaign import CampaignCell, execute_cell
from repro.harness.runner import RunResult
from repro.store.store import (
    SPEC_SCHEMA_VERSION,
    ResultStore,
    StoreError,
    cell_digest,
    result_from_entry,
    stats_from_payload,
    stats_to_payload,
)

CELL = CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)


@pytest.fixture(scope="module")
def run_result():
    out = execute_cell(CELL)
    assert isinstance(out, RunResult)
    return out


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def test_digest_is_stable_and_full_width():
    d1 = cell_digest(CELL)
    d2 = cell_digest(
        CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48)
    )
    assert d1 == d2
    assert len(d1) == 64  # full sha256 hex, not the 8-digit key() suffix
    assert all(c in "0123456789abcdef" for c in d1)


@pytest.mark.parametrize(
    "other",
    [
        CampaignCell(benchmark="fir", design_point="HEAVYWT", trip_count=48),
        CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=48),
        CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=96),
        CampaignCell(benchmark="wc", design_point="HEAVYWT", trip_count=48, stages=2),
        CampaignCell(
            benchmark="wc",
            design_point="HEAVYWT",
            trip_count=48,
            overrides={"bus_latency": 40},
        ),
        CampaignCell(benchmark="wc", kind="single", trip_count=48),
    ],
)
def test_digest_sensitive_to_every_spec_field(other):
    assert cell_digest(other) != cell_digest(CELL)


def test_reference_result_is_a_hit_under_event(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    oracle = CampaignCell(
        benchmark="wc", design_point="HEAVYWT", trip_count=48, kernel="reference"
    )
    published = execute_cell(oracle)
    store.put(oracle, published)
    assert CELL.kernel == "event"
    entry = store.get(cell_digest(CELL))
    assert entry is not None
    assert entry.provenance["kernel"] == "reference"
    assert result_from_entry(entry).fingerprint() == published.fingerprint()


def test_digest_hashes_the_schema_version(monkeypatch):
    before = cell_digest(CELL)
    monkeypatch.setattr("repro.store.store.SPEC_SCHEMA_VERSION", SPEC_SCHEMA_VERSION + 1)
    assert cell_digest(CELL) != before


# ----------------------------------------------------------------------
# Stats payload round-trip
# ----------------------------------------------------------------------


def test_stats_payload_roundtrip_preserves_fingerprint(run_result):
    payload = json.loads(json.dumps(stats_to_payload(run_result.stats)))
    rebuilt = stats_from_payload(payload)
    assert rebuilt.fingerprint() == run_result.fingerprint()
    assert rebuilt.cycles == run_result.stats.cycles


def test_stats_payload_keeps_float_typed_counters(run_result):
    """The simulator leaves some counters as floats; ``1242.0`` and
    ``1242`` are different canonical JSON texts, so coercion would change
    the fingerprint of a bit-identical result."""
    stats = run_result.stats
    stats_f = stats_from_payload(json.loads(json.dumps(stats_to_payload(stats))))
    for orig, rebuilt in zip(stats.threads, stats_f.threads):
        for key, value in orig.canonical().items():
            assert type(rebuilt.canonical()[key]) is type(value)


# ----------------------------------------------------------------------
# put / get / dedupe
# ----------------------------------------------------------------------


def test_put_get_roundtrip(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    entry, created = store.put(CELL, run_result, provenance={"campaign": "t"})
    assert created
    assert entry.digest == cell_digest(CELL)
    assert entry.fingerprint == run_result.fingerprint()

    got = store.get(entry.digest)
    assert got is not None
    assert got.canonical() == entry.canonical()
    assert store.hits == 1

    res = result_from_entry(got)
    assert res.ok
    assert res.cycles == run_result.cycles
    assert res.fingerprint() == run_result.fingerprint()
    assert res.extras["store_hit"] is True
    assert res.extras["store_digest"] == entry.digest
    assert res.machine is None and res.trace is None


def test_put_twice_is_dedupe_not_rewrite(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    _, created1 = store.put(CELL, run_result)
    entry2, created2 = store.put(CELL, run_result)
    assert created1 and not created2
    assert store.dedupes == 1
    assert store.writes == 1
    assert entry2.fingerprint == run_result.fingerprint()


def test_conflicting_fingerprint_is_a_determinism_error(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    store.put(CELL, run_result)
    impostor = RunResult(
        benchmark=run_result.benchmark,
        design_point=run_result.design_point,
        cycles=run_result.cycles + 1,
        stats=stats_from_payload(
            {
                "threads": [
                    {**t, "cycles": t["cycles"] + 1}
                    for t in stats_to_payload(run_result.stats)["threads"]
                ],
                "host_seconds": 0.0,
            }
        ),
        machine=None,
        trace=None,
    )
    with pytest.raises(StoreError, match="determinism"):
        store.put(CELL, impostor)


def test_get_miss_counts(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    assert store.get("0" * 64) is None
    assert store.misses == 1
    assert not store.contains("0" * 64)
    assert store.misses == 1  # contains() is not a counted miss


# ----------------------------------------------------------------------
# Concurrent writers (satellite: the publish race)
# ----------------------------------------------------------------------


def _racing_put(root, barrier, out_queue):
    """Child entry point: simulate the cell and publish into the store."""
    out = execute_cell(CELL)
    store = ResultStore(root)
    barrier.wait(timeout=60)  # line both writers up on the same instant
    entry, created = store.put(CELL, out)
    out_queue.put((entry.fingerprint, created))


def test_two_processes_racing_one_digest_converge(tmp_path, run_result):
    """Satellite: concurrent publication of the same digest must leave
    exactly one valid entry — atomic rename wins, loser dedupes or
    harmlessly reinstalls identical bytes."""
    root = str(tmp_path / "store")
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    out_queue = ctx.Queue()
    procs = [
        ctx.Process(target=_racing_put, args=(root, barrier, out_queue))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    results = [out_queue.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0

    fingerprints = {fp for fp, _ in results}
    assert fingerprints == {run_result.fingerprint()}

    store = ResultStore(root)
    entry = store.get(cell_digest(CELL))
    assert entry is not None
    assert entry.fingerprint == run_result.fingerprint()
    report = store.verify()
    assert report["entries"] == 1
    assert report["valid"] == 1
    assert report["corrupt"] == 0


# ----------------------------------------------------------------------
# Corruption quarantine (satellite: truncation round-trip)
# ----------------------------------------------------------------------


def test_truncated_entry_is_quarantined_and_missed(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    entry, _ = store.put(CELL, run_result)
    path = store.entry_path(entry.digest)
    data = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])  # torn write

    assert store.get(entry.digest) is None
    assert store.corrupt == 1
    assert not os.path.exists(path)  # moved aside, not deleted
    quarantined = [
        n for n in os.listdir(os.path.dirname(path)) if "quarantined" in n
    ]
    assert len(quarantined) == 1

    # Re-publication heals the digest; the evidence file stays.
    entry2, created = store.put(CELL, run_result)
    assert created
    assert store.get(entry2.digest) is not None


def test_bitflip_fails_crc_and_quarantines(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    entry, _ = store.put(CELL, run_result)
    path = store.entry_path(entry.digest)
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    assert store.get(entry.digest) is None
    assert store.corrupt == 1


def test_verify_catches_semantic_corruption(tmp_path, run_result):
    """A CRC-valid entry whose stats no longer reproduce the recorded
    fingerprint is still corruption — verify() quarantines it."""
    from repro.store.store import StoreEntry, _encode_entry

    store = ResultStore(str(tmp_path / "store"))
    entry, _ = store.put(CELL, run_result)
    doc = entry.canonical()
    doc["fingerprint"] = "0" * 16  # valid CRC, wrong semantics
    bad = StoreEntry.from_canonical(doc)
    store._write_atomic(store.entry_path(entry.digest), _encode_entry(bad))

    report = store.verify()
    assert report["entries"] == 1
    assert report["corrupt"] == 1
    assert store.get(entry.digest) is None  # quarantined by verify


def test_gc_sweeps_tmp_droppings_and_aged_quarantine(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    entry, _ = store.put(CELL, run_result)
    shard = os.path.dirname(store.entry_path(entry.digest))
    dropping = os.path.join(shard, "x.entry.tmp.99999")
    with open(dropping, "wb") as fh:
        fh.write(b"half-written")
    quarantined = os.path.join(shard, "y.entry.quarantined")
    with open(quarantined, "wb") as fh:
        fh.write(b"evidence")

    report = store.gc()
    assert dropping in report["removed_tmp"]
    assert os.path.exists(quarantined)  # evidence kept by default

    report = store.gc(quarantine_max_age=0.0)
    assert quarantined in report["removed_quarantined"]
    assert store.get(entry.digest) is not None  # real entry untouched


def test_stats_summary(tmp_path, run_result):
    store = ResultStore(str(tmp_path / "store"))
    store.put(CELL, run_result)
    store.get(cell_digest(CELL))
    store.get("0" * 64)
    s = store.stats()
    assert s["entries"] == 1
    assert s["bytes"] > 0
    assert s["hits"] == 1
    assert s["misses"] == 1
    assert s["writes"] == 1
