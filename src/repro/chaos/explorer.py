"""``repro.chaos.explorer`` — walk every crash point of every fleet operation.

The explorer is the systematic half of the chaos harness.  For each
*operation* (store publish, worker commit, lease claim, lease reclaim,
ledger append, snapshot rotate) it first runs the operation once under a
fault-free :class:`~repro.chaos.fs.ChaosFS` to *enumerate* its durable
mutation sites — every ``open``/``write``/``fsync``/``close``/``replace``/
``unlink``/``fsync_dir`` the operation issues, in order.  Then, for every
site and every crash model, it re-runs the operation from a fresh world
with the process killed exactly there:

* ``kill`` — the call never applies (SIGKILL just before the syscall);
* ``torn`` — the call was a ``write`` and only a seeded prefix landed;
* ``power`` — as ``kill``, then :meth:`ChaosFS.apply_crash_loss` rewrites
  the tree to what the *platter* held: contents roll back to the last
  fsync, renames/creates whose parent directory was never fsynced are
  undone.  This is the model that turns a missing directory fsync from a
  theoretical nit into a red drill.

After each simulated crash the operation's ``check`` runs against the real
filesystem — the restarted process's view — and asserts the fleet-layer
invariants:

1. **No corrupted entry is served.**  Store lookups and snapshot recovery
   return valid data or nothing; torn bytes are quarantined, never loaded.
2. **No acknowledged result is lost.**  Anything the crashed process
   confirmed to a peer (a published entry, a retired queue item, a
   returned ledger append) survives the crash in every model.
3. **Stale leases are reclaimed exactly once.**  However the reclaim dies,
   at most one live lease per digest ever exists and a later worker can
   always make progress.
4. **Quarantine preserves evidence.**  Every path recovery quarantined
   still exists for forensics.
5. **Recovery converges.**  Re-driving the operation after restart lands
   the world in the never-crashed state — same store fingerprint, same
   queue emptiness, same snapshot generations.

``explore()`` takes custom operations, so the harness can also *prove its
own teeth*: hand it a deliberately broken write path (no rename, no dir
fsync) and it must come back red (``tests/chaos/test_explorer.py`` does).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.chaos.fs import ChaosFS, ChaosPlan, OpRecord, SimulatedCrash
from repro.harness.campaign import CampaignCell, CampaignLedger, execute_cell
from repro.harness.runner import RunResult
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    MachineSnapshot,
    RunnerSnapshot,
    recover_snapshot,
    write_snapshot,
)
from repro.store.dispatch import WorkQueue
from repro.store.store import ResultStore, cell_digest

__all__ = [
    "CRASH_MODES",
    "ChaosOperation",
    "ExplorationReport",
    "FleetHarness",
    "OperationReport",
    "TrialTiming",
    "Violation",
    "explore",
    "standard_operations",
]

#: The crash models every site is explored under.
CRASH_MODES = ("kill", "torn", "power")


# ----------------------------------------------------------------------
# Harness: one trial's world
# ----------------------------------------------------------------------


class FleetHarness:
    """One trial's private world: a root directory plus facade-aware handles.

    ``fs`` is swapped by the explorer — ``None`` (the real filesystem) for
    ``setup`` and ``check``, a :class:`ChaosFS` for ``run`` — so operation
    code just asks the harness for its store/queue/ledger and never knows
    which phase it is in.  ``notes`` is the ``run``-to-``check`` channel:
    an operation records there what it *acknowledged* before the crash, and
    the check holds it to that.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.fs: Optional[ChaosFS] = None
        self.notes: Dict[str, object] = {}

    def store(self) -> ResultStore:
        return ResultStore(os.path.join(self.root, "store"), fs=self.fs)

    def queue(self, **kwargs) -> WorkQueue:
        return WorkQueue(os.path.join(self.root, "queue"), fs=self.fs, **kwargs)

    def ledger_path(self) -> str:
        return os.path.join(self.root, "campaign.jsonl")

    def snapshot_path(self) -> str:
        return os.path.join(self.root, "cell.ckpt")


@dataclass
class ChaosOperation:
    """One crash-explorable fleet operation.

    ``setup`` builds the pre-crash world (real fs), ``run`` performs the
    operation under whatever facade the harness carries, and ``check``
    (real fs, post-restart) returns invariant violations — an empty list
    means the crash was survived correctly.
    """

    name: str
    setup: Callable[[FleetHarness], None]
    run: Callable[[FleetHarness], None]
    check: Callable[[FleetHarness], List[str]]


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass
class Violation:
    """One invariant broken by one crash trial."""

    op: str
    site: int
    site_op: str
    site_path: str
    mode: str
    message: str

    def render(self) -> str:
        return (
            f"[{self.op}] crash@{self.site} ({self.site_op} "
            f"{os.path.basename(self.site_path) or self.site_path}, "
            f"mode={self.mode}): {self.message}"
        )


@dataclass
class TrialTiming:
    """Wall-clock cost of one crash trial: ``seconds`` for setup + run +
    check, ``cleanup`` for removing the trial's world afterwards."""

    op: str
    site: int
    site_op: str
    site_path: str
    mode: str
    seconds: float
    cleanup: float = 0.0

    @property
    def total(self) -> float:
        return self.seconds + self.cleanup

    def render(self) -> str:
        where = (
            "golden pass"
            if self.site < 0
            else (
                f"crash@{self.site} ({self.site_op} "
                f"{os.path.basename(self.site_path) or self.site_path}, "
                f"mode={self.mode})"
            )
        )
        return (
            f"{self.total:8.3f}s ({self.cleanup:.3f}s cleanup)  "
            f"[{self.op}] {where}"
        )


@dataclass
class OperationReport:
    """Every trial outcome for one operation."""

    name: str
    sites: List[OpRecord] = field(default_factory=list)
    trials: int = 0
    crashes: int = 0
    violations: List[Violation] = field(default_factory=list)
    timings: List[TrialTiming] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def trial_seconds(self) -> float:
        return sum(t.total for t in self.timings)


@dataclass
class ExplorationReport:
    """The full drill result: per-operation reports plus a verdict."""

    operations: List[OperationReport] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(op.ok for op in self.operations)

    @property
    def violations(self) -> List[Violation]:
        return [v for op in self.operations for v in op.violations]

    def slowest(self, n: int = 5) -> List[TrialTiming]:
        """The ``n`` most expensive crash-point trials, slowest first."""
        timings = [t for op in self.operations for t in op.timings]
        return sorted(timings, key=lambda t: -t.total)[:n]

    def render(self) -> str:
        lines = []
        for op in self.operations:
            status = "ok" if op.ok else f"{len(op.violations)} VIOLATION(S)"
            lines.append(
                f"{op.name:16s} {len(op.sites):3d} sites, "
                f"{op.trials:3d} trials, {op.crashes:3d} crashes: "
                f"{status} ({op.trial_seconds:.1f}s)"
            )
            for v in op.violations:
                lines.append(f"  !! {v.render()}")
        slowest = self.slowest()
        if slowest:
            lines.append("slowest crash-point trials:")
            for timing in slowest:
                lines.append(f"  {timing.render()}")
        verdict = "DRILL PASSED" if self.ok else "DRILL FAILED"
        in_trials = sum(op.trial_seconds for op in self.operations)
        lines.append(
            f"{verdict} ({self.elapsed:.1f}s elapsed, {in_trials:.1f}s in trials)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------


def _run_trial(
    op: ChaosOperation,
    trial_root: str,
    plan: ChaosPlan,
) -> "tuple[FleetHarness, ChaosFS, bool]":
    """One world, one run under ``plan``; returns (harness, shim, crashed)."""
    os.makedirs(trial_root, exist_ok=True)
    harness = FleetHarness(trial_root)
    op.setup(harness)
    chaos = ChaosFS(plan)
    harness.fs = chaos
    crashed = False
    try:
        op.run(harness)
    except SimulatedCrash:
        crashed = True
    finally:
        chaos.close_leaked()
        harness.fs = None
    return harness, chaos, crashed


def explore(
    operations: Optional[Sequence[ChaosOperation]] = None,
    root: Optional[str] = None,
    modes: Sequence[str] = CRASH_MODES,
    progress: Optional[Callable[[str], None]] = None,
) -> ExplorationReport:
    """Walk every crash point of every operation; returns the full report.

    The golden pass (no faults) both enumerates each operation's mutation
    sites and verifies its invariants hold *without* a crash — an operation
    whose check fails even uncrashed is reported at site ``-1`` so a broken
    check can never masquerade as a passing drill.
    """
    operations = list(operations) if operations is not None else standard_operations()
    report = ExplorationReport()
    started = time.monotonic()
    tmp = None
    if root is None:
        tmp = tempfile.mkdtemp(prefix="repro-chaos-")
        root = tmp

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    try:
        for op in operations:
            op_report = OperationReport(name=op.name)
            report.operations.append(op_report)

            # Golden pass: enumerate sites, check the uncrashed invariants.
            golden_root = os.path.join(root, op.name, "golden")
            trial_started = time.monotonic()
            harness, probe, crashed = _run_trial(op, golden_root, ChaosPlan())
            op_report.sites = probe.mutation_sites()
            for message in op.check(harness):
                op_report.violations.append(
                    Violation(
                        op=op.name,
                        site=-1,
                        site_op="none",
                        site_path="",
                        mode="golden",
                        message=message,
                    )
                )
            op_report.timings.append(
                TrialTiming(
                    op=op.name,
                    site=-1,
                    site_op="none",
                    site_path="",
                    mode="golden",
                    seconds=time.monotonic() - trial_started,
                )
            )
            note(f"{op.name}: {len(op_report.sites)} mutation sites")

            for site in op_report.sites:
                for mode in modes:
                    if mode == "torn" and site.op != "write":
                        continue  # tearing only makes sense mid-write
                    trial_root = os.path.join(
                        root, op.name, f"site{site.index}-{mode}"
                    )
                    plan = ChaosPlan(
                        crash_at=site.index, crash_torn=(mode == "torn")
                    )
                    trial_started = time.monotonic()
                    harness, chaos, crashed = _run_trial(op, trial_root, plan)
                    if mode == "power":
                        chaos.apply_crash_loss()
                    op_report.trials += 1
                    op_report.crashes += int(crashed)
                    for message in op.check(harness):
                        op_report.violations.append(
                            Violation(
                                op=op.name,
                                site=site.index,
                                site_op=site.op,
                                site_path=site.path,
                                mode=mode,
                                message=message,
                            )
                        )
                    checked = time.monotonic()
                    shutil.rmtree(trial_root, ignore_errors=True)
                    op_report.timings.append(
                        TrialTiming(
                            op=op.name,
                            site=site.index,
                            site_op=site.op,
                            site_path=site.path,
                            mode=mode,
                            seconds=checked - trial_started,
                            cleanup=time.monotonic() - checked,
                        )
                    )
            status = "ok" if op_report.ok else "FAILED"
            note(
                f"{op.name}: {op_report.trials} trials, "
                f"{op_report.crashes} crashes, {status}"
            )
    finally:
        report.elapsed = time.monotonic() - started
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    return report


# ----------------------------------------------------------------------
# The standard operation set
# ----------------------------------------------------------------------

#: Cell every drill operation publishes: small enough to simulate once in
#: well under a second, real enough to exercise the full entry format.
_DRILL_CELL = dict(benchmark="wc", design_point="HEAVYWT", trip_count=48)

_GOLDEN: Dict[str, object] = {}


def _golden() -> "tuple[CampaignCell, RunResult, str]":
    """The drill cell, its (once-simulated) result, and its fingerprint."""
    if "cell" not in _GOLDEN:
        cell = CampaignCell(**_DRILL_CELL)
        outcome = execute_cell(cell)
        if not isinstance(outcome, RunResult):
            raise RuntimeError(f"drill cell failed to simulate: {outcome!r}")
        _GOLDEN["cell"] = cell
        _GOLDEN["result"] = outcome
        _GOLDEN["fp"] = outcome.fingerprint()
    return _GOLDEN["cell"], _GOLDEN["result"], _GOLDEN["fp"]


def _check_store_state(
    harness: FleetHarness, require_entry: bool
) -> List[str]:
    """Shared store invariants: nothing corrupt served, evidence kept,
    retried publication converges on the golden fingerprint."""
    cell, result, fp = _golden()
    digest = cell_digest(cell)
    store = harness.store()
    violations: List[str] = []

    entry = store.get(digest)  # quarantines (never serves) corruption
    if entry is not None and entry.fingerprint != fp:
        violations.append(
            f"served fingerprint {entry.fingerprint} != golden {fp}"
        )
    if require_entry and entry is None:
        violations.append("acknowledged result lost: entry absent after restart")

    audit = store.verify()
    for path in audit["quarantined"]:
        if not os.path.exists(path):
            violations.append(f"quarantine evidence vanished: {path}")
    if audit["entries"] != audit["valid"]:
        violations.append(
            f"store verify left {audit['entries'] - audit['valid']} "
            "invalid entr(ies) in place"
        )

    # Convergence: a restarted worker retries the publish; the world must
    # end bit-identical to the never-crashed run.
    store.gc()
    entry, _created = store.put(cell, result, provenance={"campaign": "chaos"})
    if entry.fingerprint != fp:
        violations.append(
            f"recovered publish fingerprint {entry.fingerprint} != golden {fp}"
        )
    final = store.get(digest)
    if final is None or final.fingerprint != fp:
        violations.append("store did not converge to the golden entry")
    return violations


def _active_leases(harness: FleetHarness) -> List[str]:
    leases_dir = os.path.join(harness.root, "queue", "leases")
    if not os.path.isdir(leases_dir):
        return []
    return sorted(n for n in os.listdir(leases_dir) if n.endswith(".lease"))


def _recovery_queue(harness: FleetHarness, skew: float = 120.0) -> WorkQueue:
    """The restarted worker's queue view, with the clock pushed past the
    TTL so the dead worker's lease is immediately stale (a real fleet gets
    the same effect by waiting out ``lease_ttl``)."""
    return harness.queue(clock=lambda: time.time() + skew)


# -- store-publish ------------------------------------------------------


def _publish_setup(harness: FleetHarness) -> None:
    _golden()


def _publish_run(harness: FleetHarness) -> None:
    cell, result, _fp = _golden()
    harness.store().put(cell, result, provenance={"campaign": "chaos"})


def _publish_check(harness: FleetHarness) -> List[str]:
    # Nothing was acknowledged (the crash predates put() returning), so
    # the entry may be absent — it must never be corrupt, and the retry
    # must converge.
    return _check_store_state(harness, require_entry=False)


# -- worker-commit ------------------------------------------------------


def _commit_setup(harness: FleetHarness) -> None:
    cell, _result, _fp = _golden()
    queue = harness.queue()
    queue.enqueue(cell)
    harness.notes["lease"] = queue.claim("w-crash")


def _commit_run(harness: FleetHarness) -> None:
    cell, result, _fp = _golden()
    harness.store().put(cell, result, provenance={"campaign": "chaos"})
    harness.queue().complete(harness.notes["lease"])
    harness.notes["acked"] = True


def _commit_check(harness: FleetHarness) -> List[str]:
    cell, result, fp = _golden()
    digest = cell_digest(cell)
    violations: List[str] = []
    pending_path = os.path.join(
        harness.root, "queue", "pending", digest + ".json"
    )
    store = harness.store()

    # THE acknowledged-result invariant: once the queue no longer remembers
    # the cell, the store must hold its result — a crash (or power loss
    # reverting an un-fsynced rename) may never retire the queue entry
    # while losing the published entry.
    if not os.path.exists(pending_path) and store.get(digest) is None:
        violations.append(
            "queue entry retired but published result lost — "
            "commit ordering broken"
        )
    if harness.notes.get("acked") and store.get(digest) is None:
        violations.append("acknowledged commit lost its store entry")

    # Convergence: the restarted worker reclaims and finishes the cell.
    queue = _recovery_queue(harness)
    if os.path.exists(pending_path):
        lease = queue.claim("w-recover")
        if lease is None:
            violations.append("pending cell unclaimable after crash")
        else:
            if not store.contains(digest):
                store.put(cell, result, provenance={"campaign": "chaos"})
            queue.complete(lease)
    violations.extend(_check_store_state(harness, require_entry=True))
    if os.path.exists(pending_path):
        violations.append("queue entry still pending after recovery")
    return violations


# -- lease-claim --------------------------------------------------------


def _claim_setup(harness: FleetHarness) -> None:
    cell, _result, _fp = _golden()
    harness.queue().enqueue(cell)


def _claim_run(harness: FleetHarness) -> None:
    harness.queue().claim("w-crash")


def _claim_check(harness: FleetHarness) -> List[str]:
    cell, _result, _fp = _golden()
    digest = cell_digest(cell)
    violations: List[str] = []
    if len(_active_leases(harness)) > 1:
        violations.append(f"multiple live leases: {_active_leases(harness)}")
    pending_path = os.path.join(
        harness.root, "queue", "pending", digest + ".json"
    )
    if not os.path.exists(pending_path):
        violations.append("claim crash lost the pending entry")
    lease = _recovery_queue(harness).claim("w-recover")
    if lease is None:
        violations.append("cell unclaimable after claim crash")
    elif lease.digest != digest:
        violations.append(f"recovered claim got wrong digest {lease.digest}")
    if len(_active_leases(harness)) != 1:
        violations.append(
            f"expected exactly one live lease after recovery, "
            f"got {_active_leases(harness)}"
        )
    return violations


# -- lease-reclaim ------------------------------------------------------


def _reclaim_setup(harness: FleetHarness) -> None:
    cell, _result, _fp = _golden()
    queue = harness.queue()
    queue.enqueue(cell)
    # A worker that died long ago: its lease's heartbeat is TTL-stale the
    # moment anyone looks (written with a rewound clock).
    dead = harness.queue(clock=lambda: time.time() - 3600.0)
    dead.claim("w-dead")


def _reclaim_run(harness: FleetHarness) -> None:
    harness.queue().claim("w-crash")  # breaks the stale lease, then claims


def _reclaim_check(harness: FleetHarness) -> List[str]:
    cell, _result, _fp = _golden()
    digest = cell_digest(cell)
    violations: List[str] = []
    # Exactly-once: however the reclaim died, never two live leases.
    if len(_active_leases(harness)) > 1:
        violations.append(
            f"reclaim produced multiple live leases: {_active_leases(harness)}"
        )
    pending_path = os.path.join(
        harness.root, "queue", "pending", digest + ".json"
    )
    if not os.path.exists(pending_path):
        violations.append("reclaim crash lost the pending entry")
    # A second reclaimer (the restarted fleet) must always make progress:
    # either the crashed claim is live-but-stale-later, or claimable now.
    lease = _recovery_queue(harness).claim("w-recover")
    if lease is None:
        violations.append("cell unclaimable after reclaim crash")
    if len(_active_leases(harness)) != 1:
        violations.append(
            f"expected exactly one live lease after recovery, "
            f"got {_active_leases(harness)}"
        )
    return violations


# -- ledger-append ------------------------------------------------------


def _ledger_records() -> List[Dict[str, object]]:
    return [
        {"event": "campaign-start", "n_cells": 2, "seq": 0},
        {"event": "cell-end", "cell": "wc/HEAVYWT", "seq": 1},
        {"event": "campaign-end", "seq": 2},
    ]


def _ledger_setup(harness: FleetHarness) -> None:
    harness.notes["acked"] = 0


def _ledger_run(harness: FleetHarness) -> None:
    ledger = CampaignLedger(harness.ledger_path(), fs=harness.fs).open()
    try:
        for record in _ledger_records():
            ledger.append(record)
            harness.notes["acked"] = int(harness.notes["acked"]) + 1
    finally:
        ledger.close()


def _ledger_check(harness: FleetHarness) -> List[str]:
    violations: List[str] = []
    acked = int(harness.notes.get("acked", 0))
    try:
        records = CampaignLedger.read(harness.ledger_path())
    except FileNotFoundError:
        records = []
    if len(records) < acked:
        violations.append(
            f"ledger lost acknowledged appends: {len(records)} < {acked}"
        )
    expected = _ledger_records()
    for i, record in enumerate(records[: len(expected)]):
        if record != expected[i]:
            violations.append(
                f"ledger record {i} corrupted or reordered: {record!r}"
            )
    if len(records) > len(expected):
        violations.append(f"ledger grew phantom records: {records!r}")
    return violations


# -- snapshot-rotate ----------------------------------------------------


def _drill_snapshot(total_steps: int) -> MachineSnapshot:
    """A tiny synthetic-but-real snapshot (payload is an opaque pickle)."""
    return MachineSnapshot(
        version=CHECKPOINT_VERSION,
        mechanism="hwq",
        program_name="chaos-drill",
        n_threads=1,
        cycle=float(total_steps),
        total_steps=total_steps,
        runners=[
            RunnerSnapshot(
                core_id=0,
                time=float(total_steps),
                done=False,
                steps=total_steps,
                last_progress_step=total_steps,
                last_progress_time=float(total_steps),
            )
        ],
        cursors=[total_steps],
        machine={"blob": b"x" * 64, "steps": total_steps},
    )


def _snapshot_setup(harness: FleetHarness) -> None:
    write_snapshot(harness.snapshot_path(), _drill_snapshot(10))


def _snapshot_run(harness: FleetHarness) -> None:
    write_snapshot(harness.snapshot_path(), _drill_snapshot(20), fs=harness.fs)


def _snapshot_check(harness: FleetHarness) -> List[str]:
    violations: List[str] = []
    recovered = recover_snapshot(harness.snapshot_path())
    if recovered is None:
        violations.append(
            "no snapshot generation recovered (generation 10 existed "
            "before the crash)"
        )
        return violations
    steps = recovered.snapshot.total_steps
    if steps not in (10, 20):
        violations.append(f"recovered impossible generation: steps={steps}")
    for path in recovered.quarantined:
        if not os.path.exists(path):
            violations.append(f"quarantine evidence vanished: {path}")
    return violations


def standard_operations() -> List[ChaosOperation]:
    """The fleet-layer operation set the CI drill walks."""
    return [
        ChaosOperation("store-publish", _publish_setup, _publish_run, _publish_check),
        ChaosOperation("worker-commit", _commit_setup, _commit_run, _commit_check),
        ChaosOperation("lease-claim", _claim_setup, _claim_run, _claim_check),
        ChaosOperation("lease-reclaim", _reclaim_setup, _reclaim_run, _reclaim_check),
        ChaosOperation("ledger-append", _ledger_setup, _ledger_run, _ledger_check),
        ChaosOperation(
            "snapshot-rotate", _snapshot_setup, _snapshot_run, _snapshot_check
        ),
    ]
