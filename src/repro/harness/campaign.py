"""Resilient parallel experiment campaigns: pool, watchdog, retries, ledger.

The paper's evaluation is a large grid — benchmarks x design points x
sensitivity knobs, multiplied by the pipeline study's stage counts — and a
serial in-process sweep has two failure amplifiers: one wedged simulation
(exactly the hang mode a seeded ``QUEUE_SLOT_STALL`` fault can inject into
the EXISTING spin loop) stalls every cell behind it, and one crash throws
away every cell already computed.  This module makes each cell a *bounded,
retryable, durably-recorded unit of work*:

* **Cells** (:class:`CampaignCell`) are declarative: benchmark, design
  point, trip count, a ``{knob: value}`` overrides dict (see
  :data:`repro.core.design_points.OVERRIDE_KNOBS`), and an optional seeded
  :class:`~repro.faults.plan.FaultPlan`.  A cell's identity is a stable
  hash of that spec, so the same grid built twice names the same cells.

* **Worker pool**: up to ``jobs`` worker processes run cells concurrently
  (:func:`run_campaign`).  Workers are single-use — one process per cell
  attempt — so a kill can never poison a sibling cell's interpreter state.

* **Watchdog**: every attempt gets a wall-clock budget, enforced twice.
  The *soft* layer runs inside the worker — the scheduler's own
  :class:`~repro.sim.kernel.WallClockExceededError` check — so a timed-out
  run still flushes its post-mortem and trace tail into a structured
  :class:`~repro.harness.runner.TimedOutRun`.  The *hard* layer runs in the
  pool: a worker that outlives budget + grace (wedged outside the scheduler
  loop) is ``SIGKILL``-ed and recorded as a ``TimedOutRun(hard_kill=True)``.

* **Retries**: transient failures (timeouts, dead workers — host-side
  interference, per :mod:`repro.faults.classify`) are retried up to
  ``max_attempts`` with seeded exponential backoff; deterministic failures
  (deadlock/step-limit diagnoses, config errors) fail fast, because the
  seeded simulator guarantees a retry would fail identically.

* **Ledger**: every attempt appends one JSON record to an append-only JSONL
  file (single ``write`` + ``fsync`` per record, so a crash can tear at
  most the final line, which replay ignores).  ``campaign resume`` replays
  the ledger, skips cells with a terminal record, and re-queues cells that
  were in flight when the process died.

* **Fingerprints**: each completed cell records
  :meth:`~repro.sim.stats.RunStats.fingerprint`.  Re-running a recorded
  cell (``recheck=True``) must reproduce the fingerprint byte for byte —
  the simulator's determinism guarantee as a checked invariant, and a
  golden-regression store for CI.

* **Checkpoints** (``CampaignPolicy.checkpoint_every``): workers snapshot
  the whole machine every N simulated cycles
  (:mod:`repro.sim.checkpoint`), journal each snapshot to the parent as a
  :class:`CheckpointNote` (a ``cell-ckpt`` ledger event), and resume a
  killed or preempted cell from its latest valid snapshot instead of cycle
  0 — with the resumed fingerprint bit-identical to an uninterrupted run.
  SIGTERM becomes graceful preemption: the worker checkpoints at the next
  safe point, records a :class:`~repro.harness.runner.PreemptedRun`
  (transient, never terminal, never consuming a retry attempt), and exits
  cleanly.  Corrupt snapshots are quarantined and recovery falls back to
  the previous generation or a cold start — never silently loaded.

The serial in-process path (:func:`execute_cell` cell by cell) remains the
default everywhere — :mod:`repro.harness.experiments` only dispatches
through the pool when asked for ``jobs > 1`` — so existing entry points and
tests are untouched by the campaign machinery.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import multiprocessing
import os
import random
import signal
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.design_points import apply_overrides, get_design_point, with_n_cores
from repro.faults.classify import FailureClass, classify_outcome
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.harness.runner import (
    FailedRun,
    PreemptedRun,
    RunOutcome,
    RunResult,
    TimedOutRun,
)
from repro.obs import runtime as _obs
from repro.obs.events import new_cid
from repro.obs.spans import span as _span
from repro.sim.checkpoint import (
    Checkpointer,
    MachineSnapshot,
    PreemptionRequested,
    SnapshotError,
    recover_snapshot,
    resume_run,
)
from repro.sim.kernel import SimulationError, WallClockExceededError
from repro.sim.machine import Machine
from repro.sim.program import Program
from repro.sim.stats import RunStats

__all__ = [
    "CampaignCell",
    "CampaignLedger",
    "CampaignPolicy",
    "CampaignReport",
    "CellHistory",
    "CheckpointNote",
    "LEDGER_SCHEMA_VERSION",
    "campaign_status",
    "cell_checkpoint_path",
    "execute_cell",
    "fault_plan_from_spec",
    "render_status",
    "run_campaign",
    "run_cells",
]

#: Ledger records cap multi-line diagnostics at this many characters so one
#: post-mortem cannot balloon the campaign's append-only log.
LEDGER_DETAIL_LIMIT = 8000

#: Schema version of ledger records *and* of the cell-spec dialect inside
#: them.  v1 (implicit) specs had no ``kernel`` field, v2 specs always
#: carried one, and v3 specs drop it again: kernels are bit-identical, so
#: the kernel is not part of a cell's identity.  :meth:`CampaignCell.from_spec`
#: decodes all three by ignoring any ``kernel`` key.  ``campaign-start`` and
#: ``cell-start`` records stamp this version on write, and the
#: content-addressed result store hashes it into every digest, so two
#: dialects of "the same" spec can never alias one store entry.
LEDGER_SCHEMA_VERSION = 3

#: Cell kinds the worker-side executor understands.
CELL_KINDS = ("benchmark", "single", "pipeline")


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------


def _fault_plan_spec(plan: Optional[FaultPlan]) -> Optional[Dict[str, object]]:
    """JSON-able identity of a fault plan (seed + rules), or None."""
    if plan is None:
        return None
    rules = []
    for rule in plan.rules:
        rules.append(
            {
                "kind": rule.kind.value,
                "magnitude": rule.magnitude,
                "probability": rule.probability,
                "queue_id": rule.queue_id,
                "core_id": rule.core_id,
                "after": rule.after,
                "count": rule.count,
            }
        )
    return {"seed": plan.seed, "rules": rules}


def fault_plan_from_spec(spec: Optional[Dict[str, object]]) -> Optional[FaultPlan]:
    """Rebuild a :class:`FaultPlan` from :func:`_fault_plan_spec` output."""
    if spec is None:
        return None
    rules = tuple(
        FaultRule(
            kind=FaultKind(r["kind"]),
            magnitude=float(r["magnitude"]),
            probability=float(r["probability"]),
            queue_id=r["queue_id"],
            core_id=r["core_id"],
            after=int(r["after"]),
            count=r["count"],
        )
        for r in spec["rules"]
    )
    return FaultPlan(seed=int(spec["seed"]), rules=rules).validate()


@dataclass
class CampaignCell:
    """One bounded, retryable unit of campaign work.

    Everything a worker needs to reproduce the run is plain data: cells
    cross process boundaries by pickling and enter the ledger as JSON, and
    two cells with the same spec always share the same :meth:`key` — the
    property resume and fingerprint checking are built on.

    Kinds:

    * ``"benchmark"`` — the standard two-stage (benchmark, design point)
      cell of the paper's grids, via :func:`run_benchmark_resilient`.
    * ``"single"`` — the unpartitioned single-core baseline
      (:func:`run_single_threaded`), used by Figure 9 and the scaling study.
    * ``"pipeline"`` — a K-stage pipeline on K cores (``stages=K``) with
      the scaling study's comm-trace instrumentation; per-hop delays and
      bus utilization come back in ``RunResult.extras``.
    """

    benchmark: str
    design_point: str = "HEAVYWT"
    kind: str = "benchmark"
    trip_count: Optional[int] = None
    #: Declarative config deltas, applied via OVERRIDE_KNOBS in fixed order.
    overrides: Dict[str, int] = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = field(default=None, repr=False)
    #: Pipeline depth for ``kind="pipeline"`` cells.
    stages: Optional[int] = None
    #: Simulation kernel the cell runs under (:mod:`repro.sim.kernel`):
    #: the ``event`` product kernel unless a differential check picks the
    #: ``reference`` oracle.  Not part of the spec — kernels are
    #: fingerprint-identical, so a result computed under either one is the
    #: same cell's result (same :meth:`key`, same store digest).
    kernel: str = "event"

    def validate(self) -> "CampaignCell":
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; known: {CELL_KINDS}")
        if self.kind == "pipeline" and (self.stages is None or self.stages < 2):
            raise ValueError("pipeline cells need stages >= 2")
        if self.trip_count is not None and self.trip_count <= 0:
            raise ValueError("trip_count must be positive (or None for default)")
        from repro.sim.kernel import available_kernels

        if self.kernel not in available_kernels():
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"known: {', '.join(available_kernels())}"
            )
        return self

    def spec(self) -> Dict[str, object]:
        """Canonical plain-data identity (what :meth:`key` hashes)."""
        return {
            "benchmark": self.benchmark,
            "design_point": self.design_point,
            "kind": self.kind,
            "trip_count": self.trip_count,
            "overrides": dict(sorted(self.overrides.items())),
            "fault_plan": _fault_plan_spec(self.fault_plan),
            "stages": self.stages,
        }

    def key(self) -> str:
        """Stable human-scannable id: ``bench/point[...]#spec-digest``."""
        return self._key_of(self.spec())

    def legacy_keys(self) -> List[str]:
        """The keys schema-v2 ledgers recorded for this cell, one per kernel.

        v2 specs carried the kernel, so it fed the key's digest; resume
        accepts records under these keys as this cell's history.
        """
        from repro.sim.kernel import available_kernels

        return [self._key_of(dict(self.spec(), kernel=k)) for k in available_kernels()]

    def _key_of(self, spec: Dict[str, object]) -> str:
        digest = hashlib.sha256(
            json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()[:8]
        label = f"{self.benchmark}/{self.design_point}"
        if self.kind == "single":
            label = f"{self.benchmark}/SINGLE"
        elif self.kind == "pipeline":
            label = f"{self.benchmark}/{self.design_point}/K{self.stages}"
        return f"{label}#{digest}"

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "CampaignCell":
        """Rebuild a cell from a ledger, queue or store ``spec`` record.

        Decodes every schema version: a ``kernel`` key (schema v2) is
        ignored, so the cell runs under the product kernel.
        """
        return cls(
            benchmark=spec["benchmark"],
            design_point=spec["design_point"],
            kind=spec.get("kind", "benchmark"),
            trip_count=spec.get("trip_count"),
            overrides=dict(spec.get("overrides") or {}),
            fault_plan=fault_plan_from_spec(spec.get("fault_plan")),
            stages=spec.get("stages"),
        ).validate()


# ----------------------------------------------------------------------
# In-process cell execution (shared by the serial path and the workers)
# ----------------------------------------------------------------------


def _build_config(cell: CampaignCell):
    """The cell's machine config, or None to use the design point's own."""
    if not cell.overrides and cell.fault_plan is None:
        return None
    cfg = get_design_point(cell.design_point).build_config()
    cfg = apply_overrides(cfg, cell.overrides)
    if cell.fault_plan is not None:
        cfg.faults = cell.fault_plan
    return cfg.validate()


@dataclass
class CellPlan:
    """Everything needed to run — or *resume* — one cell, precomputed.

    The three cell kinds used to carry three bespoke executors; checkpoint
    resume needs their common denominator made explicit: a machine config,
    a mechanism, a deterministic program builder (called again on resume to
    replay instruction streams up to the snapshot cursors), and a ``finish``
    hook deriving the cell's :class:`RunResult` (the pipeline kind computes
    per-hop delays from the restored trace buffer there).
    """

    #: Design-point label used in failure records (e.g. ``EXISTING/K=4``).
    design_label: str
    config: object
    mechanism: str
    build_program: Callable[[], Program]
    finish: Callable[[Machine, RunStats], RunResult]


def _plan_benchmark(cell: CampaignCell) -> CellPlan:
    from repro.workloads.suite import benchmark_info, build_pipelined

    point = get_design_point(cell.design_point)
    benchmark_info(cell.benchmark)  # validate the name early
    cfg = _build_config(cell)
    if cfg is not None:
        point.validate_config(cfg)
    else:
        cfg = point.build_config()
    cfg.kernel = cell.kernel

    def finish(machine: Machine, stats: RunStats) -> RunResult:
        return RunResult(
            benchmark=cell.benchmark,
            design_point=cell.design_point,
            cycles=stats.cycles,
            stats=stats,
            machine=machine,
            trace=machine.trace,
        )

    return CellPlan(
        design_label=cell.design_point,
        config=cfg,
        mechanism=point.mechanism,
        build_program=lambda: build_pipelined(cell.benchmark, cell.trip_count),
        finish=finish,
    )


def _plan_single(cell: CampaignCell) -> CellPlan:
    from repro.workloads.suite import build_single_threaded

    point = get_design_point("HEAVYWT")  # mechanism is unused without queues

    def finish(machine: Machine, stats: RunStats) -> RunResult:
        return RunResult(
            benchmark=cell.benchmark,
            design_point="SINGLE",
            cycles=stats.cycles,
            stats=stats,
            machine=machine,
            trace=machine.trace,
        )

    return CellPlan(
        design_label="SINGLE",
        config=point.build_config().copy(kernel=cell.kernel),
        mechanism=point.mechanism,
        build_program=lambda: build_single_threaded(
            cell.benchmark, cell.trip_count
        ),
        finish=finish,
    )


def _plan_pipeline(cell: CampaignCell) -> CellPlan:
    # Imported lazily: repro.pipeline.scaling reaches back into the harness,
    # and the pipeline modules are only needed for pipeline-kind cells.
    from repro.pipeline.codegen import lower_pipeline, plan_queue_hops
    from repro.pipeline.scaling import _per_hop_delay, build_pipeline_partition
    from repro.trace.buffer import TraceConfig

    partition = build_pipeline_partition(cell.benchmark, cell.stages, cell.trip_count)
    dp = get_design_point(cell.design_point)
    cfg = with_n_cores(dp.build_config(), cell.stages).copy(
        trace=TraceConfig(capacity=1 << 20, categories=("comm",)),
        kernel=cell.kernel,
    )
    if cell.fault_plan is not None:
        cfg.faults = cell.fault_plan
        cfg.validate()
    hop_of_queue = {qid: src for (_, src), qid in plan_queue_hops(partition).items()}

    def finish(machine: Machine, stats: RunStats) -> RunResult:
        return RunResult(
            benchmark=cell.benchmark,
            design_point=cell.design_point,
            cycles=stats.cycles,
            stats=stats,
            machine=machine,
            trace=machine.trace,
            extras={
                "stages": cell.stages,
                "hop_delays": _per_hop_delay(machine.trace, hop_of_queue),
                "bus_utilization": machine.mem.bus.utilization(stats.cycles),
            },
        )

    return CellPlan(
        design_label=f"{cell.design_point}/K={cell.stages}",
        config=cfg,
        mechanism=dp.mechanism,
        build_program=lambda: lower_pipeline(partition),
        finish=finish,
    )


def _plan_cell(cell: CampaignCell):
    """Build the cell's :class:`CellPlan`, or a :class:`FailedRun`.

    Only *expected, deterministic* planning failures (an unpartitionable
    loop) become data here; usage errors still raise — the worker's
    catch-all turns those into diagnoses with a full traceback.
    """
    from repro.dswp.partition import PartitionError

    if cell.kind == "single":
        return _plan_single(cell)
    if cell.kind == "pipeline":
        try:
            return _plan_pipeline(cell)
        except PartitionError as exc:
            return FailedRun(
                benchmark=cell.benchmark,
                design_point=f"{cell.design_point}/K={cell.stages}",
                error_type=type(exc).__name__,
                error=str(exc).splitlines()[0],
                detail=str(exc),
            )
    return _plan_benchmark(cell)


def execute_cell(
    cell: CampaignCell,
    wall_clock_budget: Optional[float] = None,
    checkpoint: Optional[Checkpointer] = None,
    resume_from: Optional[MachineSnapshot] = None,
    abort: Optional[Callable[[], Optional[str]]] = None,
) -> RunOutcome:
    """Run one cell in this process; the single executor both paths share.

    The serial fallback calls this directly; pool workers call it inside
    :func:`_cell_worker`.  One code path is what makes the pooled campaign's
    cycle counts and fingerprints bit-identical to the serial sweep's.

    ``checkpoint`` snapshots the machine periodically; ``resume_from``
    continues a previously snapshotted run instead of starting at cycle 0
    (the worker recovers the snapshot from the cell's checkpoint file).
    Either way the outcome — stats, fingerprint, trace — is identical to an
    uninterrupted run.  A SIGTERM-driven preemption surfaces as a
    :class:`~repro.harness.runner.PreemptedRun`.

    ``abort`` is an external-cancellation probe (returns a reason string to
    stop, ``None`` to keep going) checked at the kernel's wall-clock
    cadence; queue workers pass their heartbeat fence here so a zombie
    stops simulating soon after losing its lease.
    """
    cell.validate()
    plan = _plan_cell(cell)
    if isinstance(plan, FailedRun):
        return plan
    try:
        program = plan.build_program()
        if resume_from is not None:
            machine = resume_from.machine
            stats = resume_run(
                resume_from,
                program,
                wall_clock_budget=wall_clock_budget,
                checkpoint=checkpoint,
                abort=abort,
            )
        else:
            machine = Machine(plan.config, mechanism=plan.mechanism)
            stats = machine.run(
                program,
                wall_clock_budget=wall_clock_budget,
                checkpoint=checkpoint,
                abort=abort,
            )
    except PreemptionRequested as exc:
        return PreemptedRun(
            benchmark=cell.benchmark,
            design_point=plan.design_label,
            cycle=exc.cycle,
            snapshot_path=exc.path,
        )
    except WallClockExceededError as exc:
        return TimedOutRun(
            benchmark=cell.benchmark,
            design_point=plan.design_label,
            budget=exc.budget,
            elapsed=exc.elapsed,
            error=str(exc).splitlines()[0],
            detail=str(exc),
            post_mortem=exc.post_mortem,
        )
    except SimulationError as exc:
        return FailedRun(
            benchmark=cell.benchmark,
            design_point=plan.design_label,
            error_type=type(exc).__name__,
            error=str(exc).splitlines()[0],
            detail=str(exc),
            post_mortem=exc.post_mortem,
        )
    result = plan.finish(machine, stats)
    if resume_from is not None:
        result.extras["resumed_from_cycle"] = resume_from.cycle
    if checkpoint is not None:
        result.extras["checkpoints_taken"] = checkpoint.snapshots_taken
    return result


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


@dataclass
class CheckpointNote:
    """Mid-run journal message a worker sends after persisting a snapshot.

    Flows over the same pipe as the final outcome; the parent drains notes
    into ``cell-ckpt`` ledger events (never mistaking one for the attempt's
    outcome), which is how ``campaign status`` knows each in-flight cell's
    latest checkpointed cycle even after the worker is SIGKILLed.
    """

    cell: str
    attempt: int
    cycle: float
    path: Optional[str]
    #: Snapshots persisted so far in this attempt.
    count: int = 0


def cell_checkpoint_path(checkpoint_dir: str, cell: CampaignCell) -> str:
    """The cell's snapshot file under the campaign's checkpoint directory.

    Keys embed ``/`` (``bench/point#digest``); flatten to one filename so
    the directory stays a flat, listable set of ``<cell>.ckpt`` files (plus
    their ``.prev`` and ``.quarantined`` siblings).
    """
    return os.path.join(checkpoint_dir, cell.key().replace("/", "_") + ".ckpt")


def _strip_for_transport(outcome: RunOutcome) -> RunOutcome:
    """Drop the heavyweight machine/trace before crossing the pipe."""
    if isinstance(outcome, RunResult):
        outcome.machine = None
        outcome.trace = None
    return outcome


def _discard_snapshots(path: Optional[str]) -> None:
    """Best-effort removal of a cell's snapshot generations after success."""
    if path is None:
        return
    for candidate in (path, path + ".prev"):
        try:
            os.unlink(candidate)
        except OSError:
            pass


def _cell_worker(
    conn,
    cell: CampaignCell,
    soft_budget: Optional[float],
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    attempt: int = 1,
    allow_resume: bool = True,
    obs_ctx: Optional[Tuple[str, bool, Optional[str]]] = None,
) -> None:
    """Process entry point: run one cell attempt, send one outcome.

    Usage errors (unknown names, config mismatches) intentionally raise out
    of :func:`execute_cell`; here they are converted into *data* — a
    :class:`FailedRun` with the full traceback — because an exception that
    merely kills the worker would be indistinguishable from host-side
    interference and get retried, hiding a deterministic bug.

    With checkpointing enabled the worker additionally: recovers the cell's
    latest valid snapshot and resumes from it (``allow_resume``; recheck
    attempts always start cold so the determinism check covers the whole
    run); journals a :class:`CheckpointNote` to the parent after each
    persisted snapshot; converts SIGTERM into a graceful
    checkpoint-and-exit (:class:`~repro.harness.runner.PreemptedRun`); and
    deletes the cell's snapshots once the run completes, so stale state can
    never leak into a later campaign.
    """
    checkpointer: Optional[Checkpointer] = None
    # Join the campaign's shared event log so the kernel.run events and
    # sim.run spans this attempt produces carry the cell's correlation id.
    obs_cid: Optional[str] = None
    if obs_ctx is not None:
        try:
            obs_log_path, obs_sync, obs_cid = obs_ctx
            _obs.configure(log_path=obs_log_path, sync=obs_sync)
            if obs_cid is not None:
                _obs.set_cid(obs_cid)
        except Exception:
            obs_cid = None
    try:
        resume_from = None
        resumed_note = ""
        if checkpoint_every is not None:
            if checkpoint_path is not None and allow_resume:
                recovered = recover_snapshot(checkpoint_path)
                if recovered is not None:
                    resume_from = recovered.snapshot
                    if recovered.quarantined:
                        resumed_note = (
                            f"quarantined corrupt snapshot(s) "
                            f"{recovered.quarantined}; "
                        )
            elif checkpoint_path is not None:
                _discard_snapshots(checkpoint_path)  # recheck runs start cold
            checkpointer = Checkpointer(
                every=checkpoint_every,
                path=checkpoint_path,
                on_snapshot=lambda snap, path: conn.send(
                    CheckpointNote(
                        cell=cell.key(),
                        attempt=attempt,
                        cycle=snap.cycle,
                        path=path,
                        count=checkpointer.snapshots_taken,
                    )
                ),
                on_write_error=lambda exc: None,  # ENOSPC etc.: skip, not die
            )
            signal.signal(
                signal.SIGTERM, lambda signum, frame: checkpointer.request_preempt()
            )
        with _span(
            "sim.run",
            cid=obs_cid,
            kernel=cell.kernel,
            benchmark=cell.benchmark,
            attempt=attempt,
            worker="campaign",
        ) as sp:
            try:
                outcome = execute_cell(
                    cell,
                    wall_clock_budget=soft_budget,
                    checkpoint=checkpointer,
                    resume_from=resume_from,
                )
            except SnapshotError:
                # The snapshot did not fit this cell (stale file from an
                # older grid, version skew): fall back to cycle 0 rather
                # than failing the attempt — losing a checkpoint must never
                # lose the cell.
                _discard_snapshots(checkpoint_path)
                outcome = execute_cell(
                    cell, wall_clock_budget=soft_budget, checkpoint=checkpointer
                )
            sp.note(ok=outcome.ok, outcome=type(outcome).__name__)
        if resumed_note and not outcome.ok:
            outcome.detail = resumed_note + (outcome.detail or "")
        if isinstance(outcome, RunResult):
            _discard_snapshots(checkpoint_path)
    except BaseException as exc:
        outcome = FailedRun(
            benchmark=cell.benchmark,
            design_point=cell.design_point,
            error_type=type(exc).__name__,
            error=(str(exc).splitlines() or [type(exc).__name__])[0],
            detail=traceback.format_exc(),
        )
    try:
        conn.send(_strip_for_transport(outcome))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------


@dataclass
class CellHistory:
    """Replayed per-cell state of one ledger."""

    key: str
    attempts: int = 0
    in_flight: bool = False
    terminal: bool = False
    status: Optional[str] = None
    cycles: Optional[int] = None
    fingerprint: Optional[str] = None
    spec: Optional[Dict[str, object]] = None
    #: Latest checkpointed simulated cycle (``cell-ckpt`` events and
    #: preemption records), or None when the cell never snapshotted.
    checkpoint_cycle: Optional[float] = None
    #: Snapshot file of the latest checkpoint, when one was persisted.
    checkpoint_path: Optional[str] = None
    #: Wall-clock time of the latest checkpoint record.
    checkpoint_time: Optional[float] = None
    #: Total snapshots journalled for this cell across attempts.
    checkpoints: int = 0


class LedgerWriteError(OSError):
    """A ledger append failed even after bounded retries.

    Subclasses :class:`OSError` and is classified *transient* by
    :mod:`repro.faults.classify`: the disk, not the campaign, is sick.
    """


#: Bounded retry schedule for ledger/checkpoint appends hitting host I/O
#: errors (ENOSPC, EIO): attempts sleep ``LEDGER_RETRY_BASE * 2**i``.
LEDGER_RETRIES = 5
LEDGER_RETRY_BASE = 0.05


class CampaignLedger:
    """Append-only JSONL record of every cell attempt of a campaign.

    Crash safety: each record is one ``os.write`` of one full line to an
    ``O_APPEND`` descriptor followed by ``fsync``, so a crash (or SIGKILL)
    can lose at most the record being written — and a torn final line is
    skipped by :meth:`read`, never mistaken for a terminal outcome.

    ``sleep`` injects the backoff delay function used by :meth:`append`'s
    ENOSPC/EIO retry loop (default :func:`time.sleep`).  Tests replace it
    with a recorder, so the retry path — schedule, fragment termination,
    eventual :class:`LedgerWriteError` — is exercised without real delays.

    ``fs`` is the OS facade from :mod:`repro.store.io` (default: the real
    filesystem); the chaos harness injects here to tear appends and drop
    fsyncs under its crash models.
    """

    def __init__(
        self,
        path: str,
        sleep: Optional[Callable[[float], None]] = None,
        fs=None,
    ) -> None:
        # Imported lazily: repro.store.__init__ pulls in dispatch, which
        # imports this module — a top-level import here would re-enter that
        # cycle while repro.harness.campaign is still half-initialised.
        from repro.store.io import resolve_fs

        self.path = str(path)
        self.fs = resolve_fs(fs)
        self._fd: Optional[int] = None
        self._sleep: Callable[[float], None] = sleep if sleep is not None else time.sleep

    def open(self) -> "CampaignLedger":
        if self._fd is None:
            self._fd = self.fs.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self

    def close(self) -> None:
        if self._fd is not None:
            self.fs.close(self._fd)
            self._fd = None

    def append(self, record: Dict[str, object]) -> None:
        """Durably append one record, riding out transient host I/O errors.

        A full or flaky disk (``ENOSPC``, ``EIO``) gets
        :data:`LEDGER_RETRIES` attempts with exponential backoff before the
        append surfaces as a :class:`LedgerWriteError` — an :class:`OSError`
        subclass the failure classifier treats as transient, so one bad
        write degrades a single cell attempt instead of crashing the
        campaign loop.
        """
        if self._fd is None:
            self.open()
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        last: Optional[OSError] = None
        for i in range(LEDGER_RETRIES):
            try:
                self.fs.write(self._fd, line)
                self.fs.fsync(self._fd)
                return
            except OSError as exc:
                last = exc
                # Terminate any partially-written fragment so the retried
                # record starts on its own line; replay skips the fragment.
                try:
                    self.fs.write(self._fd, b"\n")
                except OSError:
                    pass
                self._sleep(LEDGER_RETRY_BASE * (2**i))
        raise LedgerWriteError(
            f"ledger append to {self.path} failed after "
            f"{LEDGER_RETRIES} attempts: {last}"
        ) from last

    # -- replay ---------------------------------------------------------

    @staticmethod
    def read(path: str) -> List[Dict[str, object]]:
        """Parse every intact record; torn lines are dropped.

        A torn line is either the crash tail (process died mid-append) or
        an interior fragment left by an append that hit a partial write
        (``ENOSPC``) and was retried — the retry re-wrote the full record on
        its own line, so skipping the fragment loses nothing.  See
        :func:`repro.store.io.parse_jsonl`.
        """
        from repro.store.io import parse_jsonl  # lazily, as in __init__

        with open(path, "rb") as fh:
            return parse_jsonl(fh.read())

    @staticmethod
    def replay(path: str) -> Dict[str, CellHistory]:
        """Fold a ledger into per-cell state keyed by cell key."""
        histories: Dict[str, CellHistory] = {}
        for rec in CampaignLedger.read(path):
            event = rec.get("event")
            if event not in ("cell-start", "cell-end", "cell-ckpt"):
                continue
            key = rec["cell"]
            hist = histories.setdefault(key, CellHistory(key=key))
            if event == "cell-ckpt":
                hist.checkpoints += 1
                hist.checkpoint_cycle = rec.get("cycle")
                hist.checkpoint_path = rec.get("path")
                hist.checkpoint_time = rec.get("time")
                continue
            hist.attempts = max(hist.attempts, int(rec.get("attempt", 0)))
            if event == "cell-start":
                hist.in_flight = True
                if rec.get("spec"):
                    hist.spec = rec["spec"]
            else:
                hist.in_flight = False
                if rec.get("status") == "preempted":
                    # A preemption is the host's doing, not the cell's: give
                    # the attempt back so routine evictions on preemptible
                    # fleets can never exhaust a cell's retry budget.
                    hist.attempts = max(0, int(rec.get("attempt", 1)) - 1)
                    if rec.get("cycle") is not None:
                        hist.checkpoint_cycle = rec.get("cycle")
                        hist.checkpoint_time = rec.get("time")
                    if rec.get("snapshot_path"):
                        hist.checkpoint_path = rec.get("snapshot_path")
                if rec.get("terminal"):
                    hist.terminal = True
                    hist.status = rec.get("status")
                if rec.get("status") == "done":
                    hist.cycles = rec.get("cycles")
                    # Keep the FIRST recorded fingerprint: it is the golden
                    # value later re-runs are checked against.
                    if hist.fingerprint is None:
                        hist.fingerprint = rec.get("fingerprint")
        return histories


def _outcome_record(
    cell: CampaignCell,
    attempt: int,
    outcome: RunOutcome,
    terminal: bool,
    elapsed: float,
) -> Dict[str, object]:
    rec: Dict[str, object] = {
        "event": "cell-end",
        "cell": cell.key(),
        "attempt": attempt,
        "time": time.time(),
        "elapsed": round(elapsed, 4),
        "terminal": terminal,
    }
    if isinstance(outcome, RunResult):
        rec.update(
            status="done",
            cycles=outcome.cycles,
            fingerprint=outcome.fingerprint(),
            kernel=cell.kernel,
        )
        # Perf-trajectory fields (host-side observability; never part of
        # the fingerprint, so recheck ignores them by construction).
        if outcome.stats.host_seconds > 0:
            rec["host_seconds"] = round(outcome.stats.host_seconds, 4)
            rec["simulated_cycles_per_sec"] = round(
                outcome.stats.simulated_cycles_per_sec, 1
            )
        if outcome.extras.get("resumed_from_cycle") is not None:
            rec["resumed_from_cycle"] = outcome.extras["resumed_from_cycle"]
        if outcome.extras.get("checkpoints_taken"):
            rec["checkpoints_taken"] = outcome.extras["checkpoints_taken"]
    elif isinstance(outcome, PreemptedRun):
        rec.update(
            status="preempted",
            transient=True,
            error_type=outcome.error_type,
            error=outcome.error,
            cycle=outcome.cycle,
            snapshot_path=outcome.snapshot_path,
        )
    elif isinstance(outcome, TimedOutRun):
        rec.update(
            status="timeout",
            transient=True,
            error_type=outcome.error_type,
            error=outcome.error,
            budget=outcome.budget,
            hard_kill=outcome.hard_kill,
            detail=outcome.detail[:LEDGER_DETAIL_LIMIT],
        )
    else:
        transient = classify_outcome(outcome) is FailureClass.TRANSIENT
        rec.update(
            status="worker-died" if outcome.error_type == "WorkerDiedError" else "failed",
            transient=transient,
            error_type=outcome.error_type,
            error=outcome.error,
            detail=outcome.detail[:LEDGER_DETAIL_LIMIT],
        )
    return rec


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


@dataclass
class CampaignPolicy:
    """Execution policy of one campaign."""

    #: Maximum concurrently running worker processes.
    jobs: int = 1
    #: Wall-clock seconds one cell attempt may take (None = no watchdog).
    wall_clock_budget: Optional[float] = None
    #: Total attempts per cell (1 = no retries); only transient failures
    #: consume extra attempts.
    max_attempts: int = 3
    #: First-retry backoff in seconds; doubles per subsequent attempt.
    backoff_base: float = 0.25
    #: Seed of the deterministic backoff jitter.
    backoff_seed: int = 0
    #: Extra seconds past the soft budget before the pool SIGKILLs a worker.
    kill_grace: float = 5.0
    #: Re-run cells already recorded done and verify their fingerprints
    #: instead of skipping them (golden-regression mode).
    recheck: bool = False
    #: Simulated cycles between worker checkpoints (None = checkpointing
    #: off).  With it on, a killed or preempted cell resumes from its latest
    #: valid snapshot instead of cycle 0 — bit-identically, per the
    #: checkpoint module's differential invariant.
    checkpoint_every: Optional[int] = None
    #: Directory for per-cell snapshot files.  ``None`` derives
    #: ``<ledger>.ckpt/`` next to the campaign ledger (checkpointing without
    #: a ledger then requires an explicit directory).
    checkpoint_dir: Optional[str] = None

    def validate(self) -> "CampaignPolicy":
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.wall_clock_budget is not None and self.wall_clock_budget <= 0:
            raise ValueError("wall_clock_budget must be positive (or None)")
        if self.backoff_base < 0 or self.kill_grace < 0:
            raise ValueError("backoff_base and kill_grace must be non-negative")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (or None)")
        return self

    def resolve_checkpoint_dir(self, ledger_path: Optional[str]) -> Optional[str]:
        """Effective snapshot directory for this campaign, or ``None``."""
        if self.checkpoint_every is None:
            return None
        if self.checkpoint_dir is not None:
            return self.checkpoint_dir
        if ledger_path is not None:
            return str(ledger_path) + ".ckpt"
        return None

    def backoff(self, cell_key: str, attempt: int) -> float:
        """Seeded exponential backoff before retry number ``attempt``."""
        rng = random.Random(
            f"{self.backoff_seed}:{cell_key}:{attempt}".encode("utf-8")
        )
        return self.backoff_base * (2 ** (attempt - 1)) * (0.75 + 0.5 * rng.random())


@dataclass
class CampaignReport:
    """What one :func:`run_campaign` call produced."""

    #: Terminal outcome per cell key for every cell run in this call.
    outcomes: Dict[str, RunOutcome] = field(default_factory=dict)
    #: Cells skipped because the ledger already held a terminal record.
    skipped: Dict[str, CellHistory] = field(default_factory=dict)
    #: Attempts consumed per cell key in this call.
    attempts: Dict[str, int] = field(default_factory=dict)
    #: Cell keys whose recheck fingerprint did not match the golden value.
    mismatches: List[str] = field(default_factory=list)
    #: Cell keys answered from the result store without running a worker.
    store_hits: List[str] = field(default_factory=list)
    retries: int = 0

    @property
    def n_done(self) -> int:
        done = sum(1 for o in self.outcomes.values() if o.ok)
        done += sum(1 for h in self.skipped.values() if h.status == "done")
        return done

    @property
    def n_failed(self) -> int:
        failed = sum(1 for o in self.outcomes.values() if not o.ok)
        failed += sum(1 for h in self.skipped.values() if h.status != "done")
        return failed

    def failures(self) -> List[RunOutcome]:
        return [o for o in self.outcomes.values() if not o.ok]

    def summary(self) -> str:
        parts = [
            f"{self.n_done} done",
            f"{self.n_failed} failed",
            f"{len(self.skipped)} skipped (already recorded)",
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
        ]
        if self.store_hits:
            parts.insert(1, f"{len(self.store_hits)} from store")
        if self.mismatches:
            parts.append(f"{len(self.mismatches)} FINGERPRINT MISMATCH(ES)")
        return ", ".join(parts)


@dataclass
class _Running:
    process: multiprocessing.Process
    conn: object
    cell: CampaignCell
    attempt: int
    started_at: float
    budget: Optional[float]
    hard_deadline: Optional[float]


def _spawn(
    cell: CampaignCell,
    policy: CampaignPolicy,
    attempt: int,
    checkpoint_dir: Optional[str] = None,
    allow_resume: bool = True,
    obs_ctx: Optional[Tuple[str, bool, Optional[str]]] = None,
) -> _Running:
    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    ckpt_path = (
        cell_checkpoint_path(checkpoint_dir, cell)
        if checkpoint_dir is not None
        else None
    )
    proc = ctx.Process(
        target=_cell_worker,
        args=(
            child_conn,
            cell,
            policy.wall_clock_budget,
            policy.checkpoint_every,
            ckpt_path,
            attempt,
            allow_resume,
            obs_ctx,
        ),
        daemon=True,
        name=f"campaign-{cell.key()}",
    )
    proc.start()
    child_conn.close()
    now = time.monotonic()
    deadline = (
        now + policy.wall_clock_budget + policy.kill_grace
        if policy.wall_clock_budget is not None
        else None
    )
    return _Running(
        process=proc,
        conn=parent_conn,
        cell=cell,
        attempt=attempt,
        started_at=now,
        budget=policy.wall_clock_budget,
        hard_deadline=deadline,
    )


def _drain(
    running: _Running, on_note: Callable[[_Running, CheckpointNote], None]
) -> Optional[RunOutcome]:
    """Consume buffered pipe messages: notes to ``on_note``, outcome back.

    A worker interleaves :class:`CheckpointNote` journal messages with (at
    most) one final outcome on the same pipe; draining notes here is what
    keeps the pool from mistaking a mid-run checkpoint for the attempt's
    result.  Returns the outcome if it arrived, else ``None``.
    """
    try:
        while running.conn.poll():
            msg = running.conn.recv()
            if isinstance(msg, CheckpointNote):
                on_note(running, msg)
            else:
                return msg
    except (EOFError, OSError):
        pass
    return None


def _reap(running: _Running, outcome: Optional[RunOutcome] = None) -> RunOutcome:
    """Collect the outcome of a finished (or dead) worker."""
    if outcome is None:
        try:
            while running.conn.poll():
                msg = running.conn.recv()
                if not isinstance(msg, CheckpointNote):
                    outcome = msg
                    break
        except (EOFError, OSError):
            outcome = None
    running.conn.close()
    running.process.join()
    if outcome is None:
        code = running.process.exitcode
        outcome = FailedRun(
            benchmark=running.cell.benchmark,
            design_point=running.cell.design_point,
            error_type="WorkerDiedError",
            error=f"worker exited with code {code} before reporting an outcome",
        )
    return outcome


def _kill(running: _Running) -> TimedOutRun:
    """Hard watchdog: SIGKILL a worker that outlived budget + grace."""
    running.process.kill()
    running.process.join()
    running.conn.close()
    elapsed = time.monotonic() - running.started_at
    return TimedOutRun(
        benchmark=running.cell.benchmark,
        design_point=running.cell.design_point,
        budget=running.budget or 0.0,
        elapsed=elapsed,
        error="worker SIGKILLed by the pool watchdog",
        hard_kill=True,
    )


def run_campaign(
    cells: Iterable[CampaignCell],
    policy: Optional[CampaignPolicy] = None,
    ledger_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    store=None,
    campaign_id: Optional[str] = None,
) -> CampaignReport:
    """Execute a campaign of cells on the worker pool.

    Args:
        cells: The declarative grid.  Cell keys must be unique.
        policy: Pool size, watchdog budget, retry policy (default: serial
            single-job pool, no watchdog, 3 attempts).
        ledger_path: JSONL ledger location.  ``None`` runs entirely
            in-memory (used by the figure functions' ``jobs=`` path).
        resume: Replay the ledger first: cells with a terminal record are
            skipped (or re-verified under ``policy.recheck``), in-flight
            cells are re-queued with their attempt counter preserved.
            Without ``resume``, an existing non-empty ledger is an error —
            refusing to silently interleave two campaigns in one file.
        progress: Optional line sink for human-readable progress.
        store: Optional :class:`~repro.store.ResultStore` (or a path to
            one).  Store-first scheduling: a cell whose digest is already
            stored is answered from the store — recorded ``done`` in the
            ledger with ``store_hit``, never simulated — and every freshly
            completed cell is published back, so a second campaign over
            the same grid performs zero re-simulations.  Under
            ``policy.recheck`` stored fingerprints join the ledger's as
            golden values and every cell re-runs.
        campaign_id: Provenance label stamped into store entries this
            campaign publishes (default: the ledger path or ``adhoc``).

    Returns a :class:`CampaignReport`; raises nothing for cell failures —
    they are data (``report.outcomes``) — but propagates KeyboardInterrupt
    after killing the pool, leaving the ledger resumable.
    """
    policy = (policy or CampaignPolicy()).validate()
    if store is not None and not hasattr(store, "get"):
        from repro.store.store import ResultStore

        store = ResultStore(str(store))
    if campaign_id is None:
        campaign_id = str(ledger_path) if ledger_path is not None else "adhoc"
    cells = [c.validate() for c in cells]
    keys = [c.key() for c in cells]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"duplicate campaign cell key(s): {sorted(dup)}")

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    # Observability (repro.obs): one correlation id per cell — stable
    # across retries, so every attempt of a cell chains under one cid —
    # plus campaign.* events and retry/attempt counters.  Every helper
    # no-ops unless obs is configured in this process.
    cell_cids: Dict[str, str] = {}

    def cell_cid(key: str) -> Optional[str]:
        if not _obs.active():
            return None
        cid = cell_cids.get(key)
        if cid is None:
            cid = cell_cids[key] = new_cid()
        return cid

    def obs_ctx_for(key: str) -> Optional[Tuple[str, bool, Optional[str]]]:
        state = _obs.get_state()
        if state is None or state.log is None:
            return None
        return (state.log.path, state.log.sync, cell_cid(key))

    def bump(name: str, amount: int = 1, **labels: str) -> None:
        state = _obs.get_state()
        if state is not None:
            state.registry.counter(name, **labels).inc(amount)

    report = CampaignReport()
    histories: Dict[str, CellHistory] = {}
    ledger: Optional[CampaignLedger] = None
    if ledger_path is not None:
        exists = os.path.exists(ledger_path) and os.path.getsize(ledger_path) > 0
        if exists and not resume:
            raise FileExistsError(
                f"ledger {ledger_path!r} already has records; use resume "
                "(or point the campaign at a fresh ledger)"
            )
        if resume and exists:
            histories = CampaignLedger.replay(ledger_path)
        ledger = CampaignLedger(ledger_path).open()
    checkpoint_dir = policy.resolve_checkpoint_dir(ledger_path)
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)

    # Seed the run queue: skip terminally-recorded cells, answer store hits
    # without running, and re-queue the rest (in-flight cells keep their
    # attempt counter so retries stay bounded across crashes).
    heap: List[Tuple[float, int, CampaignCell, int]] = []
    golden: Dict[str, Optional[str]] = {}
    store_hit_records: List[Tuple[CampaignCell, object]] = []
    digests: Dict[str, str] = {}
    now = time.monotonic()
    for seq, cell in enumerate(cells):
        key = cell.key()
        hist = histories.get(key)
        if hist is None and histories:
            # Schema-v2 ledgers keyed each cell by a spec that named its kernel.
            hist = next(
                (histories[k] for k in cell.legacy_keys() if k in histories), None
            )
        if hist is not None and hist.terminal:
            if policy.recheck and hist.status == "done":
                golden[key] = hist.fingerprint
            else:
                report.skipped[key] = hist
                continue
        if store is not None:
            from repro.store.store import cell_digest, result_from_entry

            digests[key] = cell_digest(cell)
            entry = store.get(digests[key])
            if entry is not None:
                if policy.recheck:
                    # Stored fingerprints are golden values too: the re-run
                    # below must reproduce them byte for byte.
                    golden.setdefault(key, entry.fingerprint)
                else:
                    report.outcomes[key] = result_from_entry(entry)
                    report.store_hits.append(key)
                    store_hit_records.append((cell, entry))
                    continue
        attempt = (hist.attempts if hist is not None else 0) + 1
        heapq.heappush(heap, (now, seq, cell, attempt))
    seq_counter = len(cells)

    if ledger is not None:
        ledger.append(
            {
                "event": "campaign-start",
                "schema": LEDGER_SCHEMA_VERSION,
                "time": time.time(),
                "resume": resume,
                "n_cells": len(cells),
                "n_skipped": len(report.skipped),
                "n_store_hits": len(report.store_hits),
                "store": getattr(store, "root", None),
                "policy": {
                    "jobs": policy.jobs,
                    "wall_clock_budget": policy.wall_clock_budget,
                    "max_attempts": policy.max_attempts,
                    "recheck": policy.recheck,
                },
            }
        )
        for cell, entry in store_hit_records:
            # One terminal record per store hit: resume and status see the
            # cell as done, and the record says it was never simulated.
            ledger.append(
                {
                    "event": "cell-end",
                    "cell": cell.key(),
                    "attempt": 0,
                    "time": time.time(),
                    "elapsed": 0.0,
                    "terminal": True,
                    "status": "done",
                    "cycles": entry.cycles,
                    "fingerprint": entry.fingerprint,
                    "kernel": cell.kernel,
                    "store_hit": True,
                    "store_digest": entry.digest,
                }
            )

    if _obs.active():
        _obs.emit(
            "campaign.start",
            campaign=campaign_id,
            n_cells=len(cells),
            n_skipped=len(report.skipped),
            n_store_hits=len(report.store_hits),
        )
        for cell, entry in store_hit_records:
            bump("repro_campaign_store_hits_total")
            _obs.emit(
                "store.hit",
                cid=cell_cid(cell.key()),
                cell=cell.key(),
                digest=entry.digest,
                fingerprint=entry.fingerprint,
                campaign=campaign_id,
            )

    running: List[_Running] = []
    draining = False

    def handle_note(r: _Running, msg: CheckpointNote) -> None:
        """Journal one worker checkpoint into the ledger (``cell-ckpt``)."""
        if ledger is not None:
            ledger.append(
                {
                    "event": "cell-ckpt",
                    "cell": msg.cell,
                    "attempt": msg.attempt,
                    "cycle": msg.cycle,
                    "path": msg.path,
                    "count": msg.count,
                    "time": time.time(),
                }
            )

    def record_outcome(cell: CampaignCell, attempt: int, outcome: RunOutcome) -> None:
        nonlocal seq_counter
        key = cell.key()
        report.attempts[key] = attempt
        # Fingerprint invariant: a re-run of a recorded-done cell must
        # reproduce the golden fingerprint byte for byte.
        if (
            isinstance(outcome, RunResult)
            and golden.get(key) is not None
            and outcome.fingerprint() != golden[key]
        ):
            outcome = FailedRun(
                benchmark=cell.benchmark,
                design_point=cell.design_point,
                error_type="FingerprintMismatchError",
                error=(
                    f"recorded fingerprint {golden[key]} but re-run produced "
                    f"{outcome.fingerprint()} — determinism violated"
                ),
            )
            report.mismatches.append(key)
        verdict = classify_outcome(outcome)
        # Preemptions are the host's doing: they stay resumable however many
        # attempts the cell has consumed, and retrying one repeats the SAME
        # attempt number so evictions never exhaust a retry budget.
        preempted = isinstance(outcome, PreemptedRun)
        resumable = verdict is FailureClass.TRANSIENT and (
            preempted or attempt < policy.max_attempts
        )
        elapsed = time.monotonic() - start_times.pop(key, now)
        published: Optional[str] = None
        if store is not None and isinstance(outcome, RunResult):
            from repro.store.store import StoreError

            try:
                entry, _created = store.put(
                    cell,
                    outcome,
                    provenance={"campaign": campaign_id, "attempt": attempt},
                )
                published = entry.digest
                if _obs.active():
                    _obs.emit(
                        "store.publish",
                        cid=cell_cids.get(key),
                        digest=entry.digest,
                        created=_created,
                        fingerprint=entry.fingerprint,
                        campaign=campaign_id,
                    )
            except StoreError as exc:
                # A fingerprint conflict with an existing entry is a
                # determinism violation — surface it like a recheck
                # mismatch instead of silently keeping either value.
                note(f"  STORE CONFLICT {key}: {exc}")
                report.mismatches.append(key)
        if ledger is not None:
            rec = _outcome_record(cell, attempt, outcome, not resumable, elapsed)
            if report.mismatches and report.mismatches[-1] == key:
                rec["status"] = "fingerprint-mismatch"
            if published is not None:
                rec["store_digest"] = published
            ledger.append(rec)
        if resumable and not draining:
            delay = policy.backoff(key, attempt)
            report.retries += 1
            bump("repro_campaign_retries_total")
            note(
                f"  retry {key} (attempt {attempt} {outcome.error_type}; "
                f"backoff {delay:.2f}s)"
            )
            heapq.heappush(
                heap,
                (
                    time.monotonic() + delay,
                    seq_counter,
                    cell,
                    attempt if preempted else attempt + 1,
                ),
            )
            seq_counter += 1
        else:
            report.outcomes[key] = outcome
            state = "done" if outcome.ok else f"FAILED ({outcome.error_type})"
            if preempted:
                state = f"preempted at cycle {outcome.cycle:.0f} (resumable)"
            note(f"  {key} {state} [{elapsed:.2f}s, attempt {attempt}]")
        if _obs.active():
            terminal = not (resumable and not draining)
            status = "retry" if not terminal else ("done" if outcome.ok else "failed")
            if terminal:
                bump("repro_campaign_cells_total", status=status)
            _obs.emit(
                "campaign.cell.end",
                cid=cell_cids.get(key),
                cell=key,
                attempt=attempt,
                status=status,
                error_type=getattr(outcome, "error_type", None),
                elapsed_s=round(elapsed, 6),
            )

    start_times: Dict[str, float] = {}
    try:
        while heap or running:
            now = time.monotonic()
            # Launch everything ready while there is pool capacity.
            while heap and len(running) < policy.jobs and heap[0][0] <= now:
                _, _, cell, attempt = heapq.heappop(heap)
                start_times[cell.key()] = time.monotonic()
                if _obs.active():
                    bump("repro_campaign_attempts_total")
                    _obs.emit(
                        "campaign.cell.start",
                        cid=cell_cid(cell.key()),
                        cell=cell.key(),
                        attempt=attempt,
                        kernel=cell.kernel,
                    )
                if ledger is not None:
                    ledger.append(
                        {
                            "event": "cell-start",
                            "cell": cell.key(),
                            "attempt": attempt,
                            "time": time.time(),
                            "schema": LEDGER_SCHEMA_VERSION,
                            "spec": cell.spec(),
                        }
                    )
                running.append(
                    _spawn(
                        cell,
                        policy,
                        attempt,
                        checkpoint_dir=checkpoint_dir,
                        # Recheck re-runs must cover the whole run from
                        # cycle 0 — resuming would verify only the tail.
                        allow_resume=cell.key() not in golden,
                        obs_ctx=obs_ctx_for(cell.key()),
                    )
                )

            if not running:
                # Pool idle but a backoff delay is pending: sleep it off.
                if heap:
                    time.sleep(max(0.0, heap[0][0] - time.monotonic()))
                continue

            # Wait for the first of: a worker reporting, a worker dying, a
            # hard deadline, or a queued retry becoming ready.
            timeout = 0.5
            deadlines = [r.hard_deadline for r in running if r.hard_deadline]
            if deadlines:
                timeout = min(timeout, max(0.0, min(deadlines) - time.monotonic()))
            if heap:
                timeout = min(timeout, max(0.0, heap[0][0] - time.monotonic()))
            waitables = [r.conn for r in running] + [
                r.process.sentinel for r in running
            ]
            _connection_wait(waitables, timeout=timeout)

            still_running: List[_Running] = []
            for r in running:
                now = time.monotonic()
                outcome = _drain(r, handle_note)
                if outcome is not None or not r.process.is_alive():
                    record_outcome(r.cell, r.attempt, _reap(r, outcome))
                elif r.hard_deadline is not None and now >= r.hard_deadline:
                    record_outcome(r.cell, r.attempt, _kill(r))
                else:
                    still_running.append(r)
            running = still_running
    finally:
        draining = True
        # Graceful preemption: SIGTERM first, so checkpoint-enabled workers
        # snapshot at the next safe point and report a PreemptedRun before
        # exiting; anything still alive after the grace window is killed
        # (its cell-start stays unmatched, so resume re-queues it).
        for r in running:
            r.process.terminate()
        grace_deadline = time.monotonic() + max(policy.kill_grace, 0.1)
        for r in running:
            outcome = None
            while time.monotonic() < grace_deadline:
                outcome = _drain(r, handle_note)
                if outcome is not None or not r.process.is_alive():
                    break
                time.sleep(0.02)
            if outcome is None:
                outcome = _drain(r, handle_note)
            if outcome is not None:
                record_outcome(r.cell, r.attempt, _reap(r, outcome))
            else:
                r.process.kill()
                r.process.join()
                r.conn.close()
        if ledger is not None:
            ledger.append(
                {
                    "event": "campaign-end",
                    "time": time.time(),
                    "complete": not heap and not running,
                    "n_done": report.n_done,
                    "n_failed": report.n_failed,
                    "retries": report.retries,
                }
            )
            ledger.close()
        if _obs.active():
            _obs.emit(
                "campaign.end",
                campaign=campaign_id,
                complete=not heap and not running,
                n_done=report.n_done,
                n_failed=report.n_failed,
                retries=report.retries,
            )
    return report


def run_cells(
    cells: Iterable[CampaignCell],
    jobs: int = 1,
    policy: Optional[CampaignPolicy] = None,
    ledger_path: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, RunOutcome]:
    """Run cells and return ``{cell key: outcome}`` — the figure-facing API.

    ``jobs == 1`` (the default) executes serially in-process via
    :func:`execute_cell`, with no pool, no ledger, and no retry machinery —
    the exact fallback the figure functions always had.  ``jobs > 1``
    dispatches through :func:`run_campaign`.  Both paths run the same
    executor, so cycles and fingerprints are identical either way.
    """
    cells = list(cells)
    if jobs <= 1 and ledger_path is None:
        return {cell.key(): execute_cell(cell) for cell in cells}
    pool_policy = policy or CampaignPolicy()
    pool_policy.jobs = max(1, jobs)
    report = run_campaign(
        cells, pool_policy, ledger_path=ledger_path, progress=progress
    )
    return report.outcomes


# ----------------------------------------------------------------------
# Status
# ----------------------------------------------------------------------


def _checkpoint_entry(hist: CellHistory, now: float) -> Optional[Dict[str, object]]:
    """Per-cell checkpoint progress: cycle, snapshot path validity, and age.

    Age prefers the snapshot file's mtime (survives ledger truncation and
    reflects the atomic rename, not the journal note); the ledger record
    time is the fallback when the file is gone.
    """
    if hist.checkpoint_cycle is None and hist.checkpoints == 0:
        return None
    entry: Dict[str, object] = {
        "cycle": hist.checkpoint_cycle,
        "count": hist.checkpoints,
        "path": hist.checkpoint_path,
        "on_disk": False,
        "age": None,
    }
    if hist.checkpoint_path is not None and os.path.exists(hist.checkpoint_path):
        entry["on_disk"] = True
        try:
            entry["age"] = max(0.0, now - os.path.getmtime(hist.checkpoint_path))
        except OSError:
            entry["age"] = None
    elif hist.checkpoint_time is not None:
        entry["age"] = max(0.0, now - hist.checkpoint_time)
    return entry


def campaign_status(ledger_path: str) -> Dict[str, object]:
    """Summarize a ledger: counts by status, in-flight cells, fingerprints.

    Returns a plain dict (CLI-renderable and test-assertable):
    ``{"cells": N, "by_status": {...}, "in_flight": [...], "complete": bool,
    "attempts": total, "fingerprints": {key: fp},
    "checkpoints": {key: {"cycle", "count", "path", "on_disk", "age"}}}``.
    The ``checkpoints`` map holds every cell that journalled a snapshot —
    the recovery story of each in-flight or preempted cell at a glance:
    which cycle it would resume from and how stale that snapshot is.
    """
    histories = CampaignLedger.replay(ledger_path)
    by_status: Dict[str, int] = {}
    in_flight: List[str] = []
    fingerprints: Dict[str, str] = {}
    checkpoints: Dict[str, Dict[str, object]] = {}
    attempts = 0
    now = time.time()
    for hist in histories.values():
        attempts += hist.attempts
        if hist.in_flight:
            in_flight.append(hist.key)
        if hist.terminal:
            by_status[hist.status or "?"] = by_status.get(hist.status or "?", 0) + 1
        elif not hist.in_flight:
            by_status["interrupted"] = by_status.get("interrupted", 0) + 1
        if hist.fingerprint is not None:
            fingerprints[hist.key] = hist.fingerprint
        # Checkpoint progress matters for cells that may still resume; a
        # successfully-done cell's snapshots were already discarded.
        if not (hist.terminal and hist.status == "done"):
            ckpt = _checkpoint_entry(hist, now)
            if ckpt is not None:
                checkpoints[hist.key] = ckpt
    return {
        "cells": len(histories),
        "by_status": by_status,
        "in_flight": sorted(in_flight),
        "complete": not in_flight
        and all(h.terminal for h in histories.values())
        and bool(histories),
        "attempts": attempts,
        "fingerprints": fingerprints,
        "checkpoints": checkpoints,
    }


def _render_age(age: Optional[float]) -> str:
    if age is None:
        return "age unknown"
    if age < 120:
        return f"{age:.0f}s old"
    if age < 7200:
        return f"{age / 60:.1f}min old"
    return f"{age / 3600:.1f}h old"


def render_status(status: Dict[str, object]) -> str:
    """Human-readable one-screen rendering of :func:`campaign_status`."""
    checkpoints: Dict[str, Dict[str, object]] = status.get("checkpoints", {})

    def ckpt_suffix(key: str) -> str:
        entry = checkpoints.get(key)
        if entry is None:
            return ""
        cycle = entry.get("cycle")
        where = "on disk" if entry.get("on_disk") else "journalled"
        return (
            f" [ckpt cycle {cycle:.0f}, {where}, {_render_age(entry.get('age'))}]"
            if cycle is not None
            else ""
        )

    lines = [f"cells recorded : {status['cells']}"]
    for name, count in sorted(status["by_status"].items()):
        lines.append(f"  {name:<20s} {count}")
    lines.append(f"attempts       : {status['attempts']}")
    lines.append(f"in flight      : {len(status['in_flight'])}")
    for key in status["in_flight"]:
        lines.append(f"  {key} (re-queued on resume){ckpt_suffix(key)}")
    resumable = [k for k in sorted(checkpoints) if k not in status["in_flight"]]
    if resumable:
        lines.append(f"checkpointed   : {len(resumable)}")
        for key in resumable:
            lines.append(f"  {key}{ckpt_suffix(key)}")
    lines.append(f"complete       : {'yes' if status['complete'] else 'no'}")
    return "\n".join(lines)
