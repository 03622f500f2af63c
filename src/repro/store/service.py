"""``repro serve`` — the async batch-query front end over the result store.

The design-space study as a *service*: clients ask "what is the speedup
of design point X on benchmark Y at scale Z" and the server answers from the
content-addressed store (:mod:`repro.store.store`), simulating only on a
miss.  The shape follows the ordered-streaming systems the ROADMAP names
(Prasaad et al.; FastFlow): a single async dispatch plane absorbs heavy
concurrent query traffic, while the actual work — cell simulation — runs
on a decoupled worker farm (a local process pool, or external workers
pulling from the shared :class:`~repro.store.dispatch.WorkQueue`).

Three guarantees:

* **hits never schedule work** — a stored digest is answered straight
  from disk, with only the store read on the critical path;
* **misses simulate exactly once** — concurrent queries naming the same
  digest coalesce onto one in-flight task
  (:attr:`QueryService.inflight`), so a thundering herd of identical
  queries costs one simulation; the store's dedupe semantics extend the
  same property across processes and hosts;
* **stdlib only** — the HTTP layer is a minimal HTTP/1.1 implementation
  over ``asyncio`` streams; no web framework enters the dependency set.

Endpoints::

    GET  /healthz       liveness + store reachability
    GET  /metrics       Prometheus text: serve/dispatch/store/span metrics
    GET  /metrics.json  the same surface as a JSON snapshot
    POST /query         {"queries": [{...}, ...]}  ->  {"answers": [...]}

A query names a cell the way campaign grids do::

    {"benchmark": "wc", "design_point": "HEAVYWT", "scale": 0.5,
     "speedup": true}

``trip_count`` pins the iteration count exactly; otherwise ``scale``
multiplies the benchmark's experiment default — the same knob the CLI
grids use.  ``"speedup": true`` additionally resolves the benchmark's
single-threaded baseline cell (through the same store/coalescing path)
and reports ``baseline_cycles / cycles``, the paper's Figure-9 metric.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import multiprocessing
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness.campaign import CampaignCell, execute_cell
from repro.harness.runner import RunResult
from repro.obs import runtime as _obs
from repro.obs.events import new_cid
from repro.obs.registry import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.spans import span as _span
from repro.store.dispatch import WorkQueue
from repro.store.store import (
    ResultStore,
    StoreEntry,
    StoreError,
    cell_digest,
)

__all__ = [
    "IO_RETRIES",
    "IO_RETRY_BASE",
    "LocalExecutor",
    "QueryError",
    "QueryService",
    "QueueExecutor",
    "RETRY_AFTER_S",
    "ServeHandle",
    "ServeMetrics",
    "executor_stats",
    "render_prometheus",
    "start_service",
    "sync_gauges",
]

#: Store/queue I/O retry budget: a flaky mount gets this many attempts
#: with exponential backoff (``IO_RETRY_BASE * 2**i`` seconds) before the
#: query degrades to a 503 — bounded, so a dead disk cannot pin queries
#: forever, and generous enough to ride out a transient burst.
IO_RETRIES = 4
IO_RETRY_BASE = 0.05

#: Seconds clients are told to back off when a request is shed.
RETRY_AFTER_S = 1


class QueryError(Exception):
    """A query that cannot be answered (bad spec, failed simulation)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class ServeMetrics:
    """Process-lifetime counters the ``/metrics`` endpoints expose.

    Since the ``repro.obs`` absorption these are registry-backed: every
    field is a :class:`~repro.obs.registry.Counter` living in
    ``self.registry`` (a private registry by default; ``repro serve``
    passes the process-wide one so spans, store, dispatch, and kernel
    metrics share a single ``/metrics`` surface).  Counters compare and
    increment like ints, so ``metrics.hits += 1`` / ``metrics.hits == 1``
    keep their seed-era spelling.

    ``observe_latency`` additionally feeds a fixed-bucket histogram
    (``repro_serve_query_latency_seconds``): zero-duration observations
    land in the smallest bucket, anything beyond the largest boundary in
    ``+Inf`` only, and a snapshot taken mid-burst is always coherent
    (``sum(buckets) == count``).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self.queries = reg.counter(
            "repro_serve_queries_total", "Queries received (all outcomes)"
        )
        self.batches = reg.counter(
            "repro_serve_batches_total", "POST /query batches received"
        )
        self.hits = reg.counter(
            "repro_serve_hits_total", "Queries answered straight from the store"
        )
        self.misses = reg.counter(
            "repro_serve_misses_total", "Queries that scheduled a simulation"
        )
        #: Queries that attached to an already-in-flight miss instead of
        #: scheduling their own simulation.
        self.coalesced = reg.counter(
            "repro_serve_coalesced_total",
            "Queries coalesced onto an in-flight miss",
        )
        self.errors = reg.counter(
            "repro_serve_errors_total", "Queries answered with an error"
        )
        #: Requests refused with 503 because the in-flight bound was hit.
        self.shed = reg.counter(
            "repro_serve_shed_total", "Batches shed with 503 (overload)"
        )
        #: Queries that hit their per-query wall-clock timeout (504).
        self.timeouts = reg.counter(
            "repro_serve_timeouts_total", "Queries that hit the 504 budget"
        )
        #: Store/queue I/O errors absorbed by the retry budget (degraded mode).
        self.io_errors = reg.counter(
            "repro_serve_io_errors_total", "Store I/O errors absorbed by retries"
        )
        self.latency = reg.histogram(
            "repro_serve_query_latency_seconds",
            "Wall-clock latency of answered queries",
            buckets=LATENCY_BUCKETS_S,
        )
        self.latency_total_s = 0.0
        self.latency_max_s = 0.0

    def observe_latency(self, seconds: float) -> None:
        self.latency_total_s += seconds
        self.latency_max_s = max(self.latency_max_s, seconds)
        self.latency.observe(seconds)

    def snapshot(self) -> Dict[str, object]:
        queries = int(self.queries)
        avg = self.latency_total_s / queries if queries else 0.0
        return {
            "queries": queries,
            "batches": int(self.batches),
            "hits": int(self.hits),
            "misses": int(self.misses),
            "coalesced": int(self.coalesced),
            "errors": int(self.errors),
            "shed": int(self.shed),
            "timeouts": int(self.timeouts),
            "io_errors": int(self.io_errors),
            "latency_avg_ms": round(avg * 1e3, 3),
            "latency_max_ms": round(self.latency_max_s * 1e3, 3),
            "latency_histogram": self.latency.snapshot(),
        }


# ----------------------------------------------------------------------
# Miss executors
# ----------------------------------------------------------------------


def _execute_spec(
    spec: Dict[str, object],
    wall_clock_budget: Optional[float],
    obs_ctx: Optional[Tuple[str, bool, Optional[str]]] = None,
):
    """Process-pool entry point: run one cell, return a transportable outcome.

    ``obs_ctx`` carries the parent's observability wiring across the
    process boundary: ``(event_log_path, sync, cid)``.  The pool worker
    configures obs for itself (idempotent across cells — same log path
    reuses the open fd) so the ``sim.run`` span lands in the same
    shared-FS log, under the same correlation ID, as the serve-side
    spans.  ``None`` (obs disabled in the parent) costs nothing here.
    """
    cid = None
    if obs_ctx is not None:
        log_path, sync, cid = obs_ctx
        _obs.configure(log_path=log_path, sync=sync)
    cell = CampaignCell.from_spec(spec)
    with _span("sim.run", cid=cid, kernel=cell.kernel, benchmark=cell.benchmark) as sp:
        outcome = execute_cell(cell, wall_clock_budget=wall_clock_budget)
        if isinstance(outcome, RunResult):
            sp.note(
                cycles=outcome.cycles,
                cycles_per_sec=round(outcome.stats.simulated_cycles_per_sec),
            )
        else:
            sp.note(outcome=type(outcome).__name__)
    if isinstance(outcome, RunResult):
        outcome.machine = None
        outcome.trace = None
    return outcome


def _obs_ctx() -> Optional[Tuple[str, bool, Optional[str]]]:
    """The ``(log_path, sync, cid)`` triple a child process needs, or None."""
    state = _obs.get_state()
    if state is None or state.log is None:
        return None
    return state.log.path, state.log.sync, _obs.current_cid()


class LocalExecutor:
    """Resolve misses on an in-host process pool (the single-host farm).

    Simulation is CPU-bound pure Python, so worker *processes* — not
    threads — are what lets concurrent misses use multiple cores.  The
    event loop only ever awaits; publication back to the store happens on
    the loop thread, keeping the store instance single-writer in this
    process.
    """

    def __init__(
        self,
        store: ResultStore,
        jobs: int = 2,
        wall_clock_budget: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.store = store
        self.wall_clock_budget = wall_clock_budget
        # ``forkserver``, not the platform-default ``fork``: the pool
        # starts its workers lazily on the first miss, by which time the
        # server holds open client sockets — plain-forked workers would
        # inherit those fds and keep them alive long after the response,
        # so clients reading to EOF (Connection: close) would never see
        # it.  Forkserver children fork from a clean early-started helper
        # and inherit none of the server's descriptors.
        self.pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("forkserver")
        )
        self.jobs = jobs
        #: Cells currently submitted to the pool (the depth gauge's measure:
        #: > ``jobs`` means misses are queueing behind a saturated pool).
        self.depth = 0

    async def resolve(self, cell: CampaignCell, digest: str) -> StoreEntry:
        loop = asyncio.get_running_loop()
        cid = _obs.current_cid()
        self.depth += 1
        try:
            with _span("dispatch.wait", cid=cid, executor="local", digest=digest[:16]):
                outcome = await loop.run_in_executor(
                    self.pool,
                    _execute_spec,
                    cell.spec(),
                    self.wall_clock_budget,
                    _obs_ctx(),
                )
        finally:
            self.depth -= 1
        if not isinstance(outcome, RunResult):
            raise QueryError(
                f"simulation failed: {outcome.error_type}: {outcome.error}",
                status=502,
            )
        state = _obs.get_state()
        if state is not None and outcome.stats is not None:
            # The run happened in a pool child with its own registry; fold
            # its throughput into the serve registry too (metrics only —
            # the child already emitted the ``kernel.run`` event), so one
            # ``/metrics`` scrape covers the kernel family.
            from repro.obs.registry import CYCLES_PER_SEC_BUCKETS

            state.registry.histogram(
                "repro_sim_cycles_per_sec",
                "Simulated cycles per host second, per kernel",
                buckets=CYCLES_PER_SEC_BUCKETS,
                kernel=cell.kernel,
            ).observe(outcome.stats.simulated_cycles_per_sec)
            state.registry.counter(
                "repro_sim_runs_total", "Completed simulation runs",
                kernel=cell.kernel,
            ).inc()
        with _span("store.publish", cid=cid, digest=digest[:16]):
            entry, created = self.store.put(
                cell, outcome, provenance={"campaign": "serve", "attempt": 1}
            )
        if _obs.active():
            _obs.emit(
                "store.publish", cid=cid, digest=digest, created=created,
                fingerprint=entry.fingerprint,
            )
        return entry

    def stats(self) -> Dict[str, object]:
        """Pool shape for the executor gauges (``/metrics``)."""
        return {"kind": "local", "pool_size": self.jobs, "depth": self.depth}

    def close(self) -> None:
        self.pool.shutdown(wait=False, cancel_futures=True)


class QueueExecutor:
    """Resolve misses by enqueueing onto the shared work queue (the fleet).

    The serve process never simulates: it enqueues the miss (idempotent —
    a digest already queued by another dispatcher shares the entry) and
    awaits the store, where some external :func:`~repro.store.dispatch.run_worker`
    publishes the result.  ``timeout`` bounds how long a query will wait
    for the fleet before erroring out.
    """

    def __init__(
        self,
        store: ResultStore,
        queue: WorkQueue,
        poll: float = 0.2,
        timeout: Optional[float] = None,
    ) -> None:
        self.store = store
        self.queue = queue
        self.poll = poll
        self.timeout = timeout

    async def resolve(self, cell: CampaignCell, digest: str) -> StoreEntry:
        cid = _obs.current_cid()
        self.queue.enqueue(cell, cid=cid)
        if _obs.active():
            _obs.emit("dispatch.enqueue", cid=cid, digest=digest, queue=self.queue.root)
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        with _span("dispatch.wait", cid=cid, executor="queue", digest=digest[:16]):
            while True:
                if self.store.contains(digest):
                    entry = self.store.get(digest)
                    if entry is not None:
                        return entry
                failed = self.queue.failed()
                if digest in failed:
                    doc = failed[digest]
                    raise QueryError(
                        f"simulation failed on worker: "
                        f"{doc.get('error_type')}: {doc.get('error')}",
                        status=502,
                    )
                if deadline is not None and time.monotonic() > deadline:
                    raise QueryError(
                        f"no worker produced {digest[:16]} within "
                        f"{self.timeout:g}s (is the fleet running?)",
                        status=504,
                    )
                await asyncio.sleep(self.poll)

    def stats(self) -> Dict[str, object]:
        """Queue shape for the executor gauges (``/metrics``)."""
        out: Dict[str, object] = {"kind": "queue"}
        try:
            out.update(self.queue.stats())
        except OSError:
            out["error"] = "queue stats unavailable"
        return out

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


def _query_cell(query: Dict[str, object]) -> CampaignCell:
    """Build the cell a query names; :class:`QueryError` on a bad spec."""
    if not isinstance(query, dict):
        raise QueryError("each query must be a JSON object")
    if "benchmark" not in query:
        raise QueryError("query is missing 'benchmark'")
    trip_count = query.get("trip_count")
    if trip_count is None:
        from repro.harness.experiments import EXPERIMENT_TRIPS

        benchmark = str(query["benchmark"])
        if benchmark not in EXPERIMENT_TRIPS:
            raise QueryError(f"unknown benchmark {benchmark!r}")
        scale = float(query.get("scale", 1.0))
        if scale <= 0:
            raise QueryError("'scale' must be positive")
        trip_count = max(32, int(EXPERIMENT_TRIPS[benchmark] * scale))
    try:
        return CampaignCell(
            benchmark=str(query["benchmark"]),
            design_point=str(query.get("design_point", "HEAVYWT")),
            kind=str(query.get("kind", "benchmark")),
            trip_count=int(trip_count),
            overrides=dict(query.get("overrides") or {}),
            stages=query.get("stages"),
        ).validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise QueryError(f"bad query spec: {exc}") from exc


class QueryService:
    """Store-backed query answering with in-flight miss coalescing.

    Degradation knobs (all off by default, zero cost when unused):

    * ``query_timeout`` — per-query wall-clock bound; a query that
      outlives it answers ``504`` instead of hanging its client.
    * ``max_inflight`` — bound on concurrently-processing queries; the
      HTTP layer sheds whole batches beyond it with ``503`` +
      ``Retry-After`` rather than queueing unboundedly.
    * Store reads ride an :data:`IO_RETRIES`-deep backoff budget; while
      errors persist the service reports ``degraded`` (with the cause)
      from ``/healthz`` and keeps answering what it can.
    """

    def __init__(
        self,
        store: ResultStore,
        executor,
        metrics: Optional[ServeMetrics] = None,
        query_timeout: Optional[float] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.store = store
        self.executor = executor
        self.metrics = metrics or ServeMetrics()
        self.query_timeout = query_timeout
        self.max_inflight = max_inflight
        #: digest -> the one task resolving it; concurrent queries await it.
        self.inflight: Dict[str, "asyncio.Task[StoreEntry]"] = {}
        #: digest -> cid of the query that *started* the in-flight miss
        #: (observability only; coalesced queries log it as their leader).
        self.inflight_cids: Dict[str, str] = {}
        #: Queries currently being answered (the shedding bound's measure).
        self.active = 0
        #: Drain flag: set by SIGTERM / :meth:`ServeHandle.drain`; new
        #: requests are refused, in-flight ones finish.
        self.draining = False
        #: Why the service is degraded, or ``None`` when healthy.
        self.degraded_cause: Optional[str] = None

    def state(self) -> Tuple[str, Optional[str]]:
        """``(ok|degraded|draining, cause)`` for ``/healthz``."""
        if self.draining:
            return "draining", "shutdown requested; finishing in-flight queries"
        if self.degraded_cause is not None:
            return "degraded", self.degraded_cause
        return "ok", None

    async def _store_get(self, digest: str, cid: Optional[str] = None) -> Optional[StoreEntry]:
        """Store lookup with the I/O retry budget; 503 once it runs dry.

        A flaky read marks the service degraded (``/healthz`` reports the
        cause); the first clean read clears it — degradation tracks the
        *present* disk, not history.
        """
        last: Optional[Exception] = None
        with _span("store.lookup", cid=cid, digest=digest[:16]) as sp:
            for attempt in range(IO_RETRIES):
                try:
                    entry = self.store.get(digest)
                except (OSError, StoreError) as exc:
                    last = exc
                    self.metrics.io_errors += 1
                    self.degraded_cause = f"store I/O failing: {exc}"
                    await asyncio.sleep(IO_RETRY_BASE * (2**attempt))
                    continue
                self.degraded_cause = None
                sp.note(result="hit" if entry is not None else "miss")
                return entry
        raise QueryError(
            f"store unavailable after {IO_RETRIES} attempts: {last}", status=503
        )

    async def resolve_cell(
        self, cell: CampaignCell, cid: Optional[str] = None
    ) -> Tuple[StoreEntry, bool, bool]:
        """Resolve one cell; returns ``(entry, hit, coalesced)``."""
        digest = cell_digest(cell)
        entry = await self._store_get(digest, cid=cid)
        if entry is not None:
            self.metrics.hits += 1
            if _obs.active():
                _obs.emit("store.hit", cid=cid, digest=digest)
            return entry, True, False
        task = self.inflight.get(digest)
        if task is not None:
            self.metrics.coalesced += 1
            if _obs.active():
                _obs.emit(
                    "serve.coalesce",
                    cid=cid,
                    digest=digest,
                    leader=self.inflight_cids.get(digest),
                )
            entry = await asyncio.shield(task)
            return entry, False, True
        self.metrics.misses += 1
        if _obs.active():
            _obs.emit("serve.miss", cid=cid, digest=digest)
            # The ContextVar rides into the task the executor runs under
            # (asyncio copies the ambient context at task creation), so
            # executors — including third-party ones with the plain
            # ``resolve(cell, digest)`` signature — can recover the cid
            # via :func:`repro.obs.runtime.current_cid`.
            token = _obs.set_cid(cid)
            try:
                task = asyncio.ensure_future(self.executor.resolve(cell, digest))
            finally:
                _obs.reset_cid(token)
            if cid is not None:
                self.inflight_cids[digest] = cid
        else:
            task = asyncio.ensure_future(self.executor.resolve(cell, digest))
        self.inflight[digest] = task

        def _retire(t: "asyncio.Task[StoreEntry]") -> None:
            # Deregistered when the TASK finishes — not when a waiter is
            # cancelled (a timed-out query's shielded task keeps running,
            # and later queries must still coalesce onto it).  Touching
            # the exception keeps an abandoned failure out of asyncio's
            # never-retrieved log.
            self.inflight.pop(digest, None)
            self.inflight_cids.pop(digest, None)
            if not t.cancelled():
                t.exception()

        task.add_done_callback(_retire)
        entry = await asyncio.shield(task)
        return entry, False, False

    async def _answer_cell(
        self, query: Dict[str, object], cid: Optional[str] = None
    ) -> Dict[str, object]:
        """The un-guarded answer path (wrapped in the timeout by the caller)."""
        cell = _query_cell(query)
        entry, hit, coalesced = await self.resolve_cell(cell, cid=cid)
        answer: Dict[str, object] = {
            "ok": True,
            "digest": entry.digest,
            "hit": hit,
            "coalesced": coalesced,
            "cycles": entry.cycles,
            "fingerprint": entry.fingerprint,
            "trip_count": cell.trip_count,
        }
        if query.get("speedup") and cell.kind != "single":
            baseline = CampaignCell(
                benchmark=cell.benchmark,
                kind="single",
                trip_count=cell.trip_count,
            ).validate()
            base_entry, base_hit, base_coalesced = await self.resolve_cell(
                baseline, cid=cid
            )
            answer["baseline_cycles"] = base_entry.cycles
            answer["baseline_digest"] = base_entry.digest
            answer["baseline_hit"] = base_hit
            if base_coalesced:
                answer["baseline_coalesced"] = True
            answer["speedup"] = (
                round(base_entry.cycles / entry.cycles, 4)
                if entry.cycles > 0
                else None
            )
        return answer

    async def answer_query(self, query: Dict[str, object]) -> Dict[str, object]:
        """Answer one query dict; never raises — errors become data.

        With obs enabled, every query gets a fresh correlation ID; the
        answer carries it back to the client (``"cid"``) so ``repro obs
        tail --cid`` starts from the HTTP response in hand.
        """
        self.metrics.queries += 1
        self.active += 1
        cid = new_cid() if _obs.active() else None
        started = time.monotonic()
        answer: Optional[Dict[str, object]] = None
        with _span(
            "serve.query", cid=cid, benchmark=query.get("benchmark") if isinstance(query, dict) else None
        ) as sp:
            try:
                if self.draining:
                    raise QueryError("server is draining", status=503)
                if self.query_timeout is None:
                    answer = await self._answer_cell(query, cid=cid)
                else:
                    try:
                        answer = await asyncio.wait_for(
                            self._answer_cell(query, cid=cid),
                            timeout=self.query_timeout,
                        )
                    except asyncio.TimeoutError:
                        # The in-flight task keeps running under its shield:
                        # a later retry can still coalesce onto (or hit) its
                        # result.
                        self.metrics.timeouts += 1
                        raise QueryError(
                            f"query exceeded the {self.query_timeout:g}s budget",
                            status=504,
                        ) from None
            except QueryError as exc:
                self.metrics.errors += 1
                answer = {"ok": False, "error": str(exc), "status": exc.status}
            except Exception as exc:  # noqa: BLE001 - a query must never kill the server
                self.metrics.errors += 1
                answer = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "status": 500,
                }
            finally:
                self.active -= 1
                self.metrics.observe_latency(time.monotonic() - started)
            if cid is not None:
                answer["cid"] = cid
                sp.note(
                    ok=bool(answer.get("ok")),
                    hit=answer.get("hit"),
                    status=answer.get("status"),
                )
        return answer

    async def answer_batch(self, queries: List[Dict[str, object]]) -> List[Dict[str, object]]:
        """Answer a batch concurrently — duplicates coalesce inside the batch."""
        self.metrics.batches += 1
        return list(await asyncio.gather(*(self.answer_query(q) for q in queries)))


def executor_stats(executor) -> Dict[str, object]:
    """The executor's load shape, tolerating executors without ``stats()``."""
    stats_fn = getattr(executor, "stats", None)
    if not callable(stats_fn):
        return {"kind": type(executor).__name__}
    try:
        out = stats_fn()
    except OSError:
        return {"kind": type(executor).__name__, "error": "stats unavailable"}
    return out if isinstance(out, dict) else {"kind": type(executor).__name__}


def sync_gauges(service: QueryService) -> None:
    """Fold the *instantaneous* serve state into the metrics registry.

    Counters update at their call sites; gauges (in-flight misses,
    active queries, executor pool depth, store/queue stats) are
    point-in-time reads, synced at scrape so ``/metrics`` always shows
    the present — load shedding is visible as depth/active climbing
    toward the bound *before* the first 503.
    """
    reg = service.metrics.registry
    reg.gauge(
        "repro_serve_inflight_misses",
        "Distinct digests currently being simulated for queries",
    ).set(len(service.inflight))
    reg.gauge(
        "repro_serve_active_queries", "Queries currently being answered"
    ).set(service.active)
    reg.gauge("repro_serve_draining", "1 while the server drains").set(
        1 if service.draining else 0
    )
    reg.gauge("repro_serve_degraded", "1 while store I/O is failing").set(
        1 if service.degraded_cause is not None else 0
    )
    ex = executor_stats(service.executor)
    kind = str(ex.get("kind", "unknown"))
    for key, val in ex.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            continue
        reg.gauge(
            f"repro_executor_{key}", "Miss-executor load gauge", kind=kind
        ).set(val)
    try:
        store_stats = service.store.stats()
    except OSError:
        store_stats = {}
    for key, val in store_stats.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            continue
        reg.gauge(f"repro_store_{key}", "Result-store stats field").set(val)


def render_prometheus(service: QueryService) -> str:
    """The ``GET /metrics`` body: registry state in Prometheus text format."""
    sync_gauges(service)
    return service.metrics.registry.render_prometheus()


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 over asyncio streams
# ----------------------------------------------------------------------

#: Refuse larger request bodies (a query batch has no business being 16 MiB).
MAX_BODY_BYTES = 16 * 1024 * 1024


def _http_response(
    status: int,
    payload: Dict[str, object],
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 413: "Payload Too Large",
               500: "Internal Server Error", 503: "Service Unavailable",
               504: "Gateway Timeout"}
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    return head + body


def _http_text_response(status: int, text: str, content_type: str) -> bytes:
    """Non-JSON response (the Prometheus exposition body)."""
    body = text.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} OK\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    return head + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, bytes]:
    """Parse method, path, and body from one HTTP/1.1 request."""
    request_line = await reader.readline()
    if not request_line:
        raise ConnectionError("empty request")
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise ValueError("malformed request line")
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise ValueError("bad Content-Length") from exc
    if content_length > MAX_BODY_BYTES:
        raise ValueError("request body too large")
    body = await reader.readexactly(content_length) if content_length else b""
    return method, path, body


@dataclass
class ServeHandle:
    """A running server: address, service internals, and shutdown."""

    server: asyncio.AbstractServer
    service: QueryService
    host: str
    port: int
    metrics: ServeMetrics = field(default_factory=ServeMetrics)

    async def drain(self, grace: float = 30.0) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight, close.

        The SIGTERM path.  Marks the service draining (``/healthz`` says
        so; new queries get 503), stops accepting connections, waits up to
        ``grace`` seconds for active queries to complete, then closes.
        Returns ``True`` when everything in flight finished in time.
        """
        self.service.draining = True
        self.server.close()
        deadline = time.monotonic() + grace
        while self.service.active > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        drained = self.service.active == 0
        await self.close()
        return drained

    async def close(self) -> None:
        self.server.close()
        await self.server.wait_closed()
        close = getattr(self.service.executor, "close", None)
        if close is not None:
            close()


async def _handle_client(
    service: QueryService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            method, path, body = await _read_request(reader)
        except (ValueError, ConnectionError, asyncio.IncompleteReadError):
            writer.write(_http_response(400, {"ok": False, "error": "bad request"}))
            return
        if method == "GET" and path == "/healthz":
            state, cause = service.state()
            health: Dict[str, object] = {
                "ok": state == "ok",
                "state": state,
                "store": service.store.root,
                "inflight": len(service.inflight),
                "active": service.active,
            }
            if cause is not None:
                health["cause"] = cause
            # Health stays a 200 even degraded/draining: the prober wants
            # the diagnosis, not a connection slammed in its face.
            writer.write(_http_response(200, health))
        elif method == "GET" and path == "/metrics":
            # Prometheus text exposition: the whole registry — serve
            # counters + latency histograms, span self-time, executor
            # pool depth, in-flight gauges, store/queue stats.
            writer.write(
                _http_text_response(
                    200,
                    render_prometheus(service),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            )
        elif method == "GET" and path == "/metrics.json":
            sync_gauges(service)
            writer.write(
                _http_response(
                    200,
                    {
                        "ok": True,
                        "serve": service.metrics.snapshot(),
                        "store": service.store.stats(),
                        "executor": executor_stats(service.executor),
                        "inflight": len(service.inflight),
                        "active": service.active,
                        "registry": service.metrics.registry.snapshot(),
                    },
                )
            )
        elif method == "POST" and path == "/query":
            try:
                doc = json.loads(body or b"{}")
            except json.JSONDecodeError:
                writer.write(
                    _http_response(400, {"ok": False, "error": "body is not JSON"})
                )
                return
            if isinstance(doc, dict) and "queries" in doc:
                queries = doc["queries"]
            elif isinstance(doc, list):
                queries = doc
            else:
                queries = [doc]
            if not isinstance(queries, list):
                writer.write(
                    _http_response(
                        400, {"ok": False, "error": "'queries' must be a list"}
                    )
                )
                return
            if service.draining:
                writer.write(
                    _http_response(
                        503,
                        {"ok": False, "error": "server is draining"},
                        headers={"Retry-After": str(RETRY_AFTER_S)},
                    )
                )
                return
            if (
                service.max_inflight is not None
                and service.active + len(queries) > service.max_inflight
            ):
                # Load shedding: refuse the whole batch now, cheaply, with
                # a back-off hint — never queue unboundedly and never hang.
                service.metrics.shed += 1
                writer.write(
                    _http_response(
                        503,
                        {
                            "ok": False,
                            "error": (
                                f"overloaded: {service.active} quer(ies) in "
                                f"flight (bound {service.max_inflight})"
                            ),
                            "retry_after_s": RETRY_AFTER_S,
                        },
                        headers={"Retry-After": str(RETRY_AFTER_S)},
                    )
                )
                return
            answers = await service.answer_batch(queries)
            ok = all(a.get("ok") for a in answers)
            writer.write(_http_response(200, {"ok": ok, "answers": answers}))
        else:
            writer.write(
                _http_response(
                    404, {"ok": False, "error": f"no route {method} {path}"}
                )
            )
    finally:
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_service(
    store: ResultStore,
    executor,
    host: str = "127.0.0.1",
    port: int = 0,
    query_timeout: Optional[float] = None,
    max_inflight: Optional[int] = None,
    metrics: Optional[ServeMetrics] = None,
) -> ServeHandle:
    """Start the HTTP front end; ``port=0`` picks a free port.

    Returns a :class:`ServeHandle` whose ``port`` is the bound port and
    whose :meth:`~ServeHandle.close` stops the server and the executor.
    ``query_timeout`` / ``max_inflight`` arm the degradation knobs
    (:class:`QueryService`); both default off.  ``metrics`` lets the
    caller supply registry-shared counters (``repro serve`` passes ones
    bound to the process-wide obs registry).
    """
    metrics = metrics if metrics is not None else ServeMetrics()
    service = QueryService(
        store,
        executor,
        metrics,
        query_timeout=query_timeout,
        max_inflight=max_inflight,
    )

    async def handler(reader, writer):
        await _handle_client(service, reader, writer)

    server = await asyncio.start_server(handler, host=host, port=port)
    bound_port = server.sockets[0].getsockname()[1]
    return ServeHandle(
        server=server, service=service, host=host, port=bound_port, metrics=metrics
    )


async def serve_forever(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8763,
    jobs: int = 2,
    queue_root: Optional[str] = None,
    wall_clock_budget: Optional[float] = None,
    queue_timeout: Optional[float] = None,
    query_timeout: Optional[float] = None,
    max_inflight: Optional[int] = None,
    drain_grace: float = 30.0,
    ready: Optional[Callable[[ServeHandle], None]] = None,
    obs_log: Optional[str] = None,
) -> None:
    """CLI entry: build store + executor, serve until SIGTERM or cancel.

    SIGTERM triggers a graceful drain (:meth:`ServeHandle.drain`): the
    listener closes, in-flight queries get up to ``drain_grace`` seconds
    to finish, new ones are shed with 503 — never a mid-response cut.

    ``obs_log`` (the ``--obs-log`` flag) arms ``repro.obs``: correlated
    events/spans append to that shared JSONL path, and ``ServeMetrics``
    binds to the process-wide registry so ``GET /metrics`` covers spans
    and everything else the process observes.  Left ``None``, nothing is
    recorded and the serve path keeps its zero-overhead shape.
    """
    metrics: Optional[ServeMetrics] = None
    if obs_log is not None:
        state = _obs.configure(log_path=obs_log)
        metrics = ServeMetrics(registry=state.registry)
        state.emit("serve.start", host=host, port=port, store=store_root)
    store = ResultStore(store_root)
    if queue_root is not None:
        executor = QueueExecutor(
            store, WorkQueue(queue_root), timeout=queue_timeout
        )
    else:
        executor = LocalExecutor(store, jobs=jobs, wall_clock_budget=wall_clock_budget)
    handle = await start_service(
        store,
        executor,
        host=host,
        port=port,
        query_timeout=query_timeout,
        max_inflight=max_inflight,
        metrics=metrics,
    )
    if ready is not None:
        ready(handle)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        sigterm_wired = True
    except (NotImplementedError, RuntimeError):
        sigterm_wired = False  # non-UNIX loop; cancellation still works
    try:
        await stop.wait()  # until SIGTERM (or this task is cancelled)
        await handle.drain(grace=drain_grace)
    finally:
        if sigterm_wired:
            loop.remove_signal_handler(signal.SIGTERM)
        await handle.close()
        if _obs.active():
            _obs.emit("serve.stop", queries=int(metrics.queries) if metrics else None)
