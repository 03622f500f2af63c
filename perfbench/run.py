"""The repository's benchmark: three workloads, output-checked, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep|dispatch|serve \\
        --seed N --seconds S --trace 0|1

``--trace 0`` times the workload untraced and prints every end-to-end
metric; ``--trace 1`` runs it again under per-layer instrumentation and
prints every per-layer metric.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; earlier lines carry the
host metadata and the exhibit check.  Every output is compared with the
committed goldens (``goldens.json``); a mismatch fails the operation and
the run (exit code 1).  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics (``--trace 0``) and their units.  Every workload
#: prints every one; README.md defines each per workload.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles_per_s": "1/s",
    "cells_per_s": "1/s",
    "queries_per_s": "1/s",
    "hit_p50_ms": "ms",
    "hit_p90_ms": "ms",
    "miss_p50_ms": "ms",
    "miss_p90_ms": "ms",
}

#: Host-time layers of the simulator, by source path under ``src/repro``.
#: The first matching prefix wins; code outside ``src/repro`` (the
#: standard library, builtins) is ``stdlib``.  The one table the traced
#: ``sweep`` profile is attributed with.
LAYER_MAP = (
    ("sim/kernel/", "sim.kernel"),
    ("sim/cosim.py", "sim.kernel"),
    ("sim/stats.py", "sim.stats"),
    ("sim/", "sim.core"),
    ("faults/", "sim.core"),
    ("core/", "core"),
    ("mem/", "mem"),
    ("dswp/", "dswp"),
    ("workloads/", "build"),
    ("pipeline/", "build"),
    ("harness/", "build"),
    ("obs/", "obs"),
    ("trace/", "obs"),
    ("store/", "store"),
    ("chaos/", "store"),
    ("", "build"),  # top-level modules: repro/__init__.py, bench.py, ...
)
LAYERS = ("sim.kernel", "sim.core", "sim.stats", "core", "mem", "dswp", "build", "obs", "store", "stdlib")
SPLIT_LAYERS = ("sim.kernel", "sim.core", "sim.stats", "core", "mem", "dswp")


#: Per-layer metrics (``--trace 1``) by the workload whose traced run
#: measures them, with their units.  A traced run that does not produce
#: every metric of its own workload fails; other workloads' metrics print
#: as 0.  ``obs`` and ``store`` code may not run at all on ``sweep``
#: (telemetry off, no durable I/O in a pass), so those two are optional.
TRACED: Dict[str, Dict[str, str]] = {
    "sweep": {
        "profile.total_s": "s",
        **{f"{layer}.self_s": "s" for layer in LAYERS},
        **{f"{layer}.self_s.{g}": "s" for layer in SPLIT_LAYERS for g in ("dense", "membound")},
        "mem.accesses": "count",
        "sim.stats.charges": "count",
        "sim.instructions": "count",
        "sim.cycles": "count",
        "core.comm_ops": "count",
    },
    "dispatch": {
        "dispatch.complete_ms": "ms",
        "dispatch.claim_ms": "ms",
        "store.put_ms": "ms",
        "store.get_ms": "ms",
        "harness.execute_ms": "ms",
        "io.fsync_calls": "count",
        "io.unlink_calls": "count",
        "io.unlink_ms": "ms",
        "io.write_atomic_ms": "ms",
        "dispatch.claim_yield": "ratio",
        "dispatch.store_hits": "count",
    },
    "serve": {
        "store.lookup.ms_p50": "ms",
        "serve.query.self_ms_p50": "ms",
        "dispatch.wait.ms_p50": "ms",
        "sim.run.ms_p50": "ms",
        "store.publish.ms_p50": "ms",
        "serve.hit_ratio": "ratio",
        "serve.coalesced": "count",
        "serve.shed": "count",
        "serve.errors": "count",
        "serve.timeouts": "count",
        "serve.leaked_semaphores": "count",
    },
}
OPTIONAL_TRACED = {"sweep": {"obs.self_s", "store.self_s"}}
#: The workloads ``BENCHMARK.json`` gates (``dispatch`` is not steady
#: enough to gate; README.md says why).
GATED = ("sweep", "serve")
#: The per-layer metrics ``BENCHMARK.json`` lists, as ``--trace 1`` prints
#: them on every workload; a ``dispatch`` traced run adds its own.
LAYER_UNITS = {name: unit for w in GATED for name, unit in TRACED[w].items()}
LAYER_UNITS["trace.overhead_ratio"] = "ratio"

#: ``dispatch``: cells published before a batch is queued (a fifth of the
#: batch; the other 32 are one block of :func:`catalog.trivial_blocks`).
BATCH_PREPUBLISHED = 8
#: ``serve``: closed-loop clients, queries per client per round, and new
#: cells each client asks per round besides the paired one.  A round asks
#: 5 new cells (misses) among 4000 queries: every miss leaves a durable
#: store entry behind, and removing one costs ~60 ms on a discard-mounted
#: ext4, so a miss share near 5% of an unthrottled loop would spend
#: minutes cleaning up after each run.
CLIENTS = 2
ROUND_QUERIES = 2000
OWN_MISSES = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Units each traced run measures, untraced then traced.
TRACE_UNITS = {"sweep": 1, "dispatch": 2, "serve": 25}
#: How far the traced ``sweep``'s layers may sum from the wall time of the
#: profiled calls (the profiler's own bookkeeping is the difference).
PROFILE_TOLERANCE = 0.05


def _fail_usage(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def pct(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


class Tally:
    """Operations attempted and failed, with each distinct failure counted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: Dict[str, int] = {}

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if what in self.notes or len(self.notes) < 100:
            self.notes[what] = self.notes.get(what, 0) + 1


class Ctx:
    """What every workload gets: inputs, limits, checker, scratch space."""

    def __init__(self, args, goldens, tmp: str) -> None:
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.goldens = goldens
        self.tmp = tmp
        self.tally = Tally()
        self.rng = random.Random(args.seed)
        self.info: Dict[str, object] = {}

    def check(self, lbl: str, fingerprint, cycles, where: str) -> bool:
        wanted = self.goldens.wanted(lbl)
        return self.tally.op(
            self.goldens.check(lbl, fingerprint, cycles),
            f"{where}: {lbl} gave ({fingerprint}, {cycles}), "
            f"golden {' or '.join(map(str, wanted))}",
        )

    def check_result(self, lbl: str, outcome, where: str) -> bool:
        from repro.harness.runner import RunResult

        if not isinstance(outcome, RunResult):
            return self.tally.op(False, f"{where}: {lbl} failed: {outcome}")
        return self.check(lbl, outcome.fingerprint(), outcome.cycles, where)

    def scratch(self, name: str) -> str:
        path = os.path.join(self.tmp, name)
        os.makedirs(path)
        return path


def _timed_units(ctx: Ctx, unit: Callable[[], None], count: Optional[int]) -> None:
    """Run ``unit`` ``count`` times, or until ``--seconds`` have passed."""
    if count is not None:
        for _ in range(count):
            unit()
        return
    started = time.perf_counter()
    while time.perf_counter() - started < ctx.seconds:
        unit()


# ----------------------------------------------------------------------
# sweep: the paper grid, serially through execute_cell
# ----------------------------------------------------------------------


def _layer_of(path: str) -> str:
    marker = os.sep + os.path.join("src", "repro") + os.sep
    idx = path.find(marker)
    if idx < 0:
        return "stdlib"
    rel = path[idx + len(marker):].replace(os.sep, "/")
    return next(layer for prefix, layer in LAYER_MAP if rel.startswith(prefix))


def _profile_layers(profiles) -> Dict[str, float]:
    """Attribute cProfile self time to layers; also the exact call counts.

    Only layers and counts the profile saw any call of are returned, so
    instrumentation that stops matching the code shows as a missing metric.
    """
    import pstats

    out: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0) + value

    for group, prof in profiles.items():
        stats = pstats.Stats(prof).stats
        for (path, _line, func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
            layer = _layer_of(path)
            add(f"{layer}.self_s", tottime)
            if layer in SPLIT_LAYERS and group != "single":
                add(f"{layer}.self_s.{group}", tottime)
            if path.endswith(os.path.join("mem", "hierarchy.py")) and func in (
                "load",
                "store",
                "stream_load",
            ):
                add("mem.accesses", ncalls)
            elif path.endswith(os.path.join("sim", "stats.py")) and func == "charge":
                add("sim.stats.charges", ncalls)
    return out


def run_sweep(ctx: Ctx) -> Dict[str, float]:
    import cProfile

    import catalog
    from repro.harness.campaign import execute_cell
    from repro.harness.runner import RunResult
    from repro.store.store import ResultStore, result_from_entry

    grid = catalog.sweep_labels()
    warmup = catalog.sweep_labels(warmup=True)
    cells = {lbl: catalog.cell_for(lbl) for lbl in grid + warmup}
    store = ResultStore(ctx.scratch("store"))

    # Set-up simulates the 32-trip grid and publishes it, as
    # ``run_campaign(store=...)`` would: the first set-up writes every
    # entry, the later ones find each already stored (put's dedupe).
    setups = []
    for _ in range(1 if ctx.trace else SETUPS):
        spent = 0.0
        for lbl in warmup:
            t0 = time.perf_counter()
            outcome = execute_cell(cells[lbl])
            if isinstance(outcome, RunResult):
                store.put(cells[lbl], outcome)
            spent += time.perf_counter() - t0
            ctx.check_result(lbl, outcome, "sweep warm-up")
        setups.append(spent)

    passes: List[Dict[str, object]] = []
    profiles: Optional[Dict[str, cProfile.Profile]] = None
    traced = {"wall_s": 0.0, "instructions": 0, "cycles": 0, "comm_ops": 0}

    def one_pass() -> None:
        """Simulate the paper grid, each cell followed by a store-first hit.

        A miss is one ``execute_cell`` call; a hit is the lookup
        ``run_campaign`` makes for a published cell (``ResultStore.get`` +
        ``result_from_entry``), here of the 32-trip grid set-up stored, as
        in a campaign over a grid half of which is stored.  Hits strictly
        alternate with misses: a lookup right after a simulation takes
        ~6x one after another lookup (caches the simulation evicted), so a
        seeded mix of both kinds would put the percentiles on that step.
        Outputs are checked after the pass.
        """
        hits = list(warmup)
        misses = list(grid)
        ctx.rng.shuffle(hits)
        ctx.rng.shuffle(misses)
        answers = []
        hit_ms: List[float] = []
        miss_ms: List[float] = []
        t_pass = time.perf_counter()
        for miss, hit in zip(misses, hits):
            prof = profiles[catalog.group_of(miss)] if profiles is not None else None
            t0 = time.perf_counter()
            if prof is not None:
                prof.enable()
            outcome = execute_cell(cells[miss])
            if prof is not None:
                prof.disable()
            dt = time.perf_counter() - t0
            miss_ms.append(dt * 1e3)
            traced["wall_s"] += dt
            answers.append((miss, outcome, "sweep"))
            t0 = time.perf_counter()
            entry = store.get_cell(cells[hit])
            outcome = None if entry is None else result_from_entry(entry)
            hit_ms.append((time.perf_counter() - t0) * 1e3)
            answers.append((hit, outcome, "sweep store hit"))
        wall = time.perf_counter() - t_pass
        cycles = {}
        miss_cycles = 0
        for lbl, outcome, where in answers:
            ctx.check_result(lbl, outcome, where)
            if isinstance(outcome, RunResult) and where == "sweep":
                cycles[lbl] = outcome.cycles
                miss_cycles += outcome.cycles
                if profiles is not None:
                    for t in outcome.stats.threads:
                        traced["instructions"] += t.app_instructions + t.comm_instructions
                        traced["comm_ops"] += t.produces + t.consumes
                    traced["cycles"] += outcome.cycles
        if len(cycles) == len(grid):
            got = catalog.exhibits(cycles)
            want = [
                catalog.exhibits({lbl: ctx.goldens.expected(lbl, k)[1] for lbl in grid})
                for k in sorted(ctx.goldens.left)
            ]
            ctx.tally.op(got in want, f"sweep exhibits {got} != {' or '.join(map(str, want))}")
            ctx.info["exhibits"] = got
        passes.append(
            {
                "wall": wall,
                "cells": len(misses),
                "queries": len(hits) + len(misses),
                "miss_cycles": miss_cycles,
                "hit_ms": hit_ms,
                "miss_ms": miss_ms,
            }
        )

    if not ctx.trace:
        _timed_units(ctx, one_pass, None)
        return _e2e(ctx, setups, passes, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    _timed_units(ctx, one_pass, TRACE_UNITS["sweep"])
    untraced = statistics.median(p["wall"] for p in passes)
    passes.clear()
    traced["wall_s"] = 0.0
    profiles = {g: cProfile.Profile() for g in ("dense", "membound", "single")}
    _timed_units(ctx, one_pass, TRACE_UNITS["sweep"])
    out = _profile_layers(profiles)
    # The layers must account for the profiled calls' own wall time.
    layered = sum(out.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    ctx.tally.op(
        abs(layered / traced["wall_s"] - 1) <= PROFILE_TOLERANCE,
        f"sweep: layers sum to {layered:.3f} s of {traced['wall_s']:.3f} s profiled",
    )
    out["profile.total_s"] = traced["wall_s"]
    out["sim.instructions"] = traced["instructions"]
    out["sim.cycles"] = traced["cycles"]
    out["core.comm_ops"] = traced["comm_ops"]
    out["trace.overhead_ratio"] = statistics.median(p["wall"] for p in passes) / untraced
    return out


def _tail(ms: List[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    q = int(100 * (1 - 10 / len(ms))) if len(ms) >= 20 else 50
    return {"n": len(ms), f"p{q}_ms": pct(ms, q / 100)}


def _latency(units, key: str, q: float) -> float:
    """Percentile ``q`` of the request latencies ``units`` keep under ``key``.

    When every unit holds at least ten samples beyond it, this is the
    median over units of each unit's own percentile, so a burst of host
    noise in a few units moves it no more than it moves ``wall_s``;
    otherwise it is the percentile of the run's samples taken together.
    """
    samples = [u[key] for u in units]
    if all(len(ms) * (1 - q) >= 10 for ms in samples):
        return statistics.median(pct(ms, q) for ms in samples)
    return pct([x for ms in samples for x in ms], q)


def _e2e(ctx: Ctx, setups, units, maxrss_kb) -> Dict[str, float]:
    """The end-to-end metrics from per-unit records and request latencies.

    Cell and query rates are the median over units of each unit's own
    rate, so one unit slowed by the host moves them no more than it moves
    ``wall_s``; latency percentiles likewise where the units are large
    enough (:func:`_latency`).  Simulated cycles are summed over the run
    instead: a ``serve`` round's few new cells carry uneven work, which
    only whole blocks of :func:`catalog.trivial_blocks` even out.  The
    sample behind each figure goes into ``ctx.info`` for the record.
    """

    def rate(key: str) -> float:
        return statistics.median(u[key] / u["wall"] for u in units)

    ctx.info["samples"] = {
        "setup_s": setups,
        "unit_wall_s": [u["wall"] for u in units],
        "hits": _tail([x for u in units for x in u["hit_ms"]]),
        "misses": _tail([x for u in units for x in u["miss_ms"]]),
    }
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(u["wall"] for u in units),
        "peak_rss_mb": maxrss_kb / 1024.0,
        "sim_cycles_per_s": sum(u["miss_cycles"] for u in units)
        / sum(u["wall"] for u in units),
        "cells_per_s": rate("cells"),
        "queries_per_s": rate("queries"),
        "hit_p50_ms": _latency(units, "hit_ms", 0.5),
        "hit_p90_ms": _latency(units, "hit_ms", 0.9),
        "miss_p50_ms": _latency(units, "miss_ms", 0.5),
        "miss_p90_ms": _latency(units, "miss_ms", 0.9),
    }


# ----------------------------------------------------------------------
# dispatch: one in-process worker drains fresh queues into the run's store
# ----------------------------------------------------------------------


_MISSING = object()


class _Timers:
    """Call counts and host time of wrapped functions (thread-safe).

    Each spec names a class method, an object attribute or a module global
    and the timer it feeds; ``install`` replaces each with a timing shim
    and ``restore`` puts every original back.  Only traced runs use this.
    """

    def __init__(self, specs) -> None:
        self.specs = specs
        self.lock = threading.Lock()
        self.calls: Dict[str, int] = {}
        self.secs: Dict[str, float] = {}
        self.undo: List[Callable[[], None]] = []

    def _wrap(self, owner, attr: str, name: str) -> None:
        saved = owner.__dict__.get(attr, _MISSING)
        original = saved if isinstance(owner, type) else getattr(owner, attr)

        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                return original(*a, **kw)
            finally:
                dt = time.perf_counter() - t0
                with self.lock:
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.secs[name] = self.secs.get(name, 0.0) + dt

        setattr(owner, attr, timed)
        if saved is _MISSING:
            self.undo.append(lambda: delattr(owner, attr))
        else:
            self.undo.append(lambda: setattr(owner, attr, saved))

    def install(self) -> None:
        for owner, attr, name in self.specs:
            self._wrap(owner, attr, name)

    def restore(self) -> None:
        while self.undo:
            self.undo.pop()()

    def ms(self, name: str) -> float:
        return self.secs.get(name, 0.0) * 1e3

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)


def _no_leases(ctx: Ctx, queue, where: str) -> None:
    """A drained queue holds no pending cell, no failure and no lease file."""
    leases = [n for n in os.listdir(queue.leases_dir) if n.endswith(".lease")]
    left = queue.pending()
    failed = queue.failed()
    ctx.tally.op(
        not (leases or left or failed),
        f"{where}: queue not drained: {len(left)} pending, "
        f"{len(failed)} failed, lease files {leases}",
    )


def run_dispatch(ctx: Ctx) -> Dict[str, float]:
    import catalog
    import repro.store.dispatch as dispatch_mod
    import repro.store.store as store_mod
    from repro.harness.campaign import execute_cell
    from repro.harness.runner import RunResult
    from repro.store.dispatch import WorkQueue, run_worker
    from repro.store.io import REAL_FS
    from repro.store.store import ResultStore

    blocks = catalog.trivial_blocks(ctx.rng)
    setups: List[float] = []
    batches: List[Dict[str, object]] = []
    claims = {"retired": 0, "hits": 0, "batches": 0}
    # One store for the run; every batch adds cells it has never held.
    store = ResultStore(ctx.scratch("store"))

    def one_batch(timers: Optional[_Timers] = None) -> None:
        n = claims["batches"]
        claims["batches"] += 1
        pre = blocks[2 * n + 1][:BATCH_PREPUBLISHED]
        labels = blocks[2 * n] + pre
        ctx.rng.shuffle(labels)
        t0 = time.perf_counter()
        queue = WorkQueue(ctx.scratch(f"queue{n}"))
        for lbl in pre:
            cell = catalog.cell_for(lbl)
            outcome = execute_cell(cell)
            if isinstance(outcome, RunResult):
                store.put(cell, outcome)
            ctx.check_result(lbl, outcome, "dispatch pre-publish")
        for lbl in labels:
            queue.enqueue(catalog.cell_for(lbl))
        setups.append(time.perf_counter() - t0)

        marks: List[tuple] = []

        def progress(msg: str) -> None:
            marks.append((time.perf_counter(), "already stored" in msg))

        if timers is not None:
            timers.install()
        t_start = time.perf_counter()
        try:
            counters = run_worker(store, queue, progress=progress)
        finally:
            wall = time.perf_counter() - t_start
            if timers is not None:
                timers.restore()
        hit_ms: List[float] = []
        miss_ms: List[float] = []
        prev = t_start
        for t, hit in marks:
            (hit_ms if hit else miss_ms).append((t - prev) * 1e3)
            prev = t
        want = {"ran": len(labels) - len(pre), "store_hits": len(pre)}
        ctx.tally.op(
            all(counters[k] == want.get(k, 0) for k in counters),
            f"dispatch: worker counters {counters}, expected {want}",
        )
        miss_cycles = 0
        for lbl in labels:
            entry = store.get_cell(catalog.cell_for(lbl))
            if entry is None:
                ctx.tally.op(False, f"dispatch: {lbl} not published")
                continue
            ctx.check(lbl, entry.fingerprint, entry.cycles, "dispatch store entry")
            if lbl not in pre:
                miss_cycles += entry.cycles
        _no_leases(ctx, queue, "dispatch")
        claims["retired"] += counters["ran"] + counters["store_hits"]
        claims["hits"] += counters["store_hits"]
        batches.append(
            {
                "wall": wall,
                "cells": len(labels),
                "queries": len(labels),
                "miss_cycles": miss_cycles,
                "hit_ms": hit_ms,
                "miss_ms": miss_ms,
            }
        )

    if not ctx.trace:
        _timed_units(ctx, one_batch, None)
        return _e2e(ctx, setups, batches, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    _timed_units(ctx, one_batch, TRACE_UNITS["dispatch"])
    untraced = statistics.median(b["wall"] for b in batches)
    batches.clear()
    claims.update(retired=0, hits=0)
    timers = _Timers(
        [
            (WorkQueue, "claim", "claim"),
            (WorkQueue, "complete", "complete"),
            (ResultStore, "put", "put"),
            (ResultStore, "get", "get"),
            (ResultStore, "contains", "get"),
            # run_worker and the store reach these through module globals.
            (dispatch_mod, "execute_cell", "execute"),
            (dispatch_mod, "write_atomic", "write_atomic"),
            (store_mod, "write_atomic", "write_atomic"),
            (REAL_FS, "fsync", "fsync"),
            (REAL_FS, "fsync_dir", "fsync"),
            (REAL_FS, "unlink", "unlink"),
        ]
    )
    _timed_units(ctx, lambda: one_batch(timers), TRACE_UNITS["dispatch"])
    traced = statistics.median(b["wall"] for b in batches)
    cells = claims["retired"]
    out = {"dispatch.store_hits": claims["hits"], "trace.overhead_ratio": traced / untraced}
    # A timer that never fired leaves its metrics out (and the run fails).
    for metric, timer in (
        ("dispatch.complete_ms", "complete"),
        ("dispatch.claim_ms", "claim"),
        ("store.put_ms", "put"),
        ("store.get_ms", "get"),
        ("harness.execute_ms", "execute"),
    ):
        if timers.n(timer):
            out[metric] = timers.ms(timer) / timers.n(timer)
    for metric, value in (
        ("io.fsync_calls", timers.n("fsync")),
        ("io.unlink_calls", timers.n("unlink")),
        ("io.unlink_ms", timers.ms("unlink")),
        ("io.write_atomic_ms", timers.ms("write_atomic")),
    ):
        if value:
            out[metric] = value / cells
    if timers.n("claim"):
        out["dispatch.claim_yield"] = cells / timers.n("claim")
    return out


# ----------------------------------------------------------------------
# serve: `python -m repro serve` over HTTP, two closed-loop clients
# ----------------------------------------------------------------------


class Server:
    """One ``python -m repro serve`` child on a fresh, pre-warmed store."""

    def __init__(self, ctx: Ctx, name: str, warm: List[str], obs_log: Optional[str]) -> None:
        import catalog
        from repro.harness.campaign import execute_cell
        from repro.harness.runner import RunResult
        from repro.store.store import ResultStore

        # The pool's forkserver binds a Unix socket (at most 107 bytes of
        # path) at TMPDIR/pymp-XXXXXXXX/listener-XXXXXXXX.
        if len(ctx.tmp) > 107 - 32:
            raise RuntimeError(f"checkout path too long for a Unix socket under {ctx.tmp}")
        self.root = ctx.scratch(name)
        self.store_dir = os.path.join(self.root, "store")
        store = ResultStore(self.store_dir)
        for lbl in warm:
            cell = catalog.cell_for(lbl)
            outcome = execute_cell(cell)
            if isinstance(outcome, RunResult):
                store.put(cell, outcome)
            ctx.check_result(lbl, outcome, "serve pre-warm")
        self.maxrss_kb = 0
        self.returncode: Optional[int] = None
        self.leftover = False
        self.stderr_path = os.path.join(self.root, "stderr.log")
        cmd = [sys.executable, "-m", "repro", "serve", "--store", self.store_dir,
               "--port", "0", "--jobs", str(CLIENTS)]
        if obs_log is not None:
            cmd += ["--obs-log", obs_log]
        env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=ctx.tmp, PYTHONUNBUFFERED="1")
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=err,
                env=env,
                cwd=self.root,
                start_new_session=True,
            )
        self.port = self._await_port()

    def _await_port(self) -> int:
        found: Dict[str, int] = {}

        def read() -> None:
            for raw in self.proc.stdout:
                line = raw.decode("utf-8", "replace")
                if "listening on http://" in line:
                    found["port"] = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=60)
        if "port" not in found:
            self.stop()
            raise RuntimeError(f"serve did not start; see {self.stderr_path}")
        return found["port"]

    def exchange(self, request: bytes) -> bytes:
        """Send one encoded request; return the raw response.

        A bare socket keeps the client's own work per request to a few
        system calls, so the time measured is mostly the server's.  Like
        any HTTP client, it stops reading at ``Content-Length`` rather
        than waiting for the server to close the connection.  The server
        takes one request per connection, so a run opens some 200,000
        connections from one address; once the reply is read, the client
        closes with a reset rather than a FIN, which leaves no TIME_WAIT
        socket behind.  Tens of thousands of those would otherwise slow
        every later connect, in this run and in the next minute's runs.
        """
        with socket.create_connection(("127.0.0.1", self.port), timeout=120) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _LINGER_RESET)
            sock.sendall(request)
            raw = b""
            want = None
            while want is None or len(raw) < want:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
                if want is None:
                    want = _response_length(raw)
            return raw

    def request(self, method: str, path: str, body: bytes = b""):
        return http_reply(self.exchange(http_request(method, path, body)))

    def stop(self) -> None:
        """SIGTERM (graceful drain), reap, then wait out the process group.

        The server runs in its own session, so its forkserver, pool
        workers and resource tracker share its process group; all of them
        must be gone before the run may pass.
        """
        if self.returncode is not None:
            return
        pgid = self.proc.pid
        try:
            self.proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 60
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(pgid, signal.SIGKILL)
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.proc.stdout.close()
        self.leftover = _await_group_exit(pgid, 30)

    def stderr(self) -> str:
        with open(self.stderr_path, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()


#: ``SO_LINGER`` on with a zero timeout: ``close`` resets the connection.
_LINGER_RESET = struct.pack("ii", 1, 0)


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def http_reply(raw: bytes):
    """``(status, body)`` of a raw HTTP response; ValueError if it is not one."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    fields = head.split(None, 2)
    if not sep or len(fields) < 2 or not fields[1].isdigit():
        raise ValueError(f"not an HTTP response: {raw[:200]!r}")
    return int(fields[1]), body


def _response_length(raw: bytes) -> Optional[int]:
    """Total length of a response once its head has arrived, else None."""
    end = raw.find(b"\r\n\r\n")
    if end < 0:
        return None
    for line in raw[:end].split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length" and value.strip().isdigit():
            return end + 4 + int(value)
    return None


def _reap_orphans() -> None:
    """Reap any exited descendant this process inherited as subreaper."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _await_group_exit(pgid: int, timeout: float) -> bool:
    """Wait for every process in ``pgid`` to end; kill them if they won't.

    Returns True when something had to be killed (a leak).
    """
    deadline = time.monotonic() + timeout
    while True:
        _reap_orphans()
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return False
            time.sleep(0.2)
            _reap_orphans()
            return True
        time.sleep(0.05)


def _leaked_semaphores(stderr: str) -> int:
    """Semaphores the resource tracker reported leaked at server exit."""
    total = 0
    for line in stderr.splitlines():
        if "leaked semaphore" in line:
            words = line.split()
            counts = [int(w) for w in words if w.isdigit()]
            total += counts[0] if counts else 1
    return total


def run_serve(ctx: Ctx) -> Dict[str, float]:
    import catalog

    # Hits ask for the 16 cells at 64 trips, one per (benchmark, point).
    # New cells are ``fir`` cells, whose simulations all take a few
    # milliseconds (``wc`` on EXISTING/MEMOPTI takes ten times longer, and
    # such a minority of slow misses would put the 90th percentile on a
    # cliff).  They are asked for in block order, so any run of misses
    # carries about the same simulation work whatever the seed.
    warm = [lbl for lbl in catalog.trivial_labels() if lbl.endswith("/64")]
    fresh = [lbl for block in catalog.trivial_blocks(ctx.rng, ("fir",)) for lbl in block]
    fresh.reverse()
    queries = {
        lbl: http_request(
            "POST", "/query", json.dumps({"queries": [catalog.query_for(lbl)]}).encode()
        )
        for lbl in warm + fresh
    }
    setups: List[float] = []
    servers: List[Server] = []

    def answer_ok(lbl: str, raw: bytes, where: str):
        """Check one raw HTTP answer against the goldens; return it (or None)."""
        try:
            status, body = http_reply(raw)
            answer = json.loads(body)["answers"][0]
        except (ValueError, KeyError, IndexError, TypeError):
            ctx.tally.op(False, f"{where}: {lbl} unreadable answer {raw[:200]!r}")
            return None
        if status != 200 or not answer.get("ok"):
            ctx.tally.op(False, f"{where}: {lbl} status {status}: {answer}")
            return None
        ctx.check(lbl, answer.get("fingerprint"), answer.get("cycles"), where)
        return answer

    def start(name: str, obs_log: Optional[str] = None) -> Server:
        t0 = time.perf_counter()
        server = Server(ctx, name, warm, obs_log)
        servers.append(server)
        # One warm-up miss starts the forkserver pool.
        lbl = fresh.pop()
        answer_ok(lbl, server.exchange(queries[lbl]), "serve warm-up")
        setups.append(time.perf_counter() - t0)
        return server

    def stop(server: Server) -> None:
        server.stop()
        ctx.tally.op(server.returncode == 0, f"serve exited {server.returncode}")
        ctx.tally.op(not server.leftover, "serve left processes behind after SIGTERM")

    rounds: List[Dict[str, object]] = []

    def measure(server: Server, count: Optional[int]) -> None:
        """Closed-loop rounds: both clients start together on a paired miss.

        Clients only send, time and keep each reply; the barrier between
        rounds checks them, off the clock.
        """
        state = {"t": 0.0, "open": False, "stop": False, "started": time.perf_counter()}
        plan: List[List[List[tuple]]] = []  # per round, per client: (label, request)
        replies: List[List[tuple]] = [[] for _ in range(CLIENTS)]

        def plan_round() -> bool:
            """Draw the next round's queries; False when new cells run out.

            Each client asks the round's paired miss first, then new cells
            of its own at seeded positions among its warm-cell hits.
            """
            if len(fresh) < 1 + CLIENTS * OWN_MISSES:
                return False
            paired = fresh.pop()
            per_client = []
            for _ in range(CLIENTS):
                qs = [ctx.rng.choice(warm) for _ in range(ROUND_QUERIES - 1)]
                for pos in ctx.rng.sample(range(len(qs)), OWN_MISSES):
                    qs[pos] = fresh.pop()
                per_client.append([(lbl, queries[lbl]) for lbl in [paired] + qs])
            plan.append(per_client)
            return True

        def settle(record: Dict[str, float]) -> None:
            """Check the finished round's replies and file their latencies."""
            labels = set()
            for got in replies:
                for lbl, raw, dt in got:
                    labels.add(lbl)
                    answer = answer_ok(lbl, raw, "serve")
                    if answer is None:
                        continue
                    if answer.get("hit"):
                        record["hit_ms"].append(dt)
                    else:
                        record["miss_ms"].append(dt)
                        if not answer.get("coalesced"):
                            record["miss_cycles"] += answer["cycles"]
                got.clear()
            record["cells"] = len(labels)

        def at_barrier() -> None:
            now = time.perf_counter()
            if state["open"]:
                rounds[-1]["wall"] = now - state["t"]
                settle(rounds[-1])
                state["open"] = False
            if count is not None:
                more = len(plan) < count
            else:
                more = now - state["started"] < ctx.seconds
            if not more or not plan_round():
                state["stop"] = True
                return
            rounds.append(
                {"queries": CLIENTS * ROUND_QUERIES, "miss_cycles": 0, "hit_ms": [], "miss_ms": []}
            )
            state["open"] = True
            state["t"] = time.perf_counter()

        barrier = threading.Barrier(CLIENTS, action=at_barrier, timeout=300)
        errors: List[BaseException] = []

        def client(i: int) -> None:
            got = replies[i]
            try:
                while True:
                    barrier.wait()
                    if state["stop"]:
                        return
                    for lbl, request in plan[-1][i]:
                        t0 = time.perf_counter()
                        raw = server.exchange(request)
                        got.append((lbl, raw, (time.perf_counter() - t0) * 1e3))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    try:
        if not ctx.trace:
            for i in range(SETUPS):
                server = start(f"serve{i}")
                if i < SETUPS - 1:
                    stop(server)
            measure(server, None)
            stop(server)
            return _e2e(ctx, setups, rounds, server.maxrss_kb)

        server = start("plain")
        measure(server, TRACE_UNITS["serve"])
        stop(server)
        untraced = statistics.median(r["wall"] for r in rounds)
        rounds.clear()
        obs_log = os.path.join(ctx.tmp, "obs.jsonl")
        server = start("traced", obs_log=obs_log)
        measure(server, TRACE_UNITS["serve"])
        traced = statistics.median(r["wall"] for r in rounds)
        status, raw = server.request("GET", "/metrics.json")
        snap = json.loads(raw).get("serve", {}) if status == 200 else {}
        stop(server)
        out = _span_layers(obs_log)
        # A counter the snapshot lacks stays out of the result (and the
        # run fails).
        for name in ("coalesced", "shed", "errors", "timeouts"):
            if name in snap:
                out[f"serve.{name}"] = snap[name]
        if snap.get("queries"):
            out["serve.hit_ratio"] = snap.get("hits", 0) / snap["queries"]
        out["serve.leaked_semaphores"] = _leaked_semaphores(server.stderr())
        out["trace.overhead_ratio"] = traced / untraced
        return out
    finally:
        for server in servers:
            if server.returncode is None:
                stop(server)


def _span_layers(obs_log: str) -> Dict[str, float]:
    """Per-query span medians from the server's event log, via ``rollup``."""
    from repro.obs.events import read_events
    from repro.obs.spans import rollup

    by_cid: Dict[str, List[dict]] = {}
    for event in read_events(obs_log):
        cid = event.get("cid")
        if isinstance(cid, str):
            by_cid.setdefault(cid, []).append(event)
    samples: Dict[str, List[float]] = {
        "store.lookup.ms_p50": [],
        "serve.query.self_ms_p50": [],
        "dispatch.wait.ms_p50": [],
        "sim.run.ms_p50": [],
        "store.publish.ms_p50": [],
    }
    for events in by_cid.values():
        summary = rollup(events)
        for span_name, metric, field in (
            ("store.lookup", "store.lookup.ms_p50", "total_s"),
            ("serve.query", "serve.query.self_ms_p50", "self_s"),
            ("dispatch.wait", "dispatch.wait.ms_p50", "total_s"),
            ("sim.run", "sim.run.ms_p50", "total_s"),
            ("store.publish", "store.publish.ms_p50", "total_s"),
        ):
            row = summary.get(span_name)
            if row and row["count"]:
                samples[metric].append(row[field] / row["count"] * 1e3)
    return {k: statistics.median(v) for k, v in samples.items() if v}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

WORKLOADS = {"sweep": run_sweep, "dispatch": run_dispatch, "serve": run_serve}


def _become_subreaper() -> None:
    """Inherit orphaned descendants, so none can outlive the run unseen."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    pids: List[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "children"), encoding="ascii") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


def _no_children_left(tally: Tally) -> None:
    """Fail the run for any child still alive; stop and reap it."""
    deadline = time.monotonic() + 10
    while True:
        _reap_orphans()
        alive = _children()
        if not alive:
            return
        if time.monotonic() > deadline:
            break
        time.sleep(0.05)
    tally.fail(f"child processes outlived the run: {alive}")
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in alive:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and path.startswith(parts[1]) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def _print_exhibits(got: Dict[str, object]) -> None:
    import catalog

    print(
        "perfbench exhibits (model unvalidated against hardware): "
        f"Figure 9 HEAVYWT geomean speedup {got['figure9_geomean']:.3f}x "
        f"(paper {catalog.PAPER_FIG9_GEOMEAN}x); "
        f"Figure 7 order {' < '.join(got['figure7_order'])} "
        "(paper: HEAVYWT best, then SYNCOPTI, then EXISTING/MEMOPTI); "
        f"SC+Q64 vs HEAVYWT {got['sc_q64_vs_heavywt']:.3f} "
        f"(paper within 2%, i.e. <= {catalog.PAPER_SC_Q64_VS_HEAVYWT})"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail_usage(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)

    import catalog
    from repro.sim.config import MachineConfig

    _become_subreaper()
    goldens = catalog.load_goldens()
    tmp = os.path.join(ROOT, ".pbtmp", str(os.getpid()))
    os.makedirs(tmp)
    ctx = Ctx(args, goldens, tmp)
    try:
        metrics = WORKLOADS[args.workload](ctx)
    finally:
        _no_children_left(ctx.tally)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run's scratch is still there
        # Commit the removals before exiting, so their cost lands in this
        # run's exit rather than in the next run's measured phase.
        fd = os.open(ROOT, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    print(
        json.dumps(
            {
                "perfbench_host": {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "python": sys.version.split()[0],
                    "nproc": os.cpu_count(),
                    "tmp_fs": _fs_type(tmp),
                    "default_kernel": MachineConfig().kernel,
                    # The goldens' hash-seed variants this run's outputs fit
                    # (0: the PYTHONHASHSEED=0 results); README.md, "Known defect".
                    "hash_seed_variants": sorted(goldens.left),
                }
            }
        )
    )
    if "samples" in ctx.info:
        print(json.dumps({"perfbench_samples": ctx.info["samples"]}))
    if "exhibits" in ctx.info:
        _print_exhibits(ctx.info["exhibits"])
    if args.trace:
        units = {**LAYER_UNITS, **TRACED[args.workload]}
        own = set(TRACED[args.workload]) | {"trace.overhead_ratio"}
        own -= OPTIONAL_TRACED.get(args.workload, set())
    else:
        units = own = E2E_UNITS
    out = {}
    for name, unit in units.items():
        if name in own:
            ctx.tally.op(name in metrics, f"{args.workload} did not measure {name}")
        out[name] = {"value": metrics.get(name, 0), "unit": unit}
    for note, times in ctx.tally.notes.items():
        print(f"perfbench FAILED ({times}x): {note}", file=sys.stderr)
    correct = ctx.tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ctx.tally.attempted,
                "failed": ctx.tally.failed,
                "metrics": out,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
