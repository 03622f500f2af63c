"""The process-wide obs gate: configure/shutdown, the zero-overhead
contract, and ContextVar correlation-ID propagation."""

import asyncio

import pytest

from repro.obs import runtime
from repro.obs.registry import MetricsRegistry


@pytest.fixture(autouse=True)
def clean_state():
    runtime.shutdown()
    yield
    runtime.shutdown()


def test_disabled_by_default():
    assert not runtime.active()
    assert runtime.get_state() is None
    runtime.emit("dropped", cid="x")  # no-op, no error, no file


def test_configure_activates_and_shutdown_closes(tmp_path):
    path = str(tmp_path / "obs.jsonl")
    state = runtime.configure(log_path=path)
    assert runtime.active() and runtime.get_state() is state
    runtime.emit("hello", cid="abc", n=1)
    runtime.shutdown()
    assert not runtime.active()
    from repro.obs.events import read_events

    (event,) = read_events(path)
    assert event["event"] == "hello" and event["cid"] == "abc"


def test_metrics_only_mode():
    state = runtime.configure(registry=MetricsRegistry())
    assert state.log is None
    runtime.emit("nowhere")  # silently dropped: no log configured
    state.registry.counter("repro_x_total").inc()
    assert state.registry.counter("repro_x_total").value == 1


def test_reconfigure_same_path_reuses_log(tmp_path):
    path = str(tmp_path / "obs.jsonl")
    first = runtime.configure(log_path=path)
    second = runtime.configure(log_path=path)
    assert second.log is first.log  # the open O_APPEND fd is kept
    third = runtime.configure(log_path=str(tmp_path / "other.jsonl"))
    assert third.log is not first.log


def test_cid_contextvar_roundtrip():
    assert runtime.current_cid() is None
    token = runtime.set_cid("abc123")
    assert runtime.current_cid() == "abc123"
    runtime.reset_cid(token)
    assert runtime.current_cid() is None


def test_cid_copied_into_asyncio_tasks():
    """Tasks snapshot the ambient context at creation — the coalescing
    semantics: the task minted for the first miss keeps that query's cid."""

    async def main():
        token = runtime.set_cid("first")
        task = asyncio.ensure_future(child())
        runtime.reset_cid(token)
        runtime.set_cid("second")
        return await task

    async def child():
        return runtime.current_cid()

    assert asyncio.run(main()) == "first"


def test_observe_run_feeds_registry_and_log(tmp_path):
    from repro.harness.campaign import CampaignCell, execute_cell
    from repro.obs.events import read_events

    state = runtime.configure(
        log_path=str(tmp_path / "obs.jsonl"), registry=MetricsRegistry()
    )
    token = runtime.set_cid("cellcid")
    try:
        outcome = execute_cell(
            CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=48)
        )
    finally:
        runtime.reset_cid(token)
    assert outcome.ok
    hist = state.registry.histogram(
        "repro_sim_cycles_per_sec", kernel="event"
    )
    assert hist.snapshot()["count"] == 1
    runs = state.registry.counter("repro_sim_runs_total", kernel="event")
    assert runs.value == 1
    kernel_events = [
        e for e in read_events(str(tmp_path / "obs.jsonl"))
        if e["event"] == "kernel.run"
    ]
    assert len(kernel_events) == 1
    assert kernel_events[0]["cid"] == "cellcid"
    assert kernel_events[0]["cycles"] == outcome.cycles


def test_observe_run_disabled_is_free(tmp_path):
    """With obs off the machine runs identically and writes nothing."""
    from repro.harness.campaign import CampaignCell, execute_cell

    outcome = execute_cell(
        CampaignCell(benchmark="wc", design_point="EXISTING", trip_count=48)
    )
    assert outcome.ok
    assert not list(tmp_path.iterdir())
