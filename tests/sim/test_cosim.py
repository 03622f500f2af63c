"""Unit tests for the min-timestamp co-simulation scheduler."""

import pytest

from repro.sim.kernel import DeadlockError, ReferenceKernel, SimulationLimitError
from repro.sim.forensics import ChannelDump


def test_single_generator_runs_to_completion():
    log = []

    def gen():
        log.append("a")
        yield ("time", 1.0)
        log.append("b")

    ReferenceKernel([gen()]).run()
    assert log == ["a", "b"]


def test_min_timestamp_ordering():
    """The scheduler must always advance the core with the smaller clock."""
    order = []

    def fast():
        for t in (1.0, 2.0, 3.0):
            order.append(("fast", t))
            yield ("time", t)

    def slow():
        for t in (10.0, 20.0):
            order.append(("slow", t))
            yield ("time", t)

    ReferenceKernel([fast(), slow()]).run()
    # slow's first step happens at time 0 (both start at 0), but after its
    # clock hits 10 the fast core must be drained first.
    assert order.index(("fast", 3.0)) < order.index(("slow", 20.0))


def test_block_wakes_on_predicate():
    items = []
    log = []

    def producer():
        yield ("time", 5.0)
        items.append(42)
        yield ("time", 6.0)

    def consumer():
        status = yield ("block", lambda: len(items) > 0, None)
        log.append(status)
        yield ("time", 7.0)

    ReferenceKernel([producer(), consumer()]).run()
    assert log == ["ok"]


def test_block_already_satisfied_resumes_immediately():
    log = []

    def gen():
        status = yield ("block", lambda: True, None)
        log.append(status)

    ReferenceKernel([gen()]).run()
    assert log == ["ok"]


def test_timeout_fires_when_all_blocked():
    log = []

    def waiter():
        status = yield ("block", lambda: False, 100.0)
        log.append(status)

    ReferenceKernel([waiter()]).run()
    assert log == ["timeout"]


def test_timeout_fires_when_peer_past_deadline():
    log = []
    items = []

    def slow_producer():
        yield ("time", 1000.0)  # sails past the deadline without producing
        items.append(1)

    def consumer():
        status = yield ("block", lambda: len(items) > 0, 50.0)
        log.append(status)
        yield ("time", 51.0)

    ReferenceKernel([slow_producer(), consumer()]).run()
    assert log == ["timeout"]


def test_deadlock_detected():
    def a():
        yield ("block", lambda: False, None)

    def b():
        yield ("block", lambda: False, None)

    with pytest.raises(DeadlockError):
        ReferenceKernel([a(), b()]).run()


def test_step_budget_enforced():
    def runaway():
        while True:
            yield ("time", 0.0)

    with pytest.raises(SimulationLimitError):
        ReferenceKernel([runaway()], max_steps=100).run()


def test_malformed_message_rejected():
    def bad():
        yield "not-a-tuple"

    with pytest.raises(TypeError):
        ReferenceKernel([bad()]).run()


def test_unknown_message_rejected():
    def bad():
        yield ("bogus", 1)

    with pytest.raises(ValueError):
        ReferenceKernel([bad()]).run()


def test_earliest_deadline_fires_first():
    log = []

    def w(name, deadline):
        status = yield ("block", lambda: len(log) >= 2, deadline)
        log.append((name, status))

    # Both blocked; deadline 10 must fire before deadline 20.
    ReferenceKernel([w("late", 20.0), w("early", 10.0)]).run()
    assert log[0][0] == "early"


def test_equal_deadlines_fire_lowest_core_id_first():
    """Tie-break: min() is stable over core-id order, so with identical
    deadlines the lowest core id must time out first — a determinism
    guarantee fault-injection sweeps rely on."""
    log = []

    def w(name):
        status = yield ("block", lambda: len(log) >= 2, 10.0)
        log.append((name, status))

    ReferenceKernel([w("core0"), w("core1"), w("core2")]).run()
    assert [name for name, _ in log] == ["core0", "core1", "core2"]
    assert all(status == "timeout" for _, status in log[:2])


def test_already_satisfied_predicate_skips_blocking():
    """The _step fast path must answer "ok" without parking the runner:
    the predicate is evaluated exactly once and never re-polled."""
    calls = []

    def spy():
        calls.append(1)
        return True

    statuses = []

    def gen():
        statuses.append((yield ("block", spy, None)))
        yield ("time", 1.0)

    ReferenceKernel([gen()]).run()
    assert statuses == ["ok"]
    assert len(calls) == 1


def test_deadlock_post_mortem_contents():
    def blocked():
        yield ("time", 5.0)
        yield ("block", lambda: False, None)

    def done():
        yield ("time", 1.0)

    with pytest.raises(DeadlockError) as excinfo:
        ReferenceKernel([blocked(), done(), blocked()]).run()
    pm = excinfo.value.post_mortem
    assert pm is not None
    assert pm.reason == "deadlock"
    assert pm.blocked_cores() == [0, 2]
    states = {c.core_id: c.state for c in pm.cores}
    assert states == {0: "blocked", 1: "done", 2: "blocked"}
    assert all(c.last_progress_step > 0 for c in pm.cores)
    # The rendered report rides in the exception message too.
    assert "post-mortem (deadlock" in str(excinfo.value)


def test_limit_post_mortem_and_context_probe():
    sentinel_channel = ChannelDump(
        queue_id=3,
        producer_core=0,
        consumer_core=1,
        depth=32,
        n_produced=40,
        n_consumed=8,
        n_published=40,
        n_freed=8,
    )

    def probe():
        return [sentinel_channel], ["inj-record"]

    def runaway():
        while True:
            yield ("time", 0.0)

    with pytest.raises(SimulationLimitError) as excinfo:
        ReferenceKernel([runaway()], max_steps=50, context_probe=probe).run()
    pm = excinfo.value.post_mortem
    assert pm.reason == "step-limit"
    assert pm.total_steps == 51
    assert pm.channels == [sentinel_channel]
    assert pm.injections == ["inj-record"]
    assert "queue 3" in pm.render()


def test_deadlock_without_probe_has_empty_context():
    def blocked():
        yield ("block", lambda: False, None)

    with pytest.raises(DeadlockError) as excinfo:
        ReferenceKernel([blocked()]).run()
    pm = excinfo.value.post_mortem
    assert pm.channels == [] and pm.injections == []
    assert "no queue channels" in pm.render()


def test_two_way_handshake():
    """Producer blocks on consumer progress and vice versa."""
    produced, consumed = [], []

    def producer():
        for i in range(5):
            produced.append(i)
            yield ("time", float(len(produced)))
            status = yield ("block", lambda i=i: len(consumed) > i, None)
            assert status == "ok"

    def consumer():
        for i in range(5):
            status = yield ("block", lambda i=i: len(produced) > i, None)
            assert status == "ok"
            consumed.append(i)
            yield ("time", float(len(consumed)))

    ReferenceKernel([producer(), consumer()]).run()
    assert produced == consumed == [0, 1, 2, 3, 4]
