"""Tests for Program validation and Machine plumbing."""

import pytest

from repro.sim import isa
from repro.sim.config import baseline_config
from repro.sim.machine import Machine, run_program
from repro.sim.program import Program, ThreadProgram


def empty_thread(name="t"):
    return ThreadProgram(name, lambda: iter([]))


class TestProgram:
    def test_requires_threads(self):
        with pytest.raises(ValueError):
            Program("p", [])

    def test_endpoint_range_checked(self):
        with pytest.raises(ValueError):
            Program("p", [empty_thread()], {0: (0, 1)})

    def test_endpoints_must_differ(self):
        with pytest.raises(ValueError):
            Program("p", [empty_thread("a"), empty_thread("b")], {0: (1, 1)})

    def test_single_threaded_flag(self):
        assert Program("p", [empty_thread()]).is_single_threaded()
        assert not Program(
            "p", [empty_thread("a"), empty_thread("b")]
        ).is_single_threaded()

    def test_builders_fresh_iterators(self):
        prog = Program(
            "p", [ThreadProgram("t", lambda: iter([isa.ialu(1)]))]
        )
        assert len(list(prog.threads[0].instructions())) == 1
        assert len(list(prog.threads[0].instructions())) == 1


class TestMachine:
    def test_channel_lazy_creation(self):
        m = Machine(baseline_config(), mechanism="heavywt")
        ch = m.channel(5)
        assert ch is m.channel(5)
        assert ch.queue_id == 5

    def test_channel_bounds_checked(self):
        m = Machine(baseline_config(), mechanism="heavywt")
        with pytest.raises(ValueError):
            m.channel(64)  # n_queues = 64, ids 0..63

    def test_channel_layout_follows_mechanism(self):
        ex = Machine(baseline_config(), mechanism="existing")
        hw = Machine(baseline_config(), mechanism="heavywt")
        assert ex.channel(0).layout.flag_bytes == 8
        assert hw.channel(0).layout.flag_bytes == 0

    def test_run_program_helper(self):
        prog = Program("p", [ThreadProgram("t", lambda: iter([isa.ialu(1)]))])
        stats = run_program(baseline_config(), "heavywt", prog)
        assert stats.threads[0].app_instructions == 1

    def test_too_many_threads_error_names_program_and_fix(self):
        prog = Program(
            "triple-stage", [empty_thread(f"t{i}") for i in range(3)]
        )
        m = Machine(baseline_config(), mechanism="heavywt")
        with pytest.raises(ValueError) as excinfo:
            m.run(prog)
        message = str(excinfo.value)
        assert "triple-stage" in message
        assert "3 threads" in message
        assert "n_cores=3" in message

    def test_enough_cores_accepts_wide_program(self):
        prog = Program(
            "triple-stage", [empty_thread(f"t{i}") for i in range(3)]
        )
        m = Machine(baseline_config().copy(n_cores=3), mechanism="heavywt")
        stats = m.run(prog)
        assert len(stats.threads) == 3

    def test_endpoints_applied_to_channels(self):
        def producer():
            yield isa.ialu(1)
            yield isa.produce(7, 1)

        def consumer():
            yield isa.consume(2, 7)

        prog = Program(
            "p",
            [ThreadProgram("p", producer), ThreadProgram("c", consumer)],
            {7: (0, 1)},
        )
        m = Machine(baseline_config(), mechanism="heavywt")
        m.run(prog)
        assert m.channels[7].producer_core == 0
        assert m.channels[7].consumer_core == 1

    def test_max_steps_guard(self):
        from repro.sim.kernel import SimulationLimitError

        def spammy():
            for i in range(100_000):
                yield isa.ialu(1)

        prog = Program("p", [ThreadProgram("t", spammy)])
        m = Machine(baseline_config(), mechanism="heavywt")
        with pytest.raises(SimulationLimitError):
            m.run(prog, max_steps=10)
