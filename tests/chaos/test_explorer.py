"""Tests for the crash-point explorer (``repro.chaos.explorer``).

Two kinds of assurance: the standard fleet operations pass the full
drill (the regression surface), and — the meta-capability — a
deliberately broken durable-write protocol IS caught.  An explorer that
can only ever say "ok" proves nothing; the broken-op test keeps it
honest.
"""

import os

from repro.chaos import (
    CRASH_MODES,
    ChaosOperation,
    explore,
    standard_operations,
)


class TestStandardDrill:
    def test_full_drill_passes(self, tmp_path):
        report = explore(root=str(tmp_path))
        assert report.ok, report.render()
        names = [op.name for op in report.operations]
        assert names == [
            "store-publish",
            "worker-commit",
            "lease-claim",
            "lease-reclaim",
            "ledger-append",
            "snapshot-rotate",
        ]
        for op in report.operations:
            # Every operation has crash points and every trial crashed
            # (the golden pass is separate from the trials).
            assert len(op.sites) > 0
            assert op.trials > 0
            assert op.crashes == op.trials
        assert "DRILL PASSED" in report.render()

    def test_mode_subset(self, tmp_path):
        report = explore(
            operations=[standard_operations()[2]],  # lease-claim: cheapest
            root=str(tmp_path),
            modes=("kill",),
        )
        assert report.ok, report.render()
        (op,) = report.operations
        # kill-only: one trial per site.
        assert op.trials == len(op.sites)

    def test_progress_callback(self, tmp_path):
        lines = []
        explore(
            operations=[standard_operations()[2]],
            root=str(tmp_path),
            modes=("kill",),
            progress=lines.append,
        )
        assert any("lease-claim" in line for line in lines)

    def test_trial_cleanup_is_timed(self, tmp_path, monkeypatch):
        """Removing each trial's world is part of the drill's cost: a slow
        ``rmtree`` shows in every trial's time and in the summed total."""
        import shutil
        import time

        from repro.chaos import explorer

        real_rmtree = shutil.rmtree

        def slow_rmtree(path, *args, **kwargs):
            time.sleep(0.05)
            real_rmtree(path, *args, **kwargs)

        monkeypatch.setattr(explorer.shutil, "rmtree", slow_rmtree)
        report = explore(
            operations=[standard_operations()[2]],
            root=str(tmp_path),
            modes=("kill",),
        )
        (op,) = report.operations
        trials = [t for t in op.timings if t.site >= 0]
        assert len(trials) == op.trials > 0
        for timing in trials:
            assert timing.cleanup >= 0.05
            assert timing.total == timing.seconds + timing.cleanup
        assert op.trial_seconds >= 0.05 * op.trials
        assert f"{op.trial_seconds:.1f}s in trials" in report.render()


class TestMetaCapability:
    """The explorer must catch protocols that skip the durability steps."""

    def test_missing_fsync_is_caught_by_the_power_model(self, tmp_path):
        # A "ledger" that appends without fsync, acknowledges, then does
        # unrelated durable work.  A power crash during the later work
        # reverts the unsynced append — an acknowledged-record loss the
        # explorer must flag.
        def setup(h):
            pass

        def run(h):
            path = h.ledger_path()
            fd = h.fs.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            h.fs.write(fd, b"record\n")
            h.fs.close(fd)  # no fsync, no dir fsync
            h.notes["acked"] = True
            # Later durable work gives the crash somewhere to land
            # after the premature acknowledgement.
            other = os.path.join(h.root, "other")
            fd = h.fs.open(other, os.O_WRONLY | os.O_CREAT)
            h.fs.write(fd, b"x")
            h.fs.fsync(fd)
            h.fs.close(fd)

        def check(h):
            if not h.notes.get("acked"):
                return []
            try:
                with open(h.ledger_path(), "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                data = b""
            if data != b"record\n":
                return ["acknowledged record lost after restart"]
            return []

        broken = ChaosOperation(
            name="broken-append", setup=setup, run=run, check=check
        )
        report = explore(
            operations=[broken], root=str(tmp_path), modes=("power",)
        )
        assert not report.ok
        assert any(
            "acknowledged record lost" in v.message
            for v in report.violations
        )

    def test_correct_protocol_passes_the_same_gauntlet(self, tmp_path):
        # The fixed version of the same protocol — fsync before the ack —
        # survives every crash model.  Pairing the two pins the blame on
        # the missing fsync, not on an over-eager explorer.
        def setup(h):
            pass

        def run(h):
            path = h.ledger_path()
            fd = h.fs.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            h.fs.write(fd, b"record\n")
            h.fs.fsync(fd)
            h.fs.close(fd)
            h.notes["acked"] = True
            other = os.path.join(h.root, "other")
            fd = h.fs.open(other, os.O_WRONLY | os.O_CREAT)
            h.fs.write(fd, b"x")
            h.fs.fsync(fd)
            h.fs.close(fd)

        def check(h):
            if not h.notes.get("acked"):
                return []
            with open(h.ledger_path(), "rb") as fh:
                if fh.read() != b"record\n":
                    return ["acknowledged record lost after restart"]
            return []

        fixed = ChaosOperation(
            name="fixed-append", setup=setup, run=run, check=check
        )
        report = explore(
            operations=[fixed], root=str(tmp_path), modes=CRASH_MODES
        )
        assert report.ok, report.render()
