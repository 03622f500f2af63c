"""Checks of the benchmark itself: its output check must be able to fail.

Each test runs the benchmark in a copy of ``perfbench/`` (and
``BENCHMARK.json``) under a temporary directory, next to a link to the
repository's ``src``, so a golden can be corrupted without touching the
committed one.  Run from the repository root (takes a few minutes)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import catalog  # noqa: E402
import run  # noqa: E402
from repro.harness.experiments import EXPERIMENT_TRIPS  # noqa: E402

SEED = 5
WORKLOADS = tuple(run.WORKLOADS)


@pytest.fixture
def short_tmp():
    """A short temporary directory: ``serve`` binds Unix sockets below it."""
    path = tempfile.mkdtemp(prefix="pb")
    yield pathlib.Path(path)
    shutil.rmtree(path, ignore_errors=True)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _checkout(root, with_src=True):
    """A copy of the benchmark in ``root``; returns its goldens path."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), root / "src")
    return root / "perfbench" / "goldens.json"


def _run(workload, cwd, trace=0, hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=175,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _victim(workload):
    """A golden the workload checks, and the failure note it must cause.

    ``dispatch``: the first cell of its first batch (the runner's random
    stream starts with the same draw).  ``serve``: a warm cell, which the
    hits ask for over HTTP.  ``sweep``: a HEAVYWT cell of the paper grid,
    whose cycles feed the Figure 9 and Figure 7 exhibits too.
    """
    if workload == "dispatch":
        lbl = catalog.trivial_blocks(random.Random(SEED))[0][0]
        return lbl, [f"dispatch store entry: {lbl} "]
    if workload == "serve":
        lbl = "fir/HEAVYWT/64"
        return lbl, [f"serve: {lbl} "]
    lbl = catalog.label("wc", "HEAVYWT", EXPERIMENT_TRIPS["wc"])
    return lbl, [f"sweep: {lbl} ", "sweep exhibits "]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_golden_fails_the_run(short_tmp, workload):
    goldens = _checkout(short_tmp)
    doc = json.loads(goldens.read_text())
    victim, notes = _victim(workload)
    fingerprint, cycles = doc["cells"][victim]
    if workload == "sweep":
        doc["cells"][victim] = [fingerprint, cycles * 2]
    else:
        doc["cells"][victim] = [fingerprint[::-1], cycles]
    goldens.write_text(json.dumps(doc))

    proc, result = _run(workload, short_tmp)

    assert proc.returncode == 1, proc.stderr
    assert result["correct"] is False
    assert result["failed"] >= 1
    for note in notes:
        assert note in proc.stderr


def test_goldens_accept_one_hash_seed_variant_per_process():
    goldens = catalog.Goldens(
        {"a": ("fa", 1), "b": ("fb", 2), "c": ("fc", 3)},
        [{"a": ("va", 1), "b": ("vb", 2)}],
    )
    assert goldens.check("c", "fc", 3)
    assert goldens.left == {0, 1}
    assert goldens.check("a", "va", 1)
    assert goldens.left == {1}
    # The canonical result of another variant cell no longer fits.
    assert not goldens.check("b", "fb", 2)
    assert not goldens.check("c", "fc", 4)
    assert goldens.check("b", "vb", 2)
    assert goldens.wanted("b") == [("vb", 2)]


# PYTHONHASHSEED 0 gives the goldens' own cells and 1 their first variant
# (make_goldens.py takes them from those seeds).
@pytest.mark.parametrize("hash_seed,variant", [("0", 0), ("1", 1)])
def test_sweep_checks_each_hash_seed_variant(short_tmp, hash_seed, variant):
    goldens = _checkout(short_tmp)
    proc, result = _run("sweep", short_tmp, hash_seed=hash_seed)
    assert proc.returncode == 0, proc.stderr
    host = next(json.loads(line)["perfbench_host"] for line in proc.stdout.splitlines()
                if line.startswith('{"perfbench_host"'))
    assert host["hash_seed_variants"] == [variant]

    doc = json.loads(goldens.read_text())
    lbl = catalog.label("mcf", "HEAVYWT", EXPERIMENT_TRIPS["mcf"])
    table = doc["hash_seed_variants"][variant - 1] if variant else doc["cells"]
    fingerprint, cycles = table[lbl]
    table[lbl] = [fingerprint[::-1], cycles]
    goldens.write_text(json.dumps(doc))
    proc, result = _run("sweep", short_tmp, hash_seed=hash_seed)
    assert proc.returncode == 1, proc.stderr
    assert result["failed"] >= 1
    assert f"sweep: {lbl} " in proc.stderr


def test_end_to_end_metric_names_match_benchmark_json(short_tmp):
    _checkout(short_tmp)
    spec = _spec()
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert tuple(w["name"] for w in spec["workloads"]) == run.GATED
    for workload in WORKLOADS:
        proc, result = _run(workload, short_tmp)
        assert result is not None, proc.stderr
        assert _units(result) == want, workload
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metric_names_match_benchmark_json(short_tmp, workload):
    _checkout(short_tmp)
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    if workload not in run.GATED:
        want.update(run.TRACED[workload])
    proc, result = _run(workload, short_tmp, trace=1)
    assert result is not None, proc.stderr
    assert _units(result) == want
    # The run fails on any metric of its own it could not measure.
    assert " did not measure " not in proc.stderr


def test_refuses_to_run_without_the_program(short_tmp):
    _checkout(short_tmp, with_src=False)
    proc, result = _run("dispatch", short_tmp)
    assert proc.returncode != 0
    assert result is None
