"""Write ``goldens.json``: the fingerprint and cycles of every benchmark cell.

Each cell is simulated under the ``reference`` kernel and again under
``event``; the two must agree exactly or nothing is written.  The goldens
are taken with ``PYTHONHASHSEED=0``.  Processes under hash seeds 1 to
``OTHER_HASH_SEEDS`` then simulate every cell again.  A cell whose result
differs there depends on Python's string hash order, which is a simulator
defect (README.md, "Known defect").  Each distinct set of such differing
results is written under ``hash_seed_variants``, after the ``event``
kernel has been made to agree with it in the same process.  The runner
accepts one of these sets per process, and only as a whole.

Run it from the repository root after a change that is *meant* to move
simulated results (none of the benchmark's own runs ever writes this
file)::

    PYTHONPATH=src python3 perfbench/make_goldens.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import catalog
from repro.harness.campaign import execute_cell
from repro.harness.runner import RunResult

#: Hash seeds besides 0 whose results are compared with the goldens.  The
#: known defect splits processes about evenly between two outcomes, so a
#: variant this many seeds all miss is unlikely.
OTHER_HASH_SEEDS = 8


def _labels():
    return sorted(
        set(catalog.sweep_labels())
        | set(catalog.sweep_labels(warmup=True))
        | set(catalog.trivial_labels())
    )


def _run(lbl: str, kernel: str):
    outcome = execute_cell(dataclasses.replace(catalog.cell_for(lbl), kernel=kernel))
    if not isinstance(outcome, RunResult):
        raise SystemExit(f"{lbl} failed under {kernel}: {outcome}")
    return [outcome.fingerprint(), outcome.cycles]


def _both(lbl: str):
    ref, ev = _run(lbl, "reference"), _run(lbl, "event")
    if ref != ev:
        raise SystemExit(f"{lbl}: kernels disagree: reference {ref}, event {ev}")
    return ref


def _differences() -> int:
    """Child mode: the cells whose results differ from the goldens on stdin."""
    golden = json.load(sys.stdin)
    differ = {}
    for lbl in _labels():
        got = _run(lbl, "reference")
        if got != golden[lbl]:
            differ[lbl] = _both(lbl)
    json.dump(differ, sys.stdout)
    return 0


def main() -> int:
    if sys.argv[1:] == ["--differences"]:
        return _differences()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.call([sys.executable, *sys.argv], env=env)
    cells = {}
    for i, lbl in enumerate(_labels(), 1):
        cells[lbl] = _both(lbl)
        if i % 200 == 0:
            print(f"{i} cells", file=sys.stderr)
    variants = []
    for seed in range(1, OTHER_HASH_SEEDS + 1):
        differ = json.loads(
            subprocess.run(
                [sys.executable, sys.argv[0], "--differences"],
                env=dict(os.environ, PYTHONHASHSEED=str(seed)),
                input=json.dumps(cells),
                check=True,
                stdout=subprocess.PIPE,
                text=True,
            ).stdout
        )
        print(f"PYTHONHASHSEED={seed}: {len(differ)} cells differ", file=sys.stderr)
        if differ and differ not in variants:
            variants.append(differ)
    # One cell per line, so a change to the goldens reads as a short diff.
    rows = ",\n".join(f"  {json.dumps(lbl)}: {json.dumps(v)}" for lbl, v in cells.items())
    tmp = catalog.GOLDENS_PATH + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(
            '{"generated_with": "reference kernel, PYTHONHASHSEED=0; '
            "cross-checked against event; variants from PYTHONHASHSEED=1.."
            f'{OTHER_HASH_SEEDS}",\n'
        )
        fh.write(' "hash_seed_variants": [\n')
        fh.write(
            ",\n".join(
                " {\n" + ",\n".join(
                    f"  {json.dumps(lbl)}: {json.dumps(v)}" for lbl, v in sorted(d.items())
                ) + "\n }"
                for d in variants
            )
        )
        fh.write("\n ],\n")
        fh.write(' "cells": {\n' + rows + "\n}}\n")
    os.replace(tmp, catalog.GOLDENS_PATH)
    print(f"wrote {len(cells)} goldens and {len(variants)} variants to {catalog.GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
