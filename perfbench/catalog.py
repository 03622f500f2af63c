"""Every cell the benchmark can touch, its golden outputs, and the exhibit checks.

A cell is named by a *label* ``bench/POINT/trips`` (``POINT`` is
``SINGLE`` for the single-threaded baseline).  Labels carry no kernel:
every kernel must reproduce the same fingerprint, so a later change of the
default kernel leaves the goldens valid.

The goldens file maps each label to ``[fingerprint, cycles]``.  It is
written once by ``make_goldens.py`` with the ``reference`` kernel and
cross-checked against ``event``; the runner only ever reads it.  Its
``hash_seed_variants`` are the other results a few cells give in processes
under other ``PYTHONHASHSEED`` values (README.md, "Known defect").
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.design_points import DESIGN_POINTS, FIGURE7_ORDER
from repro.harness.campaign import CampaignCell
from repro.harness.experiments import EXPERIMENT_TRIPS
from repro.workloads.suite import BENCHMARK_ORDER

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

#: Design points whose loops are dense compute (core model and DSWP stream
#: dominate) versus memory-bound (kernel loop and memory hierarchy dominate).
DENSE = ("HEAVYWT", "SYNCOPTI", "SYNCOPTI_Q64", "SYNCOPTI_SC", "SYNCOPTI_SC_Q64")
MEMBOUND = ("EXISTING", "MEMOPTI")

#: The trivial cells ``dispatch`` and ``serve`` draw from.
TRIVIAL_BENCHMARKS = ("wc", "fir")
TRIVIAL_TRIPS = range(32, 97)

#: Published values the exhibit check prints beside the measured ones.
PAPER_FIG9_GEOMEAN = 1.29
PAPER_SC_Q64_VS_HEAVYWT = 1.02

Label = str


def label(benchmark: str, point: str, trips: int) -> Label:
    return f"{benchmark}/{point}/{trips}"


def cell_for(lbl: Label) -> CampaignCell:
    """The cell a label names, built with the library's defaults."""
    benchmark, point, trips = lbl.split("/")
    if point == "SINGLE":
        return CampaignCell(benchmark=benchmark, kind="single", trip_count=int(trips))
    return CampaignCell(benchmark=benchmark, design_point=point, trip_count=int(trips))


def query_for(lbl: Label) -> Dict[str, object]:
    """The ``POST /query`` body item naming the same cell."""
    benchmark, point, trips = lbl.split("/")
    if point == "SINGLE":
        return {"benchmark": benchmark, "kind": "single", "trip_count": int(trips)}
    return {"benchmark": benchmark, "design_point": point, "trip_count": int(trips)}


def group_of(lbl: Label) -> str:
    point = lbl.split("/")[1]
    if point in DENSE:
        return "dense"
    if point in MEMBOUND:
        return "membound"
    return "single"


#: Trip count of the warm-up grid ``sweep`` runs during set-up.
WARMUP_TRIPS = 32


def sweep_labels(warmup: bool = False) -> List[Label]:
    """Every suite benchmark x every registered design point, plus SINGLE.

    At :data:`EXPERIMENT_TRIPS`, or at :data:`WARMUP_TRIPS` for the
    warm-up grid that touches the same code at a fraction of the cost.
    """
    out = []
    for bench in BENCHMARK_ORDER:
        trips = WARMUP_TRIPS if warmup else EXPERIMENT_TRIPS[bench]
        out.extend(label(bench, point, trips) for point in (*DESIGN_POINTS, "SINGLE"))
    return out


def trivial_labels() -> List[Label]:
    """The cells ``dispatch`` and ``serve`` draw their seeded inputs from."""
    return [
        label(bench, point, trips)
        for bench in TRIVIAL_BENCHMARKS
        for point in (*DESIGN_POINTS, "SINGLE")
        for trips in TRIVIAL_TRIPS
    ]


def trivial_blocks(
    rng: random.Random, benchmarks: Tuple[str, ...] = TRIVIAL_BENCHMARKS
) -> List[List[Label]]:
    """The trivial cells of ``benchmarks`` as 32 blocks, in seeded order.

    Each block asks for every (benchmark, point) combination twice, at the
    antithetic trip counts ``t`` and ``128 - t``.  Simulated cycles grow
    about linearly with trips, so every block carries nearly the same
    simulation work whatever the seed, while the cells themselves differ.
    The cells at 64 trips are in no block.
    """
    combos = [(b, p) for b in benchmarks for p in (*DESIGN_POINTS, "SINGLE")]
    lows = {combo: rng.sample(range(32, 64), 32) for combo in combos}
    blocks = []
    for k in range(32):
        block = []
        for bench, point in combos:
            t = lows[(bench, point)][k]
            block += [label(bench, point, t), label(bench, point, 128 - t)]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


class Goldens:
    """The golden outputs, and which of their hash-seed variants still fit.

    Variant 0 is ``cells``; variant ``k`` is ``cells`` with the ``k``-th
    entry of ``hash_seed_variants`` laid over them.  Every output checked
    narrows the variants to those that give it, so the outputs of one
    process must all come from one variant.  Only ``sweep`` touches cells
    that have variants, and it runs them all in the runner's own process.
    """

    def __init__(self, cells: Dict[Label, Tuple[str, int]],
                 variants: List[Dict[Label, Tuple[str, int]]]) -> None:
        self.cells = cells
        self.variants = [{}, *variants]
        self.left = set(range(len(self.variants)))

    def expected(self, lbl: Label, k: int) -> Optional[Tuple[str, int]]:
        return self.variants[k].get(lbl, self.cells.get(lbl))

    def wanted(self, lbl: Label) -> List[Optional[Tuple[str, int]]]:
        """The outputs for ``lbl`` that would pass now."""
        return [self.expected(lbl, k) for k in sorted(self.left)]

    def check(self, lbl: Label, fingerprint: Optional[str], cycles: Optional[int]) -> bool:
        """True when an output matches the label's golden under a variant still left."""
        fit = {k for k in self.left if self.expected(lbl, k) == (fingerprint, cycles)}
        if fit:
            self.left = fit
        return bool(fit)


def load_goldens() -> Goldens:
    with open(GOLDENS_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    def rows(d):
        return {lbl: (fp, int(cycles)) for lbl, (fp, cycles) in d.items()}

    return Goldens(rows(doc["cells"]), [rows(v) for v in doc["hash_seed_variants"]])


def _geomean(values: Iterable[float]) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def exhibits(cycles: Mapping[Label, int]) -> Dict[str, object]:
    """Figure 9 geomean, Figure 7 order and SC+Q64/HEAVYWT from sweep cycles."""

    def cyc(bench: str, point: str) -> int:
        return cycles[label(bench, point, EXPERIMENT_TRIPS[bench])]

    def norm_geomean(point: str) -> float:
        return _geomean(cyc(b, point) / cyc(b, "HEAVYWT") for b in BENCHMARK_ORDER)

    return {
        "figure9_geomean": _geomean(
            cyc(b, "SINGLE") / cyc(b, "HEAVYWT") for b in BENCHMARK_ORDER
        ),
        "figure7_order": sorted(FIGURE7_ORDER, key=norm_geomean),
        "sc_q64_vs_heavywt": norm_geomean("SYNCOPTI_SC_Q64"),
    }
