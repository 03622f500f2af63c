#!/usr/bin/env python3
"""Quickstart: run one benchmark on two design points and compare.

Builds the DSWP-parallelized `wc` loop (the paper's tightest streaming
kernel), runs it on the commercial-CMP baseline (EXISTING software queues)
and on the paper's proposed light-weight design (SYNCOPTI + stream cache +
Q64), and prints the speedup and per-thread breakdowns.
"""

from repro import build_pipelined, get_design_point
from repro.sim.machine import Machine


def run_design_point(name: str, trip_count: int = 600):
    point = get_design_point(name)
    program = build_pipelined("wc", trip_count)
    machine = Machine(point.build_config(), mechanism=point.mechanism)
    return machine.run(program)


def main() -> None:
    existing = run_design_point("EXISTING")
    proposed = run_design_point("SYNCOPTI_SC_Q64")
    heavy = run_design_point("HEAVYWT")

    print("wc (Unix `cnt` loop), 600 iterations, dual-core CMP\n")
    rows = [
        ("EXISTING (software queues)", existing),
        ("SYNCOPTI_SC_Q64 (paper's pick)", proposed),
        ("HEAVYWT (dedicated hardware)", heavy),
    ]
    for label, stats in rows:
        print(f"{label:34s} {stats.cycles:8d} cycles")
    print(
        f"\nSpeedup of SYNCOPTI_SC_Q64 over EXISTING: "
        f"{existing.cycles / proposed.cycles:.2f}x"
    )
    print(
        f"Gap to the heavy-weight hardware design:  "
        f"{proposed.cycles / heavy.cycles:.2f}x"
    )

    print("\nConsumer-thread critical-path components (EXISTING):")
    total = existing.consumer.component_sum()
    for name, value in existing.consumer.components.items():
        share = 100.0 * value / total if total else 0.0
        print(f"  {name:8s} {share:5.1f}%  {'#' * int(share / 2)}")


if __name__ == "__main__":
    main()
