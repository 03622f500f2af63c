"""Unit + property tests for the DSWP partitioner."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.dswp.ir import Loop, Op, OpKind
from repro.dswp.partition import (
    PartitionError,
    build_dependence_graph,
    partition_loop,
)


def chain_loop(n=6):
    """a0 -> a1 -> ... -> a(n-1), no recurrences."""
    body = [Op("a0", OpKind.IALU)]
    for i in range(1, n):
        body.append(Op(f"a{i}", OpKind.IALU, deps=(f"a{i-1}",)))
    return Loop("chain", body)


def producer_consumer_loop():
    """A load feeding a loop-carried reduction: the canonical DSWP shape."""
    return Loop(
        "pc",
        [
            Op("ld", OpKind.IALU),  # stands in for a streaming load
            Op("scale", OpKind.IALU, deps=("ld",)),
            Op("acc", OpKind.FALU, deps=("scale",), carried_deps=("acc",)),
            Op("out", OpKind.IALU, deps=("acc",)),
        ],
    )


class TestDependenceGraph:
    def test_intra_edges(self):
        g = build_dependence_graph(chain_loop(3))
        assert g.has_edge("a0", "a1")
        assert g.has_edge("a1", "a2")

    def test_carried_edge_closes_cycle(self):
        loop = Loop(
            "rec",
            [
                Op("x", OpKind.IALU, carried_deps=("y",)),
                Op("y", OpKind.IALU, deps=("x",)),
            ],
        )
        g = build_dependence_graph(loop)
        assert g.has_edge("x", "y") and g.has_edge("y", "x")


class TestPartitioning:
    def test_chain_splits_roughly_in_half(self):
        p = partition_loop(chain_loop(6))
        w0, w1 = p.stage_weight(0), p.stage_weight(1)
        assert abs(w0 - w1) <= 2.0
        assert len(p.crossing_values) == 1  # a chain crosses once

    def test_producer_consumer_shape(self):
        p = partition_loop(producer_consumer_loop())
        # The reduction recurrence must be in stage 1 as a unit.
        assert p.stage_of["acc"] == 1
        assert p.stage_of["out"] == 1
        assert p.stage_of["ld"] == 0

    def test_fully_recurrent_loop_rejected(self):
        loop = Loop(
            "knot",
            [
                Op("x", OpKind.IALU, carried_deps=("y",)),
                Op("y", OpKind.IALU, deps=("x",)),
            ],
        )
        with pytest.raises(PartitionError):
            partition_loop(loop)

    def test_validate_catches_backward_dep(self):
        from repro.dswp.partition import Partition

        loop = chain_loop(3)
        bad = Partition(
            loop=loop,
            stage_of={"a0": 1, "a1": 0, "a2": 1},
            crossing_values=(),
        )
        with pytest.raises(PartitionError):
            bad.validate()

    def test_crossing_values_deduplicated(self):
        """A value used by many stage-1 ops crosses exactly once."""
        loop = Loop(
            "fan",
            [
                Op("src", OpKind.IALU),
                Op("u1", OpKind.FALU, deps=("src",), carried_deps=("u1",)),
                Op("u2", OpKind.FALU, deps=("src",), carried_deps=("u2",)),
                Op("u3", OpKind.FALU, deps=("src",), carried_deps=("u3",)),
            ],
        )
        p = partition_loop(loop)
        assert p.crossing_values.count("src") == 1

    def test_comm_cost_discourages_wide_cuts(self):
        """A high comm weight pushes the cut to a narrow point."""
        loop = Loop(
            "wide",
            [
                Op("a", OpKind.IALU),
                Op("b1", OpKind.IALU, deps=("a",)),
                Op("b2", OpKind.IALU, deps=("a",)),
                Op("join", OpKind.IALU, deps=("b1", "b2")),
                Op("t1", OpKind.FALU, deps=("join",), carried_deps=("t1",)),
                Op("t2", OpKind.FALU, deps=("t1",), carried_deps=("t2",)),
            ],
        )
        narrow = partition_loop(loop, comm_cost_weight=10.0)
        assert len(narrow.crossing_values) == 1

    def test_single_op_loop_rejected(self):
        """One op is one SCC: nothing to pipeline."""
        loop = Loop("one", [Op("only", OpKind.IALU, carried_deps=("only",))])
        with pytest.raises(PartitionError, match="single recurrence"):
            partition_loop(loop)

    def test_all_ops_in_one_scc_rejected(self):
        """A loop-spanning recurrence collapses the condensation to one node."""
        loop = Loop(
            "ring",
            [
                Op("x", OpKind.IALU, carried_deps=("z",)),
                Op("y", OpKind.FALU, deps=("x",)),
                Op("z", OpKind.IALU, deps=("y",)),
            ],
        )
        with pytest.raises(PartitionError, match="single recurrence"):
            partition_loop(loop)

    def test_comm_weight_zero_picks_most_balanced_cut(self):
        """With free communication only the bottleneck weight matters."""
        loop = Loop(
            "diamond",
            [
                Op("src", OpKind.IALU),
                Op("m1", OpKind.IALU, deps=("src",)),
                Op("m2", OpKind.IALU, deps=("src",)),
                Op("m3", OpKind.IALU, deps=("src",)),
                Op("m4", OpKind.IALU, deps=("src",)),
                Op("sink", OpKind.FALU, deps=("m1", "m2", "m3", "m4"),
                   carried_deps=("sink",)),
            ],
        )
        p = partition_loop(loop, comm_cost_weight=0.0)
        assert abs(p.stage_weight(0) - p.stage_weight(1)) <= 1.0
        # The balanced cut is wide — several middles cross to the sink.
        assert len(p.crossing_values) > 1

    def test_comm_weight_dominant_picks_narrowest_cut(self):
        """A huge comm weight accepts imbalance to cross a single value."""
        loop = Loop(
            "diamond",
            [
                Op("src", OpKind.IALU),
                Op("m1", OpKind.IALU, deps=("src",)),
                Op("m2", OpKind.IALU, deps=("src",)),
                Op("m3", OpKind.IALU, deps=("src",)),
                Op("m4", OpKind.IALU, deps=("src",)),
                Op("sink", OpKind.FALU, deps=("m1", "m2", "m3", "m4"),
                   carried_deps=("sink",)),
            ],
        )
        p = partition_loop(loop, comm_cost_weight=1000.0)
        assert p.crossing_values == ("src",)

    def test_comm_ops_per_iteration_counts_repeat(self):
        loop = Loop(
            "rep",
            [
                Op("src", OpKind.IALU, repeat=2),
                Op("use", OpKind.FALU, deps=("src",), carried_deps=("use",)),
            ],
        )
        p = partition_loop(loop)
        assert p.comm_ops_per_iteration() == 2


@st.composite
def random_loops(draw):
    """Random well-formed loops: ops with only-backward intra deps."""
    n = draw(st.integers(2, 8))
    body = []
    for i in range(n):
        kind = draw(st.sampled_from([OpKind.IALU, OpKind.FALU]))
        deps = ()
        if i > 0:
            deps = tuple(
                sorted(
                    draw(
                        st.sets(
                            st.integers(0, i - 1), max_size=min(2, i)
                        )
                    )
                )
            )
        carried = ()
        if draw(st.booleans()):
            carried = (i,)  # self-recurrence
        body.append(
            Op(
                f"op{i}",
                kind,
                deps=tuple(f"op{d}" for d in deps),
                carried_deps=tuple(f"op{c}" for c in carried),
            )
        )
    return Loop("rand", body)


class TestPartitionProperties:
    @given(loop=random_loops())
    @settings(max_examples=60, deadline=None)
    def test_partitions_always_valid(self, loop):
        """Every produced partition satisfies the DSWP acyclicity invariant."""
        try:
            p = partition_loop(loop)
        except PartitionError:
            return  # single-SCC loops are legitimately rejected
        p.validate()
        # Both stages non-empty.
        assert p.ops_in_stage(0) and p.ops_in_stage(1)
        # Crossing values all defined in stage 0.
        for v in p.crossing_values:
            assert p.stage_of[v] == 0

    @given(loop=random_loops())
    @settings(max_examples=40, deadline=None)
    def test_weights_partition_total(self, loop):
        try:
            p = partition_loop(loop)
        except PartitionError:
            return
        assert p.stage_weight(0) + p.stage_weight(1) == pytest.approx(
            loop.total_weight()
        )


#: Prints mcf's SCCs and two-stage partition as JSON.
_MCF_PARTITION = """
import json
from repro.dswp.graph import tarjan_scc
from repro.dswp.partition import build_dependence_graph, partition_loop
from repro.workloads.suite import build_loop

loop = build_loop("mcf")
part = partition_loop(loop)
print(json.dumps({
    "sccs": tarjan_scc(build_dependence_graph(loop)),
    "stage_of": part.stage_of,
    "crossing": list(part.crossing_values),
}))
"""


def test_mcf_partition_is_independent_of_hash_seed():
    """The dependence graph keeps successors in sets, whose order follows
    PYTHONHASHSEED; the SCCs and the partition must not."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    results = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _MCF_PARTITION],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        results.append(json.loads(out))
    assert results[0]["sccs"] == results[1]["sccs"]
    assert results[0]["stage_of"] == results[1]["stage_of"]
    assert results[0]["crossing"] == results[1]["crossing"]
