"""System-level property tests on random DAG models: the invariants of
every partitioning phase, and numerical equivalence of plan execution,
must hold for arbitrary branchy graphs -- not just the paper's chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.traversal import is_convex
from repro.hardware import paper_cluster, tiny_cluster
from repro.models.random_dag import build_random_dag, random_batch
from repro.partitioner import auto_partition
from repro.partitioner.atomic import atomic_partition, check_atomic_invariants
from repro.partitioner.blocks import block_partition
from repro.profiler import GraphProfiler
from repro.runtime import Executor, PartitionedExecutor, init_parameters


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_atomic_invariants_random(seed):
    g = build_random_dag(seed=seed, num_nodes=10)
    comps = atomic_partition(g)
    check_atomic_invariants(g, comps)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=5),
)
def test_block_invariants_random(seed, k):
    g = build_random_dag(seed=seed, num_nodes=10)
    cluster = paper_cluster()
    profiler = GraphProfiler(g, cluster)
    comps = atomic_partition(g)
    blocks = block_partition(g, comps, profiler, cluster, num_blocks=k)
    # coverage + convexity + topological block order
    covered = set()
    for blk in blocks:
        covered |= set(blk.tasks)
        assert is_convex(g, blk.tasks)
    assert covered == set(g.tasks)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_auto_partition_plans_cover_random_dags(seed):
    g = build_random_dag(seed=seed, num_nodes=12)
    cluster = tiny_cluster(num_nodes=1, devices_per_node=2,
                           memory_bytes=512 * 1024**2)
    plan = auto_partition(g, cluster, 8, num_blocks=6)
    covered = set()
    for s in plan.stages:
        covered |= set(s.tasks)
    assert covered == set(g.tasks)
    assert plan.throughput > 0


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mb=st.sampled_from([1, 2]),
)
def test_plan_execution_equivalence_random(seed, mb):
    """The strongest property: for random DAGs, executing the REAL plan
    partition-wise equals whole-graph execution numerically."""
    g = build_random_dag(seed=seed, num_nodes=10)
    cluster = tiny_cluster(num_nodes=1, devices_per_node=2,
                           memory_bytes=512 * 1024**2)
    plan = auto_partition(g, cluster, 8, num_blocks=4)

    params = init_parameters(g, seed=seed)
    whole = Executor(g, params={k: v.copy() for k, v in params.items()})
    part = PartitionedExecutor(
        g, [s.tasks for s in plan.stages],
        params={k: v.copy() for k, v in params.items()},
        num_microbatches=mb, checkpointing=True,
    )
    batch = random_batch(g, 4, seed=seed + 1)
    lw, gw = whole.loss_and_grads(batch)
    lp, gp = part.loss_and_grads(batch)
    assert abs(lw - lp) < 1e-10
    assert set(gw) == set(gp)
    for kname in gw:
        assert np.abs(gw[kname] - gp[kname]).max() < 1e-9


def test_generator_determinism():
    a = build_random_dag(seed=5)
    b = build_random_dag(seed=5)
    assert list(a.tasks) == list(b.tasks)
    assert a.num_parameters() == b.num_parameters()


def test_generator_variety():
    graphs = [build_random_dag(seed=s) for s in range(5)]
    task_counts = {len(g.tasks) for g in graphs}
    assert len(task_counts) > 1  # different seeds, different structure
