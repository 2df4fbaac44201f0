"""Tests for block-level partitioning: coarsening, uncoarsening,
compaction, and the structural invariants of the result."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.traversal import is_convex
from repro.hardware import paper_cluster, tiny_cluster
from repro.models import BertConfig, build_bert, build_diamond, build_mlp
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import Block, BlockPartitioner, block_partition
from repro.profiler import GraphProfiler
from tests.profiler.oracles import group_memory, total_cut_bytes


def make_partitioner(graph, k=4, cluster=None, **kwargs):
    cluster = cluster or paper_cluster()
    profiler = GraphProfiler(graph, cluster)
    comps = atomic_partition(graph)
    return BlockPartitioner(
        graph, comps, profiler, cluster, num_blocks=k, **kwargs
    )


def check_block_invariants(graph, blocks, k):
    """Structural invariants every block partition must satisfy.

    Callers plan on the paper cluster, where the memory cap never binds
    for these models, so compaction always reaches exactly ``k`` blocks
    (or one block per atomic component when there are fewer)."""
    # each non-constant task appears in exactly one block; coverage total
    from repro.partitioner.atomic import classify_tasks

    nc = classify_tasks(graph)
    count = {t: 0 for t in graph.tasks}
    for b in blocks:
        for t in b.tasks:
            count[t] += 1
    for t, c in count.items():
        assert c >= 1, f"task {t} uncovered"
        if nc[t]:
            assert c == 1, f"non-constant task {t} in {c} blocks"
    num_components = sum(1 for t in graph.tasks if nc[t])
    assert len(blocks) == min(k, num_components)
    # every block is convex
    for b in blocks:
        assert is_convex(graph, b.tasks), f"block {b.index} not convex"
    # blocks are topologically ordered: edges only point forward
    owner = {}
    for b in blocks:
        for t in b.tasks:
            if nc[t]:
                owner[t] = b.index
    for a, c in graph.iter_edges():
        if nc.get(a) and nc.get(c):
            assert owner[a] <= owner[c]


class TestBlockPartitionSmall:
    def test_mlp_chain(self, mlp_graph):
        bp = make_partitioner(mlp_graph, k=3)
        blocks = bp.run()
        assert len(blocks) == 3
        check_block_invariants(mlp_graph, blocks, 3)

    def test_diamond(self, diamond_graph):
        bp = make_partitioner(diamond_graph, k=2)
        blocks = bp.run()
        check_block_invariants(diamond_graph, blocks, 2)

    def test_fig2(self, fig2_graph):
        blocks = make_partitioner(fig2_graph, k=2).run()
        check_block_invariants(fig2_graph, blocks, 2)

    def test_k_larger_than_components(self, mlp_graph):
        bp = make_partitioner(mlp_graph, k=100)
        blocks = bp.run()
        # no forced merging: one block per atomic component
        assert len(blocks) == len(mlp_graph.tasks)
        check_block_invariants(mlp_graph, blocks, 100)

    def test_k_one(self, mlp_graph):
        blocks = make_partitioner(mlp_graph, k=1).run()
        assert len(blocks) == 1
        assert set(blocks[0].tasks) == set(mlp_graph.tasks)


class TestBert:
    def test_bert_blocks(self, tiny_bert):
        blocks = make_partitioner(tiny_bert, k=8).run()
        assert len(blocks) == 8
        check_block_invariants(tiny_bert, blocks, 8)

    def test_balance_quality(self):
        """Blocks of a uniform 12-layer BERT should be well balanced
        (the phase's whole purpose)."""
        g = build_bert(
            BertConfig(hidden_size=64, num_layers=12, num_heads=4,
                       seq_len=32, vocab_size=128)
        )
        bp = make_partitioner(g, k=8)
        blocks = bp.run()
        times = [bp._group_time(set(b.atomic_indices)) for b in blocks]
        assert max(times) / np.mean(times) < 1.5

    def test_memory_constraint_respected(self):
        """On a tiny-memory device no block may exceed the loose memory
        estimate (unless a single atom already does)."""
        g = build_bert(
            BertConfig(hidden_size=64, num_layers=4, num_heads=4,
                       seq_len=32, vocab_size=128)
        )
        cluster = tiny_cluster(memory_bytes=64 * 1024**2)
        bp = make_partitioner(g, k=2, cluster=cluster)
        blocks = bp.run()
        # memory binds: compaction may stop short of k, never past the
        # atomic components
        assert 2 <= len(blocks) <= len(bp.components)
        limit = cluster.device.usable_memory
        single_atom_max = max(
            group_memory(bp, {i}) for i in range(len(bp.components))
        )
        for b in blocks:
            mem = group_memory(bp, set(b.atomic_indices))
            assert mem <= max(limit, single_atom_max) + 1e-6


class TestCoarsening:
    def test_records_accumulate(self, tiny_bert):
        bp = make_partitioner(tiny_bert, k=4)
        bp.coarsen()
        assert len(bp.records) >= 1
        assert all(r.part_v and r.part_w for r in bp.records)

    def test_threshold_respected(self, tiny_bert):
        bp = make_partitioner(tiny_bert, k=4)
        threshold = bp.balance_factor * float(bp.comp_time.sum()) / bp.k
        bp.coarsen()
        for atoms in bp.group_atoms.values():
            if len(atoms) > 1:  # merged groups obey the cap
                assert bp._group_time(atoms) <= threshold + 1e-12

    def test_groups_stay_convex_through_coarsening(self, diamond_graph):
        bp = make_partitioner(diamond_graph, k=2)
        bp.coarsen()
        for atoms in bp.group_atoms.values():
            tasks = set()
            for a in atoms:
                tasks |= set(bp.components[a].tasks)
            assert is_convex(diamond_graph, tasks)


class TestUncoarsening:
    def test_never_increases_cut(self, tiny_bert):
        bp = make_partitioner(tiny_bert, k=4)
        bp.coarsen()
        before = total_cut_bytes(bp)
        bp.uncoarsen()
        assert total_cut_bytes(bp) <= before + 1e-9

    def test_moves_keep_convexity(self, tiny_bert):
        bp = make_partitioner(tiny_bert, k=4)
        bp.coarsen()
        bp.uncoarsen()
        for atoms in bp.group_atoms.values():
            tasks = set()
            for a in atoms:
                tasks |= set(bp.components[a].tasks)
            assert is_convex(tiny_bert, tasks)


class TestCompaction:
    def test_exact_partition_reaches_k(self, tiny_bert):
        bp = make_partitioner(tiny_bert, k=3)
        bp.coarsen()
        bp.compact()
        assert len(bp.group_atoms) == 3

    def test_greedy_variant_also_reaches_k(self, tiny_bert):
        bp = make_partitioner(tiny_bert, k=3)
        bp.coarsen()
        bp.compact_greedy()
        # consecutive topo-list groups always merge while memory does not
        # bind, so the greedy rule is never stuck short of k
        assert len(bp.group_atoms) == 3
        # rebuild blocks and verify invariants
        blocks = []
        order = bp.gg.topo_order()
        task_pos = {t: i for i, t in enumerate(tiny_bert.tasks)}
        for i, gid in enumerate(order):
            tasks = set()
            for a in bp.group_atoms[gid]:
                tasks |= set(bp.components[a].tasks)
            blocks.append(Block(i, tuple(sorted(bp.group_atoms[gid])),
                                tuple(sorted(tasks, key=task_pos.__getitem__))))
        check_block_invariants(tiny_bert, blocks, 3)

    def test_exact_beats_or_matches_greedy_balance(self, tiny_bert):
        bp1 = make_partitioner(tiny_bert, k=4)
        bp1.coarsen()
        bp1.compact()
        exact_max = max(
            bp1._group_time(a) for a in bp1.group_atoms.values()
        )
        bp2 = make_partitioner(tiny_bert, k=4)
        bp2.coarsen()
        bp2.compact_greedy()
        greedy_max = max(
            bp2._group_time(a) for a in bp2.group_atoms.values()
        )
        assert exact_max <= greedy_max + 1e-12


def _exact_partition_per_cell(times, k):
    """The minimax linear-partitioning DP one ``argmin`` per (parts,
    end) cell: the reference for the row-vectorised ``_exact_partition``.
    Returns the part boundaries."""
    n = len(times)
    k = min(k, n)
    prefix = np.concatenate([[0.0], np.cumsum(times)])
    cost = np.full((k + 1, n + 1), np.inf)
    cut = np.zeros((k + 1, n + 1), dtype=np.int64)
    cost[0, 0] = 0.0
    for parts in range(1, k + 1):
        for end in range(parts, n - (k - parts) + 1):
            starts = np.arange(parts - 1, end)
            cand = np.maximum(cost[parts - 1, starts], prefix[end] - prefix[starts])
            j = int(np.argmin(cand))
            cost[parts, end] = cand[j]
            cut[parts, end] = starts[j]
    bounds = [n]
    for parts in range(k, 0, -1):
        bounds.append(int(cut[parts, bounds[-1]]))
    return bounds[::-1]


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=10),
    times=st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                   max_size=24),
)
def test_exact_partition_matches_per_cell_dp(k, times):
    """Small integer times force ties: the row-vectorised DP must keep
    the per-cell DP's first-minimum choice at every cell."""
    g = build_mlp(tuple([16] * 13))
    bp = make_partitioner(g, k=k)
    order = list(range(len(times)))
    parts = bp._exact_partition(order, [float(t) for t in times])
    bounds = [0]
    for part in parts:
        bounds.append(bounds[-1] + len(part))
    assert bounds == _exact_partition_per_cell(
        [float(t) for t in times], k
    )


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    layers=st.integers(min_value=2, max_value=6),
)
def test_block_invariants_random_chains(k, layers):
    """Property: invariants hold for any (k, depth) on MLP chains."""
    g = build_mlp(tuple([16] * (layers + 1)))
    cluster = paper_cluster()
    profiler = GraphProfiler(g, cluster)
    blocks = block_partition(g, atomic_partition(g), profiler, cluster,
                             num_blocks=k)
    check_block_invariants(g, blocks, k)
    assert len(blocks) <= max(k, 1) or len(blocks) == len(g.tasks)


def _pack_with_set_algebra(bp, order, times, cap):
    """Greedy prefix packing that merges the open part's aggregates group
    by group: the reference for ``_memory_reach`` + ``_pack``."""
    parts = []
    current = []
    load = None
    acc = 0.0
    for gid, t in zip(order, times):
        if current and (
            acc + t > cap
            or bp._merged_memory(load, bp.group_load[gid]) > bp.memory_limit
        ):
            parts.append(current)
            current = []
        if not current:
            if t > cap:
                return None
            current, load, acc = [gid], bp.group_load[gid].copy(), t
        else:
            current.append(gid)
            bp._absorb(load, bp.group_load[gid])
            acc = acc + t
    if current:
        parts.append(current)
    return parts


def _random_packing_case(seed, n, num_params, tightness):
    """A partitioner whose ``n`` groups carry random loads (shared
    parameter ids overlapping across groups) under a memory cap
    ``tightness`` of the way from the largest lone group to the whole
    order, plus random group times."""
    from repro.partitioner.blocks import _Load

    rng = np.random.default_rng(seed)
    bp = make_partitioner(build_mlp((16, 16, 16)), k=2)
    bp._param_sizes = [int(x) for x in rng.integers(1, 1000, num_params)]
    order = [int(g) for g in rng.permutation(n) + 100]
    bp.group_load = {}
    for gid in order:
        shared = {int(p) for p in rng.choice(
            num_params, size=int(rng.integers(0, num_params + 1)),
            replace=False,
        )}
        bp.group_load[gid] = _Load(
            float(rng.integers(0, 10**6)), int(rng.integers(0, 10**4)),
            shared, sum(bp._param_sizes[p] for p in shared),
        )
    whole = bp.group_load[order[0]].copy()
    for gid in order[1:]:
        bp._absorb(whole, bp.group_load[gid])
    lone = max(bp._memory(bp.group_load[g]) for g in order)
    bp.memory_limit = lone + tightness * (bp._memory(whole) - lone)
    times = [float(t) for t in rng.random(n)]
    return bp, order, times, rng


def _check_packing_probes(bp, order, times, rng):
    reach = bp._memory_reach(order)
    assert all(i < r <= len(order) for i, r in enumerate(reach))
    lo, hi = max(times), sum(times)
    caps = [0.5 * lo, lo, hi] + [lo + f * (hi - lo) for f in rng.random(8)]
    for cap in caps:
        assert bp._pack(order, times, cap, reach) == _pack_with_set_algebra(
            bp, order, times, cap
        )
    return reach


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=60),
    num_params=st.integers(min_value=1, max_value=12),
    tightness=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
)
def test_memory_reach_packing_matches_set_algebra(seed, n, num_params,
                                                  tightness):
    """Every probe's parts equal the group-by-group merge's."""
    _check_packing_probes(
        *_random_packing_case(seed, n, num_params, tightness)
    )


@pytest.mark.parametrize("seed", range(5))
def test_tight_memory_ends_runs_early(seed):
    bp, order, times, rng = _random_packing_case(seed, 50, 10, 0.1)
    reach = _check_packing_probes(bp, order, times, rng)
    assert max(reach[i] - i for i in range(len(order))) < len(order)
