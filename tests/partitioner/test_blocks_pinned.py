"""Bit-identity guard for block-level partitioning.

``tests/data/pinned_blocks.json`` holds, per scenario, the sha256 of
``[b.atomic_indices for b in blocks]`` as returned by
``BlockPartitioner.run()`` when every coarsening, uncoarsening and
compaction step still rescanned whole groups and the whole edge list.
The incremental per-group aggregates must reproduce every block exactly.
The scenarios cover the paper presets (exact compaction), a GPT graph
that leaves more than 1024 groups for compaction (the binary-search
packing path), and random DAGs on tiny devices where memory rejects
merges and uncoarsening moves parts.

The property test below checks the maintained aggregates themselves
against the from-scratch formulas after coarsening and after
uncoarsening.

Regenerate the fixture only for a change that is meant to alter blocks::

    PYTHONPATH=src python tests/partitioner/test_blocks_pinned.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.hardware import paper_cluster, tiny_cluster
from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet
from repro.models.gpt import gpt3_like
from repro.models.random_dag import build_random_dag
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import BlockPartitioner
from repro.profiler import GraphProfiler
from tests.profiler.oracles import group_memory

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "pinned_blocks.json"

# scenario name -> () -> (graph, cluster, k)
SCENARIOS = {
    "bert-base/k32": lambda: (
        build_bert(BertConfig(hidden_size=768, num_layers=12, num_heads=12)),
        paper_cluster(),
        32,
    ),
    "bert-large/k32": lambda: (build_bert(BertConfig()), paper_cluster(), 32),
    "resnet50x8/k32": lambda: (
        build_resnet(ResNetConfig(depth=50, width_factor=8)),
        paper_cluster(),
        32,
    ),
    # 2,309 atoms coarsen to 1,156 groups: more than the exact DP takes
    "gpt3_like-96/k768": lambda: (gpt3_like(depth=96), paper_cluster(), 768),
}
for _seed in range(3):
    for _mem_name, _mem in (("64KiB", 64 * 1024), ("1MiB", 1024**2)):
        for _k in (2, 4, 8):
            SCENARIOS[f"random_dag-{_seed}/{_mem_name}/k{_k}"] = (
                lambda s=_seed, m=_mem, k=_k: (
                    build_random_dag(seed=s, num_nodes=40, width=32),
                    tiny_cluster(memory_bytes=m),
                    k,
                )
            )


def _partitioner(graph, cluster, k):
    return BlockPartitioner(
        graph, atomic_partition(graph), GraphProfiler(graph, cluster),
        cluster, num_blocks=k,
    )


def _digest(blocks):
    indices = [list(b.atomic_indices) for b in blocks]
    return hashlib.sha256(json.dumps(indices).encode()).hexdigest()


def _snapshot(name):
    blocks = _partitioner(*SCENARIOS[name]()).run()
    return {"num_blocks": len(blocks), "sha256": _digest(blocks)}


def _pinned():
    with FIXTURE.open() as fh:
        return json.load(fh)


PINNED = _pinned() if FIXTURE.exists() else {}


def test_fixture_covers_every_scenario():
    assert set(PINNED) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_blocks_match_pinned(name):
    assert _snapshot(name) == PINNED[name]


# ---------------------------------------------------------------------------
# maintained aggregates == from-scratch formulas
# ---------------------------------------------------------------------------
def _local_cut_by_edge_scan(bp, part, owner_group):
    """``_local_cut`` as a scan over every weighted edge."""
    total = 0.0
    for (a, b), w in bp.edge_bytes.items():
        a_in, b_in = a in part, b in part
        if a_in == b_in:
            continue
        other = b if a_in else a
        if bp.atom_owner[other] != owner_group:
            total += w
    return total


def _check_aggregates(bp):
    assert set(bp.group_time) == set(bp.group_atoms)
    assert set(bp.group_load) == set(bp.group_atoms)
    for gid, atoms in bp.group_atoms.items():
        assert bp.group_time[gid] == bp._group_time(atoms)
        assert bp._memory(bp.group_load[gid]) == group_memory(bp, atoms)
        for a in atoms:
            assert bp.atom_owner[a] == gid
        # a merge candidate's memory, as coarsening checks it
        for nbr in bp.gg.succ[gid]:
            assert bp._merged_memory(
                bp.group_load[gid], bp.group_load[nbr]
            ) == group_memory(bp, atoms | bp.group_atoms[nbr])


def _check_local_cuts(bp):
    for record in bp.records[-8:]:
        for part in (record.part_v, record.part_w):
            owners = {bp.atom_owner[a] for a in part}
            if len(owners) != 1:
                continue
            neighbours = {
                bp.atom_owner[b]
                for a in part
                for b in bp.comp_succ[a] | bp.comp_pred[a]
            }
            for gid in neighbours | owners:
                assert bp._local_cut(part, gid) == _local_cut_by_edge_scan(
                    bp, part, gid
                )


def _shared_weight_chain(seed, num_layers, width=32, pool=3):
    """A matmul chain whose layers draw their weights from a small pool,
    so merges join groups that use the same parameters."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder(f"shared_weights_{seed}")
    h = b.input("x", (1, width))
    weights = [b.param(f"w{i}", (width, width)) for i in range(pool)]
    for i in range(num_layers):
        h = b.op("matmul", [h, weights[int(rng.integers(pool))]],
                 name=f"mm{i}")
        h = b.op("tanh", [h], name=f"act{i}")
    loss = b.op("mse_loss", [h, b.input("y", (1, width))], name="loss")
    return b.finish([loss])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=4, max_value=40),
    shared_weights=st.booleans(),
    memory=st.sampled_from([48 * 1024, 64 * 1024, 1024**2]),
    k=st.integers(min_value=1, max_value=8),
)
def test_maintained_aggregates_equal_from_scratch(
    seed, num_nodes, shared_weights, memory, k
):
    if shared_weights:
        graph = _shared_weight_chain(seed, num_nodes)
    else:
        graph = build_random_dag(seed=seed, num_nodes=num_nodes, width=32)
    bp = _partitioner(graph, tiny_cluster(memory_bytes=memory), k)
    _check_aggregates(bp)
    bp.coarsen()
    _check_aggregates(bp)
    _check_local_cuts(bp)
    bp.uncoarsen()
    _check_aggregates(bp)
    _check_local_cuts(bp)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_blocks_pinned.py --write")
    snapshot = {name: _snapshot(name) for name in sorted(SCENARIOS)}
    FIXTURE.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(snapshot)} scenarios to {FIXTURE}")
