"""The merge loop's prune is exact.

Coarsening skips a merge candidate ``(v, w)`` when ``lo = (time_v +
time_w) * (1 - PRUNE_SLACK * n)`` already exceeds the load threshold or
the best time so far.  ``lo`` is a lower bound on the union time the
loop would compute, so the prune drops only candidates the exact test
rejects too (DESIGN.md, D4b).  Two checks:

* with the slack patched so the prune never fires, merge records,
  levels and blocks equal those with the prune on -- over the table
  graphs, the pinned block scenarios and random DAGs;
* the bound itself, on adversarial sums of up to 10,000 nonnegative
  floats summed in set order and in NumPy's order.
"""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import tiny_cluster
from repro.models.random_dag import build_random_dag
from repro.partitioner import blocks as blocks_module
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import PRUNE_SLACK, BlockPartitioner
from repro.profiler import GraphProfiler
from tests.partitioner.test_blocks_pinned import SCENARIOS
from tests.profiler.test_table import BLOCK_GRAPHS


def _run(graph, cluster, k):
    """Blocks, merge records and level count of one partitioner run, and
    how many union times the merge loop computed."""
    bp = BlockPartitioner(graph, atomic_partition(graph),
                          GraphProfiler(graph, cluster), cluster, num_blocks=k)
    calls = [0]
    group_time = bp._group_time

    def counted(atoms):
        calls[0] += 1
        return group_time(atoms)

    bp._group_time = counted
    blocks = bp.run()
    records = [(r.part_v, r.part_w, r.level_group_count) for r in bp.records]
    return {
        "blocks": [b.atomic_indices for b in blocks],
        "records": records,
        "levels": bp.levels,
        "moves": bp.moves,
    }, calls[0]


def _with_and_without_prune(monkeypatch, make):
    pruned, pruned_calls = _run(*make())
    with monkeypatch.context() as m:
        # a slack this large makes ``lo`` negative: the prune never fires
        m.setattr(blocks_module, "PRUNE_SLACK", 2.0)
        exact, exact_calls = _run(*make())
    assert pruned == exact
    assert pruned_calls <= exact_calls
    return pruned_calls, exact_calls


@pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
def test_block_graphs_unchanged_without_prune(monkeypatch, name):
    _with_and_without_prune(
        monkeypatch,
        lambda: (BLOCK_GRAPHS[name](), tiny_cluster(memory_bytes=1024**3), 4),
    )


def test_pinned_scenarios_unchanged_without_prune(monkeypatch):
    skipped = 0
    for name in sorted(SCENARIOS):
        pruned_calls, exact_calls = _with_and_without_prune(
            monkeypatch, SCENARIOS[name]
        )
        skipped += exact_calls - pruned_calls
    assert skipped > 0  # the prune does fire on these inputs


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=4, max_value=60),
    memory=st.sampled_from([48 * 1024, 64 * 1024, 1024**2]),
    k=st.integers(min_value=1, max_value=8),
)
def test_random_dags_unchanged_without_prune(seed, num_nodes, memory, k):
    make = lambda: (  # noqa: E731
        build_random_dag(seed=seed, num_nodes=num_nodes, width=32),
        tiny_cluster(memory_bytes=memory),
        k,
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        _with_and_without_prune(monkeypatch, make)


# ---------------------------------------------------------------------------
# the bound on adversarial sums
# ---------------------------------------------------------------------------
def _adversarial(rng, n):
    """``n`` nonnegative finite floats of one of several hard shapes."""
    shape = rng.randrange(6)
    if shape == 0:  # huge and tiny mixed
        return [rng.choice((1e300, 1e-300, 1.0, 3.0e299, 7e-310))
                * rng.random() for _ in range(n)]
    if shape == 1:  # subnormals, some zeros
        return [rng.choice((0.0, 5e-324, 1e-310, 2.2e-308)) * rng.randint(0, 9)
                for _ in range(n)]
    if shape == 2:  # runs of one value whose partial sums round
        value = rng.choice((0.1, 1 / 3, 2.0 ** -30 * 3, 1e-5))
        return [value] * n
    if shape == 3:  # 2**53 and ones: every lone 1.0 is lost when added
        return [2.0 ** 53 if rng.random() < 0.1 else 1.0 for _ in range(n)]
    if shape == 4:  # geometric spread over the whole exponent range
        return [2.0 ** rng.uniform(-1070, 1000) for _ in range(n)]
    return [rng.random() * 10 ** rng.randint(-20, 20) for _ in range(n)]


def _group_time(times, atoms):
    """``BlockPartitioner._group_time`` over a bare time table."""
    owner = SimpleNamespace(_atom_time=list(times),
                            comp_time=np.asarray(times, dtype=float))
    return BlockPartitioner._group_time(owner, atoms)


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 64, 1000, 10_000])
def test_lower_bound_never_exceeds_the_union_time(n):
    rng = random.Random(n)
    shrink = 1.0 - PRUNE_SLACK * n
    for _ in range(40 if n <= 1000 else 6):
        times = _adversarial(rng, n)
        assert all(math.isfinite(t) and t >= 0 for t in times)
        atoms = list(range(n))
        rng.shuffle(atoms)
        cut = rng.randrange(1, n)
        v, w = set(atoms[:cut]), set(atoms[cut:])
        lo = (_group_time(times, v) + _group_time(times, w)) * shrink
        union = v | w
        in_set_order = 0.0
        for a in union:
            in_set_order += times[a]
        numpy_order = float(np.asarray(times)[list(union)].sum())
        assert lo <= in_set_order
        assert lo <= numpy_order
        assert lo <= _group_time(times, union)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e300,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=40),
       st.data())
def test_lower_bound_on_random_floats(times, data):
    n = len(times)
    cut = data.draw(st.integers(min_value=1, max_value=n - 1))
    v, w = set(range(cut)), set(range(cut, n))
    lo = (_group_time(times, v) + _group_time(times, w)) * (
        1.0 - PRUNE_SLACK * n
    )
    assert lo <= _group_time(times, v | w)
    assert lo <= float(np.asarray(times).sum())
