"""Tests for traversal utilities: topo sort, reachability, convexity and
the incremental GroupGraph (including hypothesis property tests)."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.traversal import (
    GroupGraph,
    ancestors,
    descendants,
    is_convex,
    task_predecessors,
    task_successors,
    topo_sort_tasks,
)
from tests.conftest import chain_graph
from tests.profiler.oracles import group_graph


class TestTopoSort:
    def test_chain(self, mlp_graph):
        order = topo_sort_tasks(mlp_graph)
        pos = {t: i for i, t in enumerate(order)}
        for a, b in mlp_graph.iter_edges():
            assert pos[a] < pos[b]

    def test_diamond(self, diamond_graph):
        order = topo_sort_tasks(diamond_graph)
        pos = {t: i for i, t in enumerate(order)}
        assert pos["fc_in"] < pos["fc_a"] < pos["merge"]
        assert pos["fc_in"] < pos["fc_b"] < pos["merge"]

    def test_insertion_order_is_topological(self, tiny_bert):
        # builder graphs are recorded in execution order, which must be a
        # valid topological order (Kahn may still produce a different one)
        pos = {t: i for i, t in enumerate(tiny_bert.tasks)}
        for a, b in tiny_bert.iter_edges():
            assert pos[a] < pos[b]
        assert sorted(topo_sort_tasks(tiny_bert)) == sorted(tiny_bert.tasks)


class TestReachability:
    def test_descendants(self, diamond_graph):
        d = descendants(diamond_graph, ["fc_a"])
        assert "merge" in d and "fc_out" in d and "loss" in d
        assert "fc_b" not in d and "fc_in" not in d

    def test_ancestors(self, diamond_graph):
        a = ancestors(diamond_graph, ["merge"])
        assert {"fc_in", "fc_a", "fc_b", "act_a", "act_b"} <= a
        assert "fc_out" not in a

    def test_succ_pred_consistency(self, diamond_graph):
        succ = task_successors(diamond_graph)
        pred = task_predecessors(diamond_graph)
        for a, bs in succ.items():
            for b in bs:
                assert a in pred[b]


class TestConvexity:
    def test_contiguous_chain_is_convex(self, mlp_graph):
        tasks = list(mlp_graph.tasks)
        for i in range(len(tasks)):
            for j in range(i + 1, len(tasks) + 1):
                assert is_convex(mlp_graph, tasks[i:j])

    def test_gap_in_chain_not_convex(self, mlp_graph):
        tasks = list(mlp_graph.tasks)
        assert not is_convex(mlp_graph, [tasks[0], tasks[2]])

    def test_diamond_branch_convex(self, diamond_graph):
        assert is_convex(diamond_graph, ["fc_a", "act_a"])
        assert is_convex(diamond_graph, ["fc_a", "act_a", "fc_b", "act_b", "merge"])

    def test_diamond_skip_not_convex(self, diamond_graph):
        # fc_in -> fc_out without the branches: paths leave and re-enter
        assert not is_convex(diamond_graph, ["fc_in", "merge"])

    def test_empty_and_full_are_convex(self, diamond_graph):
        assert is_convex(diamond_graph, [])
        assert is_convex(diamond_graph, list(diamond_graph.tasks))


class TestGroupGraph:
    def _line(self, n=4):
        return GroupGraph(range(n), [(i, i + 1) for i in range(n - 1)])

    def test_adjacent(self):
        gg = self._line()
        assert gg.adjacent(0, 1) and gg.adjacent(1, 0)
        assert not gg.adjacent(0, 2)

    def test_can_merge_chain(self):
        gg = self._line()
        assert gg.can_merge(0, 1)
        assert not gg.can_merge(0, 2)  # not adjacent

    def test_cannot_merge_across_path(self):
        # 0 -> 1 -> 2 and direct 0 -> 2: merging 0,2 leaves 1 inside a path
        gg = GroupGraph(range(3), [(0, 1), (1, 2), (0, 2)])
        assert not gg.can_merge(0, 2)
        assert gg.can_merge(0, 1)

    def test_merge_updates_adjacency(self):
        gg = self._line(4)
        gg.merge(1, 2)
        assert gg.adjacent(0, 1)
        assert gg.adjacent(1, 3)
        assert 2 not in gg.succ

    def test_merge_self_rejected(self):
        gg = self._line()
        with pytest.raises(ValueError):
            gg.merge(1, 1)

    def test_topo_order(self):
        gg = GroupGraph(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
        order = gg.topo_order()
        pos = {n: i for i, n in enumerate(order)}
        assert pos[0] < pos[1] < pos[3]
        assert pos[0] < pos[2] < pos[3]

    def test_group_graph_from_partition(self, diamond_graph):
        groups = [
            frozenset({"fc_in"}),
            frozenset({"fc_a", "act_a"}),
            frozenset({"fc_b", "act_b"}),
            frozenset({"merge", "fc_out", "loss"}),
        ]
        gg = group_graph(diamond_graph, groups)
        assert gg.adjacent(0, 1) and gg.adjacent(0, 2)
        assert gg.adjacent(1, 3) and gg.adjacent(2, 3)
        assert not gg.adjacent(1, 2)

    def test_group_graph_rejects_overlap(self, diamond_graph):
        with pytest.raises(ValueError, match="two groups"):
            group_graph(
                diamond_graph,
                [frozenset({"fc_in"}), frozenset({"fc_in", "fc_a"})],
            )


@st.composite
def random_dag(draw):
    """A random DAG over n nodes with edges i -> j only for i < j."""
    n = draw(st.integers(min_value=2, max_value=9))
    edges = []
    for j in range(1, n):
        # ensure connectivity-ish: at least one incoming edge
        preds = draw(
            st.lists(
                st.integers(min_value=0, max_value=j - 1),
                min_size=1, max_size=min(3, j), unique=True,
            )
        )
        edges.extend((p, j) for p in preds)
    return n, edges


@settings(max_examples=60, deadline=None)
@given(random_dag(), st.data())
def test_can_merge_preserves_acyclicity(dag, data):
    """Property: a GroupGraph merge allowed by can_merge never creates a
    cycle (topo_order still succeeds); a disallowed adjacent merge would."""
    n, edges = dag
    gg = GroupGraph(range(n), edges)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    candidates = sorted(gg.succ[a] | gg.pred[a])
    if not candidates:
        return
    b = data.draw(st.sampled_from(candidates))
    if gg.can_merge(a, b):
        gg.merge(a, b)
        gg.topo_order()  # must not raise


def _reachable_brute(gg, src, dst):
    """Unpruned DFS oracle for ``_reachable_avoiding_edge``."""
    stack = [s for s in gg.succ[src] if s != dst]
    seen = set(stack)
    while stack:
        n = stack.pop()
        if n == dst:
            return True
        for s in gg.succ[n]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return False


@settings(max_examples=60, deadline=None)
@given(random_dag(), st.data())
def test_level_pruned_reachability_matches_unpruned(dag, data):
    """Property: through an arbitrary merge sequence, the level function
    keeps its per-edge invariant and the pruned reachability check gives
    the same answer as an unpruned DFS for every adjacent pair."""
    n, edges = dag
    gg = GroupGraph(range(n), edges)
    for _ in range(data.draw(st.integers(min_value=0, max_value=n - 1))):
        pairs = [
            (a, b)
            for a in list(gg.succ)
            for b in sorted(gg.succ[a])
            if gg.can_merge(a, b)
        ]
        if not pairs:
            break
        gg.merge(*data.draw(st.sampled_from(pairs)))
    assert gg._level is not None
    for a in list(gg.succ):
        for b in sorted(gg.succ[a]):
            assert gg._level[a] < gg._level[b]
            assert gg._reachable_avoiding_edge(a, b) == _reachable_brute(
                gg, a, b
            )


def _contract(edges, owner):
    """The group DAG of an atom DAG under ``owner``, built from scratch."""
    return GroupGraph(
        sorted(set(owner)),
        {(owner[a], owner[b]) for a, b in edges if owner[a] != owner[b]},
    )


@settings(max_examples=80, deadline=None)
@given(random_dag(), st.data())
def test_rewire_matches_rebuilt_contraction(dag, data):
    """Property: moving atoms between two groups by ``rewire`` gives the
    contraction rebuilt from scratch, and ``rewire_creates_cycle`` says
    whether that contraction has a cycle."""
    n, edges = dag
    # contiguous ranges of the order 0..n-1 are convex groups
    cuts = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1),
                             min_size=1))
    owner = [sum(1 for c in cuts if c <= a) for a in range(n)]
    gg = _contract(edges, owner)
    g = data.draw(st.sampled_from(sorted(set(owner))))
    members = [a for a in range(n) if owner[a] == g]
    part = data.draw(st.sets(st.sampled_from(members), min_size=1))
    t = data.draw(st.sampled_from(sorted(set(owner) - {g})))

    moved = [t if a in part else owner[a] for a in range(n)]
    expected = _contract(edges, moved)
    changed = [c for c in (g, t) if c in expected.succ]
    succ = {c: expected.succ[c] for c in changed}
    pred = {c: expected.pred[c] for c in changed}
    drop = () if g in expected.succ else (g,)

    has_cycle = expected._level is None
    assert gg.rewire_creates_cycle(succ, pred, drop) == has_cycle
    if not has_cycle:
        gg.rewire(succ, pred, drop)
        assert gg.succ == expected.succ and gg.pred == expected.pred
        for a in list(gg.succ):
            for b in gg.succ[a]:
                assert gg._level[a] < gg._level[b]


def _unpruned(gg):
    """A view of ``gg`` that answers every query by unpruned search."""
    view = copy.copy(gg)
    view._level = None
    return view


@settings(max_examples=80, deadline=None)
@given(random_dag(), st.data())
def test_rewire_sequence_keeps_a_valid_level_function(dag, data):
    """Property: through a sequence of random valid rewires (parts moved
    between contiguous groups), the incrementally repaired level function
    keeps ``lv[a] < lv[b]`` on every edge, and ``can_merge`` and
    ``rewire_creates_cycle`` answer as the unpruned searches do."""
    n, edges = dag
    cuts = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1),
                             min_size=1))
    owner = [sum(1 for c in cuts if c <= a) for a in range(n)]
    gg = _contract(edges, owner)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        groups = sorted(set(owner))
        if len(groups) < 2:
            break
        g = data.draw(st.sampled_from(groups))
        members = [a for a in range(n) if owner[a] == g]
        part = data.draw(st.sets(st.sampled_from(members), min_size=1))
        t = data.draw(st.sampled_from([c for c in groups if c != g]))
        moved = [t if a in part else owner[a] for a in range(n)]
        expected = _contract(edges, moved)
        changed = [c for c in (g, t) if c in expected.succ]
        succ = {c: expected.succ[c] for c in changed}
        pred = {c: expected.pred[c] for c in changed}
        drop = () if g in expected.succ else (g,)
        creates = gg.rewire_creates_cycle(succ, pred, drop)
        assert creates == _unpruned(gg).rewire_creates_cycle(succ, pred, drop)
        if creates:
            continue
        gg.rewire(succ, pred, drop)
        owner = moved
        lv = gg._level
        assert lv is not None and set(lv) == set(gg.succ)
        for a in gg.succ:
            for b in gg.succ[a]:
                assert lv[a] < lv[b]
                assert gg.can_merge(a, b) == _unpruned(gg).can_merge(a, b)


def test_cyclic_input_disables_pruning_not_reachability():
    """A cyclic input (callers are expected to avoid it, but nothing
    enforces that at construction) falls back to the unpruned search."""
    gg = GroupGraph(range(3), [(0, 1), (1, 2), (2, 0)])
    assert gg._level is None
    assert gg._reachable_avoiding_edge(0, 2)      # 0 -> 1 -> 2
    # the only 0 -> 1 path is the direct edge, which the query excludes
    assert not gg._reachable_avoiding_edge(0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_convexity_matches_interval_property_on_chains(n, data):
    """Property: on a pure chain, a task subset is convex iff it is a
    contiguous interval of the chain order."""
    g = chain_graph(n_layers=n, width=4)
    tasks = list(g.tasks)
    idx = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(tasks) - 1),
            min_size=1, max_size=len(tasks), unique=True,
        )
    )
    subset = [tasks[i] for i in sorted(idx)]
    contiguous = sorted(idx) == list(range(min(idx), max(idx) + 1))
    assert is_convex(g, subset) == contiguous
