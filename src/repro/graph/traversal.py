"""Graph traversal utilities: topological order, reachability, convexity.

Convexity is the central structural constraint of block-level partitioning
(Sec. III-B): "a group u is convex if and only if there is no path between
any pair alpha, beta in u such that the path goes through any gamma not in
u".  A non-convex stage would deadlock the pipeline, so every merge and
every uncoarsening move must preserve it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.ir import TaskGraph


def task_successors(graph: TaskGraph) -> Dict[str, List[str]]:
    """Adjacency map task -> successor tasks (via produced values)."""
    succ: Dict[str, List[str]] = {t: [] for t in graph.tasks}
    for producer, consumer in graph.iter_edges():
        succ[producer].append(consumer)
    return succ


def task_predecessors(graph: TaskGraph) -> Dict[str, List[str]]:
    """Adjacency map task -> predecessor tasks."""
    pred: Dict[str, List[str]] = {t: [] for t in graph.tasks}
    for producer, consumer in graph.iter_edges():
        pred[consumer].append(producer)
    return pred


def topo_sort_tasks(graph: TaskGraph) -> List[str]:
    """Kahn topological sort, deterministic (insertion order tie-break).

    Raises ``ValueError`` if the graph contains a cycle.
    """
    succ = task_successors(graph)
    indeg: Dict[str, int] = {t: 0 for t in graph.tasks}
    for _, consumer in graph.iter_edges():
        indeg[consumer] += 1
    ready = deque(t for t in graph.tasks if indeg[t] == 0)
    order: List[str] = []
    while ready:
        t = ready.popleft()
        order.append(t)
        for s in succ[t]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != len(graph.tasks):
        raise ValueError("task graph contains a cycle")
    return order


def descendants(graph: TaskGraph, roots: Iterable[str]) -> Set[str]:
    """All tasks reachable from ``roots`` (excluding the roots themselves
    unless reachable through a cycle-free path from another root)."""
    succ = task_successors(graph)
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        for s in succ[t]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return seen


def ancestors(graph: TaskGraph, roots: Iterable[str]) -> Set[str]:
    """All tasks that can reach ``roots``."""
    pred = task_predecessors(graph)
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        for p in pred[t]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def is_convex(graph: TaskGraph, members: Iterable[str]) -> bool:
    """Check convexity of a task subset.

    A subset is convex iff no directed path exits the subset and re-enters
    it.  Implemented as a BFS through *external* tasks starting from the
    external successors of the subset; if any member is reached, some path
    leaves and comes back.
    """
    mset = set(members)
    succ = task_successors(graph)
    frontier: deque = deque()
    seen: Set[str] = set()
    for t in mset:
        for s in succ[t]:
            if s not in mset and s not in seen:
                seen.add(s)
                frontier.append(s)
    while frontier:
        t = frontier.popleft()
        for s in succ[t]:
            if s in mset:
                return False
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return True


class GroupGraph:
    """A DAG over disjoint task groups, supporting incremental merges.

    Used by block-level partitioning: groups start as atomic subcomponents
    and are repeatedly merged.  The class maintains group adjacency and
    answers the *convex-merge* query cheaply: merging adjacent groups
    ``v -> w`` stays convex iff every path from ``v`` to ``w`` in the group
    DAG is the direct edge (i.e. ``w`` unreachable from ``v`` once the
    direct edge is removed), and symmetrically.  This is equivalent to the
    task-level convexity definition when all current groups are convex.

    Reachability checks are pruned by a *level function*: an integer per
    group with ``level[a] < level[b]`` for every edge ``a -> b``.  Any
    path from ``n`` to ``dst`` then implies ``level[n] < level[dst]``,
    so the DFS behind :meth:`can_merge` never expands nodes at or above
    the destination's level -- near-O(1) on chain-like graphs instead of
    a full-graph sweep, with bit-identical answers (the bound only skips
    nodes that provably cannot reach ``dst``).  Levels are repaired
    incrementally on :meth:`merge` and :meth:`rewire`, by pushing levels
    down from the changed nodes; any valid level function gives the same
    answers.  If the input has a cycle (callers are expected to keep the
    graph a DAG) pruning disables itself and the unpruned search is used.
    """

    def __init__(
        self,
        node_ids: Sequence[int],
        edges: Iterable[Tuple[int, int]],
    ) -> None:
        succ: Dict[int, Set[int]] = {n: set() for n in node_ids}
        pred: Dict[int, Set[int]] = {n: set() for n in node_ids}
        for a, b in edges:
            if a == b:
                continue
            succ[a].add(b)
            pred[b].add(a)
        self.succ, self.pred = succ, pred
        self._level: Optional[Dict[int, int]] = self._compute_levels()

    def _compute_levels(self) -> Optional[Dict[int, int]]:
        """Longest-path-from-source level per node; None on a cycle."""
        succ = self.succ
        level = dict.fromkeys(succ, 0)
        indeg = {n: len(p) for n, p in self.pred.items()}
        stack = [n for n, d in indeg.items() if d == 0]
        processed = 0
        while stack:
            n = stack.pop()
            processed += 1
            floor = level[n] + 1
            for s in succ[n]:
                if level[s] < floor:
                    level[s] = floor
                d = indeg[s] - 1
                indeg[s] = d
                if not d:
                    stack.append(s)
        return level if processed == len(succ) else None

    def adjacent(self, v: int, w: int) -> bool:
        return w in self.succ[v] or w in self.pred[v]

    def _reachable_avoiding_edge(self, src: int, dst: int) -> bool:
        """Is ``dst`` reachable from ``src`` without using edge src->dst?"""
        lv = self._level
        if lv is None:  # cyclic input: no valid levels, search unpruned
            stack = [s for s in self.succ[src] if s != dst]
            seen = set(stack)
            while stack:
                n = stack.pop()
                if n == dst:
                    return True
                for s in self.succ[n]:
                    if s not in seen:
                        seen.add(s)
                        stack.append(s)
            return False
        bound = lv[dst]
        stack = [s for s in self.succ[src] if s != dst and lv[s] < bound]
        seen = set(stack)
        while stack:
            n = stack.pop()
            for s in self.succ[n]:
                if s == dst:
                    return True
                if s not in seen and lv[s] < bound:
                    seen.add(s)
                    stack.append(s)
        return False

    def can_merge(self, v: int, w: int) -> bool:
        """True if merging adjacent groups v and w keeps convexity."""
        if v == w:
            return False
        if w in self.succ[v]:
            src, dst = v, w
        elif v in self.succ[w]:
            src, dst = w, v
        else:
            return False  # not adjacent
        return not self._reachable_avoiding_edge(src, dst)

    def merge(self, keep: int, absorb: int) -> None:
        """Merge node ``absorb`` into node ``keep`` (must keep acyclicity,
        i.e. callers check :meth:`can_merge` first)."""
        if keep == absorb:
            raise ValueError("cannot merge a node with itself")
        for s in self.succ.pop(absorb):
            self.pred[s].discard(absorb)
            if s != keep:
                self.succ[keep].add(s)
                self.pred[s].add(keep)
        for p in self.pred.pop(absorb):
            self.succ[p].discard(absorb)
            if p != keep:
                self.pred[keep].add(p)
                self.succ[p].add(keep)
        self.succ[keep].discard(keep)
        self.pred[keep].discard(keep)
        if self._level is not None:
            lv = self._level
            lv[keep] = max(lv[keep], lv.pop(absorb))
            # keep's level may have risen, and absorb's successors now
            # hang off keep.  Predecessor edges cannot be violated (keep's
            # level only grew).
            self._push_levels([keep])

    def _push_levels(self, stack: List[int]) -> None:
        """Repair the level function below the nodes on ``stack``, whose
        incoming edges already hold: raise each successor to one above
        its predecessor, transitively.  A budget bounds the worklist so
        a caller-introduced cycle degrades to unpruned searches instead
        of looping forever."""
        lv = self._level
        budget = 4 * len(self.succ) + 16
        while stack and budget >= 0:
            n = stack.pop()
            floor = lv[n] + 1
            for s in self.succ[n]:
                if lv[s] < floor:
                    lv[s] = floor
                    stack.append(s)
                    budget -= 1
        if budget < 0:
            self._level = None

    def rewire_creates_cycle(
        self,
        succ: Dict[int, Set[int]],
        pred: Dict[int, Set[int]],
        drop: Iterable[int] = (),
    ) -> bool:
        """Would :meth:`rewire` with these arguments leave a cycle?

        Edges between untouched nodes do not change, so on a DAG any new
        cycle passes through a rewired node: search from each one for a
        path back to itself over the rewired adjacency.  An untouched
        node reaches a rewired one only through an untouched predecessor
        of it, so the search skips untouched nodes levelled above every
        such predecessor (same answer, as in :meth:`can_merge`)."""
        gone = set(succ) | set(drop)
        lv = self._level
        entries = [p for c in succ for p in pred[c] if p not in gone]
        bound = None
        if lv is not None:
            bound = max((lv[p] for p in entries), default=-1)

        def out(n: int) -> Iterable[int]:
            if n in succ:
                nxt = list(succ[n])
            else:
                nxt = [s for s in self.succ[n] if s not in gone]
                nxt += [c for c in succ if n in pred[c]]
            if bound is None:
                return nxt
            return [s for s in nxt if s in succ or lv[s] <= bound]

        for start in succ:
            stack = out(start)
            seen = set(stack)
            while stack:
                n = stack.pop()
                if n == start:
                    return True
                for s in out(n):
                    if s not in seen:
                        seen.add(s)
                        stack.append(s)
        return False

    def rewire(
        self,
        succ: Dict[int, Set[int]],
        pred: Dict[int, Set[int]],
        drop: Iterable[int] = (),
    ) -> None:
        """Replace every edge of the nodes keyed in ``succ`` / ``pred``
        with the given successor / predecessor sets, and delete the
        (edgeless afterwards) nodes in ``drop``.  Callers keep the graph
        acyclic (see :meth:`rewire_creates_cycle`).  The level function
        is repaired from the rewired nodes, as :meth:`merge` repairs it
        from the kept node."""
        drop = set(drop)
        gone = set(succ) | drop
        for n in gone:
            for s in self.succ.pop(n):
                if s not in gone:
                    self.pred[s].discard(n)
            for p in self.pred.pop(n):
                if p not in gone:
                    self.succ[p].discard(n)
        for n in succ:
            self.succ[n] = set(succ[n])
            self.pred[n] = set(pred[n])
        for n in succ:
            for s in succ[n]:
                self.pred[s].add(n)
            for p in pred[n]:
                self.succ[p].add(n)
        lv = self._level
        if lv is None:
            return
        # Only edges at the rewired nodes can be violated: lift each
        # rewired node above its predecessors, then push down from them
        # all (a predecessor lifted later pushes down to it again).
        for n in drop:
            lv.pop(n, None)
        for n in succ:
            lv[n] = max([lv.get(n, 0)] + [lv[p] + 1 for p in pred[n]
                                          if p in lv])
        self._push_levels(list(succ))

    def topo_order(self) -> List[int]:
        indeg = {n: len(self.pred[n]) for n in self.succ}
        ready = deque(sorted(n for n, d in indeg.items() if d == 0))
        order: List[int] = []
        while ready:
            n = ready.popleft()
            order.append(n)
            for s in sorted(self.succ[n]):
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self.succ):
            raise ValueError("group graph contains a cycle")
        return order

