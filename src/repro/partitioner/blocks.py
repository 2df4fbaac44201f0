"""Block-level partitioning (Sec. III-B).

Groups atomic subcomponents into ``k`` coarse-grained *blocks* balancing
two criteria: computation-time balance and inter-block communication.
The three steps follow the k-way multilevel scheme the paper adapts from
Karypis-Kumar / Huynh et al.:

1. **Coarsening** -- iteratively merge each group (visited in ascending
   order of computation time) with the adjacent group minimizing the
   merged computation time, subject to convexity and the device-memory
   bound.  Levels are recorded for the next step.

2. **Uncoarsening** -- walk the levels back from coarsest to finest; for
   each recorded merge ``v U w``, try to move ``v`` (or ``w``) into an
   adjacent group if that reduces the bytes crossing group boundaries,
   keeping convexity and memory feasibility.  Moves are evaluated exactly
   on the contracted group DAG.

3. **Compaction** -- if more than ``k`` groups remain, topologically sort
   them and repeatedly merge the cheapest group with its cheaper
   list-neighbour (any consecutive range of a topological order is convex,
   so no convexity check is needed here) until ``k`` blocks remain or no
   merge fits in memory.

Implementation note: every step works from per-group aggregates that
merges and moves update in place -- saved-activation bytes, a private
parameter count plus the ids of parameters shared between atoms (all
integers, so the sums equal a from-scratch recount exactly), and the
group's time.  A merge candidate's memory check costs O(shared params),
a move's cut costs O(the part's incident edges), and a move's convexity
check searches the group DAG from the two changed groups only.  On very
large graphs (>:data:`UNCOARSEN_MAX_GROUPS` groups) uncoarsening still only
revisits the coarse levels, where the final block boundaries are decided;
lifting that cap would change plans (DESIGN.md, D4).

The atom DAG, its edge bytes and the per-atom aggregates are read off the
profiler's graph table (one edge per value and distinct consumer, in the
order ``TaskGraph.iter_edges`` visits them; integer byte sums by
``np.bincount``), with lone-task atoms taking their own entries.  A
whole new partition -- the singleton start, the compacted blocks -- is
installed from the atom arrays: owners, saved bytes and private
parameters by array ops, the group DAG's edges in the order ``a``
ascending, then ``comp_succ[a]``, so its sets iterate (and coarsening
breaks ties) as they always did.  The edge bytes and the predecessor
sets are built on first use: only uncoarsening reads them, and a large
graph's coarse levels never reach it.

A group's time is the one float sum that is not exact in every order, so
it keeps NumPy's: ``_group_time`` sums unions of fewer than 8 atoms left
to right over Python floats, which is what ``ndarray.sum`` does below
its 8-way unrolling, and hands larger unions to NumPy.  (The builtin
``sum`` would not do: from Python 3.12 it compensates float sums.)  The
merge loop bounds a candidate union's time from below before it sums
it, and skips the candidates whose bound already loses (exact:
:data:`PRUNE_SLACK`, DESIGN.md D4b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.ir import TaskGraph
from repro.graph.traversal import GroupGraph
from repro.hardware.cluster import ClusterSpec
from repro.partitioner.atomic import AtomicComponent
from repro.profiler.profiler import GraphProfiler, distinct

#: uncoarsening revisits only the merge levels with at most this many
#: groups (DESIGN.md, D4)
UNCOARSEN_MAX_GROUPS = 512

#: the merge loop's prune scales a candidate's part-time sum by ``1 -
#: PRUNE_SLACK x`` the atom count: ``4 x 2**-53`` per atom bounds the
#: rounding of any float sum of that many nonnegative terms with room to
#: spare, so the scaled sum never exceeds the union's computed time
#: (DESIGN.md, D4b)
PRUNE_SLACK = 4 * 2.0 ** -53


@dataclass(frozen=True)
class Block:
    """A coarse-grained block: the unit of stage-level partitioning."""

    index: int
    atomic_indices: Tuple[int, ...]
    tasks: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass
class _MergeRecord:
    """One coarsening merge: the two parts' atomic-id sets at merge time
    and the group count of the level it happened in."""

    part_v: FrozenSet[int]
    part_w: FrozenSet[int]
    level_group_count: int


@dataclass(slots=True)
class _Load:
    """The memory aggregates of one atom set.

    ``saved`` is the batch-1 checkpointed-activation bytes (an integer
    held in a float), ``private`` the size of the parameters no other
    atom uses, ``shared`` the ids of parameters several atoms use and
    ``shared_params`` their total size.  ``shared`` may be a frozenset
    (most groups share the empty one); :meth:`BlockPartitioner._absorb`
    rebinds it then instead of growing it in place."""

    saved: float
    private: int
    shared: AbstractSet[int]
    shared_params: int

    def copy(self) -> "_Load":
        return _Load(self.saved, self.private, set(self.shared),
                     self.shared_params)


class BlockPartitioner:
    """Stateful driver of the three block-partitioning steps."""

    def __init__(
        self,
        graph: TaskGraph,
        components: Sequence[AtomicComponent],
        profiler: GraphProfiler,
        cluster: ClusterSpec,
        num_blocks: int = 32,
        ref_batch_size: int = 1,
        balance_factor: float = 0.25,
    ) -> None:
        self.graph = graph
        self.components = list(components)
        self.profiler = profiler
        self.k = num_blocks
        self.ref_batch_size = max(1, ref_batch_size)
        self.balance_factor = balance_factor

        n = len(self.components)
        if n == 0:
            raise ValueError("no atomic components")

        # --- atomic-level DAG over components (edges between the unique
        # owners of non-constant tasks; cloned constants are internal) ----
        # read off the profiler's graph table: one edge per (value,
        # distinct consumer), in value order -- the order ``iter_edges``
        # visits them, so every successor set iterates as it always did.
        # A reader of a non-constant task's output is non-constant itself.
        comp_index = np.fromiter(
            map(attrgetter("index"), self.components), np.int64, n
        )
        comp_task = profiler.indices_of(
            map(attrgetter("non_constant_task"), self.components)
        )
        owner = np.full(len(profiler.non_constant), -1, dtype=np.int64)
        owner[comp_task] = comp_index
        counts = np.diff(profiler.value_consumer_ptr)
        value = np.repeat(np.arange(len(counts)), counts)
        src = profiler.value_producer[value]
        dst = profiler.value_consumers
        keep = src >= 0
        keep[keep] = profiler.non_constant[src[keep]]
        a, b, value = owner[src[keep]], owner[dst[keep]], value[keep]
        cross = a != b
        a, b, value = a[cross], b[cross], value[cross]
        self.comp_succ: List[Set[int]] = [set() for _ in range(n)]
        for x, y in zip(a.tolist(), b.tolist()):
            self.comp_succ[x].add(y)
        # the cross-atom edges, one per (value, distinct consumer), for
        # the views only uncoarsening reads (built on first use: a large
        # graph's coarse levels never reach it)
        self._cross_edges = (a, b, value)
        act_factor = profiler.precision.activation_bytes_factor

        # --- per-component cost coefficients -----------------------------
        # a lone task's sums are its own entries (a lone component's task
        # is its non-constant task); only components holding cloned
        # constants take the fancy-indexed sums
        tf, tb = profiler._times_at(self.ref_batch_size)
        self.comp_time = np.zeros(n)
        self.comp_saved = np.zeros(n)
        self.comp_param_ids: List[FrozenSet[int]] = [frozenset()] * n
        task_pids = profiler._task_param_ids
        lone = np.fromiter(
            map(len, map(attrgetter("tasks"), self.components)), np.int64, n
        ) == 1
        atoms, tasks = comp_index[lone], comp_task[lone]
        self.comp_time[atoms] = tf[tasks] + tb[tasks]
        self.comp_saved[atoms] = profiler.saved_bytes[tasks]
        reads = np.fromiter(map(len, task_pids), np.int64, len(task_pids))
        with_params = reads[tasks] > 0
        for atom, task in zip(atoms[with_params].tolist(),
                              tasks[with_params].tolist()):
            self.comp_param_ids[atom] = frozenset(task_pids[task])
        for comp in compress(self.components, ~lone):
            idx = profiler.indices_of(comp.tasks)
            self.comp_time[comp.index] = float(tf[idx].sum() + tb[idx].sum())
            self.comp_saved[comp.index] = float(
                profiler.saved_bytes[idx].sum()
            )
            pids: Set[int] = set()
            for i in idx:
                pids.update(task_pids[i])
            self.comp_param_ids[comp.index] = frozenset(pids)
        self._atom_time: List[float] = self.comp_time.tolist()
        # a parameter only one atom uses is counted once per group by
        # plain addition; only the shared ones need deduplicating
        self._param_sizes: List[int] = profiler._param_sizes
        counts = list(map(len, self.comp_param_ids))
        pid = np.fromiter(chain.from_iterable(self.comp_param_ids), np.int64,
                          sum(counts))
        atom = np.repeat(np.arange(n), counts)
        lone_user = np.bincount(pid)[pid] == 1
        self._atom_saved: List[float] = self.comp_saved.tolist()
        self._atom_private: List[int] = np.bincount(
            atom, weights=profiler._param_sizes_arr[pid] * lone_user,
            minlength=n,
        ).astype(np.int64).tolist()
        shared: Dict[int, List[int]] = {}
        for a, p in zip(atom[~lone_user].tolist(), pid[~lone_user].tolist()):
            shared.setdefault(a, []).append(p)
        self._atom_shared: List[FrozenSet[int]] = [frozenset()] * n
        for a, pids in shared.items():
            self._atom_shared[a] = frozenset(pids)
        self._shared_atoms = list(shared)
        self._saved_scale = self.ref_batch_size * act_factor
        # ``static_bytes`` is ``param_count x`` a per-parameter constant
        self._static_per_param = profiler.memory_model.static_bytes(1)
        # the merge loop's exact prune needs finite nonnegative atom times
        assert np.all(np.isfinite(self.comp_time) & (self.comp_time >= 0))

        # --- mutable partition state -------------------------------------
        # group id -> set of atomic indices; group ids are stable ints.
        # ``group_load`` / ``group_time`` are the per-group aggregates,
        # kept equal to a recount from the atoms.  ``_edge_ends`` lists
        # the atom DAG's edges in the order ``_reset_groups`` inserts them
        # into the group graph: ``a`` ascending, then ``comp_succ[a]``'s
        # iteration order.  The group graph's set orders, and so
        # coarsening's tie-breaks, follow it.
        self._edge_ends = np.array([
            np.repeat(np.arange(n), list(map(len, self.comp_succ))),
            np.fromiter(chain.from_iterable(self.comp_succ), np.int64),
        ])
        self._reset_groups({i: {i} for i in range(n)})
        self.records: List[_MergeRecord] = []
        self.memory_limit = cluster.device.usable_memory
        # what the run did, reported by the coarsen pass
        self.levels = 0
        self.moves = 0
        self.compaction = "none"

    @cached_property
    def comp_pred(self) -> List[Set[int]]:
        """Predecessor set per atom (inserted in value order)."""
        pred: List[Set[int]] = [set() for _ in range(len(self.components))]
        a, b, _ = self._cross_edges
        for x, y in zip(a.tolist(), b.tolist()):
            pred[y].add(x)
        return pred

    @cached_property
    def edge_bytes(self) -> Dict[Tuple[int, int], float]:
        """Byte weight per cross-component atom pair (the communication
        objective); the summands are integers, so bincount's sums are
        exact."""
        n = len(self.components)
        a, b, value = self._cross_edges
        key = a * n + b
        pairs = distinct(key)
        weights = np.bincount(
            np.searchsorted(pairs, key),
            weights=self.profiler.scaled_value_bytes(self.ref_batch_size,
                                                     value),
            minlength=len(pairs),
        )
        return dict(zip(
            zip((pairs // n).tolist(), (pairs % n).tolist()), weights.tolist()
        ))

    @cached_property
    def atom_edges(self) -> List[List[Tuple[int, float]]]:
        """:attr:`edge_bytes` per atom, over both edge directions."""
        edges: List[List[Tuple[int, float]]] = [
            [] for _ in range(len(self.components))
        ]
        for (x, y), w in self.edge_bytes.items():
            edges[x].append((y, w))
            edges[y].append((x, w))
        return edges

    # ------------------------------------------------------------------
    # cost helpers
    # ------------------------------------------------------------------
    def _group_time(self, atoms: Set[int]) -> float:
        """``float(comp_time[list(atoms)].sum())``, bit for bit.

        NumPy sums fewer than 8 elements left to right from ``0.0`` (its
        pairwise summation only unrolls from 8 up), so small unions take
        the same loop over Python floats, in the set's iteration order."""
        if len(atoms) < 8:
            total = 0.0
            times = self._atom_time
            for a in atoms:
                total += times[a]
            return total
        return float(self.comp_time[list(atoms)].sum())

    def _load_of(self, atoms) -> _Load:
        if len(atoms) == 1:
            # a lone atom's aggregates are its own entries
            (a,) = atoms
            shared = set(self._atom_shared[a])
            return _Load(self._atom_saved[a], self._atom_private[a], shared,
                         sum(self._param_sizes[p] for p in shared))
        shared: Set[int] = set()
        for a in atoms:
            shared |= self._atom_shared[a]
        return _Load(
            sum(self._atom_saved[a] for a in atoms),
            sum(self._atom_private[a] for a in atoms),
            shared,
            sum(self._param_sizes[p] for p in shared),
        )

    def _overlap(self, x: _Load, y: _Load) -> int:
        if not (x.shared and y.shared):
            return 0
        small, large = sorted((x.shared, y.shared), key=len)
        return sum(self._param_sizes[p] for p in small if p in large)

    def _params_memory(self, params: int, saved: float) -> float:
        return params * self._static_per_param + saved * self._saved_scale

    def _memory(self, load: _Load) -> float:
        """Loose memory estimate of the atoms ``load`` aggregates, used
        during block formation: static parameter/optimizer state plus one
        reference microbatch's checkpointed activations.  The DP
        re-checks memory exactly."""
        return self._params_memory(load.private + load.shared_params,
                                   load.saved)

    def _merged_memory(self, x: _Load, y: _Load) -> float:
        """``_memory`` of the union of two disjoint atom sets."""
        params = (x.private + y.private + x.shared_params + y.shared_params
                  - self._overlap(x, y))
        return self._params_memory(params, x.saved + y.saved)

    def _absorb(self, into: _Load, other: _Load) -> None:
        into.shared_params += other.shared_params - self._overlap(into, other)
        into.shared |= other.shared
        into.saved += other.saved
        into.private += other.private

    def _reset_groups(self, groups: Dict[int, Set[int]]) -> None:
        """Install a whole new partition: owners, aggregates, group DAG.

        Owners, saved bytes and private parameters come from the atom
        arrays (integer sums, exact in any order); a group's time is
        :meth:`_group_time` of its atoms, its shared ids the union over
        the few atoms that have any."""
        self.group_atoms = groups
        gids = np.array(list(groups), dtype=np.int64)
        sizes = list(map(len, groups.values()))
        members = np.fromiter(chain.from_iterable(groups.values()),
                              np.int64, sum(sizes))
        slot = np.repeat(np.arange(len(gids)), sizes)
        owner = np.full(len(self.components), -1, dtype=np.int64)
        owner[members] = gids[slot]
        self.atom_owner = owner.tolist()
        saved = np.bincount(slot, weights=self.comp_saved[members],
                            minlength=len(gids))
        private = np.bincount(slot,
                              weights=np.array(self._atom_private)[members],
                              minlength=len(gids)).astype(np.int64)
        self.group_load = dict(zip(groups, map(
            _Load, saved.tolist(), private.tolist(),
            repeat(frozenset()), repeat(0),
        )))
        for a in self._shared_atoms:
            self.group_load[self.atom_owner[a]].shared |= self._atom_shared[a]
        for g in {self.atom_owner[a] for a in self._shared_atoms}:
            load = self.group_load[g]
            load.shared_params = sum(self._param_sizes[p] for p in load.shared)
        self.group_time = dict(zip(groups, map(self._group_time,
                                                groups.values())))
        ga, gb = owner[self._edge_ends]
        cross = ga != gb
        self.gg = GroupGraph(list(groups),
                             zip(ga[cross].tolist(), gb[cross].tolist()))

    # ------------------------------------------------------------------
    # step 1: coarsening
    # ------------------------------------------------------------------
    def coarsen(self) -> None:
        """Iteratively merge groups until ``k`` remain or nothing merges.

        Merges respect a load threshold of ``balance_factor x total / k``
        (the streaming-partitioning balance criterion the paper adapts):
        a merge that would create a group heavier than the ideal per-block
        load is rejected, so no block becomes "a strong bottleneck".  The
        compaction step lifts the threshold when memory-feasible merges
        are still needed to reach exactly ``k`` groups.
        """
        threshold = self.balance_factor * float(self.comp_time.sum()) / self.k
        shrink = 1.0 - PRUNE_SLACK * len(self.components)
        # merges mutate these in place; ``gg`` is never replaced here
        group_atoms, group_time = self.group_atoms, self.group_time
        succ, pred = self.gg.succ, self.gg.pred
        while len(group_atoms) > self.k:
            ordered = sorted(group_atoms, key=group_time.__getitem__)
            consumed: Set[int] = set()  # merged this level (absorbed too)
            merged_any = False
            level_count = len(group_atoms)
            for v in ordered:
                if v in consumed:
                    continue
                if len(group_atoms) <= self.k:
                    break
                best_w: Optional[int] = None
                best_time = float("inf")
                time_v = group_time[v]
                for w in set(succ[v]) | set(pred[v]):
                    if w in consumed:
                        continue
                    # the pure checks run cheapest first: a candidate
                    # that cannot beat the best time so far is out
                    # whatever its convexity and memory.  ``lo`` is a
                    # lower bound on the union's time (PRUNE_SLACK), so
                    # it drops only candidates the exact test rejects
                    lo = (time_v + group_time[w]) * shrink
                    if lo > threshold or lo > best_time:
                        continue
                    t = self._group_time(group_atoms[v] | group_atoms[w])
                    if t > threshold or t >= best_time:
                        continue
                    if not self.gg.can_merge(v, w):
                        continue
                    if (self._merged_memory(self.group_load[v],
                                            self.group_load[w])
                            > self.memory_limit):
                        continue
                    best_time = t
                    best_w = w
                if best_w is None:
                    continue
                self.records.append(
                    _MergeRecord(
                        part_v=frozenset(group_atoms[v]),
                        part_w=frozenset(group_atoms[best_w]),
                        level_group_count=level_count,
                    )
                )
                self._do_merge(v, best_w)
                consumed.add(v)
                consumed.add(best_w)
                merged_any = True
            if not merged_any:
                break
            self.levels += 1

    def _do_merge(self, keep: int, absorb: int) -> None:
        atoms = self.group_atoms.pop(absorb)
        for a in atoms:
            self.atom_owner[a] = keep
        self.group_atoms[keep] |= atoms
        self.gg.merge(keep, absorb)
        self._absorb(self.group_load[keep], self.group_load.pop(absorb))
        del self.group_time[absorb]
        self.group_time[keep] = self._group_time(self.group_atoms[keep])

    # ------------------------------------------------------------------
    # step 2: uncoarsening (boundary refinement)
    # ------------------------------------------------------------------
    def uncoarsen(self) -> int:
        """Walk merge records coarse-to-fine, moving merge parts into
        adjacent groups when it reduces crossing bytes.  Returns the number
        of moves applied."""
        moves = 0
        for record in reversed(self.records):
            if record.level_group_count > UNCOARSEN_MAX_GROUPS:
                continue
            for part in (record.part_v, record.part_w):
                if self._try_move(part):
                    moves += 1
        self.moves += moves
        return moves

    def _part_owner(self, part: FrozenSet[int]) -> Optional[int]:
        owners = {self.atom_owner[a] for a in part}
        return owners.pop() if len(owners) == 1 else None

    def _try_move(self, part: FrozenSet[int]) -> bool:
        g = self._part_owner(part)
        if g is None or len(part) == len(self.group_atoms[g]):
            return False  # scattered by an earlier move, or whole group
        # candidate target groups: those adjacent to the part
        targets: Set[int] = set()
        for a in part:
            for b in self.comp_succ[a] | self.comp_pred[a]:
                t = self.atom_owner[b]
                if t != g:
                    targets.add(t)
        if not targets:
            return False
        before = self._local_cut(part, g)
        best_target: Optional[int] = None
        best_after = before
        for t in targets:
            after = self._local_cut(part, t)
            if after < best_after and self._move_is_valid(part, g, t):
                best_after = after
                best_target = t
        if best_target is None:
            return False
        self._apply_move(part, g, best_target)
        return True

    def _local_cut(self, part: FrozenSet[int], owner_group: int) -> float:
        """Bytes on edges incident to ``part`` that would cross a group
        boundary if ``part`` lived in ``owner_group``."""
        total = 0.0
        for a in part:
            for b, w in self.atom_edges[a]:
                # edges internal to the part never cross
                if b not in part and self.atom_owner[b] != owner_group:
                    total += w
        return total

    def _moved_adjacency(self, part: FrozenSet[int], g: int, t: int):
        """Group-DAG edges of ``g`` and ``t`` once ``part`` moved from
        ``g`` to ``t``: ``(succ, pred, dropped)``, where ``dropped`` names
        ``g`` if the move empties it."""
        rest = [a for a in self.group_atoms[g] if a not in part]
        succ: Dict[int, Set[int]] = {}
        pred: Dict[int, Set[int]] = {}
        for gid, atoms in ((g, rest), (t, [*self.group_atoms[t], *part])):
            if not atoms:
                continue
            out = succ[gid] = set()
            inc = pred[gid] = set()
            for a in atoms:
                for b in self.comp_succ[a]:
                    o = t if b in part else self.atom_owner[b]
                    if o != gid:
                        out.add(o)
                for b in self.comp_pred[a]:
                    o = t if b in part else self.atom_owner[b]
                    if o != gid:
                        inc.add(o)
        return succ, pred, () if rest else (g,)

    def _move_is_valid(self, part: FrozenSet[int], g: int, t: int) -> bool:
        """Memory of (t + part), and convexity of (g - part) and
        (t + part): the contracted group DAG after the move stays
        acyclic."""
        merged = self._merged_memory(self.group_load[t], self._load_of(part))
        if merged > self.memory_limit:
            return False
        return not self.gg.rewire_creates_cycle(
            *self._moved_adjacency(part, g, t)
        )

    def _apply_move(self, part: FrozenSet[int], g: int, t: int) -> None:
        self.gg.rewire(*self._moved_adjacency(part, g, t))
        for a in part:
            self.atom_owner[a] = t
        self.group_atoms[g] -= part
        self.group_atoms[t] |= part
        for gid in (g, t):
            atoms = self.group_atoms[gid]
            if atoms:
                self.group_load[gid] = self._load_of(atoms)
                self.group_time[gid] = self._group_time(atoms)
            else:
                del self.group_atoms[gid]
                del self.group_load[gid]
                del self.group_time[gid]

    # ------------------------------------------------------------------
    # step 3: compaction
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Compact the remaining groups into exactly ``k`` balanced,
        contiguous blocks.

        The paper's greedy rule (cheapest group absorbs its cheaper
        topo-list neighbour, :meth:`compact_greedy`) can pair a tiny group
        with a near-threshold one, creating a bottleneck block ~1.5x the
        ideal load.  Since any consecutive range of a topological order is
        convex, the same step can instead solve the classic *linear
        partitioning* problem exactly: binary-search the max block load
        and greedily pack groups in topological order under that cap (and
        the device-memory cap).  This refinement is documented as
        deviation D3 in DESIGN.md and ablated in the benchmarks.
        """
        order = self.gg.topo_order()
        if len(order) <= self.k:
            return
        times = [self.group_time[g] for g in order]
        best = None
        if len(order) <= 1024:
            best = self._exact_partition(order, times)
            self.compaction = "exact"
        if best is None:
            reach = self._memory_reach(order)
            lo = max(times)
            hi = sum(times)
            for _ in range(40):
                cap = 0.5 * (lo + hi)
                parts = self._pack(order, times, cap, reach)
                if parts is not None and len(parts) <= self.k:
                    best = parts
                    hi = cap
                else:
                    lo = cap
            self.compaction = "packed"
        if best is None:
            # memory constraints defeat every cap: fall back to greedy
            self.compaction = "greedy"
            self.compact_greedy()
            return
        self._rebuild_from_parts(best)

    def _exact_partition(
        self, order: List[int], times: List[float]
    ) -> Optional[List[List[int]]]:
        """Optimal minimax contiguous partition into exactly ``k`` parts
        (classic linear-partitioning DP); returns ``None`` if any part of
        the optimum violates the memory cap (caller falls back).

        Each part count fills its whole row at once: an (end, start)
        matrix of candidate costs, starts at or past their end masked to
        infinity, and a row-wise ``argmin`` that keeps the first minimum.
        """
        n = len(order)
        k = min(self.k, n)
        prefix = np.concatenate([[0.0], np.cumsum(times)])
        INF = float("inf")
        cost = np.full((k + 1, n + 1), INF)
        cut = np.zeros((k + 1, n + 1), dtype=np.int64)
        cost[0, 0] = 0.0
        for parts in range(1, k + 1):
            ends = np.arange(parts, n - (k - parts) + 1)
            starts = np.arange(parts - 1, ends[-1])
            cand = np.maximum(
                cost[parts - 1, starts][None, :],
                prefix[ends][:, None] - prefix[starts][None, :],
            )
            cand[starts[None, :] >= ends[:, None]] = INF
            j = np.argmin(cand, axis=1)
            cost[parts, ends] = cand[np.arange(len(ends)), j]
            cut[parts, ends] = starts[j]
        if not np.isfinite(cost[k, n]):
            return None
        bounds = [n]
        end = n
        for parts in range(k, 0, -1):
            end = int(cut[parts, end])
            bounds.append(end)
        bounds.reverse()
        parts_list: List[List[int]] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            part = order[lo:hi]
            load = self.group_load[part[0]].copy()
            for gid in part[1:]:
                self._absorb(load, self.group_load[gid])
            if self._memory(load) > self.memory_limit:
                return None
            parts_list.append(part)
        return parts_list

    def _memory_reach(self, order: List[int]) -> List[int]:
        """Per start ``i``, the end of the longest run ``order[i:j]`` that
        fits the memory cap (``i + 1`` at least: a lone group always
        forms a part).

        A run's memory only grows as it extends and only shrinks as its
        start advances, so the ends never decrease and two pointers find
        them all in one pass.  The window keeps the aggregates of
        ``_absorb``: saved bytes, private parameters, and a user count per
        shared parameter id.  All are integers (saved bytes held in a
        float), so adding and removing groups is exact and each test
        equals ``_merged_memory(window, next group) > memory_limit``."""
        n = len(order)
        loads = [self.group_load[g] for g in order]
        sizes = self._param_sizes
        users: Dict[int, int] = {}
        saved, private, shared_params = 0.0, 0, 0
        reach = [0] * n
        j = 0
        for i in range(n):
            while j < n:
                y = loads[j]
                if j > i:
                    fresh = sum(sizes[p] for p in y.shared if p not in users)
                    params = private + shared_params + y.private + fresh
                    if (self._params_memory(params, saved + y.saved)
                            > self.memory_limit):
                        break
                for p in y.shared:
                    if p in users:
                        users[p] += 1
                    else:
                        users[p] = 1
                        shared_params += sizes[p]
                saved += y.saved
                private += y.private
                j += 1
            reach[i] = j
            x = loads[i]
            for p in x.shared:
                users[p] -= 1
                if not users[p]:
                    del users[p]
                    shared_params -= sizes[p]
            saved -= x.saved
            private -= x.private
        return reach

    @staticmethod
    def _pack(
        order: List[int], times: List[float], cap: float, reach: List[int]
    ) -> Optional[List[List[int]]]:
        """Greedy prefix packing under a load cap and the memory cap: a
        part opened at ``i`` takes groups while its load stays within
        ``cap`` and it ends before ``reach[i]`` (:meth:`_memory_reach`)."""
        parts: List[List[int]] = []
        n = len(order)
        i = 0
        while i < n:
            acc = times[i]
            if acc > cap:
                return None  # a single group exceeds the load cap
            j = i + 1
            end = reach[i]
            while j < end:
                grown = acc + times[j]
                if grown > cap:
                    break
                acc = grown
                j += 1
            parts.append(order[i:j])
            i = j
        return parts

    def _rebuild_from_parts(self, parts: List[List[int]]) -> None:
        new_groups: Dict[int, Set[int]] = {}
        for i, gids in enumerate(parts):
            atoms: Set[int] = set()
            for gid in gids:
                atoms |= self.group_atoms[gid]
            new_groups[i] = atoms
        self._reset_groups(new_groups)

    def compact_greedy(self) -> None:
        """The paper's literal compaction rule: in ascending order of
        computation time, merge each group with its cheaper topologically
        adjacent list-neighbour until ``k`` groups remain."""
        while len(self.group_atoms) > self.k:
            order = self.gg.topo_order()
            pos = {g: i for i, g in enumerate(order)}
            by_time = sorted(order, key=self.group_time.__getitem__)
            merged = False
            for v in by_time:
                i = pos[v]
                candidates = []
                if i > 0:
                    candidates.append(order[i - 1])
                if i + 1 < len(order):
                    candidates.append(order[i + 1])
                if not candidates:
                    continue
                candidates.sort(key=self.group_time.__getitem__)
                for w in candidates:
                    if (self._merged_memory(self.group_load[v],
                                            self.group_load[w])
                            > self.memory_limit):
                        continue
                    # merging list-adjacent groups of a topological order
                    # is always convex (interval argument), but the group
                    # graph must stay acyclic -- guaranteed for immediate
                    # neighbours only when they are also DAG-compatible:
                    if not self._list_merge_keeps_dag(v, w):
                        continue
                    self._do_merge(v, w)
                    merged = True
                    break
                if merged:
                    break
            if not merged:
                break  # memory prevents reaching k; return what we have

    def _list_merge_keeps_dag(self, v: int, w: int) -> bool:
        """Merging consecutive topo-list groups keeps the contracted graph
        acyclic iff no *other* group lies on a path between them."""
        if not self.gg.adjacent(v, w):
            return True  # independent groups: union is trivially fine
        return self.gg.can_merge(v, w)

    # ------------------------------------------------------------------
    def run(self) -> List[Block]:
        """Execute coarsening, uncoarsening and compaction; return blocks
        in topological order."""
        self.coarsen()
        self.uncoarsen()
        if len(self.group_atoms) > self.k:
            self.compact()
        order = self.gg.topo_order()
        task_pos = self.profiler._index
        blocks: List[Block] = []
        for new_idx, gid in enumerate(order):
            atoms = sorted(self.group_atoms[gid])
            tasks: Set[str] = set()
            for a in atoms:
                tasks.update(self.components[a].tasks)
            blocks.append(
                Block(
                    index=new_idx,
                    atomic_indices=tuple(atoms),
                    tasks=tuple(sorted(tasks, key=task_pos.__getitem__)),
                )
            )
        return blocks


def block_partition(
    graph: TaskGraph,
    components: Sequence[AtomicComponent],
    profiler: GraphProfiler,
    cluster: ClusterSpec,
    num_blocks: int = 32,
    ref_batch_size: int = 1,
) -> List[Block]:
    """Convenience wrapper running the full block-level phase."""
    return BlockPartitioner(
        graph,
        components,
        profiler,
        cluster,
        num_blocks=num_blocks,
        ref_batch_size=ref_batch_size,
    ).run()
