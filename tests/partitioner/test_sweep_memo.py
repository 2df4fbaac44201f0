"""The sweep memo of a shared DP context (DESIGN.md D2d).

On a homogeneous cluster an Algorithm-1 sweep reads the memory cap only
through the mask of band entries over it, and a bounded sweep only
through that mask joined with the entries over its bound.  So a sweep
the context stored answers a later one of the same key whose mask
agrees on the entries at or below the later bound, provided the stored
bound is no lower: the stored answers at or below the later bound are
the later sweep's.  The memo must be exact: with and without it,
``form_stage`` gives the same result field for field, and so does every
sweep.  A sweep stored at a lower bound misses, a band that grew is a
new key, and a heterogeneous cluster never reuses a sweep.  A level a
stored answer seeds (DESIGN.md D2f) bounds its sweeps no looser than the
memo-off search does, so it may rank fewer candidates, never other
answers.
"""

import concurrent.futures
import math
import sys
from contextlib import ExitStack, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Precision, paper_cluster
from repro.obs import MetricsRegistry
from repro.partitioner import search
from repro.partitioner.deployment import plan_to_json
from repro.partitioner.search import form_stage
from repro.partitioner.stage_dp import (
    FIT_TABLES_KEPT,
    SWEEPS_KEPT,
    DPContext,
    DPRun,
    covering_sweeps,
    form_stage_dp,
    sweep_key,
)
from repro.planner import PlannerConfig, PlanningContext
from repro.planner.passes import DP_CONTEXT, SEARCH_RESULT
from repro.planner.replan import ensure_store
from tests.partitioner.test_hetero_pinned import CLUSTERS as HETERO_CLUSTERS
from tests.partitioner.test_hetero_pinned import MODELS as HETERO_MODELS
from tests.partitioner.test_hetero_pinned import SCENARIOS as HETERO_SCENARIOS
from tests.partitioner.test_sweep_bound import solution_key
from tests.partitioner.test_sweep_prune import (
    BATCH,
    dp_context,
    fresh,
    graphs,  # noqa: F401  (module fixture)
    result_key,
)

GiB = 1024**3

CONFIGS = {
    "fp32": {},
    "amp": dict(precision=Precision.AMP),
    "inference": dict(mode="inference"),
}


def no_memo():
    """Every sweep runs its table, no stored sweep seeds a level, and
    none is stored."""
    stack = ExitStack()
    stack.enter_context(
        mock.patch.object(DPContext, "recall_sweep", lambda *a: None)
    )
    stack.enter_context(
        mock.patch.object(DPContext, "store_sweep", lambda *a: None)
    )
    stack.enter_context(
        mock.patch.object(DPRun, "stored_incumbent", lambda *a: math.inf)
    )
    return stack


def plan_key(res):
    """A search result but for the candidates it ranked."""
    return None if res is None else result_key(res)[:-1]


def searched(run, memo=True):
    """``form_stage`` on ``run``: the result, the metrics and every sweep
    made, as ``[(D, R, MB, bound, {S: solution key})]`` in order."""
    sweep = search.form_stage_dp
    swept = []

    def recording_sweep(run, stage_counts, D, R, MB, **kw):
        out = sweep(run, stage_counts, D, R, MB, **kw)
        swept.append((D, R, MB, kw["bound"],
                      {S: solution_key(sol) for S, sol in out.items()}))
        return out

    m = MetricsRegistry()
    with mock.patch.object(search, "form_stage_dp", recording_sweep), \
            (nullcontext() if memo else no_memo()):
        res = form_stage(run)
    run.publish(m)
    return res, m, swept


def assert_memo_exact(memo, cluster, budget):
    """A search over ``memo`` at ``budget`` plans what one with the memo
    patched off plans, and ranks at least one and at most its
    candidates.  Unless a seeded level fell back, it makes the same
    sweeps, each at a bound no looser, with exactly the memo-off
    sweep's answers at or below its bound, and the same ``dp_calls``
    and ``states_evaluated``.  Returns the sweeps the memo answered."""
    on = DPRun(memo, cluster, budget)
    res_on, m_on, swept_on = searched(on)
    off = DPRun(memo, cluster, budget)
    res_off, _, swept_off = searched(off, memo=False)
    assert plan_key(res_on) == plan_key(res_off)
    if res_on is not None:
        assert 1 <= res_on.candidates_tried <= res_off.candidates_tried
    if on.seed_fallbacks == 0:
        assert [s[:3] for s in swept_on] == [s[:3] for s in swept_off]
        for (*_, bound, answers), (*_, off_bound, off_answers) in zip(
            swept_on, swept_off
        ):
            assert bound <= off_bound
            assert answers == {
                S: key if key is not None and key[5] <= bound else None
                for S, key in off_answers.items()
            }
        if res_on is not None:
            assert (res_on.dp_calls, res_on.states_evaluated) == (
                res_off.dp_calls, res_off.states_evaluated
            )
        assert on.band_width_max <= off.band_width_max
        assert on.cells_reduced <= off.cells_reduced
    assert off.sweeps_reused == off.levels_seeded == 0
    assert m_on.counter("search.sweeps_reused").value == on.sweeps_reused
    return on.sweeps_reused


_bases = {}


def base_run(graphs, model, config, nodes=2):  # noqa: F811
    """The planner's DP context for a paper preset, built once per
    module."""
    key = (model, config, nodes)
    if key not in _bases:
        _bases[key] = dp_context(graphs[model], paper_cluster(nodes),
                                 batch_size=BATCH[model], **CONFIGS[config])
    return _bases[key]


# ----------------------------------------------------------------------
# exact on the planner's inputs


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("model", sorted(BATCH))
@settings(max_examples=6, deadline=None)
@given(
    nodes=st.sampled_from([1, 2, 4]),
    caps_gib=st.lists(
        st.one_of(st.none(), st.floats(min_value=2.0, max_value=32.0)),
        min_size=2, max_size=5,
    ),
)
def test_random_caps_exact(graphs, model, config, nodes,  # noqa: F811
                           caps_gib):
    """A base search without a budget, then one per random cap, over one
    context: each equals the search with the memo patched off."""
    base = base_run(graphs, model, config, nodes)
    memo = fresh(base).memo
    for gib in [None, *caps_gib]:
        budget = None if gib is None else gib * GiB
        assert_memo_exact(memo, base.cluster, budget)


def test_daemon_budgets_reuse_sweeps(graphs):  # noqa: F811
    """Budgets between 12 and 31 GiB after a base plan, as the daemon
    workload sends them: many sweeps are reused, all of them exactly."""
    base = base_run(graphs, "bert-base", "fp32")
    memo = fresh(base).memo
    rng = np.random.default_rng(7)
    reused = sum(
        assert_memo_exact(memo, base.cluster, budget)
        for budget in [None, *(rng.uniform(12, 31, size=6) * GiB)]
    )
    assert reused > 0


# ----------------------------------------------------------------------
# the hit rule, sweep by sweep

#: bert-base on one node: one level, D = 8, R = 1
D, R, STAGES = 8, 1, range(1, 9)


@pytest.fixture(scope="module")
def one_node(graphs):  # noqa: F811
    return dp_context(graphs["bert-base"], paper_cluster(1),
                      batch_size=BATCH["bert-base"])


def sweep(memo, cluster, MB, budget=None, bound=math.inf):
    run = DPRun(memo, cluster, budget)
    answers = form_stage_dp(run, STAGES, D, R, MB, bound=bound)
    return {S: solution_key(sol) for S, sol in answers.items()}, run


def swept_mb(run):
    """The microbatch count of the level's sweep with the most answers."""
    counts = covering_sweeps(
        run, STAGES, D, R, search.microbatch_candidates(
            search.microbatch_cap(run.memo.batch_size, R, None)
        )
    )
    memo = fresh(run).memo
    return max(counts, key=lambda MB: sum(
        sol is not None for sol in sweep(memo, run.cluster, MB)[0].values()
    ))


def test_a_sweep_stored_at_a_lower_bound_misses(one_node):
    """A sweep stored at bound ``B0`` answers a sweep at ``B1 <= B0`` and
    misses one at ``B1 > B0``: it never held the answers above ``B0``."""
    MB = swept_mb(one_node)
    cluster = one_node.cluster
    unbounded, _ = sweep(fresh(one_node).memo, cluster, MB)
    objectives = sorted(key[5] for key in unbounded.values() if key)
    assert len(objectives) >= 3
    low, mid = objectives[0], objectives[len(objectives) // 2]
    memo = fresh(one_node).memo
    sweep(memo, cluster, MB, bound=mid)
    # each miss is stored in turn: the sweep at 1.5 * mid misses the one
    # at mid, and the unbounded sweep misses both
    for bound, hit in ((mid * 1.5, False), (math.inf, False),
                       (mid, True), (low, True)):
        answers, run = sweep(memo, cluster, MB, bound=bound)
        reference, ref_run = sweep(fresh(one_node).memo, cluster, MB,
                                   bound=bound)
        assert answers == reference
        assert run.sweeps_reused == hit
        assert run.states_evaluated == ref_run.states_evaluated
        assert run.band_width_max == ref_run.band_width_max
        if hit:
            assert run.cells_reduced == 0
    # the unbounded sweep has answers over ``mid``, so a reuse of the
    # sweep stored at ``mid`` would have lost them
    assert objectives[-1] > mid


def band_entries(run, MB):
    """``(memory, t_f + t_b)`` of the band entries the level's sweep reads
    (its table starts at two stages)."""
    s_lo = 2
    bands = run.profile_bands(D, R, MB, run.memo.k - s_lo + 1)
    n_planes = int(bands.plane_of_r[1:D - s_lo + 2].max()) + 1
    return bands.mem[:n_planes], bands.tf[:n_planes] + bands.tb[:n_planes]


def test_masks_that_differ_only_over_the_bound_hit(one_node):
    """Two caps whose masks differ only on entries over the bound give
    the same bounded sweep: the second is answered from the first."""
    MB = swept_mb(one_node)
    cluster = one_node.cluster
    unbounded, _ = sweep(fresh(one_node).memo, cluster, MB)
    objectives = sorted(key[5] for key in unbounded.values() if key)
    bound = objectives[len(objectives) // 2]
    mem, time = band_entries(DPRun(fresh(one_node).memo, cluster), MB)
    capacity = DPRun(one_node.memo, cluster).usable_memory
    # consecutive memory values below the device: the caps at them mask
    # the same entries but those of the upper value
    values = np.unique(mem[np.isfinite(mem) & (mem <= capacity)])
    pairs = [
        (lo, hi) for lo, hi in zip(values[:-1], values[1:])
        if (time[mem == hi] > bound).all()
    ]
    assert pairs
    lo_cap, hi_cap = pairs[-1]
    memo = fresh(one_node).memo
    stored, first = sweep(memo, cluster, MB, lo_cap, bound)
    answers, run = sweep(memo, cluster, MB, hi_cap, bound)
    reference, _ = sweep(fresh(one_node).memo, cluster, MB, hi_cap, bound)
    assert (first.sweeps_reused, run.sweeps_reused) == (0, 1)
    assert answers == reference == stored
    assert any(answers.values())
    # unbounded, the same two caps differ: the second sweep runs
    sweep(memo, cluster, MB, lo_cap)
    answers, run = sweep(memo, cluster, MB, hi_cap)
    assert run.sweeps_reused == 0
    assert answers == sweep(fresh(one_node).memo, cluster, MB, hi_cap)[0]


def test_a_band_that_grew_is_a_new_key(one_node):
    """A sweep over stage counts 5..8 builds a band ``k - 4`` blocks
    wide; one over 2..8 widens it; the next sweep over 5..8 reads the wider band,
    so the sweep stored over the narrow one does not answer it."""
    MB = swept_mb(one_node)
    cluster = one_node.cluster
    memo = fresh(one_node).memo
    narrow = form_stage_dp(DPRun(memo, cluster), range(5, 9), D, R, MB)
    span = memo._band_cache[D, R, MB].span
    form_stage_dp(DPRun(memo, cluster), range(2, 9), D, R, MB)
    assert memo._band_cache[D, R, MB].span > span
    run = DPRun(memo, cluster)
    again = form_stage_dp(run, range(5, 9), D, R, MB)
    assert run.sweeps_reused == 0
    assert {S: solution_key(s) for S, s in again.items()} == {
        S: solution_key(s) for S, s in narrow.items()
    }
    # the same band again is a hit
    run = DPRun(memo, cluster)
    form_stage_dp(run, range(5, 9), D, R, MB)
    assert run.sweeps_reused == 1


@pytest.mark.parametrize("name", [
    "bert-base/mixed/budget2048MiB",
    "bert-base/tiny-mixed-starved/nobudget",
])
def test_heterogeneous_clusters_never_reuse(name):
    """The slot caps are not in the mask, so the memo is off there."""
    model, cluster, budget = HETERO_SCENARIOS[name]
    build, batch_size = HETERO_MODELS[model]
    dp = dp_context(build(), HETERO_CLUSTERS[cluster](),
                    batch_size=batch_size, memory_budget=budget)
    for _ in range(2):
        run = DPRun(dp.memo, dp.cluster, budget)
        res, m, _ = searched(run)
        assert res is not None
        assert run.sweeps_reused == 0
        assert m.counter("search.sweeps_reused").value == 0
    assert dp.memo._sweep_memo == {}


def test_concurrent_runs_share_the_memo(graphs):  # noqa: F811
    """Runs at eight budgets over one context at once, with more threads
    than cores and a short switch interval: every result is the
    memo-off search's, and the caches keep within their caps (a lost
    insert only costs a later miss)."""
    base = base_run(graphs, "bert-base", "fp32")
    cluster = base.cluster
    budgets = [None, *(np.linspace(12, 29, 7) * GiB)]
    reference = fresh(base).memo
    with no_memo():
        expected = {
            b: searched(DPRun(reference, cluster, b))[0] for b in budgets
        }
    memo = fresh(base).memo

    def one(budget):
        run = DPRun(memo, cluster, budget)
        res = form_stage(run)
        assert plan_key(res) == plan_key(expected[budget])
        assert 1 <= res.candidates_tried <= (
            expected[budget].candidates_tried
        )
        return run.sweeps_reused

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(one, b) for b in budgets * 3]
            done = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sum(done) > 0
    assert all(len(kept) <= SWEEPS_KEPT
               for level in memo._sweep_memo.values()
               for kept in level.values())
    assert len(memo._fit_tables) <= FIT_TABLES_KEPT


# ----------------------------------------------------------------------
# through the planner


def plan(graph, budget, store=None):
    ctx = PlanningContext(
        graph, paper_cluster(2),
        PlannerConfig(batch_size=256, memory_budget=budget), store=store,
    )
    return ctx, ctx.run()


def test_a_budget_delta_reuses_sweeps_of_the_base_plan(graphs):  # noqa: F811
    """A second budget on the base plan's context reuses sweeps, and its
    plan, incumbent, ``dp_calls`` and ``states_evaluated`` are a fresh
    context's; its seeded level ranks no more candidates, each sweep at
    a bound no looser."""
    graph = graphs["bert-base"]
    base, _ = plan(graph, None)
    delta, delta_plan = plan(graph, 20 * GiB, ensure_store(base))
    cold, cold_plan = plan(graph, 20 * GiB)
    detail = delta.events.find("stage_search").detail
    cold_detail = cold.events.find("stage_search").detail
    assert detail["sweeps_reused"] > 0
    assert cold_detail["sweeps_reused"] == 0
    assert plan_to_json(delta_plan, graph) == plan_to_json(cold_plan, graph)
    assert delta_plan.throughput == cold_plan.throughput
    assert detail["incumbent"] == cold_detail["incumbent"]
    assert detail["seed_fallbacks"] == 0
    for field in ("dp_calls", "states_evaluated"):
        assert detail[field] == cold_detail[field]
    assert 1 <= detail["candidates_tried"] <= cold_detail["candidates_tried"]
    assert detail["band_width_max"] <= cold_detail["band_width_max"]
    assert len(detail["sweep_bounds"]) == len(cold_detail["sweep_bounds"])
    for bound, cold_bound in zip(detail["sweep_bounds"],
                                 cold_detail["sweep_bounds"]):
        assert cold_bound is None or bound <= cold_bound
    assert detail["cells_reduced"] < cold_detail["cells_reduced"]
    assert delta.metrics.counter("search.sweeps_reused").value == (
        detail["sweeps_reused"]
    )


def test_reused_solutions_are_not_mutated(graphs):  # noqa: F811
    """The planner reads a reused answer and never writes to it: every
    stored answer is unchanged after delta plans that return some."""
    graph = graphs["bert-base"]
    base, _ = plan(graph, None)
    plan(graph, 20 * GiB, ensure_store(base))
    memo = base.require(DP_CONTEXT)
    snapshot = [
        (stored, {S: solution_key(sol) for S, sol in stored.answers.items()})
        for level in memo._sweep_memo.values()
        for kept in level.values() for stored in kept
    ]
    stored_ids = {
        id(sol) for stored, _ in snapshot for sol in stored.answers.values()
    }
    winners = []
    # 20.001 GiB masks what 20 GiB does: every sweep is reused
    for gib in (20.001, 24, 28):
        delta, _ = plan(graph, gib * GiB, ensure_store(base))
        assert delta.require(DP_CONTEXT) is memo
        winners.append(delta.require(SEARCH_RESULT).solution)
    assert any(id(w) in stored_ids for w in winners), (
        "no delta plan returned a reused answer"
    )
    for stored, keys in snapshot:
        assert {
            S: solution_key(sol) for S, sol in stored.answers.items()
        } == keys


# ----------------------------------------------------------------------
# bounded caches


def test_the_memo_keeps_the_newest_sweeps_per_key(one_node):
    memo = fresh(one_node).memo
    key = sweep_key(D, R, 2, 8, 1, (1, 2, 3))
    masks = [np.packbits(np.arange(24) == i) for i in range(SWEEPS_KEPT + 4)]
    for mask in masks:
        memo.store_sweep(key, math.inf, mask, {})
    level, sweep = key
    kept = memo._sweep_memo[level][sweep]
    assert len(kept) == SWEEPS_KEPT
    assert [s.mask.tobytes() for s in kept] == [
        m.tobytes() for m in masks[::-1][:SWEEPS_KEPT]
    ]
    assert memo.recall_sweep(key, math.inf, masks[-1], None) is kept[0]
    assert memo.recall_sweep(key, math.inf, masks[0], None) is None


def test_nbytes_counts_the_sweep_memo(one_node):
    memo = fresh(one_node).memo
    searched(DPRun(memo, one_node.cluster))
    assert memo._sweep_memo
    memo_bytes = sum(
        stored.nbytes() for level in memo._sweep_memo.values()
        for kept in level.values() for stored in kept
    )
    assert memo_bytes > 0
    total = memo.nbytes()
    memo._sweep_memo = {}
    assert memo.nbytes() == total - memo_bytes


def test_fit_tables_keep_the_most_recent_capacities(one_node):
    """200 distinct budgets on one context keep at most
    ``FIT_TABLES_KEPT`` fit tables, and ``nbytes`` counts them."""
    memo = fresh(one_node).memo
    microbatches = search.microbatch_candidates(
        search.microbatch_cap(memo.batch_size, R, None)
    )
    for budget in np.linspace(4, 29, 200) * GiB:
        covering_sweeps(DPRun(memo, one_node.cluster, budget), STAGES, D, R,
                        microbatches)
    assert len(memo._fit_tables) <= FIT_TABLES_KEPT
    # the newest is the last budget's
    assert memo._fit_tables[0][0] == 29 * GiB
    fit_bytes = sum(8 * len(table) for _, table in memo._fit_tables)
    assert fit_bytes > 0
    total = memo.nbytes()
    memo._fit_tables = ()
    assert memo.nbytes() == total - fit_bytes
