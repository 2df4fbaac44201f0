"""The coverage prune of Algorithm 2 (DESIGN.md D2b).

``form_stage`` skips a sweep when no split of the level's devices into
its stage counts gives stages wide enough, in memory, to cover the
blocks: a feasible stage on ``r`` replicas spans at most
``_fit_width(BS // (R * MB * r), cap)`` blocks.  The prune must be
lossless: the search result equals that of a run with the prune patched
off, field for field, and every sweep it skipped has no answer.  Its
premise is that every stage's memory is at least the floor
``_fit_width`` reads, for every context that prices stages; and the
cached, band-restricted ``_fit_width`` must equal the dense oracle.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.coarsening_ablation import SummedAtomicContext
from repro.hardware import Precision, paper_cluster, tiny_cluster
from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet
from repro.models.gpt import gpt3_like
from repro.models.random_dag import build_random_dag
from repro.obs import MetricsRegistry
from repro.partitioner import search
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import Block
from repro.partitioner.search import form_stage
from repro.partitioner.stage_dp import (
    DPContext,
    DPRun,
    _can_cover,
    covering_sweeps,
)
from repro.planner import PlannerConfig, PlanningContext, default_passes
from repro.planner.context import DP_CONTEXT
from repro.planner.manager import PassManager
from repro.profiler import GraphProfiler
from repro.profiler.memory import OptimizerKind
from tests.partitioner.oracles import fit_width_reference, memory_floor_reference
from tests.partitioner.test_hetero_pinned import CLUSTERS as HETERO_CLUSTERS
from tests.partitioner.test_hetero_pinned import MODELS as HETERO_MODELS
from tests.partitioner.test_hetero_pinned import SCENARIOS as HETERO_SCENARIOS

GiB = 1024**3
MiB = 1024**2
KiB = 1024


def no_prune():
    """Every sweep runs, as before the prune."""
    return mock.patch.object(
        search, "covering_sweeps",
        lambda ctx, stage_counts, D, R, mbs: list(mbs),
    )


def dp_context(graph, cluster, **config):
    """A run over the planner's DP context for ``graph`` (the passes up
    to the stage search), on its cluster and memory budget."""
    ctx = PlanningContext(graph, cluster, PlannerConfig(**config))
    PassManager(default_passes()[:4]).run(ctx)
    return DPRun(
        ctx.require(DP_CONTEXT), ctx.cluster, ctx.config.memory_budget
    )


def fresh(dp):
    memo = dp.memo
    return DPRun(
        DPContext(memo.graph, memo.blocks, memo.profiler, memo.batch_size),
        dp.cluster, dp.memory_budget,
    )


def result_key(res):
    if res is None:
        return None
    sol = res.solution
    return (
        tuple(sol.boundaries),
        tuple(sol.device_counts),
        sol.num_microbatches,
        sol.replica_factor,
        sol.objective,
        sol.estimated_iteration_time(),
        tuple(
            (p.time_fwd, p.time_bwd, p.memory, p.microbatch_size)
            for p in sol.stage_profiles
        ),
        res.num_pipeline_nodes,
        res.devices_per_pipeline,
        res.replica_factor,
        res.candidates_tried,
    )


def search_both(dp, max_microbatches=None):
    """Run ``form_stage`` on fresh contexts with the prune on and off.
    Per run: the result, the context, the metrics and every sweep made
    with its answers; and the sweeps the pruned run skipped."""
    cluster = dp.cluster
    skipped = []

    def recording_cover(ctx, stage_counts, D, R, mbs):
        kept = covering_sweeps(ctx, stage_counts, D, R, mbs)
        skipped.extend(
            (stage_counts, D, R, MB) for MB in mbs if MB not in kept
        )
        return kept

    sweep = search.form_stage_dp
    runs = {}
    for prune in (True, False):
        swept = {}

        def recording_sweep(ctx, stage_counts, D, R, MB, **kw):
            out = sweep(ctx, stage_counts, D, R, MB, **kw)
            swept[stage_counts, D, R, MB] = out
            return out

        ctx = fresh(dp)
        m = MetricsRegistry()
        cover = recording_cover if prune else (
            lambda ctx, stage_counts, D, R, mbs: list(mbs)
        )
        with mock.patch.object(search, "covering_sweeps", cover), \
                mock.patch.object(search, "form_stage_dp", recording_sweep):
            res = form_stage(ctx, max_microbatches=max_microbatches)
        ctx.publish(m)
        runs[prune] = (res, ctx, m, swept)
    return runs, skipped


def assert_lossless(dp, max_microbatches=None):
    """Pruned and unpruned searches agree; the pruned run made exactly
    the unpruned run's sweeps less the ones it skipped, and every skipped
    sweep had no answer.  Returns the sweeps skipped and the runs."""
    runs, skipped = search_both(dp, max_microbatches)
    (on, ctx_on, m_on, swept_on) = runs[True]
    (off, ctx_off, m_off, swept_off) = runs[False]
    assert result_key(on) == result_key(off)
    assert m_on.counter("search.sweeps_pruned").value == len(skipped)
    assert m_off.counter("search.sweeps_pruned").value == 0
    assert len(set(skipped)) == len(skipped)
    assert set(swept_on) == set(swept_off) - set(skipped)
    assert set(skipped) <= set(swept_off)
    for key, answers in swept_on.items():
        assert answers == swept_off[key]
    for key in skipped:
        # the unpruned search made the sweep, and it had no answer
        assert all(sol is None for sol in swept_off[key].values()), key
    if on is not None:
        assert on.dp_calls == len(swept_on)
        assert off.dp_calls == len(swept_off)
    assert ctx_on.dp_calls <= ctx_off.dp_calls
    return skipped, runs


# ----------------------------------------------------------------------
# lossless on the planner's inputs

@pytest.fixture(scope="module")
def graphs():
    return {
        "bert-base": build_bert(
            BertConfig(hidden_size=768, num_layers=12, num_heads=12)
        ),
        "bert-large": build_bert(BertConfig()),
        "resnet50x8": build_resnet(ResNetConfig(depth=50, width_factor=8)),
    }


BATCH = {"bert-base": 256, "bert-large": 256, "resnet50x8": 512}


@pytest.mark.parametrize("nodes", [1, 2, 4])
@pytest.mark.parametrize("model", sorted(BATCH))
def test_paper_presets_lossless(graphs, model, nodes):
    dp = dp_context(graphs[model], paper_cluster(nodes),
                    batch_size=BATCH[model])
    assert_lossless(dp)


def test_paper_presets_prune_some(graphs):
    """bert-large on one node skips the sweeps at MB = 1 and 2: at 256
    and 128 samples per microbatch no split of 8 devices gives stages
    wide enough to cover the blocks."""
    dp = dp_context(graphs["bert-large"], paper_cluster(1), batch_size=256)
    skipped, _ = assert_lossless(dp)
    assert [MB for *_, MB in skipped] == [1, 2]


@pytest.mark.parametrize(
    "config",
    [
        dict(mode="inference"),
        dict(precision=Precision.AMP),
        dict(precision=Precision.AMP, memory_budget=2 * GiB),
        dict(mode="inference", memory_budget=1 * GiB),
        dict(optimizer=OptimizerKind.SGD, memory_budget=3 * GiB),
    ],
    ids=["inference", "amp", "amp-budget", "inference-budget", "sgd-budget"],
)
def test_modes_and_precisions_lossless(graphs, config):
    dp = dp_context(graphs["bert-large"], paper_cluster(2),
                    batch_size=256, **config)
    assert_lossless(dp)


def test_gpt420_lossless():
    """The 10k-task graph: 17 of the 21 sweeps have no answer, and the
    prune skips every one of them."""
    dp = dp_context(gpt3_like(depth=420), paper_cluster(4),
                    batch_size=2048, num_blocks=768)
    skipped, runs = assert_lossless(dp)
    # 21 sweeps without the prune (10 microbatch counts at n = 1, 11 at
    # n = 2), 4 with it
    assert runs[False][0].dp_calls == runs[False][1].dp_calls == 21
    assert runs[True][0].dp_calls == runs[True][1].dp_calls == 4
    assert runs[False][1].states_evaluated == 398_276
    assert runs[True][1].states_evaluated == 91_728
    assert len(skipped) == 17
    assert {(D, MB) for _, D, _, MB in skipped} == {
        (8, MB) for MB in (1, 2, 4, 8, 16, 32, 64, 128, 256)
    } | {(16, MB) for MB in (1, 2, 4, 8, 16, 32, 64, 128)}


@pytest.mark.parametrize("name", sorted(HETERO_SCENARIOS))
def test_hetero_pinned_scenarios_lossless(name):
    """The scenarios of ``test_hetero_pinned``: the sweep's cap is the
    largest per-slot cap, so slots of either class can hold a stage."""
    model, cluster, budget = HETERO_SCENARIOS[name]
    build, batch_size = HETERO_MODELS[model]
    dp = dp_context(build(), HETERO_CLUSTERS[cluster](),
                    batch_size=batch_size, memory_budget=budget)
    assert_lossless(dp)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=2, max_value=8),
    memory_kib=st.sampled_from([24, 48, 96, 1024]),
    budget_kib=st.sampled_from([None, 8, 16, 40]),
    nodes=st.sampled_from([1, 2, 3]),
    batch_size=st.sampled_from([8, 12, 64]),
)
def test_random_dags_lossless(seed, k, memory_kib, budget_kib, nodes,
                              batch_size):
    """A random DAG's whole model floor is some 10-100 KiB, so these
    devices and budgets range from roomy to infeasible."""
    graph = build_random_dag(seed=seed, num_nodes=10)
    cluster = tiny_cluster(num_nodes=nodes, devices_per_node=4,
                           memory_bytes=memory_kib * KiB)
    budget = None if budget_kib is None else budget_kib * KiB
    dp = dp_context(graph, cluster, batch_size=batch_size, num_blocks=k,
                    memory_budget=budget)
    assert_lossless(dp)


def test_covering_sweeps_rejects_exactly_the_uncoverable():
    """On a starved random DAG, a sweep is skipped iff no split of the
    devices covers the blocks, decided by brute force over the splits."""
    graph = build_random_dag(seed=7, num_nodes=10)
    for kib in (6, 8, 10, 12, 20, 48):
        cluster = tiny_cluster(num_nodes=1, devices_per_node=4,
                               memory_bytes=kib * KiB)
        dp = dp_context(graph, cluster, batch_size=64, num_blocks=6)
        cap = dp.usable_memory
        for s_lo, s_hi in [(1, 4), (2, 4), (3, 3)]:
            mbs = [1, 2, 4, 8, 16, 32, 64]
            kept = covering_sweeps(dp, range(s_lo, s_hi + 1), 4, 1, mbs)
            for MB in mbs:
                def fit(r):
                    bs = 64 // (MB * r)
                    return fit_width_reference(dp.memo, bs, cap) if bs else 0

                k = dp.memo.k
                expect = any(
                    sum(fit(r) for r in split) >= k
                    and all(fit(r) for r in split)
                    for S in range(s_lo, min(s_hi, k) + 1)
                    for split in compositions(4, S)
                )
                assert (MB in kept) == expect, (kib, s_lo, s_hi, MB)


def compositions(n, parts):
    """Every ordered split of ``n`` into ``parts`` positive parts."""
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


# ----------------------------------------------------------------------
# the premise: every stage's memory is at least the floor


def premise_contexts(mode, precision, optimizer):
    graph = build_bert(
        BertConfig(hidden_size=64, num_layers=2, num_heads=4)
    )
    profiler = GraphProfiler(
        graph, tiny_cluster(), precision, optimizer=optimizer, mode=mode
    )
    comps = atomic_partition(graph)
    atoms = [
        Block(index=i, atomic_indices=(i,), tasks=c.tasks)
        for i, c in enumerate(comps)
    ]
    # one block per few atoms: the floor's unique parameters differ from
    # the per-block sums wherever a parameter is shared
    step = max(1, len(atoms) // 12)
    blocks = [
        Block(
            index=j,
            atomic_indices=tuple(range(i, min(i + step, len(comps)))),
            tasks=tuple(t for c in comps[i:i + step] for t in c.tasks),
        )
        for j, i in enumerate(range(0, len(comps), step))
    ]
    return [
        DPContext(graph, blocks, profiler, 32),
        SummedAtomicContext(graph, atoms, profiler, 32),
    ]


@pytest.mark.parametrize("optimizer", [OptimizerKind.ADAM, OptimizerKind.SGD])
@pytest.mark.parametrize("precision", [Precision.FP32, Precision.AMP])
@pytest.mark.parametrize("mode", ["training", "inference"])
def test_range_costs_memory_is_at_least_the_floor(mode, precision, optimizer):
    for ctx in premise_contexts(mode, precision, optimizer):
        k = ctx.k
        lo, hi = np.triu_indices(k + 1, 1)
        for bs in (1, 2, 5, 32):
            floor = memory_floor_reference(ctx, bs)[lo, hi]
            for MB in (1, 4):
                for ckpt in (False, True):
                    memory = ctx._range_costs(lo, hi, bs, MB, ckpt)[2]
                    assert np.all(memory >= floor), (
                        type(ctx).__name__, bs, MB, ckpt
                    )


@pytest.mark.parametrize("mode", ["training", "inference"])
def test_fit_width_equals_the_dense_oracle(mode):
    """The band-restricted, cached ``_fit_width`` equals the dense floor
    plane's widest fit for every ``bs`` from 1 to ``BS``, at two caps
    (one where every span fits at ``bs = 1``, one where few do)."""
    graph = build_random_dag(seed=3, num_nodes=12)
    profiler = GraphProfiler(graph, paper_cluster(1), mode=mode)
    comps = atomic_partition(graph)
    blocks = [
        Block(index=i, atomic_indices=(i,), tasks=c.tasks)
        for i, c in enumerate(comps)
    ]
    BS = 96
    ctx = DPContext(graph, blocks, profiler, BS)
    plane = memory_floor_reference(ctx, 1)
    spans = np.subtract.outer(np.arange(ctx.k + 1), np.arange(ctx.k + 1)).T
    roomy = float(plane[spans > 0].max())
    tight = float(np.median(plane[spans == 2]))
    for cap in (roomy, tight):
        fits = [ctx._fit_width(bs, cap) for bs in range(1, BS + 1)]
        assert fits == [
            fit_width_reference(ctx, bs, cap) for bs in range(1, BS + 1)
        ]
        assert fits == sorted(fits, reverse=True)
    assert ctx._fit_width(1, roomy) == ctx.k
    assert 0 < ctx._fit_width(1, tight) < ctx.k
    assert ctx._fit_width(BS, tight) < ctx._fit_width(1, tight)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_can_cover_matches_brute_force(data):
    """``_can_cover``'s fast paths and max-plus DP against every split."""
    D = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 24))
    r_top = data.draw(st.integers(1, D))
    fits = sorted(
        data.draw(st.lists(st.integers(0, k), min_size=r_top,
                           max_size=r_top))
    )
    s_hi = data.draw(st.integers(1, min(k, D)))
    s_lo = data.draw(st.integers(1, s_hi))
    expect = any(
        all(r <= r_top and fits[r - 1] >= 1 for r in split)
        and sum(fits[r - 1] for r in split) >= k
        for S in range(s_lo, s_hi + 1)
        for split in compositions(D, S)
    )
    assert _can_cover(fits, k, D, s_lo, s_hi) == expect
