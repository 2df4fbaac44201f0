"""The incumbent bound of Algorithm 2 (DESIGN.md D2c).

``form_stage`` ranks each sweep as soon as it finishes and passes the
next sweep ``sweep_bound(T*, S, MB)``, with ``T*`` the best flush
makespan found so far in the node level.  The sweep drops every answer
and table cell whose objective is over the bound.  The bound must be
exact: the search result equals that of a run with the bound patched
off, field for field; every answer at or below the bound is the
unbounded sweep's; and every answer the bound removed has an unbounded
makespan strictly above the incumbent.  Its premise is that a flush
makespan is at least ``MB`` times the objective, in floats.

A memory cap gives no such bound: Algorithm 1 keeps one ``(t_f, t_b)``
pair per cell, so a tighter cap can change, and even improve, an answer
that still fits (the toy counterexample below).
"""

import math
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Precision, paper_cluster, tiny_cluster
from repro.hardware.cluster import ClusterSpec, DeviceClass
from repro.hardware.presets import A100, V100
from repro.models import build_mlp
from repro.models.gpt import gpt3_like
from repro.models.random_dag import build_random_dag
from repro.obs import MetricsRegistry
from repro.partitioner import search
from repro.partitioner.atomic import atomic_partition
from repro.partitioner.blocks import Block
from repro.partitioner.search import BOUND_SLACK, form_stage, sweep_bound
from repro.partitioner.stage_dp import DPContext, DPRun, form_stage_dp
from repro.pipeline.simulator import flush_schedule
from repro.profiler import GraphProfiler
from tests.partitioner.oracles import reference_form_stage_dp
from tests.partitioner.test_hetero_pinned import CLUSTERS as HETERO_CLUSTERS
from tests.partitioner.test_hetero_pinned import MODELS as HETERO_MODELS
from tests.partitioner.test_hetero_pinned import SCENARIOS as HETERO_SCENARIOS
from tests.partitioner.test_sweep_prune import (
    BATCH,
    dp_context,
    fresh,
    graphs,  # noqa: F401  (module fixture)
    result_key,
)

GiB = 1024**3
KiB = 1024


def no_bound():
    """Every sweep runs unbounded, as before the bound."""
    return mock.patch.object(search, "sweep_bound", lambda *a: math.inf)


def solution_key(sol):
    """Every field of a DP answer, its profiles and its makespan."""
    if sol is None:
        return None
    return (
        tuple(sol.boundaries),
        tuple(sol.device_counts),
        sol.num_microbatches,
        sol.num_stages,
        sol.replica_factor,
        sol.objective,
        sol.max_tf,
        sol.max_tb,
        tuple(sol.stage_profiles),
        sol.estimated_iteration_time(),
    )


def search_both(dp, max_microbatches=None):
    """Run ``form_stage`` on fresh contexts with the bound on and off.
    Per run: the result, the run, the metrics and every sweep made, as
    ``(D, R, MB) -> (bound, answers)`` in order."""
    sweep = search.form_stage_dp
    runs = {}
    for bounded in (True, False):
        swept = {}

        def recording_sweep(run, stage_counts, D, R, MB, **kw):
            out = sweep(run, stage_counts, D, R, MB, **kw)
            swept[D, R, MB] = (kw["bound"], out)
            return out

        run = fresh(dp)
        m = MetricsRegistry()
        with mock.patch.object(search, "form_stage_dp", recording_sweep), \
                (nullcontext() if bounded else no_bound()):
            res = form_stage(run, max_microbatches=max_microbatches)
        run.publish(m)
        runs[bounded] = (res, run, m, swept)
    return runs


def assert_exact(dp, max_microbatches=None):
    """Bounded and unbounded searches agree field for field; each sweep's
    bound is the one the earlier sweeps of its level give; the bounded
    sweeps keep exactly the unbounded answers at or below their bound,
    and every answer they removed is strictly slower than the incumbent
    at the time.  Returns the number of answers removed and the runs."""
    runs = search_both(dp, max_microbatches)
    on, run_on, m_on, swept_on = runs[True]
    off, run_off, m_off, swept_off = runs[False]
    assert list(swept_on) == list(swept_off)
    assert all(b is None for b in run_off.sweep_bounds)
    assert m_off.counter("search.answers_bounded").value == 0
    kept = removed = 0
    incumbent = {}
    for (D, R, MB), (bound, answers) in swept_on.items():
        best = incumbent.get((D, R), math.inf)
        assert bound == sweep_bound(best, max(answers), MB)
        unbounded = swept_off[D, R, MB][1]
        assert list(answers) == list(unbounded)
        for S, sol in answers.items():
            ref = unbounded[S]
            if ref is not None and ref.objective <= bound:
                assert solution_key(sol) == solution_key(ref)
                kept += 1
            else:
                assert sol is None
                if ref is not None:
                    # the bound removed it: strictly slower than the
                    # best answer ranked before its sweep
                    assert ref.estimated_iteration_time() > best
                    removed += 1
        # the sweep's answers are ranked before the next sweep
        for sol in answers.values():
            if sol is not None:
                best = min(best, sol.estimated_iteration_time())
        incumbent[D, R] = best
    if off is None:
        assert on is None and kept == removed == 0
        return removed, runs
    # the result is the unbounded run's, but for the candidates ranked:
    # only the winning level has answers, and it ranks those kept
    assert result_key(on)[:-1] == result_key(off)[:-1]
    assert (on.dp_calls, on.states_evaluated) == (
        off.dp_calls, off.states_evaluated
    )
    assert on.candidates_tried == kept
    assert off.candidates_tried == kept + removed
    assert run_on.cells_reduced <= run_off.cells_reduced
    # the answers found above their bound are some of those removed
    assert run_on.answers_bounded <= removed
    assert m_on.counter("search.answers_bounded").value == (
        run_on.answers_bounded
    )
    assert run_on.sweep_bounds == [
        None if math.isinf(b) else b for b, _ in swept_on.values()
    ]
    return removed, runs


# ----------------------------------------------------------------------
# exact on the planner's inputs


@pytest.mark.parametrize("nodes", [1, 2, 4])
@pytest.mark.parametrize("model", sorted(BATCH))
def test_paper_presets_exact(graphs, model, nodes):  # noqa: F811
    dp = dp_context(graphs[model], paper_cluster(nodes),
                    batch_size=BATCH[model])
    removed, runs = assert_exact(dp)
    # the bound removes answers on every preset, and cuts the work
    assert removed > 0
    assert runs[True][1].cells_reduced < runs[False][1].cells_reduced


@pytest.mark.parametrize(
    "config",
    [
        dict(mode="inference"),
        dict(precision=Precision.AMP),
        dict(precision=Precision.AMP, memory_budget=2 * GiB),
        dict(mode="inference", memory_budget=1 * GiB),
        dict(memory_budget=4 * GiB),
    ],
    ids=["inference", "amp", "amp-budget", "inference-budget", "budget"],
)
def test_modes_precisions_and_budgets_exact(graphs, config):  # noqa: F811
    dp = dp_context(graphs["bert-large"], paper_cluster(2),
                    batch_size=256, **config)
    assert_exact(dp)


def test_gpt420_exact():
    """The 10k-task graph makes 4 sweeps, and only the last is bounded:
    the answers of the level's first sweep with any (``n = 2``, ``MB =
    512``) bound the one at ``MB = 1024``."""
    dp = dp_context(gpt3_like(depth=420), paper_cluster(4),
                    batch_size=2048, num_blocks=768)
    _, runs = assert_exact(dp)
    run = runs[True][1]
    assert run.sweep_bounds[:3] == [None] * 3
    assert run.sweep_bounds[3] is not None and len(run.sweep_bounds) == 4


@pytest.mark.parametrize("name", sorted(HETERO_SCENARIOS))
def test_hetero_pinned_scenarios_exact(name):
    """On a heterogeneous cluster the stage times scale per slot, so only
    the table cells are bounded."""
    model, cluster, budget = HETERO_SCENARIOS[name]
    build, batch_size = HETERO_MODELS[model]
    dp = dp_context(build(), HETERO_CLUSTERS[cluster](),
                    batch_size=batch_size, memory_budget=budget)
    assert_exact(dp)


@pytest.mark.parametrize("precision", [Precision.FP32, Precision.AMP])
def test_fast_class_cluster_exact(precision):
    """A cluster of A100s declared against the V100 reference: every
    stage runs at 0.81x (FP32) or 0.40x (AMP) of its band's times, so
    bounding the unscaled band entries would drop answers under the
    bound; only the scaled table cells may be cleared."""
    cluster = ClusterSpec(
        num_nodes=2, devices_per_node=8, device=V100,
        intra_node_bandwidth=25.0e9, inter_node_bandwidth=12.5e9,
        device_classes=(DeviceClass(name="a100", device=A100, num_nodes=2,
                                    devices_per_node=8),),
    )
    assert max(cluster.rank_time_factors(precision)) < 1.0
    build, batch_size = HETERO_MODELS["bert-large"]
    removed, _ = assert_exact(
        dp_context(build(), cluster, batch_size=batch_size,
                   precision=precision)
    )
    assert removed > 0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=2, max_value=8),
    memory_kib=st.sampled_from([24, 48, 96, 1024]),
    budget_kib=st.sampled_from([None, 8, 16, 40]),
    nodes=st.sampled_from([1, 2, 3]),
    batch_size=st.sampled_from([8, 12, 64]),
    max_microbatches=st.sampled_from([None, 4]),
)
def test_random_dags_exact(seed, k, memory_kib, budget_kib, nodes,
                           batch_size, max_microbatches):
    graph = build_random_dag(seed=seed, num_nodes=10)
    cluster = tiny_cluster(num_nodes=nodes, devices_per_node=4,
                           memory_bytes=memory_kib * KiB)
    budget = None if budget_kib is None else budget_kib * KiB
    dp = dp_context(graph, cluster, batch_size=batch_size, num_blocks=k,
                    memory_budget=budget)
    assert_exact(dp, max_microbatches)


def test_bound_is_reported():
    """The ``stage_search`` detail, the ``search.level`` span, the DP
    spans and the metrics agree on the incumbent, each sweep's bound,
    the answers found above one, the sweeps a stored sweep answered
    (DESIGN.md D2d), those skipped with no layout (D2e) and the levels
    a stored incumbent seeded and that fell back (D2f).  The cold run
    skips sweeps; a second budget on its context masks the same band
    entries, so it is seeded and reuses every sweep."""
    from repro.models import BertConfig, build_bert
    from repro.planner import PlannerConfig, PlanningContext
    from repro.planner.replan import ensure_store

    graph = build_bert(BertConfig(hidden_size=64, num_layers=4, num_heads=4))
    base = PlanningContext(graph, paper_cluster(1),
                           PlannerConfig(batch_size=32, trace=True))
    plans = {"base": base.run()}
    delta = PlanningContext(
        graph, paper_cluster(1),
        PlannerConfig(batch_size=32, trace=True, memory_budget=16 * GiB),
        store=ensure_store(base),
    )
    plans["delta"] = delta.run()
    reported = {}
    for name, ctx in (("base", base), ("delta", delta)):
        detail = ctx.events.find("stage_search").detail
        levels = ctx.tracer.spans("partitioner.search")
        level = levels[-1]
        dp_spans = ctx.tracer.spans("partitioner.dp")
        counter = ctx.metrics.counter
        assert detail["incumbent"] == level.attrs["incumbent"] == (
            plans[name].diagnostics.pipeline_time
        )
        assert detail["sweep_bounds"] == level.attrs["bounds"] == [
            s.attrs["bound"] for s in dp_spans
        ]
        assert all(b > 0 for b in detail["sweep_bounds"][1:])
        assert detail["answers_bounded"] == level.attrs["answers_bounded"] == (
            sum(s.attrs["answers_bounded"] for s in dp_spans)
        ) == counter("search.answers_bounded").value
        for field, attr in (("sweeps_reused", "reused"),
                            ("sweeps_skipped", "skipped")):
            assert detail[field] == level.attrs[field] == (
                sum(s.attrs[attr] for s in dp_spans)
            ) == counter(f"search.{field}").value
        seeded = [s for s in levels if s.attrs["stored_incumbent"] is not None]
        assert counter("search.levels_seeded").value == len(seeded)
        assert detail["seed_fallbacks"] == (
            sum(s.attrs["seed_fallback"] for s in levels)
        ) == counter("search.seed_fallbacks").value == 0
        reported[name] = detail, len(seeded), dp_spans, level
    detail, seeded, _, _ = reported["base"]
    assert detail["sweep_bounds"][0] is None
    assert detail["sweeps_skipped"] > 0 and seeded == 0
    detail, seeded, dp_spans, level = reported["delta"]
    assert seeded == 1 and detail["sweeps_reused"] == len(dp_spans)
    # the seed bounds the level's first sweep
    assert detail["sweep_bounds"][0] == sweep_bound(
        level.attrs["stored_incumbent"], level.attrs["D"],
        dp_spans[0].attrs["MB"],
    )


# ----------------------------------------------------------------------
# the premise: a flush makespan is at least MB times the objective

times = st.floats(min_value=0.0, max_value=1e3, allow_subnormal=False)


@settings(max_examples=500, deadline=None)
@given(
    tf=st.lists(times, min_size=1, max_size=12),
    tb_seed=st.lists(times, min_size=12, max_size=12),
    log_mb=st.integers(min_value=0, max_value=10),
    equal=st.booleans(),
)
def test_flush_makespan_closed_form(tf, tb_seed, log_mb, equal):
    """``flush_schedule``'s makespan is ``sum(t_f + t_b) + (MB - 1)(max
    t_f + max t_b)`` within the bound's slack, and a layout is never
    bounded by its own makespan: ``objective <= sweep_bound(makespan)``.
    Equal stages are the tight case (one stage's work is the whole
    makespan)."""
    S, MB = len(tf), 2**log_mb
    tb = [tf[0]] * S if equal else tb_seed[:S]
    if equal:
        tf = [tf[0]] * S
    makespan = flush_schedule(tf, tb, MB).makespan
    objective = max(tf) + max(tb)
    closed = math.fsum(tf) + math.fsum(tb) + (MB - 1) * objective
    assert abs(makespan - closed) <= BOUND_SLACK * closed
    assert objective <= sweep_bound(makespan, S, MB)


def test_equal_stages_sit_at_the_bound():
    """With equal stages the bound is tight: every stage of a one-stage
    layout at ``MB`` is the whole makespan over ``MB``."""
    for t in (0.1, 1 / 3, 7.25e-3):
        for MB in (1, 2, 64, 1024):
            makespan = flush_schedule([t], [2 * t], MB).makespan
            assert 3 * t <= sweep_bound(makespan, 1, MB)
            assert 3 * t * (1 + 2 * BOUND_SLACK) > sweep_bound(
                makespan, 1, MB
            )


def test_long_sweeps_are_unbounded():
    assert sweep_bound(1.0, 16, 1024) < math.inf
    assert sweep_bound(1.0, 10**6, 1) == math.inf


# ----------------------------------------------------------------------
# a memory cap is not a bound

#: ``(t_f, t_b, memory in GiB)`` of seven toy blocks
TOY_BLOCKS = [(3, 9, 4), (9, 4, 3), (2, 2, 9), (9, 1, 8), (9, 1, 7),
              (5, 8, 9), (4, 9, 5)]


class ToyContext(DPContext):
    """Seven blocks priced off :data:`TOY_BLOCKS`: a stage's times are
    its blocks' sums, and its memory is theirs in GiB on top of the real
    stage memory, which keeps ``_fit_width``'s floor precondition."""

    def __init__(self, *args):
        super().__init__(*args)
        self._toy = [
            np.concatenate([[0.0], np.cumsum(col)]) for col in zip(*TOY_BLOCKS)
        ]

    def _range_costs(self, lo, hi, bs, MB, checkpointing):
        _, _, memory, in_b, out_b, params = super()._range_costs(
            lo, hi, bs, MB, checkpointing
        )
        t_f, t_b, mem = (p[hi] - p[lo] for p in self._toy)
        return t_f, t_b, memory + mem * GiB, in_b, out_b, params


def toy_run(memory_budget):
    graph = build_mlp((16,) * 9)
    cluster = tiny_cluster(num_nodes=1, devices_per_node=3,
                           memory_bytes=64 * GiB)
    comps = atomic_partition(graph)
    edges = np.linspace(0, len(comps), len(TOY_BLOCKS) + 1).astype(int)
    blocks = [
        Block(index=j, atomic_indices=tuple(range(a, b)),
              tasks=tuple(t for c in comps[a:b] for t in c.tasks))
        for j, (a, b) in enumerate(zip(edges[:-1], edges[1:]))
    ]
    ctx = ToyContext(graph, blocks, GraphProfiler(graph, cluster), 1)
    return DPRun(ctx, cluster, memory_budget)


def test_a_tighter_memory_cap_can_change_the_answer():
    """Algorithm 1 keeps one ``(t_f, t_b)`` pair per cell, so a cap that
    still admits the uncapped answer can change it: uncapped, three
    stages on one device each end at blocks ``(2, 4, 7)`` with ``V =
    36`` and peak memory 21 GiB; capped at 21 GiB (plus the real stage
    memory, under half a GiB) they end at ``(3, 5, 7)`` with ``V = 35``.
    The pure-Python reference agrees."""
    answers = {}
    for budget in (None, 21.5 * GiB):
        run = toy_run(budget)
        sol = form_stage_dp(run, range(3, 4), 3, 1, 1)[3]
        ref = reference_form_stage_dp(run, 3, 3, 1, 1, 1)
        assert (sol.boundaries, sol.objective) == (
            ref.boundaries, ref.objective
        )
        answers[budget] = sol
    uncapped, capped = answers[None], answers[21.5 * GiB]
    assert (uncapped.boundaries, uncapped.objective) == ([2, 4, 7], 36.0)
    peak = max(p.memory for p in uncapped.stage_profiles)
    assert 21 * GiB < peak < 21.5 * GiB
    assert (capped.boundaries, capped.objective) == ([3, 5, 7], 35.0)
