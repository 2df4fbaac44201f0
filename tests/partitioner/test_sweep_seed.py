"""The stored incumbent (DESIGN.md D2f) and the no-layout skip (D2e).

On a homogeneous cluster a node level starts with the best flush
makespan among the answers the shared context stored for it that still
fit the run's cap, and bounds its sweeps with it from the first; a
level whose best answer is over that seed, or that ranks nothing,
reruns unseeded.  A sweep that misses the memo and in which no layout
of the band entries off its mask can take the level's devices fills no
table.  Both must be exact: plans and per-level winners equal those of
runs with both patched off, a sweep is skipped only if its table, run
anyway, has no answer, a seed below the level's best answer falls back
to the unseeded search, and a heterogeneous cluster is never seeded nor
skipped.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partitioner.stage_dp as stage_dp
from repro.hardware import tiny_cluster
from repro.models.random_dag import build_random_dag
from repro.obs import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.partitioner import search
from repro.partitioner.search import form_stage
from repro.partitioner.stage_dp import DPRun, form_stage_dp
from tests.partitioner.test_band_width import make_ctx
from tests.partitioner.test_hetero_pinned import CLUSTERS as HETERO_CLUSTERS
from tests.partitioner.test_hetero_pinned import MODELS as HETERO_MODELS
from tests.partitioner.test_hetero_pinned import SCENARIOS as HETERO_SCENARIOS
from tests.partitioner.test_sweep_bound import solution_key
from tests.partitioner.test_sweep_memo import CONFIGS, base_run, plan_key
from tests.partitioner.test_sweep_prune import (
    BATCH,
    dp_context,
    fresh,
    graphs,  # noqa: F401  (module fixture)
)

GiB = 1024**3
KiB = 1024


def unseeded():
    """No level is bounded by a stored incumbent."""
    return mock.patch.object(
        DPRun, "stored_incumbent", lambda *a: math.inf
    )


def unskipped():
    """Every sweep that misses the memo fills its table."""
    return mock.patch.object(stage_dp, "_has_layout", lambda *a: True)


def traced(run, max_microbatches=None):
    """``form_stage`` on ``run``: the result, each level's ``(n, D, R,
    winner S, winner MB, incumbent)``, the level spans and the
    metrics."""
    tracer = Tracer()
    m = MetricsRegistry()
    res = form_stage(run, max_microbatches=max_microbatches, tracer=tracer)
    run.publish(m)
    spans = tracer.spans("partitioner.search")
    levels = [
        tuple(s.attrs.get(a) for a in ("n", "D", "R", "winner_stages",
                                       "winner_microbatches", "incumbent"))
        for s in spans
    ]
    return res, levels, spans, m


def assert_cuts_exact(on_memo, off_memo, cluster, budget,
                      max_microbatches=None):
    """A search over ``on_memo`` equals one over ``off_memo`` with both
    cuts patched off: plan and per-level winners; ``dp_calls`` and
    ``states_evaluated`` too unless a level fell back, and it ranks at
    least one and at most the unseeded search's candidates.  The
    counters, level spans and metrics agree.  Returns the run."""
    on = DPRun(on_memo, cluster, budget)
    res_on, levels_on, spans, m = traced(on, max_microbatches)
    with unseeded(), unskipped():
        off = DPRun(off_memo, cluster, budget)
        res_off, levels_off, _, _ = traced(off, max_microbatches)
    assert plan_key(res_on) == plan_key(res_off)
    assert levels_on == levels_off
    assert off.levels_seeded == off.sweeps_skipped == 0
    if res_on is not None:
        assert 1 <= res_on.candidates_tried <= res_off.candidates_tried
        if on.seed_fallbacks == 0:
            assert (res_on.dp_calls, res_on.states_evaluated) == (
                res_off.dp_calls, res_off.states_evaluated
            )
    seeded = [s for s in spans if s.attrs["stored_incumbent"] is not None]
    fell_back = [s for s in spans if s.attrs["seed_fallback"]]
    assert set(map(id, fell_back)) <= set(map(id, seeded))
    assert m.counter("search.levels_seeded").value == on.levels_seeded == (
        len(seeded)
    )
    assert m.counter("search.seed_fallbacks").value == on.seed_fallbacks == (
        len(fell_back)
    )
    assert m.counter("search.sweeps_skipped").value == on.sweeps_skipped == (
        sum(s.attrs["sweeps_skipped"] for s in spans)
    )
    return on


# ----------------------------------------------------------------------
# exact on the planner's inputs


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("model", sorted(BATCH))
@settings(max_examples=4, deadline=None)
@given(
    nodes=st.sampled_from([1, 2, 4]),
    deltas=st.lists(
        st.tuples(
            st.one_of(st.none(), st.floats(min_value=2.0, max_value=32.0)),
            st.sampled_from([None, 8, 32]),
        ),
        min_size=2, max_size=4,
    ),
)
def test_random_budget_sequences_exact(graphs, model, config,  # noqa: F811
                                       nodes, deltas):
    """A base search, then one per random budget and microbatch cap, over
    one shared context: each equals the search over another shared
    context with both cuts patched off."""
    base = base_run(graphs, model, config, nodes)
    on_memo, off_memo = fresh(base).memo, fresh(base).memo
    for gib, max_mb in [(None, None), *deltas]:
        budget = None if gib is None else gib * GiB
        assert_cuts_exact(on_memo, off_memo, base.cluster, budget, max_mb)


def recording():
    """Patch ``search.form_stage_dp`` to record every sweep as ``(run's
    budget, stage counts, D, R, MB, bound, skipped)``."""
    sweep = search.form_stage_dp
    swept = []

    def record(run, stage_counts, D, R, MB, **kw):
        before = run.sweeps_skipped
        out = sweep(run, stage_counts, D, R, MB, **kw)
        swept.append((run.memory_budget, stage_counts, D, R, MB, kw["bound"],
                      run.sweeps_skipped > before))
        return out

    return mock.patch.object(search, "form_stage_dp", record), swept


def test_daemon_budgets_are_seeded_and_skip(graphs):  # noqa: F811
    """Budgets between 12 and 31 GiB after a base plan, as the daemon
    workload sends them: levels are seeded with no fallback, sweeps are
    skipped, the plans are the unseeded, unskipped ones, and every
    skipped sweep's table, run on a fresh context, has no answer."""
    base = base_run(graphs, "bert-base", "fp32")
    on_memo, off_memo = fresh(base).memo, fresh(base).memo
    rng = np.random.default_rng(7)
    patch, swept = recording()
    seeded = skipped = 0
    with patch:
        for budget in [None, *(rng.uniform(12, 31, size=6) * GiB)]:
            on = assert_cuts_exact(on_memo, off_memo, base.cluster, budget)
            assert on.seed_fallbacks == 0
            seeded += on.levels_seeded
            skipped += on.sweeps_skipped
    assert seeded > 0 and skipped > 0
    for budget, stage_counts, D, R, MB, bound, was_skipped in swept:
        if not was_skipped:
            continue
        with unskipped():
            full = form_stage_dp(DPRun(fresh(base).memo, base.cluster, budget),
                                 stage_counts, D, R, MB, bound=bound)
        assert all(full[S] is None for S in stage_counts if S >= 2)


# ----------------------------------------------------------------------
# the seed


def test_a_seed_comes_from_the_swept_microbatch_counts(graphs):  # noqa: F811
    """A delta capped at 8 microbatches on a context that stored the
    uncapped base plan's sweeps: only the answers at the counts it
    sweeps seed it, so its level never falls back to the unseeded
    search (an answer at 16 or more microbatches is one it cannot
    rank)."""
    base = base_run(graphs, "bert-base", "fp32", 1)
    on_memo, off_memo = fresh(base).memo, fresh(base).memo
    assert_cuts_exact(on_memo, off_memo, base.cluster, None)
    stored_mbs = {MB for level in on_memo._sweep_memo.values()
                  for MB, _ in level}
    assert max(stored_mbs) > 8
    # at 20 GiB only answers at 32 microbatches fit
    for gib, seeded in ((None, 1), (20, 0)):
        budget = None if gib is None else gib * GiB
        on = assert_cuts_exact(on_memo, off_memo, base.cluster, budget, 8)
        assert (on.levels_seeded, on.seed_fallbacks) == (seeded, 0)


def test_a_seed_below_the_best_answer_falls_back(graphs):  # noqa: F811
    """A stored incumbent patched to half the level's best makespan
    removes every answer: the level reruns unseeded, once, and plans
    what the unseeded search plans."""
    base = base_run(graphs, "bert-base", "fp32", 1)
    with unseeded():
        ref, ref_levels, _, _ = traced(fresh(base))
    best = ref.solution.estimated_iteration_time()
    with mock.patch.object(DPRun, "stored_incumbent",
                           lambda *a: best / 2):
        run = fresh(base)
        res, levels, spans, m = traced(run)
    assert plan_key(res) == plan_key(ref)
    assert levels == ref_levels
    assert m.counter("search.levels_seeded").value == 1
    assert m.counter("search.seed_fallbacks").value == 1
    assert (spans[0].attrs["stored_incumbent"], spans[0].attrs["seed_fallback"]) == (
        best / 2, True
    )
    # the rerun makes every sweep again, unseeded
    assert res.dp_calls == 2 * ref.dp_calls
    assert res.candidates_tried == ref.candidates_tried
    assert run.sweep_bounds[res.dp_calls // 2] is None


def test_a_seed_at_the_best_answer_keeps_the_level(graphs):  # noqa: F811
    """A seed equal to the level's best makespan removes only answers
    strictly slower than it: the first minimum survives, with no
    fallback."""
    base = base_run(graphs, "bert-base", "fp32", 1)
    with unseeded():
        ref, ref_levels, _, _ = traced(fresh(base))
    best = ref.solution.estimated_iteration_time()
    with mock.patch.object(DPRun, "stored_incumbent", lambda *a: best):
        res, levels, _, m = traced(fresh(base))
    assert plan_key(res) == plan_key(ref)
    assert levels == ref_levels
    assert m.counter("search.seed_fallbacks").value == 0
    assert 1 <= res.candidates_tried < ref.candidates_tried


@pytest.mark.parametrize("name", sorted(HETERO_SCENARIOS))
def test_heterogeneous_clusters_are_never_seeded_nor_skipped(name):
    model, cluster, budget = HETERO_SCENARIOS[name]
    build, batch_size = HETERO_MODELS[model]
    dp = dp_context(build(), HETERO_CLUSTERS[cluster](),
                    batch_size=batch_size, memory_budget=budget)
    for _ in range(2):
        run = DPRun(dp.memo, dp.cluster, budget)
        _, _, spans, m = traced(run)
        assert (run.levels_seeded, run.seed_fallbacks,
                run.sweeps_skipped) == (0, 0, 0)
        for counter in ("search.levels_seeded", "search.seed_fallbacks",
                        "search.sweeps_skipped"):
            assert m.counter(counter).value == 0
        assert all(s.attrs["stored_incumbent"] is None for s in spans)


def test_a_heterogeneous_run_ignores_homogeneous_sweeps(graphs):  # noqa: F811
    """A context shared with homogeneous runs holds their sweeps, but a
    heterogeneous run's stages are capped and paced per slot: the same
    level's stored answers do not seed it."""
    base = base_run(graphs, "bert-base", "fp32", 2)
    run = fresh(base)
    _, _, spans, _ = traced(run)
    level = spans[0].attrs
    D, R = level["D"], level["R"]
    stage_counts = range(1, D + 1)
    swept = search.microbatch_candidates(
        search.microbatch_cap(run.memo.batch_size, R, None)
    )
    assert run.stored_incumbent(stage_counts, D, R, swept) < math.inf
    hetero = DPRun(run.memo, HETERO_CLUSTERS["mixed"]())
    assert hetero.cluster.is_heterogeneous
    assert hetero.stored_incumbent(stage_counts, D, R, swept) == math.inf


# ----------------------------------------------------------------------
# the skip


def tiny_run(seed, k, memory_kib, batch_size, budget_kib=None):
    graph = build_random_dag(seed=seed, num_nodes=10)
    cluster = tiny_cluster(num_nodes=1, devices_per_node=4,
                           memory_bytes=memory_kib * KiB)
    budget = None if budget_kib is None else budget_kib * KiB
    return lambda: make_ctx(graph, cluster, k=k, batch_size=batch_size,
                            memory_budget=budget)


def assert_skip_exact(make, stage_counts, MB, bound=math.inf, D=4):
    """A sweep answers and counts like its table run anyway, and when it
    is skipped the table has no answer.  Returns whether it was."""
    run = make()
    answers = form_stage_dp(run, stage_counts, D, 1, MB, bound=bound)
    with unskipped():
        full_run = make()
        full = form_stage_dp(full_run, stage_counts, D, 1, MB, bound=bound)
    assert {S: solution_key(s) for S, s in answers.items()} == {
        S: solution_key(s) for S, s in full.items()
    }
    assert (run.dp_calls, run.states_evaluated, run.band_width_max) == (
        full_run.dp_calls, full_run.states_evaluated,
        full_run.band_width_max,
    )
    if run.sweeps_skipped:
        assert all(full[S] is None for S in stage_counts if S >= 2)
        # only a lone stage, priced outside the table, may be bounded
        assert run.cells_reduced == 0
        assert run.answers_bounded <= min(int(1 in stage_counts),
                                          full_run.answers_bounded)
    else:
        assert run.cells_reduced == full_run.cells_reduced
    assert full_run.sweeps_skipped == 0
    return bool(run.sweeps_skipped)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=2, max_value=8),
    memory_kib=st.sampled_from([24, 48, 96, 1024]),
    budget_kib=st.sampled_from([None, 8, 16, 40]),
    batch_size=st.sampled_from([8, 12, 64]),
    MB=st.sampled_from([1, 2, 4, 8]),
    lo=st.integers(min_value=1, max_value=4),
    bound_frac=st.sampled_from([None, 0.5, 0.9, 1.0, 1.5]),
)
def test_random_dag_sweeps_skip_exactly(seed, k, memory_kib, budget_kib,
                                        batch_size, MB, lo, bound_frac):
    make = tiny_run(seed, k, memory_kib, batch_size, budget_kib)
    bound = math.inf
    if bound_frac is not None:
        # a fraction of the best unbounded answer of the sweep's range
        with unskipped():
            probe = make()
            answers = form_stage_dp(probe, range(lo, 5), 4, 1, MB)
        objectives = [s.objective for s in answers.values() if s]
        if objectives:
            bound = min(objectives) * bound_frac
    assert_skip_exact(make, range(lo, 5), MB, bound)


def test_a_layout_on_exactly_every_device_is_kept():
    """Eight microbatches of a batch of eight leave one sample per
    pipeline microbatch, so a stage takes one replica: only four stages
    take the four devices, on exactly ``md = D`` of them."""
    make = tiny_run(seed=3, k=6, memory_kib=1024, batch_size=8)
    assert not assert_skip_exact(make, range(2, 5), 8)
    run = make()
    answers = form_stage_dp(run, range(2, 5), 4, 1, 8)
    assert [S for S, s in answers.items() if s] == [4]


def test_a_sweep_that_cannot_take_every_device_is_skipped():
    """With one replica per stage, three stages leave a device idle: no
    layout of two or three stages has an answer."""
    make = tiny_run(seed=3, k=6, memory_kib=1024, batch_size=8)
    assert assert_skip_exact(make, range(2, 4), 8)


def test_a_sweep_bounded_below_every_stage_is_skipped():
    """The bound joins the mask: a bound under every stage's ``t_f +
    t_b`` leaves no entry, though memory leaves them all."""
    make = tiny_run(seed=3, k=6, memory_kib=1024, batch_size=64)
    assert not assert_skip_exact(make, range(2, 5), 1)
    assert assert_skip_exact(make, range(2, 5), 1, bound=1e-12)


def test_the_skip_reads_the_bound():
    """The mask the skip reads holds every band entry over the sweep's
    bound, not only those over the cap."""
    make = tiny_run(seed=3, k=6, memory_kib=1024, batch_size=64)
    probe = make()
    answers = form_stage_dp(probe, range(2, 5), 4, 1, 1)
    bound = 0.9 * min(s.objective for s in answers.values() if s)
    has_layout = stage_dp._has_layout
    masks = []

    def recording(over, *args):
        masks.append(over)
        return has_layout(over, *args)

    run = make()
    with mock.patch.object(stage_dp, "_has_layout", recording):
        form_stage_dp(run, range(2, 5), 4, 1, 1, bound=bound)
    (over,) = masks
    n_planes, _, width = over.shape
    bands = run.profile_bands(4, 1, 1, run.memo.k - 1)
    entries = (slice(0, n_planes), slice(None), slice(0, width))
    above = (bands.tf + bands.tb)[entries] > bound
    assert (above & ~(bands.mem[entries] > run.usable_memory)).any()
    assert not (above & ~over).any()


# ----------------------------------------------------------------------
# unreached cells


def test_unreached_cells_keep_no_parent(graphs):  # noqa: F811
    """A table cell no transition reached keeps its initial parent: an
    infeasible candidate never ties into it."""
    band_stage = stage_dp._band_stage
    tables = []

    def recording(*args):
        # ``best`` and ``best_bp`` of the stage, and the parents it
        # started with
        tables.append((args[12], args[15], args[15].copy()))
        return band_stage(*args)

    base = base_run(graphs, "bert-base", "fp32", 1)
    run = fresh(base)
    mbs = search.microbatch_candidates(
        search.microbatch_cap(run.memo.batch_size, 1, None)
    )
    with mock.patch.object(stage_dp, "_band_stage", recording):
        for MB in mbs:
            form_stage_dp(run, range(1, 9), 8, 1, MB)
    assert run.sweeps_skipped < len(mbs)
    unreached = 0
    for best, parent, initial in tables:
        cells = ~np.isfinite(best)
        assert (parent[cells] == initial[cells]).all()
        unreached += int(cells.sum())
    assert unreached > 0
