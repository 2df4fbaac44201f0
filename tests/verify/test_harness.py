"""The randomized differential harness: 25 seeded random DAGs x 3
cluster presets x 2 communication models, plus one memory-budget case
per seed, full planner, every emitted plan verified."""

from repro.verify.harness import (
    BUDGET_CLUSTER,
    default_clusters,
    main,
    run_harness,
)


class TestHarness:
    def test_full_seed_matrix_has_zero_violations(self):
        result = run_harness(seeds=range(25))
        # every (seed, cluster, comm model) once, and every seed once
        # more under a memory budget
        assert len(result.cases) == 25 * len(default_clusters()) * 2 + 25
        assert result.total_violations == 0, [
            str(v) for c in result.cases for v in c.violations
        ]
        # the matrix must actually exercise the planner: most
        # combinations feasible, and the memory-starved preset forcing
        # genuine multi-stage pipelines
        assert result.num_feasible >= 120
        assert any(c.num_stages >= 2 for c in result.cases)
        # both communication models appear, and the topology column is
        # held to the same zero-violation bar (asserted above) with the
        # same feasibility profile as flat
        by_model = {}
        for case in result.cases:
            by_model.setdefault(case.comm_model, []).append(case)
        assert set(by_model) == {"flat", "topology"}
        flat_feasible = {
            (c.seed, c.cluster_name) for c in by_model["flat"] if c.feasible
        }
        topo_feasible = {
            (c.seed, c.cluster_name) for c in by_model["topology"] if c.feasible
        }
        assert flat_feasible == topo_feasible

    def test_inference_mode_column_has_zero_violations(self):
        result = run_harness(
            seeds=range(5),
            comm_models=("flat",),
            modes=("training", "inference"),
        )
        assert len(result.cases) == 5 * len(default_clusters()) * 2 + 5
        assert result.total_violations == 0, [
            str(v) for c in result.cases for v in c.violations
        ]
        by_mode = {}
        for case in result.cases:
            by_mode.setdefault(case.mode, []).append(case)
        assert set(by_mode) == {"training", "inference"}
        assert any(c.feasible for c in by_mode["inference"])
        # forward-only plans can only get *more* feasible: dropping the
        # backward/optimizer memory never loses a feasible combination
        train_feasible = {
            (c.seed, c.cluster_name)
            for c in by_mode["training"] if c.feasible
        }
        inf_feasible = {
            (c.seed, c.cluster_name)
            for c in by_mode["inference"] if c.feasible
        }
        assert train_feasible <= inf_feasible

    def test_budget_cases_hold_plans_to_the_budget(self):
        """Each seed's extra ``tiny-1x4`` case plans under 0.75x the
        unbudgeted plan's peak stage memory; the budget check is one more
        invariant per stage, and a plan over the budget would fail it."""
        result = run_harness(seeds=range(4), comm_models=("flat",))
        base = {
            c.seed: c for c in result.cases
            if c.cluster_name == BUDGET_CLUSTER and c.memory_budget is None
        }
        budgeted = [c for c in result.cases if c.memory_budget is not None]
        assert [c.seed for c in budgeted] == [0, 1, 2, 3]
        assert result.total_violations == 0
        for case in budgeted:
            assert case.cluster_name == BUDGET_CLUSTER
            assert "/budget=" in case.label
            if case.feasible:
                # the tighter cap splits the model
                assert case.num_stages > base[case.seed].num_stages
                assert case.invariants_checked > (
                    base[case.seed].invariants_checked
                )

    def test_cli_entry(self, capsys):
        assert main(["--seeds", "2", "--comm-models", "flat",
                     "--modes", "training"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "seed   0" in out

    def test_cli_entry_covers_inference_by_default(self, capsys):
        assert main(["--seeds", "1", "--comm-models", "flat"]) == 0
        out = capsys.readouterr().out
        assert "/inference" in out
        assert "0 violation(s)" in out
