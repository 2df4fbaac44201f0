"""Randomized differential verification harness.

Runs the *full* planner over :func:`repro.models.random_dag.build_random_dag`
graphs -- layered DAGs with skip connections and constant transposes, a
shape family no hand-written model covers -- across a seed matrix and
several cluster presets, and holds every emitted plan to the
:mod:`repro.verify` invariants.  CI runs it with a fixed seed matrix
(see ``.github/workflows/ci.yml``)::

    PYTHONPATH=src python -m repro.verify.harness --seeds 25

Every seed is planned once more on ``tiny-1x4`` under a memory budget
of 0.75x its unbudgeted plan's peak stage memory, and that plan is held
to the budget as well.

Exit status is non-zero if any plan fails verification (infeasible
combinations are reported but are not failures: the planner refusing to
emit a plan is the correct behaviour when no placement fits).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.hardware.presets import tiny_cluster
from repro.models.random_dag import build_random_dag
from repro.partitioner import PartitioningError, auto_partition
from repro.verify.plan_checks import VerificationReport, Violation, check_plan

__all__ = ["HarnessCase", "HarnessResult", "default_clusters", "run_harness"]


def default_clusters() -> Dict[str, ClusterSpec]:
    """The cluster presets of the CI matrix: a flat 4-device node, a 2x2
    layout exercising inter-node boundaries, and a memory-starved node
    that forces multi-stage (pipelined, checkpointed) plans so the
    differential checks see non-trivial schedules."""
    return {
        "tiny-1x4": tiny_cluster(num_nodes=1, devices_per_node=4),
        "tiny-2x2": tiny_cluster(num_nodes=2, devices_per_node=2),
        "tiny-lowmem": tiny_cluster(
            num_nodes=1, devices_per_node=4, memory_bytes=256 * 1024
        ),
    }


#: the cluster whose plans the harness repeats under a memory budget,
#: and the budget's share of the unbudgeted plan's peak stage memory
BUDGET_CLUSTER = "tiny-1x4"
BUDGET_FRACTION = 0.75


@dataclass
class HarnessCase:
    """Outcome of one (seed, cluster, comm model, mode, budget) planner
    run."""

    seed: int
    cluster_name: str
    feasible: bool
    comm_model: str = "flat"
    mode: str = "training"
    #: per-device memory budget of the run (bytes; ``None``: none)
    memory_budget: Optional[float] = None
    num_stages: int = 0
    violations: Tuple[Violation, ...] = ()
    invariants_checked: int = 0
    sim_rel_err: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def label(self) -> str:
        label = f"{self.cluster_name}/{self.comm_model}/{self.mode}"
        if self.memory_budget is not None:
            label += f"/budget={self.memory_budget / 1024:.0f}KiB"
        return label


@dataclass
class HarnessResult:
    """All cases of one harness run plus aggregate counts."""

    cases: List[HarnessCase] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(len(c.violations) for c in self.cases)

    @property
    def num_feasible(self) -> int:
        return sum(1 for c in self.cases if c.feasible)

    @property
    def ok(self) -> bool:
        return self.total_violations == 0


def run_harness(
    seeds: Sequence[int] = range(25),
    clusters: Optional[Dict[str, ClusterSpec]] = None,
    batch_size: int = 32,
    num_nodes: int = 14,
    width: int = 64,
    num_blocks: int = 8,
    comm_models: Sequence[str] = ("flat", "topology"),
    modes: Sequence[str] = ("training",),
) -> HarnessResult:
    """Plan every (seed, cluster, comm model, mode) combination and
    verify each plan.

    The planner runs with verification *disabled* so the harness is an
    independent referee: a planner bug produces a reported violation
    here instead of an exception inside the pipeline being measured.
    The ``comm_models`` column re-plans every combination under each
    communication model (:mod:`repro.comm`), so the topology model is
    held to the same zero-violation bar as the flat one; the ``modes``
    column does the same for forward-only inference plans
    (``mode="inference"``), which the verifier holds to the extra
    inference invariant family.

    Each seed is then planned once more on :data:`BUDGET_CLUSTER`, under
    the first comm model and mode, with a memory budget of
    :data:`BUDGET_FRACTION` of that cluster's unbudgeted plan's peak
    stage memory, and the plan is checked against the budget too.  The
    tighter cap exercises the stage search's memory and time bounds
    together; a budget no plan fits is reported infeasible.
    """
    if clusters is None:
        clusters = default_clusters()
    result = HarnessResult()
    for seed in seeds:
        graph = build_random_dag(seed=seed, num_nodes=num_nodes, width=width)
        base_plan = None
        for cname, base_cluster in clusters.items():
            for comm_model in comm_models:
                cluster = base_cluster.with_comm_model(comm_model)
                for mode in modes:
                    case, plan = _run_case(
                        seed, graph, cname, cluster, comm_model, mode,
                        batch_size, num_blocks,
                    )
                    result.cases.append(case)
                    if (cname, comm_model, mode) == (
                        BUDGET_CLUSTER, comm_models[0], modes[0]
                    ):
                        base_plan = plan
        if base_plan is not None:
            budget = BUDGET_FRACTION * max(
                stage.profile.memory for stage in base_plan.stages
            )
            comm_model = comm_models[0]
            case, _ = _run_case(
                seed, graph, BUDGET_CLUSTER,
                clusters[BUDGET_CLUSTER].with_comm_model(comm_model),
                comm_model, modes[0], batch_size, num_blocks, budget,
            )
            result.cases.append(case)
    return result


def _run_case(
    seed: int,
    graph: TaskGraph,
    cluster_name: str,
    cluster: ClusterSpec,
    comm_model: str,
    mode: str,
    batch_size: int,
    num_blocks: int,
    memory_budget: Optional[float] = None,
):
    """Plan one combination and check the plan: ``(case, plan)``, with
    ``plan`` ``None`` when no plan fits."""
    case = HarnessCase(
        seed=seed,
        cluster_name=cluster_name,
        feasible=False,
        comm_model=comm_model,
        mode=mode,
        memory_budget=memory_budget,
    )
    try:
        plan = auto_partition(
            graph,
            cluster,
            batch_size=batch_size,
            num_blocks=num_blocks,
            verify=False,
            mode=mode,
            memory_budget=memory_budget,
        )
    except PartitioningError:
        return case, None
    report: VerificationReport = check_plan(
        plan, graph, cluster, memory_budget=memory_budget
    )
    case.feasible = True
    case.num_stages = plan.num_stages
    case.violations = tuple(report.violations)
    case.invariants_checked = report.invariants_checked
    case.sim_rel_err = report.stats.get("sim_rel_err", 0.0)
    return case, plan


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=25,
                    help="number of random-DAG seeds (0..N-1)")
    ap.add_argument("--batch-size", type=int, default=32)
    ap.add_argument("--num-nodes", type=int, default=14,
                    help="interior compute nodes per random DAG")
    ap.add_argument("--width", type=int, default=64)
    ap.add_argument("--blocks", type=int, default=8)
    ap.add_argument("--comm-models", nargs="+", default=["flat", "topology"],
                    choices=["flat", "topology"],
                    help="communication models to plan under")
    ap.add_argument("--modes", nargs="+",
                    default=["training", "inference"],
                    choices=["training", "inference"],
                    help="planning modes to cover (inference plans are "
                         "held to the extra inference invariant family)")
    args = ap.parse_args(argv)

    result = run_harness(
        seeds=range(args.seeds),
        batch_size=args.batch_size,
        num_nodes=args.num_nodes,
        width=args.width,
        num_blocks=args.blocks,
        comm_models=tuple(args.comm_models),
        modes=tuple(args.modes),
    )
    for case in result.cases:
        label = case.label
        if not case.feasible:
            print(f"seed {case.seed:3d} {label:38s} INFEASIBLE")
            continue
        status = "OK" if case.ok else "FAIL"
        print(
            f"seed {case.seed:3d} {label:38s} {status}  "
            f"stages={case.num_stages} checks={case.invariants_checked} "
            f"sim_rel_err={case.sim_rel_err:.2e}"
        )
        for v in case.violations:
            print(f"    {v}")
    print(
        f"{len(result.cases)} cases ({result.num_feasible} feasible), "
        f"{result.total_violations} violation(s)"
    )
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
