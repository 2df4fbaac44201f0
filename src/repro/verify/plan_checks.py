"""Static and differential integrity checks for partition plans.

RaNNC's value proposition is that the automatically found deployment is
*trustworthy*: Algorithm 2 prunes any candidate whose estimated memory
exceeds device capacity, and cached deployments are only reused when they
still match the model.  This module is the referee for that claim.  It
re-derives every property a plan asserts about itself from first
principles (the graph, the cluster and the profiler) and reports every
disagreement, in the collect-then-raise style of
:func:`repro.graph.validate.validate_graph`.

The invariant families (see ``docs/VERIFICATION.md``):

* **coverage** -- every graph task appears in >= 1 stage; every
  *non-constant* task (see :func:`repro.partitioner.atomic.classify_tasks`)
  appears in exactly one stage; only constant tasks may be cloned across
  stages; no stage lists a task twice; no stage references unknown tasks.
* **topology** -- stage indices are ``0..S-1`` in order, the block ranges
  chain contiguously from 0, and no dataflow edge between two
  non-constant tasks runs backward through the pipeline (together with
  the single-placement rule this makes every stage convex w.r.t. the
  topological order); a constant producer feeding a stage must be cloned
  into that stage.
* **devices** -- every stage owns >= 1 device per pipeline; the per-stage
  device counts sum to <= cluster size under the replica factor; an
  attached :class:`~repro.partitioner.plan.DeviceAssignment` must agree
  with those counts and use disjoint, in-range ranks.
* **divisibility** -- ``num_microbatches >= 1`` and each stage's stored
  ``microbatch_size`` equals ``batch_size // (R * MB * devices)`` with at
  least one sample per replica.
* **memory** -- each stage's stored peak memory fits the device's usable
  memory and, when the run set one, its memory budget (the one check
  that reads the budget, :func:`check_budget`, run last); the memory
  *re-derived* from
  :mod:`repro.profiler.memory` via a fresh profile of the stage's tasks
  agrees with the stored value within :data:`MEM_REL_TOL` (and also fits).
* **differential** -- per-stage times re-derived from the profiler (plus
  the p2p terms the DP charges to the sender) agree with the stored
  profile within :data:`TIME_REL_TOL`, and re-simulating the stored
  stage times with :func:`repro.pipeline.simulator.simulate_sync_pipeline`
  reproduces the DP's ``estimated_iteration_time`` (and the recorded
  pipeline makespan) within :data:`SIM_REL_TOL`.
* **comm** -- the recorded data-parallel allreduce phase re-derives
  identically (within :data:`SIM_REL_TOL`) under the cluster's
  *configured* communication model
  (:func:`repro.pipeline.hybrid.allreduce_phase`), so an evaluation
  that priced gradient sync under one model cannot be silently reused
  under another.  Skipped for inference plans, whose allreduce phase is
  zero by definition.
* **inference** -- forward-only plans (``plan.mode == "inference"``)
  carry no training residue: every stage's backward time is exactly
  zero, the recorded allreduce and optimizer phases are zero, and the
  evaluated iteration time equals the forward pipeline makespan.  The
  memory and differential families above re-derive through an
  *inference-mode* profiler, so inference memory (weights + KV-bounded
  working set) and forward latency are held to the same tolerances as
  training plans.

Tolerances
----------

``SIM_REL_TOL = 1e-6``: the DP's iteration-time estimate *is* a memoized
``simulate_sync_pipeline`` call over the same stage times, so the
re-simulation must agree to float noise.

``MEM_REL_TOL = 1e-6``: the DP derives stage memory from block-level
prefix sums; re-profiling the stage's (de-duplicated) task set is the
same arithmetic because cloned constant tasks contribute zero saved
activation bytes and parameters are de-duplicated in both paths.

``TIME_REL_TOL = 0.05``: stage times are *not* bit-reproducible from the
task set -- the DP's block-granularity prefix sums count a constant task
cloned into several blocks of the same stage once per clone (one
``kernel_overhead`` = 4 microseconds each), while a fresh profile of the
de-duplicated task tuple counts it once.  The loose 5% bound catches
unit-level corruption (a stage time off by 2x) without false-positives
on clone accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.graph.ir import TaskGraph
from repro.hardware.cluster import ClusterSpec
from repro.partitioner.plan import PartitionPlan
from repro.pipeline.simulator import simulate_sync_pipeline
from repro.profiler.memory import OptimizerKind
from repro.profiler.profiler import GraphProfiler

__all__ = [
    "MEM_REL_TOL",
    "SIM_REL_TOL",
    "TIME_REL_TOL",
    "VERIFIER_VERSION",
    "PlanVerificationError",
    "VerificationReport",
    "Violation",
    "check_budget",
    "check_plan",
    "verify_plan",
    "without_budget",
]

#: relative tolerance of the DP estimate vs. the re-simulation
SIM_REL_TOL = 1e-6
#: relative tolerance of stored vs. re-derived stage memory
MEM_REL_TOL = 1e-6
#: relative tolerance of stored vs. re-derived stage times
TIME_REL_TOL = 0.05
#: version of the invariant set above.  The artifact store remembers
#: which stored plans passed under which version; bump it whenever a
#: check is added or tightened so every remembered pass is re-checked
VERIFIER_VERSION = 2


@dataclass(frozen=True)
class Violation:
    """One failed invariant: the family it belongs to plus a message."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


class PlanVerificationError(ValueError):
    """A plan failed verification; carries *all* violations, not just the
    first (mirroring ``GraphValidationError``).

    Subclasses :class:`ValueError` so the planner's cache-load path can
    treat an invalid stored deployment as a miss.
    """

    def __init__(self, model_name: str, violations: List[Violation]) -> None:
        self.model_name = model_name
        self.violations = list(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"plan for {model_name!r} failed verification with "
            f"{len(self.violations)} violation(s):\n{lines}"
        )


@dataclass
class VerificationReport:
    """Result of :func:`check_plan`: violations plus numeric summaries."""

    model_name: str
    violations: List[Violation] = field(default_factory=list)
    invariants_checked: int = 0
    #: float-valued summaries (``sim_rel_err``, ``max_mem_rel_err``, ...)
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            raise PlanVerificationError(self.model_name, self.violations)


def _rel_err(a: float, b: float) -> float:
    """Symmetric relative error, safe at zero."""
    denom = max(abs(a), abs(b), 1e-30)
    return abs(a - b) / denom


class _Checker:
    """One verification run; accumulates violations and statistics."""

    def __init__(
        self,
        plan: PartitionPlan,
        graph: TaskGraph,
        cluster: ClusterSpec,
        profiler: Optional[GraphProfiler],
        optimizer: OptimizerKind,
        expected_iteration_time: Optional[float],
    ) -> None:
        self.plan = plan
        self.graph = graph
        self.cluster = cluster
        self.profiler = profiler
        self.optimizer = optimizer
        self.expected_iteration_time = expected_iteration_time
        self.report = VerificationReport(model_name=plan.model_name)
        # the table of the profiler the re-derivation checks use carries
        # the non-constant flags (the forward traversal of
        # ``classify_tasks``), so the plan's own profiler serves both
        profiler = self._ensure_profiler()
        self._task_index = profiler._index
        self._non_constant_flags = profiler.non_constant.tolist()
        #: task -> sorted list of stage indices it appears in
        self.placement: Dict[str, List[int]] = {}
        self.unknown_tasks = False

    # ------------------------------------------------------------------
    def _non_constant(self, task: str) -> bool:
        return self._non_constant_flags[self._task_index[task]]

    def _checked(self, n: int = 1) -> None:
        self.report.invariants_checked += n

    def _fail(self, invariant: str, message: str) -> None:
        self.report.violations.append(Violation(invariant, message))

    # ------------------------------------------------------------------
    def run(self) -> VerificationReport:
        plan = self.plan
        self._checked()
        if not plan.stages:
            self._fail("coverage", "plan has no stages")
            return self.report
        self._check_coverage()
        self._check_topology()
        self._check_devices()
        self._check_divisibility()
        self._check_memory_static()
        if not self.unknown_tasks:
            self._check_derived_profiles()
        self._check_differential()
        self._check_comm()
        self._check_inference()
        return self.report

    # ------------------------------------------------------------------
    def _check_coverage(self) -> None:
        plan, graph = self.plan, self.graph
        for stage in plan.stages:
            seen_in_stage = set()
            for t in stage.tasks:
                if t in seen_in_stage:
                    self._fail(
                        "coverage",
                        f"stage {stage.index} lists task {t!r} twice",
                    )
                    continue
                seen_in_stage.add(t)
                if t not in graph.tasks:
                    self.unknown_tasks = True
                    self._fail(
                        "coverage",
                        f"stage {stage.index} references unknown task {t!r}",
                    )
                    continue
                self.placement.setdefault(t, []).append(stage.index)
        self._checked(len(graph.tasks))
        for t in graph.tasks:
            stages_of = self.placement.get(t)
            if not stages_of:
                self._fail(
                    "coverage", f"task {t!r} is not assigned to any stage"
                )
            elif self._non_constant(t) and len(stages_of) > 1:
                self._fail(
                    "coverage",
                    f"non-constant task {t!r} appears in stages "
                    f"{sorted(stages_of)} (must appear in exactly one; "
                    f"only constant tasks may be cloned)",
                )

    # ------------------------------------------------------------------
    def _check_topology(self) -> None:
        plan = self.plan
        indices = [s.index for s in plan.stages]
        self._checked()
        if indices != list(range(plan.num_stages)):
            self._fail(
                "topology",
                f"stage indices {indices} are not 0..{plan.num_stages - 1} "
                f"in order",
            )
        lo_expected = 0
        for stage in plan.stages:
            lo, hi = stage.block_range
            self._checked()
            if hi <= lo:
                self._fail(
                    "topology",
                    f"stage {stage.index} has empty block range ({lo}, {hi}]",
                )
            if lo != lo_expected:
                self._fail(
                    "topology",
                    f"stage {stage.index} block range starts at {lo}, "
                    f"expected {lo_expected} (ranges must chain "
                    f"contiguously from 0)",
                )
            lo_expected = hi

        if self.unknown_tasks:
            return
        # forward-only dataflow: a non-constant producer may never sit in
        # a later stage than a non-constant consumer, and a constant
        # producer must be cloned into every stage consuming its output
        stage_of = {
            t: stages[0]
            for t, stages in self.placement.items()
            if self._non_constant(t) and len(stages) == 1
        }
        for producer, consumer in self.graph.iter_edges():
            if producer not in self.placement or consumer not in stage_of:
                continue  # unplaced tasks were already reported
            self._checked()
            if self._non_constant(producer):
                if producer in stage_of and stage_of[producer] > stage_of[consumer]:
                    self._fail(
                        "topology",
                        f"dataflow edge {producer!r} -> {consumer!r} runs "
                        f"backward through the pipeline (stage "
                        f"{stage_of[producer]} -> {stage_of[consumer]})",
                    )
            elif stage_of[consumer] not in self.placement[producer]:
                self._fail(
                    "topology",
                    f"constant task {producer!r} feeds {consumer!r} in "
                    f"stage {stage_of[consumer]} but is not cloned into "
                    f"that stage (placed in {self.placement[producer]})",
                )

    # ------------------------------------------------------------------
    def _check_devices(self) -> None:
        plan, cluster = self.plan, self.cluster
        self._checked(2)
        if plan.replica_factor < 1:
            self._fail(
                "devices", f"replica factor {plan.replica_factor} < 1"
            )
        for stage in plan.stages:
            self._checked()
            if stage.devices_per_pipeline < 1:
                self._fail(
                    "devices",
                    f"stage {stage.index} has {stage.devices_per_pipeline} "
                    f"devices (need >= 1)",
                )
        total = plan.devices_per_pipeline * max(1, plan.replica_factor)
        if total > cluster.total_devices:
            self._fail(
                "devices",
                f"plan uses {total} devices "
                f"({plan.devices_per_pipeline} per pipeline x "
                f"{plan.replica_factor} replicas) but the cluster has "
                f"{cluster.total_devices}",
            )
        assignment = plan.assignment
        if assignment is None:
            return
        self._checked()
        seen_ranks: Dict[int, tuple] = {}
        for (replica, stage_idx), ranks in assignment.ranks.items():
            stage = (
                plan.stages[stage_idx]
                if 0 <= stage_idx < plan.num_stages
                else None
            )
            if stage is not None and len(ranks) != stage.devices_per_pipeline:
                self._fail(
                    "devices",
                    f"assignment gives stage {stage_idx} (replica "
                    f"{replica}) {len(ranks)} ranks but the stage "
                    f"declares {stage.devices_per_pipeline}",
                )
            for r in ranks:
                if not 0 <= r < cluster.total_devices:
                    self._fail(
                        "devices",
                        f"assignment rank {r} out of range "
                        f"[0, {cluster.total_devices})",
                    )
                elif r in seen_ranks:
                    self._fail(
                        "devices",
                        f"device rank {r} assigned to both "
                        f"{seen_ranks[r]} and {(replica, stage_idx)}",
                    )
                seen_ranks[r] = (replica, stage_idx)

    # ------------------------------------------------------------------
    def _check_divisibility(self) -> None:
        plan = self.plan
        self._checked()
        if plan.num_microbatches < 1:
            self._fail(
                "divisibility",
                f"num_microbatches {plan.num_microbatches} < 1",
            )
            return
        if plan.replica_factor < 1:
            return  # reported under devices; the quotient is meaningless
        for stage in plan.stages:
            if stage.devices_per_pipeline < 1:
                continue
            denom = (
                plan.replica_factor
                * plan.num_microbatches
                * stage.devices_per_pipeline
            )
            bs = plan.batch_size // denom
            self._checked(2)
            if bs < 1:
                self._fail(
                    "divisibility",
                    f"stage {stage.index}: batch size {plan.batch_size} "
                    f"leaves no samples per replica microbatch "
                    f"(R*MB*devices = {denom})",
                )
            if stage.microbatch_size != bs:
                self._fail(
                    "divisibility",
                    f"stage {stage.index} stores microbatch_size "
                    f"{stage.microbatch_size}, but batch_size // "
                    f"(R*MB*devices) = {plan.batch_size} // {denom} = {bs}",
                )

    # ------------------------------------------------------------------
    def _stage_limits(self) -> List[tuple]:
        """Per-stage ``(usable_memory, time_factor)``.

        Homogeneous clusters use the single device's capacity and a 1.0
        factor everywhere.  Heterogeneous clusters derive both from the
        ranks each stage actually occupies (the attached assignment when
        present, else the contiguous-band slot arithmetic the DP and
        ``allocate_devices`` share): the stage must fit its tightest
        device and runs at its slowest device's pace."""
        cluster = self.cluster
        if not cluster.is_heterogeneous:
            usable = cluster.device.usable_memory
            return [(usable, 1.0) for _ in self.plan.stages]
        mems = cluster.rank_memories()
        facs = cluster.rank_time_factors(self.plan.precision)
        assignment = self.plan.assignment
        R = max(1, self.plan.replica_factor)
        D = self.plan.devices_per_pipeline
        limits: List[tuple] = []
        dlo = 0
        for stage in self.plan.stages:
            ranks: List[int] = []
            if assignment is not None:
                for rep in range(R):
                    ranks.extend(assignment.ranks.get((rep, stage.index), ()))
            if not ranks:
                for rep in range(R):
                    base = rep * D + dlo
                    ranks.extend(
                        range(base, base + stage.devices_per_pipeline)
                    )
            ranks = [r for r in ranks if 0 <= r < cluster.total_devices]
            if ranks:
                limits.append(
                    (min(mems[r] for r in ranks),
                     max(facs[r] for r in ranks))
                )
            else:  # out-of-range ranks were already reported under devices
                limits.append((cluster.device.usable_memory, 1.0))
            dlo += stage.devices_per_pipeline
        return limits

    def _check_memory_static(self) -> None:
        limits = self._stage_limits()
        for stage, (usable, _factor) in zip(self.plan.stages, limits):
            self._checked()
            if stage.profile.memory > usable * (1.0 + MEM_REL_TOL):
                self._fail(
                    "memory",
                    f"stage {stage.index} stores peak memory "
                    f"{stage.profile.memory / 2**30:.3f} GiB exceeding "
                    f"usable device memory {usable / 2**30:.3f} GiB",
                )

    # ------------------------------------------------------------------
    def _ensure_profiler(self) -> GraphProfiler:
        mode = self.plan.mode
        if (
            self.profiler is not None
            and getattr(self.profiler, "mode", "training") != mode
        ):
            # a supplied training profiler cannot re-derive an inference
            # plan (and vice versa); fall back to building a matching one
            self.profiler = None
        if self.profiler is None:
            self.profiler = GraphProfiler(
                self.graph,
                self.cluster,
                self.plan.precision,
                self.optimizer,
                mode=mode,
            )
        return self.profiler

    def _check_derived_profiles(self) -> None:
        """Re-derive each stage's (t_f, t_b, m) from the profiler and
        compare against the stored profile (memory tightly, times
        loosely -- see the module docstring on clone accounting)."""
        plan, cluster = self.plan, self.cluster
        profiler = self._ensure_profiler()
        limits = self._stage_limits()
        checkpointing = plan.num_stages > 1
        inflight = plan.num_microbatches if checkpointing else 1
        max_mem_err = 0.0
        max_time_err = 0.0
        for stage, (usable, factor) in zip(plan.stages, limits):
            if stage.microbatch_size < 1:
                continue  # reported under divisibility
            prof = profiler.profile(
                stage.tasks,
                stage.microbatch_size,
                microbatches_in_flight=inflight,
                checkpointing=checkpointing,
            )
            # the DP charges boundary communication to the sender's
            # occupancy; mirror that before comparing times.  On a
            # heterogeneous cluster the profile was taken on the
            # reference device, so the stage's class time factor scales
            # the whole re-derived time exactly as the DP did.
            t_f = (prof.time_fwd + (
                cluster.p2p_time(prof.out_bytes) if prof.out_bytes else 0.0
            )) * factor
            if plan.mode == "inference":
                # no backward pass, hence no gradient-return traffic:
                # the re-derived backward time is identically zero
                t_b = 0.0
            else:
                t_b = (prof.time_bwd + (
                    cluster.p2p_time(prof.in_bytes) if prof.in_bytes else 0.0
                )) * factor
            mem_err = _rel_err(prof.memory, stage.profile.memory)
            max_mem_err = max(max_mem_err, mem_err)
            self._checked(4)
            if mem_err > MEM_REL_TOL:
                self._fail(
                    "memory",
                    f"stage {stage.index} stores peak memory "
                    f"{stage.profile.memory / 2**30:.4f} GiB but "
                    f"re-deriving it from the profiler gives "
                    f"{prof.memory / 2**30:.4f} GiB "
                    f"(rel err {mem_err:.2e} > {MEM_REL_TOL:.0e})",
                )
            if prof.memory > usable * (1.0 + MEM_REL_TOL):
                self._fail(
                    "memory",
                    f"stage {stage.index} re-derived peak memory "
                    f"{prof.memory / 2**30:.3f} GiB exceeds usable device "
                    f"memory {usable / 2**30:.3f} GiB",
                )
            tf_err = _rel_err(t_f, stage.time_fwd)
            tb_err = _rel_err(t_b, stage.time_bwd)
            max_time_err = max(max_time_err, tf_err, tb_err)
            if tf_err > TIME_REL_TOL:
                self._fail(
                    "differential",
                    f"stage {stage.index} forward time "
                    f"{stage.time_fwd:.6e}s disagrees with the re-derived "
                    f"{t_f:.6e}s (rel err {tf_err:.2e} > {TIME_REL_TOL})",
                )
            if tb_err > TIME_REL_TOL:
                self._fail(
                    "differential",
                    f"stage {stage.index} backward time "
                    f"{stage.time_bwd:.6e}s disagrees with the re-derived "
                    f"{t_b:.6e}s (rel err {tb_err:.2e} > {TIME_REL_TOL})",
                )
        self.report.stats["max_mem_rel_err"] = max_mem_err
        self.report.stats["max_time_rel_err"] = max_time_err

    # ------------------------------------------------------------------
    def _check_differential(self) -> None:
        """Re-simulate the plan's stored stage times and compare against
        the DP estimate and the recorded pipeline makespan."""
        plan = self.plan
        if plan.num_microbatches < 1 or not plan.stages:
            return
        tf = [s.time_fwd for s in plan.stages]
        tb = [s.time_bwd for s in plan.stages]
        sim = simulate_sync_pipeline(tf, tb, plan.num_microbatches)
        self.report.stats["resimulated_pipeline_time"] = sim
        if self.expected_iteration_time is not None:
            err = _rel_err(sim, self.expected_iteration_time)
            self.report.stats["sim_rel_err"] = err
            self._checked()
            if err > SIM_REL_TOL:
                self._fail(
                    "differential",
                    f"DP estimated the pipeline makespan as "
                    f"{self.expected_iteration_time:.6e}s but re-simulating "
                    f"the plan gives {sim:.6e}s "
                    f"(rel err {err:.2e} > {SIM_REL_TOL:.0e})",
                )
        recorded = plan.diagnostics.pipeline_time
        if recorded > 0.0:
            err = _rel_err(sim, recorded)
            self.report.stats.setdefault("sim_rel_err", err)
            self._checked()
            if err > SIM_REL_TOL:
                self._fail(
                    "differential",
                    f"plan records pipeline_time {recorded:.6e}s but "
                    f"re-simulating its stage times gives {sim:.6e}s "
                    f"(rel err {err:.2e} > {SIM_REL_TOL:.0e})",
                )

    # ------------------------------------------------------------------
    def _check_comm(self) -> None:
        """Re-derive the data-parallel allreduce phase under the
        cluster's configured communication model and compare against the
        recorded value."""
        plan = self.plan
        if plan.iteration_time <= 0.0 or not plan.stages:
            return  # plan has not been evaluated yet
        if plan.mode == "inference":
            return  # no gradient sync exists; see _check_inference
        from repro.pipeline.hybrid import allreduce_phase

        rederived, details = allreduce_phase(plan)
        recorded = plan.diagnostics.allreduce_time
        err = _rel_err(rederived, recorded)
        self.report.stats["comm_rel_err"] = err
        self._checked()
        if err > SIM_REL_TOL:
            self._fail(
                "comm",
                f"plan records allreduce_time {recorded:.6e}s but "
                f"re-deriving it under the {details['comm_model']!r} "
                f"communication model gives {rederived:.6e}s "
                f"(rel err {err:.2e} > {SIM_REL_TOL:.0e})",
            )
        if (
            plan.diagnostics.comm_model
            and plan.diagnostics.comm_model != details["comm_model"]
        ):
            self._checked()
            self._fail(
                "comm",
                f"plan was evaluated under comm model "
                f"{plan.diagnostics.comm_model!r} but the cluster is "
                f"configured for {details['comm_model']!r}",
            )

    # ------------------------------------------------------------------
    def _check_inference(self) -> None:
        """Forward-only invariants of an inference plan: zero backward
        time per stage, zero allreduce/optimizer phases, and -- once
        evaluated -- an iteration time equal to the pipeline makespan."""
        plan = self.plan
        if plan.mode != "inference":
            return
        for stage in plan.stages:
            self._checked()
            if stage.time_bwd != 0.0:
                self._fail(
                    "inference",
                    f"stage {stage.index} stores backward time "
                    f"{stage.time_bwd:.6e}s; an inference stage runs no "
                    f"backward pass (must be exactly 0)",
                )
        if plan.iteration_time <= 0.0:
            return  # not evaluated yet; nothing more to hold it to
        self._checked(3)
        if plan.diagnostics.allreduce_time != 0.0:
            self._fail(
                "inference",
                f"inference plan records a gradient allreduce phase of "
                f"{plan.diagnostics.allreduce_time:.6e}s (must be 0)",
            )
        if plan.diagnostics.optimizer_time != 0.0:
            self._fail(
                "inference",
                f"inference plan records an optimizer step of "
                f"{plan.diagnostics.optimizer_time:.6e}s (must be 0)",
            )
        err = _rel_err(plan.iteration_time, plan.diagnostics.pipeline_time)
        if err > SIM_REL_TOL:
            self._fail(
                "inference",
                f"inference iteration time {plan.iteration_time:.6e}s is "
                f"not the forward pipeline makespan "
                f"{plan.diagnostics.pipeline_time:.6e}s "
                f"(rel err {err:.2e} > {SIM_REL_TOL:.0e})",
            )


def check_plan(
    plan: PartitionPlan,
    graph: TaskGraph,
    cluster: Optional[ClusterSpec] = None,
    *,
    profiler: Optional[GraphProfiler] = None,
    optimizer: OptimizerKind = OptimizerKind.ADAM,
    expected_iteration_time: Optional[float] = None,
    memory_budget: Optional[float] = None,
) -> VerificationReport:
    """Check every plan invariant; returns a report, never raises.

    Args:
        plan: the plan to verify.
        graph: the traced model the plan claims to partition.
        cluster: target cluster (defaults to ``plan.cluster``).
        profiler: reuse an existing profiler for the re-derivation
            checks; one is built from ``plan.precision`` + ``optimizer``
            when omitted.  Must match the plan's precision.
        optimizer: optimizer whose state entered the memory estimate
            (the deployment JSON does not store it; defaults to Adam,
            the planner default).
        expected_iteration_time: the DP's ``estimated_iteration_time``
            for the differential check, when the caller has it (the
            planner's ``VerifyPass`` does; a cache load does not).
        memory_budget: the per-device memory cap of the run the plan
            serves (``PlannerConfig.memory_budget``); every stage's peak
            memory must fit it too.  ``None``: the devices' capacity
            only.
    """
    report = _Checker(
        plan,
        graph,
        cluster if cluster is not None else plan.cluster,
        profiler,
        optimizer,
        expected_iteration_time,
    ).run()
    if memory_budget is None:
        return report
    return check_budget(report, plan, memory_budget)


def check_budget(
    report: VerificationReport,
    plan: PartitionPlan,
    memory_budget: Optional[float],
) -> VerificationReport:
    """``report`` completed by the memory family's budget check, the one
    check that reads a run's memory budget: every stage's stored peak
    memory must fit ``memory_budget`` (``None``: no check).

    ``report`` is a :func:`check_plan` report of ``plan`` made without a
    budget, and the result equals :func:`check_plan` of the plan under
    ``memory_budget``: its violations, then this check's.  It is a new
    report and ``report`` stays as it is, so the artifact store can
    keep one budget-free report per plan layout and hold every run to
    its own budget (:meth:`~repro.planner.store.ArtifactStore.verify_layout`).
    """
    checked = _budget_checks(plan, memory_budget)
    violations = [
        Violation(
            "memory",
            f"stage {stage.index} stores peak memory "
            f"{stage.profile.memory / 2**30:.3f} GiB exceeding "
            f"the run's memory budget {memory_budget / 2**30:.3f} GiB",
        )
        for stage in plan.stages
        if checked and stage.profile.memory > memory_budget * (1.0 + MEM_REL_TOL)
    ]
    return VerificationReport(
        model_name=report.model_name,
        violations=[*report.violations, *violations],
        invariants_checked=report.invariants_checked + checked,
        stats=dict(report.stats),
    )


def without_budget(
    report: VerificationReport,
    plan: PartitionPlan,
    memory_budget: Optional[float],
) -> VerificationReport:
    """The budget-free report of a *passing* ``report``, made by
    :func:`check_plan` of ``plan`` under ``memory_budget``: what
    :func:`check_plan` reports without the budget, so that
    :func:`check_budget` of it under ``memory_budget`` gives ``report``
    back.  A failed report does not split (its violations may be the
    budget's): ``ValueError``."""
    if not report.ok:
        raise ValueError("only a passing report splits off its budget check")
    return VerificationReport(
        model_name=report.model_name,
        invariants_checked=(
            report.invariants_checked - _budget_checks(plan, memory_budget)
        ),
        stats=dict(report.stats),
    )


def _budget_checks(
    plan: PartitionPlan, memory_budget: Optional[float]
) -> int:
    """How many invariants the budget check counts: one per stage under
    a budget."""
    return len(plan.stages) if memory_budget is not None else 0


def verify_plan(
    plan: PartitionPlan,
    graph: TaskGraph,
    cluster: Optional[ClusterSpec] = None,
    *,
    profiler: Optional[GraphProfiler] = None,
    optimizer: OptimizerKind = OptimizerKind.ADAM,
    expected_iteration_time: Optional[float] = None,
    memory_budget: Optional[float] = None,
) -> VerificationReport:
    """:func:`check_plan`, raising :class:`PlanVerificationError` (with
    *all* violations) if any invariant failed."""
    report = check_plan(
        plan,
        graph,
        cluster,
        profiler=profiler,
        optimizer=optimizer,
        expected_iteration_time=expected_iteration_time,
        memory_budget=memory_budget,
    )
    report.raise_if_failed()
    return report
