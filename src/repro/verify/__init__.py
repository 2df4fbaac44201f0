"""Plan-integrity verification (static invariants + differential checks).

``verify_plan(plan, graph, cluster)`` re-derives everything a
:class:`~repro.partitioner.plan.PartitionPlan` asserts about itself --
task coverage, stage topology, device budgets, microbatch divisibility,
per-stage memory, and the simulated iteration time -- and raises a
:class:`PlanVerificationError` listing *all* failed invariants.  The
planner runs it as a ``VerifyPass`` after evaluation (``PlannerConfig.
verify`` disables it), plans served from the artifact store are held to
the same bar (once per content address and ``VERIFIER_VERSION``), and
``repro verify <plan.json>`` exposes it on the CLI.

The randomized differential harness lives in
:mod:`repro.verify.harness` (imported explicitly to keep this package
import-light; it pulls in the full planner).
"""

from repro.verify.plan_checks import (
    MEM_REL_TOL,
    SIM_REL_TOL,
    TIME_REL_TOL,
    VERIFIER_VERSION,
    PlanVerificationError,
    VerificationReport,
    Violation,
    check_budget,
    check_plan,
    verify_plan,
)

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
]
