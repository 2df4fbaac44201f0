"""The pass abstraction and the manager that runs a pipeline of passes.

Every pass declares the artifacts it ``requires`` and ``produces``; the
manager checks both around each pass, so a mis-assembled pipeline fails
with "pass X requires artifact Y" instead of an attribute error three
layers deep, and a crashing pass is reported by name with the artifacts
that existed at the time.

Passes additionally declare the input *facets* they read (see
:mod:`repro.planner.facets`).  When the context carries an
:class:`~repro.planner.store.ArtifactStore`, the manager chains every
cacheable pass's input fingerprint (facet digests + the fingerprints of
its required artifacts) before running any pass.  It first probes the
store for the finished ``evaluated`` plan: a hit that has passed
:mod:`repro.verify` under the run's inputs (checked once per plan and
held to the run's budget, see
:meth:`~repro.planner.store.ArtifactStore.verified_plan`) installs a
view of it and skips every ``skip_when_planned`` pass, reading one
entry and no intermediate artifact; a hit that fails the check is
evicted and counts as a miss.  Otherwise, a store hit on every
artifact a pass produces skips that pass and installs the stored
payloads instead, so a delta replan reruns only the invalidated
suffix of the pipeline.  Reuse is
observable: each skipped pass records a ``planner.reuse.<pass>`` span
(``planner.reuse.plan`` for a whole-plan hit) and the run ends with
``planner.reuse.*`` gauges.  Without a store the manager does no
fingerprinting and no extra I/O.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.rss import peak_rss_bytes
from repro.obs.tracer import NULL_TRACER
from repro.planner.context import EVALUATED, PlanningContext
from repro.planner.events import FAILED, OK, SKIPPED
from repro.planner.facets import fingerprint_chain, plan_address


class PartitioningError(RuntimeError):
    """Raised when no feasible partition exists (the model cannot be
    trained on the given cluster at the given batch size)."""


class PassError(RuntimeError):
    """A planner pass failed or the pipeline is mis-assembled."""

    def __init__(self, pass_name: str, message: str) -> None:
        super().__init__(f"planner pass {pass_name!r}: {message}")
        self.pass_name = pass_name


class PlannerPass:
    """Base class of all planner passes.

    Subclasses set :attr:`name`, :attr:`requires` and :attr:`produces`
    and implement :meth:`run`, returning an optional detail dict that is
    attached to the pass's event.  Passes whose work is superseded by a
    stored finished plan set :attr:`skip_when_planned` so the manager can
    short-circuit them.
    """

    name: str = "pass"
    requires: Tuple[str, ...] = ()
    produces: Tuple[str, ...] = ()
    #: skip this pass when the store serves the finished plan
    skip_when_planned: bool = False
    #: input facets (beyond ``requires``) this pass reads; the basis of
    #: its input fingerprint under store-backed incremental replanning
    facets: Tuple[str, ...] = ()
    #: whether the pass's artifacts may be reused from / stored into an
    #: ArtifactStore.  False for passes with side effects or checks that
    #: must re-run on every plan (validate, verify).
    cacheable: bool = False

    def should_skip(self, ctx: PlanningContext) -> Optional[str]:
        """A human-readable skip reason, or ``None`` to run the pass."""
        if self.produces and all(ctx.has(a) for a in self.produces):
            return "artifacts already present"
        return None

    def run(self, ctx: PlanningContext) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class PassManager:
    """Runs a pass list over one context, enforcing artifact invariants
    and recording a timed event per pass."""

    def __init__(self, passes: Sequence[PlannerPass]) -> None:
        self.passes: List[PlannerPass] = list(passes)
        names = [p.name for p in self.passes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pass names in pipeline: {names}")

    def run(self, ctx: PlanningContext) -> PlanningContext:
        """Execute all passes in order; returns the (mutated) context."""
        store = ctx.store
        fps: Dict[str, str] = {}
        probed: Optional[PlannerPass] = None
        planned = False
        # the manager's own work between passes (fingerprints and probe,
        # store writes, the closing bookkeeping) is traced in
        # store-backed runs, which do it
        tracer = ctx.tracer if store is not None else NULL_TRACER
        if store is not None:
            with tracer.span("planner.probe", category="planner") as span:
                fps = fingerprint_chain(
                    self.passes,
                    ctx.facets(),
                    ctx.artifact_fps,
                    # a pre-supplied artifact is skipped, not produced:
                    # it has no content address to chain through
                    feeds=lambda p: not all(ctx.has(a) for a in p.produces),
                )
                probed, planned = self._probe_plan(ctx, store, fps)
                span.set(hit=planned)
        reused_passes = 0
        artifacts_loaded = int(planned)
        store_misses = int(probed is not None and not planned)
        for p in self.passes:
            fp = fps.get(p.name)
            if planned and p.skip_when_planned:
                reused_passes += 1
                ctx.events.record(
                    p.name,
                    SKIPPED,
                    0.0,
                    {
                        "reason": "plan reused from store",
                        "reuse": True,
                        "fingerprint": fp,
                    },
                )
                continue
            reason = p.should_skip(ctx)
            if reason is not None:
                ctx.events.record(p.name, SKIPPED, 0.0, {"reason": reason})
                continue
            if fp is not None and p is not probed:
                reuse_start = time.perf_counter()
                arts = []
                for artifact in p.produces:
                    art = store.get(artifact, fp, ctx)
                    if art is None:
                        store_misses += 1
                        break
                    arts.append(art)
                if len(arts) == len(p.produces):
                    for artifact, art in zip(p.produces, arts):
                        ctx.put(artifact, art.payload)
                        ctx.artifact_fps[artifact] = fp
                    reused_passes += 1
                    artifacts_loaded += len(arts)
                    ctx.tracer.add_span(
                        f"planner.reuse.{p.name}",
                        category="planner.reuse",
                        duration=time.perf_counter() - reuse_start,
                        attrs={
                            "fingerprint": fp,
                            "artifacts": ",".join(p.produces),
                        },
                    )
                    ctx.events.record(
                        p.name,
                        SKIPPED,
                        0.0,
                        {
                            "reason": "artifacts reused from store",
                            "reuse": True,
                            "fingerprint": fp,
                        },
                    )
                    continue
            for artifact in p.requires:
                if not ctx.has(artifact):
                    raise PassError(
                        p.name,
                        f"requires artifact {artifact!r}, but none of the "
                        f"earlier passes produced it (pipeline: "
                        f"{[q.name for q in self.passes]}, available: "
                        f"{sorted(ctx.artifacts)})",
                    )
            start = time.perf_counter()
            rss_before = peak_rss_bytes()
            try:
                detail = p.run(ctx) or {}
            except Exception as exc:
                ctx.events.record(
                    p.name,
                    FAILED,
                    time.perf_counter() - start,
                    {"error": str(exc)},
                    start=start,
                )
                if isinstance(exc, (PartitioningError, ValueError, KeyError)):
                    raise  # domain errors keep their type for callers
                raise PassError(p.name, str(exc)) from exc
            elapsed = time.perf_counter() - start
            if rss_before is not None:
                rss_after = peak_rss_bytes()
                if rss_after is not None and rss_after > rss_before:
                    # how much this pass raised the process's resident
                    # high-water mark (0 deltas are omitted as noise)
                    detail["peak_rss_delta"] = rss_after - rss_before
            for artifact in p.produces:
                if not ctx.has(artifact):
                    raise PassError(
                        p.name,
                        f"declared artifact {artifact!r} but did not "
                        f"produce it",
                    )
            ctx.events.record(p.name, OK, elapsed, detail, start=start)
            if fp is not None:
                with tracer.span(
                    "planner.put", category="planner", **{"pass": p.name}
                ):
                    for artifact in p.produces:
                        store.put(artifact, fp, ctx.get(artifact), ctx)
                        ctx.artifact_fps[artifact] = fp
        with tracer.span("planner.finish", category="planner"):
            if store is not None:
                self._finish_store_run(
                    ctx, store, reused_passes, artifacts_loaded, store_misses
                )
            rss = peak_rss_bytes()
            if rss is not None:
                ctx.metrics.gauge("planner.peak_rss_bytes").set(float(rss))
            self._stamp_diagnostics(ctx)
        return ctx

    def _probe_plan(
        self,
        ctx: PlanningContext,
        store,
        fps: Dict[str, str],
    ) -> Tuple[Optional[PlannerPass], bool]:
        """Look up the finished plan before any pass runs.

        Returns ``(probed pass, hit)``: the pass producing ``evaluated``
        whose store entry was looked up (``None`` when the pipeline has
        no fingerprinted one), and whether it hit.  A hit installs the
        plan as ``evaluated``, its deployment JSON as
        ``ctx.plan_document`` and its verification report as
        ``ctx.plan_report`` (the verify pass reports it).  It reads the
        one plan entry and no intermediate artifact.  An entry that
        fails verification is evicted and reported as a miss, so the
        run replans it.
        """
        address = plan_address(self.passes, fps)
        if address is None or ctx.has(EVALUATED):
            return None, False
        probe, fp = address
        start = time.perf_counter()
        served = store.verified_plan(fp, ctx)
        if served is None:
            return probe, False
        plan, ctx.plan_document, ctx.plan_report = served
        plan.diagnostics.cache_hit = True
        ctx.put(EVALUATED, plan)
        ctx.artifact_fps[EVALUATED] = fp
        ctx.tracer.add_span(
            "planner.reuse.plan",
            category="planner.reuse",
            duration=time.perf_counter() - start,
            attrs={"fingerprint": fp, "artifacts": EVALUATED},
        )
        return probe, True

    @staticmethod
    def _finish_store_run(
        ctx: PlanningContext,
        store,
        reused_passes: int,
        artifacts_loaded: int,
        store_misses: int,
    ) -> None:
        """Re-weigh accumulating artifacts and record the reuse gauges."""
        from repro.planner.context import DP_CONTEXT

        # the DP context keeps growing during the stage search; re-weigh
        # its memory-tier entry at the post-search size
        fp = ctx.artifact_fps.get(DP_CONTEXT)
        if fp is not None and ctx.has(DP_CONTEXT):
            store.refresh(DP_CONTEXT, fp, ctx)
        metrics = ctx.metrics
        metrics.gauge("planner.reuse.passes_skipped").set(reused_passes)
        metrics.gauge("planner.reuse.artifacts_loaded").set(artifacts_loaded)
        metrics.gauge("planner.reuse.store_hits").set(artifacts_loaded)
        metrics.gauge("planner.reuse.store_misses").set(store_misses)
        for stat, value in store.counters().items():
            metrics.gauge(f"planner.store.{stat}").set(value)

    @staticmethod
    def _stamp_diagnostics(ctx: PlanningContext) -> None:
        """Copy the event log's timings onto the final plan (if any)."""
        plan = ctx.get(EVALUATED)
        if plan is None:
            return
        plan.diagnostics.pass_timings.update(ctx.events.timings())
        if ctx.profiler is not None:
            stats = ctx.profiler.stats()
            plan.diagnostics.profiler_memo_hit_rate = stats["memo_hit_rate"]
            plan.diagnostics.profiler_stats = {
                k: float(v) for k, v in stats.items()
            }
