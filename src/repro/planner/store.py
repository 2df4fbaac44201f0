"""Content-addressed artifact store for incremental replanning.

Every pass artifact (atomic partition, coarsened blocks, profile
tensors, DP solution, plan) becomes a first-class :class:`Artifact`:
addressed by ``(name, fingerprint)`` where the fingerprint is the
producing pass's *input* fingerprint (facet digests + required-artifact
fingerprints, see :mod:`repro.planner.facets`).  Since every pass is
deterministic, equal inputs imply an equal output, so the input
fingerprint doubles as the content address -- no output hashing needed.

Two backends:

* an in-memory LRU (optionally byte-budgeted) holding live payload
  objects, which makes same-process delta replans free, and
* an optional :class:`DiskBackend` that holds what a restarted process
  reads: the coarsened ``blocks`` and the ``evaluated`` plan (as its
  deployment JSON), each serialized by a codec under ``<cache
  root>/artifacts/``, with an LRU byte budget over all files under the
  cache root.  The ``components``, the ``dp_context`` and the
  ``search_result`` live in the memory tier only: a run that misses
  them recomputes them (the atomic partition, the profile tensors from
  the stored ``blocks``, the stage search) and in-process deltas reuse
  them from memory.

The ``evaluated`` entry is the store's whole-plan cache: the pass
manager probes it before running any pass (see
:mod:`repro.planner.manager`).  A finished plan has one form here, a
:class:`LayoutPlan`: the plan, fixed once built, its deployment JSON
and its one verification record.  Every ``evaluated`` entry holds one,
and entries and readers alike read its plan through views
(:meth:`~repro.partitioner.plan.PartitionPlan.view`), so nothing a run
or a caller stamps reaches it and no plan is copied.  A plan built in a
store-backed run is also addressed by its stage layout, which leaves
out the memory budget: a budget whose search returns a known layout
adds a view to the memory tier, and the plan is weighed once.

A served plan has passed :mod:`repro.verify` under the run's inputs,
by one rule for the probe, the plan service's event loop and the
verify pass (:meth:`ArtifactStore._verified`): the layout's record --
the budget-free report, keyed by exactly what those checks read -- is
reused when its key matches, else the plan is checked in full; either
way the run's own budget check runs.  The store also remembers which
graphs passed ``validate_graph``.  Every other payload is reused as it
stands; a ``dp_context`` is a content-addressed memo that each run
reads through its own :class:`~repro.partitioner.stage_dp.DPRun`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, is_dataclass, replace
from dataclasses import fields as dc_fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.planner.context import (
    BLOCKS,
    DP_CONTEXT,
    EVALUATED,
    PlanningContext,
)


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------
@dataclass
class Artifact:
    """One content-addressed planning artifact.

    Attributes:
        name: artifact kind (``blocks``, ``dp_context``, ...).
        fingerprint: the producing pass's input fingerprint; together
            with ``name`` this is the store address.
        payload: the live artifact object; for ``evaluated``, the
            entry's view of ``layout.plan``.
        nbytes: estimated in-memory size (LRU accounting).
        layout: ``evaluated`` entries only: the :class:`LayoutPlan` the
            entry holds; the first of its entries also carries its
            weight in ``nbytes``.
    """

    name: str
    fingerprint: str
    payload: Any = None
    nbytes: int = 0
    layout: Optional["LayoutPlan"] = None

    @property
    def key(self) -> str:
        return f"{self.name}:{self.fingerprint}"


@dataclass(frozen=True)
class VerificationRecord:
    """A pass of :mod:`repro.verify` on a stored plan, as its layout
    keeps it: the budget-free ``report``
    (:func:`~repro.verify.plan_checks.without_budget`) under the
    ``inputs`` those checks read -- graph fingerprint, cluster,
    precision, optimizer, mode, plan digest, ``VERIFIER_VERSION`` --
    and the ``expected`` iteration time of the differential check
    (``None``: not made)."""

    inputs: tuple
    expected: Optional[float]
    report: Any


@dataclass(eq=False)
class LayoutPlan:
    """A finished plan as the store holds it, shared by every
    ``evaluated`` entry and run of it.

    ``key`` digests the layout the stage search returned and everything
    else the evaluate pass reads but the memory budget
    (:meth:`~repro.planner.passes.EvaluatePass.layout_key`); a plan
    decoded from disk or seeded into a store has no key (nor ``timing``)
    and never enters the layout index.  The plan, its timing and its
    deployment JSON are fixed once built: readers take views
    (:meth:`~repro.partitioner.plan.PartitionPlan.view`).  ``verified``
    is the plan's one :class:`VerificationRecord`; once it is set, the
    layout index serves a keyed layout while an entry holds it.
    """

    key: Optional[str]
    plan: Any
    timing: Any
    document: str
    nbytes: int = 0
    verified: Optional[VerificationRecord] = None
    #: the memory-tier entries holding it, oldest first; the first one
    #: carries its weight (the store's lock guards this list)
    holders: List[Artifact] = field(default_factory=list)


def _estimate_nbytes(obj: Any, depth: int = 0) -> int:
    """Rough recursive in-memory size, for LRU accounting only."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, str)):
        return len(obj)
    if obj is None or isinstance(obj, (bool, int, float)):
        return 8
    if depth >= 4:
        return 64
    if isinstance(obj, dict):
        return 64 + sum(
            _estimate_nbytes(k, depth + 1) + _estimate_nbytes(v, depth + 1)
            for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 64 + sum(_estimate_nbytes(v, depth + 1) for v in obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return 64 + sum(
            _estimate_nbytes(getattr(obj, f.name), depth + 1)
            for f in dc_fields(obj)
        )
    return 256


# ----------------------------------------------------------------------
# disk backend
# ----------------------------------------------------------------------
class DiskBackend:
    """Byte-budgeted file store rooted at the planner cache directory.

    All artifact reads and writes go through here, and one LRU budget
    (least-recently-*used*, tracked via file mtimes: reads touch) bounds
    every file under the root, including files nothing reads any more,
    which therefore age out.  Writes are write-then-rename, so a crash
    or a concurrent planner never leaves a truncated file at a final
    path.

    Concurrency contract: safe for concurrent callers in one process
    (counters and budget enforcement are lock-guarded) *and* across
    processes sharing one cache root -- readers see either the old or
    the new bytes of an entry, never a mix, and a process killed
    mid-write leaves only an orphaned ``*.tmp`` that budget accounting
    and reads both ignore.  This is what lets the plan service
    (:mod:`repro.service`) recover with miss-then-repair semantics after
    a hard kill.
    """

    def __init__(
        self, root: Path, byte_budget: Optional[int] = None
    ) -> None:
        self.root = Path(root)
        self.byte_budget = byte_budget
        self._lock = threading.Lock()
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    def path(self, relpath: str) -> Path:
        return self.root / relpath

    # -- reads ----------------------------------------------------------
    def read_bytes(self, relpath: str) -> Optional[bytes]:
        path = self.path(relpath)
        try:
            data = path.read_bytes()
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        try:  # LRU recency: a read makes the entry young again
            os.utime(path)
        except OSError:
            pass
        return data

    # -- writes ---------------------------------------------------------
    def write_bytes(self, relpath: str, data: bytes) -> Path:
        path = self.path(relpath)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._enforce_budget(protect=path)
        return path

    # -- accounting -----------------------------------------------------
    def _entries(self):
        if not self.root.exists():
            return []
        out = []
        for path in self.root.rglob("*"):
            if not path.is_file() or path.suffix == ".tmp":
                continue
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((path, st.st_size, st.st_mtime))
        return out

    def bytes_used(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def _enforce_budget(self, protect: Optional[Path] = None) -> None:
        if self.byte_budget is None:
            return
        with self._lock:
            entries = self._entries()
            used = sum(size for _, size, _ in entries)
            if used <= self.byte_budget:
                return
            # oldest mtime first = least recently used first
            entries.sort(key=lambda e: e[2])
            for path, size, _ in entries:
                if used <= self.byte_budget:
                    break
                if protect is not None and path == protect:
                    continue  # never evict the entry being written
                try:
                    path.unlink()
                except OSError:
                    continue
                used -= size
                self.evictions += 1

    def stats(self) -> Dict[str, float]:
        return {
            "bytes": float(self.bytes_used()),
            "budget_bytes": (
                float(self.byte_budget) if self.byte_budget else 0.0
            ),
            "evictions": float(self.evictions),
            "hits": float(self.hits),
            "misses": float(self.misses),
        }


# ----------------------------------------------------------------------
# disk codecs
# ----------------------------------------------------------------------
class ArtifactCodec:
    """Serialize one artifact kind as JSON for the disk backend.
    Artifacts without a codec (the ``components``, the ``dp_context``
    and the ``search_result``) live in the memory backend only.

    ``decode`` reads input from outside the program: any exception it
    raises makes :meth:`ArtifactStore.get` report a miss."""

    def encode(self, payload: Any, ctx: PlanningContext) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes, ctx: PlanningContext) -> Any:
        raise NotImplementedError


class _BlocksCodec(ArtifactCodec):
    def encode(self, payload: Any, ctx: PlanningContext) -> bytes:
        doc = [
            [b.index, list(b.atomic_indices), list(b.tasks)] for b in payload
        ]
        return json.dumps(doc).encode()

    def decode(self, data: bytes, ctx: PlanningContext) -> Any:
        from repro.partitioner.blocks import Block

        return [
            Block(
                index=idx,
                atomic_indices=tuple(atoms),
                tasks=tuple(tasks),
            )
            for idx, atoms, tasks in json.loads(data.decode())
        ]


class _PlanCodec(ArtifactCodec):
    """The evaluated plan as its deployment JSON.

    Decoding re-evaluates the plan under the flush schedule and checks
    nothing else: a decoded plan carries no verification record, so the
    whole-plan probe holds it to the :mod:`repro.verify` invariants
    (:meth:`ArtifactStore.verified_plan`).
    """

    def encode(self, payload: Any, ctx: PlanningContext) -> bytes:
        from repro.partitioner.deployment import plan_to_json

        return plan_to_json(payload, ctx.graph).encode()

    def decode(self, data: bytes, ctx: PlanningContext) -> Any:
        from repro.partitioner.deployment import plan_from_json

        return plan_from_json(
            data.decode(),
            ctx.graph,
            ctx.cluster,
            verify=False,
        )


CODECS: Dict[str, ArtifactCodec] = {
    BLOCKS: _BlocksCodec(),
    EVALUATED: _PlanCodec(),
}


# ----------------------------------------------------------------------
# verifying stored plans
# ----------------------------------------------------------------------
def _plan_digest(plan: Any, document: str) -> str:
    """sha256 of everything :func:`~repro.verify.check_plan` reads off a
    plan: its deployment JSON plus what the JSON does not carry (the
    evaluated times, the device assignment and the cluster)."""
    diag = plan.diagnostics
    assignment = (
        sorted(plan.assignment.ranks.items())
        if plan.assignment is not None
        else None
    )
    rest = (
        plan.iteration_time,
        plan.throughput,
        diag.pipeline_time,
        diag.allreduce_time,
        diag.optimizer_time,
        diag.comm_model,
        assignment,
        plan.cluster,
    )
    digest = hashlib.sha256(document.encode())
    digest.update(repr(rest).encode())
    return digest.hexdigest()


def _views(plan: Any, layout: LayoutPlan) -> bool:
    """Whether ``plan`` is ``layout``'s plan but for its diagnostics, so
    the layout's deployment JSON is the plan's."""
    shared = layout.plan
    return replace(plan, diagnostics=shared.diagnostics) == shared


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
#: graph fingerprints an :class:`ArtifactStore` remembers as validated
VALIDATED_GRAPHS_MAX = 4096


class ArtifactStore:
    """Content-addressed artifact storage with an in-memory LRU front
    and an optional :class:`DiskBackend` behind it.

    ``get``/``put`` address artifacts by ``(name, fingerprint)``.  The
    memory tier holds live objects (``memory_budget_bytes`` caps the
    estimated footprint; least recently used artifacts are dropped
    first); the disk tier persists every artifact that has a codec, and
    a memory miss that hits disk re-materializes the payload and
    promotes it.

    Beside the artifacts the store remembers the graph fingerprints that
    passed ``validate_graph`` (at most :data:`VALIDATED_GRAPHS_MAX`,
    oldest dropped first).

    Concurrency contract: ``get``/``put``/``refresh``/``stats`` are
    linearizable (one internal RLock), so one store may back many
    concurrent planning runs -- the plan service shares a single store
    across all requests.  The lock covers the store's own state only
    and is never held across disk I/O, a codec or the weighing of a
    payload: a disk read and its decode, a ``put``'s encode and write,
    and the walk that sizes an entry (a whole ``dp_context`` memo on
    ``refresh``) run outside it, so a memory-tier lookup never waits on
    another request's I/O or on a large entry being weighed.
    Payloads handed out by ``get`` are shared as they stand: a stored
    plan is never changed (its readers take views), and a ``dp_context``
    only grows by idempotent memo fills, which concurrent runs may make
    at once (``refresh`` weighs it while they do).
    """

    def __init__(
        self,
        memory_budget_bytes: Optional[int] = None,
        disk: Optional[DiskBackend] = None,
    ) -> None:
        self.memory_budget_bytes = memory_budget_bytes
        self.disk = disk
        self._lock = threading.RLock()
        self._mem: "OrderedDict[str, Artifact]" = OrderedDict()
        self._mem_bytes = 0
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.memory_evictions = 0
        #: persists the disk backend refused (``OSError``: a full or
        #: read-only disk); the memory tier kept those entries
        self.write_errors = 0
        self._validated: "OrderedDict[str, None]" = OrderedDict()
        #: the layout index: verified layout plans an entry still holds
        self._layouts: Dict[str, LayoutPlan] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _relpath(name: str, fingerprint: str) -> str:
        return f"artifacts/{name}-{fingerprint}.json"

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._mem

    # ------------------------------------------------------------------
    def get(
        self,
        name: str,
        fingerprint: str,
        ctx: Optional[PlanningContext] = None,
    ) -> Optional[Artifact]:
        key = f"{name}:{fingerprint}"
        with self._lock:
            art = self._mem.get(key)
            if art is not None:
                self._mem.move_to_end(key)
                self.hits += 1
                return art
        # read and decode outside the lock: no lookup waits on this I/O
        payload = None
        codec = CODECS.get(name)
        if self.disk is not None and codec is not None and ctx is not None:
            data = self.disk.read_bytes(self._relpath(name, fingerprint))
            if data is not None:
                try:
                    payload = codec.decode(data, ctx)
                except Exception:  # noqa: BLE001 - see ArtifactCodec
                    # a stale or corrupt file is a miss; the run
                    # recomputes and overwrites it
                    payload = None
        if payload is None:
            with self._lock:
                self.misses += 1
            return None
        layout = None
        if name == EVALUATED:
            payload, nbytes, layout = self._evaluated(payload, None, ctx)
        else:
            nbytes = self._payload_nbytes(name, payload)
        with self._lock:
            art = self._mem.get(key)
            if art is None:
                art = self._insert(name, fingerprint, payload, nbytes, layout)
            else:
                # another run promoted the entry meanwhile: keep it and
                # its layout's verification record
                self._mem.move_to_end(key)
            self.hits += 1
            self.disk_hits += 1
            return art

    def put(
        self,
        name: str,
        fingerprint: str,
        payload: Any,
        ctx: Optional[PlanningContext] = None,
    ) -> Artifact:
        layout = None
        if name == EVALUATED:
            payload, nbytes, layout = self._evaluated(
                payload, ctx.layout, ctx
            )
        else:
            nbytes = self._payload_nbytes(name, payload)
        with self._lock:
            art = self._insert(name, fingerprint, payload, nbytes, layout)
        self._write_disk(art, ctx)
        return art

    @staticmethod
    def _evaluated(
        plan: Any, layout: Optional[LayoutPlan], ctx: PlanningContext
    ) -> Tuple[Any, int, LayoutPlan]:
        """``(payload, nbytes, layout)`` of an ``evaluated`` entry of
        ``plan``, the run's view of ``layout``: a view of its own,
        weighed without the shared plan (the layout's first entry
        carries it).  Any other plan -- decoded from disk, or seeded by
        a run without a store -- gets a layout of its own, with no key."""
        if layout is None or not _views(plan, layout):
            from repro.partitioner.deployment import plan_to_json

            layout = LayoutPlan(
                None, plan.view(), None, plan_to_json(plan, ctx.graph)
            )
        payload = plan.view()
        if not layout.nbytes:
            layout.nbytes = _estimate_nbytes(layout.plan) + len(
                layout.document
            )
        return payload, _estimate_nbytes(payload.diagnostics), layout

    def evict(self, name: str, fingerprint: str) -> None:
        """Drop an entry from the memory tier; a disk copy stays until a
        later ``put`` overwrites it."""
        with self._lock:
            art = self._mem.pop(f"{name}:{fingerprint}", None)
            if art is not None:
                self._drop(art)

    def layout_plan(self, key: str) -> Optional[LayoutPlan]:
        """The verified :class:`LayoutPlan` at ``key`` while a memory-tier
        entry holds it; ``None`` otherwise."""
        with self._lock:
            return self._layouts.get(key)

    def verified_plan(
        self, fingerprint: str, ctx: PlanningContext
    ) -> Optional[Tuple[Any, str, Any]]:
        """``(plan view, deployment JSON, report)`` of the ``evaluated``
        entry at ``fingerprint``, from either tier, once it has passed
        :mod:`repro.verify` under ``ctx`` (:meth:`_verified`); ``None``
        for a miss.  The pass manager's probe."""
        art = self.get(EVALUATED, fingerprint, ctx)
        if art is None:
            return None
        plan = art.payload.view()
        report, document = self._verified(
            fingerprint, art.layout, plan, ctx, metrics=ctx.metrics
        )
        if report is not None and not report.ok:
            return None
        return plan, document, report

    def recorded_plan(
        self, fingerprint: str, request: Any
    ) -> Optional[Tuple[Any, str, Any]]:
        """Like :meth:`verified_plan` for a plan ``request`` (its graph,
        cluster and config), but from the memory tier only and with no
        full check: ``None`` unless the layout's record serves the
        request, and then the lookup is not counted.  The plan service's
        event loop answers warm hits from it."""
        key = f"{EVALUATED}:{fingerprint}"
        with self._lock:
            art = self._mem.get(key)
        if art is None:
            return None
        plan = art.payload.view()
        report, document = self._verified(
            fingerprint, art.layout, plan, request, check=False
        )
        if report is None or not report.ok:
            return None
        with self._lock:
            if self._mem.get(key) is art:
                self._mem.move_to_end(key)
            self.hits += 1
        return plan, document, report

    def verify_layout(
        self,
        fingerprint: str,
        plan: Any,
        ctx: PlanningContext,
        expected_iteration_time: Optional[float],
    ) -> Tuple[Any, str]:
        """``(report, deployment JSON)`` of ``plan``, the run's view of
        ``ctx.layout``, stored as the ``evaluated`` entry at
        ``fingerprint`` (:meth:`_verified`): the verify pass's check of a
        fresh plan in a store-backed run."""
        return self._verified(
            fingerprint, ctx.layout, plan, ctx, expected_iteration_time
        )

    def _verified(
        self,
        fingerprint: str,
        layout: LayoutPlan,
        plan: Any,
        request: Any,
        expected: Optional[float] = None,
        check: bool = True,
        metrics: Any = None,
    ) -> Tuple[Optional[Any], str]:
        """``(report, deployment JSON)`` of ``plan``, a view of
        ``layout.plan`` (unless changed since) that the ``evaluated``
        entry at ``fingerprint`` serves to ``request`` (a planning
        context or plan request): the one rule for serving a stored plan.

        The layout's record is reused when its inputs are this lookup's,
        the plan digest (:func:`_plan_digest`) taken afresh, and its
        expected iteration time is ``expected`` (a lookup with none, a
        stored plan's, takes any); ``metrics`` counts that as a
        ``verify.memo_hits``.  Otherwise, with ``check``, the plan is
        checked in full and a pass is recorded; without it the report is
        ``None``.  Every report is held to ``request``'s budget
        (:func:`~repro.verify.check_budget`), and a failure evicts the
        entry.  With ``config.verify`` off the report is ``None``.
        """
        from repro.partitioner.deployment import (
            graph_fingerprint,
            plan_to_json,
        )
        from repro.verify import plan_checks

        graph, config = request.graph, request.config
        document = (
            layout.document
            if _views(plan, layout)
            else plan_to_json(plan, graph)
        )
        if not config.verify:
            return None, document
        inputs = (
            graph_fingerprint(graph),
            request.cluster,
            config.precision,
            config.optimizer,
            config.mode,
            _plan_digest(plan, document),
            plan_checks.VERIFIER_VERSION,
        )
        record = layout.verified
        if (
            record is not None
            and record.inputs == inputs
            and expected in (None, record.expected)
        ):
            if metrics is not None:
                metrics.counter("verify.memo_hits").inc()
            report = plan_checks.check_budget(
                record.report, plan, config.memory_budget
            )
        elif not check:
            return None, document
        else:
            report = request.check_plan(plan, expected)
            if report.ok:
                record = VerificationRecord(
                    inputs,
                    expected,
                    plan_checks.without_budget(
                        report, plan, config.memory_budget
                    ),
                )
        if not report.ok:
            self.evict(EVALUATED, fingerprint)
        elif check:
            with self._lock:
                layout.verified = record
                if layout.key is not None and layout.holders:
                    self._layouts.setdefault(layout.key, layout)
        return report, document

    def graph_validated(self, graph_fp: str) -> bool:
        """Whether ``validate_graph`` passed on a graph with this
        fingerprint through this store."""
        with self._lock:
            return graph_fp in self._validated

    def mark_graph_validated(self, graph_fp: str) -> None:
        with self._lock:
            self._validated[graph_fp] = None
            self._validated.move_to_end(graph_fp)
            if len(self._validated) > VALIDATED_GRAPHS_MAX:
                self._validated.popitem(last=False)

    def refresh(
        self, name: str, fingerprint: str, ctx: PlanningContext
    ) -> None:
        """Re-weigh a (mutable) artifact's memory-tier entry.

        The ``dp_context`` payload grows *after* its producing pass
        finishes (the stage search fills the per-batch time prefixes and
        the profile bands), so the manager refreshes it once the run is
        over: the tier's byte count follows the entry, and the budget
        then evicts older entries (never this one).
        """
        key = f"{name}:{fingerprint}"
        with self._lock:
            art = self._mem.get(key)
        if art is None:
            return
        nbytes = self._payload_nbytes(name, art.payload)
        with self._lock:
            if self._mem.get(key) is art:
                self._mem_bytes += nbytes - art.nbytes
                art.nbytes = nbytes
                self._evict_over_budget(keep=key)

    # ------------------------------------------------------------------
    @staticmethod
    def _payload_nbytes(name: str, payload: Any) -> int:
        if name == DP_CONTEXT:
            return payload.nbytes()
        return _estimate_nbytes(payload)

    def _insert(
        self,
        name: str,
        fingerprint: str,
        payload: Any,
        nbytes: int,
        layout: Optional[LayoutPlan] = None,
    ) -> Artifact:
        key = f"{name}:{fingerprint}"
        old = self._mem.pop(key, None)
        if old is not None:
            self._drop(old)
        art = Artifact(name, fingerprint, payload, nbytes, layout)
        if layout is not None:
            if not layout.holders:
                art.nbytes += layout.nbytes
            layout.holders.append(art)
        self._mem[key] = art
        self._mem_bytes += art.nbytes
        self._evict_over_budget(keep=key)
        return art

    def _drop(self, art: Artifact) -> None:
        """Account for ``art``, just popped from the memory tier.  The
        weight of a layout it carried passes to the layout's next entry;
        a layout no entry holds leaves the layout index."""
        self._mem_bytes -= art.nbytes
        layout = art.layout
        if layout is None:
            return
        holders = layout.holders
        index = next(i for i, held in enumerate(holders) if held is art)
        del holders[index]
        if not holders:
            if self._layouts.get(layout.key) is layout:
                del self._layouts[layout.key]
        elif index == 0:
            holders[0].nbytes += layout.nbytes
            self._mem_bytes += layout.nbytes

    def _evict_over_budget(self, keep: str) -> None:
        """Drop least recently used entries until the memory tier fits
        ``memory_budget_bytes``, sparing ``keep`` (the entry just stored
        or re-weighed), which may exceed the budget on its own."""
        budget = self.memory_budget_bytes
        if budget is None or self._mem_bytes <= budget:
            return
        for key in list(self._mem):
            if key != keep:
                self._drop(self._mem.pop(key))
                self.memory_evictions += 1
                if self._mem_bytes <= budget:
                    return

    def _write_disk(
        self, art: Artifact, ctx: Optional[PlanningContext]
    ) -> None:
        """Persist ``art`` through its codec.  Runs outside the store
        lock: the payload is never mutated once stored, and the write is
        atomic, so a concurrent ``put`` of the same address (the same
        bytes) or ``get`` sees one whole file."""
        codec = CODECS.get(art.name)
        if self.disk is None or codec is None or ctx is None:
            return
        try:
            # an ``evaluated`` entry writes its layout's JSON as it stands
            data = (
                art.layout.document.encode()
                if art.layout is not None
                else codec.encode(art.payload, ctx)
            )
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return
        try:
            self.disk.write_bytes(
                self._relpath(art.name, art.fingerprint), data
            )
        except OSError:
            # the artifact is already computed and held in memory; only
            # persisting it failed, which must not fail the run
            with self._lock:
                self.write_errors += 1

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """The store's own counters; reads no file (the pass manager
        copies them into ``planner.store.*`` gauges on every run)."""
        with self._lock:
            return {
                "entries": float(len(self._mem)),
                "memory_bytes": float(self._mem_bytes),
                "hits": float(self.hits),
                "misses": float(self.misses),
                "disk_hits": float(self.disk_hits),
                "memory_evictions": float(self.memory_evictions),
                "write_errors": float(self.write_errors),
            }

    def stats(self) -> Dict[str, float]:
        """:meth:`counters` plus the disk backend's footprint, which
        walks every file under the cache root."""
        doc = self.counters()
        if self.disk is not None:
            # "backend_" prefix: "disk_hits" above counts decoded
            # artifact promotions, the backend's "hits" counts raw reads
            for k, v in self.disk.stats().items():
                doc[f"backend_{k}"] = v
        return doc
