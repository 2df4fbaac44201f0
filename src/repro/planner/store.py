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
:mod:`repro.planner.manager`).  A served plan must have passed
:mod:`repro.verify` under the run's inputs, and the check runs once per
content address: the verify pass of the run that stored a plan records
its pass on the memory-tier entry
(:meth:`ArtifactStore.verify_layout`), and an entry without a
matching record (one promoted from disk) is checked at the probe
(:meth:`ArtifactStore.verified_plan`).  So a repeated hit costs a
fingerprint, one probe, a copy and an encode (the plan service answers
it without the copy through :meth:`ArtifactStore.recorded_plan`, see
:mod:`repro.service.engine`).  The store also
remembers which graphs passed ``validate_graph``.

Beside the input addresses, the memory tier gives each finished plan a
second, value-based one: the digest of its stage layout and of what the
evaluate pass reads besides it, which leaves out the memory budget
(:class:`LayoutPlan`).  Every ``evaluated`` entry of one layout is an
alias of that one payload -- a view with diagnostics of its own -- so a
budget whose search returns a known layout adds a view to the tier, not
a copy, and the payload is weighed once.  Its verification is split the
same way: the budget-free report is recorded per layout, and every run
is held to its own budget (:meth:`ArtifactStore.verify_layout`).

Reusing a loaded plan needs one run-specific fix-up: it is deep-copied
so later mutation cannot leak between runs (:func:`materialize_for_reuse`;
the copy shares the frozen stages and copies only their containers).
Every other payload is reused as it stands; a ``dp_context`` is a
content-addressed memo that each run reads through its own
:class:`~repro.partitioner.stage_dp.DPRun`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, is_dataclass, fields as dc_fields
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
        payload: the live artifact object.
        nbytes: estimated in-memory size (LRU accounting).
        verified: ``evaluated`` entries only: ``(key, report)`` of the
            last :mod:`repro.verify` pass of the payload, keyed by
            ``(fingerprint, plan digest, VERIFIER_VERSION)`` (recorded
            by the verify pass of the run that stored it, or by
            :meth:`ArtifactStore.verified_plan`).  In process only: it is
            never persisted and goes when the entry is evicted.
    """

    name: str
    fingerprint: str
    payload: Any = None
    nbytes: int = 0
    verified: Optional[Tuple[Tuple[str, str, int], Any]] = None
    #: ``evaluated`` aliases only: the layout plan ``payload`` is a view
    #: of; the first of its entries also carries its weight in ``nbytes``
    layout: Optional["LayoutPlan"] = None

    @property
    def key(self) -> str:
        return f"{self.name}:{self.fingerprint}"


@dataclass(eq=False)
class LayoutPlan:
    """The finished plan of one stage layout, shared by every
    ``evaluated`` entry (alias) and run of that layout.

    ``key`` digests the layout the stage search returned and everything
    else the evaluate pass reads, and nothing that reads the memory
    budget (:meth:`~repro.planner.passes.EvaluatePass.layout_key`), so
    two budgets whose searches return the same layout share it.  The
    plan, its flush timing and its deployment JSON are fixed once
    built: runs and entries read the plan through
    :meth:`~repro.partitioner.plan.PartitionPlan.view` and never change
    it.  ``verified`` is ``(check key, budget-free report)`` once the
    plan has passed every check that does not read the budget (see
    :meth:`ArtifactStore.verify_layout`); from then on the store's layout
    index serves it while an entry holds it.
    """

    key: str
    plan: Any
    timing: Any
    document: str
    nbytes: int = 0
    verified: Optional[Tuple[tuple, Any]] = None
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
    """Whether ``plan`` is ``layout``'s plan but for its diagnostics: a
    view of it that shares its stages and agrees on every other field,
    so the layout's deployment JSON is the plan's."""
    shared = layout.plan
    if len(plan.stages) != len(shared.stages) or any(
        mine is not theirs for mine, theirs in zip(plan.stages, shared.stages)
    ):
        return False
    return all(
        getattr(plan, f.name) == getattr(shared, f.name)
        for f in dc_fields(plan)
        if f.name not in ("stages", "diagnostics")
    )


# ----------------------------------------------------------------------
# reuse fix-up
# ----------------------------------------------------------------------
def materialize_for_reuse(
    name: str, payload: Any, ctx: PlanningContext
) -> Any:
    """Prepare a stored payload for use in a new planning run."""
    if name == EVALUATED:
        # plans are mutated downstream (diagnostics stamping, callers);
        # isolate each run with a copy
        return copy.deepcopy(payload)
    return payload


def _record_key(
    fingerprint: str, plan: Any, graph: Any
) -> Tuple[str, Tuple[str, str, int]]:
    """``(deployment JSON, record key)`` of a plan stored at
    ``fingerprint``: the key ``(fingerprint, plan digest,
    VERIFIER_VERSION)`` its verification is recorded under."""
    from repro.partitioner.deployment import plan_to_json
    from repro.verify import plan_checks

    document = plan_to_json(plan, graph)
    key = (
        fingerprint,
        _plan_digest(plan, document),
        plan_checks.VERIFIER_VERSION,
    )
    return document, key


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

    The memory tier never aliases a caller's plan: an ``evaluated``
    payload is copied on ``put`` (and again on reuse), unless it is the
    run's view of its :class:`LayoutPlan`, which the entry then holds as
    an alias (a view of its own).
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
    Payloads handed out by ``get`` are shared as they stand: plans are
    copied on reuse, and a ``dp_context`` only grows by idempotent memo
    fills, which concurrent runs may make at once (``refresh`` weighs it
    while they do).
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
        nbytes = self._payload_nbytes(name, payload)
        with self._lock:
            art = self._mem.get(key)
            if art is None:
                art = self._insert(name, fingerprint, payload, nbytes)
            else:
                # another run promoted the entry meanwhile: keep it and
                # its verification record
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
        if name == EVALUATED and ctx is not None:
            layout = ctx.layout
        if layout is None or not _views(payload, layout):
            layout = None
            if name == EVALUATED:
                # the run keeps mutating its plan (diagnostics stamping,
                # the caller); the entry must not see that
                payload = copy.deepcopy(payload)
            nbytes = self._payload_nbytes(name, payload)
        else:
            # an alias of the run's layout plan: a view of its own (the
            # diagnostics as stamped so far), weighed without the shared
            # plan, which the layout's first entry carries
            payload = payload.view()
            nbytes = _estimate_nbytes(payload.diagnostics)
            if not layout.nbytes:
                layout.nbytes = _estimate_nbytes(layout.plan) + len(
                    layout.document
                )
        with self._lock:
            art = self._insert(name, fingerprint, payload, nbytes, layout)
        self._write_disk(art, ctx)
        return art

    def evict(self, name: str, fingerprint: str) -> None:
        """Drop an entry (and its verification record) from the memory
        tier; a disk copy stays until a later ``put`` overwrites it."""
        with self._lock:
            art = self._mem.pop(f"{name}:{fingerprint}", None)
            if art is not None:
                self._drop(art)

    def verified_plan(
        self, fingerprint: str, ctx: PlanningContext
    ) -> Optional[Tuple[Any, str, Any]]:
        """``(plan, deployment JSON, verification report)`` of the stored
        ``evaluated`` entry at ``fingerprint`` once it has passed
        :mod:`repro.verify`; ``None`` for a miss.  The pass manager's
        probe: the entry may come from either tier and the run gets its
        own copy of the plan.

        A pass is recorded on the entry under ``(fingerprint, plan
        digest, VERIFIER_VERSION)``: the fingerprint pins every input the
        check reads besides the plan (graph, cluster, precision,
        optimizer, mode), the digest pins the plan itself
        (:func:`_plan_digest`, taken afresh on every hit), and the
        version pins the invariant set.  The verify pass of the run that
        stored a plan records its check
        (:meth:`verify_layout`), so a hit whose key matches the
        record reuses its report.  Any other hit (an entry promoted from
        disk, one stored without a check, or one changed since) is
        checked in place: a pass is recorded, a failure evicts the entry
        and is a miss.  With ``config.verify`` off nothing is checked or
        recorded and the report is ``None``.
        """
        from repro.partitioner.deployment import plan_to_json

        art = self.get(EVALUATED, fingerprint, ctx)
        if art is None:
            return None
        plan = materialize_for_reuse(EVALUATED, art.payload, ctx)
        if not ctx.config.verify:
            return plan, plan_to_json(plan, ctx.graph), None
        checked = self._verify_entry(art, plan, ctx)
        if checked is None:
            return None
        document, report = checked
        return plan, document, report

    def _verify_entry(
        self, art: Artifact, plan: Any, ctx: PlanningContext
    ) -> Optional[Tuple[str, Any]]:
        """``(deployment JSON, report)`` of ``plan``, a copy of the
        payload of the ``evaluated`` entry ``art``, once it has passed
        :mod:`repro.verify`; ``None`` once it failed, which evicts
        ``art``.  A record whose key matches is reused, and otherwise the
        plan is checked here; a pass is recorded on ``art``."""
        document, key = _record_key(art.fingerprint, plan, ctx.graph)
        record = art.verified
        if record is not None and record[0] == key:
            ctx.metrics.counter("verify.memo_hits").inc()
            return document, record[1]
        report = ctx.check_plan(plan)
        if not report.ok:
            self.evict(EVALUATED, art.fingerprint)
            return None
        art.verified = (key, report)
        return document, report

    def layout_plan(self, key: str) -> Optional[LayoutPlan]:
        """The verified :class:`LayoutPlan` at ``key`` while a memory-tier
        entry holds it; ``None`` otherwise."""
        with self._lock:
            return self._layouts.get(key)

    def verify_layout(
        self,
        fingerprint: str,
        plan: Any,
        ctx: PlanningContext,
        expected_iteration_time: Optional[float],
    ) -> Tuple[Any, str]:
        """``(report, deployment JSON)`` of ``plan``, the run's view of
        its layout plan ``ctx.layout``, which the run stored as the
        ``evaluated`` entry at ``fingerprint``.  The verify pass's check
        of a fresh plan in a store-backed run.

        Only the memory family's budget check reads the memory budget.
        Everything else :func:`~repro.verify.check_plan` reports -- the
        budget-free report -- is recorded on the layout under the key
        of exactly what those checks read: the graph fingerprint, the
        cluster, precision, optimizer and mode, the plan's digest
        (:func:`_plan_digest`, taken afresh), the expected iteration
        time and ``VERIFIER_VERSION``.  A run whose key matches the
        record reuses that report and holds the plan to its own budget
        (:func:`~repro.verify.check_budget`); any other run checks the
        plan in full, under its budget, and a pass splits off the
        budget-free report (:func:`~repro.verify.plan_checks.without_budget`).

        A pass is recorded on the entry at ``fingerprint`` (under the
        key :meth:`verified_plan` reads) and the first passing
        budget-free report on the layout, which enters the layout index
        while an entry holds it.  A failure evicts the entry.
        """
        from repro.partitioner.deployment import (
            graph_fingerprint,
            plan_to_json,
        )
        from repro.verify import plan_checks

        layout = ctx.layout
        config = ctx.config
        document = (
            layout.document
            if _views(plan, layout)
            else plan_to_json(plan, ctx.graph)
        )
        digest = _plan_digest(plan, document)
        check_key = (
            graph_fingerprint(ctx.graph),
            ctx.cluster,
            config.precision,
            config.optimizer,
            config.mode,
            digest,
            expected_iteration_time,
            plan_checks.VERIFIER_VERSION,
        )
        record = layout.verified
        if record is not None and record[0] == check_key:
            report = plan_checks.check_budget(
                record[1], plan, config.memory_budget
            )
        else:
            report = ctx.check_plan(plan, expected_iteration_time)
            if report.ok and record is None:
                record = (
                    check_key,
                    plan_checks.without_budget(
                        report, plan, config.memory_budget
                    ),
                )
        key = f"{EVALUATED}:{fingerprint}"
        with self._lock:
            if record is not None and layout.verified is None:
                layout.verified = record
            art = self._mem.get(key)
            if not report.ok:
                if art is not None:
                    self._drop(self._mem.pop(key))
            elif art is not None and art.layout is layout:
                art.verified = (
                    (fingerprint, digest, plan_checks.VERIFIER_VERSION),
                    report,
                )
            if layout.verified is not None and layout.holders:
                self._layouts.setdefault(layout.key, layout)
        return report, document

    def recorded_plan(
        self, fingerprint: str, graph: Any
    ) -> Optional[Tuple[Any, str, Any]]:
        """``(plan, deployment JSON, verification report)`` of the
        ``evaluated`` entry at ``fingerprint`` when the memory tier holds
        it and its verification record matches its per-hit digest (see
        :meth:`verified_plan`); ``None`` otherwise.  Nothing is read
        from disk, decoded, copied or checked: the plan is the stored
        one as it stands (read it, never change it).  The plan
        service's event loop answers warm hits from it."""
        with self._lock:
            art = self._mem.get(f"{EVALUATED}:{fingerprint}")
            if art is None or art.verified is None:
                return None
            self._mem.move_to_end(art.key)
            self.hits += 1
        record = art.verified
        document, key = _record_key(fingerprint, art.payload, graph)
        if record[0] != key:
            return None
        return art.payload, document, record[1]

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
        art = Artifact(
            name=name,
            fingerprint=fingerprint,
            payload=payload,
            nbytes=nbytes,
            layout=layout,
        )
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
            # an alias writes its layout's deployment JSON as it stands
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
