"""Thread-pool hammer tests for the shared artifact store.

The plan service points many worker threads at one
:class:`ArtifactStore` and one byte-budgeted :class:`DiskBackend`
(docs/SERVICE.md, "Concurrency"), so these tests drive both with real
thread pools and check the documented contract: linearizable
``get``/``put``/``refresh``/``stats``, LRU accounting that never goes
negative or over budget, and disk reads that see whole entries even
while writers and the budget enforcer are running.
"""

import concurrent.futures
import json
import threading

from repro.planner import DP_CONTEXT, ArtifactStore, DiskBackend

THREADS = 8
OPS_PER_THREAD = 120


class TestArtifactStoreHammer:
    def test_put_get_refresh_under_contention(self):
        store = ArtifactStore(memory_budget_bytes=16 * 1024)
        keys = [f"fp{i}" for i in range(12)]
        errors = []

        def worker(worker_id):
            try:
                for op in range(OPS_PER_THREAD):
                    fp = keys[(worker_id + op) % len(keys)]
                    if op % 3 == 0:
                        payload = {"worker": worker_id, "op": op,
                                   "pad": "x" * 200}
                        store.put("hammer", fp, payload)
                    elif op % 3 == 1:
                        art = store.get("hammer", fp)
                        if art is not None:
                            # payloads are whole objects, never torn
                            assert set(art.payload) == {
                                "worker", "op", "pad"
                            }
                    else:
                        store.stats()
            except Exception as exc:  # noqa: BLE001 - report in main thread
                errors.append(exc)

        with concurrent.futures.ThreadPoolExecutor(THREADS) as pool:
            list(pool.map(worker, range(THREADS)))

        assert errors == []
        stats = store.stats()
        assert stats["hits"] + stats["misses"] == THREADS * OPS_PER_THREAD / 3
        # LRU accounting stayed consistent: the tracked byte total is
        # exactly the sum over live entries, and the budget held
        live_bytes = sum(a.nbytes for a in store._mem.values())
        assert store._mem_bytes == live_bytes
        assert store._mem_bytes <= 16 * 1024 or len(store) == 1

    def test_eviction_race_keeps_len_and_bytes_in_sync(self):
        # a budget small enough that almost every put evicts: the
        # pop/insert pair must stay atomic under contention
        store = ArtifactStore(memory_budget_bytes=600)

        def writer(worker_id):
            for op in range(OPS_PER_THREAD):
                store.put(
                    "evict", f"fp{worker_id}-{op}", {"pad": "y" * 100}
                )

        with concurrent.futures.ThreadPoolExecutor(THREADS) as pool:
            list(pool.map(writer, range(THREADS)))

        assert store._mem_bytes == sum(
            a.nbytes for a in store._mem.values()
        )
        assert store.memory_evictions > 0


class TestDiskBackendHammer:
    def test_readers_never_see_torn_writes(self, tmp_path):
        backend = DiskBackend(tmp_path, byte_budget=8 * 1024)
        paths = [f"entry{i}.json" for i in range(6)]
        stop = threading.Event()
        errors = []

        def writer(worker_id):
            version = 0
            while not stop.is_set():
                version += 1
                doc = {"writer": worker_id, "version": version,
                       "pad": "z" * 400}
                backend.write_bytes(paths[worker_id % len(paths)],
                                    json.dumps(doc).encode())

        def reader():
            while not stop.is_set():
                for relpath in paths:
                    text = backend.read_bytes(relpath)
                    if text is None:
                        continue  # missing or evicted: a clean miss
                    try:
                        doc = json.loads(text)
                    except ValueError as exc:
                        errors.append(
                            AssertionError(f"torn read of {relpath}: {exc}")
                        )
                        stop.set()
                        return
                    assert set(doc) == {"writer", "version", "pad"}

        with concurrent.futures.ThreadPoolExecutor(THREADS) as pool:
            futures = [pool.submit(writer, i) for i in range(4)]
            futures += [pool.submit(reader) for _ in range(3)]
            # a 0.5 s soak is plenty: hundreds of write/evict/read
            # interleavings on a loaded machine
            stop.wait(0.5)
            stop.set()
            for future in futures:
                future.result(timeout=30)

        assert errors == []
        # the enforcer ran while readers were live and left only whole
        # files under budget, with no temp debris at final paths
        leftovers = [p.name for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []
        assert backend.bytes_used() <= 8 * 1024 + 1024

    def test_concurrent_budget_enforcement_is_single_writer(self, tmp_path):
        backend = DiskBackend(tmp_path, byte_budget=2 * 1024)

        def writer(worker_id):
            for op in range(40):
                backend.write_bytes(
                    f"w{worker_id}-{op}.bin", bytes(256)
                )

        with concurrent.futures.ThreadPoolExecutor(THREADS) as pool:
            list(pool.map(writer, range(THREADS)))

        assert backend.evictions > 0
        # every surviving file is whole (write-then-rename), and the
        # budget held once the dust settled
        for path in tmp_path.rglob("*.bin"):
            assert path.stat().st_size == 256
        assert backend.bytes_used() <= 2 * 1024 + 256


class TestNoLockAcrossIO:
    """The store lock guards the store's own state only: a memory-tier
    lookup never waits on another request's disk write or read."""

    #: the blocks codec reads nothing off the run, so any context will do
    CTX = object()

    @staticmethod
    def blocks():
        from repro.partitioner.blocks import Block

        return [Block(index=0, atomic_indices=(0,), tasks=("t0",))]

    def blocked(self, store, method):
        """Make ``store.disk.<method>`` wait until released; returns
        ``(entered, release)`` events."""
        entered, release = threading.Event(), threading.Event()
        real = getattr(store.disk, method)

        def gated(*args):
            entered.set()
            assert release.wait(30)
            return real(*args)

        setattr(store.disk, method, gated)
        return entered, release

    def test_memory_get_returns_during_a_blocked_put(self, tmp_path):
        store = ArtifactStore(disk=DiskBackend(tmp_path))
        store.put("blocks", "warm", self.blocks(), ctx=self.CTX)
        entered, release = self.blocked(store, "write_bytes")
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            writer = pool.submit(
                store.put, "blocks", "cold", self.blocks(), self.CTX
            )
            try:
                assert entered.wait(30)
                reader = pool.submit(store.get, "blocks", "warm")
                assert reader.result(timeout=5) is not None
                assert not writer.done()
            finally:
                release.set()
            writer.result(timeout=30)
        assert (tmp_path / store._relpath("blocks", "cold")).exists()

    def test_memory_get_returns_during_a_blocked_disk_read(self, tmp_path):
        store = ArtifactStore(disk=DiskBackend(tmp_path))
        store.put("blocks", "warm", self.blocks(), ctx=self.CTX)
        store.put("blocks", "on_disk", self.blocks(), ctx=self.CTX)
        store.evict("blocks", "on_disk")
        entered, release = self.blocked(store, "read_bytes")
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            disk_get = pool.submit(store.get, "blocks", "on_disk", self.CTX)
            try:
                assert entered.wait(30)
                reader = pool.submit(store.get, "blocks", "warm")
                assert reader.result(timeout=5) is not None
            finally:
                release.set()
            promoted = disk_get.result(timeout=30)
        assert promoted.payload == self.blocks()
        assert store.disk_hits == 1

    def test_memory_get_returns_while_refresh_weighs_a_context(self):
        """``refresh`` weighs a ``dp_context`` (a walk over its whole
        memo) outside the lock, then adjusts the tier's byte count."""
        entered, release = threading.Event(), threading.Event()

        class SlowContext:
            gate = False
            size = 100

            def nbytes(self):
                if self.gate:
                    entered.set()
                    assert release.wait(30)
                return self.size

        store = ArtifactStore()
        store.put("blocks", "warm", self.blocks())
        context = SlowContext()
        store.put(DP_CONTEXT, "memo", context)
        before = store.stats()["memory_bytes"]
        context.gate, context.size = True, 250
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            weigher = pool.submit(store.refresh, DP_CONTEXT, "memo", None)
            try:
                assert entered.wait(30)
                reader = pool.submit(store.get, "blocks", "warm")
                assert reader.result(timeout=5) is not None
                assert not weigher.done()
            finally:
                release.set()
            weigher.result(timeout=30)
        assert store.stats()["memory_bytes"] == before + 150
