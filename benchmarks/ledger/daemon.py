"""The ``daemon-mixed`` workload: a plan server under open-loop load.

The server runs as its own process, exactly as a user starts it
(``python -u -m repro serve --port 0 --workers 2 --cache-dir <fresh>``);
a traced run starts ``workers.py serve`` instead, which installs the
timing wrappers and then calls the same ``serve`` function.  Load comes
from this process: a seeded schedule of arrivals shared by a few sender
threads, each owning one keep-alive ``http.client`` connection.  Every
request is timed from when it was due, so a stalled server also delays
the requests queued behind it.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

GRID = [(model, cluster)
        for model in ("bert-base", "bert-large", "gpt-medium")
        for cluster in ("v100x8", "v100x16", "v100x32")]
BATCH_SIZE = 256
#: arrivals per block of 20, shuffled within the block, so every stretch
#: of the run carries the same 70 / 25 / 5 % mix of warm repeats, deltas
#: (a fresh memory budget: the stage search reruns) and cold models.
#: With more deltas, the p90 lands on the requests queued behind Poisson
#: bursts of concurrent deltas and swings 2x between seeds.
MIX_BLOCK = ["warm"] * 14 + ["delta"] * 5 + ["cold"]
#: the cold models: 8-layer GPT variants the server has not seen, one
#: per width, so every cold request plans a new graph of the same task
#: count (and so of a similar planning cost)
COLD_HIDDEN = range(384, 1408, 64)
REQUEST_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


def _now() -> int:
    return time.monotonic_ns()


def _body(model, cluster, options=None):
    spec = model if isinstance(model, dict) else {"preset": model}
    body = {"model": spec, "cluster": {"preset": cluster},
            "batch_size": BATCH_SIZE}
    if options:
        body["options"] = options
    return body


def schedule(seed: int, seconds: float, rate: float):
    """The seeded arrival list: ``round(rate * seconds)`` arrivals at
    sorted uniform times in ``[0, seconds)`` -- a Poisson process
    conditioned on its count, so every seed offers the same load."""
    rng = random.Random(seed)
    n = max(1, round(rate * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    kinds = []
    while len(kinds) < n:
        block = list(MIX_BLOCK)
        rng.shuffle(block)
        kinds += block
    cycles = {kind: list(GRID) for kind in ("warm", "delta", "cold")}
    for points in cycles.values():
        rng.shuffle(points)
    used = {kind: 0 for kind in cycles}
    cold_hidden = rng.sample(list(COLD_HIDDEN), len(COLD_HIDDEN))
    budgets = set()
    arrivals = []
    for due, kind in zip(dues, kinds[:n]):
        model, cluster = cycles[kind][used[kind] % len(GRID)]
        used[kind] += 1
        if kind == "warm":
            body = _body(model, cluster)
        elif kind == "delta":
            budget = round(rng.uniform(12.0, 31.0), 3)
            while budget in budgets:
                budget = round(rng.uniform(12.0, 31.0), 3)
            budgets.add(budget)
            body = _body(model, cluster, {"memory_budget_gb": budget})
        else:
            hidden = cold_hidden[(used[kind] - 1) % len(cold_hidden)]
            body = _body({"family": "gpt", "hidden": hidden, "layers": 8},
                         cluster)
        arrivals.append({"due_s": due, "kind": kind, "body": body,
                         "grid": f"{model}/{cluster}"
                         if kind != "cold" else None})
    return arrivals


def summary_of(doc) -> dict:
    """The checked plan fields, from a deployment document."""
    stages = doc["stages"]
    return {
        "boundaries": [list(s["block_range"]) for s in stages],
        "devices": [s["devices_per_pipeline"] for s in stages],
        "microbatch_sizes": [s["microbatch_size"] for s in stages],
        "num_microbatches": doc["num_microbatches"],
        "replica_factor": doc["replica_factor"],
    }


def _post(conn, body):
    conn.request("POST", "/v1/plan", body=json.dumps(body).encode(),
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


class Server:
    """One plan-server process: start, announce, measure, stop."""

    def __init__(self, work: Path, env: dict, trace: bool, workers: int = 2):
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
        self.spans_path = Path(self.cache_dir + ".spans.json")
        self.log_path = Path(self.cache_dir + ".log")
        args = ["--port", "0", "--workers", str(workers),
                "--cache-dir", self.cache_dir]
        if trace:
            cmd = [sys.executable, "-u", str(HERE / "workers.py"), "serve",
                   *args, "--spans-out", str(self.spans_path)]
        else:
            cmd = [sys.executable, "-u", "-m", "repro", "serve", *args]
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True, env=env)
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = None

    def _drain(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_listening(self, timeout=60.0):
        """Block until the server announces its port."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError(f"plan server did not start: "
                                   f"{self.log_path.read_text()[-2000:]}")
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(1))
                return self.port

    def peak_rss_mib(self) -> float:
        """The server's resident high-water mark (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1)
        return int(kib) / 1024

    def stop(self):
        """SIGTERM (graceful drain), then kill if it hangs; always reap
        the process and remove the cache directory."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            self.proc.wait()
            self._reader.join(timeout=10)
        finally:
            self._log.close()
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def spans(self):
        if not self.spans_path.exists():
            return []
        return json.loads(self.spans_path.read_text())

    def cleanup(self):
        for path in (self.spans_path, self.log_path):
            if path.exists():
                path.unlink()


def prime(port: int, expected) -> dict:
    """Plan every grid point once; returns ``{grid key: summary}``.
    Raises on a failed or mismatched priming plan (the run is invalid)."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        primed = {}
        for model, cluster in GRID:
            status, doc = _post(conn, _body(model, cluster))
            key = f"{model}/{cluster}"
            if status != 200 or not doc["result"]["meta"].get("verified"):
                raise RuntimeError(f"priming {key} failed: {status} {doc}")
            summary = summary_of(doc["result"]["plan"])
            if key in expected and summary != expected[key]:
                raise RuntimeError(f"priming {key}: plan differs from the "
                                   f"pinned fixture")
            primed[key] = summary
        return primed
    finally:
        conn.close()


def _check(arrival, status, doc, expected):
    """``(ok, meta)`` for one response: HTTP 200, ``verified: true``, and
    a warm repeat must reproduce its primed (or pinned) plan."""
    if status != 200 or not doc.get("ok"):
        return False, {}
    result = doc["result"]
    meta = result["meta"]
    if not meta.get("verified") or not result["plan"].get("stages"):
        return False, meta
    if arrival["kind"] == "warm":
        return summary_of(result["plan"]) == expected[arrival["grid"]], meta
    return True, meta


def _sender(port, pending, lock, t0, expected, records):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        while True:
            with lock:
                if not pending:
                    return
                arrival = pending.popleft()
            free = _now()
            due = t0 + int(arrival["due_s"] * 1e9)
            if due > free:
                time.sleep((due - free) / 1e9)
            send = _now()
            try:
                status, doc = _post(conn, arrival["body"])
                ok, meta = _check(arrival, status, doc, expected)
                error = None
            except (OSError, http.client.HTTPException, ValueError) as exc:
                conn.close()  # reconnects on the next request
                status, ok, meta, error = 0, False, {}, repr(exc)
            done = _now()
            records.append({
                "kind": arrival["kind"],
                "label": meta.get("cache"),
                "coalesced": bool(meta.get("coalesced")),
                "status": status,
                "ok": ok,
                "error": error,
                "throughput": meta.get("throughput"),
                "due_s": arrival["due_s"],
                "send_ns": send,
                "latency_ms": (done - due) / 1e6,
                "service_ms": (done - send) / 1e6,
                "conn_wait_ms": max(0, send - due) / 1e6,
                "late_ms": (send - max(due, free)) / 1e6,
            })
    finally:
        conn.close()


def run_traffic(port, arrivals, expected, senders):
    """Send ``arrivals`` on schedule from ``senders`` threads; returns
    ``(t0_ns, records)``."""
    pending = collections.deque(arrivals)
    lock = threading.Lock()
    records = []
    t0 = _now() + 50_000_000  # let every sender start before the first due
    # daemon threads: an interrupted run exits without waiting for the
    # rest of the schedule
    threads = [threading.Thread(target=_sender,
                                args=(port, pending, lock, t0, expected,
                                      records), daemon=True)
               for _ in range(senders)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records.sort(key=lambda r: r["due_s"])
    return t0, records


def run(seed, seconds, rate, trace, setups, work, env, pinned):
    """Set the server up ``setups`` times (start + prime; the median is
    ``setup_s``), then drive the last one for ``seconds``.  Every server
    is stopped and its cache removed before this returns or raises."""
    senders = min(2, os.cpu_count() or 1)
    arrivals = schedule(seed, seconds, rate)
    doc = {"setup_s": [], "senders": senders}
    for i in range(setups):
        spawn = _now()
        server = Server(work, env, trace)
        try:
            server.wait_listening()
            primed = prime(server.port, pinned)
            doc["setup_s"].append((_now() - spawn) / 1e9)
            if i == setups - 1:
                doc["t0_ns"], doc["records"] = run_traffic(
                    server.port, arrivals, primed, senders)
                doc["peak_rss_mib"] = server.peak_rss_mib()
        finally:
            server.stop()
        try:
            if i == setups - 1:
                doc["spans"] = server.spans()
        finally:
            server.cleanup()
    return doc
