"""Asyncio HTTP front end of the plan service.

Stdlib-only: :func:`asyncio.start_server` with a minimal HTTP/1.1
reader/writer (request line + headers + ``Content-Length`` body,
keep-alive supported), dispatching JSON bodies into a
:class:`~repro.service.engine.PlanEngine` on a bounded thread pool so
the event loop never blocks on a pipeline run.  A warm ``plan`` hit
that needs no computation is answered on the loop itself
(:meth:`~repro.service.engine.PlanEngine.warm_plan`), and a plan's
deployment document is written into the response as it stands.

Routes (see ``docs/SERVICE.md`` for the schemas)::

    GET  /healthz         liveness (also reports draining state)
    GET  /v1/stats        counters, latency percentiles, store stats
    POST /v1/plan         plan (cold / warm / delta, coalesced)
    POST /v1/replan       plan against a warm base (409 without one)
    POST /v1/repair       replan-on-event plan repair (409 cold)
    POST /v1/simulate     plan + GPipe flush-schedule timeline summary
    POST /v1/serving-sim  inference plan + serving simulation + SLO
                          autoscaling (see docs/SERVING_SIM.md)
    POST /v1/verify       round-trip verify a deployment document
    POST /v1/shutdown     graceful stop (drains in-flight plans)

Graceful shutdown (SIGTERM, SIGINT/KeyboardInterrupt, or POST
``/v1/shutdown``): the listener closes first, then the engine drains --
in-flight and coalesced futures complete (or are cancelled after the
drain timeout) and their HTTP responses are written before connections
close.  The artifact/deployment store only ever sees atomic
write-then-rename I/O, so even a hard kill (SIGKILL mid-plan) cannot
leave a torn cache entry: a restarted service treats any partial state
as a miss and repairs it on the next request.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import json
import signal
import threading
from typing import Any, Dict, Optional, Tuple, Union

from repro.service.engine import PlanEngine
from repro.service.protocol import (
    ServiceError,
    encode_body,
    error_envelope,
    ok_envelope,
)

__all__ = ["PlanServer", "serve"]

_MAX_BODY_BYTES = 8 * 2**20
#: header lines one request may carry; more get 431 and a close
_MAX_HEADERS = 100
#: seconds the client may take to send one whole request, counting the
#: idle wait before it on a keep-alive connection; a connection that
#: stalls longer -- idle, or a half-sent request -- is closed without an
#: answer.  One deadline per request rather than per line: on Python
#: 3.11 ``wait_for`` wraps every awaited read in a task, which measured
#: +0.2 ms per request at a handful of header lines (2-vCPU VM)
_IDLE_TIMEOUT_S = 60.0
#: after answering a request whose framing was rejected, seconds each
#: read of what the client still sends may take before the close
_LINGER_S = 1.0
_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: (HTTP verb, path) -> engine method
_ROUTES = {
    ("POST", "/v1/plan"): "plan",
    ("POST", "/v1/replan"): "replan",
    ("POST", "/v1/repair"): "repair",
    ("POST", "/v1/verify"): "verify",
    ("POST", "/v1/simulate"): "simulate",
    ("POST", "/v1/serving-sim"): "serving_sim",
    ("GET", "/v1/stats"): "stats",
}


class _Rejected:
    """A request whose framing was rejected: the HTTP status and the
    ``bad_request`` error it is answered with."""

    __slots__ = ("status", "error")

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.error = ServiceError("bad_request", message)


class PlanServer:
    """One listening plan service: engine + asyncio HTTP transport."""

    def __init__(
        self,
        engine: Optional[PlanEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float = 30.0,
        **engine_kwargs: Any,
    ) -> None:
        self.engine = engine if engine is not None else PlanEngine(**engine_kwargs)
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.engine.workers,
            thread_name_prefix="plan-worker",
        )
        self._stop_requested = asyncio.Event()
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (resolves :attr:`port` when it was 0)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop` (or a handled signal) fires,
        then drain gracefully."""
        if self._server is None:
            await self.start()
        await self._stop_requested.wait()
        await self.shutdown()

    def request_stop(self) -> None:
        """Thread/signal-safe graceful-stop trigger."""
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(self._stop_requested.set)

    async def shutdown(self) -> None:
        """Close the listener, drain the engine, release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.engine.drain(self.drain_timeout)
        )
        # after the drain window, anything still queued is abandoned;
        # running futures were completed by their leader thread
        self._pool.shutdown(wait=drained, cancel_futures=not drained)

    # ------------------------------------------------------------------
    # background-thread harness (tests, benchmarks, in-process use)
    # ------------------------------------------------------------------
    def start_in_thread(self) -> "PlanServer":
        """Run the server on a daemon thread; returns once listening."""
        if self._thread is not None:
            raise RuntimeError("server already started")

        def _run() -> None:
            asyncio.run(self.serve_until_stopped())

        self._thread = threading.Thread(
            target=_run, name="plan-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("plan server failed to start listening")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop a :meth:`start_in_thread` server."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request = await asyncio.wait_for(
                    self._read_request(reader), _IDLE_TIMEOUT_S
                )
                if request is None:
                    break
                if isinstance(request, _Rejected):
                    # the rest of the stream cannot be delimited:
                    # answer, then close
                    status = request.status
                    payload = error_envelope(request.error)
                    keep_alive = False
                else:
                    verb, path, headers, body = request
                    status, payload = await self._dispatch(verb, path, body)
                    keep_alive = (
                        headers.get("connection", "keep-alive").lower()
                        != "close"
                    )
                data = encode_body(payload)
                writer.write(
                    (
                        f"HTTP/1.1 {status} "
                        f"{_STATUS_TEXT.get(status, 'OK')}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n"
                        "Connection: "
                        f"{'keep-alive' if keep_alive else 'close'}\r\n"
                        "\r\n"
                    ).encode()
                )
                writer.write(data)
                await writer.drain()
                if not keep_alive:
                    if isinstance(request, _Rejected):
                        await _discard_input(reader, writer)
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away; nothing to answer
        except asyncio.TimeoutError:
            pass  # client stalled past the idle timeout: drop it
        except asyncio.CancelledError:
            pass  # event loop tearing down mid-read; close quietly
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Union[None, "_Rejected", Tuple[str, str, Dict[str, str], bytes]]:
        """One HTTP/1.1 request, or ``None`` on a clean close.

        A request whose framing is rejected -- a line over the reader's
        limit, a malformed request line, more than :data:`_MAX_HEADERS`
        header lines, a bad or oversized ``Content-Length`` -- comes
        back as a :class:`_Rejected`, which is answered and then closes
        the connection."""
        line = await _read_line(reader)
        if line is None:
            return _Rejected(400, "request or header line too long")
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            verb, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return _Rejected(400, "malformed request line")
        headers: Dict[str, str] = {}
        count = 0
        while True:
            raw = await _read_line(reader)
            if raw is None:
                return _Rejected(400, "request or header line too long")
            if raw in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > _MAX_HEADERS:
                return _Rejected(431, f"more than {_MAX_HEADERS} header lines")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            return _Rejected(
                400, "Content-Length must be a non-negative integer"
            )
        if length > _MAX_BODY_BYTES:
            return _Rejected(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return verb.upper(), path, headers, body

    async def _dispatch(
        self, verb: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        path = path.split("?", 1)[0]
        if verb == "GET" and path == "/healthz":
            return 200, ok_envelope(
                {"status": "draining" if self.engine.draining else "ok"}
            )
        if verb == "POST" and path == "/v1/shutdown":
            self.request_stop()
            return 200, ok_envelope({"stopping": True})
        method = _ROUTES.get((verb, path))
        if method is None:
            err = ServiceError("not_found", f"no route for {verb} {path}")
            known_paths = {p for _v, p in _ROUTES}
            status = 405 if path in known_paths else err.status
            return status, error_envelope(err)
        if body:
            try:
                params = json.loads(body)
            except ValueError:
                err = ServiceError("bad_request", "body is not valid JSON")
                return err.status, error_envelope(err)
        else:
            params = {}
        try:
            result = None
            if method == "plan":
                # a warm hit that needs no computation is answered here,
                # on the loop; anything else goes to the pool
                result, params = self.engine.warm_plan(params)
            if result is None:
                try:
                    future = asyncio.get_running_loop().run_in_executor(
                        self._pool,
                        functools.partial(self.engine.handle, method, params),
                    )
                except RuntimeError as exc:
                    # the pool refuses new work: shut down by a
                    # non-graceful exit
                    raise ServiceError("shutting_down", str(exc)) from None
                result = await future
        except ServiceError as exc:
            return exc.status, error_envelope(exc)
        except Exception as exc:  # noqa: BLE001 - boundary of the daemon
            err = ServiceError("internal", f"{type(exc).__name__}: {exc}")
            return err.status, error_envelope(err)
        return 200, ok_envelope(result)


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One line; ``None`` when it is longer than the reader's buffer
    limit (``readline`` raises ``ValueError``)."""
    try:
        return await reader.readline()
    except ValueError:
        return None


async def _discard_input(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then read and drop what the client still sends (at
    most :data:`_MAX_BODY_BYTES`, each read within :data:`_LINGER_S`):
    closing a socket with unread input resets the connection, which can
    destroy the answer before the client reads it."""
    dropped = 0
    try:
        writer.write_eof()
        while dropped <= _MAX_BODY_BYTES:
            chunk = await asyncio.wait_for(reader.read(2**16), _LINGER_S)
            if not chunk:
                return
            dropped += len(chunk)
    except (asyncio.TimeoutError, OSError):
        pass


def serve(
    host: str = "127.0.0.1",
    port: int = 8321,
    *,
    engine: Optional[PlanEngine] = None,
    drain_timeout: float = 30.0,
    trace_out: Optional[str] = None,
    announce=print,
    **engine_kwargs: Any,
) -> int:
    """Blocking entry point used by ``repro serve``.

    Installs SIGTERM/SIGINT handlers that trigger a graceful drain, and
    optionally exports the serving window's Perfetto trace on exit.
    """

    async def _main() -> None:
        server = PlanServer(
            engine=engine,
            host=host,
            port=port,
            drain_timeout=drain_timeout,
            **engine_kwargs,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.request_stop)
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        disk = server.engine.store.disk
        announce(
            f"plan service listening on http://{server.host}:{server.port} "
            f"(workers={server.engine.workers}, "
            f"cache_dir={disk.root if disk is not None else None})"
        )
        await server.serve_until_stopped()
        if trace_out:
            events = server.engine.export_trace(trace_out)
            announce(f"serving-window trace written to {trace_out} "
                     f"({events} events)")
        announce("plan service stopped (drained)")

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0
