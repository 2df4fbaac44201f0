"""Blocking HTTP client for the plan service (stdlib ``http.client``).

Used by the Poisson-load benchmark, the CI smoke script and the tests;
it is also a reference for what any JSON-speaking client must send.

    >>> from repro.service import PlanServer, ServiceClient   # doctest: +SKIP
    >>> server = PlanServer(workers=2).start_in_thread()      # doctest: +SKIP
    >>> client = ServiceClient(port=server.port)              # doctest: +SKIP
    >>> client.plan(model={"preset": "bert-base"},
    ...             cluster={"preset": "v100x8"},
    ...             batch_size=256)["meta"]["cache"]          # doctest: +SKIP
    'cold'
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Optional

from repro.service.protocol import ServiceError

__all__ = ["ServiceClient", "ServiceHTTPError", "wait_until_healthy"]


class ServiceHTTPError(ServiceError):
    """A non-2xx response, re-raised with the server's error code."""

    def __init__(self, status: int, error: Dict[str, Any]) -> None:
        code = error.get("code", "internal")
        try:
            super().__init__(code, error.get("message", "service error"),
                             {k: v for k, v in error.items()
                              if k not in ("code", "message")})
        except ValueError:  # unknown code from a newer server
            super().__init__("internal", error.get("message", code))
        self.http_status = status


class ServiceClient:
    """Thin JSON-over-HTTP client; one connection, keep-alive reuse."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        timeout: float = 120.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self,
        verb: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One round trip; returns the ``result`` object of the envelope
        or raises :class:`ServiceHTTPError`.

        ``timeout`` overrides the client-wide socket timeout for this
        request only (e.g. a short timeout on a cheap ``simulate`` next
        to a generous one on a cold ``plan``); a dropped keep-alive
        connection (``ConnectionResetError`` / ``BrokenPipeError``) gets
        one automatic retry on a fresh connection.
        """
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"}
        effective = self.timeout if timeout is None else timeout
        for attempt in (0, 1):
            conn = self._connection()
            conn.timeout = effective
            try:
                if conn.sock is not None:
                    conn.sock.settimeout(effective)
                conn.request(verb, path, body=payload, headers=headers)
                response = conn.getresponse()
                doc = json.loads(response.read().decode())
                break
            except TimeoutError:
                # an exceeded per-request deadline is a real failure,
                # never retried (the server may still be working on it);
                # drop the connection so a stale late response cannot be
                # read by the next request
                self.close()
                raise
            except (
                ConnectionResetError,
                BrokenPipeError,
                http.client.HTTPException,
                ConnectionError,
                OSError,
            ):
                # a dropped keep-alive connection gets one clean retry
                self.close()
                if attempt:
                    raise
        if not doc.get("ok", False):
            raise ServiceHTTPError(response.status, doc.get("error", {}))
        return doc["result"]

    # ------------------------------------------------------------------
    def healthz(self, *, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self.request("GET", "/healthz", timeout=timeout)

    def stats(self, *, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self.request("GET", "/v1/stats", timeout=timeout)

    def shutdown(self, *, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self.request("POST", "/v1/shutdown", timeout=timeout)

    def plan(
        self, *, timeout: Optional[float] = None, **params: Any
    ) -> Dict[str, Any]:
        return self.request("POST", "/v1/plan", params, timeout=timeout)

    def replan(
        self, *, timeout: Optional[float] = None, **params: Any
    ) -> Dict[str, Any]:
        return self.request("POST", "/v1/replan", params, timeout=timeout)

    def repair(
        self, *, timeout: Optional[float] = None, **params: Any
    ) -> Dict[str, Any]:
        return self.request("POST", "/v1/repair", params, timeout=timeout)

    def simulate(
        self, *, timeout: Optional[float] = None, **params: Any
    ) -> Dict[str, Any]:
        return self.request("POST", "/v1/simulate", params, timeout=timeout)

    def serving_sim(
        self, *, timeout: Optional[float] = None, **params: Any
    ) -> Dict[str, Any]:
        return self.request(
            "POST", "/v1/serving-sim", params, timeout=timeout
        )

    def verify(
        self, *, timeout: Optional[float] = None, **params: Any
    ) -> Dict[str, Any]:
        return self.request("POST", "/v1/verify", params, timeout=timeout)


def wait_until_healthy(
    host: str = "127.0.0.1",
    port: int = 8321,
    timeout: float = 30.0,
) -> ServiceClient:
    """Poll ``/healthz`` until the daemon answers; returns a client."""
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        client = ServiceClient(host, port, timeout=5.0)
        try:
            client.healthz()
            client.timeout = 120.0
            return client
        except (ServiceError, ConnectionError, OSError) as exc:
            last_error = exc
            client.close()
            time.sleep(0.1)
    raise TimeoutError(
        f"plan service at {host}:{port} not healthy after {timeout}s: "
        f"{last_error}"
    )
