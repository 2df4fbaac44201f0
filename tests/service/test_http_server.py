"""HTTP round-trip tests against a live in-thread ``PlanServer``.

Real sockets, the stdlib client, and the raw-HTTP edge cases a JSON
client never sends (unknown routes, wrong verbs, malformed bodies,
oversized payloads, stalled requests, header floods, overlong lines).
"""

import http.client
import json
import socket
import time

import pytest

from repro.service import (
    PlanServer,
    ServiceClient,
    ServiceHTTPError,
    wait_until_healthy,
)

MODEL = {"family": "bert", "hidden": 256, "layers": 4, "heads": 8}
PARAMS = {"model": MODEL, "cluster": {"preset": "v100x8"}, "batch_size": 64}


@pytest.fixture(scope="module")
def server():
    server = PlanServer(workers=2).start_in_thread()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def client(server):
    client = wait_until_healthy(port=server.port)
    yield client
    client.close()


def raw_request(server, verb, path, body=None, headers=None):
    """One raw HTTP exchange, bypassing the JSON client's conventions."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request(verb, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


class TestRoundTrips:
    def test_healthz(self, client):
        assert client.healthz()["status"] == "ok"

    def test_plan_warm_repeat_on_one_connection(self, client):
        cold = client.plan(**PARAMS)
        warm = client.plan(**PARAMS)
        assert cold["meta"]["cache"] in ("cold", "warm")
        assert warm["meta"]["cache"] == "warm"
        assert warm["plan"] == cold["plan"]

    def test_verify_round_trip(self, client):
        doc = client.plan(**PARAMS)["plan"]
        out = client.verify(plan=doc, model=MODEL,
                            cluster=PARAMS["cluster"])
        assert out["verified"] is True

    def test_stats(self, client):
        client.plan(**PARAMS)
        stats = client.stats()
        assert stats["counters"]["service.requests"] >= 1
        assert stats["store"]["entries"] > 0

    def test_error_carries_code_and_status(self, client):
        with pytest.raises(ServiceHTTPError) as ei:
            client.plan(model={"preset": "nope"},
                        cluster={"preset": "v100x8"}, batch_size=64)
        assert ei.value.http_status == 400
        assert ei.value.code == "bad_request"

    def test_replan_no_base_is_409(self, server):
        client = ServiceClient(port=server.port)
        try:
            with pytest.raises(ServiceHTTPError) as ei:
                client.replan(model={"family": "mlp", "widths": [16, 4]},
                              cluster={"preset": "v100x8"}, batch_size=8)
            assert ei.value.http_status == 409
            assert ei.value.code == "no_base"
        finally:
            client.close()


class TestRawHTTP:
    def test_unknown_route_is_404(self, server):
        status, doc = raw_request(server, "GET", "/v1/nothing-here")
        assert status == 404
        assert doc["error"]["code"] == "not_found"

    def test_framing_error_lookalike_path_is_404_and_keeps_alive(
        self, server
    ):
        # a well-formed request whose path merely looks like a rejected
        # framing is an unknown route on a connection that stays open
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/__too_large__")
            response = conn.getresponse()
            doc = json.loads(response.read().decode())
            assert response.status == 404
            assert doc["error"]["code"] == "not_found"
            assert response.getheader("Connection") == "keep-alive"
            sock = conn.sock
            assert sock is not None
            conn.request("GET", "/healthz")
            again = conn.getresponse()
            assert again.status == 200
            again.read()
            assert conn.sock is sock
        finally:
            conn.close()

    def test_wrong_verb_on_known_route_is_405(self, server):
        status, _doc = raw_request(server, "GET", "/v1/plan")
        assert status == 405

    def test_body_that_is_not_json_is_400(self, server):
        status, doc = raw_request(
            server, "POST", "/v1/plan", body=b"this is not json",
            headers={"Content-Length": "16"},
        )
        assert status == 400
        assert doc["error"]["code"] == "bad_request"

    def test_oversized_body_is_413(self, server):
        status, doc = raw_request(
            server, "POST", "/v1/plan", body=None,
            headers={"Content-Length": str(64 * 2**20)},
        )
        assert status == 413
        assert doc["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, server, length):
        status, doc = raw_request(
            server, "POST", "/v1/plan", body=None,
            headers={"Content-Length": length},
        )
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        assert "Content-Length" in doc["error"]["message"]

    def test_missing_params_is_400(self, server):
        status, doc = raw_request(
            server, "POST", "/v1/plan", body=b"{}",
            headers={"Content-Length": "2"},
        )
        assert status == 400
        assert "model" in doc["error"]["message"]


def post_plan(server, params):
    body = json.dumps(params).encode()
    return raw_request(
        server, "POST", "/v1/plan", body=body,
        headers={"Content-Length": str(len(body))},
    )


class TestMalformedOptions:
    """A bad option is the client's fault: 400 before any pass runs; a
    pass that crashes is the server's: 500, not a retry-elsewhere 503."""

    @pytest.mark.parametrize(
        "options",
        [{"blocks": 0}, {"blocks": -3}, {"schedule": "foo"},
         {"comm_model": "bogus"},
         # every plan is priced under the flush schedule, and the comm
         # model belongs to the cluster object: neither is an option
         {"schedule": "sync"}, {"comm_model": "topology"}],
        ids=["blocks0", "blocks-3", "schedule", "comm_model",
             "schedule-sync", "comm_model-topology"],
    )
    def test_bad_option_is_400_before_any_pass(
        self, server, monkeypatch, options
    ):
        from repro.planner.manager import PassManager

        runs = []
        run = PassManager.run

        def recording(self, ctx):
            runs.append(ctx)
            return run(self, ctx)

        monkeypatch.setattr(PassManager, "run", recording)
        status, doc = post_plan(server, dict(PARAMS, options=options))
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        assert runs == []

    @pytest.mark.parametrize(
        "overrides",
        [
            {"batch_size": True},
            {"batch_size": 10**30},
            {"options": {"memory_budget_gb": float("nan")}},
            {"options": {"memory_budget_gb": float("inf")}},
            {"options": {"memory_budget_gb": True}},
            {"options": {"memory_budget_gb": 0}},
            {"options": {"memory_budget_gb": "abc"}},
            {"options": {"blocks": 2.7}},
            {"options": {"blocks": "x"}},
            {"options": {"max_microbatches": 0}},
            {"options": {"max_microbatches": [1]}},
        ],
        ids=["batch_true", "batch_huge", "budget_nan", "budget_inf",
             "budget_true", "budget0", "budget_str", "blocks_float",
             "blocks_str", "mb0", "mb_list"],
    )
    def test_malformed_number_is_400_before_any_pass(
        self, server, monkeypatch, overrides
    ):
        from repro.planner.manager import PassManager

        runs = []
        run = PassManager.run

        def recording(self, ctx):
            runs.append(ctx)
            return run(self, ctx)

        monkeypatch.setattr(PassManager, "run", recording)
        status, doc = post_plan(server, dict(PARAMS, **overrides))
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        assert runs == []

    def test_crashing_pass_is_500(self, server, monkeypatch):
        from repro.planner.passes import StageSearchPass

        def boom(self, ctx):
            raise RuntimeError("boom")

        monkeypatch.setattr(StageSearchPass, "run", boom)
        # a batch size no other test plans, so the stage search runs
        status, doc = post_plan(server, dict(PARAMS, batch_size=40))
        assert status == 500
        assert doc["error"]["code"] == "internal"
        assert "boom" in doc["error"]["message"]


class TestRepairRoute:
    def test_repair_round_trip(self, client):
        client.plan(**PARAMS)  # establish the base
        out = client.request(
            "POST", "/v1/repair",
            dict(PARAMS, event={"type": "scale_up", "extra_nodes": 1}),
        )
        assert out["plan"]["stages"]
        assert out["repair"]["event"] == "ScaleUp"
        assert out["repair"]["surviving_devices"] == 16  # 1+1 nodes x 8

    def test_client_repair_method(self, client):
        client.plan(**PARAMS)
        out = client.repair(
            **PARAMS, event={"type": "scale_up", "extra_nodes": 1}
        )
        assert out["repair"]["used_full_replan"] is False
        assert out["repair"]["fallback_reason"] == ""

    def test_repair_cold_is_409(self, server):
        fresh = ServiceClient(port=server.port)
        try:
            with pytest.raises(ServiceHTTPError) as ei:
                fresh.request(
                    "POST", "/v1/repair",
                    {"model": {"family": "mlp", "widths": [32, 16, 4]},
                     "cluster": {"preset": "v100x8"}, "batch_size": 8,
                     "event": {"type": "node_loss", "node_index": 0}},
                )
            assert ei.value.http_status == 409
            assert ei.value.code == "no_base"
        finally:
            fresh.close()


class TestHostileInput:
    """Live sockets that misbehave the way real networks do."""

    @staticmethod
    def exchange(server, payload):
        """Send ``payload`` raw and read until the server closes; returns
        ``(status, doc)`` of the answer."""
        with socket.create_connection(("127.0.0.1", server.port), 30) as s:
            s.sendall(payload)
            data = b""
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        assert b"Connection: close" in head
        return status, json.loads(body)

    def test_stalled_half_request_is_closed(self, server, monkeypatch):
        import repro.service.server as server_mod

        monkeypatch.setattr(server_mod, "_IDLE_TIMEOUT_S", 0.2)
        with socket.create_connection(("127.0.0.1", server.port), 10) as s:
            s.sendall(b"POST /v1/plan HTTP/1.1\r\nContent-Len")
            started = time.monotonic()
            assert s.recv(1) == b""  # closed, without an answer
            assert time.monotonic() - started < 5.0

    def test_stalled_body_is_closed(self, server, monkeypatch):
        import repro.service.server as server_mod

        monkeypatch.setattr(server_mod, "_IDLE_TIMEOUT_S", 0.2)
        with socket.create_connection(("127.0.0.1", server.port), 10) as s:
            s.sendall(b"POST /v1/plan HTTP/1.1\r\nContent-Length: 10\r\n\r\n{")
            assert s.recv(1) == b""

    def test_too_many_headers_is_431(self, server):
        headers = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(101))
        status, doc = self.exchange(
            server, f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode()
        )
        assert status == 431
        assert doc["error"]["code"] == "bad_request"

    def test_header_count_at_the_cap_is_served(self, server):
        # Connection: close plus 99 fillers: exactly 100 header lines
        headers = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(99))
        status, doc = self.exchange(
            server,
            f"GET /healthz HTTP/1.1\r\nConnection: close\r\n{headers}"
            "\r\n".encode(),
        )
        assert status == 200
        assert doc["ok"] is True

    def test_overlong_header_line_is_400(self, server):
        status, doc = self.exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (70 * 1024)
            + b"\r\n\r\n",
        )
        assert status == 400
        assert "too long" in doc["error"]["message"]

    def test_overlong_request_line_is_400(self, server):
        status, doc = self.exchange(
            server, b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n"
        )
        assert status == 400

    def test_server_still_serves_afterwards(self, client):
        assert client.healthz()["status"] == "ok"
