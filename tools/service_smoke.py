#!/usr/bin/env python
"""Smoke-test a running plan service, used by the CI ``service`` job.

Exercises the daemon's whole contract end to end against a live
socket -- cold plan, warm repeats (answered on the server's event loop
and counted in ``/v1/stats``), delta replan through ``/v1/replan``,
a budget whose search returns the primed layout (a delta that takes
the stored plan of that layout, counted in ``/v1/stats``), concurrent
same-model replans over one shared DP context, a second
budget that reuses the first's Algorithm-1 sweeps, a third whose node
levels a stored answer seeds (the stats count the seeded levels and the
answers the sweep bounds removed), in-place
repair through ``/v1/repair``, a preset cluster planned under the
topology comm model, a malformed option, the removed ``schedule`` and
``comm_model`` options and malformed numbers rejected as
``bad_request``, verify round-trip of the served
document, simulate, stats -- and exits non-zero the moment any response disagrees with
``docs/SERVICE.md``.

With ``--restarted`` it checks a daemon started again on the cache
directory a full run primed instead: the primed request is restored
from disk (``warm``, verified, a store disk hit), and its repeat is an
event-loop answer on the record the restoring check made.

Usage (the server must already be listening)::

    python -m repro serve --port 8321 --cache-dir /tmp/plan_cache &
    PYTHONPATH=src python tools/service_smoke.py --port 8321
    # stop the daemon, start it again on the same --cache-dir, then
    PYTHONPATH=src python tools/service_smoke.py --port 8321 --restarted
"""

from __future__ import annotations

import argparse
import concurrent.futures
import sys

REQUEST = {
    "model": {"preset": "bert-base"},
    "cluster": {"preset": "v100x8"},
    "batch_size": 256,
}

#: repeats of the warm request whose answers are checked one by one
WARM_REPEATS = 20

#: malformed numbers, each answered 400 ``bad_request`` before any pass
MALFORMED_NUMBERS = [
    ("batch_size true", {"batch_size": True}),
    ("batch_size 10**30", {"batch_size": 10**30}),
    ("memory_budget_gb NaN", {"options": {"memory_budget_gb": float("nan")}}),
    ("memory_budget_gb Infinity",
     {"options": {"memory_budget_gb": float("inf")}}),
    ("memory_budget_gb true", {"options": {"memory_budget_gb": True}}),
    ("memory_budget_gb 0", {"options": {"memory_budget_gb": 0}}),
    ("memory_budget_gb string", {"options": {"memory_budget_gb": "abc"}}),
    ("blocks 2.7", {"options": {"blocks": 2.7}}),
    ("blocks string", {"options": {"blocks": "x"}}),
    ("max_microbatches 0", {"options": {"max_microbatches": 0}}),
    ("max_microbatches list", {"options": {"max_microbatches": [1]}}),
]


def check(condition: bool, label: str) -> bool:
    print(f"{'ok  ' if condition else 'FAIL'}  {label}")
    return condition


def check_restarted(client) -> bool:
    """The primed request on a daemon restarted over the primed cache."""
    primed = client.plan(**REQUEST)
    ok = check(primed["meta"]["cache"] == "warm",
               "after a restart the primed plan is warm")
    ok &= check(primed["meta"]["verified"] is True,
                "the restored plan is verified")
    stats = client.stats()
    ok &= check(stats["store"]["disk_hits"] >= 1,
                "the restored plan was read from disk")
    before = stats["counters"]
    again = client.plan(**REQUEST)
    after = client.stats()["counters"]
    ok &= check(again["meta"]["cache"] == "warm"
                and again["plan"] == primed["plan"],
                "its repeat is warm and byte-identical")
    # a loop answer makes no check: it reuses the record the restoring
    # check made, or it is left to the pool
    for counter, label in (
        ("service.loop_answers", "its repeat is a loop answer"),
        ("verify.memo_hits", "its repeat reuses the restoring check"),
    ):
        ok &= check(after.get(counter, 0) == before.get(counter, 0) + 1, label)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8321)
    ap.add_argument("--timeout", type=float, default=60.0,
                    help="seconds to wait for the daemon to be healthy")
    ap.add_argument("--restarted", action="store_true",
                    help="check a daemon restarted on the cache "
                         "directory a full run primed")
    args = ap.parse_args(argv)

    from repro.service import (
        ServiceClient,
        ServiceHTTPError,
        wait_until_healthy,
    )

    client = wait_until_healthy(args.host, args.port, timeout=args.timeout)
    ok = check(client.healthz()["status"] == "ok", "healthz answers")
    if args.restarted:
        ok &= check_restarted(client)
        client.close()
        print("smoke OK" if ok else "SMOKE FAIL")
        return 0 if ok else 1

    cold = client.plan(**REQUEST)
    ok &= check(cold["meta"]["cache"] == "cold", "first plan is cold")
    ok &= check(cold["meta"]["verified"] is True, "cold plan verified")
    ok &= check(bool(cold["plan"]["stages"]), "plan document has stages")

    # the cold run's verify pass recorded its check on the stored plan,
    # so the first repeat is already answered on the server's event loop
    loop_before = client.stats()["counters"].get("service.loop_answers", 0)
    warm = client.plan(**REQUEST)
    ok &= check(warm["meta"]["cache"] == "warm", "repeat is a warm hit")
    ok &= check(warm["plan"] == cold["plan"], "warm plan is byte-identical")
    ok &= check(
        client.stats()["counters"].get("service.loop_answers", 0)
        == loop_before + 1,
        "the first repeat is a loop answer",
    )

    warm_before = client.stats()["counters"]["service.warm_results"]
    repeats = [client.plan(**REQUEST) for _ in range(WARM_REPEATS)]
    ok &= check(
        all(r["meta"]["cache"] == "warm" for r in repeats),
        f"{WARM_REPEATS} warm repeats are warm hits",
    )
    ok &= check(
        all(r["plan"] == cold["plan"] for r in repeats),
        f"{WARM_REPEATS} warm repeats equal the cold plan",
    )
    warm_after = client.stats()["counters"]["service.warm_results"]
    ok &= check(
        warm_after - warm_before == WARM_REPEATS,
        f"stats count the {WARM_REPEATS} warm repeats",
    )

    # a budget whose search returns the primed layout takes the stored
    # plan of that layout: still a delta (it searched), verified under
    # its own budget, and counted as a layout hit
    hits_before = client.stats()["counters"].get("evaluate.layout_hits", 0)
    known = client.plan(**dict(REQUEST, options={"memory_budget_gb": 30}))
    ok &= check(known["meta"]["cache"] == "delta",
                "a budget on the primed layout is a delta")
    ok &= check(known["meta"]["verified"] is True,
                "a budget on the primed layout is verified")
    ok &= check(known["plan"] == cold["plan"],
                "a budget on the primed layout plans that layout")
    ok &= check(
        client.stats()["counters"].get("evaluate.layout_hits", 0)
        == hits_before + 1,
        "stats count the layout hit",
    )

    delta = client.replan(**dict(REQUEST, cluster={"preset": "v100x16"}))
    ok &= check(delta["meta"]["cache"] == "delta", "replan after resize is delta")
    ok &= check(
        "profile_tensors" in delta["meta"]["reused_passes"],
        "delta reused the profile tensors",
    )

    # same-model deltas at once (two clusters x two budgets): they share
    # the stored DP context and none waits on another
    deltas = [
        dict(REQUEST, cluster={"preset": preset},
             options={"memory_budget_gb": gb})
        for preset in ("v100x16", "v100x32") for gb in (2, 4)
    ]

    def replan(params):
        own = ServiceClient(args.host, args.port)
        try:
            return own.replan(**params)
        finally:
            own.close()

    with concurrent.futures.ThreadPoolExecutor(len(deltas)) as pool:
        answers = list(pool.map(replan, deltas))
    for params, answer in zip(deltas, answers):
        label = (f"concurrent replan {params['cluster']['preset']} at "
                 f"{params['options']['memory_budget_gb']} GiB")
        ok &= check(answer["meta"]["cache"] == "delta", f"{label} is delta")
        ok &= check(answer["meta"]["verified"] is True, f"{label} verified")
        checked = client.verify(plan=answer["plan"], model=params["model"],
                                cluster=params["cluster"],
                                batch_size=params["batch_size"])
        ok &= check(checked["verified"] is True,
                    f"{label} round-trip verifies")

    # 20 and 20.001 GiB mask the same band entries: the second budget's
    # stage search reuses the first's Algorithm-1 sweeps
    budgets = [
        dict(REQUEST, cluster={"preset": "v100x16"},
             options={"memory_budget_gb": gb})
        for gb in (20, 20.001)
    ]
    first = client.plan(**budgets[0])
    reused_before = client.stats()["counters"].get("search.sweeps_reused", 0)
    second = client.plan(**budgets[1])
    ok &= check(second["plan"] == first["plan"],
                "a budget that masks the same entries plans the same")
    ok &= check(
        client.stats()["counters"].get("search.sweeps_reused", 0)
        > reused_before,
        "stats count the sweeps the second budget reused",
    )
    # a third budget's node levels start from the stored answers that
    # still fit it, and no seeded level falls back
    counters = client.stats()["counters"]
    seeded_before = counters.get("search.levels_seeded", 0)
    third = client.plan(**dict(budgets[0], options={"memory_budget_gb": 14}))
    ok &= check(third["meta"]["verified"] is True,
                "a third budget's plan is verified")
    counters = client.stats()["counters"]
    ok &= check(counters.get("search.levels_seeded", 0) > seeded_before,
                "stats count the levels a stored answer seeded")
    ok &= check(counters.get("search.seed_fallbacks", 0) == 0,
                "no seeded level fell back")
    ok &= check("search.answers_bounded" in counters,
                "stats count the answers the sweep bounds removed")

    # a node loss on the two-node plan repairs in place and
    # re-verifies the repaired plan
    two_nodes = dict(REQUEST, cluster={"preset": "v100x16"})
    repaired = client.repair(
        **two_nodes, event={"type": "node_loss", "node_index": 1}
    )
    ok &= check(
        repaired["repair"]["used_full_replan"] is False,
        "node loss repairs in place "
        f"({repaired['repair']['fallback_reason'] or 'no fallback'})",
    )
    ok &= check(
        repaired["repair"]["surviving_devices"] == 8,
        "repair plans for the surviving devices",
    )

    try:
        client.replan(model={"preset": "bert-large"},
                      cluster={"preset": "v100x8"}, batch_size=64)
        ok &= check(False, "replan without a base returns 409 no_base")
    except ServiceHTTPError as exc:
        ok &= check(
            exc.http_status == 409 and exc.code == "no_base",
            "replan without a base returns 409 no_base",
        )

    # the cluster object owns the comm model, presets included
    topology = client.plan(**dict(
        REQUEST, cluster={"preset": "v100x8", "comm_model": "topology"}
    ))
    ok &= check(
        topology["meta"]["fingerprint"] != cold["meta"]["fingerprint"],
        "a topology preset cluster plans under its own key",
    )

    malformed = [
        ("option", {"options": {"mode": "foo"}}),
        # every plan is priced under the flush schedule, and the comm
        # model belongs to the cluster object: neither is an option
        ("option schedule", {"options": {"schedule": "sync"}}),
        ("option comm_model", {"options": {"comm_model": "topology"}}),
    ]
    for label, overrides in malformed + MALFORMED_NUMBERS:
        try:
            client.plan(**dict(REQUEST, **overrides))
            ok &= check(False, f"malformed {label} returns 400 bad_request")
        except ServiceHTTPError as exc:
            ok &= check(
                exc.http_status == 400 and exc.code == "bad_request",
                f"malformed {label} returns 400 bad_request",
            )

    verify = client.verify(plan=cold["plan"], model=REQUEST["model"],
                           cluster=REQUEST["cluster"],
                           batch_size=REQUEST["batch_size"])
    ok &= check(verify["verified"] is True, "served plan round-trip verifies")

    sim = client.simulate(**REQUEST)
    ok &= check(sim["timeline"]["makespan"] > 0, "simulate reports a timeline")

    stats = client.stats()
    ok &= check(stats["counters"]["service.requests"] >= 4, "stats count requests")
    ok &= check(stats["counters"]["service.verify_requests"] >= 1,
                "stats count verify requests")
    ok &= check("warm" in stats["latency_ms"], "stats report warm latency")

    broken = dict(cold["plan"])
    broken["stages"] = []
    try:
        client.verify(plan=broken, model=REQUEST["model"],
                      cluster=REQUEST["cluster"],
                      batch_size=REQUEST["batch_size"])
        ok &= check(False, "mutilated document fails verification")
    except ServiceHTTPError as exc:
        ok &= check(exc.http_status == 422,
                    "mutilated document fails verification")

    client.close()
    if not ok:
        print("SMOKE FAIL")
        return 1
    print("smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
