"""Plan-service latency under a Poisson load (cold / warm / delta).

Starts a real ``PlanServer`` (HTTP over a loopback socket, shared
on-disk artifact store) and drives it the way a fleet of users would:

1. **cold baseline** — every (model x cluster) grid point of the
   bert-base / bert-large x v100x8/16/32 mix once, each against a
   *dedicated* fresh-store server, so the cold distribution is what a
   cache-less deployment would serve (a shared store would turn all
   but the first request per model into deltas);
2. **burst** — N identical concurrent requests on the main server's
   first cold key, so the coalescing path is exercised
   deterministically (one leader run, N-1 coalesced followers);
3. **poisson** — an open-loop arrival stream with exponential
   inter-arrival times (seeded, reproducible): each arrival picks a
   grid point uniformly and, with probability ``--delta-fraction``,
   perturbs a planner knob (memory budget or microbatch cap) -- a
   *delta* request that reruns only the stage search onward.
   First-seen grid points are themselves deltas (a cluster resize
   against the warm model family).

Responses self-classify (``meta.cache`` = cold/warm/delta,
``meta.coalesced``), so the report needs no clock heuristics.  Both
client wall time and the server's ``plan_ms`` (pipeline execution
alone) are reported; the delta/cold ratio is gated on ``plan_ms``
because wall time under an open-loop load includes queueing delay,
which on a single-core CI host says more about the arrival pattern
than about what replanning reuses.  The report also records the p50 of
each server-side phase of the warm requests (``meta.timings``:
normalize, pipeline, encode) under
``warm_timings_p50_ms``; it is reported, not gated.  CI budgets, any
violation exits non-zero:

* warm p50 <= 150 ms client wall (store reuse + verify + HTTP);
* delta p50 <= 50 % of cold p50 on ``plan_ms`` (the reused
  profiling/coarsening is the point -- same budget as
  ``bench_replan.py``);
* coalescing rate > 0 (the burst must actually coalesce);
* every served plan reports ``verified: true``.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --out BENCH_service.json
"""

import argparse
import concurrent.futures
import json
import random
import shutil
import sys
import tempfile
import time

from repro.service import PlanServer, ServiceClient

WARM_P50_BUDGET_MS = 150.0
DELTA_OVER_COLD_BUDGET = 0.50

#: the request mix: (label, model object, cluster object)
GRID = [
    (f"{model}@{cluster}", {"preset": model}, {"preset": cluster})
    for model in ("bert-base", "bert-large")
    for cluster in ("v100x8", "v100x16", "v100x32")
]
BATCH_SIZE = 256

#: knob perturbations the delta arrivals cycle through; each value
#: first seen per grid point is a delta (stage search reruns),
#: repeats are warm
DELTA_OPTIONS = (
    {"memory_budget_gb": 28.0},
    {"max_microbatches": 24},
    {"max_microbatches": 16},
    {"max_microbatches": 8},
)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def one_request(port, model, cluster, options=None):
    """One plan request on its own connection; returns (meta, wall_ms)."""
    client = ServiceClient(port=port)
    try:
        params = {"model": model, "cluster": cluster,
                  "batch_size": BATCH_SIZE}
        if options:
            params["options"] = options
        t0 = time.perf_counter()
        result = client.plan(**params)
        wall_ms = (time.perf_counter() - t0) * 1e3
        return result["meta"], wall_ms
    finally:
        client.close()


def run_cold_baseline(workers):
    """One request per grid point, each on a dedicated fresh server."""
    samples = []
    for label, model, cluster in GRID:
        cache_dir = tempfile.mkdtemp(prefix="bench_service_cold_")
        server = PlanServer(workers=workers,
                            cache_dir=cache_dir).start_in_thread()
        try:
            meta, wall_ms = one_request(server.port, model, cluster)
            samples.append((meta, wall_ms))
            print(f"cold baseline: {label:24s} {meta['cache']:5s} "
                  f"{wall_ms:8.1f} ms")
        finally:
            server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)
    return samples


def run_burst(port, size):
    """``size`` identical concurrent requests on a cold key."""
    model, cluster = GRID[0][1], GRID[0][2]
    with concurrent.futures.ThreadPoolExecutor(size) as pool:
        futures = [pool.submit(one_request, port, model, cluster)
                   for _ in range(size)]
        return [f.result() for f in futures]


def run_poisson(port, rng, rate_hz, n_requests, delta_fraction, workers=8):
    """Open-loop Poisson arrivals; returns the (meta, wall_ms) list."""
    samples = []
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        futures = []
        next_arrival = time.perf_counter()
        for _ in range(n_requests):
            next_arrival += rng.expovariate(rate_hz)
            delay = next_arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _label, model, cluster = rng.choice(GRID)
            options = None
            if rng.random() < delta_fraction:
                options = rng.choice(DELTA_OPTIONS)
            futures.append(
                pool.submit(one_request, port, model, cluster, options)
            )
        samples = [f.result() for f in futures]
    return samples


def classify(samples):
    """Bucket (meta, wall_ms) samples by the server's own labels.

    Returns ``{class: {"wall": [...], "plan": [...], "timings": [...]}}``
    plus the count of unverified plans.  ``plan`` is the server-side
    pipeline time (the leader's, for coalesced followers); ``timings``
    holds each response's ``meta.timings`` phase breakdown.
    """
    byclass = {}
    unverified = 0
    for meta, wall_ms in samples:
        kind = "coalesced" if meta.get("coalesced") else meta["cache"]
        bucket = byclass.setdefault(
            kind, {"wall": [], "plan": [], "timings": []}
        )
        bucket["wall"].append(wall_ms)
        bucket["plan"].append(meta["plan_ms"])
        bucket["timings"].append(meta["timings"])
        if not meta.get("verified"):
            unverified += 1
    return byclass, unverified


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the JSON report here")
    ap.add_argument("--seed", type=int, default=20210517)
    ap.add_argument("--rate", type=float, default=6.0,
                    help="Poisson arrival rate (req/s)")
    ap.add_argument("--requests", type=int, default=48,
                    help="arrivals in the Poisson phase")
    ap.add_argument("--delta-fraction", type=float, default=0.3,
                    help="fraction of arrivals that perturb the memory "
                         "budget (delta requests)")
    ap.add_argument("--burst", type=int, default=6,
                    help="size of the deterministic coalescing burst")
    ap.add_argument("--workers", type=int, default=4,
                    help="server pipeline thread-pool size")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    cache_dir = tempfile.mkdtemp(prefix="bench_service_")
    server = PlanServer(
        workers=args.workers,
        cache_dir=cache_dir,
        cache_budget_bytes=256 * 2**20,
    ).start_in_thread()
    print(f"plan service on 127.0.0.1:{server.port} "
          f"(workers={args.workers}, cache={cache_dir})")

    try:
        t0 = time.perf_counter()
        samples = run_cold_baseline(args.workers)

        burst = run_burst(server.port, args.burst)
        samples += burst
        print(f"burst: {args.burst} identical concurrent requests, "
              f"{sum(1 for m, _ in burst if m.get('coalesced'))} coalesced")

        poisson = run_poisson(server.port, rng, args.rate, args.requests,
                              args.delta_fraction)
        samples += poisson
        elapsed = time.perf_counter() - t0

        byclass, unverified = classify(samples)
        coalesced_n = len(byclass.get("coalesced", {}).get("wall", []))
        rate = len(samples) / elapsed
        warm_timings = byclass.get("warm", {}).get("timings", [])
        report = {
            "config": {
                "seed": args.seed,
                "rate_hz": args.rate,
                "requests": len(samples),
                "delta_fraction": args.delta_fraction,
                "burst": args.burst,
                "workers": args.workers,
                "grid": [label for label, _m, _c in GRID],
                "batch_size": BATCH_SIZE,
            },
            "achieved_rate_hz": rate,
            "coalescing_rate": coalesced_n / len(samples),
            "warm_timings_p50_ms": {
                phase: percentile([t[phase] for t in warm_timings], 50)
                for phase in (warm_timings[0] if warm_timings else ())
            },
            "unverified_plans": unverified,
            "classes": {
                kind: {
                    "count": len(bucket["wall"]),
                    "p50_ms": percentile(bucket["wall"], 50),
                    "p99_ms": percentile(bucket["wall"], 99),
                    "mean_ms": sum(bucket["wall"]) / len(bucket["wall"]),
                    "plan_p50_ms": percentile(bucket["plan"], 50),
                    "plan_p99_ms": percentile(bucket["plan"], 99),
                }
                for kind, bucket in sorted(byclass.items())
            },
            "server_stats": ServiceClient(port=server.port).stats(),
        }
    finally:
        server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)

    print(f"\n{len(samples)} requests in {elapsed:.1f}s "
          f"({rate:.1f} req/s achieved)")
    for kind, stats in report["classes"].items():
        print(f"  {kind:10s} n={stats['count']:3d} "
              f"p50={stats['p50_ms']:8.1f}ms p99={stats['p99_ms']:8.1f}ms "
              f"plan_p50={stats['plan_p50_ms']:8.1f}ms")
    print(f"  coalescing rate: {report['coalescing_rate']:.1%}")
    print("  warm phases (p50): " + ", ".join(
        f"{phase}={ms:.2f}ms"
        for phase, ms in report["warm_timings_p50_ms"].items()))

    failures = []
    warm = report["classes"].get("warm")
    cold = report["classes"].get("cold")
    delta = report["classes"].get("delta")
    if warm is None or cold is None:
        failures.append("stream produced no warm or no cold samples")
    if warm and warm["p50_ms"] > WARM_P50_BUDGET_MS:
        failures.append(
            f"warm p50 {warm['p50_ms']:.1f} ms exceeds the "
            f"{WARM_P50_BUDGET_MS:.0f} ms budget"
        )
    if delta and cold and (
        delta["plan_p50_ms"] > DELTA_OVER_COLD_BUDGET * cold["plan_p50_ms"]
    ):
        failures.append(
            f"delta plan p50 {delta['plan_p50_ms']:.1f} ms exceeds "
            f"{DELTA_OVER_COLD_BUDGET:.0%} of cold plan p50 "
            f"({cold['plan_p50_ms']:.1f} ms)"
        )
    if report["coalescing_rate"] <= 0:
        failures.append("coalescing rate is 0 (the burst never coalesced)")
    if unverified:
        failures.append(f"{unverified} served plan(s) not verified")
    report["budget_failures"] = failures

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")

    if failures:
        for failure in failures:
            print(f"BUDGET FAIL: {failure}")
        return 1
    print("budgets OK (warm p50, delta/cold ratio, coalescing, verification)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
