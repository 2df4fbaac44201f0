"""Planner ledger: end-to-end and per-layer benchmark of the planner.

Three workloads, each run in fresh processes of its own:

* ``paper-cold``   -- closed loop, one caller: shuffled rounds of the 9
  pinned presets (bert-base/bert-large/resnet50x8 x v100x8/16/32), each
  call on a fresh graph and a fresh planning context, no cache;
* ``gpt10k-cold``  -- ``gpt3_like(depth=420)`` (10,086 tasks) on v100x32,
  one plan per fresh process, like a ``repro plan`` call;
* ``daemon-mixed`` -- open-loop seeded arrivals against ``repro serve``:
  70 % warm repeats, 25 % deltas (a fresh memory budget), 5 % cold models.

Every emitted plan is checked (pinned fixture, ``verified: true``, equal
repeated plans); a wrong plan makes the command exit 1.  Usage::

    # one workload; the last stdout line is the JSON result
    PYTHONPATH=src python benchmarks/ledger/run.py --workload paper-cold \\
        --seed 1 --seconds 30 --trace 0
    # every workload; --trace reruns them traced and writes a Perfetto trace
    PYTHONPATH=src python benchmarks/ledger/run.py --seed 1 \\
        --out results.json --trace trace.json
    # median/quartile ledger over repeats, and the comparison against it
    PYTHONPATH=src python benchmarks/ledger/run.py --seed 1 --repeat 5 \\
        --trace 1 --out benchmarks/ledger/baseline.json
    python benchmarks/ledger/run.py --compare benchmarks/ledger/baseline.json \\
        results.json

The script finds ``src/`` itself, so ``PYTHONPATH`` is optional.  Exit
codes: 0 ok, 1 a wrong plan or a comparison beyond its bound, 2 not run
from a repository checkout, 3 an invalid run (see ``validate``).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
PINNED = ROOT / "tests" / "data" / "pinned_plans.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".ledger"

sys.path.insert(0, str(HERE))

import daemon  # noqa: E402
from recorder import chrome_trace  # noqa: E402

WORKLOADS = ("paper-cold", "gpt10k-cold", "daemon-mixed")
PAPER_COMBOS = [f"{m}/{c}" for m in ("bert-base", "bert-large", "resnet50x8")
                for c in ("v100x8", "v100x16", "v100x32")]
#: workload knobs of a full run and of ``--smoke``
FULL = {
    "paper-cold": {"combos": PAPER_COMBOS, "setups": 3, "min_rounds": 12},
    "gpt10k-cold": {"depth": 420, "blocks": 768, "min_plans": 3},
    "daemon-mixed": {"rate": 3.5, "setups": 3},
}
SMOKE = {
    "paper-cold": {"combos": ["bert-base/v100x8"], "setups": 1,
                   "min_rounds": 1, "seconds": 0.0},
    "gpt10k-cold": {"depth": 8, "blocks": 32, "min_plans": 3, "seconds": 0.0},
    "daemon-mixed": {"rate": 2.0, "setups": 1, "seconds": 5.0},
}
GPT_BATCH, GPT_NODES = 2048, 4
#: the latency limit of ``slo_attain_frac``, per workload: the daemon's
#: interactive limit, and about 3x the typical plan on the cold ones
SLO_MS = {"paper-cold": 1000.0, "gpt10k-cold": 20000.0, "daemon-mixed": 500.0}
#: fewest timed operations a full run must make to be reported
MIN_OPS = {"paper-cold": 100, "gpt10k-cold": 3, "daemon-mixed": 100}
MAX_DISPATCH_LATE_MS = 20.0
#: a last-quarter median queue wait below this is no backlog
BACKLOG_MIN_WAIT_MS = 50.0
PASSES = ("validate", "cache_load", "atomic_partition", "coarsen",
          "profile_tensors", "stage_search", "allocate", "evaluate",
          "verify", "cache_store")
CHILD_TIMEOUT_S = 150


class InvalidRun(Exception):
    """The measurement itself is unusable (not the program's fault)."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def pct(values, q):
    """The ``q``-th percentile, interpolated between closest ranks."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def geomean(values):
    values = [v for v in values if v]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# ----------------------------------------------------------------------
# running the workloads
# ----------------------------------------------------------------------
def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(kind, *args, trace):
    """One ``workers.py`` child; returns its JSON document."""
    cmd = [sys.executable, str(HERE / "workers.py"), kind, *map(str, args),
           "--trace", str(int(trace)),
           "--spawn-at", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} child failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_paper(knobs, seed, seconds, trace):
    """``setups`` children, each planning its share of the rounds."""
    setups = knobs["setups"]
    rounds = -(-knobs["min_rounds"] // setups)
    return [spawn("paper", "--combos", ",".join(knobs["combos"]),
                  "--seconds", seconds / setups, "--min-rounds", rounds,
                  "--seed", seed * 100 + i, trace=trace)
            for i in range(setups)]


def run_gpt(knobs, seconds, trace):
    """Fresh-process plans until ``seconds`` pass (``min_plans`` at least)."""
    children = []
    start = time.monotonic()
    while (len(children) < knobs["min_plans"]
           or time.monotonic() - start < seconds):
        children.append(spawn("gpt", "--depth", knobs["depth"],
                              "--blocks", knobs["blocks"],
                              "--batch", GPT_BATCH, "--nodes", GPT_NODES,
                              trace=trace))
    return {"children": children, "wall_s": time.monotonic() - start}


def run_workload(name, seed, seconds, trace, smoke, pinned):
    knobs = (SMOKE if smoke else FULL)[name]
    seconds = knobs.get("seconds", seconds)
    if name == "paper-cold":
        return {"children": run_paper(knobs, seed, seconds, trace)}
    if name == "gpt10k-cold":
        return run_gpt(knobs, seconds, trace)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="daemon-", dir=WORK))
    try:
        return daemon.run(seed, seconds, knobs["rate"], trace,
                          knobs["setups"], work, child_env(), pinned)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def load_pinned(path):
    """``{preset/cluster: checked plan fields}`` from the pinned fixture."""
    doc = json.loads(Path(path).read_text())
    return {key: {"boundaries": v["boundaries"], "devices": v["devices"],
                  "microbatch_sizes": v["microbatch_sizes"],
                  "num_microbatches": v["num_microbatches"],
                  "replica_factor": v["replica_factor"]}
            for key, v in doc.items()}


def check_plans(name, plans, pinned):
    """Mark each plan ``ok``.  paper-cold plans must equal the pinned
    fixture; gpt10k-cold plans must all be equal to each other."""
    if name == "paper-cold":
        for p in plans:
            p["ok"] = p["error"] is None and p["summary"] == pinned[p["key"]]
        return
    found = [json.dumps(p["summary"], sort_keys=True)
             for p in plans if p["error"] is None]
    common = max(set(found), key=found.count) if found else None
    agree = found.count(common) == len(plans)
    for p in plans:
        p["ok"] = agree and p["error"] is None


def validate(name, raw, smoke):
    """Reject a run whose numbers would not mean what they claim."""
    ops = raw["attempted"]
    if not smoke and ops < MIN_OPS[name]:
        raise InvalidRun(f"{name}: {ops} timed operations, fewer than "
                         f"{MIN_OPS[name]}")
    if name != "daemon-mixed":
        return
    late = pct([r["late_ms"] for r in raw["records"]], 95)
    if late > MAX_DISPATCH_LATE_MS:
        raise InvalidRun(f"daemon-mixed: the load generator dispatched "
                         f"{late:.1f} ms late at p95 (limit "
                         f"{MAX_DISPATCH_LATE_MS:.0f} ms)")
    # A backlog is requests waiting for a free connection.  Its median
    # over a quarter rises only when most requests wait, so one Poisson
    # burst does not trip it, while an overloaded server does.
    quarter = max(1, len(raw["records"]) // 4)
    first = pct([r["conn_wait_ms"] for r in raw["records"][:quarter]], 50)
    last = pct([r["conn_wait_ms"] for r in raw["records"][-quarter:]], 50)
    if last > max(2 * first, BACKLOG_MIN_WAIT_MS):
        raise InvalidRun(f"daemon-mixed: growing backlog, median queue wait "
                         f"{first:.1f} ms in the first quarter, {last:.1f} ms "
                         f"in the last")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(name, raw, pinned):
    """The end-to-end metrics, plus ``attempted``/``failed`` counts.

    A *call* is one timed operation: a ``plan_graph`` call, or a daemon
    request timed from when it was due.  ``plan_ms_p50`` covers the calls
    that computed a plan (every cold call; the daemon's delta and cold
    requests), so on the daemon ``call_ms_p10`` is the warm path and
    ``call_ms_p90`` the planning tail."""
    if name == "daemon-mixed":
        calls, key = raw["records"], "latency_ms"
        planned = [r[key] for r in calls if r["label"] in ("delta", "cold")]
        end = max(r["send_ns"] + r["service_ms"] * 1e6 for r in calls)
        wall_s = (end - raw["t0_ns"]) / 1e9
        setup_s, rss = raw["setup_s"], [raw["peak_rss_mib"]]
    else:
        calls, key = [p for c in raw["children"] for p in c["plans"]], "plan_ms"
        check_plans(name, calls, pinned)
        planned = [p[key] for p in calls if p["error"] is None]
        wall_s = (sum(c["loop_s"] for c in raw["children"])
                  if name == "paper-cold" else raw["wall_s"])
        setup_s = [c["setup_s"] for c in raw["children"]]
        rss = [c["peak_rss_mib"] for c in raw["children"]]
    latency = [c[key] for c in calls if key in c]
    ok = [c for c in calls if c["ok"]]
    raw["attempted"], raw["failed"] = len(calls), len(calls) - len(ok)
    return {
        "setup_s": statistics.median(setup_s),
        "plan_ms_p50": pct(planned, 50),
        "call_ms_p10": pct(latency, 10),
        "call_ms_p90": pct(latency, 90),
        "plans_per_s": len(ok) / wall_s,
        "peak_rss_mib": statistics.median(rss),
        "plan_samples_per_s": geomean([c["throughput"] for c in ok]),
        "slo_attain_frac": sum(c[key] <= SLO_MS[name]
                               for c in ok) / len(calls),
    }


def _ms(span):
    return (span[2] - span[1]) / 1e6


def per_layer(name, raw):
    """The per-layer table of a traced run, from its spans and counters."""
    if name == "daemon-mixed":
        spans = [s for s in raw["spans"] if s[1] >= raw["t0_ns"]]
        plans, recs = [], raw["records"]
    else:
        spans = [s for c in raw["children"] for s in c["spans"]]
        plans = [p for c in raw["children"] for p in c["plans"]
                 if p["error"] is None]
        recs = []
    by = {}
    for s in spans:
        by.setdefault(s[0], []).append(s)
    runs = max(1, len(by.get("planner.manager.run", [])))

    def total(span_name):
        return sum(_ms(s) for s in by.get(span_name, []))

    m = {}
    for p in PASSES:
        m[f"planner.pass.{p}.ms"] = total(f"planner.pass.{p}") / runs
    for p in ("coarsen", "profile_tensors", "stage_search"):
        m[f"planner.pass.{p}.rss_delta_mib"] = max(
            [s[7]["rss_delta_mib"] for s in by.get(f"planner.pass.{p}", [])],
            default=0.0)
    search = by.get("planner.pass.stage_search", [])
    states = sum(s[7].get("states_evaluated", 0) for s in search)
    busy = total("stage_dp.call")
    m["stage_dp.calls"] = len(by.get("stage_dp.call", [])) / runs
    m["stage_dp.busy_ms"] = busy / runs
    m["stage_dp.states"] = states / runs
    m["stage_dp.ns_per_state"] = busy * 1e6 / states if states else 0.0
    m["search.parallelism"] = (busy / total("planner.pass.stage_search")
                               if search else 0.0)
    loads = by.get("planner.pass.cache_load", [])
    m["cache.hit_ratio"] = (sum(bool(s[7].get("hit")) for s in loads)
                            / len(loads) if loads else 0.0)
    gets = by.get("store.get", [])
    m["store.get.calls"] = len(gets) / runs
    m["store.get.ms"] = total("store.get") / runs
    m["store.hit_ratio"] = (sum(s[7]["hit"] for s in gets) / len(gets)
                            if gets else 0.0)
    m["store.put.calls"] = len(by.get("store.put", [])) / runs
    m["store.put.ms"] = total("store.put") / runs
    m["store.refresh.ms"] = total("store.refresh") / runs
    store_ms = sum(total(f"store.{op}") for op in ("get", "put", "refresh"))
    pass_ms = sum(total(f"planner.pass.{p}") for p in PASSES)
    m["manager.overhead_ms"] = (total("planner.manager.run") - pass_ms
                                - store_ms) / runs
    m["profiler.memo_hit_rate"] = mean([p["memo_hit_rate"] for p in plans])
    handles = by.get("service.handle", [])
    m["normalize.ms"] = pct([_ms(s) for s in by.get("service.normalize", [])],
                            50)
    for cls in ("warm", "delta", "cold"):
        mine = [s for s in handles if s[7]["cache"] == cls]
        m[f"handle.ms.{cls}"] = pct([_ms(s) for s in mine], 50)
        m[f"class.{cls}_frac"] = len(mine) / len(handles) if handles else 0.0
    m["coalesced_frac"] = (sum(s[7]["coalesced"] for s in handles)
                           / len(handles) if handles else 0.0)
    m["transport_ms_mean"] = (mean([r["service_ms"] for r in recs])
                              - mean([_ms(s) for s in handles])
                              if handles else 0.0)
    for label in ("warm", "delta"):
        m[f"client.{label}_ms_p50"] = pct(
            [r["latency_ms"] for r in recs if r["label"] == label], 50)
    m["client.conn_wait_ms_mean"] = mean([r["conn_wait_ms"] for r in recs])
    m["client.dispatch_late_ms_p95"] = pct([r["late_ms"] for r in recs], 95)
    m["graph_build.ms"] = mean([p["build_ms"] for p in plans])
    m["trace.plan_runs"] = len(by.get("planner.manager.run", []))
    m["trace.spans"] = len(spans)
    # pass + store + overhead time per run against the callers' plan time
    # (the cold workloads only: the daemon's callers time whole requests)
    if plans:
        m["_accounting_gap_frac"] = 1 - (
            total("planner.manager.run") / runs
        ) / mean([p["plan_ms"] for p in plans])
    return m


def select(values, declared):
    """``{name: {"value", "unit"}}`` for every metric ``declared`` lists;
    a declared metric the code does not compute is a bug, not a zero."""
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared but not computed: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in declared}


# ----------------------------------------------------------------------
# one measured run of one workload
# ----------------------------------------------------------------------
def measure(name, seed, seconds, trace, smoke, pinned):
    """Run one workload; returns ``(e2e, layers, raw)``."""
    raw = run_workload(name, seed, seconds, trace, smoke, pinned)
    e2e = end_to_end(name, raw, pinned)
    validate(name, raw, smoke)
    layers = per_layer(name, raw) if trace else None
    return e2e, layers, raw


def trace_processes(name, raw):
    if name == "daemon-mixed":
        return {f"{name}/server": raw.get("spans", [])}
    return {f"{name}/child-{i}": c["spans"]
            for i, c in enumerate(raw["children"])}


def print_metrics(name, values, declared):
    for d in declared:
        print(f"{name:13s} {d['name']:30s} {values[d['name']]:14.4f} "
              f"{d['unit']}")


def run_one(args, spec, pinned):
    """The single-workload mode: human lines, then the JSON result."""
    trace = args.trace != "0"
    e2e, layers, raw = measure(args.workload, args.seed, args.seconds, trace,
                               args.smoke, pinned)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = layers if trace else e2e
    print_metrics(args.workload, values, declared)
    if trace:
        path = trace_path(args.trace, f"trace-{args.workload}.json")
        write_trace(path, trace_processes(args.workload, raw))
        print(f"trace written to {path}")
    correct = raw["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": select(values, declared)}))
    return 0 if correct else 1


def trace_path(value, default):
    if value in ("0", "1"):
        WORK.mkdir(exist_ok=True)
        return WORK / default
    return Path(value)


def write_trace(path, processes):
    Path(path).write_text(json.dumps(chrome_trace(processes)))


# ----------------------------------------------------------------------
# the all-workload ledger mode
# ----------------------------------------------------------------------
def environment():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
    }


def summarize(samples, declared):
    """``{metric: {unit, median, q1, q3, values}}`` over repeated runs."""
    out = {}
    for d in declared:
        values = [s[d["name"]] for s in samples]
        q1, med, q3 = quartiles(values)
        out[d["name"]] = {"unit": d["unit"], "median": med, "q1": q1,
                          "q3": q3, "values": values}
    return out


def run_all(args, spec, pinned):
    """Every workload, ``--repeat`` times untraced (alternating the
    workload order).  With ``--trace``, each workload's last untraced run
    is followed at once by a traced one: the overhead is taken from that
    adjacent pair, so a drifting host moves both sides alike."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    samples = {n: [] for n in names}
    entries = {n: {"attempted": [], "failed": []} for n in names}
    processes = {}
    wrong = False
    for rep in range(args.repeat):
        for name in (names if rep % 2 == 0 else names[::-1]):
            e2e, _, raw = measure(name, args.seed, args.seconds, False,
                                  args.smoke, pinned)
            samples[name].append(e2e)
            entries[name]["attempted"].append(raw["attempted"])
            entries[name]["failed"].append(raw["failed"])
            wrong |= raw["failed"] > 0
            print_metrics(name, e2e, spec["end_to_end"])
            if args.trace == "0" or rep < args.repeat - 1:
                continue
            traced, layers, raw = measure(name, args.seed, args.seconds,
                                          True, args.smoke, pinned)
            wrong |= raw["failed"] > 0
            processes.update(trace_processes(name, raw))
            entry = entries[name]
            entry["trace_overhead_frac"] = (traced["plan_ms_p50"]
                                            / e2e["plan_ms_p50"] - 1)
            gap = layers.pop("_accounting_gap_frac", None)
            if gap is not None:
                entry["accounting_gap_frac"] = gap
            entry["per_layer"] = select(layers, spec["per_layer"])
            print_metrics(name, layers, spec["per_layer"])
            print(f"{name:13s} {'trace_overhead_frac':30s} "
                  f"{entry['trace_overhead_frac']:14.4f}")
            if gap is not None:
                print(f"{name:13s} {'accounting_gap_frac':30s} {gap:14.4f}")
    doc = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
           "repeat": args.repeat, "env": environment(), "workloads": {}}
    for name in names:
        doc["workloads"][name] = {
            "end_to_end": summarize(samples[name], spec["end_to_end"]),
            **entries[name],
        }
    if processes:
        path = trace_path(args.trace, "trace.json")
        write_trace(path, processes)
        print(f"trace written to {path}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n")
        print(f"results written to {args.out}")
    return 1 if wrong else 0


# ----------------------------------------------------------------------
# compare mode
# ----------------------------------------------------------------------
def compare(paths, spec):
    """One row per (workload, metric): baseline median, new median over
    every given results file, delta, and a flag beyond the bound."""
    base = json.loads(Path(paths[0]).read_text())
    news = [json.loads(Path(p).read_text()) for p in paths[1:]]
    flagged = 0
    print(f"{'workload':13s} {'metric':20s} {'baseline':>12s} {'new':>12s} "
          f"{'delta':>8s} {'bound':>6s}")
    for name, entry in base["workloads"].items():
        for d in spec["end_to_end"]:
            values = [v for doc in news
                      for v in doc["workloads"].get(name, {}).get(
                          "end_to_end", {}).get(d["name"], {}).get(
                          "values", [])]
            if not values or d["name"] not in entry["end_to_end"]:
                continue
            old = entry["end_to_end"][d["name"]]["median"]
            new = statistics.median(values)
            delta = new / old - 1 if old else 0.0
            worse = delta if d["better"] == "lower" else -delta
            flag = "REGRESSION" if worse > d["bound"] else ""
            flagged += bool(flag)
            print(f"{name:13s} {d['name']:20s} {old:12.4f} {new:12.4f} "
                  f"{delta:+8.1%} {d['bound']:6.0%} {flag}")
    return 1 if flagged else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload and print the JSON result line")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per workload (BENCHMARK.json's "
                         "run_seconds by default)")
    ap.add_argument("--trace", default="0",
                    help="0: untraced; 1 or a path: traced, with the "
                         "Perfetto trace written to the path")
    ap.add_argument("--out", help="write the results document here")
    ap.add_argument("--repeat", type=int, default=1,
                    help="untraced repeats of every workload")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and a 5 s daemon window")
    ap.add_argument("--pinned", default=str(PINNED),
                    help="the pinned plan fixture paper-cold is checked "
                         "against")
    ap.add_argument("--compare", nargs="+", metavar="JSON",
                    help="baseline.json then results files: print deltas")
    args = ap.parse_args(argv)
    # a terminated run still reaps its children and servers (finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not SPEC.exists() or not (SRC / "repro" / "__init__.py").exists():
        print(f"run from a repository checkout: {SRC / 'repro'} or {SPEC} "
              f"is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.compare:
        return compare(args.compare, spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    pinned = load_pinned(args.pinned)
    try:
        if args.workload and args.out is None and args.repeat == 1:
            return run_one(args, spec, pinned)
        return run_all(args, spec, pinned)
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
