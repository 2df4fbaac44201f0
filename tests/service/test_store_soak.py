"""Soak the plan engine's artifact store under a small memory cap.

A few hundred distinct memory-budget deltas, each followed by a repeat
of an earlier budget, run through one ``PlanEngine`` whose memory tier
is capped well below its working set, so entries and layouts are
evicted all along.  After every request the tier's accounting must
hold: its bytes are the sum of its entries' weights and stay under the
cap (a lone entry larger than the cap excepted), and the layout index
holds only layouts an entry still holds.  Every answer passes
:mod:`repro.verify` under its own budget; a repeat of a stored plan is
``warm`` and the same bytes, and a repeat of an evicted one is replanned
(``delta`` or ``cold``) into the bytes a fresh engine serves.
"""

import random

from repro.partitioner.deployment import plan_from_json
from repro.service import PlanEngine
from repro.service.protocol import build_cluster, build_model
from repro.verify import check_plan

GiB = 2**30
MODEL = {"family": "bert", "hidden": 64, "layers": 4, "heads": 4}
CLUSTER = {"preset": "v100x8"}
#: the DP context and a few plans: far below the soak's working set
CAP = 1 << 20
DELTAS = 240


def params(gb):
    return {
        "model": MODEL,
        "cluster": CLUSTER,
        "batch_size": 64,
        "options": {"memory_budget_gb": gb},
    }


def check_tier(store):
    with store._lock:
        live = list(store._mem.values())
        total = store._mem_bytes
        layouts = list(store._layouts.values())
        held = {art.key: art for art in live}
    assert total == sum(art.nbytes for art in live)
    assert total <= CAP or (len(live) == 1 and live[0].nbytes > CAP)
    for layout in layouts:
        assert layout.holders
        for art in layout.holders:
            assert held.get(art.key) is art
            assert art.layout is layout


def test_deltas_and_repeats_under_a_memory_cap():
    graph, _ = build_model(MODEL)
    cluster, _ = build_cluster(CLUSTER)
    rng = random.Random(0)
    budgets = [round(0.2 + 2.8 * i / DELTAS, 4) for i in range(DELTAS)]
    rng.shuffle(budgets)
    engine = PlanEngine(workers=1, store_memory_budget_bytes=CAP)
    served = {}  # budget -> (fingerprint, first document)
    evicted_repeats = warm_repeats = 0
    for i, gb in enumerate(budgets):
        schedule = [gb] + ([rng.choice(budgets[:i])] if i else [])
        for budget in schedule:
            fingerprint, document = served.get(budget, (None, None))
            stored = (
                fingerprint is not None
                and f"evaluated:{fingerprint}" in engine.store
            )
            result = engine.handle("plan", params(budget))
            meta, text = result["meta"], result["plan"].text
            check_tier(engine.store)
            assert meta["verified"]
            report = check_plan(
                plan_from_json(text, graph, cluster, verify=False),
                graph,
                cluster,
                memory_budget=budget * GiB,
            )
            assert report.ok, report.violations
            if document is None:
                served[budget] = (meta["fingerprint"], text)
            elif stored:
                warm_repeats += 1
                assert meta["cache"] == "warm"
                assert text == document
            else:
                evicted_repeats += 1
                assert meta["cache"] in ("delta", "cold")
                fresh = PlanEngine(workers=1).handle("plan", params(budget))
                assert text == fresh["plan"].text == document
    counters = engine.store.counters()
    assert counters["memory_evictions"] > 0
    assert warm_repeats > 0 and evicted_repeats > 0
