"""Planning-path overhead: cold plan vs. whole-plan cache hit.

The planner keeps RaNNC's cached "deployments" as the artifact store's
whole-plan entry; this benchmark records ``auto_partition`` wall time
for BERT-Base on the paper cluster with an empty cache (full
three-phase search) and with a warm ``cache_dir`` (fingerprint chain +
one JSON read + re-evaluation + verification), so future PRs can track
both paths.

Each ``auto_partition`` call gets a fresh artifact store, so every hit
here is a disk hit and its decode verifies the plan.  Verification
records, which let repeated hits skip the check, live on a long-lived
store's memory tier: the plan service's warm path
(``bench_service.py`` and the ledger's ``daemon-mixed`` workload)
measures that case.
"""

import shutil
import tempfile

from repro.hardware import paper_cluster
from repro.models import BertConfig, build_bert
from repro.partitioner import auto_partition


def _bert_base():
    return build_bert(BertConfig(hidden_size=768, num_layers=12,
                                 num_heads=12))


def test_plan_bert_base_cold(benchmark):
    """Full pipeline, no cache directory configured."""
    cluster = paper_cluster()
    graph = _bert_base()
    plan = benchmark.pedantic(
        lambda: auto_partition(graph, cluster, 256),
        rounds=3, iterations=1,
    )
    assert plan.throughput > 0
    assert not plan.diagnostics.cache_hit


def test_plan_bert_base_cache_hit(benchmark):
    """Warm cache directory: every compute pass must be skipped."""
    cluster = paper_cluster()
    graph = _bert_base()
    cache_dir = tempfile.mkdtemp(prefix="bench_planner_cache_")
    try:
        cold = auto_partition(graph, cluster, 256, cache_dir=cache_dir)
        plan = benchmark.pedantic(
            lambda: auto_partition(graph, cluster, 256, cache_dir=cache_dir),
            rounds=5, iterations=1,
        )
        assert plan.diagnostics.cache_hit
        assert plan.diagnostics.dp_calls == 0
        assert plan.throughput == cold.throughput
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
