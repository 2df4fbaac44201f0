"""Tests for the deployment cache (plan JSON round-trip) and plan-driven
runtime execution (PartitionedExecutor.from_plan)."""

import json

import numpy as np
import pytest

from repro.hardware import paper_cluster, tiny_cluster
from repro.models import BertConfig, build_bert, build_mlp
from repro.partitioner import auto_partition
from repro.partitioner.deployment import (
    DeploymentMismatchError,
    graph_fingerprint,
    plan_from_json,
    plan_to_json,
)
from repro.runtime import Executor, PartitionedExecutor, init_parameters
from repro.verify import PlanVerificationError


@pytest.fixture(scope="module")
def bert_setup():
    cfg = BertConfig(hidden_size=32, num_layers=2, num_heads=4, seq_len=16,
                     vocab_size=101)
    graph = build_bert(cfg)
    cluster = paper_cluster()
    plan = auto_partition(graph, cluster, 64)
    return cfg, graph, cluster, plan


class TestFingerprint:
    def test_stable(self, mlp_graph):
        assert graph_fingerprint(mlp_graph) == graph_fingerprint(mlp_graph)

    def test_sensitive_to_content(self):
        a = graph_fingerprint(build_mlp((8, 16, 4)))
        b = graph_fingerprint(build_mlp((8, 17, 4)))
        assert a != b


class TestRoundTrip:
    def test_plan_preserved(self, bert_setup):
        _, graph, cluster, plan = bert_setup
        text = plan_to_json(plan, graph)
        restored = plan_from_json(text, graph, cluster)
        assert restored.num_stages == plan.num_stages
        assert restored.num_microbatches == plan.num_microbatches
        assert restored.replica_factor == plan.replica_factor
        assert restored.batch_size == plan.batch_size
        for a, b in zip(restored.stages, plan.stages):
            assert a.tasks == b.tasks
            assert a.devices_per_pipeline == b.devices_per_pipeline
            assert a.profile.time_fwd == pytest.approx(b.profile.time_fwd)
        # throughput re-evaluated identically
        assert restored.throughput == pytest.approx(plan.throughput)

    def test_wrong_graph_rejected(self, bert_setup):
        _, graph, cluster, plan = bert_setup
        text = plan_to_json(plan, graph)
        other = build_mlp((8, 16, 4))
        with pytest.raises(DeploymentMismatchError, match="different model"):
            plan_from_json(text, other, cluster)

    def test_wrong_cluster_rejected(self, bert_setup):
        _, graph, cluster, plan = bert_setup
        text = plan_to_json(plan, graph)
        with pytest.raises(DeploymentMismatchError, match="cluster"):
            plan_from_json(text, graph, tiny_cluster())

    def test_topology_placement_survives_the_round_trip(self):
        """Four 1-device stages on a 2x2 topology cluster: the restored
        plan keeps the 1 GB boundary on NVLink, as the planner placed
        it, instead of the contiguous order that crosses the node gap
        there."""
        graph = build_mlp((8, 16, 16, 16, 4))
        cluster = tiny_cluster(num_nodes=2, devices_per_node=2,
                               comm_model="topology")
        tasks = list(graph.tasks)
        chunks = [tasks[i:i + 2] for i in range(0, len(tasks), 2)]
        out_bytes = [1e3, 1e9, 1e3, 0.0]
        doc = {
            "version": 1,
            "model_name": graph.name,
            "graph_fingerprint": graph_fingerprint(graph),
            "batch_size": 8,
            "precision": "fp32",
            "num_microbatches": 1,
            "replica_factor": 1,
            "cluster": {"num_nodes": 2, "devices_per_node": 2},
            "stages": [
                {
                    "index": i,
                    "block_range": [i, i + 1],
                    "tasks": chunk,
                    "devices_per_pipeline": 1,
                    "microbatch_size": 8,
                    "profile": {
                        "time_fwd": 1e-3, "time_bwd": 2e-3, "memory": 1e6,
                        "param_count": 10, "in_bytes": 0.0,
                        "out_bytes": out_bytes[i],
                    },
                }
                for i, chunk in enumerate(chunks)
            ],
        }
        restored = plan_from_json(json.dumps(doc), graph, cluster,
                                  verify=False)
        assert not restored.assignment.crossing_is_internode(0, 1)

    def test_corrupt_version_rejected(self, bert_setup):
        _, graph, cluster, plan = bert_setup
        text = plan_to_json(plan, graph).replace('"version": 1', '"version": 9')
        with pytest.raises(DeploymentMismatchError, match="version"):
            plan_from_json(text, graph, cluster)


class TestRestoredPlanVerification:
    """Regressions: structurally well-formed deployment JSON whose
    *content* violates plan invariants must be rejected on load, not
    silently deployed."""

    @pytest.fixture(scope="class")
    def pipelined_setup(self):
        from repro.models.random_dag import build_random_dag

        cluster = tiny_cluster(num_nodes=1, devices_per_node=4,
                               memory_bytes=256 * 1024)
        for seed in range(8):
            graph = build_random_dag(seed=seed, num_nodes=14, width=64)
            plan = auto_partition(graph, cluster, 32, num_blocks=8)
            if plan.num_stages >= 2:
                return graph, cluster, plan
        raise AssertionError("no seed in 0..7 produced a multi-stage plan")

    @staticmethod
    def drop_last_stage(doc):
        """Remove the final stage but keep the device allocation exactly
        covering the cluster (otherwise allocation fails first)."""
        removed = doc["stages"].pop()
        doc["stages"][0]["devices_per_pipeline"] += (
            removed["devices_per_pipeline"]
        )

    def test_dropped_stage_rejected(self, pipelined_setup):
        graph, cluster, plan = pipelined_setup
        doc = json.loads(plan_to_json(plan, graph))
        self.drop_last_stage(doc)
        with pytest.raises(PlanVerificationError, match="not assigned"):
            plan_from_json(json.dumps(doc), graph, cluster)

    def test_task_in_two_stages_rejected(self, pipelined_setup):
        from repro.partitioner.atomic import classify_tasks

        graph, cluster, plan = pipelined_setup
        doc = json.loads(plan_to_json(plan, graph))
        non_constant = classify_tasks(graph)
        stolen = next(
            t for t in doc["stages"][1]["tasks"] if non_constant[t]
        )
        doc["stages"][0]["tasks"].append(stolen)
        with pytest.raises(PlanVerificationError, match="exactly one"):
            plan_from_json(json.dumps(doc), graph, cluster)

    def test_over_memory_stage_rejected(self, pipelined_setup):
        """Scale the batch and every stage's microbatch size together so
        divisibility still holds but activations no longer fit."""
        graph, cluster, plan = pipelined_setup
        doc = json.loads(plan_to_json(plan, graph))
        doc["batch_size"] *= 64
        for sdoc in doc["stages"]:
            sdoc["microbatch_size"] *= 64
        with pytest.raises(PlanVerificationError, match="memory"):
            plan_from_json(json.dumps(doc), graph, cluster)

    def test_verify_opt_out_restores_legacy_load(self, pipelined_setup):
        graph, cluster, plan = pipelined_setup
        doc = json.loads(plan_to_json(plan, graph))
        self.drop_last_stage(doc)
        restored = plan_from_json(
            json.dumps(doc), graph, cluster, verify=False
        )
        assert restored.num_stages == plan.num_stages - 1


class TestFromPlan:
    def test_plan_execution_matches_whole_graph(self, bert_setup, rng):
        """End-to-end: the REAL partitioner's plan, executed by the REAL
        runtime, equals whole-graph execution."""
        cfg, graph, cluster, plan = bert_setup
        params = init_parameters(graph, seed=11)
        whole = Executor(graph, params={k: v.copy() for k, v in params.items()})
        pe = PartitionedExecutor.from_plan(
            graph, plan, params={k: v.copy() for k, v in params.items()}
        )
        n = plan.num_microbatches * 2
        batch = {
            "input_ids": rng.integers(0, cfg.vocab_size, (n, cfg.seq_len)),
            "token_type_ids": rng.integers(0, 2, (n, cfg.seq_len)),
            "attention_mask": np.zeros((n, 1, 1, cfg.seq_len)),
            "mlm_labels": rng.integers(0, cfg.vocab_size, (n, cfg.seq_len)),
            "nsp_labels": rng.integers(0, 2, (n,)),
        }
        lw, gw = whole.loss_and_grads(batch)
        lp, gp = pe.loss_and_grads(batch)
        assert lw == pytest.approx(lp, abs=1e-10)
        for k in gw:
            assert np.abs(gw[k] - gp[k]).max() < 1e-9

    def test_from_plan_respects_microbatches(self, bert_setup):
        _, graph, _, plan = bert_setup
        pe = PartitionedExecutor.from_plan(graph, plan)
        assert pe.num_microbatches == plan.num_microbatches
        assert pe.checkpointing == (plan.num_stages > 1)
