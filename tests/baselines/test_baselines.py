"""Tests for the baseline frameworks (DP, Megatron-LM, GPipe variants,
PipeDream-2BW) and their paper-documented behaviours."""

import pytest

from repro.baselines import (
    TABLE1_ROWS,
    run_data_parallel,
    run_gpipe_hybrid,
    run_gpipe_model,
    run_megatron,
    run_pipedream_2bw,
)
from repro.baselines.gpipe import layer_units, _uniform_layer_stages
from repro.hardware import Precision, paper_cluster, single_node, tiny_cluster
from repro.models import BertConfig, ResNetConfig, build_bert, build_resnet
from repro.profiler import GraphProfiler


@pytest.fixture(scope="module")
def small_bert():
    cfg = BertConfig(hidden_size=64, num_layers=8, num_heads=4, seq_len=32,
                     vocab_size=512)
    return cfg, build_bert(cfg)


@pytest.fixture(scope="module")
def small_resnet():
    return build_resnet(
        ResNetConfig(depth=50, width_factor=1, image_size=64, num_classes=100)
    )


class TestDataParallel:
    def test_feasible_small_model(self, small_bert, cluster):
        _, g = small_bert
        result = run_data_parallel(g, cluster, 256)
        assert result.feasible
        assert result.throughput > 0
        assert result.config["accumulation_steps"] >= 1

    def test_oom_when_static_exceeds_memory(self, cluster):
        g = build_bert(BertConfig(hidden_size=2048, num_layers=96))
        result = run_data_parallel(g, cluster, 256)
        assert not result.feasible
        assert "GiB" in result.reason

    def test_accumulation_shrinks_memory(self, small_bert):
        _, g = small_bert
        # a memory-starved device forces accumulation > 1
        cluster = tiny_cluster(num_nodes=1, devices_per_node=4,
                               memory_bytes=32 * 1024**2)
        result = run_data_parallel(g, cluster, 256)
        assert result.feasible
        assert result.config["accumulation_steps"] > 1

    def test_indivisible_batch(self, small_bert, cluster):
        _, g = small_bert
        result = run_data_parallel(g, cluster, 100)  # 100 % 32 != 0
        assert not result.feasible


class TestMegatron:
    def test_feasible_on_bert(self, small_bert, cluster):
        cfg, g = small_bert
        result = run_megatron(g, cfg, cluster, 256)
        assert result.feasible
        assert result.config["tensor_parallel"] >= 1
        assert (
            result.config["tensor_parallel"] * result.config["data_parallel"]
            == cluster.total_devices
        )

    def test_rejects_resnet(self, small_resnet, cluster):
        result = run_megatron(small_resnet, BertConfig(), cluster, 256)
        assert not result.feasible
        assert "Transformer" in result.reason

    def test_ooms_on_biggest_models(self, cluster):
        """The paper's headline: Megatron cannot train the largest grid
        points (no gradient accumulation)."""
        cfg = BertConfig(hidden_size=2048, num_layers=256)
        g = build_bert(cfg)
        result = run_megatron(g, cfg, cluster, 256)
        assert not result.feasible
        assert "gradient accumulation" in result.reason

    def test_trains_medium_models_dp_cannot(self, cluster):
        cfg = BertConfig(hidden_size=1536, num_layers=96)  # 2.8B
        g = build_bert(cfg)
        p = GraphProfiler(g, cluster)
        meg = run_megatron(g, cfg, cluster, 256, profiler=p)
        dp = run_data_parallel(g, cluster, 256, profiler=p)
        assert meg.feasible and not dp.feasible

    def test_amp(self, small_bert, cluster):
        cfg, g = small_bert
        p32 = GraphProfiler(g, cluster, Precision.FP32)
        pamp = GraphProfiler(g, cluster, Precision.AMP)
        r32 = run_megatron(g, cfg, cluster, 256, Precision.FP32, p32)
        ramp = run_megatron(g, cfg, cluster, 256, Precision.AMP, pamp)
        assert ramp.throughput > r32.throughput


class TestLayerUnits:
    def test_bert_units(self, small_bert):
        _, g = small_bert
        units = layer_units(g)
        keys = [k for k, _ in units]
        assert keys[0] == "embeddings"
        assert "layer0" in keys and "layer7" in keys
        assert "mlm" in keys and "nsp" in keys

    def test_resnet_units_block_granularity(self, small_resnet):
        units = layer_units(small_resnet)
        keys = [k for k, _ in units]
        assert "stem" in keys
        assert "stage0.block0" in keys
        assert "head" in keys

    def test_units_cover_all_tasks(self, small_bert):
        _, g = small_bert
        units = layer_units(g)
        covered = [t for _, tasks in units for t in tasks]
        assert sorted(covered) == sorted(g.tasks)

    def test_uniform_stages(self, small_bert):
        _, g = small_bert
        stages = _uniform_layer_stages(layer_units(g), 4)
        assert len(stages) == 4
        # embeddings first, heads last
        assert any(t.startswith("embeddings") for t in stages[0])
        assert any(t.startswith("mlm") for t in stages[-1])
        covered = [t for s in stages for t in s]
        assert sorted(covered) == sorted(g.tasks)

    def test_indivisible_layers(self, small_bert):
        _, g = small_bert
        assert _uniform_layer_stages(layer_units(g), 3) is None  # 8 % 3


class TestGPipeHybrid:
    def test_feasible(self, small_bert, cluster):
        _, g = small_bert
        result = run_gpipe_hybrid(g, cluster, 256)
        assert result.feasible
        assert result.config["stages"] in (2, 4, 8, 16)
        assert result.config["stages"] * result.config["replicas"] == 32

    def test_rejects_resnet(self, small_resnet, cluster):
        result = run_gpipe_hybrid(small_resnet, cluster, 256)
        assert not result.feasible
        assert "BERT" in result.reason

    def test_cannot_use_one_stage(self, small_bert, cluster):
        """GPipe 'does not work with a single stage' -- on tiny models
        this costs it throughput vs RaNNC's S=1 mode."""
        _, g = small_bert
        result = run_gpipe_hybrid(g, cluster, 256)
        assert result.config["stages"] >= 2


class TestGPipeModel:
    def test_single_node_only(self, small_resnet, cluster):
        result = run_gpipe_model(small_resnet, cluster, 128)
        assert not result.feasible
        assert "single node" in result.reason

    def test_feasible_on_resnet(self, small_resnet):
        result = run_gpipe_model(small_resnet, single_node(), 128)
        assert result.feasible
        assert result.config["stages"] <= 8
        assert result.config["microbatches"] <= 64

    def test_works_on_bert_too(self, small_bert):
        # torchgpipe is architecture-agnostic (sequential modules)
        _, g = small_bert
        result = run_gpipe_model(g, single_node(), 128)
        assert result.feasible


class TestPipeDream2BW:
    def test_feasible(self, small_bert, cluster):
        _, g = small_bert
        result = run_pipedream_2bw(g, cluster, 256)
        assert result.feasible

    def test_async_beats_gpipe_same_partitioning(self, small_bert, cluster):
        """Same stages, no flush bubble: 2BW >= GPipe-Hybrid throughput."""
        _, g = small_bert
        p = GraphProfiler(g, cluster)
        gpipe = run_gpipe_hybrid(g, cluster, 256, profiler=p)
        twobw = run_pipedream_2bw(g, cluster, 256, profiler=p)
        assert twobw.throughput >= 0.95 * gpipe.throughput

    def test_rejects_resnet(self, small_resnet, cluster):
        result = run_pipedream_2bw(small_resnet, cluster, 256)
        assert not result.feasible

    @pytest.mark.parametrize(
        "hidden,layers,nodes,throughput,config",
        [
            (1024, 24, 1, 34.76879199484103, (2, 4, 8, 16.44714780151844)),
            (1536, 48, 2, 18.14103484561945, (2, 8, 8, 28.40148574113846)),
            (2048, 96, 4, 10.625082682637043, (4, 8, 32, 28.10209295526147)),
        ],
    )
    def test_pinned_sweeps(self, hidden, layers, nodes, throughput, config):
        """The 2BW sweep prices through GPipe's stage evaluator with a
        second weight buffer, ``min(MB, S)`` stashes and the 1F1B
        timing; these are its results bit for bit."""
        g = build_bert(BertConfig(hidden_size=hidden, num_layers=layers))
        result = run_pipedream_2bw(g, paper_cluster(nodes), 256)
        assert result.throughput == throughput
        assert tuple(result.config[key] for key in (
            "stages", "replicas", "microbatches", "memory_gib",
        )) == config


class TestTable1Rows:
    def test_thirteen_rows(self):
        assert len(TABLE1_ROWS) == 13

    def test_rannc_row(self):
        rannc = TABLE1_ROWS[-1]
        assert rannc.name == "RaNNC"
        assert rannc.partitioning_style == "graph"
        assert rannc.hybrid_parallelism and rannc.automatic
        assert rannc.memory_estimation and rannc.staleness_free

    def test_result_str(self, small_bert, cluster):
        _, g = small_bert
        result = run_data_parallel(g, cluster, 256)
        assert "samples/s" in str(result)
        bad = run_data_parallel(g, cluster, 100)
        assert "INFEASIBLE" in str(bad)
