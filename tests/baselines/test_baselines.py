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


_BERT_24 = BertConfig(hidden_size=1024, num_layers=24)
_BERT_48 = BertConfig(hidden_size=1536, num_layers=48)
_BERT_96 = BertConfig(hidden_size=2048, num_layers=96)
_RESNET_50X8 = ResNetConfig(depth=50, width_factor=8)

#: (framework, model config, nodes, precision, run kwargs) -> the
#: result fields (feasible, throughput, iteration_time, config, reason)
PINNED_RESULTS = [
    ("dp", _BERT_24, 1, Precision.FP32, {}, (
        True, 49.40984881375127, 5.181153275027884,
        {"accumulation_steps": 8, "per_device_chunk": 4,
         "memory_gib": 17.54624654352665}, "")),
    ("dp", _BERT_24, 1, Precision.AMP, {}, (
        True, 263.4511650928632, 0.9717170918935326,
        {"accumulation_steps": 4, "per_device_chunk": 8,
         "memory_gib": 18.172516472637653}, "")),
    ("dp", _BERT_48, 2, Precision.FP32, {}, (
        True, 23.37041687961909, 10.954019404902139,
        {"accumulation_steps": 16, "per_device_chunk": 1,
         "memory_gib": 28.31340690329671}, "")),
    ("dp", _BERT_48, 2, Precision.AMP, {}, (
        True, 101.10967755425202, 2.531904029291747,
        {"accumulation_steps": 16, "per_device_chunk": 1,
         "memory_gib": 27.310197414830327}, "")),
    ("dp", _BERT_96, 1, Precision.FP32, {}, (
        False, 0.0, 0.0, {},
        "model needs 89.8 GiB at batch 1, device has 29.4 GiB")),
    ("dp", _RESNET_50X8, 1, Precision.FP32, {}, (
        True, 36.97744815367331, 6.9231386367198295,
        {"accumulation_steps": 8, "per_device_chunk": 4,
         "memory_gib": 27.08835531771183}, "")),
    ("megatron", _BERT_24, 1, Precision.FP32, {}, (
        True, 37.5391361540207, 6.819549574866299,
        {"tensor_parallel": 1, "data_parallel": 8, "per_device_batch": 32,
         "memory_gib": 12.435574471950531}, "")),
    ("megatron", _BERT_24, 1, Precision.AMP, {}, (
        True, 206.76750190926325, 1.238105590269895,
        {"tensor_parallel": 1, "data_parallel": 8, "per_device_batch": 32,
         "memory_gib": 9.349136881530285}, "")),
    ("megatron", _BERT_48, 2, Precision.FP32, {}, (
        True, 18.166946450367632, 14.091526096550998,
        {"tensor_parallel": 1, "data_parallel": 16, "per_device_batch": 16,
         "memory_gib": 26.648922860622406}, "")),
    ("megatron", _BERT_48, 2, Precision.AMP, {}, (
        True, 89.44672184565383, 2.862038929070478,
        {"tensor_parallel": 1, "data_parallel": 16, "per_device_batch": 16,
         "memory_gib": 26.477955393493176}, "")),
    ("megatron", _BERT_96, 1, Precision.FP32, {}, (
        False, 0.0, 0.0, {},
        "no tensor-parallel degree fits device memory (no gradient "
        "accumulation: per-device batch 256/dp_ways must be resident at "
        "once)")),
    ("gpipe_hybrid", _BERT_24, 1, Precision.FP32, {}, (
        True, 33.37737323066532, 7.669866595877026,
        {"stages": 2, "replicas": 4, "microbatches": 32,
         "memory_gib": 6.119878269731998}, "")),
    ("gpipe_hybrid", _BERT_24, 1, Precision.AMP, {}, (
        True, 182.71003255620997, 1.40112722010075,
        {"stages": 2, "replicas": 4, "microbatches": 16,
         "memory_gib": 6.401055425405502}, "")),
    ("gpipe_hybrid", _BERT_48, 2, Precision.FP32, {}, (
        True, 17.388455996403252, 14.7224112395576,
        {"stages": 2, "replicas": 8, "microbatches": 32,
         "memory_gib": 14.683310706168413}, "")),
    ("gpipe_hybrid", _BERT_48, 2, Precision.AMP, {}, (
        True, 95.18071530716638, 2.689620467484816,
        {"stages": 4, "replicas": 4, "microbatches": 32,
         "memory_gib": 8.56555850431323}, "")),
    ("gpipe_hybrid", _BERT_96, 1, Precision.FP32, {"stage_counts": (2,)}, (
        False, 0.0, 0.0, {},
        "no (stages, microbatches) setting fits device memory")),
    ("gpipe_model", _RESNET_50X8, 1, Precision.FP32, {}, (
        True, 9.976469328376087, 25.66038059896188,
        {"stages": 8, "microbatches": 64, "memory_gib": 19.85995604097843},
        "")),
    ("gpipe_model", _BERT_96, 1, Precision.FP32, {"num_stages": 2}, (
        False, 0.0, 0.0, {}, "stages exceed device memory at all MB")),
]


@pytest.fixture(scope="module")
def pinned_graphs():
    """One graph per model config, built on first use."""
    graphs = {}

    def get(cfg):
        if cfg not in graphs:
            graphs[cfg] = (
                build_bert(cfg) if isinstance(cfg, BertConfig)
                else build_resnet(cfg)
            )
        return graphs[cfg]

    return get


class TestPinnedResults:
    @pytest.mark.parametrize(
        "framework,model,nodes,precision,kwargs,expected", PINNED_RESULTS,
        ids=[
            f"{f}-{m.name}-v100x{8 * n}-{p.name}"
            for f, m, n, p, _, _ in PINNED_RESULTS
        ],
    )
    def test_pinned(self, pinned_graphs, framework, model, nodes, precision,
                    kwargs, expected):
        """Each baseline's sweep on the Fig. 4/5 workloads at batch 256,
        every result field bit for bit."""
        graph = pinned_graphs(model)
        cluster = paper_cluster(nodes)
        if framework == "dp":
            result = run_data_parallel(graph, cluster, 256, precision)
        elif framework == "megatron":
            result = run_megatron(graph, model, cluster, 256, precision)
        elif framework == "gpipe_hybrid":
            result = run_gpipe_hybrid(graph, cluster, 256, precision,
                                      **kwargs)
        else:
            result = run_gpipe_model(graph, cluster, 256, precision,
                                     **kwargs)
        assert (
            result.feasible, result.throughput, result.iteration_time,
            result.config, result.reason,
        ) == expected


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
