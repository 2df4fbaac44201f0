"""Unit tests for the plan-service wire protocol.

Request normalization (model/cluster/config builders), the coalescing
key, and the error-code table that maps protocol failures onto
HTTP statuses.
"""

import json

import pytest

from repro.hardware.device import Precision
from repro.service.protocol import (
    ERROR_STATUS,
    RawJSON,
    ServiceError,
    build_cluster,
    build_config,
    build_model,
    encode_body,
    error_envelope,
    normalize_plan_request,
    ok_envelope,
)


def plan_params(**overrides):
    params = {
        "model": {"family": "mlp", "widths": [64, 32, 10]},
        "cluster": {"preset": "v100x8"},
        "batch_size": 64,
    }
    params.update(overrides)
    return params


class TestServiceError:
    def test_status_comes_from_the_code_table(self):
        assert ServiceError("no_base", "x").status == 409
        assert ServiceError("infeasible", "x").status == 422
        assert ServiceError("shutting_down", "x").status == 503

    def test_unknown_code_is_a_programming_error(self):
        with pytest.raises(ValueError):
            ServiceError("typo_code", "x")

    def test_detail_lands_in_the_error_doc(self):
        exc = ServiceError("bad_request", "boom", {"field": "model"})
        doc = exc.as_error_doc()
        assert doc["code"] == "bad_request"
        assert doc["message"] == "boom"
        assert doc["field"] == "model"

    def test_every_code_maps_to_a_real_http_status(self):
        for code, status in ERROR_STATUS.items():
            assert 400 <= status < 600, code


class TestEnvelopes:
    def test_raw_plan_is_written_as_it_stands(self):
        plan = {"stages": [{"index": 0, "tasks": ["a", "b"]}], "x": 0.1}
        result = {"plan": RawJSON(json.dumps(plan, sort_keys=True)),
                  "meta": {"cache": "warm", "wall_ms": 1.5}}
        body = encode_body(ok_envelope(result))
        parsed = dict(result, plan=plan)
        assert body == json.dumps(ok_envelope(parsed)).encode()

    def test_envelopes_without_a_raw_plan_are_plain_json(self):
        env = error_envelope(ServiceError("not_found", "nope"))
        assert encode_body(env) == json.dumps(env).encode()
        plain = ok_envelope({"a": [1]})
        assert encode_body(plain) == json.dumps(plain).encode()

    def test_raw_json_is_never_quoted_by_mistake(self):
        with pytest.raises(TypeError):
            json.dumps({"plan": RawJSON("{}")})

    def test_shapes(self):
        assert ok_envelope({"a": 1}) == {"ok": True, "result": {"a": 1}}
        env = error_envelope(ServiceError("not_found", "nope"))
        assert env["ok"] is False
        assert env["error"]["code"] == "not_found"


class TestBuildModel:
    def test_presets(self):
        base, _ = build_model({"preset": "bert-base"})
        large, _ = build_model({"preset": "bert-large"})
        assert len(base.tasks) < len(large.tasks)

    def test_unknown_preset(self):
        with pytest.raises(ServiceError) as ei:
            build_model({"preset": "bert-xxl"})
        assert ei.value.code == "bad_request"

    def test_gpt_default_heads_divide_hidden(self):
        # regression: the default head count must divide any hidden size
        # the caller picks (1024/12 used to blow up in reshape)
        graph, _ = build_model({"family": "gpt", "hidden": 1024, "layers": 2})
        assert graph.tasks

    def test_mlp_family(self):
        graph, canonical = build_model({"family": "mlp", "widths": [8, 4, 2]})
        assert graph.tasks
        assert '"family": "mlp"' in canonical

    def test_model_must_be_an_object(self):
        with pytest.raises(ServiceError):
            build_model("bert-base")

    def test_missing_preset_and_family(self):
        with pytest.raises(ServiceError) as ei:
            build_model({"name": "bert"})
        assert "preset" in str(ei.value)


class TestBuildCluster:
    def test_presets_scale_nodes(self):
        one, _ = build_cluster({"preset": "v100x8"})
        four, _ = build_cluster({"preset": "v100x32"})
        assert one.total_devices == 8
        assert four.total_devices == 32

    def test_explicit_nodes_and_comm_model(self):
        cluster, _ = build_cluster({"nodes": 2, "comm_model": "topology"})
        assert cluster.num_nodes == 2
        assert cluster.comm_model == "topology"

    def test_missing_shape(self):
        with pytest.raises(ServiceError) as ei:
            build_cluster({})
        assert ei.value.code == "bad_request"


class TestBuildConfig:
    def test_batch_size_required_and_positive(self):
        for bad in ({}, {"batch_size": 0}, {"batch_size": "64"}):
            with pytest.raises(ServiceError):
                build_config(bad)

    def test_verify_always_on(self):
        cfg = build_config({"batch_size": 32})
        assert cfg.verify is True

    def test_options_map_onto_planner_config(self):
        cfg = build_config(
            {
                "batch_size": 32,
                "options": {
                    "amp": True,
                    "blocks": 8,
                    "max_microbatches": 4,
                    "memory_budget_gb": 2.0,
                },
            }
        )
        assert cfg.precision == Precision.AMP
        assert cfg.num_blocks == 8
        assert cfg.max_microbatches == 4
        assert cfg.memory_budget == 2.0 * 2**30

    def test_numbers_must_be_json_numbers_of_the_right_kind(self):
        cfg = build_config(
            {"batch_size": 32, "options": {"memory_budget_gb": 2}}
        )
        assert cfg.memory_budget == 2 * 2**30
        for bad in (
            {"batch_size": True},
            {"batch_size": 32.0},
            {"batch_size": 32, "options": {"blocks": 8.0}},
            {"batch_size": 32, "options": {"max_microbatches": False}},
            {"batch_size": 32, "options": {"memory_budget_gb": None}},
            {"batch_size": 32, "options": {"memory_budget_gb": 10**400}},
            {"batch_size": 32, "options": {"memory_budget_gb": 1e308}},
        ):
            with pytest.raises(ServiceError) as ei:
                build_config(bad)
            assert ei.value.code == "bad_request", bad

    def test_unknown_option_is_rejected_with_the_supported_list(self):
        with pytest.raises(ServiceError) as ei:
            build_config({"batch_size": 32, "options": {"blokcs": 8}})
        assert "blokcs" in str(ei.value)
        assert "blocks" in str(ei.value)

    @pytest.mark.parametrize(
        "option", [{"dp_engine": "banded"}, {"search_backend": "thread"}]
    )
    def test_removed_run_mode_options_are_unknown(self, option):
        # the evaluation path and sweep pool follow the input and host;
        # requests naming the old knobs get the generic unknown-options 400
        with pytest.raises(ServiceError) as ei:
            build_config({"batch_size": 32, "options": option})
        assert ei.value.code == "bad_request"
        assert ei.value.status == 400
        assert "unknown options" in str(ei.value)
        assert next(iter(option)) in str(ei.value)


class TestNormalize:
    def test_missing_model_or_cluster(self):
        with pytest.raises(ServiceError):
            normalize_plan_request({"cluster": {"preset": "v100x8"}})
        with pytest.raises(ServiceError):
            normalize_plan_request({"model": {"preset": "bert-base"}})

    def test_key_pins_model_cluster_and_config(self):
        base = normalize_plan_request(plan_params())
        same = normalize_plan_request(plan_params())
        assert same.key == base.key

        resized = normalize_plan_request(
            plan_params(cluster={"preset": "v100x16"})
        )
        assert resized.key != base.key
        assert resized.model_key == base.model_key  # same family

        rebatched = normalize_plan_request(plan_params(batch_size=128))
        assert rebatched.key != base.key

        other_model = normalize_plan_request(
            plan_params(model={"family": "mlp", "widths": [32, 16, 10]})
        )
        assert other_model.model_key != base.model_key

    def test_preset_takes_the_comm_model(self):
        # the cluster object owns the comm model on every shape, the
        # preset form included
        from repro.hardware import paper_cluster

        topo = normalize_plan_request(plan_params(
            cluster={"preset": "v100x16", "comm_model": "topology"},
        ))
        flat = normalize_plan_request(plan_params(
            cluster={"preset": "v100x16"},
        ))
        assert topo.cluster == paper_cluster(2, comm_model="topology")
        assert flat.cluster == paper_cluster(2)
        assert topo.key != flat.key

    def test_bad_comm_model_is_bad_request(self):
        for cluster in (
            {"preset": "v100x8", "comm_model": "bogus"},
            {"nodes": 1, "comm_model": "bogus"},
            # a heterogeneous cluster must stay flat
            {"classes": [{"name": "a", "device": "v100", "nodes": 1}],
             "comm_model": "topology"},
        ):
            with pytest.raises(ServiceError) as ei:
                build_cluster(cluster)
            assert ei.value.code == "bad_request", cluster

    def test_plan_determining_inputs_change_the_key(self):
        base = normalize_plan_request(plan_params())
        variants = [
            plan_params(batch_size=128),
            plan_params(options={"max_microbatches": 4}),
            plan_params(options={"memory_budget_gb": 16}),
            plan_params(cluster={"classes": [
                {"name": "a", "device": "v100", "nodes": 1,
                 "devices_per_node": 8},
            ]}),
        ]
        keys = {normalize_plan_request(p).key for p in variants}
        assert base.key not in keys and len(keys) == len(variants)

    def test_key_is_the_plan_store_address(self):
        # the key is the address the pass manager probes and stores the
        # finished plan under
        from repro.planner import ArtifactStore, PlanningContext
        from repro.planner.context import EVALUATED

        req = normalize_plan_request(plan_params())
        ctx = PlanningContext(
            req.graph, req.cluster, req.config, store=ArtifactStore()
        )
        ctx.run()
        assert ctx.artifact_fps[EVALUATED] == req.key

    def test_graph_cache_shares_built_graphs(self):
        cache = {}
        first = normalize_plan_request(plan_params(), graph_cache=cache)
        second = normalize_plan_request(plan_params(), graph_cache=cache)
        assert second.graph is first.graph
        assert len(cache) == 1


class TestParseEvent:
    def test_node_loss_and_preemption(self):
        from repro.planner.repair import NodeLoss, Preemption
        from repro.service.protocol import parse_event

        ev = parse_event({"type": "node_loss", "node_index": 1})
        assert isinstance(ev, NodeLoss) and ev.node_index == 1
        ev = parse_event({"type": "preemption", "node_index": 0})
        assert isinstance(ev, Preemption) and ev.node_index == 0

    def test_scale_up_with_class(self):
        from repro.planner.repair import ScaleUp
        from repro.service.protocol import parse_event

        ev = parse_event(
            {"type": "scale_up", "extra_nodes": 2, "class_name": "fast"}
        )
        assert isinstance(ev, ScaleUp)
        assert ev.extra_nodes == 2 and ev.class_name == "fast"
        # extra_nodes defaults to 1
        assert parse_event({"type": "scale_up"}).extra_nodes == 1

    def test_bad_specs_are_bad_requests(self):
        from repro.service.protocol import parse_event

        for spec in (
            None,
            [],
            {"type": "meteor_strike"},
            {"type": "node_loss"},  # missing node_index
            {"type": "node_loss", "node_index": "two"},
        ):
            with pytest.raises(ServiceError) as ei:
                parse_event(spec)
            assert ei.value.code == "bad_request"


class TestHeterogeneousCluster:
    CLASSES = {
        "classes": [
            {"name": "slow", "device": "v100", "nodes": 1,
             "devices_per_node": 8, "straggler_factor": 1.3},
            {"name": "fast", "device": "a100", "nodes": 1,
             "devices_per_node": 8},
        ]
    }

    def test_classes_spec_builds_mixed_cluster(self):
        cluster, _canonical = build_cluster(dict(self.CLASSES))
        assert cluster.is_heterogeneous
        assert cluster.total_devices == 16
        assert cluster.comm_model == "flat"
        names = [c.name for c in cluster.device_classes]
        assert names == ["slow", "fast"]
        assert cluster.device_classes[0].straggler_factor == 1.3

    def test_memory_gb_override(self):
        spec = {"classes": [
            {"name": "a", "device": "v100", "nodes": 1,
             "devices_per_node": 4, "memory_gb": 16},
        ]}
        cluster, _ = build_cluster(spec)
        assert cluster.device_classes[0].device.memory_bytes == 16 * 2**30

    def test_unknown_device_is_bad_request(self):
        spec = {"classes": [{"name": "a", "device": "h100", "nodes": 1}]}
        with pytest.raises(ServiceError) as ei:
            build_cluster(spec)
        assert ei.value.code == "bad_request"

    def test_empty_classes_is_bad_request(self):
        with pytest.raises(ServiceError) as ei:
            build_cluster({"classes": []})
        assert ei.value.code == "bad_request"

    def test_device_classes_change_the_key(self):
        homogeneous = normalize_plan_request(plan_params())
        hetero = normalize_plan_request(
            plan_params(cluster=dict(self.CLASSES))
        )
        assert homogeneous.key != hetero.key

    def test_straggler_changes_the_key(self):
        spec = dict(self.CLASSES)
        a = normalize_plan_request(plan_params(cluster=spec))
        slowed = {"classes": [dict(c) for c in spec["classes"]]}
        slowed["classes"][0]["straggler_factor"] = 2.0
        b = normalize_plan_request(plan_params(cluster=slowed))
        assert a.key != b.key
