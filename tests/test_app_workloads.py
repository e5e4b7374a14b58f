"""Unit tests for the six workload models (§6.1.2 configurations)."""

import pytest

from repro.app.service import Deployment
from repro.app.skeleton import ServerNetworkModel
from repro.app.stressors import STRESSORS, interference_suite, stressor
from repro.app.workloads import (
    build_memcached,
    build_mongodb,
    build_nginx,
    build_redis,
    build_social_network,
    social_network_deployment,
)
from repro.isa.instructions import iform
from repro.util.dag import topological_order
from repro.util.errors import ConfigurationError


class TestMemcached:
    def test_four_workers_by_default(self):
        spec = build_memcached()
        assert spec.skeleton.worker_threads() == 4

    def test_get_dominated_mix(self):
        spec = build_memcached()
        assert spec.request_mix["get"] > spec.request_mix["set"]

    def test_epoll_server(self):
        assert (build_memcached().skeleton.server_model
                is ServerNetworkModel.IO_MULTIPLEXING)

    def test_store_sized_from_paper_config(self):
        # 10K items x 4KB values: resident footprint slightly above 40MB.
        spec = build_memcached()
        assert 40e6 < spec.program.resident_bytes < 60e6

    def test_get_handler_sends_value_sized_response(self):
        spec = build_memcached()
        sends = [inv for inv in spec.program.handler("get").syscalls
                 if inv.spec.device == "net_tx"]
        assert sends
        assert sends[0].nbytes >= 4096


class TestNginx:
    def test_single_worker(self):
        assert build_nginx().skeleton.worker_threads() == 1

    def test_serves_from_docroot_file(self):
        spec = build_nginx()
        assert "docroot" in spec.files
        preads = [inv for inv in spec.program.handler("http_get").syscalls
                  if inv.name == "pread"]
        assert preads and preads[0].file == "docroot"

    def test_large_hot_code(self):
        # nginx traverses more module code than memcached's hot path.
        assert (build_nginx().program.hot_code_bytes
                > build_memcached().program.hot_code_bytes)


class TestMongoDB:
    def test_thread_per_connection(self):
        spec = build_mongodb()
        workers = [cls for cls in spec.skeleton.thread_classes
                   if cls.role == "worker"]
        assert workers[0].scales_with_connections

    def test_blocking_server_model(self):
        assert (build_mongodb().skeleton.server_model
                is ServerNetworkModel.BLOCKING)

    def test_dataset_is_40gb(self):
        spec = build_mongodb()
        assert spec.files["collection"] == pytest.approx(40 * 1024**3)

    def test_find_reads_pages_from_collection(self):
        spec = build_mongodb()
        preads = [inv for inv in spec.program.handler("find").syscalls
                  if inv.name == "pread"]
        assert len(preads) >= 2
        assert all(p.file == "collection" for p in preads)

    def test_checksum_blocks_use_crc32(self):
        spec = build_mongodb()
        blocks = spec.program.handler("find").compute_blocks
        crc_blocks = [b for b in blocks if "CRC32_r64_r64" in b.iform_counts]
        assert crc_blocks


class TestRedis:
    def test_single_threaded_event_loop(self):
        assert build_redis().skeleton.worker_threads() == 1

    def test_no_disk_files(self):
        # Persistence disabled (§6.1.2).
        assert not build_redis().files

    def test_100k_record_store(self):
        spec = build_redis()
        assert 100e6 < spec.program.resident_bytes < 140e6


class TestSocialNetwork:
    def test_fourteen_tiers(self):
        services = build_social_network()
        assert len(services) == 14
        assert "text-service" in services
        assert "social-graph-service" in services

    def test_deployment_is_a_dag(self):
        deployment = social_network_deployment()
        assert deployment.entry_service == "frontend"
        order = topological_order({
            name: spec.program.downstream_services()
            for name, spec in deployment.services.items()})
        assert order[0] == "frontend"
        assert set(order) == set(deployment.services)
        for name, spec in deployment.services.items():
            for callee in spec.program.downstream_services():
                assert order.index(name) < order.index(callee)

    def test_compose_path_reaches_text_service(self):
        services = build_social_network()
        compose = services["compose-post-service"]
        targets = compose.program.downstream_services()
        assert "text-service" in targets
        assert "post-storage-service" in targets

    def test_text_service_fans_out_in_parallel(self):
        services = build_social_network()
        rpcs = services["text-service"].program.handler("process_text").rpcs
        groups = {rpc.parallel_group for rpc in rpcs}
        assert groups == {1}

    def test_social_graph_working_set_fits_llc(self):
        # The paper: SocialGraphService has high IPC because Reed98 is tiny.
        from repro.app.workloads.socialnet import GRAPH_BYTES
        from repro.hw import PLATFORM_A
        assert GRAPH_BYTES < PLATFORM_A.llc.size_bytes

    def test_cluster_placement(self):
        deployment = social_network_deployment(
            placement={"frontend": "node1"})
        assert deployment.node_of("frontend") == "node1"
        assert deployment.node_of("text-service") == "node0"

    def test_cycle_detection(self):
        services = build_social_network()
        # Artificially make a cycle by giving a leaf a call to frontend.
        from repro.app.program import Handler, RpcOp
        from repro.app.service import Placement
        leaf = services["unique-id-service"]
        bad_handler = Handler("gen", tuple(
            list(leaf.program.handler("gen").ops)
            + [RpcOp("compose-post-service", 10, 10, handler="compose")]
        ))
        from dataclasses import replace
        from repro.app.program import Program
        bad_program = Program(
            handlers={"gen": bad_handler},
            hot_code_bytes=leaf.program.hot_code_bytes,
            resident_bytes=leaf.program.resident_bytes,
        )
        services["unique-id-service"] = replace(leaf, program=bad_program)
        with pytest.raises(ConfigurationError, match="RPC cycle"):
            Deployment(
                services=services,
                placements=[Placement(name, "n0") for name in services],
                entry_service="frontend",
            )


class TestStressors:
    def test_suite_matches_fig10(self):
        assert interference_suite() == ["ht", "l1d", "l2", "llc", "net"]

    def test_all_builders_produce_corunners(self):
        for name in STRESSORS:
            runner = stressor(name)
            assert runner.level == name

    def test_cache_stressors_are_same_core(self):
        assert stressor("l1d").same_physical_core
        assert stressor("l2").same_physical_core
        assert not stressor("llc").same_physical_core

    def test_unknown_stressor_rejected(self):
        with pytest.raises(ConfigurationError):
            stressor("gpu")


class TestWorkloadBlockValidity:
    @pytest.mark.parametrize("builder", [
        build_memcached, build_nginx, build_mongodb, build_redis,
    ])
    def test_all_iforms_exist(self, builder):
        spec = builder()
        for block in spec.program.all_blocks():
            for name in block.iform_counts:
                iform(name)

    def test_socialnet_blocks_valid(self):
        for spec in build_social_network().values():
            for block in spec.program.all_blocks():
                for name in block.iform_counts:
                    iform(name)
