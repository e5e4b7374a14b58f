"""Integration tests for the execution runtime."""

import pytest

from repro.app.service import Deployment
from repro.app.workloads import (
    build_memcached,
    build_mongodb,
    build_nginx,
    build_redis,
)
from repro.app.workloads.socialnet import social_network_deployment
from repro.app.stressors import stressor
from repro.hw import PLATFORM_A, PLATFORM_B
from repro.loadgen import LoadSpec
from repro.runtime import ExperimentConfig, run_experiment
from repro.util.errors import ConfigurationError


def _run(service_builder, load, duration=0.03, **cfg):
    spec = service_builder()
    deployment = Deployment.single(spec)
    config = ExperimentConfig(platform=PLATFORM_A, duration_s=duration,
                              seed=3, **cfg)
    return spec.name, run_experiment(deployment, load, config)


class TestSingleTierRuns:
    def test_memcached_serves_all_requests(self):
        name, result = _run(build_memcached, LoadSpec.open_loop(40000))
        assert result.latency.completed == result.latency.issued
        assert result.latency.completed > 500
        metrics = result.service(name)
        assert metrics.requests == result.latency.completed
        assert 0.1 < metrics.ipc < 4.0

    def test_latency_grows_with_load(self):
        _, low = _run(build_memcached, LoadSpec.open_loop(20000))
        _, high = _run(build_memcached, LoadSpec.open_loop(200000))
        assert high.latency_ms(99) > low.latency_ms(99)

    def test_closed_loop_bounds_outstanding(self):
        name, result = _run(build_redis, LoadSpec.closed_loop(2))
        # 2 connections, 1 outstanding each: p99 stays near the mean.
        assert result.latency_ms(99) < 3 * result.latency_ms()

    def test_redis_single_core_saturation(self):
        # One event loop: adding connections beyond 1 barely helps.
        _, two = _run(build_redis, LoadSpec.closed_loop(2))
        _, sixteen = _run(build_redis, LoadSpec.closed_loop(16))
        assert sixteen.throughput < two.throughput * 3

    def test_mongodb_generates_disk_traffic(self):
        name, result = _run(build_mongodb, LoadSpec.closed_loop(4),
                            page_cache_bytes=4 * 1024**3)
        assert result.disk_bandwidth(name) > 1e6
        assert result.service(name).disk_read_bytes > 0

    def test_mongodb_page_cache_hit_when_big(self):
        # A page cache covering the dataset kills the disk traffic.
        name, result = _run(build_mongodb, LoadSpec.closed_loop(4),
                            page_cache_bytes=41 * 1024**3)
        assert result.disk_bandwidth(name) == 0.0

    def test_nginx_no_disk_traffic(self):
        # Docroot is page-cache resident by pre-warming.
        name, result = _run(build_nginx, LoadSpec.open_loop(10000))
        assert result.disk_bandwidth(name) == 0.0

    def test_network_bandwidth_scales_with_load(self):
        name, low = _run(build_memcached, LoadSpec.open_loop(20000))
        name, high = _run(build_memcached, LoadSpec.open_loop(80000))
        assert high.net_bandwidth(name) > 2 * low.net_bandwidth(name)

    def test_node_utilisation_reported(self):
        _, result = _run(build_memcached, LoadSpec.open_loop(40000))
        assert 0.0 < result.node_utilisation["node0"] <= 1.0

    def test_unknown_service_metrics_raise(self):
        _, result = _run(build_redis, LoadSpec.closed_loop(1))
        with pytest.raises(ConfigurationError):
            result.service("ghost")


class TestLoadDependentBehaviour:
    def test_cold_wakeups_dominate_at_low_load(self):
        name, low = _run(build_memcached, LoadSpec.open_loop(5000))
        name, high = _run(build_memcached, LoadSpec.open_loop(250000))
        low_m, high_m = low.service(name), high.service(name)
        cold_frac_low = low_m.cold_wakeups / max(1, low_m.requests)
        cold_frac_high = high_m.cold_wakeups / max(1, high_m.requests)
        assert cold_frac_low > cold_frac_high

    def test_low_load_lower_ipc_for_memcached(self):
        # Fig. 5: Memcached has low IPC at low load (cold i-cache, branch
        # mispredictions from sparse wakeups).
        name, low = _run(build_memcached, LoadSpec.open_loop(5000))
        name, high = _run(build_memcached, LoadSpec.open_loop(250000))
        assert low.service(name).ipc < high.service(name).ipc

    def test_l1i_missrate_higher_at_low_load(self):
        name, low = _run(build_memcached, LoadSpec.open_loop(5000))
        name, high = _run(build_memcached, LoadSpec.open_loop(250000))
        assert (low.service(name).l1i_miss_rate
                > high.service(name).l1i_miss_rate)


class TestCrossPlatform:
    def test_platform_b_higher_l2_missrate(self):
        # 256KB L2 (B) vs 1MB (A): parse/serialize working sets overflow.
        spec = build_memcached()
        dep = Deployment.single(spec)
        load = LoadSpec.open_loop(40000)
        res_a = run_experiment(dep, load, ExperimentConfig(
            platform=PLATFORM_A, duration_s=0.03, seed=3))
        res_b = run_experiment(dep, load, ExperimentConfig(
            platform=PLATFORM_B, duration_s=0.03, seed=3))
        assert (res_b.service("memcached").l2_miss_rate
                >= res_a.service("memcached").l2_miss_rate)

    def test_mongodb_slower_on_hdd_platform(self):
        spec = build_mongodb()
        dep = Deployment.single(spec)
        load = LoadSpec.closed_loop(4)
        res_a = run_experiment(dep, load, ExperimentConfig(
            platform=PLATFORM_A, duration_s=0.03, seed=3,
            page_cache_bytes=4 * 1024**3))
        res_b = run_experiment(dep, load, ExperimentConfig(
            platform=PLATFORM_B, duration_s=0.03, seed=3,
            page_cache_bytes=4 * 1024**3))
        assert res_b.latency_ms(50) > 3 * res_a.latency_ms(50)


class TestInterference:
    def test_llc_stressor_increases_misses(self):
        name, clean = _run(build_memcached, LoadSpec.open_loop(40000))
        name, noisy = _run(build_memcached, LoadSpec.open_loop(40000),
                           corunners=(stressor("llc"),))
        assert (noisy.service(name).llc_miss_rate
                > clean.service(name).llc_miss_rate)

    def test_ht_stressor_lowers_ipc(self):
        name, clean = _run(build_nginx, LoadSpec.open_loop(10000))
        name, noisy = _run(build_nginx, LoadSpec.open_loop(10000),
                           corunners=(stressor("ht"),))
        assert noisy.service(name).ipc < clean.service(name).ipc

    def test_net_stressor_raises_latency(self):
        name, clean = _run(build_memcached, LoadSpec.open_loop(100000))
        name, noisy = _run(build_memcached, LoadSpec.open_loop(100000),
                           corunners=(stressor("net"),))
        assert noisy.latency_ms(99) > clean.latency_ms(99)


class TestFrequencyAndCores:
    def test_lower_frequency_raises_latency(self):
        name, fast = _run(build_memcached, LoadSpec.open_loop(40000),
                          frequency_ghz=2.1)
        name, slow = _run(build_memcached, LoadSpec.open_loop(40000),
                          frequency_ghz=1.1)
        assert slow.latency_ms(99) > fast.latency_ms(99)

    def test_fewer_cores_raise_latency_at_high_load(self):
        name, many = _run(build_memcached, LoadSpec.open_loop(150000),
                          cores=16)
        name, few = _run(build_memcached, LoadSpec.open_loop(150000),
                         cores=4)
        assert few.latency_ms(99) >= many.latency_ms(99)


class TestSocialNetworkRuntime:
    def test_end_to_end_run(self):
        deployment = social_network_deployment()
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.05,
                                  seed=3)
        result = run_experiment(deployment, LoadSpec.open_loop(500), config)
        assert result.latency.completed > 10
        # Every tier on the read path saw traffic.
        for tier in ("frontend", "home-timeline-service",
                     "social-graph-service", "post-storage-service"):
            assert result.service(tier).requests > 0

    def test_social_graph_higher_ipc_than_text(self):
        # Paper: SocialGraphService has high IPC (small working set).
        deployment = social_network_deployment()
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.05,
                                  seed=3)
        result = run_experiment(deployment, LoadSpec.open_loop(800), config)
        sg = result.service("social-graph-service")
        assert sg.ipc > 0.5

    def test_compose_post_is_slowest_path(self):
        deployment = social_network_deployment()
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.08,
                                  seed=3)
        result = run_experiment(deployment, LoadSpec.open_loop(400), config)
        lat = result.latency.by_handler
        if "compose_post" in lat and "read_user_timeline" in lat:
            mean = lambda xs: sum(xs) / len(xs)
            assert mean(lat["compose_post"]) > mean(lat["read_user_timeline"])
