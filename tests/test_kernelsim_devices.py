"""Unit tests for filesystem, network, scheduler and node devices."""

import pytest

from repro.hw import PLATFORM_A, PLATFORM_B, PLATFORM_C
from repro.kernelsim import (
    ContextSwitchModel,
    CpuDevice,
    FileSystem,
    NicDevice,
    Node,
    PageCache,
)
from repro.kernelsim.filesystem import FileSpec
from repro.sim import Environment
from repro.util.errors import ConfigurationError


class TestPageCache:
    def test_cold_read_misses_everything(self):
        cache = PageCache(capacity_bytes=1e9)
        file = FileSpec("db", 1e8)
        assert cache.read(file, 4096) == 4096

    def test_fully_resident_file_hits(self):
        cache = PageCache(capacity_bytes=1e9)
        file = FileSpec("db", 1e6)
        cache.write(file, 1e6)  # populate fully
        assert cache.read(file, 4096) == 0.0

    def test_partial_residency_partial_miss(self):
        cache = PageCache(capacity_bytes=1e9)
        file = FileSpec("db", 1e6)
        cache.write(file, 5e5)  # half resident
        assert cache.read(file, 1000) == pytest.approx(500.0)

    def test_capacity_bounds_residency(self):
        cache = PageCache(capacity_bytes=1e6)
        file = FileSpec("db", 1e8)
        cache.write(file, 5e7)
        assert cache.used_bytes <= 1e6 + 1e-6

    def test_eviction_is_proportional(self):
        cache = PageCache(capacity_bytes=1000)
        f1, f2 = FileSpec("a", 1e6), FileSpec("b", 1e6)
        cache.write(f1, 600)
        cache.write(f2, 600)
        assert cache.used_bytes == pytest.approx(1000)
        assert cache.resident_fraction(f1) > 0
        assert cache.resident_fraction(f2) > 0

    def test_zero_capacity_never_hits(self):
        cache = PageCache(capacity_bytes=0)
        file = FileSpec("db", 1e6)
        cache.write(file, 1e6)
        assert cache.read(file, 100) == 100

    def test_counters(self):
        cache = PageCache(capacity_bytes=1e9)
        file = FileSpec("db", 1e6)
        cache.write(file, 1e6)
        cache.read(file, 500)
        assert cache.hit_bytes == 500
        assert cache.miss_bytes == 0


class TestFileSystem:
    def test_create_and_read(self):
        fs = FileSystem(PageCache(1e9))
        fs.create("data.db", 1e6)
        assert fs.read("data.db", 100) == 100  # cold

    def test_create_idempotent(self):
        fs = FileSystem(PageCache(1e9))
        fs.create("x", 100)
        fs.create("x", 100)

    def test_size_conflict_rejected(self):
        fs = FileSystem(PageCache(1e9))
        fs.create("x", 100)
        with pytest.raises(ConfigurationError):
            fs.create("x", 200)

    def test_missing_file_rejected(self):
        fs = FileSystem(PageCache(1e9))
        with pytest.raises(ConfigurationError):
            fs.read("nope", 1)


class TestNicAndFabric:
    def test_transmit_time_matches_bandwidth(self):
        env = Environment()
        nic = NicDevice(env, PLATFORM_B.network)  # 1 GbE = 125 MB/s
        done = {}

        def proc():
            yield nic.transmit_op(125_000_000)
            done["t"] = env.now

        env.process(proc())
        env.run()
        assert done["t"] == pytest.approx(1.0, rel=0.01)
        assert nic.tx_bytes == 125_000_000

    def test_bandwidth_share_slows_transmit(self):
        env = Environment()
        nic = NicDevice(env, PLATFORM_B.network, bandwidth_share=0.5)
        done = {}

        def proc():
            yield nic.transmit_op(125_000_000)
            done["t"] = env.now

        env.process(proc())
        env.run()
        assert done["t"] == pytest.approx(2.0, rel=0.01)

    def test_sends_serialise_on_the_wire(self):
        env = Environment()
        nic = NicDevice(env, PLATFORM_B.network)
        finish = []

        def proc():
            yield nic.transmit_op(125_000_000)
            finish.append(env.now)

        env.process(proc())
        env.process(proc())
        env.run()
        assert finish == [pytest.approx(1.0, rel=0.01),
                          pytest.approx(2.0, rel=0.01)]
        assert nic.tx_bytes == 250_000_000

class TestCpuDevice:
    def test_execute_holds_core_for_cycles(self):
        env = Environment()
        cpu = CpuDevice(env, cores=1, frequency_hz=1e9)
        done = {}

        def proc():
            yield cpu.execute_op(cycles=2e9)
            done["t"] = env.now

        env.process(proc())
        env.run()
        assert done["t"] == pytest.approx(2.0)
        assert cpu.busy_seconds == pytest.approx(2.0)

    def test_queueing_beyond_cores(self):
        env = Environment()
        cpu = CpuDevice(env, cores=1, frequency_hz=1e9)
        finish = []

        def proc():
            yield cpu.execute_op(cycles=1e9)
            finish.append(env.now)

        env.process(proc())
        env.process(proc())
        env.run()
        assert finish == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_context_switch_adds_cycles(self):
        env = Environment()
        cpu = CpuDevice(env, cores=1, frequency_hz=2.1e9)
        switch = ContextSwitchModel(PLATFORM_A.context())
        done = {}

        def proc():
            yield cpu.execute_op(cycles=0, switch=switch)
            done["t"] = env.now

        env.process(proc())
        env.run()
        assert done["t"] > 0
        assert cpu.context_switches == 1

    def test_utilisation(self):
        env = Environment()
        cpu = CpuDevice(env, cores=2, frequency_hz=1e9)

        def proc():
            yield cpu.execute_op(cycles=1e9)

        env.process(proc())
        env.run()
        assert cpu.utilisation(elapsed_seconds=1.0) == pytest.approx(0.5)

    def test_invalid_construction(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            CpuDevice(env, cores=0, frequency_hz=1e9)
        with pytest.raises(ConfigurationError):
            CpuDevice(env, cores=1, frequency_hz=0)


class TestNode:
    def test_defaults_from_platform(self):
        env = Environment()
        node = Node(env, PLATFORM_A)
        assert node.cores == PLATFORM_A.total_cores
        assert node.frequency_ghz == PLATFORM_A.base_frequency_ghz

    def test_core_and_frequency_overrides(self):
        env = Environment()
        node = Node(env, PLATFORM_A, cores=8, frequency_ghz=1.5)
        assert node.cores == 8
        assert node.seconds_for_cycles(1.5e9) == pytest.approx(1.0)

    def test_core_overcommit_rejected(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            Node(env, PLATFORM_C, cores=1000)

    def test_disk_io_and_counters(self):
        env = Environment()
        node = Node(env, PLATFORM_A)
        done = {}

        def proc():
            yield node.disk.io_op(1_000_000)
            done["t"] = env.now

        env.process(proc())
        env.run()
        # SSD: 90us latency + 1MB/520MBps ~ 2.01ms
        assert done["t"] == pytest.approx(90e-6 + 1e6 / 520e6, rel=0.01)
        assert node.disk.read_bytes == 1_000_000

    def test_hdd_slower_than_ssd(self):
        env = Environment()
        ssd_node = Node(env, PLATFORM_A, name="nA")
        hdd_node = Node(env, PLATFORM_B, name="nB")
        times = {}

        def proc(node, tag):
            start = env.now
            yield node.disk.io_op(4096)
            times[tag] = env.now - start

        env.process(proc(ssd_node, "ssd"))
        env.process(proc(hdd_node, "hdd"))
        env.run()
        assert times["hdd"] > 10 * times["ssd"]

    @pytest.mark.parametrize("platform", [PLATFORM_A, PLATFORM_B])
    def test_concurrent_ios_wait_for_queue_and_channel(self, platform):
        # SSD: both reads overlap their access latency, then serialise on
        # the transfer channel. HDD: the second read waits for the queue.
        env = Environment()
        node = Node(env, platform)
        spec = platform.disk
        finish = []

        def proc():
            yield node.disk.io_op(1_000_000)
            finish.append(env.now)

        env.process(proc())
        env.process(proc())
        env.run()
        xfer = 1_000_000 / spec.bandwidth_bytes_per_s
        latency = spec.read_latency_s
        second = (latency + 2 * xfer if spec.kind == "ssd"
                  else 2 * (latency + xfer))
        assert finish == [pytest.approx(latency + xfer),
                          pytest.approx(second)]
        assert node.disk.operations == 2
