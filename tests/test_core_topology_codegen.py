"""Tests for the topology analyser and the assembly emitter."""

import pytest

from repro.core import emit_assembly, generate_program
from repro.core.codegen import _bitmask_comment
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.runtime import ExperimentConfig, run_experiment
from repro.tracing import Tracer, analyze_topology
from repro.util.errors import ProfilingError

from tests._feature_factory import make_features


#: the traced run: the single-node social network at 700 qps for
#: 0.03 simulated seconds, seed 2
SEED2_RUN = dict(qps=700, duration_s=0.03, seed=2)
#: its tiers (Kahn order by generations) and edges (insertion order)
SEED2_TIERS = [
    "frontend", "home-timeline-service", "user-timeline-service",
    "compose-post-service", "text-service", "unique-id-service",
    "media-service", "user-service", "post-storage-service",
    "write-home-timeline-service", "url-shorten-service",
    "user-mention-service", "social-graph-service", "socialgraph-redis",
]
SEED2_EDGES = [
    ("frontend", "home-timeline-service", 10),
    ("frontend", "user-timeline-service", 4),
    ("frontend", "compose-post-service", 3),
    ("home-timeline-service", "social-graph-service", 10),
    ("home-timeline-service", "post-storage-service", 10),
    ("social-graph-service", "socialgraph-redis", 13),
    ("user-timeline-service", "post-storage-service", 4),
    ("compose-post-service", "text-service", 3),
    ("compose-post-service", "unique-id-service", 3),
    ("compose-post-service", "media-service", 3),
    ("compose-post-service", "user-service", 3),
    ("compose-post-service", "post-storage-service", 3),
    ("compose-post-service", "write-home-timeline-service", 3),
    ("text-service", "url-shorten-service", 3),
    ("text-service", "user-mention-service", 3),
    ("write-home-timeline-service", "social-graph-service", 3),
]


@pytest.fixture(scope="module")
def socialnet_spans():
    from repro.app.workloads.socialnet import social_network_deployment
    tracer = Tracer()
    config = ExperimentConfig(platform=PLATFORM_A,
                              duration_s=SEED2_RUN["duration_s"],
                              seed=SEED2_RUN["seed"], tracer=tracer)
    run_experiment(social_network_deployment(),
                   LoadSpec.open_loop(SEED2_RUN["qps"]), config)
    return tracer.finished_spans()


class TestAnalyzeTopology:
    def test_entry_identified(self, socialnet_spans):
        summary = analyze_topology(socialnet_spans)
        assert summary.entry_service == "frontend"

    def test_all_tiers_discovered(self, socialnet_spans):
        summary = analyze_topology(socialnet_spans)
        # Every tier that saw traffic appears; the backbone tiers must.
        for tier in ("frontend", "home-timeline-service",
                     "social-graph-service", "post-storage-service"):
            assert tier in summary.tiers

    def test_tiers_and_edges_in_recorded_order(self, socialnet_spans):
        # Tiers in Kahn-by-generations order, edges in insertion order:
        # the order the synthetic tiers are generated and reported in.
        summary = analyze_topology(socialnet_spans)
        assert summary.tiers == SEED2_TIERS
        assert summary.edges == SEED2_EDGES

    def test_edges_carry_call_counts(self, socialnet_spans):
        summary = analyze_topology(socialnet_spans)
        for src, dst, calls in summary.edges:
            assert calls > 0
            assert src != dst

    def test_fan_out(self, socialnet_spans):
        summary = analyze_topology(socialnet_spans)
        assert summary.fan_out("frontend") == 3
        assert summary.fan_out("socialgraph-redis") == 0

    def test_empty_spans_rejected(self):
        with pytest.raises(ProfilingError):
            analyze_topology([])


class TestAssemblyEmitter:
    @pytest.fixture(scope="class")
    def listing(self):
        program, _files = generate_program(make_features())
        return emit_assembly(program)

    def test_skeleton_loop_present(self, listing):
        assert "void main_loop()" in listing
        assert "epoll_wait(listen_fd" in listing

    def test_handlers_emitted(self, listing):
        assert "void handler_op(" in listing

    def test_syscall_replay_lines(self, listing):
        assert "recv(fd, buffer," in listing
        assert "send(fd, buffer," in listing

    def test_loop_structure(self, listing):
        assert '"xor r9, r9\\n"' in listing
        assert "cmp r9," in listing

    def test_branch_bitmask_encoding(self):
        comment = _bitmask_comment(taken_rate=0.875, transition_rate=0.25)
        # taken 0.875 folds to 0.125 = 2^-3 -> three leading one bits.
        assert "0xe0000000" in comment
        assert "2^-3" in comment
        assert "2^-2" in comment

    def test_no_branch_register_operands(self, listing):
        for line in listing.splitlines():
            stripped = line.strip().strip('"')
            for mnemonic in ("jz ", "jnz ", "jl "):
                if stripped.startswith(mnemonic):
                    target = stripped[len(mnemonic):]
                    assert target.startswith(".") or target.startswith(
                        "0x"), line

    def test_deterministic(self):
        program, _files = generate_program(make_features())
        assert emit_assembly(program, seed=4) == emit_assembly(program,
                                                               seed=4)


class TestWsetHelpers:
    @staticmethod
    def _region(weight, region_bytes, chase_frac):
        from repro.profiling.artifacts import RegionStats
        return RegionStats(hits=(weight,), total_weight=weight,
                           regularity=1.0, shared=None,
                           chase_frac=chase_frac, region_bytes=region_bytes)

    def test_region_chase_ratio_weighted(self):
        from operator import attrgetter
        from repro.core.features import _weighted_mean
        chasing = self._region(30.0, 1 << 21, chase_frac=1.0)
        plain = self._region(10.0, 1 << 21, chase_frac=0.0)
        assert _weighted_mean([chasing, plain], attrgetter(
            "chase_frac")) == pytest.approx(0.75)

    def test_region_chase_ratio_band_filter(self):
        from operator import attrgetter
        from repro.core.features import _weighted_mean
        small = self._region(4.0, 4096, chase_frac=1.0)
        assert _weighted_mean([small], attrgetter("chase_frac"),
                              min_region_bytes=1 << 20) == 0.0

    def test_empty_regions_zero(self):
        from repro.core.features import _sweep, _weighted_mean
        from repro.profiling.wset import DATA_SWEEP_SIZES
        from repro.util.errors import ProfilingError
        assert _weighted_mean([], lambda region: 1.0) == 0.0
        with pytest.raises(ProfilingError):
            _sweep([], DATA_SWEEP_SIZES)
