"""Tests for cross-environment clone migration (``repro.migrate``).

The contract under test (DESIGN.md "Clone migration"): a saved clone
bundle either migrates to the destination through preflight → warm
re-tune → destination gate and publishes a stamped ``ditto-migration/1``
artifact, or is refused with a typed ``MigrationError`` naming the
blocking objects — never a silently degraded clone. Impossible
destinations must refuse at preflight with *zero* tuning work.
"""

import json
import math

import pytest

from repro import (
    CloneRequest,
    Deployment,
    DittoCloner,
    ExperimentConfig,
    LoadSpec,
    PLATFORM_A,
    build_memcached,
)
from repro.core.bundle import (
    deployment_from_bundle,
    load_bundle,
    read_bundle_document,
    save_bundle,
)
from repro.hw.platform import PLATFORM_B, PLATFORM_C
from repro.migrate import (
    MIGRATION_TOLERANCES,
    MigrationError,
    MigrationRequest,
    PreflightReport,
    Verdict,
    migrate_request,
    run_preflight,
)
from repro.migrate.__main__ import main as migrate_main
from repro.util.errors import ArtifactIntegrityError, ConfigurationError
from repro.validation.__main__ import main as validation_main
from repro.validation.__main__ import validate_bundle
from repro.validation.gate import FidelityGate, MetricTolerance
from repro.validation.remediate import RemediationPolicy


def _clone_features():
    clone = DittoCloner(executor="serial").clone(
        CloneRequest(
            deployment=Deployment.single(build_memcached()),
            load=LoadSpec.open_loop(20_000),
            config=ExperimentConfig(platform=PLATFORM_A,
                                    duration_s=0.02),
            validate=True, max_tune_iterations=3))
    return (clone.report.features,
            {name: r.knobs for name, r in clone.report.tuning.items()},
            clone.report.generator_seeds)


@pytest.fixture(scope="module")
def clone_parts():
    return _clone_features()


@pytest.fixture(scope="module")
def source_bundle(clone_parts, tmp_path_factory):
    features, knobs, seeds = clone_parts
    path = tmp_path_factory.mktemp("migrate") / "source.bundle.json"
    save_bundle(features, path, entry_service="memcached",
                tuned_knobs=knobs, source_platform=PLATFORM_A,
                generator_seeds=seeds)
    return path


@pytest.fixture()
def two_node_bundle(clone_parts, tmp_path):
    """A bundle whose DAG spans two nodes (for placement preflight)."""
    features, knobs, _seeds = clone_parts
    tier = features["memcached"]
    path = tmp_path / "twonode.bundle.json"
    save_bundle({"front": tier, "back": tier}, path,
                entry_service="front",
                placements={"front": "node0", "back": "node1"},
                tuned_knobs={"front": knobs["memcached"],
                             "back": knobs["memcached"]},
                source_platform=PLATFORM_A)
    return path


def _migrate(bundle, destination, out=None, **overrides):
    params = dict(duration_s=0.05, max_tune_iterations=4)
    params.update(overrides)
    return migrate_request(MigrationRequest(
        bundle_path=str(bundle), destination=destination, **params), out)


class TestPreflight:
    def test_same_platform_is_all_transfers(self, source_bundle):
        report = run_preflight(read_bundle_document(source_bundle),
                               source=PLATFORM_A, destination=PLATFORM_A)
        assert report.passed
        assert report.retune_knobs() == {}
        assert all(v.verdict is Verdict.TRANSFERS for v in report.verdicts)

    def test_cross_platform_flags_stale_knobs(self, source_bundle):
        report = run_preflight(read_bundle_document(source_bundle),
                               source=PLATFORM_A, destination=PLATFORM_B)
        assert report.passed  # nothing blocks — retune is enough
        stale = report.retune_knobs()["memcached"]
        # A and B differ in L2/LLC geometry, uarch and frequency —
        # but share L1 geometry, so the L1-paired knobs carry over
        assert stale == ["big_wset_scale", "ilp_scale",
                         "transition_scale"]
        by_obj = {v.obj: v for v in report.verdicts}
        for knob in ("instr_scale", "chase_scale",  # workload-bound
                     "imem_scale", "dmem_scale"):   # same L1 geometry
            assert by_obj[f"memcached/{knob}"].verdict is Verdict.TRANSFERS

    def test_report_round_trips(self, source_bundle):
        report = run_preflight(read_bundle_document(source_bundle),
                               source=PLATFORM_A, destination=PLATFORM_B)
        clone = PreflightReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.retune_knobs() == report.retune_knobs()

    def test_placement_overflow_blocks_only_overflow_tiers(
            self, two_node_bundle):
        report = run_preflight(read_bundle_document(two_node_bundle),
                               source=PLATFORM_A, destination=PLATFORM_B,
                               destination_nodes=1)
        assert not report.passed
        assert report.blocking() == ["back/placement"]

    def test_allow_degraded_consolidates_placements(self, two_node_bundle):
        report = run_preflight(read_bundle_document(two_node_bundle),
                               source=PLATFORM_A, destination=PLATFORM_B,
                               destination_nodes=1, allow_degraded=True)
        assert report.passed
        assert set(report.consolidated_placements.values()) == {"node0"}
        assert set(report.degraded()) == {"front/placement",
                                          "back/placement"}


class TestMigrationRequestValidation:
    @pytest.mark.parametrize("field, value", [
        ("duration_s", math.nan),
        ("duration_s", math.inf),
        ("tune_tolerance", math.nan),
        ("sim_deadline_s", math.nan),
        ("tolerances", {"ipc": math.nan}),
        ("tolerances", {"ipc": -0.1}),
        ("tolerances", {"ipc": "0.1"}),
        ("max_tune_iterations", 2.5),
        ("max_tune_iterations", True),
        ("destination_nodes", 1.5),
        ("max_sim_events", 100.0),
        ("seed", True),
        ("seed", 1.0),
    ])
    def test_rejects_bad_inputs(self, field, value):
        with pytest.raises(ConfigurationError):
            MigrationRequest(bundle_path="b.json", destination=PLATFORM_B,
                             **{field: value})

    def test_empty_tolerances_normalise_to_none(self):
        empty = MigrationRequest(bundle_path="b.json",
                                 destination=PLATFORM_B, tolerances={})
        unset = MigrationRequest(bundle_path="b.json",
                                 destination=PLATFORM_B)
        assert empty.tolerances is None
        assert empty.digest() == unset.digest()

    def test_metric_tolerance_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            MetricTolerance("ipc", relative=math.nan)
        with pytest.raises(ConfigurationError):
            MetricTolerance("ipc", relative=0.1, absolute=math.nan)


class TestMigrateEndToEnd:
    def test_same_platform_publishes_without_retune(self, source_bundle,
                                                    tmp_path):
        out = tmp_path / "a_to_a.json"
        result = _migrate(source_bundle, PLATFORM_A, out)
        assert result.fidelity.passed
        assert result.tuning_iterations == {"memcached": 0}
        assert result.retune_deltas == {}
        document = read_bundle_document(out)  # stamped + well-formed
        assert document["format"] == "ditto-migration"
        assert document["version"] == 1
        assert document["migration"]["source"] == "A"
        assert document["migration"]["destination"] == "A"

    def test_cross_platform_retunes_and_passes_gate(self, source_bundle,
                                                    tmp_path):
        out = tmp_path / "a_to_b.json"
        result = _migrate(source_bundle, PLATFORM_B, out)
        assert result.fidelity.passed
        assert result.tuning_iterations["memcached"] > 0
        assert result.retune_deltas["memcached"]  # knobs actually moved
        stanza = read_bundle_document(out)["migration"]
        assert stanza["preflight"]["verdicts"]  # embedded reports
        assert stanza["fidelity"]["checks"]
        assert stanza["retune"] == result.retune_deltas
        # the migrated bundle is a strict superset of a clone bundle:
        # every consumer works on it unchanged
        features, entry, _ = load_bundle(out)
        assert entry == "memcached" and "memcached" in features
        synthetic = deployment_from_bundle(out)
        assert "memcached" in synthetic.services

    def test_validation_cli_gate_reproduces_migration_gate(
            self, source_bundle, tmp_path):
        # One bundle gate, two entry points: with no remediation, the
        # validation CLI's gate on the destination measures exactly
        # what the migration's destination gate measured.
        out = tmp_path / "a_to_b.json"
        result = _migrate(source_bundle, PLATFORM_B, out)
        assert result.remediation == []
        document = read_bundle_document(out)
        assert (document["generator_seeds"]
                == read_bundle_document(source_bundle)["generator_seeds"])
        stanza = document["migration"]
        reports = validate_bundle(
            str(out), platform_name="B", seed=stanza["seed"],
            duration_s=0.05, gate=FidelityGate(MIGRATION_TOLERANCES))
        measured = [(check.service, check.metric, check.clone)
                    for report in reports for check in report.checks]
        assert measured == [
            (check["service"], check["metric"], check["clone"])
            for check in stanza["fidelity"]["checks"]]
        assert all(report.passed for report in reports)

    def test_migration_to_platform_c_passes_gate(self, source_bundle,
                                                 tmp_path):
        result = _migrate(source_bundle, PLATFORM_C,
                          tmp_path / "a_to_c.json")
        assert result.fidelity.passed
        assert result.preflight.retune_knobs()["memcached"]

    def test_migration_is_deterministic(self, source_bundle, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        _migrate(source_bundle, PLATFORM_B, first)
        _migrate(source_bundle, PLATFORM_B, second)
        assert first.read_bytes() == second.read_bytes()

    def test_impossible_destination_refuses_with_zero_work(
            self, two_node_bundle, monkeypatch):
        def no_tuning(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("preflight refusal must spend no tuning")
        monkeypatch.setattr("repro.migrate.engine.fine_tune", no_tuning)
        monkeypatch.setattr("repro.migrate.engine.gate_bundle_tiers",
                            no_tuning)
        with pytest.raises(MigrationError) as info:
            _migrate(two_node_bundle, PLATFORM_B, destination_nodes=1)
        assert info.value.stage == "preflight"
        assert info.value.blocking == ["back/placement"]
        assert info.value.report is not None

    def test_missing_source_platform_refuses(self, clone_parts, tmp_path):
        features, knobs, _seeds = clone_parts
        legacy = tmp_path / "legacy.bundle.json"
        save_bundle(features, legacy, entry_service="memcached",
                    tuned_knobs=knobs)  # no source_platform stanza
        with pytest.raises(MigrationError) as info:
            _migrate(legacy, PLATFORM_B)
        assert info.value.stage == "preflight"
        assert info.value.blocking == ["bundle/source_platform"]
        # an explicit source platform unblocks the same bundle
        report = run_preflight(read_bundle_document(legacy),
                               source=PLATFORM_A, destination=PLATFORM_B)
        assert report.passed

    def test_gate_failure_refuses_after_ladder(self, source_bundle):
        with pytest.raises(MigrationError) as info:
            _migrate(source_bundle, PLATFORM_B, tolerances={"ipc": 1e-9},
                     remediation=RemediationPolicy(max_attempts=0))
        assert info.value.stage == "gate"
        assert "memcached/ipc" in info.value.blocking

    def test_migration_tolerances_cover_all_gate_metrics(self):
        from repro.validation.gate import COUNTER_METRICS
        assert set(MIGRATION_TOLERANCES) == set(COUNTER_METRICS)


class TestBundleRobustness:
    """load_bundle robustness (corruption quarantines, legacy loads)."""

    def test_legacy_v1_bundle_round_trips(self, source_bundle, tmp_path):
        document = json.loads(source_bundle.read_text())
        document.pop("integrity", None)
        document.pop("source_platform", None)
        document["version"] = 1
        legacy = tmp_path / "v1.bundle.json"
        legacy.write_text(json.dumps(document))
        features, entry, placements = load_bundle(legacy)
        assert entry == "memcached"
        assert "memcached" in features
        assert placements == {}

    def test_truncated_bundle_is_quarantined(self, source_bundle,
                                             tmp_path):
        broken = tmp_path / "truncated.bundle.json"
        broken.write_text(source_bundle.read_text()[:200])
        with pytest.raises(ArtifactIntegrityError) as info:
            load_bundle(broken)
        assert not broken.exists()  # moved aside, never half-loaded
        assert info.value.quarantined_to
        assert info.value.quarantined_to.endswith(".quarantined")

    def test_corrupted_field_is_quarantined(self, source_bundle,
                                            tmp_path):
        document = json.loads(source_bundle.read_text())
        document["entry_service"] = "tampered"
        document["tiers"]["tampered"] = document["tiers"].pop("memcached")
        broken = tmp_path / "tampered.bundle.json"
        broken.write_text(json.dumps(document))
        with pytest.raises(ArtifactIntegrityError):
            load_bundle(broken)
        assert not broken.exists()

    def test_preflight_refuses_quarantined_source(self, source_bundle,
                                                  tmp_path, monkeypatch):
        document = json.loads(source_bundle.read_text())
        document["tuned_knobs"]["memcached"]["instr_scale"] = 99.0
        broken = tmp_path / "flipped.bundle.json"
        broken.write_text(json.dumps(document))

        def no_work(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("quarantined source must end migration")
        monkeypatch.setattr("repro.migrate.engine.run_preflight", no_work)
        with pytest.raises(ArtifactIntegrityError):
            _migrate(broken, PLATFORM_B)
        assert not broken.exists()

    def test_corrupt_migrated_bundle_fails_validation_cli(
            self, source_bundle, tmp_path, capsys):
        out = tmp_path / "migrated.json"
        _migrate(source_bundle, PLATFORM_A, out)
        document = json.loads(out.read_text())
        document["tuned_knobs"]["memcached"]["instr_scale"] = 42.0
        out.write_text(json.dumps(document))
        code = validation_main([str(out), "--duration", "0.02",
                                "--quiet"])
        assert code != 0
        assert not out.exists()  # quarantined by the integrity layer


class TestMigrateCli:
    def test_publish_exits_zero_and_writes_artifacts(self, source_bundle,
                                                     tmp_path, capsys):
        out = tmp_path / "cli.migrated.json"
        preflight = tmp_path / "preflight.json"
        code = migrate_main([str(source_bundle), "--destination", "A",
                             "--out", str(out),
                             "--preflight-json", str(preflight),
                             "--duration", "0.05", "--quiet"])
        assert code == 0
        assert read_bundle_document(out)["format"] == "ditto-migration"
        report = json.loads(preflight.read_text())
        assert report["format"] == "ditto-preflight-report/1"

    def test_preflight_refusal_exits_two(self, two_node_bundle, tmp_path,
                                         capsys):
        preflight = tmp_path / "refused.preflight.json"
        code = migrate_main([str(two_node_bundle), "--destination", "B",
                             "--destination-nodes", "1",
                             "--preflight-json", str(preflight),
                             "--duration", "0.05", "--quiet"])
        assert code == 2
        report = json.loads(preflight.read_text())
        assert report["blocking"] == ["back/placement"]

    def test_allow_degraded_consolidates_and_publishes(
            self, two_node_bundle, tmp_path, capsys):
        out = tmp_path / "degraded.migrated.json"
        code = migrate_main([str(two_node_bundle), "--destination", "A",
                             "--destination-nodes", "1",
                             "--allow-degraded", "--out", str(out),
                             "--duration", "0.05", "--quiet"])
        assert code == 0
        document = read_bundle_document(out)
        assert set(document["placements"].values()) == {"node0"}

    def test_non_finite_input_exits_three_before_preflight(
            self, source_bundle, monkeypatch, capsys):
        def no_work(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a bad request must not reach preflight")
        monkeypatch.setattr("repro.migrate.engine.run_preflight", no_work)
        code = migrate_main([str(source_bundle), "--destination", "B",
                             "--duration", "nan"])
        assert code == 3
        assert "duration_s" in capsys.readouterr().err

    def test_bad_tolerance_syntax_exits_three(self, source_bundle, capsys):
        code = migrate_main([str(source_bundle), "--destination", "B",
                             "--tolerance", "ipc"])
        assert code == 3

    @pytest.mark.parametrize("flags", [
        ["--name", "job"], ["--priority", "0"], ["--max-crashes", "1"],
        ["--flight"]])
    def test_fleet_flags_need_store(self, source_bundle, flags, capsys):
        code = migrate_main([str(source_bundle), "--destination", "B",
                             *flags])
        assert code == 3
        assert "--store" in capsys.readouterr().err

    def test_inline_flags_rejected_with_store(self, source_bundle,
                                              tmp_path, capsys):
        store = tmp_path / "store"
        code = migrate_main([str(source_bundle), "--destination", "B",
                             "--store", str(store),
                             "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert not store.exists()  # nothing was queued

    def test_store_queues_one_job(self, source_bundle, tmp_path, capsys):
        from repro.fleet import FleetClient, JobState
        store = str(tmp_path / "store")
        code = migrate_main([str(source_bundle), "--destination", "B",
                             "--duration", "0.05", "--store", store,
                             "--name", "to-b", "--priority", "3"])
        assert code == 0
        job_id = capsys.readouterr().out.strip()
        record = FleetClient(store).get(job_id)
        assert record.state is JobState.SUBMITTED
        assert record.spec.name == "to-b" and record.spec.priority == 3
        assert record.spec.request == MigrationRequest(
            bundle_path=str(source_bundle), destination=PLATFORM_B,
            duration_s=0.05)
