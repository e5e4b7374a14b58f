"""Artifact-integrity envelope: digests, quarantine, atomic writes."""

import os
import pickle

import pytest

from repro.telemetry.session import Telemetry
from repro.util.errors import ArtifactIntegrityError
from repro.validation import integrity


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "artifact.bin")


class TestEnvelopeRoundTrip:
    def test_payload_and_version_survive(self, path):
        integrity.write_envelope(path, b"hello payload", schema="demo",
                                 version=3)
        payload, version = integrity.read_envelope(path, schema="demo")
        assert payload == b"hello payload"
        assert version == 3

    def test_empty_payload(self, path):
        integrity.write_envelope(path, b"", schema="demo")
        payload, _ = integrity.read_envelope(path, schema="demo")
        assert payload == b""

    def test_object_round_trip(self, path):
        value = {"knobs": [1.5, 2.5], "tier": "memcached"}
        integrity.save_object(path, value, schema="demo")
        assert integrity.load_object(path, schema="demo") == value

    def test_write_is_atomic_no_scratch_left(self, path):
        integrity.write_envelope(path, b"x" * 1024, schema="demo")
        leftovers = [name for name in os.listdir(os.path.dirname(path))
                     if ".tmp" in name]
        assert leftovers == []

    def test_missing_file_is_file_not_found(self, path):
        with pytest.raises(FileNotFoundError):
            integrity.read_envelope(path, schema="demo")


class TestCorruptionDetection:
    def _write(self, path):
        integrity.write_envelope(path, b"payload-bytes" * 10, schema="demo")

    def test_truncation_detected_and_quarantined(self, path):
        self._write(path)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:-7])
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="demo")
        assert excinfo.value.reason == "truncated"
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantined")
        assert excinfo.value.quarantined_to == path + ".quarantined"

    def test_trailing_garbage_detected(self, path):
        self._write(path)
        with open(path, "ab") as handle:
            handle.write(b"garbage")
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="demo")
        assert excinfo.value.reason == "truncated"
        assert os.path.exists(path + ".quarantined")

    def test_bit_flip_detected(self, path):
        self._write(path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="demo")
        assert excinfo.value.reason == "digest_mismatch"
        assert os.path.exists(path + ".quarantined")

    def test_foreign_file_is_bad_header(self, path):
        with open(path, "wb") as handle:
            handle.write(b"this was never an envelope")
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="demo")
        assert excinfo.value.reason == "bad_header"

    def test_schema_mismatch_rejected(self, path):
        self._write(path)
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="other-schema")
        assert excinfo.value.reason == "bad_header"

    def test_future_version_rejected_but_not_quarantined(self, path):
        integrity.write_envelope(path, b"p", schema="demo", version=9)
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="demo", max_version=1)
        assert excinfo.value.reason == "version"
        # The file is intact, just newer than this reader — keep it.
        assert os.path.exists(path)
        assert not os.path.exists(path + ".quarantined")

    def test_exact_version_load_misses_other_versions(self, path):
        integrity.save_object(path, {"layout": 1}, schema="demo", version=1)
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.load_exact(path, schema="demo", version=2)
        assert excinfo.value.reason == "version"
        # An older layout is intact, not corrupt: it stays for the
        # caller to overwrite.
        assert os.path.exists(path)
        assert not os.path.exists(path + ".quarantined")
        integrity.save_object(path, {"layout": 2}, schema="demo", version=2)
        assert integrity.load_exact(path, schema="demo",
                                    version=2) == {"layout": 2}

    def test_quarantine_can_be_disabled(self, path):
        self._write(path)
        with open(path, "ab") as handle:
            handle.write(b"junk")
        with pytest.raises(ArtifactIntegrityError):
            integrity.read_envelope(path, schema="demo",
                                    quarantine_bad=False)
        assert os.path.exists(path)

    def test_valid_digest_bad_pickle_quarantined(self, path):
        # A digest-valid envelope whose payload is not a pickle: the
        # digest passes, unpickling fails, and the file must still be
        # quarantined instead of half-trusted.
        integrity.write_envelope(path, b"\x80not really a pickle",
                                 schema="demo")
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.load_object(path, schema="demo")
        assert excinfo.value.reason == "undecodable"
        assert os.path.exists(path + ".quarantined")

    def test_quarantine_counted_in_telemetry(self, path):
        self._write(path)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        session = Telemetry()
        session.activate()
        try:
            with pytest.raises(ArtifactIntegrityError):
                integrity.read_envelope(path, schema="demo")
            metric = session.registry.counter(
                "ditto_artifact_quarantines_total",
                "persisted artifacts that failed integrity checks and "
                "were quarantined", ("schema", "reason"))
            assert metric.value(schema="demo",
                                reason="digest_mismatch") == 1
        finally:
            session.deactivate()


class TestJsonStamping:
    def test_stamp_and_verify_round_trip(self):
        document = {"format": "demo", "tiers": {"a": 1, "b": [2, 3]}}
        integrity.stamp_json(document)
        assert document["integrity"]["algorithm"] == "sha256-canonical-json"
        integrity.verify_json(document)  # no raise

    def test_tampered_document_rejected(self):
        document = integrity.stamp_json({"value": 41})
        document["value"] = 42
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.verify_json(document, path="doc.json")
        assert excinfo.value.reason == "digest_mismatch"

    def test_unstamped_document_passes(self):
        integrity.verify_json({"format": "demo", "value": 1})

    def test_key_order_does_not_matter(self):
        stamped = integrity.stamp_json({"a": 1, "b": 2})
        reordered = {"b": 2, "a": 1,
                     "integrity": dict(stamped["integrity"])}
        integrity.verify_json(reordered)

    def test_unknown_algorithm_rejected(self):
        document = integrity.stamp_json({"v": 1})
        document["integrity"]["algorithm"] = "crc32"
        with pytest.raises(ArtifactIntegrityError):
            integrity.verify_json(document)
