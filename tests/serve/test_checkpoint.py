"""Checkpoint durability: resume is bit-identical, corruption is loud."""

from __future__ import annotations

import json

import pytest

from repro.serve import (
    CacheAdvisor,
    ServeConfig,
    SyntheticSource,
    load_checkpoint,
    records_for,
    restore_advisor,
    write_checkpoint,
)
from repro.serve import checkpoint
from repro.serve.checkpoint import CheckpointWriter
from repro.workloads import PartialStripeError


def _config(**overrides) -> ServeConfig:
    base = dict(
        code="tip",
        p=5,
        workers=4,
        cache_mbs=(2.0, 8.0),
        policies=("fbf", "lru"),
        window_events=36,
        batch_events=12,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _fed_advisor(n_batches: int = 7) -> CacheAdvisor:
    advisor = CacheAdvisor(_config())
    source = SyntheticSource("tip", 5, chunk=12, seed=11)
    for batch in source.batches(n_batches):
        advisor.ingest(batch)
    return advisor


class TestRoundTrip:
    def test_resume_is_bit_identical(self, tmp_path):
        advisor = _fed_advisor()
        assert advisor.first_event > 0  # checkpoint a compacted log
        path = write_checkpoint(tmp_path / "ckpt.json", advisor)
        restored = restore_advisor(_config(), path)
        assert restored is not None
        # Identical replay state: the same retained log at the same log
        # positions, and therefore the same evaluation rows.
        assert restored.window_events() == advisor.window_events()
        assert restored.first_event == advisor.first_event
        assert restored.events_seen == advisor.events_seen
        assert restored.batches == advisor.batches
        assert restored.evaluate() == advisor.evaluate()

    def test_checkpoint_file_is_stable_json(self, tmp_path):
        advisor = _fed_advisor(3)
        first = write_checkpoint(tmp_path / "a.json", advisor)
        second = write_checkpoint(tmp_path / "b.json", advisor)
        assert first.read_bytes() == second.read_bytes()
        state = load_checkpoint(first)
        assert state["fingerprint"] == advisor.config.fingerprint()

    @pytest.mark.parametrize("every", [1, 7, 42])
    def test_file_is_the_canonical_dump_of_the_state(self, tmp_path, every):
        """The writer keeps encoded records between writes; every file must
        still be exactly the canonical dump of ``state()``, whether the
        events leaving the log between two writes take some of the kept
        records (``every`` 1) or all of them (7 and 42), and after a
        restore."""

        def canonical(advisor):
            payload = {"schema": 1, "state": advisor.state()}
            return json.dumps(payload, sort_keys=True, separators=(",", ":"))

        config = _config(window_events=12)  # the log keeps the last 12 events
        advisor = CacheAdvisor(config)
        source = SyntheticSource("tip", 5, chunk=5, seed=13)
        writer = CheckpointWriter(tmp_path / "ckpt.json", advisor)
        for i, batch in enumerate(source.batches(210), 1):
            advisor.ingest(batch)
            if i % every == 0:
                text = writer.write().read_text(encoding="utf-8")
                assert text == canonical(advisor)
        assert advisor.first_event == 210 * 5 - 12
        restored = restore_advisor(config, writer.path)
        assert canonical(restored) == canonical(advisor)
        writer = CheckpointWriter(writer.path, restored)
        for batch in source.batches(5):
            restored.ingest(batch)
            text = writer.write().read_text(encoding="utf-8")
            assert text == canonical(restored)

    def test_writer_encodes_each_event_once(self, tmp_path, monkeypatch):
        encoded = []

        def counting(event):
            encoded.append(event)
            return encode_record(event)

        encode_record = checkpoint._encode_record
        monkeypatch.setattr(checkpoint, "_encode_record", counting)
        advisor = CacheAdvisor(_config(window_events=12))
        writer = CheckpointWriter(tmp_path / "ckpt.json", advisor)
        for batch in SyntheticSource("tip", 5, chunk=5, seed=13).batches(60):
            advisor.ingest(batch)
            assert not encoded or len(encoded) < advisor.events_seen
            writer.write()
            assert len(encoded) == advisor.events_seen
        assert advisor.first_event > 0

    @pytest.mark.parametrize(
        "time", [0.1 + 0.2, 1e-7, 123456789.0, 3, True, float("nan"), float("inf")]
    )
    def test_record_encoding_is_the_encoder_s_output(self, time):
        event = PartialStripeError(time=time, stripe=2**40, disk=3, start_row=1, length=2)
        expected = json.dumps(records_for([event])[0], sort_keys=True,
                              separators=(",", ":"))
        assert checkpoint._encode_record(event) == expected

    def test_missing_checkpoint_means_fresh_start(self, tmp_path):
        assert restore_advisor(_config(), tmp_path / "absent.json") is None


class TestRejection:
    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = write_checkpoint(tmp_path / "ckpt.json", _fed_advisor(3))
        with pytest.raises(ValueError, match="fingerprint"):
            restore_advisor(_config(window_events=48), path)

    def test_corrupt_json_is_loud(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt"):
            restore_advisor(_config(), path)

    def test_wrong_schema_is_loud(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(
            json.dumps({"schema": 99, "state": {}}), encoding="utf-8"
        )
        with pytest.raises(ValueError, match="schema"):
            restore_advisor(_config(), path)
