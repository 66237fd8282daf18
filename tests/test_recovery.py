"""Unit tests for the session-recovery stack.

Covers the journal layer (`repro.serving.recovery`), the protocol v2
RESUME handshake messages, the decoder payload bound, the degradation
ladder's state snapshot, the pipeline's GOP-boundary export/import
bit-identity and the load generator's refusal-vs-disconnect
classification.  Everything here runs on the fast path — the loopback
chaos drills live in ``tests/test_chaos_integration.py``.
"""

from __future__ import annotations

import asyncio
import math
import struct

import numpy as np
import pytest

from repro.codec.config import EncoderConfig, GopConfig
from repro.resilience.degradation import (
    DegradationController,
    ResilienceConfig,
)
from repro.resilience.errors import JournalCorruptionError
from repro.serving.chaos import ChaosConfig
from repro.serving.loadgen import LoadGenConfig, run_loadgen_async
from repro.serving.protocol import (
    DEFAULT_DECODER_MAX_PAYLOAD,
    HEADER_SIZE,
    Bye,
    MessageDecoder,
    MsgType,
    ProtocolError,
    Resume,
    ResumeAck,
    decode_frame,
    encode_message,
    read_message,
)
from repro.serving.recovery import (
    JournalStore,
    SessionJournal,
    frame_output_record,
    pack_plane,
    read_journal,
    replay_messages,
    restore_session,
    unpack_plane,
)
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import ContentClass, generate_video


def _plane(seed: int = 0, shape=(24, 32)) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


# ----------------------------------------------------------------------
# Plane packing
# ----------------------------------------------------------------------
class TestPlanePacking:
    @staticmethod
    def _on_disk(blobs):
        return [memoryview(b.tobytes()) for b in blobs]

    def test_roundtrip(self):
        plane, blobs = _plane(3), []
        refs = [pack_plane(plane, blobs), pack_plane(plane.T, blobs)]
        assert refs[0] == {"shape": [24, 32], "blob": 0}
        assert refs[1] == {"shape": [32, 24], "blob": 1}
        assert blobs[0] is plane  # queued as it is, not copied
        views = [unpack_plane(r, self._on_disk(blobs)) for r in refs]
        assert np.array_equal(views[0], plane)
        assert np.array_equal(views[1], plane.T)
        assert not views[0].flags.writeable

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pack_plane(np.zeros(16, dtype=np.uint8), [])

    def test_undecodable_payload_is_corruption(self):
        for ref in ({"shape": [4, 4], "blob": 1},
                    {"shape": [4, 4], "blob": -1},
                    {"shape": [4, 4], "blob": "0"},
                    {"shape": [4], "blob": 0},
                    {"shape": "4x4", "blob": 0}, {"blob": 0}):
            with pytest.raises(JournalCorruptionError):
                unpack_plane(ref, [memoryview(bytes(16))])

    def test_length_mismatch_is_corruption(self):
        blobs = []
        packed = pack_plane(_plane(1, (4, 4)), blobs)
        packed["shape"] = [8, 8]
        with pytest.raises(JournalCorruptionError):
            unpack_plane(packed, self._on_disk(blobs))


# ----------------------------------------------------------------------
# Journal writer / reader
# ----------------------------------------------------------------------
class TestSessionJournal:
    def _write(self, path, n=3, fsync=False):
        with SessionJournal(path, fsync=fsync) as journal:
            journal.append("admit", {"token": "t", "session_id": 1})
            for i in range(1, n):
                journal.append("gop", {"gop_index": i - 1,
                                       "next_frame_index": 4 * i})

    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "s.journal"
        self._write(path, n=4)
        scan = read_journal(path)
        assert not scan.truncated and scan.reason == "ok"
        assert [k for k, _ in scan.records] == ["admit", "gop", "gop", "gop"]
        assert scan.records[0][1]["session_id"] == 1
        assert scan.next_seq == 4

    def test_torn_final_line_is_truncation_not_error(self, tmp_path):
        path = tmp_path / "s.journal"
        self._write(path)
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 3, "kind": "gop"')  # crash mid-write
        scan = read_journal(path, strict=True)
        assert scan.truncated and scan.reason == "truncated tail"
        assert scan.next_seq == 3

    def test_corrupt_interior_record_strict_raises(self, tmp_path):
        path = tmp_path / "s.journal"
        self._write(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"gop"', b'"gap"')
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruptionError):
            read_journal(path, strict=True)
        scan = read_journal(path, strict=False)
        assert len(scan.records) == 1 and "checksum" in scan.reason

    def test_sequence_gap_detected(self, tmp_path):
        path = tmp_path / "s.journal"
        self._write(path, n=4)
        lines = path.read_bytes().splitlines(keepends=True)
        # Drop seq 1 with intact records after it: cannot be a torn
        # tail, must be flagged as corruption.
        path.write_bytes(lines[0] + lines[2] + lines[3])
        with pytest.raises(JournalCorruptionError, match="sequence"):
            read_journal(path, strict=True)

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "s.journal"
        self._write(path, n=2)
        with SessionJournal(path, fsync=False, next_seq=2) as journal:
            assert journal.append("gop", {"next_frame_index": 8}) == 2
        assert read_journal(path, strict=True).next_seq == 3

    def test_intact_bytes_excludes_torn_tail(self, tmp_path):
        path = tmp_path / "s.journal"
        self._write(path)
        clean_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 3, "kind": "gop"')  # crash mid-write
        scan = read_journal(path)
        assert scan.truncated
        assert scan.intact_bytes == clean_size


class TestJournalStore:
    def test_token_is_sanitized_and_unique(self, tmp_path):
        store = JournalStore(tmp_path)
        t1 = store.new_token(1, client_id="cli/ent !")
        t2 = store.new_token(1, client_id="cli/ent !")
        assert t1 != t2
        assert "/" not in t1 and " " not in t1 and t1.startswith("client")

    def test_path_for_rejects_traversal(self, tmp_path):
        store = JournalStore(tmp_path)
        with pytest.raises(ValueError):
            store.path_for("../escape")

    def test_create_refuses_existing(self, tmp_path):
        store = JournalStore(tmp_path, fsync=False)
        token = store.new_token(1)
        store.create(token).close()
        with pytest.raises(ValueError, match="exists"):
            store.create(token)

    def test_tokens_and_discard(self, tmp_path):
        store = JournalStore(tmp_path, fsync=False)
        token = store.new_token(2)
        with store.create(token) as journal:
            journal.append("admit", {"token": token})
        assert store.tokens() == [token]
        store.discard(token)
        assert store.tokens() == [] and not store.exists(token)

    def test_reopen_repairs_torn_tail(self, tmp_path):
        # A crash mid-append leaves a partial final line.  Reopening
        # for append must truncate it first: otherwise the next record
        # merges with the garbage mid-file and every later strict
        # restore fails — the session becomes permanently unresumable.
        store = JournalStore(tmp_path, fsync=False)
        token = store.new_token(3)
        with store.create(token) as journal:
            journal.append("admit", {"token": token, "qp": 32})
            journal.append("gop", {"gop_index": 0,
                                   "state": {"previous_original": None},
                                   "outputs": [], "next_frame_index": 4})
        path = store.path_for(token)
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 2, "kind": "gop"')  # crash mid-write
        restored = store.restore(token, strict=True)
        assert restored.truncated and restored.next_seq == 2
        with store.reopen(token, restored.next_seq,
                          truncate_to=restored.intact_bytes) as journal:
            journal.append("resume", {"have_below": 0})
        # The continuation is clean: strict restore keeps working.
        healed = store.restore(token, strict=True)
        assert not healed.truncated
        assert healed.next_seq == 3 and healed.resumes == 1

    def test_reopen_truncate_is_noop_on_clean_journal(self, tmp_path):
        store = JournalStore(tmp_path, fsync=False)
        token = store.new_token(4)
        with store.create(token) as journal:
            journal.append("admit", {"token": token})
        restored = store.restore(token, strict=True)
        size = (tmp_path / (token + ".journal")).stat().st_size
        with store.reopen(token, restored.next_seq,
                          truncate_to=restored.intact_bytes) as journal:
            journal.append("resume", {"have_below": 0})
        assert (tmp_path / (token + ".journal")).stat().st_size > size
        assert store.restore(token, strict=True).next_seq == 2


# ----------------------------------------------------------------------
# Session restore + replay
# ----------------------------------------------------------------------
class TestRestoreSession:
    def _journal(self, tmp_path, records):
        path = tmp_path / "s.journal"
        with SessionJournal(path, fsync=False) as journal:
            for kind, payload in records:
                journal.append(kind, payload)
        return path

    def _gop(self, indices, next_frame_index, dropped=()):
        outputs = []
        for i in indices:
            if i in dropped:
                outputs.append({"frame_index": i, "dropped": "deadline",
                                "frame_type": "", "bits": 0, "psnr": 0.0,
                                "recon": None})
            else:
                outputs.append({"frame_index": i, "dropped": None,
                                "frame_type": "I", "bits": 100, "psnr": 40.0,
                                "recon": _plane(i, (8, 8))})
        return {"gop_index": 0, "state": {"gop_index": 1,
                                          "frames_pushed": len(indices),
                                          "recent_bits": [],
                                          "previous_original": None},
                "outputs": outputs, "next_frame_index": next_frame_index}

    def test_requires_admit_first(self, tmp_path):
        path = self._journal(tmp_path, [("gop", self._gop([0], 1))])
        with pytest.raises(JournalCorruptionError, match="admit"):
            restore_session(path)

    def test_folds_gop_and_park(self, tmp_path):
        park_plane = _plane(9, (8, 8))
        path = self._journal(tmp_path, [
            ("admit", {"token": "t", "qp": 32}),
            ("gop", self._gop([0, 1, 2, 3], 4)),
            ("park", {"next_frame_index": 6,
                      "frames": [{"frame_index": 4,
                                  "plane": park_plane},
                                 {"frame_index": 5,
                                  "plane": park_plane}]}),
        ])
        restored = restore_session(path, strict=True)
        assert restored.parked and restored.next_frame_index == 6
        assert [i for i, _ in restored.pending] == [4, 5]
        assert sorted(restored.outputs) == [0, 1, 2, 3]
        assert restored.admit["qp"] == 32

    def test_resume_clears_park(self, tmp_path):
        path = self._journal(tmp_path, [
            ("admit", {"token": "t"}),
            ("park", {"next_frame_index": 2,
                      "frames": [{"frame_index": 0,
                                  "plane": _plane(1, (8, 8))}]}),
            ("resume", {"have_below": 0}),
        ])
        restored = restore_session(path, strict=True)
        assert not restored.parked and restored.pending == []
        assert restored.resumes == 1

    def test_replay_skips_pending_and_fills_holes(self, tmp_path):
        path = self._journal(tmp_path, [
            ("admit", {"token": "t"}),
            # Frame 2 never reached the encoder (ingest backpressure).
            ("gop", self._gop([0, 1, 3], 4, dropped=(1,))),
            ("park", {"next_frame_index": 6,
                      "frames": [{"frame_index": 4,
                                  "plane": _plane(2, (8, 8))}]}),
        ])
        restored = restore_session(path, strict=True)
        replay = replay_messages(restored, have_below=1)
        # 0 is below the watermark, 4 is pending (re-encoded fresh),
        # 5 was never journaled -> synthesized backpressure drop.
        assert [m.frame_index for m in replay] == [1, 2, 3, 5]
        by_index = {m.frame_index: m for m in replay}
        assert by_index[1].dropped == "deadline"
        assert by_index[2].dropped == "backpressure"
        assert by_index[3].dropped is None and by_index[3].bits == 100
        assert by_index[5].dropped == "backpressure"

    def test_watchdog_drop_keeps_classification_across_resume(
            self, tmp_path):
        # Journals written while the server had an encode watchdog
        # carry its drops in the gop/park "outputs": a replay still
        # reports "watchdog", not a re-synthesized "backpressure".
        watchdog = {"frame_index": 2, "dropped": "watchdog",
                    "frame_type": "", "bits": 0, "psnr": 0.0,
                    "recon": None}
        path = self._journal(tmp_path, [
            ("admit", {"token": "t"}),
            ("gop", self._gop([0, 1], 2)),
            ("park", {"next_frame_index": 4,
                      "frames": [{"frame_index": 3,
                                  "plane": _plane(3, (8, 8))}],
                      "outputs": [watchdog]}),
        ])
        restored = restore_session(path, strict=True)
        replay = replay_messages(restored, have_below=0)
        by_index = {m.frame_index: m for m in replay}
        assert by_index[2].dropped == "watchdog"
        assert 3 not in by_index  # parked, re-encoded fresh

    def test_gop_outputs_may_carry_watchdog_drops(self, tmp_path):
        gop = self._gop([0, 1, 3], 4)
        gop["outputs"].append({"frame_index": 2, "dropped": "watchdog",
                               "frame_type": "", "bits": 0, "psnr": 0.0,
                               "recon": None})
        path = self._journal(tmp_path, [("admit", {"token": "t"}),
                                        ("gop", gop)])
        restored = restore_session(path, strict=True)
        replay = replay_messages(restored, have_below=0)
        by_index = {m.frame_index: m for m in replay}
        assert by_index[2].dropped == "watchdog"


# ----------------------------------------------------------------------
# Protocol v2: RESUME handshake + decoder payload bound
# ----------------------------------------------------------------------
class TestProtocolResume:
    def test_resume_roundtrip(self):
        msg = Resume(resume_token="tok-1", have_below=7, client_id="c")
        decoded, consumed = decode_frame(encode_message(msg))
        assert decoded == msg and consumed > 0

    def test_resume_ack_roundtrip(self):
        msg = ResumeAck(decision="accept", session_id=3,
                        next_frame_index=12, replayed=4,
                        resume_token="tok-1")
        decoded, _ = decode_frame(encode_message(msg))
        assert decoded == msg

    def test_resume_validation_at_decode(self):
        with pytest.raises(ProtocolError, match="resume_token"):
            Resume.from_payload(0, b'{"resume_token": ""}')
        with pytest.raises(ProtocolError, match="have_below"):
            Resume.from_payload(
                0, b'{"resume_token": "t", "have_below": -1}'
            )
        with pytest.raises(ProtocolError, match="decision"):
            ResumeAck.from_payload(0, b'{"decision": "maybe"}')

    def test_resume_rejected_in_v1_frames(self):
        """v2 is the only version accepted: a v1 header is refused as
        an unsupported version, whatever message it carries."""
        for msg in (Resume(resume_token="t"), Bye("done")):
            wire = bytearray(encode_message(msg))
            wire[4] = 1  # rewrite the version byte to v1
            with pytest.raises(ProtocolError,
                               match="unsupported protocol version 1"):
                decode_frame(bytes(wire))

    def test_decoder_rejects_oversized_declared_length(self):
        decoder = MessageDecoder(max_payload=1024)
        header = struct.pack("!4sBBHII", b"RPRV", 2, int(MsgType.FRAME), 0,
                             2048, 0)
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(header)

    def test_decoder_default_bound_is_16_mib(self):
        assert DEFAULT_DECODER_MAX_PAYLOAD == 16 * 1024 * 1024
        assert MessageDecoder().max_payload == DEFAULT_DECODER_MAX_PAYLOAD

    def test_decoder_accepts_payload_at_bound(self):
        msg = Resume(resume_token="t" * 32, have_below=0)
        wire = encode_message(msg)
        decoder = MessageDecoder(max_payload=len(wire) - HEADER_SIZE)
        assert decoder.feed(wire) == [msg]

    def test_read_message_rejects_oversized_declared_length(self):
        # The asyncio reader honours the same bound as MessageDecoder:
        # an inflated length field is rejected at the header, before
        # the reader commits to buffering the payload.
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(
                "!4sBBHII", b"RPRV", 2, int(MsgType.FRAME), 0, 2048, 0))
            with pytest.raises(ProtocolError, match="reader limit"):
                await read_message(reader, max_payload=1024)

        asyncio.run(run())

    def test_read_message_accepts_within_bound(self):
        async def run():
            msg = Resume(resume_token="tok-1", have_below=2)
            reader = asyncio.StreamReader()
            reader.feed_data(encode_message(msg))
            assert await read_message(reader, max_payload=4096) == msg

        asyncio.run(run())


# ----------------------------------------------------------------------
# Degradation ladder snapshot
# ----------------------------------------------------------------------
class TestDegradationSnapshot:
    def test_export_import_roundtrip(self):
        src = DegradationController(fps=24.0, config=ResilienceConfig())
        for _ in range(3):
            src.observe_frame([0.2])  # way over a 1/24 s slot
        state = src.export_state()
        dst = DegradationController(fps=24.0, config=ResilienceConfig())
        dst.import_state(state)
        assert dst.level == src.level
        assert dst.export_state() == state


# ----------------------------------------------------------------------
# Pipeline GOP-boundary snapshot: split session == one session
# ----------------------------------------------------------------------
class TestPipelineSnapshot:
    def test_split_session_bit_identical(self):
        video = generate_video(ContentClass.BRAIN, width=64, height=64,
                               num_frames=8, seed=5)
        config = PipelineConfig(
            fps=24.0, gop=GopConfig(4),
            base_config=EncoderConfig(qp=32, search="hexagon",
                                      search_window=64),
            content_class=ContentClass.BRAIN,
        )
        with StreamTranscoder(config) as t:
            session = t.open_session()
            reference = []
            for frame in video.frames:
                reference.extend(session.push(frame))
            reference.extend(session.finish())

        with StreamTranscoder(config) as t:
            first = t.open_session()
            outputs = []
            for frame in video.frames[:4]:
                outputs.extend(first.push(frame))
            state = first.export_state()
        # A served session keeps no trace, so its snapshot carries no
        # dropped-index list; a snapshot from before still imports.
        assert "dropped_frames" not in state
        with StreamTranscoder(config) as t:
            second = t.open_session()
            second.import_state(dict(state, dropped_frames=[1]))
            for frame in video.frames[4:]:
                outputs.extend(second.push(frame))
            outputs.extend(second.finish())

        assert len(outputs) == len(reference) == 8
        for got, want in zip(outputs, reference):
            assert got.frame_index == want.frame_index
            assert got.frame_type == want.frame_type
            assert got.record.bits == want.record.bits
            assert np.array_equal(got.reconstruction, want.reconstruction)

    def test_export_requires_gop_boundary(self):
        video = generate_video(ContentClass.BRAIN, width=64, height=64,
                               num_frames=2, seed=5)
        config = PipelineConfig(fps=24.0, gop=GopConfig(4),
                                content_class=ContentClass.BRAIN)
        with StreamTranscoder(config) as t:
            session = t.open_session()
            session.push(video.frames[0])
            with pytest.raises(ValueError, match="GOP boundary"):
                session.export_state()

    def test_frame_output_record_mirrors_encoded(self):
        video = generate_video(ContentClass.BONE, width=64, height=64,
                               num_frames=2, seed=6)
        config = PipelineConfig(fps=24.0, gop=GopConfig(2),
                                content_class=ContentClass.BONE)
        with StreamTranscoder(config) as t:
            session = t.open_session()
            outputs = []
            for frame in video.frames:
                outputs.extend(session.push(frame))
        rec = frame_output_record(outputs[0])
        assert rec["frame_index"] == 0 and rec["dropped"] is None
        assert rec["bits"] == outputs[0].record.bits
        assert rec["recon"] is outputs[0].reconstruction


# ----------------------------------------------------------------------
# Loadgen connectivity classification
# ----------------------------------------------------------------------
class TestLoadgenClassification:
    def _free_port(self) -> int:
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_connection_refused_is_classified_and_retried(self):
        config = LoadGenConfig(
            host="127.0.0.1", port=self._free_port(), sessions=1,
            frames=2, seed=4, max_reconnects=2, backoff_base_s=0.01,
            backoff_max_s=0.02,
        )
        report = asyncio.run(run_loadgen_async(config))
        session = report.sessions[0]
        assert session.error is not None
        assert session.connect_refusals == 3  # initial + 2 retries
        assert session.reconnect_attempts == 2
        assert session.mid_stream_disconnects == 0
        assert report.connect_refusals == 3
        assert "refused 3" in report.summary()

    def test_no_reconnect_budget_fails_fast(self):
        config = LoadGenConfig(
            host="127.0.0.1", port=self._free_port(), sessions=1,
            frames=2, seed=4,
        )
        report = asyncio.run(run_loadgen_async(config))
        session = report.sessions[0]
        assert session.connect_refusals == 1
        assert session.reconnect_attempts == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadGenConfig(max_reconnects=-1)
        with pytest.raises(ValueError):
            LoadGenConfig(backoff_jitter=1.5)
        with pytest.raises(ValueError):
            LoadGenConfig(backoff_base_s=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("setting", [
        *(f"LoadGenConfig.{name}" for name in (
            "fps", "rate_hz", "frame_interval_s", "timeout_s",
            "backoff_base_s", "backoff_max_s", "backoff_jitter",
            "mix", "tenants")),
        *(f"ChaosConfig.{name}" for name in (
            "latency_spike_rate", "latency_spike_s", "stall_rate",
            "stall_s")),
    ])
    def test_non_finite_settings_are_refused(self, setting, value):
        """NaN passes ``rate_hz <= 0`` and ``stall_s < 0``, and a NaN
        or infinite delay reaches ``asyncio.sleep``, which never
        returns: ``loadgen --rate nan`` hung at its second session."""
        cls_name, name = setting.split(".")
        cls = {"LoadGenConfig": LoadGenConfig, "ChaosConfig": ChaosConfig}
        weighted = {"mix": ContentClass.BRAIN, "tenants": "icu"}
        if name in weighted:
            value = ((weighted[name], value),)
        with pytest.raises(ValueError, match=name):
            cls[cls_name](**{name: value})
