"""Properties of the journal's length-framed record format.

A record is one canonical-JSON header line followed by its raw plane
bytes (``repro.serving.recovery``).  The reader walks records by the
lengths the headers declare, so what a newline-split reader got for
free has to be shown: every byte prefix of a journal reads as the
records it wholly contains, a flipped byte anywhere is caught, and the
planes come back as they went in.
"""

from __future__ import annotations

import base64
import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.resilience.checkpoint import canonical_json, payload_checksum
from repro.resilience.errors import JournalCorruptionError
from repro.serving.recovery import (
    JournalStore,
    SessionJournal,
    frame_output_record,
    read_journal,
    replay_messages,
    restore_session,
)
from repro.storage.faultfs import FileOps
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import ContentClass, generate_video

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Strategies: journals as a server writes them
# ----------------------------------------------------------------------
@st.composite
def _planes(draw):
    """A uint8 plane of a random small shape; sometimes a strided or
    transposed view, which the writer must lay out row-major itself."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 16))
    plane = np.random.default_rng(seed).integers(
        0, 256, size=(h, 2 * w), dtype=np.uint8)
    layout = draw(st.sampled_from(["rows", "strided", "transposed"]))
    if layout == "strided":
        return plane[:, ::2]
    if layout == "transposed":
        return plane[:, :w].T
    return np.ascontiguousarray(plane[:, :w])


def _drop(index: int, reason: str) -> dict:
    return {"frame_index": index, "dropped": reason, "frame_type": "",
            "bits": 0, "psnr": 0.0, "recon": None}


@st.composite
def _gop(draw, first_index: int):
    outputs = []
    count = draw(st.integers(1, 3))
    for index in range(first_index, first_index + count):
        if draw(st.integers(0, 4)) == 0:
            outputs.append(_drop(index, "deadline"))
        else:
            outputs.append({
                "frame_index": index, "dropped": None,
                "frame_type": draw(st.sampled_from(["I", "P"])),
                "bits": draw(st.integers(0, 10 ** 6)),
                "psnr": draw(st.floats(1.0, 99.0)),
                "recon": draw(_planes()),
            })
    return {
        "gop_index": first_index,
        "state": {
            "gop_index": first_index + 1, "frames_pushed": first_index + count,
            "recent_bits": [o["bits"] for o in outputs],
            "previous_original": draw(st.none() | _planes()),
        },
        "outputs": outputs, "next_frame_index": first_index + count,
    }


@st.composite
def _journals(draw):
    """``[(kind, payload), ...]``: an admit, then gop / park / resume
    records in an order a session can produce them."""
    records = [("admit", {"token": "t", "qp": 32, "owner": "w:1",
                          "note": draw(st.text(max_size=8))})]
    next_index = 0
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["gop", "gop", "park", "resume"]))
        if kind == "gop":
            payload = draw(_gop(next_index))
            next_index = payload["next_frame_index"]
        elif kind == "park":
            frames = [{"frame_index": next_index + i,
                       "plane": draw(_planes())}
                      for i in range(draw(st.integers(0, 2)))]
            payload = {"next_frame_index": next_index + len(frames) + 1,
                       "frames": frames,
                       "outputs": [_drop(next_index + len(frames),
                                         "watchdog")]}
        else:
            payload = {"have_below": 0, "owner": "w:2"}
        records.append((kind, payload))
    return records


def _write(path, records) -> list:
    """Append ``records``; returns each record's end offset."""
    ends = []
    with SessionJournal(path, fsync=False) as journal:
        for kind, payload in records:
            journal.append(kind, payload)
            ends.append(journal.size)
    return ends


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.shape == want.shape
                and got.dtype == np.uint8 and np.array_equal(got, want))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


# ----------------------------------------------------------------------
# (a) what goes in comes out
# ----------------------------------------------------------------------
@settings(max_examples=60, **_SETTINGS)
@given(records=_journals())
def test_records_round_trip(tmp_path, records):
    path = tmp_path / "s.journal"
    path.unlink(missing_ok=True)
    _write(path, records)
    scan = read_journal(path, strict=True)
    assert not scan.truncated and scan.reason == "ok"
    assert scan.intact_bytes == path.stat().st_size
    assert _same([list(r) for r in scan.records], [list(r) for r in records])

    restored = restore_session(path, strict=True)
    gops = [p for k, p in records if k == "gop"]
    if gops:
        assert _same(restored.state, gops[-1]["state"])
    kind, last = records[-1]
    if kind == "park":
        assert _same([[i, p] for i, p in restored.pending],
                     [[f["frame_index"], f["plane"]]
                      for f in last["frames"]])
    else:
        assert restored.pending == []
    delivered = {o["frame_index"]: o for g in gops for o in g["outputs"]
                 if o["dropped"] is None}
    for msg in replay_messages(restored, have_below=0):
        if msg.dropped is None:
            want = delivered[msg.frame_index]["recon"]
            assert (msg.height, msg.width) == want.shape
            assert msg.luma == np.ascontiguousarray(want).tobytes()


def test_header_line_is_canonical_json_of_the_whole_header(tmp_path):
    plane = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "s.journal"
    _write(path, [("park", {"next_frame_index": 1, "outputs": [],
                            "frames": [{"frame_index": 0,
                                        "plane": plane}]})])
    header, _, blobs = path.read_bytes().partition(b"\n")
    assert blobs == plane.tobytes()
    body = {"seq": 0, "kind": "park", "lengths": [12], "payload": {
        "next_frame_index": 1, "outputs": [],
        "frames": [{"frame_index": 0,
                    "plane": {"shape": [3, 4], "blob": 0}}]}}
    checksum = hashlib.sha256(
        canonical_json(body).encode() + blobs).hexdigest()
    assert header.decode() == canonical_json({**body, "checksum": checksum})


def test_payload_must_be_json_and_planes(tmp_path):
    with SessionJournal(tmp_path / "s.journal", fsync=False) as journal:
        with pytest.raises(TypeError, match="planes"):
            journal.append("admit", {"token": {1, 2}})
        with pytest.raises(ValueError, match="2-D"):
            journal.append("admit", {"plane": np.zeros(4, np.uint8)})
        assert journal.size == 0 and journal.next_seq == 0


# ----------------------------------------------------------------------
# (b) a crash can cut the file anywhere
# ----------------------------------------------------------------------
@settings(max_examples=6, **_SETTINGS)
@given(records=_journals())
def test_every_byte_prefix_reads_as_its_whole_records(tmp_path, records):
    full_path = tmp_path / "full.journal"
    full_path.unlink(missing_ok=True)
    ends = _write(full_path, records)
    data = full_path.read_bytes()
    store = JournalStore(tmp_path / "store", fsync=False)
    path = store.path_for("tok")
    for cut in range(len(data) + 1):
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        whole = sum(1 for end in ends if end <= cut)
        scan = read_journal(path)
        assert _same([list(r) for r in scan.records],
                     [list(r) for r in records[:whole]]), cut
        assert scan.truncated == (cut not in [0] + ends), cut
        assert scan.intact_bytes == ([0] + ends)[whole], cut
        assert read_journal(path, strict=True).next_seq == whole
        # The repair a resume does: cut back, carry on, read clean.
        with store.reopen("tok", scan.next_seq,
                          truncate_to=scan.intact_bytes) as journal:
            journal.append("resume", {"have_below": 0})
        healed = read_journal(path, strict=True)
        assert not healed.truncated and healed.next_seq == whole + 1


# ----------------------------------------------------------------------
# (c) no flipped byte goes unnoticed
# ----------------------------------------------------------------------
@settings(max_examples=8, **_SETTINGS)
@given(records=_journals(), mask=st.integers(1, 255))
def test_any_flipped_byte_is_caught(tmp_path, records, mask):
    path = tmp_path / "s.journal"
    path.unlink(missing_ok=True)
    ends = _write(path, records)
    data = path.read_bytes()
    final_start = ([0] + ends)[-2]
    for at in range(len(data)):
        flipped = bytearray(data)
        flipped[at] ^= mask
        path.write_bytes(bytes(flipped))
        if at < final_start:
            # Header or blob of a record with intact records after it.
            with pytest.raises(JournalCorruptionError):
                read_journal(path, strict=True)
            survivors = sum(1 for end in ends if end <= at)
            lenient = read_journal(path)
            assert not lenient.truncated and lenient.reason != "ok"
            assert lenient.next_seq == survivors, at
        else:
            scan = read_journal(path, strict=True)
            assert scan.truncated, at
            assert scan.next_seq == len(records) - 1
            assert scan.intact_bytes == final_start


# ----------------------------------------------------------------------
# Size and write-op guard at the paper's operating point
# ----------------------------------------------------------------------
class _CountingOps(FileOps):
    def __init__(self):
        self.points = []

    def append(self, handle, data, point=""):
        self.points.append(point)
        super().append(handle, data, point)

    def fsync_handle(self, handle, point=""):
        self.points.append(point)
        super().fsync_handle(handle, point)


def test_vga_gop_record_is_raw_planes_plus_a_small_header(tmp_path):
    width, height, gop = 640, 480, 8
    video = generate_video(ContentClass.BRAIN, width=width, height=height,
                           num_frames=gop, seed=1)
    config = PipelineConfig(fps=24.0, content_class=ContentClass.BRAIN)
    assert config.gop.size == gop
    with StreamTranscoder(config) as transcoder:
        session = transcoder.open_session()
        outputs = []
        for frame in video.frames:
            outputs.extend(session.push(frame))
        state = session.export_state()
    assert len(outputs) == gop and state["previous_original"] is not None
    ops = _CountingOps()
    with SessionJournal(tmp_path / "s.journal", fileops=ops) as journal:
        journal.append("admit", {"token": "t"})
        before, ops.points[:] = journal.size, []
        journal.append("gop", {
            "gop_index": 0, "state": state,
            "outputs": [frame_output_record(o) for o in outputs],
            "next_frame_index": gop,
        })
        record_bytes = journal.size - before
    assert ops.points == ["journal.append", "journal.fsync"]
    planes = (gop + 1) * width * height
    assert planes <= record_bytes <= planes + 4096
    restored = restore_session(tmp_path / "s.journal", strict=True)
    assert np.array_equal(restored.state["previous_original"],
                          state["previous_original"])
    for out in outputs:
        assert np.array_equal(restored.outputs[out.frame_index]["recon"],
                              out.reconstruction)


# ----------------------------------------------------------------------
# The line format this one replaced is refused, not half-read
# ----------------------------------------------------------------------
def write_line_format_journal(path, token: str = "t") -> None:
    """A journal as written before records were length-framed: one
    JSON object per line, planes zlib-compressed and base64'd."""
    def plane(seed):
        raw = np.random.default_rng(seed).integers(
            0, 256, size=(8, 8), dtype=np.uint8).tobytes()
        return {"shape": [8, 8],
                "zlib": base64.b64encode(zlib.compress(raw, 6)).decode()}

    bodies = [
        {"seq": 0, "kind": "admit", "payload": {
            "token": token, "session_id": 1, "width": 8, "height": 8,
            "fps": 24.0, "num_frames": 0, "gop": 4, "content_class": None,
            "client_id": "old", "qp": 32, "window": 64, "owner": "w:1"}},
        {"seq": 1, "kind": "gop", "payload": {
            "gop_index": 0, "next_frame_index": 1,
            "state": {"gop_index": 1, "frames_pushed": 1,
                      "recent_bits": [10], "previous_original": plane(0)},
            "outputs": [{"frame_index": 0, "dropped": None,
                         "frame_type": "I", "bits": 10, "psnr": 40.0,
                         "recon": plane(1)}]}},
    ]
    with open(path, "w") as fh:
        for body in bodies:
            fh.write(canonical_json(
                {**body, "checksum": payload_checksum(body)}) + "\n")


def test_line_format_journal_fails_strict_restore_typed(tmp_path):
    path = tmp_path / "old.journal"
    write_line_format_journal(path)
    with pytest.raises(JournalCorruptionError):
        restore_session(path, strict=True)
    assert read_journal(path).records == []
