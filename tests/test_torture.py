"""Crash-consistency torture of the storage layer (DESIGN.md §16).

A pinned serving drill runs under a recording
:class:`~repro.storage.faultfs.FaultFS`: session "alpha" completes
cleanly; session "beta" streams one GOP, is parked by a drain and
RESUMEs against a restarted server over the same store.  Every durable
mutation under the store lands in the crash-point log.  Then:

* the mutations per write point match
  ``tests/golden/torture_points.json``, so a durable write path that
  appears or vanishes fails here (regenerate deliberately with
  ``--update-golden``);
* the drill on the raw filesystem puts the same bytes on the wire as
  the recorded arm: the seam is a behavioural no-op when idle;
* a crash at every recorded write point, and a torn tail of every
  tearable write, leaves a state every restart-path loader either
  recovers (a bit-identical journal prefix) or refuses with a typed
  error: never a foreign exception, a hang or silent corruption;
* the torn variants of the ``gop`` appends cut a record's JSON header
  and its plane blob, two different crash states.

Everything is deterministic (synthetic frames, no RNG, a sequenced
protocol drill).  Marked slow.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.observability import scoped
from repro.resilience.checkpoint import load_lut
from repro.resilience.errors import (
    JournalCorruptionError,
    LutCorruptionError,
)
from repro.serving.protocol import (
    Bye,
    Encoded,
    FrameMsg,
    Hello,
    HelloAck,
    Resume,
    ResumeAck,
    read_message,
    write_message,
)
from repro.serving.recovery import JOURNAL_SUFFIX, read_journal
from repro.serving.server import NetworkServer, ServeNetConfig
from repro.storage.faultfs import FaultFS, FileOps

pytestmark = pytest.mark.slow

GOLDEN_PATH = Path(__file__).parent / "golden" / "torture_points.json"

_W, _H = 48, 32
_GOP = 4
#: Per-verification and per-drill wall-clock ceilings: a wedged
#: restart fails the test instead of hanging it.
_VERIFY_TIMEOUT_S = 60.0
_DRILL_TIMEOUT_S = 180.0


def _frame(index: int) -> bytes:
    """Deterministic synthetic luma plane (no RNG: the op log and the
    encoded bits must be identical run to run)."""
    y, x = np.mgrid[0:_H, 0:_W]
    return ((x + 2 * y + 7 * index) % 256).astype(np.uint8).tobytes()


def _digest(msg: Encoded) -> Tuple:
    return (msg.frame_index, msg.frame_type, msg.dropped, msg.bits,
            round(msg.psnr, 6),
            hashlib.sha256(bytes(msg.luma)).hexdigest())


async def _read_to_bye(reader) -> List[Encoded]:
    encoded = []
    while True:
        msg = await read_message(reader)
        if isinstance(msg, Encoded):
            encoded.append(msg)
        elif isinstance(msg, Bye):
            return encoded


async def _send_frames(writer, indices) -> None:
    for i in indices:
        await write_message(writer, FrameMsg(
            frame_index=i, width=_W, height=_H, luma=_frame(i),
        ))


async def _drill(root: str, fileops: Optional[FileOps]) -> List[Tuple]:
    """The pinned serving drill; returns the wire-output digests.

    Session "alpha" completes cleanly (journal created and discarded);
    session "beta" finishes one full GOP, is parked by a drain, and is
    RESUMEd against a *restarted* server to stream its tail.  Both
    server incarnations checkpoint the LUT.
    """
    config = ServeNetConfig(port=0, journal_dir=root, fileops=fileops,
                            drain_grace_s=30.0)
    digests: List[Tuple] = []

    server = NetworkServer(config)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, Hello(
            width=_W, height=_H, fps=24.0, num_frames=2 * _GOP, gop=_GOP,
            client_id="alpha",
        ))
        ack = await read_message(reader)
        assert isinstance(ack, HelloAck) and ack.decision == "accept", ack
        await _send_frames(writer, range(2 * _GOP))
        await write_message(writer, Bye("done"))
        digests += [_digest(m) for m in await _read_to_bye(reader)]
        writer.close()

        # "beta": one durable GOP, then a drain parks it mid-session.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, Hello(
            width=_W, height=_H, fps=24.0, gop=_GOP, client_id="beta",
        ))
        ack_b = await read_message(reader)
        assert ack_b.decision == "accept" and ack_b.resume_token, ack_b
        await _send_frames(writer, range(_GOP))
        got = []
        while len(got) < _GOP:
            msg = await read_message(reader)
            if isinstance(msg, Encoded):
                got.append(msg)
        digests += [_digest(m) for m in got]
        # The GOP's outcomes may leave before its record lands; the
        # drain's ``emit_queue.join()`` awaits the append, so the GOP
        # is durable before the park record and the restart.
        drain_task = asyncio.ensure_future(server.drain())
        await _read_to_bye(reader)
        writer.close()
        await drain_task
    finally:
        if not server._draining:
            await server.aclose()

    # Restart: a fresh server over the same store (and the same
    # recording seam), then beta's RESUME.
    server = NetworkServer(config)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, Resume(
            resume_token=ack_b.resume_token, have_below=_GOP,
            client_id="beta",
        ))
        rack = await read_message(reader)
        assert isinstance(rack, ResumeAck) and rack.decision == "accept", \
            rack
        await _send_frames(writer, range(rack.next_frame_index,
                                         rack.next_frame_index + 2))
        await write_message(writer, Bye("done"))
        digests += [_digest(m) for m in await _read_to_bye(reader)]
        writer.close()
        await server.drain()
    finally:
        if not server._draining:
            await server.aclose()
    return digests


def _run_drill(root: str, fileops: Optional[FileOps]) -> List[Tuple]:
    with scoped():
        return asyncio.run(
            asyncio.wait_for(_drill(root, fileops), _DRILL_TIMEOUT_S))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """The drill under a recording FaultFS: (wire digests, recorder)."""
    root = str(tmp_path_factory.mktemp("torture-rec"))
    faultfs = FaultFS(seed=0, root=root, record=True)
    return _run_drill(root, faultfs), faultfs.recorder


def test_write_points_match_golden(recorded, update_golden):
    _, recorder = recorded
    counts = recorder.point_counts()
    if update_golden:
        GOLDEN_PATH.write_text(json.dumps(counts, indent=2, sort_keys=True)
                               + "\n")
        pytest.skip(f"rewrote {GOLDEN_PATH}")
    assert json.loads(GOLDEN_PATH.read_text()) == counts, (
        "the durable write points drifted; if intentional, regenerate "
        "with pytest --update-golden")


def test_idle_faultfs_changes_no_wire_output(recorded, tmp_path):
    digests, _ = recorded
    assert _run_drill(str(tmp_path), None) == digests


# ----------------------------------------------------------------------
# Crash simulation
# ----------------------------------------------------------------------
def _full_journal_bytes(recorder) -> Dict[str, bytes]:
    """Final append-stream per journal file: journals are append-only
    in a clean run, so any crash state must be a byte prefix of this.
    """
    full: Dict[str, bytes] = {}
    for op in recorder.ops:
        if not op.path.endswith(JOURNAL_SUFFIX):
            continue
        if op.op == "create":
            full.setdefault(op.path, b"")
        elif op.op == "append":
            full[op.path] = full.get(op.path, b"") + op.data
        elif op.op == "truncate":
            full[op.path] = full.get(op.path, b"")[:op.size]
    return full


def _verify_crash_state(root: str, full_journals: Dict[str, bytes],
                        label: str) -> None:
    """Run every restart-path loader against one simulated disk state:
    each recovers (a bit-identical prefix of what was durably written)
    or refuses with a *typed* error.  Anything else in the directory
    (``.lock`` files, LUT staging debris) is ignored by a restart."""
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if name.endswith(JOURNAL_SUFFIX):
            with open(path, "rb") as fh:
                data = fh.read()
            try:
                scan = read_journal(path)
            except JournalCorruptionError:
                continue  # typed refusal is a valid verdict
            assert name in full_journals, f"{label}: unexpected {name!r}"
            intact = data[:scan.intact_bytes]
            assert full_journals[name].startswith(intact), (
                f"{label}: journal {name!r} restored {len(intact)} bytes "
                "that are not a prefix of the full run")
            # Strict restore must be all-or-typed on the same state.
            try:
                read_journal(path, strict=True)
            except JournalCorruptionError:
                pass
        elif name == "lut.json":
            result = load_lut(path)
            assert result.recovered or result.reason != "ok", (
                f"{label}: inconsistent LUT verdict")
            try:
                load_lut(path, strict=True)
            except LutCorruptionError:
                assert not result.recovered, (
                    f"{label}: strict and lenient LUT loads disagree")


def _torn_offsets(data_len: int) -> List[int]:
    """Where a tearable write of ``data_len`` bytes is cut short."""
    return [torn for torn in sorted({1, data_len // 2, data_len - 1})
            if 0 < torn < data_len]


def test_every_crash_point_restores_or_refuses_typed(recorded, tmp_path):
    _, recorder = recorded
    full_journals = _full_journal_bytes(recorder)
    scratch = str(tmp_path / "state")

    def check(pool, prefix: int, torn: Optional[int], label: str) -> None:
        os.makedirs(scratch)
        try:
            recorder.materialize(prefix, scratch, torn_bytes=torn)
            pool.submit(_verify_crash_state, scratch, full_journals,
                        label).result(timeout=_VERIFY_TIMEOUT_S)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    torn_states = 0
    with ThreadPoolExecutor(max_workers=1) as pool:
        for prefix in range(len(recorder.ops) + 1):
            check(pool, prefix, None, f"crash@{prefix}")
            if prefix < len(recorder.ops) and recorder.ops[prefix].tearable:
                for torn in _torn_offsets(len(recorder.ops[prefix].data)):
                    check(pool, prefix, torn, f"crash@{prefix}+torn{torn}")
                    torn_states += 1
    assert torn_states > 0


def test_gop_append_tears_cut_header_and_blob(recorded):
    """A journal record is a JSON header line followed by raw plane
    bytes, so a tear inside a plane is a different crash state from a
    tear inside the header; the simulation must produce both."""
    _, recorder = recorded
    sides = set()
    for op in recorder.ops:
        if op.point != "journal.append" or not op.tearable:
            continue
        header_len = op.data.index(b"\n") + 1
        if json.loads(op.data[:header_len])["kind"] != "gop":
            continue
        sides.update("header" if torn < header_len else "blob"
                     for torn in _torn_offsets(len(op.data)))
    assert sides == {"header", "blob"}
