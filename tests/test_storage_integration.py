"""Live-server integration tests for the durability-brownout path.

Real TCP loopback sessions against a journaled server whose storage
seam injects faults.  The contract under test (DESIGN.md §16): storage
faults degrade *durability*, never *availability* — the client keeps
its connection and every frame outcome, the session sheds only its
resumability, and the resume token is refused cleanly afterwards.
Marked slow: each test spins up the full encode path.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.observability import get_registry, scoped
from repro.observability.metrics import serving_summary
from repro.serving.protocol import (
    Bye,
    Encoded,
    FrameMsg,
    Hello,
    HelloAck,
    Resume,
    ResumeAck,
    Stats,
    read_message,
    write_message,
)
from repro.serving.server import NetworkServer, ServeNetConfig
from repro.storage import FaultFS, FaultRule

pytestmark = pytest.mark.slow

_W, _H = 48, 32
_GOP = 4


def _frame(index: int) -> bytes:
    y, x = np.mgrid[0:_H, 0:_W]
    return ((x + 2 * y + 7 * index) % 256).astype(np.uint8).tobytes()


def _config(journal_dir: str, fileops=None, **overrides) -> ServeNetConfig:
    return ServeNetConfig(
        port=0, journal_dir=journal_dir,
        fileops=fileops, journal_retry_backoff_s=0.001, **overrides,
    )


async def _stream(port: int, frames: int, client_id: str = "c"):
    """Full HELLO→frames→BYE session; returns (ack, encoded, stats)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await write_message(writer, Hello(
            width=_W, height=_H, fps=24.0, num_frames=frames, gop=_GOP,
            client_id=client_id,
        ))
        ack = await read_message(reader)
        assert isinstance(ack, HelloAck) and ack.decision == "accept"
        for i in range(frames):
            await write_message(writer, FrameMsg(
                frame_index=i, width=_W, height=_H, luma=_frame(i),
            ))
        await write_message(writer, Bye("done"))
        encoded, stats = [], None
        while True:
            msg = await read_message(reader)
            if isinstance(msg, Encoded):
                encoded.append(msg)
            elif isinstance(msg, Stats):
                stats = msg.data
            elif isinstance(msg, Bye):
                return ack, encoded, stats
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _try_resume(port: int, token: str) -> ResumeAck:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await write_message(writer, Resume(resume_token=token,
                                           have_below=2 * _GOP))
        ack = await read_message(reader)
        assert isinstance(ack, ResumeAck)
        return ack
    finally:
        writer.close()


class TestDurabilityBrownout:
    def test_enospc_browns_out_but_session_completes(self, tmp_path):
        """The ISSUE acceptance drill: persistent ENOSPC mid-session."""
        faultfs = FaultFS(rules=[
            FaultRule(point="journal.append", kind="enospc", after=2),
        ])

        async def run():
            server = NetworkServer(_config(str(tmp_path), faultfs))
            await server.start()
            try:
                ack, encoded, stats = await _stream(
                    server.port, 2 * _GOP, "victim")
                # Availability held: the connection survived and every
                # frame outcome was delivered.
                assert ack.resume_token
                assert len([m for m in encoded if m.dropped is None]) \
                    == 2 * _GOP
                assert stats is not None

                summary = serving_summary(get_registry().to_dict())
                assert summary["durability_brownouts"] >= 1

                # Resumability was shed cleanly: the token is refused
                # with an explanation, not a hang or a crash.
                rack = await _try_resume(server.port, ack.resume_token)
                assert rack.decision == "reject"
                assert "brownout" in rack.reason
                summary = serving_summary(get_registry().to_dict())
                assert summary["tombstone_rejects"] >= 1
            finally:
                await server.aclose()

        with scoped():
            asyncio.run(asyncio.wait_for(run(), 60))

    def test_transient_eio_is_retried_without_brownout(self, tmp_path):
        faultfs = FaultFS(rules=[
            FaultRule(point="journal.append", kind="eio", count=1),
        ])

        async def run():
            server = NetworkServer(_config(str(tmp_path), faultfs))
            await server.start()
            try:
                ack, encoded, _ = await _stream(server.port, _GOP)
                assert ack.resume_token
                assert len(encoded) == _GOP
                summary = serving_summary(get_registry().to_dict())
                assert summary["journal_retries"] >= 1
                assert summary["durability_brownouts"] == 0
            finally:
                await server.aclose()

        with scoped():
            asyncio.run(asyncio.wait_for(run(), 60))

    def test_journal_writer_death_browns_out_not_hangs(self, tmp_path):
        """Satellite: the journal-writer thread dying mid-session must
        surface as a typed brownout, never a wedged emit loop."""

        async def run():
            server = NetworkServer(_config(str(tmp_path)))
            await server.start()
            try:
                # Kill the writer out from under the server: every
                # later executor submit raises RuntimeError.
                server._journal_pool.shutdown(wait=True)
                ack, encoded, stats = await _stream(
                    server.port, 2 * _GOP, "orphan")
                assert len(encoded) == 2 * _GOP
                assert stats is not None
                summary = serving_summary(get_registry().to_dict())
                assert summary["durability_brownouts"] >= 1
            finally:
                await server.aclose()

        with scoped():
            asyncio.run(asyncio.wait_for(run(), 60))

    def test_the_next_session_after_a_brownout_is_journaled(self, tmp_path):
        """A brownout takes one session off its journal and leaves no
        latch: once the volume takes writes, the next HELLO is
        journaled at once, with no wait for the volume's health."""
        faultfs = FaultFS(rules=[
            # One session browned out (GOP append + tombstone), then
            # the volume clears.
            FaultRule(point="journal.append", kind="enospc",
                      after=2, count=2),
        ])

        async def run():
            server = NetworkServer(_config(str(tmp_path), faultfs))
            await server.start()
            try:
                first, _, _ = await _stream(server.port, 2 * _GOP, "first")
                rack = await _try_resume(server.port, first.resume_token)
                assert rack.decision == "reject"
                assert "brownout" in rack.reason
                summary = serving_summary(get_registry().to_dict())
                assert summary["durability_brownouts"] == 1
                ack, _, _ = await _stream(server.port, _GOP, "second")
                assert ack.resume_token
                assert ack.resume_token != first.resume_token
            finally:
                await server.aclose()

        with scoped():
            asyncio.run(asyncio.wait_for(run(), 60))

    def test_a_journal_teardown_could_not_delete_goes_at_drain(
            self, tmp_path):
        """A completed session's journal whose delete failed at
        teardown stays (listed as parked) until drain() deletes it."""
        faultfs = FaultFS(rules=[
            FaultRule(point="journal.unlink", kind="enospc", count=1),
        ])

        async def run():
            server = NetworkServer(_config(str(tmp_path), faultfs))
            await server.start()
            try:
                ack, encoded, _ = await _stream(server.port, _GOP)
                assert ack.resume_token and len(encoded) == _GOP
                # The BYE leaves before the teardown runs.
                for _ in range(500):
                    if faultfs.injected:
                        break
                    await asyncio.sleep(0.01)
                assert faultfs.injected == {("journal.unlink", "enospc"): 1}
                assert server.parked_tokens == [ack.resume_token]
                await server.drain()
                assert server.parked_tokens == []
            finally:
                await server.aclose()

        with scoped():
            asyncio.run(asyncio.wait_for(run(), 60))

    def test_lease_store_fault_on_admit_degrades_to_unjournaled(
            self, tmp_path):
        faultfs = FaultFS(rules=[
            FaultRule(point="journal.create", kind="enospc"),
        ])

        async def run():
            server = NetworkServer(_config(str(tmp_path), faultfs))
            await server.start()
            try:
                ack, encoded, _ = await _stream(server.port, _GOP)
                # No journal means no resumability — but the session
                # is still admitted and served.
                assert ack.decision == "accept"
                assert ack.resume_token == ""
                assert len(encoded) == _GOP
                summary = serving_summary(get_registry().to_dict())
                assert summary["durability_brownouts"] >= 1
            finally:
                await server.aclose()

        with scoped():
            asyncio.run(asyncio.wait_for(run(), 60))
