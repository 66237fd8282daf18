"""Crash-consistency torture harness (``make torture``).

Four phases, all deterministic (fixed seed, manually-sequenced
protocol drill):

1. **Record** — run a serving drill (two sessions: one clean BYE, one
   drained mid-stream and later RESUMEd across a restart, plus a
   policy rewrite and LUT checkpoints) with a recording
   :class:`~repro.storage.faultfs.FaultFS` and no fault rules.  Every
   durable mutation under the store directory lands in the crash-point
   log.
2. **Golden** — the per-write-point mutation counts are compared
   against ``tests/golden/torture_points.json``: a new write path
   appearing (or one silently vanishing) fails loudly.  Regenerate
   with ``--update-golden`` after an intentional change.
3. **Crash simulation** — for *every* prefix of the op log (and a
   torn-tail variant of every tearable write), materialize the
   simulated on-disk state a crash at that point would leave, then
   run every loader against it: journals must restore a bit-identical
   prefix of the full run or raise a typed error, leases must parse
   or read as reclaimable debris, the LUT checkpoint must verify or
   fall back fresh, the policy file must parse or raise
   ``PolicyError``.  Never a foreign exception, never a hang (each
   verification runs under a thread-future timeout), never silent
   corruption.
4. **Brownout drill** — a live session under injected persistent
   ``ENOSPC`` on ``journal.append`` must complete over an intact
   connection with ``durability_brownouts_total >= 1``, its resume
   token cleanly refused afterwards, and journaling hysteretically
   readmitted once probes come back clean.

A no-fault bit-identity arm re-runs the drill on the raw filesystem
and asserts the wire outputs are identical to the recorded arm — the
FaultFS seam must be a behavioural no-op when idle.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.observability import scoped
from repro.observability.metrics import serving_summary
from repro.policy.document import PolicyError, load_policy_file
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
    Stats,
    read_message,
    write_message,
)
from repro.serving.recovery import JOURNAL_SUFFIX, read_journal
from repro.serving.server import NetworkServer, ServeNetConfig
from repro.serving.statestore import LEASE_SUFFIX, SharedDirStateStore
from repro.storage.faultfs import FaultFS, FaultRule, FileOps

GOLDEN_PATH = (Path(__file__).resolve().parents[3]
               / "tests" / "golden" / "torture_points.json")

_W, _H = 48, 32
_GOP = 4
#: Per-verification and per-phase wall-clock ceilings: a wedged restart
#: must fail the harness, not hang it.
_VERIFY_TIMEOUT_S = 60.0
_PHASE_TIMEOUT_S = 180.0

_POLICY_V1 = {
    "version": 1,
    "default_tenant": "general",
    "tenants": [{"name": "general", "weight": 2}],
}
_POLICY_V2 = dict(_POLICY_V1, tenants=[
    {"name": "general", "weight": 3}])


class TortureFailure(AssertionError):
    """A torture invariant was violated."""


def _frame(index: int) -> bytes:
    """Deterministic synthetic luma plane (no RNG: the op log and the
    encoded bits must be identical run to run)."""
    y, x = np.mgrid[0:_H, 0:_W]
    return ((x + 2 * y + 7 * index) % 256).astype(np.uint8).tobytes()


def _digest(msg: Encoded) -> Tuple:
    return (msg.frame_index, msg.frame_type, msg.dropped, msg.bits,
            round(msg.psnr, 6),
            hashlib.sha256(bytes(msg.luma)).hexdigest())


async def _read_to_bye(reader) -> Tuple[List[Encoded], Optional[dict]]:
    encoded, stats = [], None
    while True:
        msg = await read_message(reader)
        if isinstance(msg, Encoded):
            encoded.append(msg)
        elif isinstance(msg, Stats):
            stats = msg.data
        elif isinstance(msg, Bye):
            return encoded, stats


async def _session_full(port: int, frames: int,
                        client_id: str) -> Tuple[HelloAck, List[Encoded]]:
    """HELLO, stream ``frames`` frames, BYE; returns (ack, encoded)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await write_message(writer, Hello(
            width=_W, height=_H, fps=24.0, num_frames=frames, gop=_GOP,
            client_id=client_id,
        ))
        ack = await read_message(reader)
        if not isinstance(ack, HelloAck) or ack.decision != "accept":
            raise TortureFailure(f"session not accepted: {ack}")
        for i in range(frames):
            await write_message(writer, FrameMsg(
                frame_index=i, width=_W, height=_H, luma=_frame(i),
            ))
        await write_message(writer, Bye("done"))
        encoded, _ = await _read_to_bye(reader)
        return ack, encoded
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _drill(root: str, fileops: Optional[FileOps]) -> List[Tuple]:
    """The pinned serving drill; returns the wire-output digests.

    Session "alpha" completes cleanly (journal created and discarded);
    session "beta" finishes one full GOP, is parked by a drain, and is
    RESUMEd against a *restarted* server to stream its tail.  Both
    server incarnations checkpoint the LUT; the policy file is
    rewritten between them.
    """
    ops = fileops or FileOps()
    policy_path = os.path.join(root, "policy.json")
    ops.write_file(policy_path,
                   json.dumps(_POLICY_V1, sort_keys=True).encode(),
                   point="policy.write")
    config = ServeNetConfig(
        port=0, journal_dir=root, fileops=fileops,
        policy_file=policy_path, drain_grace_s=30.0,
    )
    digests: List[Tuple] = []

    server = NetworkServer(config)
    await server.start()
    try:
        _, enc_a = await _session_full(server.port, 2 * _GOP, "alpha")
        digests += [_digest(m) for m in enc_a]

        # "beta": one durable GOP, then a drain parks it mid-session.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, Hello(
            width=_W, height=_H, fps=24.0, gop=_GOP, client_id="beta",
        ))
        ack_b = await read_message(reader)
        if ack_b.decision != "accept" or not ack_b.resume_token:
            raise TortureFailure(f"beta not journaled: {ack_b}")
        for i in range(_GOP):
            await write_message(writer, FrameMsg(
                frame_index=i, width=_W, height=_H, luma=_frame(i),
            ))
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
        _, _ = await _read_to_bye(reader)
        writer.close()
        await drain_task
    finally:
        if not server._draining:
            await server.aclose()

    # Restart: a policy rewrite, then a fresh server over the same
    # store (and the same recording seam) that loads it, then beta's
    # RESUME.
    ops.write_file(policy_path,
                   json.dumps(_POLICY_V2, sort_keys=True).encode(),
                   point="policy.write")
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
        if not isinstance(rack, ResumeAck) or rack.decision != "accept":
            raise TortureFailure(f"beta resume refused: {rack}")
        for i in range(rack.next_frame_index, rack.next_frame_index + 2):
            await write_message(writer, FrameMsg(
                frame_index=i, width=_W, height=_H, luma=_frame(i),
            ))
        await write_message(writer, Bye("done"))
        enc_tail, _ = await _read_to_bye(reader)
        digests += [_digest(m) for m in enc_tail]
        writer.close()
        await server.drain()
    finally:
        if not server._draining:
            await server.aclose()
    return digests


def _drill_sync(root: str, fileops: Optional[FileOps]) -> List[Tuple]:
    with scoped():
        return asyncio.run(
            asyncio.wait_for(_drill(root, fileops), _PHASE_TIMEOUT_S)
        )


# ----------------------------------------------------------------------
# Phase 3: crash-state verification
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
    """Run every restart-path loader against one simulated disk state.

    The contract under test: a crash at any write point yields a state
    every loader either recovers from (restoring a bit-identical
    prefix of what was durably written) or refuses with a *typed*
    error — never a foreign exception, never silent corruption.
    """
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if name.endswith(JOURNAL_SUFFIX):
            with open(path, "rb") as fh:
                data = fh.read()
            try:
                scan = read_journal(path)
            except JournalCorruptionError:
                continue  # typed refusal is a valid verdict
            intact = data[:scan.intact_bytes]
            full = full_journals.get(name)
            if full is None:
                raise TortureFailure(
                    f"{label}: unexpected journal {name!r}")
            if not full.startswith(intact):
                raise TortureFailure(
                    f"{label}: journal {name!r} restored "
                    f"{len(intact)} bytes that are NOT a prefix of the "
                    f"full run — silent corruption")
            # Strict restore must be all-or-typed on the same state.
            try:
                read_journal(path, strict=True)
            except JournalCorruptionError:
                pass
        elif name.endswith(LEASE_SUFFIX):
            with open(path, "rb") as fh:
                raw = fh.read()
            # Must decode to a record or classify as reclaimable torn
            # debris (None) — an exception here would wedge acquire().
            SharedDirStateStore._parse_lease(raw)
        elif name == "lut.json":
            result = load_lut(path)
            if not result.recovered and result.reason == "ok":
                raise TortureFailure(
                    f"{label}: inconsistent LUT verdict")
            try:
                load_lut(path, strict=True)
            except LutCorruptionError:
                if result.recovered:
                    raise TortureFailure(
                        f"{label}: strict and lenient LUT loads disagree"
                    ) from None
        elif name == "policy.json":
            try:
                load_policy_file(path)
            except PolicyError:
                pass  # typed refusal (torn rewrite) is the contract
    # Wildcard sweep: anything else (.lock files, LUT staging debris)
    # must be ignorable by a restart, which the loaders above model by
    # construction — nothing to assert.


def _torn_offsets(data_len: int) -> List[int]:
    """Where a tearable write of ``data_len`` bytes is cut short."""
    return [torn for torn in sorted({1, data_len // 2, data_len - 1})
            if 0 < torn < data_len]


def _gop_tear_report(recorder) -> Tuple[List[str], int]:
    """Where the torn variants of the recorded ``gop`` appends landed.

    A journal record is a JSON header line followed by raw plane
    bytes, so a tear inside a plane is a different crash state from a
    tear inside the header; the simulation is only worth its name if
    it produces both.  Returns the report lines and how many tears
    fell inside a blob."""
    lines: List[str] = []
    in_blob = 0
    for index, op in enumerate(recorder.ops):
        if op.point != "journal.append" or not op.tearable:
            continue
        header_len = op.data.index(b"\n") + 1
        if json.loads(op.data[:header_len])["kind"] != "gop":
            continue
        where = [(torn, "header" if torn < header_len else "blob")
                 for torn in _torn_offsets(len(op.data))]
        in_blob += sum(side == "blob" for _, side in where)
        lines.append(
            f"torture: gop append @{index}: {len(op.data)} bytes "
            f"({header_len} header), torn at "
            + ", ".join(f"{torn} ({side})" for torn, side in where))
    return lines, in_blob


def _crash_simulation(recorder) -> Tuple[int, int]:
    """Materialize and verify every crash point (+ torn variants)."""
    full_journals = _full_journal_bytes(recorder)
    states = 0
    torn_states = 0
    with ThreadPoolExecutor(max_workers=1) as pool, \
            tempfile.TemporaryDirectory(prefix="torture-crash-") as base:
        def check(prefix: int, torn: Optional[int], label: str) -> None:
            scratch = os.path.join(base, "state")
            os.makedirs(scratch)
            try:
                recorder.materialize(prefix, scratch, torn_bytes=torn)
                future = pool.submit(
                    _verify_crash_state, scratch, full_journals, label
                )
                future.result(timeout=_VERIFY_TIMEOUT_S)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)

        for prefix in range(len(recorder.ops) + 1):
            check(prefix, None, f"crash@{prefix}")
            states += 1
            if prefix < len(recorder.ops) and recorder.ops[prefix].tearable:
                for torn in _torn_offsets(len(recorder.ops[prefix].data)):
                    check(prefix, torn, f"crash@{prefix}+torn{torn}")
                    torn_states += 1
    return states, torn_states


# ----------------------------------------------------------------------
# Phase 4: live ENOSPC brownout drill
# ----------------------------------------------------------------------
async def _brownout_drill(root: str) -> None:
    faultfs = FaultFS(rules=[
        # The first two appends (admit + first GOP) land; the next two
        # (the second GOP record, then the best-effort tombstone) hit a
        # full volume.  The cap lets journaling succeed again once the
        # probe loop readmits — modelling an operator freeing space.
        FaultRule(point="journal.append", kind="enospc", after=2, count=2),
    ], seed=0)
    server = NetworkServer(ServeNetConfig(
        port=0, journal_dir=root, fileops=faultfs,
        durability_probe_s=0.05, journal_retry_backoff_s=0.001,
    ))
    await server.start()
    try:
        ack, encoded = await _session_full(server.port, 2 * _GOP, "gamma")
        if not ack.resume_token:
            raise TortureFailure("brownout drill session not journaled")
        delivered = [m for m in encoded if m.dropped is None]
        if len(delivered) != 2 * _GOP:
            raise TortureFailure(
                f"brownout session lost frames: {len(delivered)}/"
                f"{2 * _GOP} delivered — the connection must survive "
                f"the failing volume")
        # The invalidated token must be refused, cleanly and typed.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, Resume(
            resume_token=ack.resume_token, have_below=2 * _GOP,
        ))
        rack = await read_message(reader)
        writer.close()
        if rack.decision != "reject" or "brownout" not in rack.reason:
            raise TortureFailure(
                f"tombstoned token not refused cleanly: {rack}")
        # Hysteretic readmission: probes bypass the journal.append rule,
        # so journaling must come back on its own.
        from repro.observability import get_registry
        deadline = asyncio.get_running_loop().time() + 10.0
        while True:
            summary = serving_summary(get_registry().to_dict()) or {}
            if summary.get("durability") == 1.0 \
                    and summary.get("durability_readmits", 0) >= 1:
                break
            if asyncio.get_running_loop().time() > deadline:
                raise TortureFailure(
                    "durability readmission never happened: "
                    f"{summary!r}")
            await asyncio.sleep(0.02)
        if summary.get("durability_brownouts", 0) < 1:
            raise TortureFailure("no brownout episode counted")
        if summary.get("tombstone_rejects", 0) < 1:
            raise TortureFailure("no tombstone reject counted")
        # Post-readmission admits journal again.
        ack2, _ = await _session_full(server.port, _GOP, "delta")
        if not ack2.resume_token:
            raise TortureFailure(
                "journaling not re-enabled after readmission")
    finally:
        await server.aclose()


def _run_brownout() -> None:
    with tempfile.TemporaryDirectory(prefix="torture-brownout-") as root:
        with scoped():
            asyncio.run(
                asyncio.wait_for(_brownout_drill(root), _PHASE_TIMEOUT_S)
            )


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    update_golden = "--update-golden" in argv

    print("torture: phase 1 — recording the pinned serving drill")
    with tempfile.TemporaryDirectory(prefix="torture-rec-") as root:
        faultfs = FaultFS(seed=0, root=root, record=True)
        recorded_digests = _drill_sync(root, faultfs)
        recorder = faultfs.recorder
        counts = recorder.point_counts()
    print(f"torture: {len(recorder.ops)} mutations across "
          f"{len(counts)} write points")

    print("torture: phase 2 — golden write-point digest")
    if update_golden:
        GOLDEN_PATH.write_text(json.dumps(counts, indent=2,
                                          sort_keys=True) + "\n")
        print(f"torture: wrote {GOLDEN_PATH}")
    else:
        if not GOLDEN_PATH.exists():
            print(f"torture FAILED: golden {GOLDEN_PATH} missing "
                  f"(run with --update-golden)", file=sys.stderr)
            return 1
        golden = json.loads(GOLDEN_PATH.read_text())
        if golden != counts:
            print("torture FAILED: write-point digest drifted from "
                  "golden\n"
                  f"  golden : {json.dumps(golden, sort_keys=True)}\n"
                  f"  actual : {json.dumps(counts, sort_keys=True)}\n"
                  "Regenerate with --update-golden if intentional.",
                  file=sys.stderr)
            return 1

    print("torture: phase 3 — no-fault bit-identity arm")
    with tempfile.TemporaryDirectory(prefix="torture-raw-") as root:
        raw_digests = _drill_sync(root, None)
    if raw_digests != recorded_digests:
        print("torture FAILED: FaultFS(no rules) changed wire outputs "
              "vs the raw filesystem", file=sys.stderr)
        return 1

    print(f"torture: phase 4 — crash simulation over "
          f"{len(recorder.ops) + 1} prefixes")
    try:
        states, torn_states = _crash_simulation(recorder)
    except TortureFailure as exc:
        print(f"torture FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"torture: verified {states} crash states "
          f"+ {torn_states} torn-write variants")
    lines, in_blob = _gop_tear_report(recorder)
    print("\n".join(lines))
    if not in_blob:
        print("torture FAILED: no torn variant of a gop append cut "
              "inside a plane blob", file=sys.stderr)
        return 1

    print("torture: phase 5 — live ENOSPC durability-brownout drill")
    try:
        _run_brownout()
    except TortureFailure as exc:
        print(f"torture FAILED: {exc}", file=sys.stderr)
        return 1

    print("torture OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
