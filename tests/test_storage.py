"""Unit tests for the storage-fault layer (DESIGN.md §16).

The taxonomy must classify raw ``OSError``\\ s into retryable vs
brownout-worthy; the retry helper must be bounded and only retry
transient verdicts; the FaultFS shim must inject deterministically and
be a behavioural no-op when idle; the crash-point recorder must replay
any prefix bit-identically; and every loader with a FaultFS seam must
keep its crash-atomicity contract under injected faults.
"""

from __future__ import annotations

import errno
import json
import os

import pytest

from repro.observability.metrics import (
    MetricsRegistry,
    format_metrics,
    serving_summary,
)
from repro.policy import PolicyError
from repro.resilience.checkpoint import load_lut, save_lut
from repro.serving.recovery import SessionJournal, read_journal
from repro.serving.server import NetworkServer, ServeNetConfig
from repro.storage import (
    CrashPointRecorder,
    DurabilityMonitor,
    FaultFS,
    FaultRule,
    FsyncFailedError,
    REAL_FILEOPS,
    RetryPolicy,
    StorageError,
    StorageFullError,
    StorageIOError,
    TornWriteError,
    classify_os_error,
    run_with_retries,
)
from repro.resilience.errors import TranscodeError
from repro.analysis.motion_probe import MotionClass
from repro.analysis.texture import TextureClass
from repro.codec.config import FrameType
from repro.workload.lut import WorkloadKey, WorkloadLut


# ----------------------------------------------------------------------
# Taxonomy
# ----------------------------------------------------------------------
def test_storage_error_is_both_transcode_and_os_error():
    exc = StorageError("boom", point="journal.append")
    assert isinstance(exc, TranscodeError)
    assert isinstance(exc, OSError)
    assert "journal.append" in str(exc)


@pytest.mark.parametrize("code,cls,transient", [
    (errno.ENOSPC, StorageFullError, False),
    (getattr(errno, "EDQUOT", errno.ENOSPC), StorageFullError, False),
    (errno.EIO, StorageIOError, True),
    (errno.EAGAIN, StorageIOError, True),
    (errno.EINTR, StorageIOError, True),
])
def test_classify_known_errnos(code, cls, transient):
    raw = OSError(code, os.strerror(code))
    wrapped = classify_os_error(raw, point="lease.create")
    assert isinstance(wrapped, cls)
    assert wrapped.transient is transient
    assert wrapped.point == "lease.create"
    assert wrapped.errno == code


def test_classify_unknown_errno_is_persistent():
    # An unrecognised failure mode has not earned a retry.
    wrapped = classify_os_error(OSError(errno.EPERM, "nope"))
    assert isinstance(wrapped, StorageIOError)
    assert wrapped.transient is False


def test_classify_passes_existing_storage_error_through():
    original = StorageFullError("full", point="x")
    assert classify_os_error(original) is original


def test_fsync_and_torn_verdicts():
    assert FsyncFailedError("f").transient is False
    assert TornWriteError("t").transient is True


# ----------------------------------------------------------------------
# Bounded retry
# ----------------------------------------------------------------------
def test_retry_recovers_from_transient_fault():
    calls, retries = [], []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise StorageIOError("injected", point="p")
        return "ok"

    result = run_with_retries(
        flaky, RetryPolicy(attempts=3, backoff_s=0.0),
        on_retry=retries.append, sleep=lambda _s: None,
    )
    assert result == "ok"
    assert len(calls) == 3
    assert [e.point for e in retries] == ["p", "p"]


def test_retry_never_retries_persistent_faults():
    calls = []

    def full():
        calls.append(1)
        raise StorageFullError("disk full")

    with pytest.raises(StorageFullError):
        run_with_retries(full, RetryPolicy(attempts=5, backoff_s=0.0),
                         sleep=lambda _s: None)
    assert len(calls) == 1  # ENOSPC is not worth a second attempt


def test_retry_exhaustion_reraises():
    def always():
        raise StorageIOError("still broken")

    with pytest.raises(StorageIOError):
        run_with_retries(always, RetryPolicy(attempts=2, backoff_s=0.0),
                         sleep=lambda _s: None)


def test_retry_policy_backoff_grows():
    policy = RetryPolicy(attempts=3, backoff_s=0.01, multiplier=2.0)
    assert policy.delay(1) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)


# ----------------------------------------------------------------------
# FaultFS injection
# ----------------------------------------------------------------------
def test_faultfs_enospc_schedule(tmp_path):
    ffs = FaultFS(rules=[FaultRule(point="a.write", kind="enospc",
                                   after=1, count=1)])
    target = tmp_path / "f"
    ffs.write_file(target, b"one\n", point="a.write")  # after=1: passes
    with pytest.raises(StorageFullError) as exc_info:
        ffs.write_file(target, b"two\n", point="a.write")
    assert exc_info.value.point == "a.write"
    ffs.write_file(target, b"three\n", point="a.write")  # count exhausted
    assert ffs.injected == {("a.write", "enospc"): 1}
    assert target.read_bytes() == b"three\n"


def test_faultfs_point_patterns_are_fnmatch(tmp_path):
    ffs = FaultFS(rules=[FaultRule(point="journal.*", kind="eio")])
    with pytest.raises(StorageIOError):
        ffs.write_file(tmp_path / "j", b"x", point="journal.append")
    # A non-matching point is untouched.
    ffs.write_file(tmp_path / "k", b"x", point="lease.create")


def test_faultfs_torn_write_leaves_partial_bytes(tmp_path):
    ffs = FaultFS(rules=[FaultRule(point="w", kind="torn",
                                   torn_fraction=0.5)])
    target = tmp_path / "f"
    with pytest.raises(TornWriteError):
        ffs.write_file(target, b"abcdefgh", point="w")
    assert target.read_bytes() == b"abcd"  # the crash signature is real


def test_append_of_parts_is_the_append_of_their_join(tmp_path):
    """A record handed over as parts (a header line, then planes as the
    arrays they are) lands as the bytes of their concatenation — through
    the real seam, through an idle FaultFS, in the recorder's log — and
    a torn write tears the joined bytes where it always did."""
    import numpy as np

    planes = [np.arange(48, dtype=np.uint8).reshape(6, 8),
              np.full((3, 5), 7, dtype=np.uint8)]
    parts = [b'{"header":1}\n', *planes, memoryview(b"tail")]
    joined = b"".join(bytes(memoryview(part).cast("B")) for part in parts)
    recording = FaultFS(root=tmp_path, record=True)
    for name, ops in (("real", REAL_FILEOPS), ("idle", FaultFS()),
                      ("recorded", recording)):
        handle = ops.append_open(tmp_path / name, point="j.open")
        try:
            ops.append(handle, b"first|", point="j.append")
            ops.append(handle, parts, point="j.append")
            ops.drop_cache(handle, 0, len(joined))  # advice: never fails
        finally:
            handle.close()
        assert (tmp_path / name).read_bytes() == b"first|" + joined
    assert [op.data for op in recording.recorder.ops if op.op == "append"] \
        == [b"first|", joined]
    torn = FaultFS(rules=[FaultRule(point="j.append", kind="torn",
                                    torn_fraction=0.5)])
    handle = torn.append_open(tmp_path / "torn", point="j.open")
    try:
        with pytest.raises(TornWriteError, match=f"of {len(joined)} bytes"):
            torn.append(handle, parts, point="j.append")
    finally:
        handle.close()
    assert (tmp_path / "torn").read_bytes() == joined[:len(joined) // 2]


def test_faultfs_fsync_rule_only_hits_sync_calls(tmp_path):
    ffs = FaultFS(rules=[FaultRule(point="j.*", kind="fsync")])
    handle = ffs.append_open(tmp_path / "j", point="j.open")
    try:
        ffs.append(handle, b"rec\n", point="j.append")  # write untouched
        with pytest.raises(FsyncFailedError):
            ffs.fsync_handle(handle, point="j.fsync")
    finally:
        handle.close()


def test_faultfs_idle_is_passthrough(tmp_path):
    ffs = FaultFS()
    target = tmp_path / "f"
    ffs.write_file(target, b"data", point="p")
    assert ffs.read_bytes(target, point="p") == b"data"
    ffs.replace(target, tmp_path / "g", point="p")
    assert (tmp_path / "g").read_bytes() == b"data"
    assert ffs.injected == {}


# ----------------------------------------------------------------------
# Crash-point recording + materialization
# ----------------------------------------------------------------------
def test_recorder_replays_any_prefix(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    ffs = FaultFS(root=root, record=True)
    handle = ffs.append_open(root / "s.journal", point="journal.create")
    ffs.append(handle, b"r0\n", point="journal.append")
    ffs.append(handle, b"r1\n", point="journal.append")
    handle.close()
    ffs.write_file(root / "lut.tmp", b"{}", point="lut.stage")
    ffs.replace(root / "lut.tmp", root / "lut.json", point="lut.publish")
    ffs.unlink(root / "s.journal", point="journal.unlink")

    recorder = ffs.recorder
    assert recorder.point_counts() == {
        "journal.append": 2, "journal.create": 1, "journal.unlink": 1,
        "lut.publish": 1, "lut.stage": 1,
    }

    # Prefix 3: journal has both records, LUT not yet staged.
    state = tmp_path / "crash3"
    state.mkdir()
    recorder.materialize(3, state)
    assert (state / "s.journal").read_bytes() == b"r0\nr1\n"
    assert not (state / "lut.json").exists()

    # Full replay: journal unlinked, LUT published, staging gone.
    state = tmp_path / "crashN"
    state.mkdir()
    recorder.materialize(len(recorder.ops), state)
    assert not (state / "s.journal").exists()
    assert not (state / "lut.tmp").exists()
    assert (state / "lut.json").read_bytes() == b"{}"


def test_recorder_torn_materialization(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    ffs = FaultFS(root=root, record=True)
    handle = ffs.append_open(root / "s.journal", point="journal.create")
    ffs.append(handle, b"r0\n", point="journal.append")
    ffs.append(handle, b"r1-longer\n", point="journal.append")
    handle.close()

    state = tmp_path / "torn"
    state.mkdir()
    # Crash mid-way through the second append: first record plus a tail.
    ffs.recorder.materialize(2, state, torn_bytes=3)
    assert (state / "s.journal").read_bytes() == b"r0\nr1-"
    with pytest.raises(ValueError):
        ffs.recorder.materialize(0, state, torn_bytes=1)  # create: atomic


def test_recorder_ignores_paths_outside_root(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    ffs = FaultFS(root=root, record=True)
    ffs.write_file(tmp_path / "outside", b"x", point="other.write")
    assert ffs.recorder.ops == []


# ----------------------------------------------------------------------
# Durability brownout state machine
# ----------------------------------------------------------------------
def test_durability_monitor_transitions_once():
    monitor = DurabilityMonitor(readmit_successes=2)
    assert monitor.healthy
    assert monitor.record_failure(StorageFullError("full")) is True
    assert not monitor.healthy
    # Further failures while browned out are not new episodes.
    assert monitor.record_failure(StorageFullError("full")) is False


def test_durability_monitor_readmits_hysteretically():
    monitor = DurabilityMonitor(readmit_successes=3)
    monitor.record_failure(StorageIOError("io"))
    assert monitor.record_success() is False
    assert monitor.record_success() is False
    assert monitor.record_success() is True  # third clean probe readmits
    assert monitor.healthy
    # A failure mid-streak resets the hysteresis.
    monitor.record_failure(StorageIOError("io"))
    assert monitor.record_success() is False
    assert monitor.record_failure(StorageIOError("io")) is False
    assert monitor.record_success() is False
    assert monitor.record_success() is False
    assert monitor.record_success() is True


# ----------------------------------------------------------------------
# Journal append under injected faults (retry + rollback)
# ----------------------------------------------------------------------
def test_journal_append_retries_transient_eio(tmp_path):
    retries = []
    ffs = FaultFS(rules=[FaultRule(point="journal.append", kind="eio",
                                   count=1)])
    journal = SessionJournal(tmp_path / "s.journal", fsync=False,
                             fileops=ffs,
                             retry=RetryPolicy(attempts=3, backoff_s=0.0),
                             on_retry=retries.append)
    with journal:
        journal.append("admit", {"w": 1})
        journal.append("gop", {"i": 0})
    assert len(retries) == 1
    result = read_journal(tmp_path / "s.journal")
    assert [k for k, _ in result.records] == ["admit", "gop"]
    assert result.reason == "ok"


def test_journal_torn_append_rolls_back_then_retries(tmp_path):
    # A torn write must not leave its partial bytes welded into the
    # file: the rollback truncates before the retry re-appends.
    ffs = FaultFS(rules=[FaultRule(point="journal.append", kind="torn",
                                   after=1, count=1)])
    journal = SessionJournal(tmp_path / "s.journal", fsync=False,
                             fileops=ffs,
                             retry=RetryPolicy(attempts=2, backoff_s=0.0))
    with journal:
        journal.append("admit", {"w": 1})
        journal.append("gop", {"i": 0})
    result = read_journal(tmp_path / "s.journal", strict=True)
    assert [k for k, _ in result.records] == ["admit", "gop"]


def test_journal_enospc_propagates_typed(tmp_path):
    ffs = FaultFS(rules=[FaultRule(point="journal.append",
                                   kind="enospc")])
    journal = SessionJournal(tmp_path / "s.journal", fsync=False,
                             fileops=ffs,
                             retry=RetryPolicy(attempts=3, backoff_s=0.0))
    with journal, pytest.raises(StorageFullError):
        journal.append("admit", {"w": 1})


# ----------------------------------------------------------------------
# LUT checkpoint: staged publish stays crash-atomic under faults
# ----------------------------------------------------------------------
def _small_lut(cpu_time: float = 0.01) -> WorkloadLut:
    lut = WorkloadLut()
    lut.observe(WorkloadKey(
        texture=TextureClass.MEDIUM, motion=MotionClass.LOW, qp=32,
        search_window=16, frame_type=FrameType.P, area_bucket=10,
        content_class=None,
    ), cpu_time)
    return lut


def test_lut_publish_fault_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "lut.json"
    save_lut(_small_lut(), path)
    before = path.read_bytes()

    newer = _small_lut(cpu_time=0.02)
    ffs = FaultFS(rules=[FaultRule(point="lut.publish", kind="eio")])
    with pytest.raises(StorageIOError):
        save_lut(newer, path, fileops=ffs)
    # The publish rename never happened: the old checkpoint is intact.
    assert path.read_bytes() == before
    assert load_lut(path, fileops=REAL_FILEOPS).recovered


def test_lut_stage_fault_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "lut.json"
    save_lut(_small_lut(), path)
    before = path.read_bytes()
    ffs = FaultFS(rules=[FaultRule(point="lut.stage", kind="torn",
                                   torn_fraction=0.3)])
    with pytest.raises(TornWriteError):
        save_lut(_small_lut(), path, fileops=ffs)
    assert path.read_bytes() == before


# ----------------------------------------------------------------------
# Policy load: a torn or unreadable file refuses to start, typed
# ----------------------------------------------------------------------
_POLICY = {
    "version": 1,
    "default_tenant": "general",
    "tenants": [{"name": "general", "weight": 2},
                {"name": "bulk", "weight": 1}],
}


def _refuse_to_start(tmp_path, path, error, fileops=None):
    """A server's policy load refuses, typed."""
    server = ServeNetConfig(journal_dir=str(tmp_path / "j"),
                            policy_file=str(path), fileops=fileops)
    with pytest.raises(error):
        NetworkServer(server)


def test_policy_torn_rewrite_keeps_active_policy(tmp_path):
    path = tmp_path / "policy.json"
    full = json.dumps(_POLICY).encode()
    path.write_bytes(full)
    server = NetworkServer(ServeNetConfig(policy_file=str(path)))
    active = server.compiled_policy
    # A crash mid-rewrite leaves a torn prefix: the running server
    # keeps what it loaded, and the next incarnation refuses to start.
    path.write_bytes(full[: len(full) // 2])
    _refuse_to_start(tmp_path, path, PolicyError)
    assert server.compiled_policy is active
    assert active.tenants["general"].capacity_fraction == pytest.approx(2 / 3)


def test_policy_read_fault_refuses_to_start(tmp_path):
    path = tmp_path / "policy.json"
    path.write_bytes(json.dumps(_POLICY).encode())
    ffs = FaultFS(rules=[FaultRule(point="policy.read", kind="eio")])
    _refuse_to_start(tmp_path, path, StorageIOError, fileops=ffs)


# ----------------------------------------------------------------------
# Metrics surface
# ----------------------------------------------------------------------
def test_serving_summary_storage_defaults_are_stable():
    # A snapshot from a server that never browned out (or predates the
    # storage counters) must read as fully durable with zero events.
    registry = MetricsRegistry()
    registry.inc("repro_serving_sessions_total")
    summary = serving_summary(registry.to_dict())
    assert summary is not None
    assert summary["durability"] == 1.0
    assert summary["durability_brownouts"] == 0
    assert summary["durability_readmits"] == 0
    assert summary["tombstone_rejects"] == 0
    assert summary["journal_retries"] == 0
    assert summary["journal_appends"] == 0
    assert summary["journal_append_s"] == 0.0
    assert summary["journal_bytes"] == 0


def test_serving_summary_reports_journal_cost():
    registry = MetricsRegistry()
    for seconds in (0.002, 0.004):
        registry.observe("repro_serving_journal_append_seconds", seconds)
    registry.inc("repro_serving_journal_bytes_total", 2_765_000)
    summary = serving_summary(registry.to_dict())
    assert summary["journal_appends"] == 2
    assert summary["journal_append_s"] == pytest.approx(0.006)
    assert summary["journal_bytes"] == 2_765_000
    assert "appends 2 (6.0 ms, 2765000 bytes)" in format_metrics(
        registry.to_dict())


def test_serving_summary_reports_brownout_state():
    registry = MetricsRegistry()
    registry.inc("repro_serving_sessions_total")
    registry.set_gauge("repro_serving_durability", 0.0)
    registry.inc("repro_serving_durability_brownouts_total")
    registry.inc("repro_serving_journal_retries_total", 3)
    summary = serving_summary(registry.to_dict())
    assert summary["durability"] == 0.0
    assert summary["durability_brownouts"] == 1
    assert summary["journal_retries"] == 3
