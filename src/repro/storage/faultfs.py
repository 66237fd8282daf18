"""Injectable file-ops seam, seeded fault injection, crash-point log.

Every durable write of the serving stack — journal appends, LUT
checkpoint staging/publish, policy reads — goes through a
:class:`FileOps` instance instead of calling ``os``/``open`` directly
(a lease is an ``flock`` on an empty sidecar, no durable write).
Three implementations of interest:

:data:`REAL_FILEOPS`
    The pass-through used in production: plain filesystem calls, with
    raw ``OSError`` mapped onto the typed taxonomy of
    :mod:`repro.storage.errors` and every ``os.replace`` publish
    followed by a parent-directory fsync (a rename is only durable
    once the directory entry is).

:class:`FaultFS`
    A wrapper that injects seeded faults (``ENOSPC``, ``EIO``, torn /
    short writes, fsync failures, latency stalls) at named write
    points — ``"journal.append"``, ``"lut.publish"``, ... — under
    deterministic :class:`FaultRule` schedules.

:class:`CrashPointRecorder`
    An op log of every completed mutation under a root directory.
    :meth:`~CrashPointRecorder.materialize` replays any prefix of the
    log into a scratch directory — the ALICE/ferrite-style crash
    model: a crash may happen between any two completed operations,
    or mid-operation for the write ops, leaving a torn tail.  The
    torture test (``tests/test_torture.py``) restarts from every such
    state and asserts the loaders' verdicts.

Write points are plain dotted names matched by ``fnmatch`` patterns,
so a rule of ``point="journal.*"`` faults the whole journal surface
while ``"lut.publish"`` targets one syscall.
"""

from __future__ import annotations

import errno
import fnmatch
import io
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.storage.errors import (
    FsyncFailedError,
    StorageError,
    StorageFullError,
    StorageIOError,
    TornWriteError,
    classify_os_error,
)

__all__ = [
    "CrashPointRecorder",
    "FaultFS",
    "FaultRule",
    "FileOps",
    "RecordedOp",
    "REAL_FILEOPS",
    "fsync_dir",
]

_PathLike = Union[str, os.PathLike]


def fsync_dir(path: _PathLike) -> None:
    """fsync a directory so a just-renamed entry survives a crash."""
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fdatasync(fileno: int) -> None:
    getattr(os, "fdatasync", os.fsync)(fileno)


#: What :meth:`FileOps.append` writes: one buffer, or several written
#: back to back (a record's header line, then its plane blobs).
_Parts = Union[bytes, Sequence]


def _byte_views(data: _Parts) -> List[memoryview]:
    """The buffers of an append as flat byte views, in order."""
    parts = [data] if isinstance(data, (bytes, bytearray, memoryview)) \
        else data
    return [memoryview(part).cast("B") for part in parts]


class FileOps:
    """The real file-operations seam (pass-through implementation).

    Each method takes a ``point`` name identifying the instrumented
    write point; the base class uses it only to tag raised
    :class:`StorageError`\\ s, subclasses use it to target injection
    and recording.  ``FileNotFoundError`` passes through unwrapped — it
    is a protocol signal (cold start), not a storage fault.
    """

    # -- reads ---------------------------------------------------------
    def read_bytes(self, path: _PathLike, point: str = "") -> bytes:
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise classify_os_error(exc, point) from exc

    # -- append-handle lifecycle (journals) ----------------------------
    def append_open(self, path: _PathLike, point: str = "") -> io.FileIO:
        # Unbuffered on purpose: a failed write must leave no residue
        # in a Python-side buffer that a retry (or a later append)
        # would silently re-flush after the caller rolled the file
        # back — every byte on disk is a byte the caller asked for.
        try:
            return open(path, "ab", buffering=0)
        except OSError as exc:
            raise classify_os_error(exc, point) from exc

    def append(self, handle: io.FileIO, data: _Parts,
               point: str = "") -> None:
        """Append ``data`` — one buffer, or a sequence of C-contiguous
        buffers written in order with no copy joining them (the file
        gets exactly their concatenation)."""
        try:
            views = _byte_views(data)
            fd = handle.fileno()
            writev = getattr(os, "writev", None)
            while views:
                written = (writev(fd, views) if writev
                           else os.write(fd, views[0]))
                while views and written >= len(views[0]):
                    written -= len(views.pop(0))
                if written:
                    views[0] = views[0][written:]
        except OSError as exc:
            raise classify_os_error(exc, point) from exc

    def drop_cache(self, handle: io.FileIO, offset: int,
                   length: int) -> None:
        """Tell the kernel a synced range will not be read back (an
        append-only journal is read only by a RESUME, after a crash or
        a reconnect): its pages leave the cache now instead of pushing
        out something live.  Advice only — best effort, a no-op where
        ``posix_fadvise`` does not exist."""
        advise = getattr(os, "posix_fadvise", None)
        if advise is None:
            return
        try:
            advise(handle.fileno(), offset, length, os.POSIX_FADV_DONTNEED)
        except OSError:
            pass

    def fsync_handle(self, handle: io.FileIO, point: str = "") -> None:
        try:
            _fdatasync(handle.fileno())
        except OSError as exc:
            raise FsyncFailedError(str(exc), point=point,
                                   errno_value=exc.errno) from exc

    def truncate_handle(self, handle: io.FileIO, size: int,
                        point: str = "") -> None:
        try:
            os.ftruncate(handle.fileno(), size)
        except OSError as exc:
            raise classify_os_error(exc, point) from exc

    # -- whole-file writes (checkpoint staging) ------------------------
    def write_file(self, path: _PathLike, data: bytes, point: str = "",
                   fsync: bool = True, mode: int = 0o644) -> None:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        try:
            fd = os.open(os.fspath(path), flags, mode)
        except OSError as exc:
            raise classify_os_error(exc, point) from exc
        try:
            try:
                os.write(fd, data)
            except OSError as exc:
                raise classify_os_error(exc, point) from exc
            if fsync:
                try:
                    _fdatasync(fd)
                except OSError as exc:
                    raise FsyncFailedError(str(exc), point=point,
                                           errno_value=exc.errno) from exc
        finally:
            os.close(fd)

    def replace(self, src: _PathLike, dst: _PathLike, point: str = "",
                dir_fsync: bool = True) -> None:
        """Atomic publish: ``os.replace`` + parent-directory fsync.

        The rename itself is atomic, but only the directory fsync makes
        it *durable* — without it a crash can roll the directory entry
        back to the old target even though the data blocks landed.
        """
        try:
            os.replace(src, dst)
        except OSError as exc:
            raise classify_os_error(exc, point) from exc
        if dir_fsync:
            parent = os.path.dirname(os.path.abspath(os.fspath(dst)))
            try:
                fsync_dir(parent)
            except OSError as exc:  # pragma: no cover - exotic fs
                raise FsyncFailedError(str(exc), point=point,
                                       errno_value=exc.errno) from exc

    # -- destructive ops -----------------------------------------------
    def truncate(self, path: _PathLike, size: int, point: str = "") -> None:
        try:
            os.truncate(path, size)
        except OSError as exc:
            raise classify_os_error(exc, point) from exc

    def unlink(self, path: _PathLike, point: str = "",
               missing_ok: bool = True) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            if not missing_ok:
                raise
        except OSError as exc:
            raise classify_os_error(exc, point) from exc


#: Shared pass-through instance (stateless, safe to share).
REAL_FILEOPS = FileOps()


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
@dataclass
class FaultRule:
    """One deterministic injection schedule.

    ``point`` is an ``fnmatch`` pattern against write-point names.
    The rule skips its first ``after`` matching operations, then fires
    on every match (up to ``count`` times; ``None`` = forever).
    ``rate`` thins firing stochastically but reproducibly from the
    shim's seed.  Kinds:

    - ``"enospc"``: mutations fail :class:`StorageFullError` (persistent)
    - ``"eio"``: any op fails :class:`StorageIOError` (transient)
    - ``"torn"``: a write lands only ``torn_fraction`` of its bytes,
      then raises :class:`TornWriteError`
    - ``"fsync"``: sync calls fail :class:`FsyncFailedError`
    - ``"stall"``: the op sleeps ``stall_s`` first, then proceeds
    """

    point: str
    kind: str
    after: int = 0
    count: Optional[int] = None
    stall_s: float = 0.01
    torn_fraction: float = 0.5
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("enospc", "eio", "torn", "fsync", "stall"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 < self.torn_fraction < 1.0:
            raise ValueError("torn_fraction must be in (0, 1)")


#: Which op categories each fault kind applies to.
_APPLIES = {
    "enospc": frozenset({"write", "meta"}),
    "eio": frozenset({"read", "write", "meta", "fsync"}),
    "torn": frozenset({"write"}),
    "fsync": frozenset({"fsync"}),
    "stall": frozenset({"read", "write", "meta", "fsync"}),
}


@dataclass
class RecordedOp:
    """One completed mutation under the recorder's root."""

    point: str
    op: str  #: "create" | "append" | "write_file" | "replace" | "truncate" | "unlink"
    path: str  #: root-relative
    data: bytes = b""
    dest: str = ""  #: for "replace": root-relative publish target
    size: int = 0  #: for "truncate"

    @property
    def tearable(self) -> bool:
        """True when a crash can leave this op half-applied on disk.
        Renames, truncates and unlinks are atomic at the syscall level;
        data writes are not."""
        return self.op in ("append", "write_file") and len(self.data) > 1


class CrashPointRecorder:
    """Ordered log of completed mutations, replayable to any prefix."""

    def __init__(self, root: _PathLike):
        self.root = os.path.abspath(os.fspath(root))
        self.ops: List[RecordedOp] = []

    def _rel(self, path: _PathLike) -> Optional[str]:
        rel = os.path.relpath(os.path.abspath(os.fspath(path)), self.root)
        if rel.startswith(".."):
            return None  # outside the recorded tree
        return rel

    def record(self, point: str, op: str, path: _PathLike,
               data: bytes = b"", dest: _PathLike = "",
               size: int = 0) -> None:
        rel = self._rel(path)
        if rel is None:
            return
        rel_dest = self._rel(dest) if dest else ""
        if dest and rel_dest is None:
            return
        self.ops.append(RecordedOp(point=point, op=op, path=rel,
                                   data=bytes(data), dest=rel_dest or "",
                                   size=size))

    def point_counts(self) -> Dict[str, int]:
        """Mutations per write point — the torture golden digest."""
        counts: Dict[str, int] = {}
        for op in self.ops:
            counts[op.point] = counts.get(op.point, 0) + 1
        return dict(sorted(counts.items()))

    def materialize(self, prefix: int, dest_root: _PathLike,
                    torn_bytes: Optional[int] = None) -> None:
        """Replay ``ops[:prefix]`` into ``dest_root``.

        With ``torn_bytes`` set, additionally applies the first
        ``torn_bytes`` bytes of ``ops[prefix]`` — the mid-write crash
        state.  ``dest_root`` must exist and should be empty.
        """
        dest_root = os.path.abspath(os.fspath(dest_root))
        if not 0 <= prefix <= len(self.ops):
            raise ValueError(f"prefix {prefix} out of range")
        todo = list(self.ops[:prefix])
        for op in todo:
            target = os.path.join(dest_root, op.path)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            if op.op == "create":
                with open(target, "ab"):
                    pass
            elif op.op == "append":
                with open(target, "ab") as fh:
                    fh.write(op.data)
            elif op.op == "write_file":
                with open(target, "wb") as fh:
                    fh.write(op.data)
            elif op.op == "replace":
                os.replace(target, os.path.join(dest_root, op.dest))
            elif op.op == "truncate":
                os.truncate(target, op.size)
            elif op.op == "unlink":
                try:
                    os.unlink(target)
                except FileNotFoundError:
                    pass
        if torn_bytes is not None:
            if prefix >= len(self.ops):
                raise ValueError("no op to tear at end of log")
            op = self.ops[prefix]
            if not op.tearable:
                raise ValueError(f"op {op.op!r} cannot tear")
            target = os.path.join(dest_root, op.path)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            mode = "ab" if op.op == "append" else "wb"
            with open(target, mode) as fh:
                fh.write(op.data[:torn_bytes])


class FaultFS(FileOps):
    """Fault-injecting, crash-point-recording :class:`FileOps`.

    Wraps a base seam (default :data:`REAL_FILEOPS`); with no rules
    and recording off it is behaviourally identical to the base — the
    torture test's no-fault arm checks that.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0,
                 root: Optional[_PathLike] = None, record: bool = False,
                 base: Optional[FileOps] = None):
        self.rules = list(rules)
        self.base = base or REAL_FILEOPS
        self.recorder: Optional[CrashPointRecorder] = None
        if record:
            if root is None:
                raise ValueError("recording requires a root directory")
            self.recorder = CrashPointRecorder(root)
        self._rng = random.Random(seed)
        self._seen: List[int] = [0] * len(self.rules)
        self._fired: List[int] = [0] * len(self.rules)
        #: injections actually performed, per (point, kind).
        self.injected: Dict[Tuple[str, str], int] = {}

    # -- injection core ------------------------------------------------
    def _check(self, point: str, category: str,
               data_len: int = 0) -> Optional[int]:
        """Run the rule schedule for one op.

        Raises the injected error, or returns a byte count for a torn
        write the caller must apply, or ``None`` for a clean op.
        """
        for i, rule in enumerate(self.rules):
            if category not in _APPLIES[rule.kind]:
                continue
            if not fnmatch.fnmatchcase(point, rule.point):
                continue
            self._seen[i] += 1
            if self._seen[i] <= rule.after:
                continue
            if rule.count is not None and self._fired[i] >= rule.count:
                continue
            if rule.rate < 1.0 and self._rng.random() >= rule.rate:
                continue
            self._fired[i] += 1
            key = (point, rule.kind)
            self.injected[key] = self.injected.get(key, 0) + 1
            if rule.kind == "stall":
                time.sleep(rule.stall_s)
                continue
            if rule.kind == "enospc":
                raise StorageFullError("injected ENOSPC", point=point,
                                       errno_value=errno.ENOSPC)
            if rule.kind == "eio":
                raise StorageIOError("injected EIO", point=point,
                                     errno_value=errno.EIO)
            if rule.kind == "fsync":
                raise FsyncFailedError("injected fsync failure",
                                       point=point)
            # torn: the caller writes the partial bytes, then raises.
            return max(1, int(data_len * rule.torn_fraction))
        return None

    def _record(self, *args, **kwargs) -> None:
        if self.recorder is not None:
            self.recorder.record(*args, **kwargs)

    # -- reads ---------------------------------------------------------
    def read_bytes(self, path: _PathLike, point: str = "") -> bytes:
        self._check(point, "read")
        return self.base.read_bytes(path, point)

    # -- append-handle lifecycle ---------------------------------------
    def append_open(self, path: _PathLike, point: str = "") -> io.FileIO:
        self._check(point, "meta")
        fresh = not os.path.exists(path)
        handle = self.base.append_open(path, point)
        if fresh:
            self._record(point, "create", path)
        return handle

    def append(self, handle: io.FileIO, data: _Parts,
               point: str = "") -> None:
        views = _byte_views(data)
        total = sum(len(view) for view in views)
        torn = self._check(point, "write", data_len=total)
        if torn is not None:
            # The tear falls where it would in the joined bytes.
            partial = b"".join(views)[:torn]
            self.base.append(handle, partial, point)
            self._record(point, "append", handle.name, data=partial)
            raise TornWriteError(
                f"short write: {torn} of {total} bytes", point=point
            )
        self.base.append(handle, views, point)
        if self.recorder is not None:
            self._record(point, "append", handle.name, data=b"".join(views))

    def drop_cache(self, handle: io.FileIO, offset: int,
                   length: int) -> None:
        self.base.drop_cache(handle, offset, length)

    def fsync_handle(self, handle: io.FileIO, point: str = "") -> None:
        self._check(point, "fsync")
        self.base.fsync_handle(handle, point)

    def truncate_handle(self, handle: io.FileIO, size: int,
                        point: str = "") -> None:
        self._check(point, "meta")
        self.base.truncate_handle(handle, size, point)
        self._record(point, "truncate", handle.name, size=size)

    # -- whole-file writes ---------------------------------------------
    def write_file(self, path: _PathLike, data: bytes, point: str = "",
                   fsync: bool = True, mode: int = 0o644) -> None:
        torn = self._check(point, "write", data_len=len(data))
        if torn is not None:
            partial = data[:torn]
            self.base.write_file(path, partial, point, fsync=False,
                                 mode=mode)
            self._record(point, "write_file", path, data=partial)
            raise TornWriteError(
                f"short write: {torn} of {len(data)} bytes", point=point
            )
        self.base.write_file(path, data, point, fsync=fsync, mode=mode)
        self._record(point, "write_file", path, data=data)

    def replace(self, src: _PathLike, dst: _PathLike, point: str = "",
                dir_fsync: bool = True) -> None:
        self._check(point, "meta")
        if dir_fsync:
            self._check(point, "fsync")
        self.base.replace(src, dst, point, dir_fsync=dir_fsync)
        self._record(point, "replace", src, dest=dst)

    # -- destructive ops -----------------------------------------------
    def truncate(self, path: _PathLike, size: int, point: str = "") -> None:
        self._check(point, "meta")
        self.base.truncate(path, size, point)
        self._record(point, "truncate", path, size=size)

    def unlink(self, path: _PathLike, point: str = "",
               missing_ok: bool = True) -> None:
        self._check(point, "meta")
        existed = os.path.exists(path)
        self.base.unlink(path, point, missing_ok=missing_ok)
        if existed:
            self._record(point, "unlink", path)
