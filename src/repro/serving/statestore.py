"""Externalized session state: a journal directory a restarted server
can take over.

PR 5 made a single server crash-safe by journaling every session to
disk; nothing in a journal is bound to the process that wrote it.  So
when a server is killed and a new ``serve-net`` starts on the same
directory, the new process can adopt every RESUME token the dead one
owned:

``SharedDirStateStore``
    What a server needs: token-addressed session journals
    (create/reopen/restore/discard — inherited from
    :class:`repro.serving.recovery.JournalStore`), a shared LUT
    checkpoint next to them, and **single-owner leases** (a sidecar
    lease file per token).

The lease protocol is what prevents the *diverging-twin-session* race
across processes (PR 5's review fixed it within one process with the
``_attached`` map): a journal admits exactly one writer, so a server
must hold the token's lease for the whole time its handler may append.

* **acquire** is atomic: the lease file is created with
  ``O_CREAT | O_EXCL`` under a per-token ``flock``, so two processes
  racing for one token get exactly one winner; the loser sees a typed
  :class:`~repro.resilience.errors.LeaseHeldError`.
* A lease names its owner (``"solo:<pid>"``) and pid.  A lease whose
  owner pid is **dead** is stale and is reclaimed in place — that
  reclaim *is* crash restart: the restarted server takes over the
  journal exactly where the dead one's last durable GOP left it.
* A **torn lease file** (the mid-write crash signature, mirroring the
  journal's torn-tail semantics) is crash debris, never a verdict:
  it is reclaimable by anyone.
* Acquire is idempotent for the holder: re-acquiring one's own lease
  succeeds (the in-process RESUME preemption path re-enters here).

Liveness is a pid probe, which assumes the directory is used by
processes of one machine.  Whoever restarts a killed server must reap
it first: an unreaped zombie still probes alive and keeps its leases.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Union

try:  # POSIX; the server targets Linux
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.resilience.checkpoint import (
    CheckpointLoadResult,
    canonical_json,
    load_lut,
    payload_checksum,
    save_lut,
)
from repro.resilience.errors import LeaseHeldError
from repro.serving.recovery import JournalStore
from repro.storage.errors import RetryPolicy, StorageError
from repro.storage.faultfs import FileOps
from repro.workload.lut import WorkloadLut

__all__ = [
    "Lease",
    "LEASE_SUFFIX",
    "SharedDirStateStore",
    "pid_alive",
]

LEASE_SUFFIX = ".lease"
_LOCK_SUFFIX = ".lock"


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a local pid.

    ``EPERM`` means the pid exists under another uid — alive.  A pid
    that was reaped raises ``ProcessLookupError`` — dead.  (A zombie
    still counts as alive, so a killed server must be reaped before
    its replacement can reclaim its leases.)
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - cross-uid deployment
        return True
    return True


@dataclass(frozen=True)
class Lease:
    """One granted session lease."""

    token: str
    owner: str
    pid: int
    #: Owner recorded in the lease this acquire replaced: ``""`` for a
    #: fresh lease, the dead/torn previous holder for a reclaim.  A
    #: non-empty value from a *different* owner is what the server
    #: counts as an adoption.
    previous_owner: str = ""
    #: True when the acquire reclaimed a stale (dead-owner or torn)
    #: lease rather than creating a fresh one.
    reclaimed: bool = False


class SharedDirStateStore(JournalStore):
    """Shared-directory state store: journals + LUT + lease sidecars.

    ``owner`` identifies this store's holder in lease records
    (the server passes ``"solo:<pid>"``; defaults to the bare pid).
    """

    def __init__(self, root: Union[str, os.PathLike], fsync: bool = True,
                 owner: str = "", pid: Optional[int] = None,
                 fileops: Optional[FileOps] = None,
                 retry: Optional[RetryPolicy] = None,
                 on_retry=None):
        super().__init__(root, fsync=fsync, fileops=fileops, retry=retry,
                         on_retry=on_retry)
        self.pid = os.getpid() if pid is None else int(pid)
        self.owner = owner or str(self.pid)

    # -- lease files ---------------------------------------------------
    def lease_path(self, token: str) -> str:
        return self.path_for(token)[: -len(".journal")] + LEASE_SUFFIX

    def _lock_path(self, token: str) -> str:
        return self.path_for(token)[: -len(".journal")] + _LOCK_SUFFIX

    def _lease_body(self, token: str) -> bytes:
        body = {"token": token, "owner": self.owner, "pid": self.pid}
        body_json = canonical_json(body)
        digest = payload_checksum(body)
        line = '{"checksum":"' + digest + '",' + body_json[1:]
        return line.encode("utf-8") + b"\n"

    @staticmethod
    def _parse_lease(raw: bytes) -> Optional[Dict[str, object]]:
        """Decode a lease file; ``None`` = torn/corrupt (reclaimable).

        The torn-write semantics mirror the journal's: a lease that
        fails checksum or decode is the debris of a crash mid-write,
        not a held lease — treating it as held would wedge the token
        forever on a fault that, by construction, killed its writer.
        """
        import json

        try:
            record = json.loads(raw.decode("utf-8"))
            body = {"token": record["token"], "owner": record["owner"],
                    "pid": record["pid"]}
            if payload_checksum(body) != record["checksum"]:
                return None
            return {"token": str(body["token"]),
                    "owner": str(body["owner"]), "pid": int(body["pid"])}
        except (KeyError, TypeError, ValueError, UnicodeDecodeError):
            return None

    def _write_lease(self, token: str, exclusive: bool) -> None:
        self._ops.write_file(
            self.lease_path(token), self._lease_body(token),
            point="lease.create" if exclusive else "lease.update",
            exclusive=exclusive, fsync=self.fsync,
        )

    def _token_lock(self, token: str):
        """Per-token critical section serializing acquire vs reclaim.

        ``O_EXCL`` alone cannot make *reclaim* atomic (two processes can
        both judge a lease stale, and unlink-then-create lets the
        second unlink destroy the first's fresh lease), so mutations go
        through a short ``flock`` on a sidecar lock file.
        """
        class _Lock:
            def __init__(self, path: str):
                self._path = path
                self._fd: Optional[int] = None

            def __enter__(self):
                if fcntl is not None:
                    self._fd = os.open(self._path,
                                       os.O_CREAT | os.O_RDWR, 0o644)
                    fcntl.flock(self._fd, fcntl.LOCK_EX)
                return self

            def __exit__(self, *exc):
                if self._fd is not None:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)
                    os.close(self._fd)

        return _Lock(self._lock_path(token))

    # -- lease protocol ------------------------------------------------
    def acquire(self, token: str) -> Lease:
        """Take the single-owner lease for ``token``.

        Exactly one of three things happens, atomically:

        * no lease (or our own) -> granted;
        * stale lease (dead owner pid, or a torn file) -> reclaimed,
          with the displaced owner reported in the returned
          :class:`Lease` — the adoption signal;
        * live foreign lease -> :class:`LeaseHeldError`.
        """
        path = self.lease_path(token)
        with self._token_lock(token):
            try:
                self._write_lease(token, exclusive=True)
                return Lease(token=token, owner=self.owner, pid=self.pid)
            except FileExistsError:
                pass
            try:
                info = self._parse_lease(
                    self._ops.read_bytes(path, point="lease.read")
                )
            except FileNotFoundError:  # pragma: no cover - race guard
                info = None
            if info is not None and info["owner"] == self.owner:
                return Lease(token=token, owner=self.owner, pid=self.pid)
            if info is not None and pid_alive(int(info["pid"])):
                raise LeaseHeldError(token, str(info["owner"]),
                                     int(info["pid"]))
            # Stale (dead owner) or torn: reclaim in place.
            previous = str(info["owner"]) if info is not None else ""
            self._write_lease(token, exclusive=False)
            return Lease(token=token, owner=self.owner, pid=self.pid,
                         previous_owner=previous, reclaimed=True)

    def release(self, token: str) -> None:
        """Give the lease back (only if we hold it; else a no-op)."""
        with self._token_lock(token):
            try:
                info = self._parse_lease(self._ops.read_bytes(
                    self.lease_path(token), point="lease.read"
                ))
            except FileNotFoundError:
                return
            except StorageError:
                # Best-effort: an unreadable lease stays on disk; a
                # dead holder's lease is reclaimable by liveness probe
                # anyway, so failing the caller here buys nothing.
                return
            if info is None or info["owner"] == self.owner:
                try:
                    self._ops.unlink(self.lease_path(token),
                                     point="lease.unlink")
                except StorageError:  # pragma: no cover - best effort
                    pass

    # -- journal overrides ---------------------------------------------
    def discard(self, token: str) -> None:
        """Delete one journal and its lease/lock sidecars."""
        super().discard(token)
        try:
            self._ops.unlink(self.lease_path(token), point="lease.unlink")
        except OSError:
            pass
        try:
            # Advisory-lock debris, not durable state: plain unlink.
            os.unlink(self._lock_path(token))
        except (FileNotFoundError, OSError):
            pass

    # -- shared LUT checkpoint -----------------------------------------
    def lut_path(self) -> str:
        return os.path.join(self.root, "lut.json")

    def load_lut(self) -> CheckpointLoadResult:
        return load_lut(self.lut_path(), fileops=self._ops)

    def save_lut(self, lut: WorkloadLut) -> None:
        # Two servers on one directory may checkpoint the LUT at once; a fixed
        # tmp name would let two in-flight saves race ``os.replace``
        # (the loser's staging file vanishes mid-rename).  Stage under
        # a per-pid name, then publish atomically — the publish fsyncs
        # the parent directory, so a crash after ``save_lut`` returns
        # cannot roll the directory entry back to the stale LUT.
        staged = os.path.join(self.root, f"lut.json.{self.pid}")
        save_lut(lut, self.lut_path(), fileops=self._ops,
                 staging_path=staged)
