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
    checkpoint next to them, and **single-owner leases**.

A journal admits exactly one writer, so a server must hold the token's
lease for the whole time its handler may append: within one process
the server's ``_attached`` map rules out two diverging sessions on one
journal, and the lease rules them out across processes.  The lease
is a kernel lock: an exclusive ``flock`` on the token's ``.lock``
sidecar, held on an open fd for as long as the store holds the token.

* **acquire** takes the lock without waiting: two stores racing for
  one token get exactly one winner, and the loser sees a typed
  :class:`~repro.resilience.errors.LeaseHeldError`.  Re-acquiring a
  token the store already holds succeeds (the in-process RESUME
  preemption path re-enters here).
* The kernel drops the lock when its holder dies — before the dead
  process is reaped — so a restarted server takes over a killed one's
  tokens with nothing to judge: no owner record, no pid probe, no
  torn file.  Adoption is read from the journal (``last_owner``).
"""

from __future__ import annotations

import fcntl
import os
from typing import Dict, Optional, Union

from repro.resilience.checkpoint import (
    CheckpointLoadResult,
    load_lut,
    save_lut,
)
from repro.resilience.errors import LeaseHeldError
from repro.serving.recovery import JournalStore
from repro.storage.errors import RetryPolicy, classify_os_error
from repro.storage.faultfs import FileOps
from repro.workload.lut import WorkloadLut

__all__ = ["SharedDirStateStore"]

_LOCK_SUFFIX = ".lock"


class SharedDirStateStore(JournalStore):
    """Shared-directory state store: journals + LUT + per-token locks."""

    def __init__(self, root: Union[str, os.PathLike], fsync: bool = True,
                 pid: Optional[int] = None,
                 fileops: Optional[FileOps] = None,
                 retry: Optional[RetryPolicy] = None,
                 on_retry=None):
        super().__init__(root, fsync=fsync, fileops=fileops, retry=retry,
                         on_retry=on_retry)
        self.pid = os.getpid() if pid is None else int(pid)
        #: token -> the open fd whose ``flock`` is that token's lease.
        self._held: Dict[str, int] = {}

    def _lock_path(self, token: str) -> str:
        return self.path_for(token)[: -len(".journal")] + _LOCK_SUFFIX

    # -- lease protocol ------------------------------------------------
    def acquire(self, token: str) -> None:
        """Take the single-owner lease for ``token``, or raise
        :class:`LeaseHeldError` when another open file holds it."""
        if token in self._held:
            return
        path = self._lock_path(token)
        try:
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError as exc:
            raise classify_os_error(exc, "lease.lock") from exc
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # A sidecar ``discard`` unlinked after we opened it is a
            # dead inode: locking it must not count as holding the token.
            held = os.path.samestat(os.fstat(fd), os.stat(path))
        except (BlockingIOError, FileNotFoundError):
            held = False
        except OSError as exc:
            os.close(fd)
            raise classify_os_error(exc, "lease.lock") from exc
        if not held:
            os.close(fd)
            raise LeaseHeldError(token)
        self._held[token] = fd

    def release(self, token: str) -> None:
        """Give the lease back (only if we hold it; else a no-op)."""
        fd = self._held.pop(token, None)
        if fd is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # -- journal overrides ---------------------------------------------
    def discard(self, token: str) -> None:
        """Delete one journal and, if we hold its lease, its sidecar —
        unlinked while still locked, so nobody can lock it in between.
        The lease goes back even when the journal's unlink fails."""
        fd = self._held.pop(token, None)
        try:
            super().discard(token)
        finally:
            if fd is not None:
                try:
                    os.unlink(self._lock_path(token))
                except OSError:
                    pass
                os.close(fd)

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
