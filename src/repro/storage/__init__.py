"""Storage-fault robustness for the serving stack (DESIGN.md §16).

Two pieces:

* :mod:`repro.storage.errors` — the typed :class:`StorageError`
  taxonomy (transient vs persistent) plus bounded retry/backoff;
* :mod:`repro.storage.faultfs` — the injectable :class:`FileOps`
  seam, the seeded :class:`FaultFS` fault shim and the
  :class:`CrashPointRecorder` that ``tests/test_torture.py``
  restarts from.

A journal volume that fails persistently takes the one session that
hit it off its journal (degrade, never crash); the serving layer keeps
no storage-health state beyond that.
"""

from repro.storage.errors import (
    FsyncFailedError,
    RetryPolicy,
    StorageError,
    StorageFullError,
    StorageIOError,
    TornWriteError,
    classify_os_error,
    run_with_retries,
)
from repro.storage.faultfs import (
    CrashPointRecorder,
    FaultFS,
    FaultRule,
    FileOps,
    REAL_FILEOPS,
    RecordedOp,
    fsync_dir,
)

__all__ = [
    "CrashPointRecorder",
    "FaultFS",
    "FaultRule",
    "FileOps",
    "FsyncFailedError",
    "REAL_FILEOPS",
    "RecordedOp",
    "RetryPolicy",
    "StorageError",
    "StorageFullError",
    "StorageIOError",
    "TornWriteError",
    "classify_os_error",
    "fsync_dir",
    "run_with_retries",
]
