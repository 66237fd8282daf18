"""Typed storage-fault taxonomy and bounded retry.

The durability layer (journals, LUT checkpoints, policy reads, the
open of a lease's lock sidecar) historically let bare ``OSError``
propagate, which gave callers no way to distinguish a *transient*
hiccup (an ``EIO`` the next attempt may clear) from a *persistent*
condition (``ENOSPC`` — retrying a full disk is just a slower
failure).  The hierarchy below makes the distinction explicit so the
serving layer can retry the former and enter durability brownout on
the latter (DESIGN.md §16).

Every class inherits from both :class:`~repro.resilience.errors.
TranscodeError` (the stack-wide root) and ``OSError``, so pre-existing
``except OSError`` call sites — the LUT loader's corruption fallback,
the server's best-effort teardown — keep working unchanged.
"""

from __future__ import annotations

import errno
import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.resilience.errors import TranscodeError

__all__ = [
    "FsyncFailedError",
    "RetryPolicy",
    "StorageError",
    "StorageFullError",
    "StorageIOError",
    "TornWriteError",
    "classify_os_error",
    "run_with_retries",
]


class StorageError(TranscodeError, OSError):
    """A filesystem operation of the durability layer failed.

    ``transient`` is the retry verdict: ``True`` means a bounded retry
    is worth attempting, ``False`` means the condition will not clear
    on its own (full disk, failed fsync) and the caller should degrade
    instead — for the serving layer, durability brownout.

    ``point`` names the instrumented write point (``"journal.append"``,
    ``"lut.publish"``, ...) so faults are attributable in logs and the
    tests can assert *where* an error surfaced.
    """

    transient = False

    def __init__(self, message: str, *, point: str = "",
                 errno_value: Optional[int] = None):
        super().__init__(message)
        self.point = point
        if errno_value is not None:
            self.errno = errno_value

    def __str__(self) -> str:
        base = super().__str__()
        return f"[{self.point}] {base}" if self.point else base


class StorageFullError(StorageError):
    """The volume is out of space or quota (``ENOSPC``/``EDQUOT``).

    Persistent: space does not free itself between retries, so the
    first occurrence is grounds for brownout."""


class StorageIOError(StorageError):
    """A device-level I/O failure (``EIO`` and kin).

    Transient by default — a single bad sector or a briefly wedged
    device may clear — so it earns a bounded retry before escalating.
    """

    transient = True


class FsyncFailedError(StorageError):
    """An ``fsync``/``fdatasync`` failed.

    Persistent by design: after a failed fsync the page cache may have
    silently dropped the dirty pages (the classic fsync-gate), so the
    durability of *everything previously written* to the handle is
    unknowable and retrying the sync proves nothing."""


class TornWriteError(StorageError):
    """A write landed only partially (short write).

    Transient: the caller that rolled the file back to its pre-write
    length may retry the whole record."""

    transient = True


#: errno values that mean "the volume is full" (persistent).
_FULL_ERRNOS = frozenset(
    v for v in (getattr(errno, "ENOSPC", None), getattr(errno, "EDQUOT", None))
    if v is not None
)
#: errno values worth a retry before giving up.
_TRANSIENT_ERRNOS = frozenset({errno.EIO, errno.EAGAIN, errno.EINTR})


def classify_os_error(exc: OSError, point: str = "") -> StorageError:
    """Map a raw ``OSError`` onto the typed taxonomy.

    Unrecognised errnos become a *persistent* :class:`StorageIOError`:
    an unknown failure mode has not earned the benefit of a retry.
    """
    if isinstance(exc, StorageError):
        return exc
    code = exc.errno
    if code in _FULL_ERRNOS:
        return StorageFullError(str(exc), point=point, errno_value=code)
    wrapped = StorageIOError(str(exc), point=point, errno_value=code)
    if code not in _TRANSIENT_ERRNOS:
        wrapped.transient = False
    return wrapped


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry/backoff schedule for transient storage faults.

    ``attempts`` counts *total* tries (1 = no retry).  The ``i``-th
    retry sleeps ``backoff_s * multiplier**i`` seconds, so the default
    keeps the journal writer's worst-case stall well under a GOP slot.
    """

    attempts: int = 3
    backoff_s: float = 0.005
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff_s < 0 or self.multiplier < 1.0:
            raise ValueError("backoff_s must be >= 0 and multiplier >= 1")

    def delay(self, retry_index: int) -> float:
        return self.backoff_s * (self.multiplier ** retry_index)


T = TypeVar("T")


def run_with_retries(fn: Callable[[], T],
                     policy: Optional[RetryPolicy] = None,
                     on_retry: Optional[Callable[[StorageError], None]] = None,
                     sleep: Callable[[float], None] = time.sleep) -> T:
    """Run ``fn``, retrying *transient* :class:`StorageError` failures.

    Persistent errors (and anything that is not a ``StorageError``)
    propagate immediately — retrying a full disk or a failed fsync is
    wasted latency on a verdict that will not change.  ``on_retry``
    fires before each retry (metrics hook).
    """
    attempts = policy.attempts if policy is not None else 1
    for attempt in range(attempts):
        try:
            return fn()
        except StorageError as exc:
            if not exc.transient or attempt == attempts - 1:
                raise
            if on_retry is not None:
                on_retry(exc)
            sleep(policy.delay(attempt))
    raise AssertionError("unreachable")  # pragma: no cover
