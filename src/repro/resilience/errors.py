"""Typed error taxonomy for the transcoding stack.

Bare ``ValueError``s give callers no way to distinguish "the input is
garbage" from "the platform ran out of cores" — two situations with
two different recovery strategies (drop the frame, shed a user).  The
hierarchy below makes the distinction explicit.  A stream behind its
framerate budget is not an error: the degradation ladder
(:mod:`repro.resilience.degradation`) answers it.

Errors that replace pre-existing ``ValueError`` raises inherit from
``ValueError`` too, so existing ``except ValueError`` call sites (and
tests) keep working.
"""

from __future__ import annotations


class TranscodeError(Exception):
    """Base class of every error raised by the transcoding stack."""


class CorruptFrameError(TranscodeError, ValueError):
    """An input frame (or whole video) failed validation: mismatched
    geometry, non-finite luma samples, or a frame too small for the
    minimum tile size."""


class AllocationError(TranscodeError, ValueError):
    """Thread allocation cannot proceed: no usable cores, invalid slot
    parameters, or an inconsistent schedule mutation."""


class LutCorruptionError(TranscodeError, ValueError):
    """A workload-LUT checkpoint failed its integrity check (checksum
    mismatch, truncated payload, or undecodable key/histogram)."""


class JournalCorruptionError(TranscodeError, ValueError):
    """A session journal failed its integrity check: a record whose
    checksum does not match its payload, an undecodable record body, or
    a sequence-number gap.  A *truncated tail* (the mid-write crash
    case) is not corruption — loaders discard the partial final record
    and resume from the last intact one."""


class LeaseHeldError(TranscodeError, RuntimeError):
    """A session lease is held by another open file.

    Raised by :meth:`repro.serving.statestore.SharedDirStateStore.acquire`
    when the ``flock`` that is a resume token's lease is held elsewhere —
    another store, in this process or a live one.  A dead holder's lock
    is gone with it, so a killed server never blocks its replacement.
    """

    def __init__(self, token: str):
        super().__init__(f"lease for {token!r} is held")
        self.token = token
