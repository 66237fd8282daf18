"""Durability-brownout state machine.

A persistent storage fault does not crash the server and does not
flap (DESIGN.md §16).  One :class:`DurabilityMonitor` per server
tracks whether the journal volume is believed writable:

* Any persistent :class:`~repro.storage.errors.StorageError` (or a
  transient one that exhausted its retries) trips the monitor:
  ``healthy`` goes ``False``, new sessions are admitted *without*
  journaling, and the session that hit the fault is tombstoned (its
  resume token refuses cleanly instead of replaying a divergent
  history).

* Readmission is hysteretic: the monitor demands
  ``readmit_successes`` *consecutive* successful probe writes before
  declaring the volume healthy again — a disk that clears one write
  then fails the next must not oscillate journaling on and off per
  session.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["DurabilityMonitor"]


class DurabilityMonitor:
    """Hysteretic healthy/browned-out latch for the journal volume."""

    def __init__(self, readmit_successes: int = 3):
        if readmit_successes < 1:
            raise ValueError("readmit_successes must be >= 1")
        self.readmit_successes = readmit_successes
        self.healthy = True
        self.brownouts = 0
        self.readmits = 0
        self.last_error: Optional[str] = None
        self._streak = 0

    def record_failure(self, error: Optional[BaseException] = None) -> bool:
        """A durable write failed terminally.

        Returns ``True`` when this call *transitioned* the monitor into
        brownout (the caller bumps counters / emits events exactly
        once per episode).
        """
        self._streak = 0
        self.last_error = str(error) if error is not None else "unknown"
        if not self.healthy:
            return False
        self.healthy = False
        self.brownouts += 1
        return True

    def record_success(self) -> bool:
        """A probe (or real) durable write succeeded.

        Returns ``True`` when the success streak just readmitted the
        volume (healthy again).
        """
        if self.healthy:
            self._streak = 0
            return False
        self._streak += 1
        if self._streak < self.readmit_successes:
            return False
        self.healthy = True
        self.readmits += 1
        self._streak = 0
        self.last_error = None
        return True
