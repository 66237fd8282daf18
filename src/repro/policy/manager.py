"""Versioned plan/apply lifecycle for live policies.

A server never swaps its policy blind: a candidate file is parsed and
compiled off to the side, :func:`plan_change` diffs it against the
active plan into a human-readable :class:`PolicyPlan`, and only
:meth:`PolicyManager.apply` makes it live — atomically bumping the
manager's monotonic ``revision``.  A file that fails validation leaves
the active policy untouched and increments a reload-error counter, so
a fat-fingered edit degrades to "nothing happened" plus a metric, not
an outage.

Hot reload is mtime polling (:meth:`PolicyManager.maybe_reload`), which
the serving loop calls on its housekeeping tick; there is no watcher
thread to leak.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.observability import get_registry, get_tracer
from repro.policy.compiler import CompiledPolicy, compile_policy
from repro.policy.document import PolicyError, load_policy_file

__all__ = ["PolicyManager", "PolicyPlan", "plan_change"]


@dataclass(frozen=True)
class PolicyPlan:
    """Diff between the active policy and a compiled candidate."""

    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    changed: Tuple[str, ...]
    #: Non-tenant knob changes, rendered ("power_cap_w: 90 -> 60").
    global_changes: Tuple[str, ...]

    @property
    def empty(self) -> bool:
        return not (self.added or self.removed or self.changed
                    or self.global_changes)

    def summary(self) -> str:
        if self.empty:
            return "no changes"
        parts: List[str] = []
        if self.added:
            parts.append("add " + ", ".join(self.added))
        if self.removed:
            parts.append("remove " + ", ".join(self.removed))
        if self.changed:
            parts.append("change " + ", ".join(self.changed))
        parts.extend(self.global_changes)
        return "; ".join(parts)


def _global_diffs(old: CompiledPolicy, new: CompiledPolicy) -> Tuple[str, ...]:
    diffs: List[str] = []
    for attr in ("power_cap_w", "energy_window_s", "default_tenant",
                 "dvfs_min_hz", "dvfs_max_hz"):
        before, after = getattr(old, attr), getattr(new, attr)
        if before != after:
            diffs.append(f"{attr}: {before} -> {after}")
    if old.brownout != new.brownout:
        diffs.append("brownout hysteresis changed")
    return tuple(diffs)


def plan_change(old: Optional[CompiledPolicy],
                new: CompiledPolicy) -> PolicyPlan:
    """Diff ``new`` against ``old`` (``old=None`` = first load)."""
    if old is None:
        return PolicyPlan(
            added=new.tenant_names(), removed=(), changed=(),
            global_changes=(),
        )
    added = tuple(sorted(set(new.tenants) - set(old.tenants)))
    removed = tuple(sorted(set(old.tenants) - set(new.tenants)))
    changed = tuple(sorted(
        name for name in set(old.tenants) & set(new.tenants)
        if old.tenants[name] != new.tenants[name]
    ))
    return PolicyPlan(added, removed, changed, _global_diffs(old, new))


class PolicyManager:
    """Owns the live :class:`CompiledPolicy` and its reload lifecycle.

    ``on_apply`` callbacks (``fn(policy, plan, revision)``) run after
    every apply; the server hangs its scheduler/admission rewiring off
    them.
    """

    def __init__(self, path: Optional[str] = None, fileops=None):
        self.path = path
        self._ops = fileops  # None = real filesystem (see load_policy_file)
        self.active: Optional[CompiledPolicy] = None
        self.revision = 0
        self.reload_errors = 0
        self.last_error: Optional[str] = None
        self._mtime: Optional[float] = None
        self._listeners: List[
            Callable[[CompiledPolicy, PolicyPlan, int], None]] = []
        if path is not None:
            # The initial load is NOT forgiving: a server must refuse
            # to start on a broken policy rather than silently run
            # unpoliced.
            self._mtime = self._getmtime(path)
            doc = load_policy_file(path, fileops=self._ops)
            self.apply(compile_policy(doc))

    def _getmtime(self, path: str) -> float:
        if self._ops is not None:
            return self._ops.getmtime(path, point="policy.stat")
        return os.path.getmtime(path)

    def on_apply(self, fn: Callable[[CompiledPolicy, PolicyPlan, int],
                                    None]) -> None:
        self._listeners.append(fn)

    # -- plan / apply --------------------------------------------------
    def plan(self, candidate: CompiledPolicy) -> PolicyPlan:
        return plan_change(self.active, candidate)

    def apply(self, candidate: CompiledPolicy) -> PolicyPlan:
        plan = self.plan(candidate)
        self.active = candidate
        self.revision += 1
        self.last_error = None
        registry = get_registry()
        registry.set_gauge(
            "repro_policy_revision", self.revision,
            help="Monotonic revision of the applied policy",
        )
        registry.set_gauge(
            "repro_policy_tenants", len(candidate.tenants),
            help="Tenants defined by the applied policy",
        )
        get_tracer().event(
            "policy.apply", revision=self.revision,
            summary=plan.summary(), source=candidate.source or "",
        )
        for fn in self._listeners:
            fn(candidate, plan, self.revision)
        return plan

    # -- hot reload ----------------------------------------------------
    def maybe_reload(self) -> Optional[PolicyPlan]:
        """Re-read the file if its mtime moved.

        Returns the applied plan, or ``None`` when nothing changed or
        the candidate failed validation (the active policy stays up and
        ``reload_errors`` / ``last_error`` record the failure).
        """
        if self.path is None:
            return None
        try:
            mtime = self._getmtime(self.path)
        except OSError:
            return None  # file briefly absent mid-rewrite; retry later
        if self._mtime is not None and mtime == self._mtime:
            return None
        self._mtime = mtime
        try:
            candidate = compile_policy(
                load_policy_file(self.path, fileops=self._ops))
        except (PolicyError, OSError) as exc:
            self.reload_errors += 1
            self.last_error = str(exc)
            get_registry().inc(
                "repro_policy_reload_errors_total",
                help="Policy reloads rejected by validation",
            )
            get_tracer().event("policy.reload_error", error=str(exc))
            return None
        plan = self.plan(candidate)
        if plan.empty and self.active is not None:
            return None  # touched but semantically identical
        return self.apply(candidate)
