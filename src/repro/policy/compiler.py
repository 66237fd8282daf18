"""Lowering: a validated :class:`PolicyDocument` becomes concrete knobs.

The declarative layer talks about *intent* (PSNR floors, deadline
classes, shares); the serving stack consumes *mechanism* (admission
weights, degradation-ladder caps, ladder caps).  This module is the
bridge, and the mapping rules are the policy grammar's semantics —
documented here and in DESIGN.md §15:

* ``weight``  → ``capacity_fraction`` (normalized share of the slot
  capacity; per-tenant occupancy is capped at its share so a batch
  flood can never starve the emergency entitlement).
* ``min_psnr_db`` → degradation-ladder cap: a floor of 36 dB or more
  compiles to ``NONE`` (the stream is never degraded), 30 dB or more
  to ``QP_BUMP`` at most; below that the explicit ``max_degradation``
  rung applies unchanged.  The final cap is the minimum of both.
* ``max_deadline_miss_rate`` → ladder aggressiveness: a rate of 5% or
  less compiles to ``escalate_after=1`` (react to every miss), looser
  classes to ``escalate_after=2``.
* ``max_rungs`` → the ladder-rung entitlement admission trims to.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.policy.document import PolicyDocument, TenantSpec
from repro.resilience.degradation import DegradationLevel, ResilienceConfig

__all__ = ["CompiledPolicy", "TenantRuntime", "compile_policy"]

#: PSNR floor (dB) → hardest degradation rung still allowed.
_PSNR_LADDER_CAPS: Tuple[Tuple[float, DegradationLevel], ...] = (
    (36.0, DegradationLevel.NONE),
    (30.0, DegradationLevel.QP_BUMP),
)

_DEGRADATION_BY_NAME = {
    "none": DegradationLevel.NONE,
    "qp_bump": DegradationLevel.QP_BUMP,
    "window_shrink": DegradationLevel.WINDOW_SHRINK,
    "tile_merge": DegradationLevel.TILE_MERGE,
    "frame_drop": DegradationLevel.FRAME_DROP,
}


@dataclass(frozen=True)
class TenantRuntime:
    """One tenant's compiled, directly-consumable knobs."""

    name: str
    #: Normalized admission share of the slot capacity.
    capacity_fraction: float
    #: Hard ceiling of the per-stream degradation ladder.
    max_level: DegradationLevel
    #: Consecutive misses before the per-stream ladder escalates.
    escalate_after: int
    #: Ladder-rung entitlement (0 = unlimited).
    max_rungs: int


def _lower_tenant(spec: TenantSpec, total_weight: float) -> TenantRuntime:
    cap = _DEGRADATION_BY_NAME[spec.max_degradation]
    if spec.min_psnr_db is not None:
        for floor, level in _PSNR_LADDER_CAPS:
            if spec.min_psnr_db >= floor:
                cap = min(cap, level)
                break
    return TenantRuntime(
        name=spec.name,
        capacity_fraction=spec.weight / total_weight,
        max_level=cap,
        escalate_after=1 if spec.max_deadline_miss_rate <= 0.05 else 2,
        max_rungs=spec.max_rungs,
    )


@dataclass(frozen=True)
class CompiledPolicy:
    """A lowered policy: everything the serving stack consumes."""

    version: int
    default_tenant: str
    tenants: Dict[str, TenantRuntime]
    source: Optional[str] = None

    # -- resolution ----------------------------------------------------
    def resolve(self, tenant: str) -> TenantRuntime:
        """Tenant for a HELLO's declared name.

        Unknown or empty names fall through to the catch-all default
        tenant — old peers that never heard of tenancy keep working.
        """
        return self.tenants.get(tenant) or self.tenants[self.default_tenant]

    def resolve_name(self, tenant: str) -> str:
        return self.resolve(tenant).name

    # -- compilation targets -------------------------------------------
    def resilience_for(self, tenant: str,
                       base: ResilienceConfig) -> ResilienceConfig:
        """Per-stream degradation config bounded by the tenant's QoS
        floor (the ladder never climbs past the compiled cap)."""
        rt = self.resolve(tenant)
        return dataclasses.replace(
            base,
            max_level=min(base.max_level, rt.max_level),
            escalate_after=rt.escalate_after,
        )

    def max_rungs_for(self, tenant: str) -> int:
        return self.resolve(tenant).max_rungs

    def tenant_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.tenants))


def compile_policy(doc: PolicyDocument) -> CompiledPolicy:
    """Lower a validated document into a :class:`CompiledPolicy`."""
    total_weight = sum(t.weight for t in doc.tenants)
    return CompiledPolicy(
        version=doc.version,
        default_tenant=doc.default_tenant,
        tenants={spec.name: _lower_tenant(spec, total_weight)
                 for spec in doc.tenants},
        source=doc.source,
    )
