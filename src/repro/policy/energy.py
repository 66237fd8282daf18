"""Energy-budgeted scheduling: the sliding ledger and brownout mode.

The fig4 power model prices every core-second
(:class:`repro.platform.power.PowerModel`,
:meth:`repro.platform.schedule.SlotSchedule.energy`); this module adds
the *budget*: an :class:`EnergyLedger` integrates observed energy over
a sliding window, and the :class:`EnergyBudgetScheduler` compares the
windowed mean power against the policy's cap.

When the cap is exceeded the scheduler enters **brownout**: tenants are
shed one per check, in the compiled policy's strict reverse-priority
order (archival first; the most important tier is never shed — if it
alone still busts the cap, ``cap_violations`` counts it instead of
dropping emergency streams).  Shedding is sticky: a shed tenant's
admissions are refused and its active streams drop frames, so its draw
collapses to ~0 and the window drains.  Readmission is hysteretic —
windowed power must stay below ``cap * readmit_fraction`` for
``readmit_after_checks`` consecutive checks, and tenants return one at
a time in reverse shed order — so the fleet never oscillates across
the cap boundary.

Per-tenant ``power_budget_w`` caps work the same way, scoped to one
tenant: its own draw above its own budget throttles only that tenant
(with the same hysteresis), independent of the shared envelope.

Time is explicit everywhere (callers pass ``now``): the serving loop
feeds the event-loop clock, the brownout drill feeds simulated slot
time, and tests are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.observability import get_registry, get_tracer
from repro.policy.compiler import CompiledPolicy

__all__ = ["BrownoutEvent", "EnergyBudgetScheduler", "EnergyLedger"]


class EnergyLedger:
    """Sliding-window integral of observed energy.

    ``record(now, energy_j)`` appends one observation; anything older
    than ``window_s`` before the most recent ``now`` passed to a query
    falls off.  Windowed power is the window's energy divided by the
    window length — a stable denominator, so a burst right after start
    does not read as infinite power.
    """

    def __init__(self, window_s: float):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self._entries: Deque[Tuple[float, float]] = deque()
        self._sum_j = 0.0
        self.total_j = 0.0

    def record(self, now: float, energy_j: float) -> None:
        if energy_j < 0:
            raise ValueError("energy must be non-negative")
        self._entries.append((now, energy_j))
        self._sum_j += energy_j
        self.total_j += energy_j
        self._expire(now)

    def _expire(self, now: float) -> None:
        # Tolerant boundary: an entry at exactly ``now - window_s``
        # is outside the window even when float subtraction lands a
        # hair below it (slot-grid timestamps hit this constantly).
        horizon = now - self.window_s + 1e-9
        entries = self._entries
        while entries and entries[0][0] <= horizon:
            _, energy = entries.popleft()
            self._sum_j -= energy
        if not entries:
            self._sum_j = 0.0

    def windowed_energy(self, now: float) -> float:
        self._expire(now)
        return max(0.0, self._sum_j)

    def windowed_power(self, now: float) -> float:
        return self.windowed_energy(now) / self.window_s


@dataclass(frozen=True)
class BrownoutEvent:
    """One shed/readmit transition, for drills and observability."""

    kind: str          # "shed" | "readmit" | "throttle" | "unthrottle"
    tenant: str
    windowed_w: float
    #: Check index at which the transition happened (drill-friendly).
    check: int


@dataclass
class _TenantDraw:
    ledger: EnergyLedger
    throttled: bool = False
    clear_checks: int = 0


class EnergyBudgetScheduler:
    """Tracks the ledger against the policy's caps and runs brownout.

    The serving loop calls :meth:`observe` after every encode (energy
    attributed to the session's tenant) and :meth:`check` periodically;
    admission calls :meth:`admits` per HELLO and servers consult
    :meth:`serves` per frame.
    """

    def __init__(self, policy: CompiledPolicy):
        self.policy = policy
        self.ledger = EnergyLedger(policy.energy_window_s)
        self._tenant_draw: Dict[str, _TenantDraw] = {
            name: _TenantDraw(EnergyLedger(policy.energy_window_s))
            for name, rt in policy.tenants.items()
            if rt.power_budget_w is not None
        }
        #: Currently shed tenants, in shed order (a prefix of
        #: ``policy.shed_order``).
        self._shed: List[str] = []
        self._clear_checks = 0
        self._checks = 0
        self.events: List[BrownoutEvent] = []
        #: Checks where the cap was exceeded with nothing left to shed.
        self.cap_violations = 0

    # -- observation ---------------------------------------------------
    def observe(self, now: float, energy_j: float, tenant: str = "") -> None:
        """Record one encode's energy, attributed to ``tenant``."""
        self.ledger.record(now, energy_j)
        name = self.policy.resolve_name(tenant)
        draw = self._tenant_draw.get(name)
        if draw is not None:
            draw.ledger.record(now, energy_j)
        registry = get_registry()
        registry.inc(
            "repro_policy_energy_joules_total", energy_j, tenant=name,
            help="Modelled encode energy attributed per tenant",
        )

    # -- state ---------------------------------------------------------
    @property
    def shed_tenants(self) -> Tuple[str, ...]:
        return tuple(self._shed)

    def admits(self, tenant: str) -> Tuple[bool, str]:
        """May a new session of ``tenant`` be admitted right now?"""
        name = self.policy.resolve_name(tenant)
        if name in self._shed:
            return False, (
                f"brownout: tenant {name!r} is shed until windowed power "
                f"clears {self._readmit_threshold():.1f} W"
            )
        draw = self._tenant_draw.get(name)
        if draw is not None and draw.throttled:
            rt = self.policy.tenants[name]
            return False, (
                f"tenant {name!r} over its {rt.power_budget_w:g} W "
                "power budget"
            )
        return True, ""

    def serves(self, tenant: str) -> bool:
        """May an *active* session of ``tenant`` keep encoding?  Shed
        tenants' streams drop frames until readmission (the connection
        survives; delivery degrades to policy drops)."""
        return self.policy.resolve_name(tenant) not in self._shed

    def _readmit_threshold(self) -> float:
        cap = self.policy.power_cap_w or 0.0
        return cap * self.policy.brownout.readmit_fraction

    # -- the periodic check --------------------------------------------
    def check(self, now: float) -> List[BrownoutEvent]:
        """One budget check; returns the transitions it caused."""
        self._checks += 1
        events: List[BrownoutEvent] = []
        power = self.ledger.windowed_power(now)
        cap = self.policy.power_cap_w
        if cap is not None:
            if power > cap:
                self._clear_checks = 0
                nxt = next(
                    (t for t in self.policy.shed_order
                     if t not in self._shed),
                    None,
                )
                if nxt is not None:
                    self._shed.append(nxt)
                    events.append(BrownoutEvent(
                        "shed", nxt, power, self._checks,
                    ))
                else:
                    self.cap_violations += 1
                    get_registry().inc(
                        "repro_policy_cap_violations_total",
                        help="Budget checks over cap with nothing "
                             "sheddable left",
                    )
            elif self._shed and power <= self._readmit_threshold():
                self._clear_checks += 1
                if (self._clear_checks
                        >= self.policy.brownout.readmit_after_checks):
                    back = self._shed.pop()  # reverse shed order
                    self._clear_checks = 0
                    events.append(BrownoutEvent(
                        "readmit", back, power, self._checks,
                    ))
            else:
                self._clear_checks = 0
        # Per-tenant budgets (scoped throttling, same hysteresis shape).
        for name, draw in self._tenant_draw.items():
            budget = self.policy.tenants[name].power_budget_w
            tenant_power = draw.ledger.windowed_power(now)
            if not draw.throttled and tenant_power > budget:
                draw.throttled = True
                draw.clear_checks = 0
                events.append(BrownoutEvent(
                    "throttle", name, tenant_power, self._checks,
                ))
            elif draw.throttled:
                if tenant_power <= (budget
                                    * self.policy.brownout.readmit_fraction):
                    draw.clear_checks += 1
                    if (draw.clear_checks
                            >= self.policy.brownout.readmit_after_checks):
                        draw.throttled = False
                        draw.clear_checks = 0
                        events.append(BrownoutEvent(
                            "unthrottle", name, tenant_power, self._checks,
                        ))
                else:
                    draw.clear_checks = 0
        self.events.extend(events)
        self._export(now, power, events)
        return events

    def _export(self, now: float, power: float,
                events: List[BrownoutEvent]) -> None:
        registry = get_registry()
        registry.set_gauge(
            "repro_policy_energy_window_joules",
            self.ledger.windowed_energy(now),
            help="Energy observed inside the sliding policy window",
        )
        registry.set_gauge(
            "repro_policy_energy_window_watts", power,
            help="Windowed mean power vs the policy cap",
        )
        registry.set_gauge(
            "repro_policy_brownout_active",
            1 if self._shed else 0,
            help="1 while any tenant is brownout-shed",
        )
        registry.set_gauge(
            "repro_policy_tenants_shed", len(self._shed),
            help="Tenants currently shed by brownout",
        )
        tracer = get_tracer()
        for event in events:
            registry.inc(
                "repro_policy_brownout_transitions_total",
                kind=event.kind, tenant=event.tenant,
                help="Brownout shed/readmit/throttle transitions",
            )
            tracer.event(
                "policy.brownout", kind=event.kind, tenant=event.tenant,
                windowed_w=event.windowed_w,
            )
