"""Time-slot schedules.

The paper's allocator works in slots of ``1/FPS`` seconds: threads
(tiles) are packed onto cores against the slot capacity, then each core
gets a DVFS setting (Algorithm 2, lines 16-24): a core whose load fits
in the slot runs its work and spends the slack at the minimum
frequency; an overloaded core stays at f_max and carries the remaining
CPU time into the next slot.

Two DVFS policies are provided:

* ``RACE_TO_IDLE`` — the literal Algorithm 2: busy at f_max, slack
  idles at min(F).
* ``STRETCH`` — run the whole slot at the lowest frequency that still
  fits the load (a common alternative; exposed for the ablation bench).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.platform.mpsoc import MpsocConfig
from repro.platform.power import PowerModel
from repro.resilience.errors import AllocationError


@dataclass(frozen=True)
class ThreadTask:
    """One encoding thread (a tile of one user's current frame).

    ``cpu_time_fmax`` is the task's CPU demand in seconds when executed
    at f_max (the paper's ``T^i_{fmax,j}``).
    """

    thread_id: int
    user_id: int
    cpu_time_fmax: float
    tile_index: int = 0

    def __post_init__(self) -> None:
        if self.cpu_time_fmax < 0:
            raise ValueError("cpu_time_fmax must be non-negative")


class DvfsPolicy(enum.Enum):
    RACE_TO_IDLE = "race_to_idle"
    STRETCH = "stretch"
    #: Active cores hold f_max busy power for the whole slot.  Models
    #: the [19] baseline: its tiles are sized to "completely utilize a
    #: core's capacity" and its re-tiling/DVFS trigger ("once the
    #: frequency of all cores is set to the minimum or maximum value")
    #: practically never fires, so used cores never enter a low-power
    #: state (the inefficiency the paper's Fig. 4 quantifies).
    ALWAYS_ON = "always_on"


@dataclass
class CoreSlot:
    """One core's plan for one time slot."""

    core_id: int
    tasks: List[ThreadTask] = field(default_factory=list)
    carry_in_fmax: float = 0.0  # CPU time (at f_max) left over from last slot

    @property
    def load_fmax(self) -> float:
        """Total CPU demand at f_max, including carry-in."""
        return self.carry_in_fmax + sum(t.cpu_time_fmax for t in self.tasks)

    def assign(self, task: ThreadTask) -> None:
        self.tasks.append(task)


@dataclass
class CorePlan:
    """Resolved DVFS plan for one core slot."""

    core_id: int
    busy_seconds: float
    busy_frequency_hz: float
    idle_seconds: float
    carry_out_fmax: float

    @property
    def is_active(self) -> bool:
        return self.busy_seconds > 0


class SlotSchedule:
    """A complete slot: per-core task lists plus DVFS plans."""

    def __init__(
        self,
        slots: Sequence[CoreSlot],
        slot_duration: float,
        platform: MpsocConfig,
        policy: DvfsPolicy = DvfsPolicy.RACE_TO_IDLE,
    ):
        if slot_duration <= 0:
            raise ValueError("slot duration must be positive")
        self.slots = list(slots)
        self.slot_duration = slot_duration
        self.platform = platform
        self.policy = policy
        self._validate()

    def _validate(self) -> None:
        seen = set()
        for slot in self.slots:
            for task in slot.tasks:
                key = (task.user_id, task.thread_id)
                if key in seen:
                    raise ValueError(f"task {key} assigned to multiple cores")
                seen.add(key)

    # ------------------------------------------------------------------
    def has_core(self, core_id: int) -> bool:
        return any(s.core_id == core_id for s in self.slots)

    def evict_core(self, core_id: int) -> List[ThreadTask]:
        """Remove a failed core's slot and return its orphaned threads.

        Carry-in work of the failed core is lost with it (the partial
        frame cannot be resumed on another core mid-slot); the caller
        re-places the returned threads and re-checks capacity.
        """
        for i, slot in enumerate(self.slots):
            if slot.core_id == core_id:
                del self.slots[i]
                return list(slot.tasks)
        raise AllocationError(f"core {core_id} not in schedule")

    def remove_user(self, user_id: int) -> int:
        """Strip every thread of one user (shedding); returns how many
        threads were removed."""
        removed = 0
        for slot in self.slots:
            kept = [t for t in slot.tasks if t.user_id != user_id]
            removed += len(slot.tasks) - len(kept)
            slot.tasks = kept
        return removed

    # ------------------------------------------------------------------
    def plan(self, slot: CoreSlot) -> CorePlan:
        """Resolve the DVFS plan of one core for this slot."""
        f_max = self.platform.f_max
        f_min = self.platform.f_min
        load = slot.load_fmax
        duration = self.slot_duration
        if load <= 0:
            return CorePlan(slot.core_id, 0.0, f_max, duration, 0.0)

        if self.policy is DvfsPolicy.ALWAYS_ON:
            # The core burns busy power for the whole slot regardless
            # of its actual load; excess load still carries over.
            carry = max(0.0, load - duration)
            return CorePlan(slot.core_id, duration, f_max, 0.0, carry)

        if self.policy is DvfsPolicy.STRETCH:
            # Lowest frequency whose stretched runtime still fits.
            for f in self.platform.frequencies_hz:
                stretched = load * f_max / f
                if stretched <= duration:
                    return CorePlan(slot.core_id, stretched, f, duration - stretched, 0.0)
            # Does not fit even at f_max: run flat out, carry the rest.
            executed = duration * 1.0  # seconds busy at f_max
            carry = load - duration
            return CorePlan(slot.core_id, duration, f_max, 0.0, carry)

        # RACE_TO_IDLE (Algorithm 2 lines 16-24).
        if load <= duration:
            return CorePlan(slot.core_id, load, f_max, duration - load, 0.0)
        return CorePlan(slot.core_id, duration, f_max, 0.0, load - duration)

    def plans(self) -> List[CorePlan]:
        return [self.plan(s) for s in self.slots]

    # ------------------------------------------------------------------
    @property
    def active_cores(self) -> int:
        """Cores with any work this slot."""
        return sum(1 for s in self.slots if s.load_fmax > 0)

    @property
    def cores_at_fmax_whole_slot(self) -> int:
        """Cores busy for the entire slot at f_max (no slack)."""
        return sum(
            1
            for p in self.plans()
            if p.busy_frequency_hz == self.platform.f_max
            and p.busy_seconds >= self.slot_duration * (1 - 1e-9)
        )

    def total_carry_out(self) -> Dict[int, float]:
        return {p.core_id: p.carry_out_fmax for p in self.plans() if p.carry_out_fmax > 0}

    def energy(self, power_model: PowerModel, include_unused_cores: bool = True) -> float:
        """Energy (J) consumed during the slot.

        ``include_unused_cores=True`` charges idle power for platform
        cores that received no work — the whole-server view used when
        comparing approaches at equal user counts (paper Fig. 4).
        """
        total = 0.0
        for p in self.plans():
            if p.busy_seconds > 0:
                total += power_model.energy(
                    p.busy_seconds, p.busy_frequency_hz, p.idle_seconds
                )
            else:
                total += power_model.p_idle * self.slot_duration
        if include_unused_cores:
            unused = self.platform.num_cores - len(self.slots)
            if unused > 0:
                total += unused * power_model.p_idle * self.slot_duration
        return total

    def energy_by_core(self, power_model: PowerModel,
                       include_unused_cores: bool = True
                       ) -> Dict[int, float]:
        """Per-core energy (J) breakdown of :meth:`energy`.

        The values sum to exactly what :meth:`energy` returns for the
        same ``include_unused_cores`` flag; with it set, platform cores
        that received no slot appear with their idle energy.
        """
        by_core: Dict[int, float] = {}
        for p in self.plans():
            if p.busy_seconds > 0:
                by_core[p.core_id] = power_model.energy(
                    p.busy_seconds, p.busy_frequency_hz, p.idle_seconds
                )
            else:
                by_core[p.core_id] = power_model.p_idle * self.slot_duration
        if include_unused_cores:
            for core_id in range(self.platform.num_cores):
                if core_id not in by_core:
                    by_core[core_id] = power_model.p_idle * self.slot_duration
        return by_core

    def average_power(self, power_model: PowerModel,
                      include_unused_cores: bool = True) -> float:
        """Mean power (W) over the slot."""
        return self.energy(power_model, include_unused_cores) / self.slot_duration
