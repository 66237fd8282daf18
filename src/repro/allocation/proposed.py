"""The paper's thread allocation and DVFS heuristic (Algorithm 2).

Stages:

1. **Demand estimation** (line 1): each user needs
   ``N_core^i = ceil(sum_j T_fmax,j * FPS)`` cores.
2. **Admission** (line 2): admit the maximum number of users by sorting
   demands ascending and taking users while the running core sum fits
   the platform.
3. **Thread allocation** (lines 3-15): threads of the admitted users
   are placed one at a time; a dynamic *cap* equals the current maximum
   core load clamped to the slot duration, and each thread goes to the
   core minimising ``|cap - (load_k + T_j)|`` — i.e. the core whose
   utilisation the thread brings closest to the cap, packing cores
   tightly instead of spreading slack everywhere.
4. **DVFS** (lines 16-24): handled by
   :class:`~repro.platform.schedule.SlotSchedule`.  The default
   ``STRETCH`` policy runs each core at the lowest frequency whose
   stretched runtime still fits the slot — realizing the paper's
   "set the operating frequency of each one" and Fig. 3's outcome
   where only a subset of cores operates at the maximum frequency.
   ``RACE_TO_IDLE`` (the literal reading of lines 17-19: f_max busy,
   min(F) during slack) is available for the ablation benchmark.
   Overloaded cores stay at f_max and carry the excess into the next
   slot (compensated by under-utilisation of following frames, checked
   against the per-second framerate budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.allocation.demand import UserDemand, cores_needed
from repro.observability import get_registry, get_tracer
from repro.platform.mpsoc import MpsocConfig, XEON_E5_2667
from repro.platform.schedule import CoreSlot, DvfsPolicy, SlotSchedule, ThreadTask
from repro.resilience.errors import AllocationError


def _record_schedule_metrics(schedule: SlotSchedule, kind: str) -> None:
    """Counters for one resolved schedule: per-frequency DVFS picks
    plus the paper's cores-at-f_max headcount."""
    registry = get_registry()
    for plan in schedule.plans():
        if not plan.is_active:
            continue
        registry.inc(
            "repro_dvfs_core_level_total",
            freq_mhz=int(round(plan.busy_frequency_hz / 1e6)),
            help="Active cores per chosen DVFS frequency",
        )
        if plan.carry_out_fmax > 0:
            registry.inc(
                "repro_allocator_slot_overruns_total", kind=kind,
                help="Core slots whose load did not fit the 1/FPS slot",
            )


@dataclass
class AllocationResult:
    """Outcome of one allocation pass."""

    admitted: List[UserDemand]
    rejected: List[UserDemand]
    schedule: SlotSchedule
    #: Users evicted by a re-allocation after a core failure (empty on
    #: a plain allocation pass).
    shed: List[UserDemand] = field(default_factory=list)

    @property
    def num_users_served(self) -> int:
        return len(self.admitted)


class ProposedAllocator:
    """Implements Algorithm 2 over one ``1/FPS`` slot."""

    def __init__(
        self,
        platform: MpsocConfig = XEON_E5_2667,
        dvfs_policy: DvfsPolicy = DvfsPolicy.STRETCH,
        energy_aware_pool: bool = True,
    ):
        """``energy_aware_pool`` sizes the packing pool for the lowest
        feasible frequency when spare cores exist: the admitted load is
        spread over ``load * f_max / f_min`` cores so every core can run
        at min(F), paying ``V_min^2 f_min`` instead of ``V_max^2 f_max``
        per operation.  Under saturation the pool is capacity-bound and
        the behaviour reduces to plain Algorithm 2 packing."""
        self.platform = platform
        self.dvfs_policy = dvfs_policy
        self.energy_aware_pool = energy_aware_pool

    # -- stage 2 -------------------------------------------------------
    def admit(self, demands: Sequence[UserDemand], fps: float,
              capacity: Optional[int] = None) -> tuple:
        """Maximise served users (line 2): ascending core demand.

        ``capacity`` caps the usable core count below the platform's
        total (cores lost to failures); ``None`` uses the full platform.
        """
        if capacity is None:
            capacity = self.platform.num_cores
        ranked = sorted(demands, key=lambda d: (cores_needed(d, fps), d.user_id))
        admitted: List[UserDemand] = []
        used = 0
        for demand in ranked:
            need = cores_needed(demand, fps)
            if need == 0:
                continue
            if used + need > capacity:
                break
            admitted.append(demand)
            used += need
        admitted_ids = {d.user_id for d in admitted}
        rejected = [d for d in demands if d.user_id not in admitted_ids]
        return admitted, rejected, used

    # -- stages 3-4 ----------------------------------------------------
    def allocate(
        self,
        demands: Sequence[UserDemand],
        fps: float,
        carry_in: Optional[dict] = None,
        failed_cores: Optional[Set[int]] = None,
    ) -> AllocationResult:
        """Run admission, packing and DVFS for one slot.

        ``carry_in`` maps core_id -> CPU time (at f_max) carried over
        from the previous slot (Algorithm 2, line 22).  ``failed_cores``
        removes dead cores from the packing pool: admission is bounded
        by the surviving capacity and no thread lands on a failed id.
        """
        if not 0.0 < fps < math.inf:
            raise AllocationError("fps must be finite and positive")
        slot_duration = 1.0 / fps
        tracer = get_tracer()
        with tracer.span("allocator.allocate", requested=len(demands)):
            available = [
                k for k in range(self.platform.num_cores)
                if not failed_cores or k not in failed_cores
            ]
            if not available:
                raise AllocationError("no usable cores: all marked failed")
            admitted, rejected, reserved = self.admit(
                demands, fps, capacity=len(available)
            )

            pool = reserved
            if self.energy_aware_pool and self.dvfs_policy is DvfsPolicy.STRETCH:
                pool = reserved * self.platform.f_max / self.platform.f_min
            num_slots = max(1, min(len(available), math.ceil(pool)))
            slots = [
                CoreSlot(
                    core_id=k,
                    carry_in_fmax=(carry_in or {}).get(k, 0.0),
                )
                for k in available[:num_slots]
            ]

            # Pool of all admitted users' threads, largest first: placing
            # long threads early gives the distance heuristic room to
            # balance with the short ones.
            pool: List[ThreadTask] = sorted(
                (t for d in admitted for t in d.threads),
                key=lambda t: -t.cpu_time_fmax,
            )
            for task in pool:
                self._place(task, slots, slot_duration)

            schedule = SlotSchedule(
                slots, slot_duration, self.platform, policy=self.dvfs_policy
            )
            tracer.event(
                "allocator.decision",
                admitted=sorted(d.user_id for d in admitted),
                rejected=sorted(d.user_id for d in rejected),
                cores=len(slots),
                threads=len(pool),
            )
            registry = get_registry()
            registry.inc("repro_allocator_runs_total", kind="allocate",
                         help="Allocator invocations by kind")
            registry.inc("repro_allocator_users_admitted_total", len(admitted),
                         help="Users admitted across allocation passes")
            registry.inc("repro_allocator_users_rejected_total", len(rejected),
                         help="Users rejected across allocation passes")
            registry.inc("repro_allocator_threads_placed_total", len(pool),
                         help="Threads packed onto core slots")
            _record_schedule_metrics(schedule, "allocate")
            return AllocationResult(
                admitted=admitted, rejected=rejected, schedule=schedule
            )

    def _place(self, task: ThreadTask, slots: List[CoreSlot], slot_duration: float) -> None:
        """Lines 4-14: distance-to-cap placement of one thread."""
        max_load = max(s.load_fmax for s in slots)
        cap = min(max_load, slot_duration) if max_load > slot_duration else max_load
        best_slot = min(
            slots,
            key=lambda s: (abs(cap - (s.load_fmax + task.cpu_time_fmax)), s.core_id),
        )
        best_slot.assign(task)

    # -- core-failure recovery -----------------------------------------
    def reallocate(
        self,
        result: AllocationResult,
        failed_core_ids: Sequence[int],
        fps: float,
    ) -> AllocationResult:
        """Recover an existing allocation after cores fail.

        Evicts each failed :class:`CoreSlot`, sheds the lowest-priority
        admitted users (highest ``user_id`` — admission order defines
        priority) until the surviving capacity fits the remaining
        demand, then re-places the orphaned threads with the same
        min-distance-to-cap heuristic used for the initial packing.
        The input schedule is mutated in place and returned in a new
        :class:`AllocationResult` whose ``shed`` lists the evicted
        users.
        """
        if not 0.0 < fps < math.inf:
            raise AllocationError("fps must be finite and positive")
        slot_duration = 1.0 / fps
        schedule = result.schedule
        orphans: List[ThreadTask] = []
        for core_id in sorted(set(failed_core_ids)):
            if schedule.has_core(core_id):
                orphans.extend(schedule.evict_core(core_id))

        admitted = sorted(result.admitted, key=lambda d: d.user_id)
        shed: List[UserDemand] = []
        survivors = schedule.slots
        if not survivors:
            # Every packed core died: the whole admitted set is shed.
            shed, admitted = admitted, []
            orphans = []
        else:
            capacity = len(survivors)
            while admitted and sum(
                cores_needed(d, fps) for d in admitted
            ) > capacity:
                victim = admitted.pop()  # highest user_id = lowest priority
                shed.append(victim)
                schedule.remove_user(victim.user_id)
                orphans = [t for t in orphans if t.user_id != victim.user_id]
            for task in sorted(orphans, key=lambda t: -t.cpu_time_fmax):
                self._place(task, survivors, slot_duration)
        registry = get_registry()
        registry.inc("repro_allocator_runs_total", kind="reallocate",
                     help="Allocator invocations by kind")
        registry.inc("repro_allocator_users_shed_total", len(shed),
                     help="Users shed by core-failure recovery")
        _record_schedule_metrics(schedule, "reallocate")
        get_tracer().event(
            "allocator.reallocate",
            failed=sorted(set(failed_core_ids)),
            shed=sorted(d.user_id for d in shed),
            survivors=len(schedule.slots),
        )
        return AllocationResult(
            admitted=admitted,
            rejected=list(result.rejected),
            schedule=schedule,
            shed=shed,
        )
