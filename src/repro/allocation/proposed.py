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
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.allocation.demand import UserDemand, cores_needed
from repro.observability import get_registry, get_tracer
from repro.platform.mpsoc import MpsocConfig, XEON_E5_2667
from repro.platform.schedule import CoreSlot, DvfsPolicy, SlotSchedule, ThreadTask
from repro.resilience.errors import AllocationError


@dataclass
class AllocationResult:
    """Outcome of one allocation pass."""

    admitted: List[UserDemand]
    rejected: List[UserDemand]
    schedule: SlotSchedule

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
        total; ``None`` uses the full platform.
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
    ) -> AllocationResult:
        """Run admission, packing and DVFS for one slot.

        ``carry_in`` maps core_id -> CPU time (at f_max) carried over
        from the previous slot (Algorithm 2, line 22).
        """
        if not 0.0 < fps < math.inf:
            raise AllocationError("fps must be finite and positive")
        slot_duration = 1.0 / fps
        tracer = get_tracer()
        with tracer.span("allocator.allocate", requested=len(demands)):
            admitted, rejected, reserved = self.admit(demands, fps)

            pool = reserved
            if self.energy_aware_pool and self.dvfs_policy is DvfsPolicy.STRETCH:
                pool = reserved * self.platform.f_max / self.platform.f_min
            num_slots = max(1, min(self.platform.num_cores, math.ceil(pool)))
            slots = [
                CoreSlot(
                    core_id=k,
                    carry_in_fmax=(carry_in or {}).get(k, 0.0),
                )
                for k in range(num_slots)
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
            # Per-frequency DVFS picks of the resolved schedule.
            for plan in schedule.plans():
                if plan.is_active:
                    registry.inc(
                        "repro_dvfs_core_level_total",
                        freq_mhz=int(round(plan.busy_frequency_hz / 1e6)),
                        help="Active cores per chosen DVFS frequency",
                    )
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
