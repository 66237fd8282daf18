"""Admission control for network sessions.

A HELLO declares a stream's geometry, frame rate, (optionally) content
class and (optionally) a rendition ladder; without one the session is
a ladder of one rung at ingest geometry (:func:`requested_rungs`) and
takes exactly the path a three-rung HELLO takes.  The controller prices
every rung with the workload-LUT estimator — exactly the predictor the
pipeline itself uses for allocation (§III-D1) — and then asks
Algorithm 2's admission stage
(:meth:`~repro.allocation.proposed.ProposedAllocator.admit`) whether
the *whole* set of active sessions plus the candidate (one thread per
rung) still fits the ``1/FPS`` slot capacity of the platform.  Three
outcomes:

* **accept** — a prefix of the requested rungs fits (low rungs are
  dropped before the session is, the primary never); the session is
  charged its estimated core demand until
  :meth:`AdmissionController.release`.
* **park** — even the primary alone overflows capacity (or the
  tenant's entitlement) but a bounded waiting room has space; the
  server holds the connection and retries when an active session ends.
* **reject** — capacity and waiting room are both exhausted, or the
  request can never be served (unencodable rung, draining server).

Every admitted session starts at the base configuration admission
prices (:data:`BASE_QP` / :data:`BASE_WINDOW`); deadline pressure once
it runs is answered by the session's own degradation ladder
(:mod:`repro.resilience.degradation`), not by admission.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.allocation.demand import UserDemand, cores_needed
from repro.allocation.proposed import ProposedAllocator
from repro.ladder.config import RUNG_MULTIPLE
from repro.analysis.motion_probe import MotionClass
from repro.analysis.texture import TextureClass
from repro.codec.config import FrameType
from repro.observability import get_registry, get_tracer
from repro.platform.mpsoc import MpsocConfig, XEON_E5_2667
from repro.platform.schedule import ThreadTask
from repro.policy.compiler import CompiledPolicy
from repro.serving.protocol import Hello
from repro.video.generator import ContentClass
from repro.workload.estimator import WorkloadEstimator
from repro.workload.keys import WorkloadKey, area_bucket

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "BASE_QP",
    "BASE_WINDOW",
    "SessionTicket",
    "requested_rungs",
]

Rungs = Tuple[Tuple[int, int], ...]

#: The encoder configuration a new session starts at — and the one
#: :meth:`AdmissionController.estimate_ladder` prices a rung at.
BASE_QP = 32
BASE_WINDOW = 64


def requested_rungs(hello: Hello) -> Rungs:
    """The rendition ladder a HELLO asks for, largest rung first: its
    ``ladder`` key, or — the plain session — the ingest geometry as a
    ladder of one rung."""
    return hello.ladder or ((hello.width, hello.height),)


def _rung_problem(hello: Hello, rungs: Rungs) -> str:
    """Why this ladder can never be encoded from this ingest ("" when
    it can)."""
    for w, h in rungs:
        if w > hello.width or h > hello.height:
            return (f"rung {w}x{h} exceeds {hello.width}x{hello.height} "
                    "ingest: ladders never upscale")
        if w < 1 or h < 1 or w % RUNG_MULTIPLE or h % RUNG_MULTIPLE:
            return (f"rung {w}x{h} is not encodable: dimensions must be "
                    f"positive multiples of {RUNG_MULTIPLE}")
    areas = [w * h for w, h in rungs]
    if any(a <= b for a, b in zip(areas, areas[1:])):
        return "ladder rungs must be strictly decreasing in area"
    return ""


class AdmissionDecision(enum.Enum):
    ACCEPT = "accept"
    PARK = "park"
    REJECT = "reject"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs of the admission controller."""

    #: Fraction of the platform's cores sessions may occupy (< 1 keeps
    #: headroom for allocator/OS jitter).
    utilization: float = 1.0
    #: Waiting-room size for parked sessions.
    park_capacity: int = 2

    def __post_init__(self) -> None:
        if not 0 < self.utilization <= 1:
            raise ValueError("utilization must be in (0, 1]")
        if self.park_capacity < 0:
            raise ValueError("park_capacity must be >= 0")


@dataclass
class SessionTicket:
    """One admitted session's standing charge against the slot cap."""

    session_id: int
    demand: UserDemand
    cores: float
    #: Resolved policy tenant the charge bills to (``""`` = no policy).
    tenant: str = ""


class AdmissionController:
    """Prices HELLOs with the LUT and admits against Algorithm 2."""

    def __init__(
        self,
        estimator: Optional[WorkloadEstimator] = None,
        allocator: Optional[ProposedAllocator] = None,
        platform: MpsocConfig = XEON_E5_2667,
        policy: AdmissionPolicy = AdmissionPolicy(),
    ):
        self.estimator = estimator or WorkloadEstimator()
        self.platform = platform
        self.allocator = allocator or ProposedAllocator(platform=platform)
        self.policy = policy
        self._active: Dict[int, SessionTicket] = {}
        self._parked = 0
        self._draining = False
        #: Tenant policy (``None`` = pre-policy behaviour, untouched).
        self.compiled: Optional[CompiledPolicy] = None

    # -- tenant policy -------------------------------------------------
    def set_policy(self, compiled: Optional[CompiledPolicy]) -> None:
        """Wire the tenant policy (once, when the server starts);
        ``None`` restores the pre-policy controller exactly."""
        self.compiled = compiled

    def _tenant_name(self, hello: Hello) -> str:
        if self.compiled is None:
            return ""
        return self.compiled.resolve_name(hello.tenant)

    def tenant_occupancy(self, tenant: str) -> float:
        """Core charge of one tenant's active sessions."""
        return sum(t.cores for t in self._active.values()
                   if t.tenant == tenant)

    def _entitlement_cores(self, tenant: str) -> Optional[float]:
        """The tenant's hard share of the slot capacity (its normalized
        policy weight), or ``None`` without a policy."""
        if self.compiled is None or not tenant:
            return None
        rt = self.compiled.tenants[tenant]
        return rt.capacity_fraction * self.capacity_cores

    # -- pricing -------------------------------------------------------
    def estimate_ladder(
        self, hello: Hello,
        rungs: Sequence[Tuple[int, int]],
    ) -> Tuple[float, UserDemand, List[float]]:
        """Price a whole rendition ladder: the sum of per-rung estimates.

        The LUT key describes a rung's steady state: a P frame at the
        base QP/window a session starts at, with mid texture and high motion
        (the conservative prior before any tile statistics exist; once
        the LUT has observations for the stream's content class, the
        estimate sharpens automatically), the rung's area bucket, and
        the :attr:`WorkloadKey.resolution` tag the rung sessions record
        under (``None`` for the primary, so its statistics pool with
        every single-rendition session).  The demand carries one thread
        per rung, so Algorithm 2 admits or refuses the *whole* ladder,
        exactly as §III-D2 charges a session for everything it will run
        per slot.
        """
        content = None
        if hello.content_class:
            try:
                content = ContentClass(hello.content_class)
            except ValueError:
                content = None
        threads = []
        per_rung: List[float] = []
        for i, (w, h) in enumerate(rungs):
            area = max(1, w * h)
            key = WorkloadKey(
                texture=TextureClass.MEDIUM,
                motion=MotionClass.HIGH,
                qp=BASE_QP,
                search_window=BASE_WINDOW,
                frame_type=FrameType.P,
                area_bucket=area_bucket(area),
                content_class=content,
                resolution=None if i == 0 else h,
            )
            cpu = self.estimator.estimate(key, area)
            per_rung.append(cpu)
            threads.append(ThreadTask(
                thread_id=i, user_id=0, cpu_time_fmax=cpu, tile_index=i,
            ))
        demand = UserDemand(user_id=0, threads=threads)
        return cores_needed(demand, hello.fps), demand, per_rung

    # -- occupancy -----------------------------------------------------
    @property
    def capacity_cores(self) -> float:
        return self.platform.num_cores * self.policy.utilization

    @property
    def occupancy_cores(self) -> float:
        return sum(t.cores for t in self._active.values())

    @property
    def active_sessions(self) -> int:
        return len(self._active)

    # -- decisions -----------------------------------------------------
    def decide(
        self, session_id: int, hello: Hello,
    ) -> Tuple[AdmissionDecision, str, Rungs]:
        """Admission decision for one HELLO:
        ``(decision, reason, kept_rungs)``.

        The HELLO's frame rate is the session's one slot clock; a rate
        that is not finite and positive is refused.  An ACCEPT
        immediately charges the session; callers must :meth:`release`
        it when it ends.
        ``kept_rungs`` are the ``(width, height)`` pairs actually
        admitted, a prefix of :func:`requested_rungs` (empty unless
        ACCEPT).  Degradation order: before parking or shedding the
        session, the controller drops rungs from the **bottom** of the
        ladder — the primary rung is the clinical deliverable and is
        never dropped; low rungs are bandwidth conveniences.  Only
        when the primary alone still overflows does the session park
        or get rejected, against the slot cap or against the tenant's
        own entitlement.
        """
        fps = hello.fps
        rungs = requested_rungs(hello)
        refusal = ("fps must be finite and positive"
                   if not (math.isfinite(fps) and fps > 0)
                   else _rung_problem(hello, rungs))
        if not refusal and self._draining:
            refusal = "server draining; admissions stopped"
        if refusal:
            return self._decided(session_id, AdmissionDecision.REJECT,
                                 refusal)
        registry = get_registry()
        tenant = self._tenant_name(hello)
        trimmed = 0
        if self.compiled is not None:
            max_rungs = self.compiled.max_rungs_for(hello.tenant)
            if max_rungs and len(rungs) > max_rungs:
                # Ladder-rung entitlement: the policy caps how many
                # renditions this tenant may run per stream; low rungs
                # beyond the cap are trimmed before pricing.
                trimmed = len(rungs) - max_rungs
                rungs = rungs[:max_rungs]
                registry.inc(
                    "repro_serving_ladder_rungs_trimmed_total", trimmed,
                    tenant=tenant,
                    help="Ladder rungs trimmed by tenant entitlements",
                )
        entitled = self._entitlement_cores(tenant)
        occupied = self.tenant_occupancy(tenant)
        active = [t.demand for t in self._active.values()]
        capacity = max(1, int(self.capacity_cores))
        # Every rung is priced once; a shorter ladder is a prefix of
        # the same threads.
        threads = [replace(t, user_id=session_id)
                   for t in self.estimate_ladder(hello, rungs)[1].threads]
        # Rung-drop-before-shed: try the full ladder, then successively
        # shorter prefixes, before giving up on the session entirely.
        for cut in range(len(rungs), 0, -1):
            candidate = UserDemand(user_id=session_id, threads=threads[:cut])
            cores = cores_needed(candidate, fps)
            over_entitlement = (entitled is not None
                                and occupied + cores > entitled + 1e-9)
            if over_entitlement:
                continue
            admitted, _, _ = self.allocator.admit(
                active + [candidate], fps, capacity=capacity,
            )
            if len(admitted) != len(active) + 1:
                continue
            self._active[session_id] = SessionTicket(
                session_id=session_id, demand=candidate, cores=cores,
                tenant=tenant,
            )
            dropped = len(rungs) - cut
            if dropped:
                registry.inc(
                    "repro_serving_ladder_rungs_dropped_total", dropped,
                    help="Ladder rungs dropped at admission for capacity",
                )
            if tenant:
                registry.inc(
                    "repro_serving_tenant_sessions_total", tenant=tenant,
                    help="Sessions admitted per policy tenant",
                )
            return self._decided(
                session_id, AdmissionDecision.ACCEPT,
                f"{cut}/{len(rungs)} rungs at estimated {cores:.2f} cores "
                f"of {self.capacity_cores:.0f} "
                f"({self.occupancy_cores:.2f} occupied)"
                + (f"; dropped {dropped} low rung(s)" if dropped else "")
                + (f"; trimmed {trimmed} rung(s) by tenant entitlement"
                   if trimmed else ""),
                rungs[:cut], cores, dropped,
            )
        # Even the primary alone does not fit (``cores`` is its price):
        # wait for room, or be turned away when the waiting room is full.
        if over_entitlement:
            registry.inc(
                "repro_serving_tenant_entitlement_total", tenant=tenant,
                help="Admissions deferred by a tenant's entitlement cap",
            )
            detail = (
                f"tenant {tenant!r} entitlement exceeded: need "
                f"{cores:.2f} cores, {occupied:.2f}/{entitled:.2f} "
                "entitled cores occupied"
            )
        else:
            detail = (
                f"slot cap exceeded even for the primary rung: need "
                f"{cores:.2f} cores, {self.occupancy_cores:.2f}/"
                f"{self.capacity_cores:.0f} occupied"
            )
        if self._parked < self.policy.park_capacity:
            self._parked += 1
            return self._decided(session_id, AdmissionDecision.PARK,
                                 detail + "; parked", cores=cores)
        return self._decided(session_id, AdmissionDecision.REJECT,
                             detail + "; waiting room full", cores=cores)

    def _decided(self, session_id: int, decision: AdmissionDecision,
                 reason: str, kept: Rungs = (), cores: float = 0.0,
                 dropped: int = 0) -> Tuple[AdmissionDecision, str, Rungs]:
        """The one way out of :meth:`decide`: count, gauge, trace."""
        registry = get_registry()
        registry.inc(
            "repro_serving_admission_total", decision=decision.value,
            help="Admission decisions by outcome",
        )
        registry.set_gauge(
            "repro_serving_occupancy_cores", self.occupancy_cores,
            help="Estimated core demand of active sessions",
        )
        get_tracer().event(
            "admission.decide", session=session_id,
            decision=decision.value, rungs=len(kept), dropped=dropped,
            cores=cores, occupancy=self.occupancy_cores,
        )
        return decision, reason, kept

    def unpark(
        self, session_id: int, hello: Hello,
    ) -> Tuple[AdmissionDecision, str, Rungs]:
        """Retry admission for a parked session (frees its park slot;
        a PARK outcome re-takes it)."""
        self._parked = max(0, self._parked - 1)
        return self.decide(session_id, hello)

    def abandon_park(self) -> None:
        """A parked session gave up (timeout or disconnect)."""
        self._parked = max(0, self._parked - 1)

    # -- drain / recovery ----------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting: every subsequent HELLO (and RESUME) is
        rejected while active sessions run to completion or park."""
        self._draining = True

    def release(self, session_id: int) -> None:
        """An admitted session ended: free its capacity."""
        ticket = self._active.pop(session_id, None)
        if ticket is None:
            return
        get_registry().set_gauge(
            "repro_serving_occupancy_cores", self.occupancy_cores,
            help="Estimated core demand of active sessions",
        )
        get_tracer().event(
            "admission.release", session=session_id,
            occupancy=self.occupancy_cores,
        )
