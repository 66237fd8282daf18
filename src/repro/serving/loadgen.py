"""Load generator: many concurrent clients against the network server.

Sessions arrive by a configurable process (Poisson inter-arrivals or
synchronized bursts), draw a content class from a weighted mix, stream
a synthetic bio-medical video over the wire protocol and collect a
client-side report: admission outcomes, end-to-end frame latency
percentiles and the server-reported deadline-miss counts.  Everything
stochastic — arrivals, content mix, video synthesis, retry jitter —
derives from one seed, so a run is reproducible end to end.

With ``max_reconnects > 0`` each client is fault tolerant: a lost
connection (or a drain-parked session) is retried with exponential
backoff plus seeded jitter, and when the server handed out a resume
token the client reattaches with RESUME and continues from the
server's ``next_frame_index`` — duplicate outcomes from the replay are
deduplicated by frame index, so the report counts each frame once.
The report distinguishes *connection refusals* (the server was not
accepting — it never saw the session) from *mid-stream disconnects*
(an established session lost its transport), and counts reconnect
attempts per session.
"""

from __future__ import annotations

import asyncio
import functools
import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serving.protocol import (
    DEFAULT_DECODER_MAX_PAYLOAD,
    MAX_PAYLOAD,
    Bye,
    Encoded,
    ErrorMsg,
    Hello,
    HelloAck,
    ProtocolError,
    Resume,
    ResumeAck,
    Stats,
    encode_frame_into,
    read_message,
    write_message,
)
from repro.video.generator import ContentClass, generate_video

__all__ = ["LoadGenConfig", "LoadReport", "SessionReport", "run_loadgen"]

#: Default content-class mix (uniform over three common modalities).
DEFAULT_MIX: Tuple[Tuple[ContentClass, float], ...] = (
    (ContentClass.BRAIN, 1.0),
    (ContentClass.BONE, 1.0),
    (ContentClass.LUNG, 1.0),
)


@dataclass(frozen=True)
class LoadGenConfig:
    """Configuration of one load-generator run."""

    host: str = "127.0.0.1"
    port: int = 0
    sessions: int = 3
    #: Frames each session streams (default: two GOPs at gop=8).
    frames: int = 16
    width: int = 96
    height: int = 96
    fps: float = 24.0
    gop: int = 8
    #: Arrival process: ``"poisson"`` (exponential inter-arrivals at
    #: ``rate_hz``) or ``"burst"`` (groups of ``burst_size`` arriving
    #: together, groups separated by ``1/rate_hz``).
    arrival: str = "poisson"
    #: Mean session arrival rate (sessions/second).
    rate_hz: float = 20.0
    burst_size: int = 4
    #: Inter-frame pacing within a session; 0 streams as fast as the
    #: socket accepts (exercises ingest backpressure).
    frame_interval_s: float = 0.0
    #: Weighted content-class mix sessions draw from.
    mix: Tuple[Tuple[ContentClass, float], ...] = DEFAULT_MIX
    seed: int = 0
    #: Per-session wall-clock budget before the client gives up.
    timeout_s: float = 120.0
    #: Reconnect budget per session (0 = give up on the first loss;
    #: classification counters are still recorded).
    max_reconnects: int = 0
    #: Exponential backoff between reconnects: first wait, cap, and
    #: the fraction of each wait randomized as jitter (seeded).
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    backoff_jitter: float = 0.5
    #: Rendition ladder to request in the HELLO (``(width, height)``
    #: pairs, largest first; empty = ordinary single-rendition
    #: sessions).  Ladder clients collect per-rung outcomes keyed by
    #: ``(rung, frame_index)``.
    ladder: Tuple[Tuple[int, int], ...] = ()
    #: Weighted tenant mix sessions draw their HELLO ``tenant`` from
    #: (empty = no tenant key on the wire, pre-policy behaviour).
    tenants: Tuple[Tuple[str, float], ...] = ()
    #: Load shape: ``""`` (plain arrival process), ``"surge"`` (half
    #: the sessions arrive by the base process, the rest land together
    #: mid-run as a mixed-tenant surge drawn from ``surge_tenants``),
    #: or ``"diurnal"`` (hospital shifts: the arrival rate alternates
    #: between day ``rate_hz`` and night ``rate_hz * night_fraction``
    #: every ``shift_s`` seconds).
    scenario: str = ""
    #: Tenant mix of the surge cohort (defaults to ``tenants``) — skew
    #: it toward one tenant to press on that tenant's entitlement.
    surge_tenants: Tuple[Tuple[str, float], ...] = ()
    shift_s: float = 2.0
    night_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.arrival not in ("poisson", "burst"):
            raise ValueError("arrival must be 'poisson' or 'burst'")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if not self.mix:
            raise ValueError("content mix must be non-empty")
        if self.max_reconnects < 0:
            raise ValueError("max_reconnects must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        for w, h in self.ladder:
            if w < 1 or h < 1:
                raise ValueError("ladder rungs must be positive")
        if self.scenario not in ("", "surge", "diurnal"):
            raise ValueError("scenario must be '', 'surge' or 'diurnal'")
        for name, weight in (*self.tenants, *self.surge_tenants):
            if not name:
                raise ValueError("tenant names must be non-empty")
            if weight <= 0:
                raise ValueError("tenant weights must be positive")
        if self.shift_s <= 0:
            raise ValueError("shift_s must be positive")
        if not 0.0 < self.night_fraction <= 1.0:
            raise ValueError("night_fraction must be in (0, 1]")


@dataclass
class SessionReport:
    """Client-side outcome of one session."""

    session: int
    content_class: str
    #: Tenant this session billed to ("" = no tenant key on the wire).
    tenant: str = ""
    decision: str = "error"
    reason: str = ""
    parked: bool = False
    frames_sent: int = 0
    frames_encoded: int = 0
    frames_dropped: int = 0
    latencies_s: List[float] = field(default_factory=list)
    server_stats: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    #: Connection attempts refused before a transport was established
    #: (the server was down or not accepting).
    connect_refusals: int = 0
    #: Refusals while already holding a resume token: the *worker*
    #: serving this session is down (a fleet restart window), not an
    #: admission verdict — fleet drills assert these retry cleanly and
    #: that ``connect_refusals`` proper stays zero.
    retryable_restarts: int = 0
    #: RESUMEs transiently rejected because the session's lease was
    #: held by a worker whose fate the fleet had not yet resolved
    #: (retried after the server's ``retry_after_s`` hint).
    lease_retries: int = 0
    #: Established connections lost before the session completed.
    mid_stream_disconnects: int = 0
    #: Reconnects actually attempted after a refusal or disconnect.
    reconnect_attempts: int = 0
    #: Successful RESUME handshakes.
    resumes: int = 0
    #: Outcomes replayed from the server's journal across all resumes.
    replayed: int = 0
    resume_token: str = ""
    #: Replayed outcomes whose reconstructed plane differed from what
    #: this client already received for the same frame index — any
    #: non-zero value is a bit-identity violation.
    divergent_replays: int = 0
    #: CRC-32 digest of the session's decoded output, folded over frame
    #: indices in order: equal digests == bit-identical delivery.
    output_digest: Optional[int] = None
    #: Rungs the HELLO_ACK granted a ladder session, as
    #: ``(rung_id, width, height)`` (empty for ordinary sessions).
    rungs: Tuple[Tuple[int, int, int], ...] = ()


def _percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (no numpy needed for the report)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class LoadReport:
    """Aggregate outcome of a load-generator run."""

    sessions: List[SessionReport] = field(default_factory=list)
    protocol_errors: int = 0
    wall_clock_s: float = 0.0

    @property
    def accepted(self) -> int:
        return sum(1 for s in self.sessions if s.decision == "accept")

    @property
    def rejected(self) -> int:
        return sum(1 for s in self.sessions if s.decision == "reject")

    @property
    def errored(self) -> int:
        return sum(1 for s in self.sessions if s.error is not None)

    @property
    def parked(self) -> int:
        return sum(1 for s in self.sessions if s.parked)

    @property
    def latencies_s(self) -> List[float]:
        return [x for s in self.sessions for x in s.latencies_s]

    @property
    def deadline_misses(self) -> int:
        return sum(
            int(s.server_stats.get("deadline_misses", 0))
            for s in self.sessions if s.server_stats
        )

    @property
    def frames_encoded(self) -> int:
        return sum(s.frames_encoded for s in self.sessions)

    @property
    def connect_refusals(self) -> int:
        return sum(s.connect_refusals for s in self.sessions)

    @property
    def retryable_restarts(self) -> int:
        return sum(s.retryable_restarts for s in self.sessions)

    @property
    def lease_retries(self) -> int:
        return sum(s.lease_retries for s in self.sessions)

    @property
    def divergent_replays(self) -> int:
        return sum(s.divergent_replays for s in self.sessions)

    @property
    def mid_stream_disconnects(self) -> int:
        return sum(s.mid_stream_disconnects for s in self.sessions)

    @property
    def reconnect_attempts(self) -> int:
        return sum(s.reconnect_attempts for s in self.sessions)

    @property
    def resumes(self) -> int:
        return sum(s.resumes for s in self.sessions)

    def by_tenant(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant rollup (empty when no session carried a tenant)."""
        rollup: Dict[str, Dict[str, int]] = {}
        for s in self.sessions:
            if not s.tenant:
                continue
            row = rollup.setdefault(s.tenant, {
                "sessions": 0, "accepted": 0, "rejected": 0, "parked": 0,
                "frames_encoded": 0, "frames_dropped": 0,
            })
            row["sessions"] += 1
            if s.decision == "accept":
                row["accepted"] += 1
            elif s.decision == "reject":
                row["rejected"] += 1
            if s.parked:
                row["parked"] += 1
            row["frames_encoded"] += s.frames_encoded
            row["frames_dropped"] += s.frames_dropped
        return rollup

    def to_dict(self) -> Dict[str, object]:
        lat = self.latencies_s
        encoded = self.frames_encoded
        return {
            "sessions": len(self.sessions),
            "accepted": self.accepted,
            "rejected": self.rejected,
            "parked": self.parked,
            "errors": self.errored,
            "protocol_errors": self.protocol_errors,
            "frames_sent": sum(s.frames_sent for s in self.sessions),
            "frames_encoded": encoded,
            "frames_dropped": sum(s.frames_dropped for s in self.sessions),
            "latency_p50_s": _percentile(lat, 0.50),
            "latency_p95_s": _percentile(lat, 0.95),
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": (
                self.deadline_misses / encoded if encoded else None
            ),
            "connect_refusals": self.connect_refusals,
            "retryable_restarts": self.retryable_restarts,
            "lease_retries": self.lease_retries,
            "mid_stream_disconnects": self.mid_stream_disconnects,
            "reconnect_attempts": self.reconnect_attempts,
            "resumes": self.resumes,
            "divergent_replays": self.divergent_replays,
            "wall_clock_s": self.wall_clock_s,
            "by_tenant": self.by_tenant(),
        }

    def summary(self) -> str:
        d = self.to_dict()
        p50 = d["latency_p50_s"]
        p95 = d["latency_p95_s"]
        miss = d["deadline_miss_rate"]
        lines = [
            "loadgen report",
            f"  sessions     : {d['sessions']} "
            f"(accepted {d['accepted']}, rejected {d['rejected']}, "
            f"parked {d['parked']}, errors {d['errors']})",
            f"  frames       : sent {d['frames_sent']}, "
            f"encoded {d['frames_encoded']}, dropped {d['frames_dropped']}",
            f"  latency      : p50 "
            f"{f'{p50 * 1e3:.1f} ms' if p50 is not None else 'n/a'}, p95 "
            f"{f'{p95 * 1e3:.1f} ms' if p95 is not None else 'n/a'}",
            f"  deadline miss: {d['deadline_misses']} "
            f"({f'{miss:.1%}' if miss is not None else 'n/a'})",
            f"  connectivity : refused {d['connect_refusals']}, "
            f"restart-retries {d['retryable_restarts']}, "
            f"lease-retries {d['lease_retries']}, "
            f"mid-stream lost {d['mid_stream_disconnects']}, "
            f"reconnects {d['reconnect_attempts']}, "
            f"resumes {d['resumes']}",
            f"  protocol errs: {d['protocol_errors']}",
            f"  wall clock   : {d['wall_clock_s']:.2f} s",
        ]
        for name, row in sorted(d["by_tenant"].items()):
            lines.append(
                f"  tenant {name:>6s}: {row['sessions']} sessions "
                f"(accepted {row['accepted']}, rejected {row['rejected']}, "
                f"parked {row['parked']}), encoded "
                f"{row['frames_encoded']}, dropped "
                f"{row['frames_dropped']}"
            )
        return "\n".join(lines)


def _arrival_delays(config: LoadGenConfig, rng: random.Random) -> List[float]:
    """Absolute start offset of each session, per the arrival process."""
    delays: List[float] = []
    t = 0.0
    if config.arrival == "poisson":
        for _ in range(config.sessions):
            delays.append(t)
            t += rng.expovariate(config.rate_hz)
    else:  # burst
        for i in range(config.sessions):
            if i > 0 and i % config.burst_size == 0:
                t += 1.0 / config.rate_hz
            delays.append(t)
    return delays


def _pick_tenants(config: LoadGenConfig, rng: random.Random,
                  surge_from: int) -> List[str]:
    """Tenant of each session (empty strings when no mix is set).

    Sessions at index >= ``surge_from`` are the surge cohort and draw
    from ``surge_tenants`` when provided.
    """
    if not config.tenants:
        return [""] * config.sessions
    names = [n for n, _ in config.tenants]
    weights = [w for _, w in config.tenants]
    surge_mix = config.surge_tenants or config.tenants
    picks: List[str] = []
    for i in range(config.sessions):
        if i >= surge_from:
            picks.append(rng.choices(
                [n for n, _ in surge_mix], [w for _, w in surge_mix],
            )[0])
        else:
            picks.append(rng.choices(names, weights)[0])
    return picks


def _scenario_plan(
    config: LoadGenConfig, rng: random.Random,
) -> Tuple[List[float], List[str]]:
    """Arrival offsets + tenant picks, shaped by ``scenario``.

    * ``"surge"``: the first half of the sessions arrive by the base
      process; the rest land *together* halfway through that ramp — a
      mixed-tenant spike that presses on admission and the tenants'
      entitlements.
    * ``"diurnal"``: exponential inter-arrivals whose rate alternates
      between day (``rate_hz``) and night (``rate_hz *
      night_fraction``) every ``shift_s`` seconds — the hospital-shift
      load the paper's traces motivate.
    """
    if config.scenario == "surge":
        calm = max(1, config.sessions - config.sessions // 2)
        delays: List[float] = []
        t = 0.0
        for _ in range(calm):
            delays.append(t)
            t += rng.expovariate(config.rate_hz)
        surge_at = (delays[-1] if delays else 0.0) * 0.5
        delays.extend(surge_at for _ in range(config.sessions - calm))
        return delays, _pick_tenants(config, rng, surge_from=calm)
    if config.scenario == "diurnal":
        delays = []
        t = 0.0
        for _ in range(config.sessions):
            delays.append(t)
            day = int(t / config.shift_s) % 2 == 0
            rate = config.rate_hz * (1.0 if day else config.night_fraction)
            t += rng.expovariate(rate)
        return delays, _pick_tenants(config, rng,
                                     surge_from=config.sessions)
    return (
        _arrival_delays(config, rng),
        _pick_tenants(config, rng, surge_from=config.sessions),
    )


class _SessionState:
    """Client-side progress that survives reconnects."""

    def __init__(self) -> None:
        #: frame index -> drop reason (``None`` = encoded), deduplicated
        #: across resume replays.
        self.outcomes: Dict[int, Optional[str]] = {}
        #: frame index -> CRC-32 of the delivered reconstruction: the
        #: bit-identity evidence (a replay disagreeing with what this
        #: client already holds is a divergence, counted not merged).
        self.luma_crc: Dict[int, int] = {}
        self.send_times: Dict[int, float] = {}
        self.next_send = 0
        self.complete = False

    def digest(self) -> int:
        """CRC-32 folded over outcomes in frame order."""
        crc = 0
        for index in sorted(self.outcomes):
            reason = self.outcomes[index] or ""
            crc = zlib.crc32(
                f"{index}:{reason}:{self.luma_crc.get(index, 0)}".encode(),
                crc,
            )
        return crc

    @property
    def have_below(self) -> int:
        """Contiguous-delivery watermark: every index below it has an
        outcome."""
        have = 0
        while have in self.outcomes:
            have += 1
        return have


def _sync_counts(report: SessionReport, state: _SessionState) -> None:
    report.frames_encoded = sum(
        1 for v in state.outcomes.values() if v is None
    )
    report.frames_dropped = sum(
        1 for v in state.outcomes.values() if v is not None
    )
    report.output_digest = state.digest()


class _TransientResumeReject(ConnectionError):
    """A RESUME was rejected with a ``retry_after_s`` hint: the lease
    owner's fate is unresolved (or the fleet is mid-restart) — retry
    the same token, don't give up."""

    def __init__(self, retry_after_s: float, reason: str):
        super().__init__(f"resume deferred: {reason}")
        self.retry_after_s = retry_after_s


async def _session_attempt(config: LoadGenConfig, index: int,
                           content: ContentClass, video,
                           report: SessionReport,
                           state: _SessionState) -> None:
    """One connection's worth of a session: handshake (HELLO or
    RESUME), stream the remaining frames, collect outcomes until BYE.

    Sets ``state.complete`` when the server closed the session cleanly;
    a drain-parked BYE leaves it unset so the caller reconnects.
    """
    reader, writer = await asyncio.open_connection(config.host, config.port)
    # Reader allocation bound: ENCODED carries one reconstructed plane
    # of the session's geometry; never loosen beyond the wire ceiling.
    recv_max = min(MAX_PAYLOAD, max(DEFAULT_DECODER_MAX_PAYLOAD,
                                    config.width * config.height + 1024))
    try:
        if report.resume_token:
            await write_message(writer, Resume(
                resume_token=report.resume_token,
                have_below=state.have_below,
                client_id=f"loadgen-{index}",
            ))
            ack = await read_message(reader, max_payload=recv_max)
            if not isinstance(ack, ResumeAck):
                raise ProtocolError(
                    f"expected RESUME_ACK, got {ack.type.name}"
                )
            if ack.decision != "accept":
                if ack.retry_after_s > 0:
                    raise _TransientResumeReject(
                        ack.retry_after_s, ack.reason
                    )
                raise ProtocolError(f"resume rejected: {ack.reason}")
            report.resumes += 1
            report.replayed += ack.replayed
            report.resume_token = ack.resume_token or report.resume_token
            state.next_send = ack.next_frame_index
        else:
            await write_message(writer, Hello(
                width=config.width, height=config.height, fps=config.fps,
                num_frames=config.frames, gop=config.gop,
                content_class=content.value, client_id=f"loadgen-{index}",
                ladder=config.ladder or None,
                tenant=report.tenant,
            ))
            ack = await read_message(reader, max_payload=recv_max)
            while isinstance(ack, HelloAck) and ack.decision == "park":
                report.parked = True
                ack = await read_message(reader, max_payload=recv_max)
            if not isinstance(ack, HelloAck):
                raise ProtocolError(
                    f"expected HELLO_ACK, got {ack.type.name}"
                )
            report.decision = ack.decision
            report.reason = ack.reason
            report.resume_token = ack.resume_token
            report.rungs = ack.rungs
            if ack.decision != "accept":
                state.complete = True
                return

        bye_reason: List[str] = []

        async def sender() -> None:
            # Zero-copy send: each luma plane is serialized once into
            # a reusable arena (no tobytes(), no payload concat); the
            # transport either sends synchronously or copies what it
            # could not, so the arena is reusable after write().
            arena = bytearray()
            for frame in video.frames[state.next_send:]:
                state.send_times[frame.index] = time.perf_counter()
                del arena[:]
                encode_frame_into(
                    arena, frame.index, config.width, config.height,
                    frame.luma,
                )
                writer.write(arena)
                await writer.drain()
                report.frames_sent += 1
                if config.frame_interval_s > 0:
                    await asyncio.sleep(config.frame_interval_s)
            await write_message(writer, Bye("done"))

        async def receiver() -> None:
            while True:
                msg = await read_message(reader, max_payload=recv_max)
                if isinstance(msg, Encoded):
                    # Ladder sessions interleave rungs on one wire;
                    # outcomes are deduplicated per (rung, frame).
                    key = ((msg.rung, msg.frame_index) if config.ladder
                           else msg.frame_index)
                    first = key not in state.outcomes
                    if first:
                        state.outcomes[key] = msg.dropped
                        if msg.dropped is None:
                            state.luma_crc[key] = zlib.crc32(
                                msg.luma
                            )
                            sent = (state.send_times.get(msg.frame_index)
                                    if msg.rung == 0 else None)
                            if sent is not None:
                                report.latencies_s.append(
                                    time.perf_counter() - sent
                                )
                    elif (msg.dropped is None
                          and key in state.luma_crc
                          and zlib.crc32(msg.luma)
                          != state.luma_crc[key]):
                        # A resume replayed this frame with different
                        # bytes than the original delivery: the exact
                        # divergence the journal exists to prevent.
                        report.divergent_replays += 1
                elif isinstance(msg, Stats):
                    report.server_stats = msg.data
                elif isinstance(msg, Bye):
                    bye_reason.append(msg.reason)
                    return
                elif isinstance(msg, ErrorMsg):
                    raise ProtocolError(
                        f"server error [{msg.code}]: {msg.detail}"
                    )
                else:
                    raise ProtocolError(
                        f"unexpected {msg.type.name} from server"
                    )

        await asyncio.wait_for(
            asyncio.gather(sender(), receiver()), timeout=config.timeout_s
        )
        # A draining server says goodbye without completing the
        # session; everything else is a clean finish.
        if not (bye_reason and bye_reason[0].startswith("server draining")):
            state.complete = True
    finally:
        _sync_counts(report, state)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@functools.lru_cache(maxsize=8)
def _cached_video(content: ContentClass, width: int, height: int,
                  num_frames: int, seed: int):
    """Synthesis is deterministic in its arguments and clients only
    read the frames, so repeated runs (benchmark rounds, retries)
    replay the cached payload instead of re-synthesizing it inside
    the measured window."""
    return generate_video(
        content_class=content, width=width, height=height,
        num_frames=num_frames, seed=seed,
    )


async def _run_session(config: LoadGenConfig, index: int,
                       content: ContentClass, seed: int,
                       report: SessionReport) -> None:
    video = _cached_video(
        content, config.width, config.height, config.frames, seed,
    )
    rng = random.Random((seed << 1) ^ 0x5EED)
    state = _SessionState()
    attempts_left = config.max_reconnects
    backoff = config.backoff_base_s

    async def retry_or_raise(exc: BaseException) -> None:
        nonlocal attempts_left, backoff
        if attempts_left <= 0:
            raise exc
        attempts_left -= 1
        report.reconnect_attempts += 1
        jitter = 1.0 + config.backoff_jitter * (2 * rng.random() - 1)
        await asyncio.sleep(max(0.0, backoff * jitter))
        backoff = min(config.backoff_max_s, backoff * 2 or 0.01)

    while True:
        try:
            await _session_attempt(
                config, index, content, video, report, state
            )
        except _TransientResumeReject as exc:
            # The server itself asked for a retry (lease held by a
            # worker whose death is not yet confirmed, or a fleet
            # mid-restart): honour its hint, then the normal backoff.
            report.lease_retries += 1
            await asyncio.sleep(exc.retry_after_s)
            await retry_or_raise(exc)
            continue
        except (ConnectionRefusedError,) as exc:
            if report.resume_token:
                # Refused while holding a token: the worker that owed
                # us a session is restarting — retryable, and distinct
                # from an admission-level refusal.
                report.retryable_restarts += 1
            else:
                report.connect_refusals += 1
            await retry_or_raise(exc)
            continue
        except (ConnectionError, asyncio.IncompleteReadError,
                OSError) as exc:
            if isinstance(exc, TimeoutError):
                # Client-side deadline, not a transport fault: the
                # session overran ``timeout_s`` — report, don't retry.
                raise
            report.mid_stream_disconnects += 1
            # Only a journaling server can continue the session; a lost
            # session without a token restarts from scratch... which
            # the deduplicated outcome map does not model — give up.
            if not report.resume_token:
                raise
            await retry_or_raise(exc)
            continue
        if state.complete:
            return
        # Parked by a drain: back off and reattach.
        await retry_or_raise(
            ConnectionError("session parked by server drain")
        )


async def run_loadgen_async(config: LoadGenConfig) -> LoadReport:
    """Run the configured load against ``config.host:config.port``."""
    rng = random.Random(config.seed)
    classes = [c for c, _ in config.mix]
    weights = [w for _, w in config.mix]
    picks = rng.choices(classes, weights=weights, k=config.sessions)
    delays, tenant_picks = _scenario_plan(config, rng)
    seeds = [rng.randrange(2**31) for _ in range(config.sessions)]
    report = LoadReport()
    report.sessions = [
        SessionReport(session=i, content_class=picks[i].value,
                      tenant=tenant_picks[i])
        for i in range(config.sessions)
    ]

    async def one(i: int) -> None:
        if delays[i] > 0:
            await asyncio.sleep(delays[i])
        try:
            await _run_session(
                config, i, picks[i], seeds[i], report.sessions[i]
            )
        except ProtocolError as exc:
            report.protocol_errors += 1
            report.sessions[i].error = str(exc)
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, OSError) as exc:
            report.sessions[i].error = f"{type(exc).__name__}: {exc}"

    start = time.perf_counter()
    await asyncio.gather(*(one(i) for i in range(config.sessions)))
    report.wall_clock_s = time.perf_counter() - start
    return report


def run_loadgen(config: LoadGenConfig) -> LoadReport:
    """Synchronous entry point (used by the CLI)."""
    return asyncio.run(run_loadgen_async(config))
