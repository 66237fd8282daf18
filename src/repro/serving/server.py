"""Asyncio streaming front-end for the transcoding pipeline.

One TCP connection is one session: HELLO -> admission decision ->
frame ingest -> reconstructed-plane egress -> STATS/BYE.  (Each ENCODED
carries the decoded picture and a bit *count*; the bitstream itself is
not shipped — ROADMAP item 15.)  There is one session shape: a
rendition ladder over the rungs admission kept.  A HELLO without a
``ladder`` key is a ladder of one rung at ingest geometry and takes the
same handshake, the same admission decision and the same encoder
(:class:`repro.ladder.session.LadderSession`) as a three-rung HELLO.
Per session the server runs three tasks:

* **ingest** reads FRAME messages off the socket and feeds a *bounded*
  queue; when the client outruns the encoder and the queue is full,
  the incoming frame is dropped (an ENCODED notice with
  ``dropped="backpressure"`` tells the client) instead of growing RAM;
* **encode** pulls frames in order and pushes them through the
  session's :class:`~repro.ladder.session.LadderSession` on the encode
  thread pool, so the event loop never blocks on CPU work (a frame is
  one GIL-free native call per rung, whose tiles spread over idle
  cores).  Every push encodes its frame on every rung, so whatever the
  rung count, one pool job takes every frame queued up to the open
  GOP's end: a paced session gets one job per frame, a backlogged one
  one per GOP;
* **egress** writes ENCODED messages from a second bounded queue; a
  slow reader causes the *oldest* undelivered frame to be coalesced
  away (newest results win — a viewer wants the current frame, not a
  backlog).

Admission (:mod:`repro.serving.admission`) prices each HELLO with the
shared workload-LUT estimator and admits against Algorithm 2's slot
capacity; parked sessions wait bounded time for capacity to free.  All
sessions share one estimator, so the LUT a session warms speeds up
admission pricing and allocation for every later user of the same
content class — the paper's cross-user reuse, now end to end.

Every admission decision, queue depth, drop and end-to-end frame
latency lands in :mod:`repro.observability`.

**Fault tolerance** (DESIGN.md §11).  With ``journal_dir`` set, every
one-rung session writes a checksummed journal
(:mod:`repro.serving.recovery`) fsync'd at GOP granularity: admission
state, cross-GOP pipeline snapshots and the encoded outcomes
themselves.  (A ``gop`` record holds one rung's raw planes; multi-rung
sessions run journal-less until ROADMAP item 15 replaces what the
record holds.)  A client that loses
its connection reattaches with RESUME and continues *bit-identically* —
the journal restores the encoder to the last GOP boundary, replays any
journaled outcomes the old connection never delivered, and the client
resends from the boundary.  The contract is that nothing leaves that
RESUME cannot reproduce: an outcome leaves as soon as it is encoded
unless a backpressure drop gave a frame up since the last record —
then it waits for its GOP's record.  An encode that overruns its slot
is answered inside its own stream, by the degradation ladder; a slow
job only delays the frames behind it.  A journal append that fails
beyond retry takes its session off the journal (the session keeps
streaming, its token is tombstoned) and nothing else: the next HELLO
tries to journal again.
:meth:`drain` (SIGTERM) stops admissions, finishes or parks in-flight GOPs,
checkpoints the LUT and exits cleanly; parked sessions survive a full
server restart.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

import numpy as np

from repro.codec.config import EncoderConfig, GopConfig
from repro.observability import get_registry, get_tracer
from repro.platform.mpsoc import MpsocConfig, XEON_E5_2667
from repro.policy.compiler import CompiledPolicy, compile_policy
from repro.policy.document import load_policy_file
from repro.resilience.errors import (
    CorruptFrameError,
    JournalCorruptionError,
    LeaseHeldError,
)
from repro.resilience.degradation import ResilienceConfig
# Submodule imports (not the repro.ladder package) keep the
# ladder <-> serving import cycle unwound: repro.ladder.segments
# imports repro.serving.protocol, which initializes this package.
from repro.ladder.config import LadderConfig, LadderRung
from repro.ladder.session import LadderSession
from repro.serving.admission import (
    BASE_QP,
    BASE_WINDOW,
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.serving.protocol import (
    MAX_PAYLOAD,
    Bye,
    Encoded,
    ErrorMsg,
    FrameMsg,
    Hello,
    HelloAck,
    Message,
    ProtocolError,
    Resume,
    ResumeAck,
    Stats,
    read_message,
    serialise_into,
    write_message,
)
from repro.serving.recovery import (
    RestoredSession,
    SessionJournal,
    frame_output_record,
    replay_messages,
)
from repro.serving.statestore import SharedDirStateStore
from repro.storage import FileOps, RetryPolicy, StorageError
from repro.transcode.pipeline import FrameOutput, PipelineConfig
from repro.video.frame import Frame
from repro.video.generator import ContentClass
from repro.workload.estimator import WorkloadEstimator

__all__ = ["NetworkServer", "ServeNetConfig", "SessionStats"]

#: Handshake timeout (connection to first HELLO / RESUME); also how
#: long a RESUME waits for the handler it preempts to let go.
HELLO_TIMEOUT_S = 10.0
#: Geometry ceiling of a HELLO; sizes the per-message read bound.
MAX_FRAME_WIDTH = 4096
MAX_FRAME_HEIGHT = 4096
#: Per-message allocation bound for reads: the largest FRAME the
#: geometry ceiling permits (plus framing slack), never beyond the
#: wire-format ceiling — a client cannot make the server commit to a
#: 32 MiB buffer by inflating the declared length.
_RECV_MAX_PAYLOAD = min(MAX_PAYLOAD, MAX_FRAME_WIDTH * MAX_FRAME_HEIGHT + 1024)
#: RESUME retry hint sent when a session's lease is held by a live
#: process (transient reject).
LEASE_RETRY_S = 0.5


@dataclass(frozen=True)
class ServeNetConfig:
    """Configuration of the network server."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    #: Bound of the per-session ingest queue (frames awaiting encode).
    queue_frames: int = 16
    #: Bound of the per-session egress queue (encoded frames awaiting
    #: a slow reader).
    egress_frames: int = 32
    #: How long a parked session waits for capacity before rejection.
    park_timeout_s: float = 2.0
    admission: AdmissionPolicy = AdmissionPolicy()
    platform: MpsocConfig = XEON_E5_2667
    #: Directory of per-session journals (``None`` disables journaled
    #: resume, graceful parking and the warm LUT checkpoint).
    journal_dir: Optional[str] = None
    #: How long :meth:`NetworkServer.drain` waits for in-flight
    #: sessions to finish or park before closing anyway.
    drain_grace_s: float = 10.0
    #: Tenant policy document (``None`` = pre-policy behaviour: no
    #: tenants, bit-identical to a policy-less build), loaded once at
    #: construction; a changed file takes a drain and a restart.
    policy_file: Optional[str] = None
    #: Injectable filesystem seam for every durable write (journals,
    #: LUT checkpoints, policy reads).  ``None`` = the real
    #: filesystem; tests pass a :class:`repro.storage.faultfs.FaultFS`.
    fileops: Optional[FileOps] = None
    #: Backoff base of the bounded retry of *transient* journal-append
    #: faults (:class:`repro.storage.RetryPolicy` fixes the tries).
    journal_retry_backoff_s: float = 0.005


@dataclass
class SessionStats:
    """Per-session counters, summarized into the STATS message."""

    session_id: int
    frames_received: int = 0
    frames_encoded: int = 0
    dropped_backpressure: int = 0
    dropped_egress: int = 0
    dropped_corrupt: int = 0
    dropped_deadline: int = 0
    deadline_misses: int = 0
    total_bits: int = 0
    psnr_sum: float = 0.0
    peak_ingest_depth: int = 0
    peak_egress_depth: int = 0
    #: Recovery counters: how many times this session has reattached
    #: and how many journaled outcomes the last resume replayed.
    resumes: int = 0
    replayed: int = 0
    parked: bool = False

    def to_dict(self, queue_frames: int) -> Dict[str, object]:
        # The two ``watchdog`` keys stay, always 0, so STATS keeps its
        # shape: drop code 4 and old journals' ``watchdog`` drops stay
        # decodable, and readers of either key keep working.
        dropped = {
            "backpressure": self.dropped_backpressure,
            "egress": self.dropped_egress,
            "corrupt": self.dropped_corrupt,
            "deadline": self.dropped_deadline,
            "watchdog": 0,
        }
        return {
            "session_id": self.session_id,
            "frames_received": self.frames_received,
            "frames_encoded": self.frames_encoded,
            "frames_dropped": dropped,
            "recovery": {
                "resumes": self.resumes,
                "replayed": self.replayed,
                "watchdog_fires": 0,
                "parked": self.parked,
            },
            "deadline_misses": self.deadline_misses,
            "total_bits": self.total_bits,
            "psnr_avg": (
                self.psnr_sum / self.frames_encoded
                if self.frames_encoded else None
            ),
            "peak_ingest_depth": self.peak_ingest_depth,
            "peak_egress_depth": self.peak_egress_depth,
            "queue_frames": queue_frames,
        }


_BYE_SENTINEL = object()
_DRAIN_SENTINEL = object()


def _push_all(encoder: LadderSession,
              frames: List[Frame]) -> List[FrameOutput]:
    """One encode-pool job: push ``frames`` in order; their outputs."""
    outputs: List[FrameOutput] = []
    for frame in frames:
        outputs += encoder.push(frame)
    return outputs


class _Session:
    """Mutable state of one accepted client session.

    ``rungs`` is the admitted ladder (a prefix of what the HELLO asked
    for; one rung at ingest geometry for a HELLO without ``ladder``).
    ``restored`` rebuilds the session from its journal: the encoder is
    restored to the last GOP-boundary snapshot, parked in-flight frames
    are staged in ``prefeed`` for the encode loop to re-push, and the
    encoder configuration (``qp``/``window``) comes from the journaled
    admit record rather than the base one a new session starts at — the
    same config the original admission chose is what bit-identity
    requires.
    """

    def __init__(self, session_id: int, hello: Hello,
                 server: "NetworkServer",
                 rungs: Tuple[Tuple[int, int], ...],
                 resume_token: str = "",
                 journal: Optional[SessionJournal] = None,
                 restored: Optional[RestoredSession] = None):
        cfg = server.config
        self.session_id = session_id
        self.hello = hello
        self.stats = SessionStats(session_id=session_id)
        self.ingest: asyncio.Queue = asyncio.Queue(maxsize=cfg.queue_frames)
        self.egress: asyncio.Queue = asyncio.Queue(maxsize=cfg.egress_frames)
        self.arrival_s: Dict[int, float] = {}
        self.next_index = 0
        content = None
        if hello.content_class:
            try:
                content = ContentClass(hello.content_class)
            except ValueError:
                content = None
        self.qp, self.window = BASE_QP, BASE_WINDOW
        if restored is not None:
            self.qp = int(restored.admit["qp"])
            self.window = int(restored.admit["window"])
        pipeline = PipelineConfig(
            fps=hello.fps,
            gop=GopConfig(max(1, hello.gop)),
            base_config=EncoderConfig(qp=self.qp, search="hexagon",
                                      search_window=self.window),
            content_class=content,
            resilience=server.resilience_for(hello),
            platform=cfg.platform,
        )
        #: The session's one encoder; its outputs are rung-tagged.  The
        #: rung set is the *admitted* ladder, so the planner's own
        #: content pruning is off — the client receives exactly the
        #: rungs the HELLO_ACK promised.
        self.encoder = LadderSession(
            pipeline,
            LadderConfig(rungs=tuple(LadderRung(w, h) for w, h in rungs),
                         prune=False),
            estimator=server.estimator,
        )
        self.slot_s = 1.0 / pipeline.fps
        self.gop_size = max(1, hello.gop)
        # -- recovery state --------------------------------------------
        self.resume_token = resume_token
        self.journal = journal
        #: Journaled sessions: raw frames pushed since the last GOP
        #: boundary (what a drain's ``park`` record holds) and the last
        #: GOP-boundary snapshot, per rung (what a ``gop`` record holds).
        self.replay_frames: List[Frame] = []
        self.last_state: Optional[Dict[int, Dict[str, object]]] = None
        #: Journaled sessions: the open GOP's outputs (its ``gop``
        #: record's), those of them waiting for that record, and the
        #: frames a backpressure drop gave up that no record covers yet —
        #: the next ``gop``/``park`` record carries them, so a resume
        #: replays them with their original reason, and their notices
        #: leave with it.
        self.gop_outputs: List[FrameOutput] = []
        self.withheld: List[FrameOutput] = []
        self.pending_drops: List[FrameOutput] = []
        #: Parked frames a resume must re-push before reading the wire.
        self.prefeed: List[Frame] = []
        #: A resumed client's contiguous-delivery watermark: outcomes
        #: below it are re-encoded to rebuild the encoder, not re-sent.
        self.have_below = 0
        #: Ordered hand-off from the encode loop to the emit loop:
        #: ``(outputs, append_future_or_None, released)`` triples — the
        #: outputs leave at once, the released ones after the append.
        #: Bounded so the encoder stays at most a few GOPs ahead of
        #: durable emission (deep enough to ride out a slow fsync).
        self.emit_queue: asyncio.Queue = asyncio.Queue(maxsize=4)
        self.completed = False
        if restored is not None:
            if restored.state is not None:
                # A journal holds one rung's snapshot (the journal guard
                # in the HELLO handshake): the primary's.
                self.encoder.import_state({0: restored.state})
            self.next_index = restored.next_frame_index
            self.prefeed = [
                Frame(plane, index=index)
                for index, plane in restored.pending
            ]


@dataclass
class _Claim:
    """What a handshake holds before the session loops take it over.

    Each field is set the moment the thing is taken, so the one
    ``finally`` of :meth:`NetworkServer._run_connection` gives back
    exactly what a refused, faulted or cancelled handshake held.
    """

    #: Admission ticket (the session id it was charged under).
    session_id: Optional[int] = None
    #: Resume token whose lease (and, for a RESUME, ``_attached``
    #: entry) this handler holds.
    token: str = ""
    journal: Optional[SessionJournal] = None
    #: Owns the encoder.
    session: Optional[_Session] = None


class NetworkServer:
    """The asyncio serving front-end."""

    def __init__(
        self,
        config: ServeNetConfig = ServeNetConfig(),
        estimator: Optional[WorkloadEstimator] = None,
        admission: Optional[AdmissionController] = None,
    ):
        self.config = config
        self.estimator = estimator or WorkloadEstimator()
        self._owner = f"solo:{os.getpid()}"
        self._journal_store: Optional[SharedDirStateStore] = None
        #: Resume tokens invalidated by a durability brownout.  The
        #: in-memory set is authoritative for this process; the
        #: journaled tombstone record is best-effort (the disk was
        #: failing when it was written).
        self._tombstoned: set = set()
        if config.journal_dir is not None:
            self._journal_store = SharedDirStateStore(
                config.journal_dir, fileops=config.fileops,
                retry=RetryPolicy(backoff_s=config.journal_retry_backoff_s),
                on_retry=self._on_journal_retry,
            )
            # Warm-start the shared LUT from the drain checkpoint, if
            # an intact one survived the previous run.
            loaded = self._journal_store.load_lut()
            if loaded.recovered:
                self.estimator.lut = loaded.lut
        self.admission = admission or AdmissionController(
            estimator=self.estimator,
            platform=config.platform,
            policy=config.admission,
        )
        #: Tenant policy (``None`` without --policy; every policy hook
        #: below degrades to a single branch).
        self.compiled_policy: Optional[CompiledPolicy] = None
        if config.policy_file is not None:
            # Loaded once and strictly: a torn, invalid or unreadable
            # file refuses to start the server.
            policy = self.compiled_policy = compile_policy(
                load_policy_file(config.policy_file, fileops=config.fileops)
            )
            self.admission.set_policy(policy)
            get_tracer().event("policy.apply", source=policy.source or "")
        self._server: Optional[asyncio.base_events.Server] = None
        # The encode pool: CPU work leaves the event loop here.  Each
        # session awaits every push before issuing the next, so one
        # session never runs on two threads at once; cross-session
        # parallelism is bounded by the Algorithm-2 core grant (the
        # shared estimator serializes its own LUT updates).
        self._encode_pool = ThreadPoolExecutor(
            max_workers=self._encode_pool_size(),
            thread_name_prefix="repro-encode",
        )
        # Journal writes (plane packing, checksumming, fsync) get their
        # own single writer thread so durability work overlaps with the
        # encode thread instead of stealing its time.  An outcome RESUME
        # could not reproduce still *awaits* its GOP's append; one
        # writer thread keeps each journal's records in order.
        self._journal_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-journal"
        )
        self._capacity_freed = asyncio.Event()
        self._next_session_id = 0
        self._active_handlers = 0
        #: Handlers past their session, giving back what they held: the
        #: lease release and journal discard run on the writer thread,
        #: so a teardown spans loop iterations and :meth:`aclose` lets
        #: it land before the pools go.
        self._closing: set = set()
        #: Completed sessions whose journal a teardown could not
        #: delete; :meth:`drain` tries each once more.
        self._undiscarded: List[str] = []
        self._draining = False
        self._drain_event = asyncio.Event()
        # resume_token -> the connection-handler task currently serving
        # that journal.  A RESUME for an attached token preempts the
        # old handler (half-open TCP: the client is gone but the server
        # side has not noticed) so two sessions never append to one
        # journal concurrently.
        self._attached: Dict[str, asyncio.Task] = {}

    # -- tenant policy -------------------------------------------------
    def resilience_for(self, hello: Hello) -> ResilienceConfig:
        """Per-stream resilience: the full ladder, bounded by the
        tenant's QoS floor."""
        policy = self.compiled_policy
        if policy is None:
            return ResilienceConfig()
        return policy.resilience_for(hello.tenant, ResilienceConfig())

    # -- durability brownout (DESIGN.md §16) ---------------------------
    def _on_journal_retry(self, exc: StorageError) -> None:
        """Metrics hook for transient journal-append retries.  Runs on
        the journal writer thread; the registry lock makes it safe."""
        get_registry().inc(
            "repro_serving_journal_retries_total",
            help="Transient journal-write faults retried",
        )

    def _journal_write(self, journal: SessionJournal, kind: str,
                       build: Callable[[], Dict[str, object]]) -> None:
        """Build one record's payload and append it.  Runs on the
        journal writer thread, so the histogram is that thread's whole
        cost per record — payload, framing, hashing, write and sync."""
        started = time.perf_counter()
        before = journal.size
        journal.append(kind, build())
        registry = get_registry()
        registry.observe(
            "repro_serving_journal_append_seconds",
            time.perf_counter() - started,
            help="Journal writer thread time per record "
                 "(build + hash + append + sync)",
        )
        registry.inc(
            "repro_serving_journal_bytes_total", journal.size - before,
            help="Bytes appended to session journals",
        )
        if kind == "gop":
            # Counted here, where the record became durable: a cut that
            # cancels the handler awaiting this append must not leave a
            # record RESUME will replay out of the count.
            registry.inc(
                "repro_serving_journal_gops_total",
                help="GOP records made durable by session journals",
            )

    async def _on_journal_thread(self, fn: Callable, *args):
        """Run one blocking state-store call (a lease's lock, a
        journal's open, a teardown's unlinks) on the journal writer
        thread, like every append: the event loop serves the other
        sessions' sockets meanwhile, and the call keeps its place in
        the order of that journal's writes.  ``RuntimeError`` when the
        writer pool is gone."""
        return await asyncio.get_running_loop().run_in_executor(
            self._journal_pool, fn, *args
        )

    async def _give_back(self, fn: Callable, *args) -> None:
        """Teardown's journal close and lease release / journal
        discard: off the loop where it can be, inline when the writer
        pool is gone — the lease goes back on every exit."""
        try:
            await self._on_journal_thread(fn, *args)
        except RuntimeError:
            fn(*args)

    def _note_brownout(self, error: BaseException) -> None:
        """Count one session a storage fault took off its journal."""
        get_registry().inc(
            "repro_serving_durability_brownouts_total",
            help="Sessions a storage fault took off their journal",
        )
        get_tracer().event(
            "serving.durability_brownout", error=str(error),
            point=getattr(error, "point", ""),
        )

    async def _durability_brownout(self, session: "_Session",
                                   error: BaseException) -> None:
        """A durable write for ``session`` failed beyond retry: keep
        the session alive but stop journaling it.

        The resume token is invalidated (in memory, authoritatively;
        on disk via a best-effort tombstone record — the disk was
        failing, so the append may not land) and the journal handle is
        closed on the writer thread, *behind* any appends the session
        already queued.  The connection itself never notices: frames
        keep flowing, only crash-resumability is lost.  A second failed
        append the session had queued finds it off its journal already.
        """
        if session.journal is None:
            return
        token = session.resume_token
        journal, session.journal = session.journal, None
        session.resume_token = ""
        if token:
            self._tombstoned.add(token)
            self._attached.pop(token, None)

        def tombstone() -> None:
            try:
                self._journal_write(journal, "tombstone", lambda: {
                    "token": token, "reason": str(error),
                    "owner": self._owner,
                })
            except Exception:
                pass  # best effort by design
            finally:
                try:
                    journal.close()
                except Exception:
                    pass

        try:
            await self._on_journal_thread(tombstone)
        except RuntimeError:
            # The writer pool itself is gone (thread death / shutdown)
            # — the very fault being handled.  Close the handle inline;
            # the tombstone stays memory-only.
            try:
                journal.close()
            except Exception:
                pass
        if token and self._journal_store is not None:
            try:
                await self._give_back(self._journal_store.release, token)
            except (StorageError, OSError):
                pass
        self._note_brownout(error)

    def _encode_pool_size(self) -> int:
        """Encode threads granted to this server: the admission
        controller's core capacity (the Algorithm-2 budget sessions are
        packed into) clamped to the CPUs this process may run on (its
        affinity mask, which taskset or a cpuset narrows; every online
        CPU where the platform has no mask) — one thread on a single
        core.  One GOP flush runs per thread; per-session pushes stay
        strictly ordered regardless."""
        grant = max(1, int(self.admission.capacity_cores))
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count() or 1
        return min(grant, cpus)

    @property
    def parked_tokens(self) -> List[str]:
        """Resume tokens with a journal on disk (including sessions
        parked by a previous run's drain)."""
        if self._journal_store is None:
            return []
        return self._journal_store.tokens()

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port,
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._closing:
            await asyncio.wait(set(self._closing), timeout=HELLO_TIMEOUT_S)
        self._encode_pool.shutdown(wait=True)
        self._journal_pool.shutdown(wait=True)

    async def drain(self) -> None:
        """Graceful shutdown (the SIGTERM path).

        Stops accepting connections and admissions, signals every
        in-flight session to finish (journal-less) or park (journaled —
        the in-flight GOP's raw frames land in the journal so a
        restarted server can resume the session bit-identically), waits
        up to ``drain_grace_s`` for sessions to flush their STATS/BYE,
        retries the journal deletes teardowns failed, checkpoints the
        shared LUT next to the journals, and closes.
        Idempotent; concurrent callers share one drain.
        """
        if self._draining:
            return
        self._draining = True
        registry = get_registry()
        registry.inc("repro_serving_drains_total",
                     help="Graceful drains initiated")
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
        self._drain_event.set()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace_s
        while self._active_handlers > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        if self._journal_store is not None:
            for token in self._undiscarded:
                try:
                    await self._give_back(self._journal_store.discard, token)
                except (StorageError, OSError):
                    pass  # it stays, as after a kill
            self._undiscarded.clear()
            try:
                self._journal_store.save_lut(self.estimator.lut)
            except (StorageError, OSError) as exc:
                # The LUT is an accuracy warm-start, never correctness:
                # a failed checkpoint must not block the drain.
                get_tracer().event("serving.lut_checkpoint_failed",
                                   error=str(exc))
        await self.aclose()

    # -- connection handling -------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        registry = get_registry()
        self._active_handlers += 1
        try:
            await self._run_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            registry.inc("repro_serving_connection_resets_total",
                         help="Connections lost mid-session")
        except ProtocolError as exc:
            registry.inc("repro_serving_protocol_errors_total",
                         help="Wire-protocol violations")
            await self._try_send(writer, ErrorMsg("protocol", str(exc)))
        finally:
            self._active_handlers -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                self._closing.discard(asyncio.current_task())

    async def _try_send(self, writer: asyncio.StreamWriter,
                        msg: Message) -> None:
        try:
            await write_message(writer, msg)
        except (ConnectionError, OSError):
            pass

    async def _run_connection(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        msg = await asyncio.wait_for(
            read_message(reader, max_payload=_RECV_MAX_PAYLOAD),
            timeout=HELLO_TIMEOUT_S,
        )
        if isinstance(msg, Resume):
            handshake = self._resume_handshake
        elif isinstance(msg, Hello):
            handshake = self._hello_handshake
        else:
            raise ProtocolError(
                f"expected HELLO or RESUME, got {msg.type.name}"
            )
        # One claim scope for both doors.  From here to the hand-over
        # every exit — a reject, a storage fault, a client gone before
        # its ACK, cancellation in the waiting room — gives back
        # whatever the handshake took in the one ``finally`` below: a
        # ticket left behind occupies cores nobody uses, a lease left
        # with a live process locks every other out of the token.
        claim = _Claim()
        session: Optional[_Session] = None
        try:
            session = await handshake(msg, writer, claim)
        finally:
            if session is None:
                self._closing.add(asyncio.current_task())
                if self._attached.get(claim.token) is asyncio.current_task():
                    del self._attached[claim.token]
                if claim.session is not None:
                    claim.session.encoder.close()
                if claim.journal is not None:
                    claim.journal.close()
                if claim.session_id is not None:
                    self.admission.release(claim.session_id)
                    self._capacity_freed.set()
                if claim.token:
                    def give_back(token: str) -> None:
                        # Runs behind a storage call the handshake was
                        # cancelled in: whatever that call still took
                        # is on the claim by now.
                        if claim.journal is not None:
                            claim.journal.close()
                        self._journal_store.release(token)

                    await self._give_back(give_back, claim.token)
        if session is not None:
            await self._serve_admitted(session, reader, writer)

    async def _admit(
        self, hello: Hello, writer: asyncio.StreamWriter, claim: _Claim,
        ack: Type[Union[HelloAck, ResumeAck]],
    ) -> Optional[Tuple[int, str, Tuple[Tuple[int, int], ...]]]:
        """The one admit step of both doors: decide, hold a parked
        session until capacity frees, refuse with ``ack``.  Returns
        ``(session_id, reason, kept_rungs)`` with the ticket recorded
        on the claim, or ``None`` once the reject has been sent."""
        session_id = self._next_session_id
        self._next_session_id += 1
        decision, reason, rungs = self.admission.decide(session_id, hello)
        if decision is AdmissionDecision.PARK:
            # Only HELLO_ACK has a "park" form on the wire; a parked
            # RESUME just sees a slow RESUME_ACK.
            decision, reason, rungs = await self._wait_parked(
                session_id, hello, writer,
                HelloAck(decision="park", session_id=session_id,
                         reason=reason) if ack is HelloAck else None,
            )
        if decision is not AdmissionDecision.ACCEPT:
            await write_message(writer, ack(
                decision="reject", session_id=session_id, reason=reason,
            ))
            return None
        claim.session_id = session_id
        return session_id, reason, rungs

    async def _journal_handshake(self, claim: _Claim, kind: str,
                                 build: Callable[[], Dict[str, object]],
                                 ) -> None:
        """Append the handshake's own record (``admit`` / ``resume``).
        A journal dead on arrival (ENOSPC, writer-thread death, ...)
        browns the session out — it is served journal-less rather than
        refused — and the claim stops holding what the brownout gave
        back."""
        try:
            await asyncio.get_running_loop().run_in_executor(
                self._journal_pool, self._journal_write,
                claim.journal, kind, build,
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            await self._durability_brownout(claim.session, exc)
            claim.token, claim.journal = "", None

    async def _hello_handshake(self, hello: Hello,
                               writer: asyncio.StreamWriter,
                               claim: _Claim) -> Optional[_Session]:
        """HELLO handshake, with or without a ``ladder`` key.

        Admission prices the *whole* ladder and may drop low rungs
        before parking or rejecting the session.  For a HELLO that
        carried ``ladder`` the ACK's ``rungs`` list is the contract —
        exactly those rungs arrive on the wire, each ENCODED tagged
        with its rung id in the header flags."""
        cfg = self.config
        if not (0 < hello.width <= MAX_FRAME_WIDTH
                and 0 < hello.height <= MAX_FRAME_HEIGHT):
            await write_message(writer, HelloAck(
                decision="reject", reason=(
                    f"geometry {hello.width}x{hello.height} outside "
                    f"1..{MAX_FRAME_WIDTH} x 1..{MAX_FRAME_HEIGHT}"
                ),
            ))
            return None
        admitted = await self._admit(hello, writer, claim, HelloAck)
        if admitted is None:
            return None
        session_id, reason, rungs = admitted
        store = self._journal_store
        # The one thing a multi-rung session lacks: a ``gop`` record
        # holds one rung's raw planes, and ROADMAP item 15 replaces what
        # it holds (bitstreams), so the N-rung record is not built
        # twice.  A storage fault that took an earlier session off its
        # journal leaves no latch: this session simply tries.
        if len(rungs) == 1 and store is not None:
            claim.token = store.new_token(session_id, hello.client_id)

            def open_journal() -> None:
                # A fresh token is uncontended, but taking its lease
                # here makes the invariant uniform: a journal with an
                # appender always holds its lease.
                # The claim takes the handle on the writer thread, so
                # a handshake cancelled mid-call still finds it to
                # close.
                store.acquire(claim.token)
                claim.journal = store.create(claim.token)

            try:
                await self._on_journal_thread(open_journal)
            except (StorageError, RuntimeError) as exc:
                # A failing volume, or no writer thread to journal on:
                # the session is served journal-less.
                try:
                    await self._give_back(store.release, claim.token)
                except (StorageError, OSError):
                    pass
                claim.token = ""
                self._note_brownout(exc)
        session = claim.session = _Session(
            session_id, hello, self, rungs,
            resume_token=claim.token, journal=claim.journal,
        )
        if claim.journal is not None:
            token = claim.token

            def admit_record() -> Dict[str, object]:
                record = {
                    "token": token, "session_id": session_id,
                    "width": hello.width, "height": hello.height,
                    "fps": hello.fps, "num_frames": hello.num_frames,
                    "gop": hello.gop, "content_class": hello.content_class,
                    "client_id": hello.client_id,
                    "qp": session.qp, "window": session.window,
                    "owner": self._owner,
                }
                if hello.tenant:
                    record["tenant"] = hello.tenant
                if rungs[0] != (hello.width, hello.height):
                    # The rung is a scaled rendition: a RESUME must
                    # rebuild it, not the ingest geometry.
                    record["ladder"] = [list(rung) for rung in rungs]
                return record

            await self._journal_handshake(claim, "admit", admit_record)
        await write_message(writer, HelloAck(
            decision="accept", session_id=session_id, reason=reason,
            queue_frames=cfg.queue_frames,
            # A brownout above clears the session's token; the ACK
            # must advertise what the session actually has.
            resume_token=session.resume_token,
            rungs=tuple((i, w, h) for i, (w, h) in enumerate(rungs))
            if hello.ladder is not None else (),
        ))
        return session

    async def _resume_handshake(self, msg: Resume,
                                writer: asyncio.StreamWriter,
                                claim: _Claim) -> Optional[_Session]:
        """RESUME handshake: restore the journaled session and replay
        the outcomes the client lacks."""
        cfg = self.config
        registry = get_registry()
        started = time.perf_counter()
        store = self._journal_store

        async def refuse(reason: str, transient: bool = False) -> None:
            """Reject; ``transient`` tells the client a retry may work."""
            await write_message(writer, ResumeAck(
                decision="reject", reason=reason,
                retry_after_s=LEASE_RETRY_S if transient else 0.0,
            ))

        async def refuse_tombstoned() -> None:
            # Invalidated by a durability brownout: the journal on disk
            # (if any survived) is not trusted to be complete, so the
            # token is refused cleanly instead of resuming a session
            # that would silently miss its tail.
            registry.inc(
                "repro_serving_tombstone_rejects_total",
                help="RESUMEs refused: token tombstoned by a brownout",
            )
            await refuse("resume token invalidated by durability brownout")

        if store is None or not store.exists(msg.resume_token):
            return await refuse("unknown resume token")
        if msg.resume_token in self._tombstoned:
            return await refuse_tombstoned()
        # Half-open TCP: the client timed out and reconnected while the
        # old handler is still alive (e.g. a chaos-proxy stall).  The
        # journal admits one writer, so preempt the old handler —
        # cancel it and wait for its teardown (which closes its journal
        # handle) before reading the journal.
        old = self._attached.get(msg.resume_token)
        if old is not None and not old.done():
            registry.inc("repro_serving_resume_preemptions_total",
                         help="Attached sessions preempted by a RESUME")
            old.cancel()
            await asyncio.wait({old}, timeout=HELLO_TIMEOUT_S)
            if not old.done():
                return await refuse(
                    "session still attached; preemption timed out")
        # Cross-process exclusion: take the token's single-owner lease.
        # In-process preemption (above) already cleared our own path,
        # so a held lease here is *another live process*, whose session
        # may still append (transient reject: the client retries after
        # ``LEASE_RETRY_S``).  A killed server's lock died with it, so
        # the server restarted in its place simply takes the token.
        # The claim holds the token from before the call: a handshake
        # cancelled while the writer thread takes the lease still gives
        # it back (releasing a lease someone else holds is a no-op).
        claim.token = msg.resume_token
        try:
            await self._on_journal_thread(store.acquire, msg.resume_token)
        except LeaseHeldError:
            # Before ``RuntimeError``, which it also is.
            registry.inc("repro_serving_lease_conflicts_total",
                         help="RESUMEs rejected: lease held by a live peer")
            return await refuse("session lease held by another process",
                                transient=True)
        except RuntimeError:
            # Writer pool dead: journaling is gone for this process,
            # so a resume cannot be served safely.  Typed refusal.
            return await refuse("journal writer unavailable", transient=True)
        except StorageError as exc:
            # The lock sidecar could not be opened: storage trouble, not
            # contention.  Transient reject: the client may retry.
            return await refuse(f"session store fault: {exc}",
                                transient=True)
        # Attach before touching the journal so a concurrent RESUME for
        # the same token preempts *this* handler instead of racing it
        # to the reopen.
        self._attached[claim.token] = asyncio.current_task()
        loop = asyncio.get_running_loop()

        def restore() -> Tuple[RestoredSession, List[Encoded]]:
            restored = store.restore(msg.resume_token, strict=True)
            if restored.tombstoned:
                return restored, []
            return restored, replay_messages(restored, msg.have_below)

        # Reading, hashing and folding a whole journal is too much
        # for the event loop, and running it on the single journal
        # writer thread is also the barrier this needs: any append
        # the old session scheduled before teardown has landed in
        # the file or failed against the closed handle by the time
        # the restore reads it.
        try:
            restoring = loop.run_in_executor(self._journal_pool, restore)
        except RuntimeError:
            # Writer pool dead: journaling is gone for this process,
            # so a resume cannot be served safely.  Typed refusal.
            return await refuse("journal writer unavailable", transient=True)
        try:
            restored, replay = await restoring
        except JournalCorruptionError as exc:
            registry.inc("repro_serving_journal_corruptions_total",
                         help="Journals rejected by integrity checks")
            return await refuse(f"journal corrupt: {exc}")
        except StorageError as exc:
            # An unreadable journal is a *transient* reject, distinct
            # from corruption: the bytes may be fine, the read failed.
            return await refuse(f"journal unreadable: {exc}", transient=True)
        if restored.tombstoned:
            # A previous run browned this session out and its
            # tombstone record did land: same clean refusal as the
            # in-memory set, surviving restarts.
            return await refuse_tombstoned()
        adopted = restored.last_owner not in ("", self._owner)
        if adopted:
            registry.inc(
                "repro_serving_sessions_adopted_total",
                help="Journaled sessions adopted from a dead process",
            )
            get_tracer().event(
                "serving.adopt", token=msg.resume_token,
                previous_owner=restored.last_owner, owner=self._owner,
            )
        admit = restored.admit
        ladder = admit.get("ladder")
        hello = Hello(
            width=int(admit["width"]), height=int(admit["height"]),
            fps=float(admit["fps"]),
            num_frames=int(admit.get("num_frames", 0)),
            gop=int(admit["gop"]),
            content_class=admit.get("content_class"),
            client_id=msg.client_id or str(admit.get("client_id", "")),
            ladder=(tuple((int(w), int(h)) for w, h in ladder)
                    if ladder else None),
            tenant=str(admit.get("tenant", "")),
        )
        # A resumed session re-charges admission capacity like any
        # other: its old ticket died with its old connection.
        admitted = await self._admit(hello, writer, claim, ResumeAck)
        if admitted is None:
            return None
        session_id, reason, rungs = admitted
        # A mid-append crash leaves a torn final record; cut the file
        # back to its last intact record before appending, or the
        # next record would merge with the partial one mid-file and
        # poison every later strict restore.
        def reopen() -> None:
            claim.journal = store.reopen(msg.resume_token, restored.next_seq,
                                         truncate_to=restored.intact_bytes)

        try:
            await self._on_journal_thread(reopen)
        except (StorageError, RuntimeError) as exc:
            return await refuse(f"session store fault: {exc}",
                                transient=True)
        session = claim.session = _Session(
            session_id, hello, self, rungs, resume_token=msg.resume_token,
            journal=claim.journal, restored=restored,
        )
        session.stats.resumes = restored.resumes + 1
        session.stats.replayed = len(replay)
        session.have_below = msg.have_below
        next_frame_index = restored.next_frame_index
        # On failure the restored state is already in memory: the
        # session is served journal-less rather than failing the resume.
        await self._journal_handshake(claim, "resume", lambda: {
            "have_below": msg.have_below,
            "next_frame_index": next_frame_index,
            "session_id": session_id,
            "owner": self._owner,
        })
        await write_message(writer, ResumeAck(
            decision="accept", session_id=session_id,
            next_frame_index=next_frame_index,
            replayed=len(replay), reason=reason,
            queue_frames=cfg.queue_frames,
            resume_token=session.resume_token,
        ))
        for encoded in replay:
            await write_message(writer, encoded)
            registry.inc("repro_serving_frames_total", direction="out",
                         help="Frames crossing the wire by direction")
            registry.inc("repro_serving_bytes_total", len(encoded.luma),
                         direction="out",
                         help="Payload bytes crossing the wire by "
                              "direction")
        registry.inc("repro_serving_resumes_total",
                     help="Sessions reattached via RESUME")
        registry.observe(
            "repro_serving_resume_latency_seconds",
            time.perf_counter() - started,
            help="RESUME to RESUME_ACK (journal restore + replay)",
        )
        get_tracer().event(
            "serving.resume", session=session_id,
            token=msg.resume_token, replayed=session.stats.replayed,
            next_frame_index=next_frame_index,
        )
        # The planes under ``restored`` and ``replay`` are views of the
        # journal's one read buffer; the session took the few it needs,
        # and returning drops the rest instead of pinning them for as
        # long as the session is served.
        return session

    async def _serve_admitted(self, session: "_Session",
                              reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        registry = get_registry()
        span = get_tracer().span(
            "serving.session", session=session.session_id,
            width=session.hello.width, height=session.hello.height,
        )
        task = asyncio.current_task()
        if session.resume_token:
            self._attached[session.resume_token] = task
        try:
            with span:
                await self._run_session(session, reader, writer)
            registry.inc("repro_serving_sessions_total", outcome="completed",
                         help="Finished sessions by outcome")
        except BaseException:
            registry.inc("repro_serving_sessions_total", outcome="aborted",
                         help="Finished sessions by outcome")
            raise
        finally:
            self._closing.add(task)
            holds_token = self._attached.get(session.resume_token) is task
            if holds_token:
                del self._attached[session.resume_token]
            session.encoder.close()
            if session.journal is not None:
                # Behind any append still in flight on the writer
                # thread: closing the handle under one fails it after
                # its bytes reached the file, and RESUME replays those.
                await self._give_back(session.journal.close)
                try:
                    if (session.completed
                            and self._journal_store is not None):
                        # Clean BYE: the journal has served its purpose
                        # (discard removes the lease with it).
                        await self._give_back(self._journal_store.discard,
                                              session.resume_token)
                    elif holds_token and self._journal_store is not None:
                        # Interrupted (disconnect, park, preemption
                        # target already re-leased the token — hence
                        # holds_token): free the lease so *any* server
                        # can resume it.
                        await self._give_back(self._journal_store.release,
                                              session.resume_token)
                except StorageError:
                    # Teardown is best-effort: an undeletable journal
                    # is no reason to abort it.  A completed session's
                    # is discarded again by drain(); a server killed
                    # instead of drained leaves it in the journal
                    # directory, where a restart lists it as parked.
                    if session.completed:
                        self._undiscarded.append(session.resume_token)
            self.admission.release(session.session_id)
            self._capacity_freed.set()

    async def _wait_parked(self, session_id: int, hello: Hello,
                           writer: asyncio.StreamWriter,
                           park_ack: Optional[HelloAck]):
        """Hold a parked session until capacity frees or the park
        timeout elapses (sending ``park_ack`` first, when the door has
        one).  Returns what :meth:`AdmissionController.unpark` does; a
        timeout is a REJECT.  Any other way out of the waiting room —
        the park ACK not reaching a client already gone, cancellation
        by a RESUME preemption or shutdown — returns the park slot,
        which is still this session's to give back."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.park_timeout_s
        try:
            if park_ack is not None:
                await write_message(writer, park_ack)
            while True:
                self._capacity_freed.clear()
                await asyncio.wait_for(
                    self._capacity_freed.wait(),
                    timeout=max(0.0, deadline - loop.time()),
                )
                result = self.admission.unpark(session_id, hello)
                if result[0] is not AdmissionDecision.PARK:
                    return result
        except asyncio.TimeoutError:
            self.admission.abandon_park()
            return AdmissionDecision.REJECT, "park timeout", ()
        except BaseException:
            self.admission.abandon_park()
            raise

    # -- session tasks -------------------------------------------------
    async def _run_session(self, session: _Session,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        ingest_task = asyncio.ensure_future(
            self._ingest_loop(session, reader)
        )
        encode_task = asyncio.ensure_future(self._encode_loop(session))
        emit_task = asyncio.ensure_future(self._emit_loop(session))
        egress_task = asyncio.ensure_future(
            self._egress_loop(session, writer)
        )
        tasks = [ingest_task, encode_task, emit_task, egress_task]
        try:
            await asyncio.gather(*tasks)
        finally:
            for t in tasks:
                if not t.done():
                    t.cancel()
            # Reap cancellations and secondary errors so no task dies
            # with an unretrieved exception.
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _ingest_loop(self, session: _Session,
                           reader: asyncio.StreamReader) -> None:
        """Feed the ingest queue until the client's BYE or a drain.

        One task reads the connection (:meth:`_read_frames`); this one
        waits for it or for the drain signal, whichever comes first —
        once per connection, not once per FRAME.
        """
        reads = asyncio.ensure_future(self._read_frames(session, reader))
        drained = asyncio.ensure_future(self._drain_event.wait())
        try:
            await asyncio.wait({reads, drained},
                               return_when=asyncio.FIRST_COMPLETED)
            if reads.done():
                reads.result()  # the client's BYE, or what broke the read
                end = _BYE_SENTINEL
            else:
                # Drain signalled mid-read: stop ingesting; the encode
                # loop parks or flushes what is in flight.
                reads.cancel()
                await asyncio.gather(reads, return_exceptions=True)
                end = _DRAIN_SENTINEL
            await session.ingest.put(end)
        finally:
            reads.cancel()
            drained.cancel()
            await asyncio.gather(reads, drained, return_exceptions=True)

    async def _read_frames(self, session: _Session,
                           reader: asyncio.StreamReader) -> None:
        """Read FRAME messages into the ingest queue; returns at BYE."""
        cfg = self.config
        registry = get_registry()
        hello = session.hello
        frame_bytes = hello.width * hello.height
        # A StreamReader pauses its transport at twice its limit and a
        # read larger than the buffer resumes it chunk by chunk; the
        # default limit (64 KiB) puts every VGA FRAME through that.
        # asyncio has no public way to resize a connected reader.
        if getattr(reader, "_limit", 0) < 2 * frame_bytes:
            reader._limit = 2 * frame_bytes
        while True:
            msg = await read_message(reader, max_payload=_RECV_MAX_PAYLOAD)
            if isinstance(msg, Bye):
                return
            if not isinstance(msg, FrameMsg):
                raise ProtocolError(
                    f"expected FRAME or BYE, got {msg.type.name}"
                )
            if (msg.width, msg.height) != (hello.width, hello.height):
                raise ProtocolError(
                    f"FRAME geometry {msg.width}x{msg.height} disagrees "
                    f"with HELLO {hello.width}x{hello.height}"
                )
            registry.inc("repro_serving_frames_total", direction="in",
                         help="Frames crossing the wire by direction")
            registry.inc(
                "repro_serving_bytes_total", frame_bytes, direction="in",
                help="Payload bytes crossing the wire by direction",
            )
            index = session.next_index
            session.next_index += 1
            session.stats.frames_received += 1
            if session.ingest.full():
                # Backpressure: the client outruns the encoder.  The
                # incoming frame is dropped (never buffered), keeping
                # the queue depth at its configured bound.
                await self._give_up(session, index)
                continue
            # Zero-copy ingest: the wire payload backs the frame
            # directly (read_message hands out an immutable view,
            # so frombuffer yields a read-only plane — the encoder
            # only ever reads the original).  A writable buffer
            # means something mutable backs the view; snapshot it
            # and surface the copy in metrics so hot-path copy
            # regressions are visible.
            luma = np.frombuffer(msg.luma, dtype=np.uint8).reshape(
                msg.height, msg.width
            )
            if luma.flags.writeable:
                luma = luma.copy()
                registry.inc(
                    "repro_serving_frame_copies_total", path="ingest",
                    help="Hot-path pixel copies (0 when zero-copy holds)",
                )
            session.arrival_s[index] = time.perf_counter()
            session.ingest.put_nowait(Frame(luma, index=index))
            depth = session.ingest.qsize()
            if depth > session.stats.peak_ingest_depth:
                session.stats.peak_ingest_depth = depth
            if cfg.queue_frames and depth > cfg.queue_frames:
                raise RuntimeError(
                    "ingest queue exceeded its bound"
                )  # pragma: no cover - guarded by maxsize

    async def _encode_loop(self, session: _Session) -> None:
        # Re-push frames parked by a previous drain before touching the
        # wire queue: they carry their original indices, so the resumed
        # GOP is built from exactly the frames the old run accepted
        # (fewer than a GOP: the open GOP's).
        prefeed, session.prefeed = session.prefeed, []
        if prefeed:
            await self._encode_batch(session, prefeed)
        end = None
        while end is None:
            frames, end = await self._next_batch(session)
            if frames:
                await self._encode_batch(session, frames)
        await self._end_session(session, end)

    async def _next_batch(self, session: _Session):
        """Wait for a frame, then take every frame queued behind it up
        to the open GOP's end — one frame when the client is paced, the
        rest of the GOP when it is backlogged.  Returns ``(frames,
        end)``: ``end`` is the BYE or drain sentinel that stopped the
        take, ``None`` while the session goes on."""
        ingest = session.ingest
        room = session.gop_size - session.encoder.pending_frames
        frames: List[Frame] = []
        item = await ingest.get()
        while item is not _BYE_SENTINEL and item is not _DRAIN_SENTINEL:
            frames.append(item)
            if len(frames) == room or ingest.empty():
                return frames, None
            item = ingest.get_nowait()
        return frames, item

    async def _encode_batch(self, session: _Session,
                            frames: List[Frame]) -> None:
        """Push one batch through the encoder as one pool job and hand
        its outputs to the emit loop."""
        if session.journal is not None:
            session.replay_frames += frames
        try:
            outputs = await asyncio.get_running_loop().run_in_executor(
                self._encode_pool, _push_all, session.encoder, frames)
        except CorruptFrameError as exc:
            raise ProtocolError(f"unencodable frame: {exc}") from exc
        await self._queue_boundary(session, outputs)

    async def _give_up(self, session: _Session, frame_index: int) -> None:
        """A full ingest queue gave a frame up.  Journal-less, its
        notice leaves now.  Journaled, the drop waits in
        ``pending_drops`` for the next ``gop``/``park`` record, which
        carries it and whose ``next_frame_index`` covers it; until then
        no outcome leaves early, and the notice leaves with the
        record."""
        if session.journal is None:
            await self._drop(session, frame_index, "backpressure")
        else:
            session.pending_drops.append(
                FrameOutput(frame_index=frame_index, dropped="backpressure"))

    async def _queue_boundary(self, session: _Session,
                             outputs: List[FrameOutput]) -> None:
        """Hand one batch's outputs to the emit loop: at once, unless
        RESUME could not reproduce them (DESIGN.md §11) — a journaled
        session holds them for their GOP's record while a backpressure
        drop awaits a record, or earlier outputs are held (they leave in
        order).

        At a GOP boundary the cross-GOP state is captured *here*,
        synchronously (``export_state`` builds a small dict per rung
        and borrows the previous-original plane without copying), so
        the drain path always sees current recovery state.
        The ``gop`` record — the state, every output of the GOP and the
        drops it covers — is built, hashed and appended on the journal
        writer thread; the emit loop releases what waited for it once
        the append is done."""
        # Every batch pushed something, so nothing pending is a GOP's
        # end.
        boundary = not session.encoder.pending_frames
        journal = session.journal
        if boundary and journal is not None:
            session.last_state = session.encoder.export_state()
            session.replay_frames = []
        if journal is None:
            # Journal-less, or browned out since: nothing waits.
            released = session.withheld + session.pending_drops + outputs
            session.gop_outputs, session.withheld = [], []
            session.pending_drops = []
            if released:
                await session.emit_queue.put((released, None, []))
            return
        session.gop_outputs += outputs
        if session.pending_drops or session.withheld:
            session.withheld += outputs
            outputs = []
        if not boundary:
            if outputs:
                await session.emit_queue.put((outputs, None, []))
            return
        # Journaled sessions have one rung (the journal guard in the
        # HELLO handshake): its snapshot is the record's.
        state = session.last_state[0]
        gop_outputs, session.gop_outputs = session.gop_outputs, []
        next_index = max(o.frame_index for o in gop_outputs) + 1
        drops = [d for d in session.pending_drops
                 if d.frame_index < next_index]
        session.pending_drops = [d for d in session.pending_drops
                                 if d.frame_index >= next_index]
        released, session.withheld = session.withheld + drops, []

        def gop_record() -> Dict[str, object]:
            return {
                "gop_index": int(state["gop_index"]) - 1,
                "state": state,
                "outputs": [frame_output_record(o)
                            for o in drops + gop_outputs],
                "next_frame_index": next_index,
            }

        append = None
        try:
            append = asyncio.get_running_loop().run_in_executor(
                self._journal_pool, self._journal_write,
                journal, "gop", gop_record,
            )
        except RuntimeError as exc:
            # Writer pool dead (thread death / shutdown): same contract
            # as a failed append — emit anyway, brown the session out.
            await self._durability_brownout(session, exc)
        else:
            # The emit loop awaits this; retrieve defensively too, for
            # sessions torn down with an append still queued.
            append.add_done_callback(
                lambda f: f.cancelled() or f.exception()
            )
        await session.emit_queue.put((outputs, append, released))

    async def _emit_loop(self, session: _Session) -> None:
        """Per-session emitter: for each queued triple, emit the
        outputs, await the journal append (when there is one) and only
        then emit what waited for it.  Runs concurrently with the
        encode loop so durability work overlaps encode work instead of
        stalling it."""
        while True:
            item = await session.emit_queue.get()
            if item is _BYE_SENTINEL:
                session.emit_queue.task_done()
                return
            outputs, append, released = item
            try:
                await self._emit_outputs(session, outputs)
                if append is not None:
                    try:
                        # Shielded: outputs may have left ahead of the
                        # record, and a cut must not cancel it before
                        # the writer thread gets to it.
                        await asyncio.shield(append)
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:
                        # The GOP cannot be made durable: emit it
                        # anyway and brown the session out —
                        # availability over resumability.
                        await self._durability_brownout(session, exc)
                await self._emit_outputs(session, released)
            finally:
                session.emit_queue.task_done()

    async def _end_session(self, session: _Session, end: object) -> None:
        """The client's BYE or a drain: close the stream, or park it
        when a drain finds it journaled, then STATS and BYE."""
        # Let every queued output reach the wire (its GOP durable)
        # first.
        await session.emit_queue.join()
        if end is _DRAIN_SENTINEL and await self._park_session(session):
            # The park record holds the open GOP's frames and drops: a
            # resume re-encodes what waited, so only the drops leave.
            released = session.pending_drops
            reason = "server draining; session parked for resume"
        else:
            # Every frame was encoded at its push: finishing only
            # closes the rungs' last GOPs.
            session.encoder.finish()
            released = session.withheld + session.pending_drops
            reason = ("session complete" if end is _BYE_SENTINEL
                      else "server draining")
        session.withheld, session.pending_drops = [], []
        await self._emit_outputs(session, released)
        session.completed = end is _BYE_SENTINEL
        await self._egress_put(
            session,
            Stats(session.stats.to_dict(self.config.queue_frames)),
            coalesce=False,
        )
        await self._egress_put(session, Bye(reason), coalesce=False)
        await session.egress.put(_BYE_SENTINEL)
        await session.emit_queue.put(_BYE_SENTINEL)

    async def _park_session(self, session: _Session) -> bool:
        """Drain-path exit of a journaled session: journal the open
        GOP's raw frames and pending drops (a ``park`` record) so a
        restarted server resumes bit-identically.  ``False`` when the
        session has no journal or the record did not land."""
        journal = session.journal
        if journal is None:
            return False
        frames = list(session.replay_frames)
        next_index = session.next_index
        drops = list(session.pending_drops)

        def park_record() -> Dict[str, object]:
            return {
                "next_frame_index": next_index,
                "frames": [
                    {"frame_index": f.index, "plane": f.luma}
                    for f in frames
                ],
                "outputs": [frame_output_record(d) for d in drops],
            }

        try:
            await asyncio.get_running_loop().run_in_executor(
                self._journal_pool, self._journal_write,
                journal, "park", park_record,
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            await self._durability_brownout(session, exc)
            return False
        session.stats.parked = True
        get_registry().inc(
            "repro_serving_sessions_parked_total",
            help="Sessions parked to their journal by a drain",
        )
        return True

    async def _emit_outputs(self, session: _Session,
                            outputs: List[FrameOutput]) -> None:
        registry = get_registry()
        now = time.perf_counter()
        latencies = []
        encoded = 0
        for out in outputs:
            arrival = session.arrival_s.pop(out.frame_index, None)
            if out.frame_index < session.have_below:
                # Re-encoded after a RESUME to rebuild the encoder: the
                # client holds this outcome already.
                continue
            if out.dropped is not None:
                # "corrupt" or "deadline": the pipeline gave the frame up.
                await self._drop(session, out.frame_index, out.dropped,
                                 rung=out.rung)
                continue
            record = out.record
            critical = max(t.cpu_time_fmax for t in record.tiles)
            bits, psnr = record.bits, record.psnr
            session.stats.frames_encoded += 1
            session.stats.total_bits += bits
            session.stats.psnr_sum += psnr
            encoded += 1
            if critical > session.slot_s:
                session.stats.deadline_misses += 1
                registry.inc(
                    "repro_serving_deadline_miss_total",
                    help="Encoded frames whose critical tile exceeded "
                         "the 1/FPS slot",
                )
            if arrival is not None:
                latencies.append(now - arrival)
            recon = out.reconstruction
            # The plane rides by reference (a flat view, no copy): its
            # pixels are copied once, by write_message, on the way to
            # the socket.
            await self._egress_put(session, Encoded(
                frame_index=out.frame_index,
                frame_type=out.frame_type.value,
                width=recon.shape[1], height=recon.shape[0],
                bits=bits, psnr=psnr, luma=recon.reshape(-1),
                rung=out.rung,
            ))
        # One registry batch per call (a batch's outputs), not per frame.
        if encoded:
            registry.inc("repro_serving_frames_encoded_total", encoded,
                         help="Frames encoded by the serving layer")
        if latencies:
            registry.observe_many(
                "repro_serving_frame_latency_seconds", latencies,
                help="End-to-end frame latency (arrival to encoded)",
            )

    @staticmethod
    def _count_drop(session: _Session, reason: str) -> None:
        """The one place a dropped frame is counted: the session's
        STATS field and the ``repro_serving_frames_dropped_total``
        family together, so no reason can be on one ledger and not the
        other."""
        field_name = f"dropped_{reason}"
        setattr(session.stats, field_name,
                getattr(session.stats, field_name) + 1)
        get_registry().inc(
            "repro_serving_frames_dropped_total", reason=reason,
            help="Frames dropped by the serving layer, by reason",
        )

    async def _drop(self, session: _Session, frame_index: int,
                    reason: str, rung: int = 0) -> None:
        """Give one frame up: count it and queue the ENCODED notice
        that is its outcome on the wire."""
        self._count_drop(session, reason)
        await self._egress_put(session, Encoded(
            frame_index=frame_index, frame_type="", dropped=reason,
            rung=rung,
        ))

    async def _egress_put(self, session: _Session, msg: Message,
                          coalesce: bool = True) -> None:
        """Queue an outbound message, coalescing on a slow reader.

        When the egress queue is full and ``coalesce`` is allowed, the
        oldest undelivered ENCODED frame is discarded — the client
        gets the freshest results and the queue never exceeds its
        bound.  Control messages (STATS/BYE) always enqueue.
        """
        registry = get_registry()
        if coalesce:
            while session.egress.full():
                try:
                    stale = session.egress.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - race guard
                    break
                if stale is _BYE_SENTINEL:
                    session.egress.put_nowait(stale)
                    break
                # No notice: the wire has no code for it, and queueing
                # one into a full queue would evict another frame.
                self._count_drop(session, "egress")
        await session.egress.put(msg)
        depth = session.egress.qsize()
        if depth > session.stats.peak_egress_depth:
            session.stats.peak_egress_depth = depth

    async def _egress_loop(self, session: _Session,
                           writer: asyncio.StreamWriter) -> None:
        """Write queued messages in order.  Whatever is queued when the
        loop wakes is serialised into one buffer — up to the
        transport's high-water mark, so a slow reader still backs up
        into the queue, where stale frames coalesce — and goes out
        under one ``write``, one ``drain()`` and one bump of the
        out-direction counters."""
        registry = get_registry()
        high_water = writer.transport.get_write_buffer_limits()[1]
        while True:
            msg = await session.egress.get()
            batch = bytearray()
            frames = payload = 0
            while msg is not _BYE_SENTINEL:
                serialise_into(batch, msg)
                if isinstance(msg, Encoded):
                    frames += 1
                    payload += len(msg.luma)
                if session.egress.empty() or len(batch) > high_water:
                    break
                msg = session.egress.get_nowait()
            if batch:
                writer.write(batch)
                await writer.drain()
            if frames:
                registry.inc("repro_serving_frames_total", frames,
                             direction="out",
                             help="Frames crossing the wire by direction")
                registry.inc(
                    "repro_serving_bytes_total", payload, direction="out",
                    help="Payload bytes crossing the wire by direction",
                )
            if msg is _BYE_SENTINEL:
                return
