"""Supervised multi-worker serving fleet.

PR 5's :class:`~repro.serving.server.NetworkServer` is crash-safe but
single-process: one encode thread, one point of failure.  This module
removes the ceiling the ROADMAP names by running **N worker processes
under a supervisor**, with the session state they share externalized
through :mod:`repro.serving.statestore` so a worker can be SIGKILLed
mid-GOP and its sessions come back — on a *different* worker —
bit-identically.

Architecture (DESIGN.md §12):

``FleetSupervisor``
    Spawns N :func:`_worker_main` processes (``multiprocessing`` spawn
    context — no fork/asyncio/thread hazards), monitors them over a
    **heartbeat control channel** (newline-JSON over a localhost TCP
    socket: load gossip + metrics snapshots up, commands down), and
    restarts crashed workers with exponential backoff behind a
    flap-detection circuit breaker (:class:`RestartTracker`).  On a
    death it immediately sweeps the dead pid's session leases
    (:meth:`~repro.serving.statestore.SharedDirStateStore.break_owner`)
    so survivors adopt orphaned sessions without waiting for a
    pid-liveness probe.

Front door — the router:
    The supervisor owns the public port and speaks the first message
    of each connection itself: a HELLO is *placed* by
    :class:`~repro.serving.admission.FleetAdmission` (Algorithm 2's
    min-distance-to-cap packing lifted to sessions-onto-workers,
    parking fleet-wide when every worker is saturated), a RESUME is
    routed to its lease owner's worker when that worker is alive
    (in-process preemption handles the half-open race) and to the
    least-loaded survivor otherwise (adoption).  After placement the
    router splices bytes verbatim.  Each worker listens on a private
    ephemeral port it reports over the control channel.

Worker capacity is the platform divided by the fleet width: each
worker's admission controller runs the unchanged single-node
Algorithm 2 against ``utilization / N``, so the two levels compose
without double-counting cores.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Tuple

from repro.observability import get_registry, get_tracer
from repro.observability.metrics import MetricsRegistry
from repro.policy.compiler import compile_policy
from repro.policy.document import load_policy_file
from repro.serving.admission import (
    AdmissionDecision,
    FleetAdmission,
)
from repro.serving.protocol import (
    Hello,
    HelloAck,
    Message,
    ProtocolError,
    Resume,
    ResumeAck,
    encode_message,
    read_message,
    write_message,
)
from repro.serving.server import (
    HELLO_TIMEOUT_S,
    NetworkServer,
    ServeNetConfig,
)
from repro.serving.statestore import SharedDirStateStore
from repro.storage.errors import StorageError

__all__ = [
    "FleetConfig",
    "FleetSupervisor",
    "RestartPolicy",
    "RestartTracker",
]

_CHUNK = 65536


# ----------------------------------------------------------------------
# Restart policy (pure logic, unit-testable without processes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RestartPolicy:
    """Backoff and flap-detection knobs of the supervisor."""

    #: First restart delay; doubles per death up to the cap.
    backoff_base_s: float = 0.25
    backoff_max_s: float = 5.0
    #: Sliding window the breaker counts deaths over.
    breaker_window_s: float = 30.0
    #: Deaths within the window that trip the breaker: the worker slot
    #: is abandoned instead of restarted (a crash loop is burning CPU
    #: a healthy worker could use — flapping is worse than down).
    breaker_threshold: int = 5

    def __post_init__(self) -> None:
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.breaker_window_s <= 0:
            raise ValueError("breaker_window_s must be positive")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")


class RestartTracker:
    """Per-worker-slot death bookkeeping: backoff + circuit breaker."""

    def __init__(self, policy: RestartPolicy = RestartPolicy()):
        self.policy = policy
        self._deaths: Deque[float] = deque()

    @property
    def deaths_in_window(self) -> int:
        return len(self._deaths)

    def record_death(self, now: float) -> Optional[float]:
        """Record one death at ``now`` (monotonic seconds).

        Returns the restart delay, or ``None`` when the breaker trips:
        this death is the ``breaker_threshold``-th inside the sliding
        window, the slot is flapping, stop restarting it.
        """
        window = self.policy.breaker_window_s
        while self._deaths and now - self._deaths[0] > window:
            self._deaths.popleft()
        self._deaths.append(now)
        if len(self._deaths) >= self.policy.breaker_threshold:
            return None
        delay = self.policy.backoff_base_s * (2 ** (len(self._deaths) - 1))
        return min(self.policy.backoff_max_s, delay)


# ----------------------------------------------------------------------
# Fleet configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetConfig:
    """Configuration of one supervised fleet."""

    workers: int = 2
    host: str = "127.0.0.1"
    #: Public port clients connect to (0 = ephemeral; resolved after
    #: :meth:`FleetSupervisor.start`).
    port: int = 0
    heartbeat_s: float = 0.25
    #: Worker template.  ``journal_dir`` is mandatory — shared session
    #: state is what makes cross-worker adoption possible at all.
    server: ServeNetConfig = field(default_factory=ServeNetConfig)
    restart: RestartPolicy = field(default_factory=RestartPolicy)
    #: How long the router holds a fleet-parked HELLO for capacity.
    park_timeout_s: float = 2.0
    #: Retry hint sent when a RESUME cannot be routed yet (its lease
    #: owner's fate is unresolved or no worker is up).
    resume_retry_s: float = 0.5
    #: How long :meth:`FleetSupervisor.drain` waits for workers.
    drain_grace_s: float = 15.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if self.server.journal_dir is None:
            raise ValueError(
                "fleet requires server.journal_dir: shared journals + "
                "leases are what cross-worker adoption adopts"
            )


def _worker_config(config: FleetConfig, worker_id: str) -> ServeNetConfig:
    """Specialize the worker template for one slot.

    Each worker gets a private ephemeral port (reported back over the
    control channel; the router owns the public one).  Capacity is
    split: ``utilization / workers`` keeps the fleet's aggregate
    admission exactly the single node's.
    """
    policy = config.server.admission
    split = replace(
        policy,
        utilization=max(1e-6, policy.utilization / config.workers),
    )
    return replace(
        config.server, worker_id=worker_id, admission=split,
        host="127.0.0.1", port=0,
    )


# ----------------------------------------------------------------------
# Worker process entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a spawned worker needs (must pickle cleanly)."""

    worker_id: str
    incarnation: int
    control_port: int
    heartbeat_s: float
    server: ServeNetConfig


def _worker_main(spec: _WorkerSpec) -> None:
    """Entry point of one worker process (spawn context)."""
    asyncio.run(_worker_async(spec))


async def _worker_async(spec: _WorkerSpec) -> None:
    server = NetworkServer(spec.server)
    await server.start()
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", spec.control_port
    )

    async def send(obj: Dict[str, object]) -> None:
        writer.write(json.dumps(obj).encode("utf-8") + b"\n")
        await writer.drain()

    await send({
        "kind": "hello", "worker": spec.worker_id,
        "incarnation": spec.incarnation, "pid": os.getpid(),
        "port": server.port,
    })

    draining = asyncio.Event()

    def _on_sigterm() -> None:
        draining.set()

    loop = asyncio.get_running_loop()
    with contextlib.suppress(NotImplementedError, RuntimeError):
        loop.add_signal_handler(signal.SIGTERM, _on_sigterm)

    async def heartbeats() -> None:
        while not draining.is_set():
            await send({
                "kind": "heartbeat", "worker": spec.worker_id,
                "incarnation": spec.incarnation,
                "load": server.load_snapshot(),
                "metrics": get_registry().to_dict(),
            })
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    draining.wait(), timeout=spec.heartbeat_s
                )

    async def commands() -> None:
        while True:
            line = await reader.readline()
            if not line:
                # Control channel gone: the supervisor died.  Drain —
                # orphaned workers must not hold session leases forever.
                draining.set()
                return
            try:
                cmd = json.loads(line.decode("utf-8"))
            except ValueError:
                continue
            if cmd.get("kind") == "drain":
                draining.set()
                return

    hb_task = asyncio.ensure_future(heartbeats())
    cmd_task = asyncio.ensure_future(commands())
    serve_task = asyncio.ensure_future(server.serve_forever())
    drain_wait = asyncio.ensure_future(draining.wait())
    try:
        # Run until told to drain — or until the serve loop dies on its
        # own (crash): either way the worker exits and the supervisor's
        # death watch decides what happens next.
        await asyncio.wait(
            {drain_wait, serve_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if draining.is_set():
            await server.drain()
    finally:
        drain_wait.cancel()
        for task in (serve_task, hb_task, cmd_task):
            task.cancel()
        await asyncio.gather(serve_task, hb_task, cmd_task,
                             return_exceptions=True)
        # Final metrics flush so counters accumulated after the last
        # heartbeat (drain, park records) reach the merged snapshot.
        with contextlib.suppress(ConnectionError, OSError):
            await send({
                "kind": "heartbeat", "worker": spec.worker_id,
                "incarnation": spec.incarnation,
                "load": server.load_snapshot(),
                "metrics": get_registry().to_dict(),
            })
            writer.close()
            await writer.wait_closed()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Supervisor-side state of one worker slot."""

    def __init__(self, worker_id: str, policy: RestartPolicy):
        self.worker_id = worker_id
        self.incarnation = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.pid: Optional[int] = None
        self.port: Optional[int] = None
        self.ready = False  # control hello received for this incarnation
        self.tracker = RestartTracker(policy)
        self.breaker_open = False
        self.restart_task: Optional[asyncio.Task] = None
        self.control_writer: Optional[asyncio.StreamWriter] = None

    @property
    def owner(self) -> str:
        return f"{self.worker_id}:{self.pid}"

    def routable(self) -> bool:
        return (self.ready and self.port is not None
                and self.process is not None and self.process.is_alive())


class FleetSupervisor:
    """Spawns, monitors, restarts and fronts N serving workers."""

    def __init__(self, config: FleetConfig):
        self.config = config
        self._store = SharedDirStateStore(
            config.server.journal_dir, owner=f"supervisor:{os.getpid()}",
        )
        self.fleet_admission = FleetAdmission(
            platform=config.server.platform,
            policy=config.server.admission,
        )
        # Tenant policy: the worker template carries ``policy_file``
        # into every spawned worker (each enforces locally); compiling
        # it here too arms the router's fleet-wide entitlement check.
        # A broken file refuses to start the supervisor, same as a
        # single server.
        if config.server.policy_file is not None:
            self.fleet_admission.set_policy(
                compile_policy(load_policy_file(
                    config.server.policy_file, fileops=config.server.fileops))
            )
        self._mp = multiprocessing.get_context("spawn")
        self._handles: Dict[str, _WorkerHandle] = {
            f"w{i}": _WorkerHandle(f"w{i}", config.restart)
            for i in range(config.workers)
        }
        self._control: Optional[asyncio.base_events.Server] = None
        self._control_port = 0
        self._router: Optional[asyncio.base_events.Server] = None
        self._public_port = 0
        self._monitor_task: Optional[asyncio.Task] = None
        self._draining = False
        self._capacity_changed = asyncio.Event()
        #: Latest metrics snapshot per (worker slot, incarnation).
        #: Counters in a snapshot are cumulative *within* one worker
        #: incarnation, so keeping only the latest per incarnation and
        #: summing across them merges without double counting.
        self._worker_metrics: Dict[Tuple[str, int], dict] = {}
        self._recv_max_payload = 1 << 20  # first message is small JSON

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        """Public port clients connect to."""
        if self._public_port == 0:
            raise RuntimeError("fleet not started")
        return self._public_port

    def handle(self, worker_id: str) -> Optional["_WorkerHandle"]:
        """Supervision handle of one worker slot (drills and tests)."""
        return self._handles.get(worker_id)

    async def start(self) -> None:
        self._control = await asyncio.start_server(
            self._handle_control, "127.0.0.1", 0
        )
        self._control_port = self._control.sockets[0].getsockname()[1]
        self._router = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self._public_port = self._router.sockets[0].getsockname()[1]
        for handle in self._handles.values():
            self._spawn(handle)
        self._monitor_task = asyncio.ensure_future(self._monitor())
        get_registry().set_gauge(
            "repro_serving_fleet_workers", len(self._handles),
            help="Configured worker slots",
        )

    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.incarnation += 1
        handle.ready = False
        handle.port = None
        spec = _WorkerSpec(
            worker_id=handle.worker_id, incarnation=handle.incarnation,
            control_port=self._control_port,
            heartbeat_s=self.config.heartbeat_s,
            server=_worker_config(self.config, handle.worker_id),
        )
        process = self._mp.Process(
            target=_worker_main, args=(spec,),
            name=f"repro-{handle.worker_id}", daemon=True,
        )
        process.start()
        handle.process = process
        handle.pid = process.pid
        get_tracer().event(
            "fleet.spawn", worker=handle.worker_id,
            incarnation=handle.incarnation, pid=process.pid,
        )

    async def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Block until every non-breakered worker slot is routable and
        has gossiped a first load snapshot — before that the placement
        table prices it at zero capacity."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s

        def pending(handle: _WorkerHandle) -> bool:
            if handle.breaker_open:
                return False
            if not handle.routable():
                return True
            load = self.fleet_admission.workers.get(handle.worker_id)
            return load is None or not load.accepts_sessions()

        while loop.time() < deadline:
            if not any(pending(h) for h in self._handles.values()):
                return
            await asyncio.sleep(0.02)
        raise TimeoutError("fleet workers did not become ready")

    async def drain(self) -> None:
        """Graceful fleet shutdown: drain every worker, then close."""
        if self._draining:
            return
        self._draining = True
        if self._router is not None:
            self._router.close()
        for handle in self._handles.values():
            if handle.restart_task is not None:
                handle.restart_task.cancel()
            writer = handle.control_writer
            if writer is not None:
                with contextlib.suppress(ConnectionError, OSError):
                    writer.write(b'{"kind": "drain"}\n')
                    await writer.drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace_s
        for handle in self._handles.values():
            process = handle.process
            if process is None:
                continue
            while process.is_alive() and loop.time() < deadline:
                await asyncio.sleep(0.05)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        await self.aclose()

    async def aclose(self) -> None:
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            await asyncio.gather(self._monitor_task, return_exceptions=True)
            self._monitor_task = None
        for handle in self._handles.values():
            if handle.restart_task is not None:
                handle.restart_task.cancel()
            process = handle.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for server in (self._router, self._control):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._router = self._control = None

    # -- control channel -----------------------------------------------
    async def _handle_control(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        handle: Optional[_WorkerHandle] = None
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                try:
                    msg = json.loads(line.decode("utf-8"))
                except ValueError:
                    continue
                kind = msg.get("kind")
                worker_id = str(msg.get("worker", ""))
                current = self._handles.get(worker_id)
                if current is None:
                    continue
                incarnation = int(msg.get("incarnation", -1))
                if incarnation != current.incarnation:
                    continue  # a ghost from a replaced incarnation
                if kind == "hello":
                    handle = current
                    handle.pid = int(msg.get("pid", handle.pid or 0))
                    handle.port = int(msg["port"])
                    handle.ready = True
                    handle.control_writer = writer
                    self.fleet_admission.register(worker_id, 0.0)
                    get_tracer().event(
                        "fleet.worker_ready", worker=worker_id,
                        incarnation=incarnation, port=handle.port,
                    )
                elif kind == "heartbeat":
                    load = msg.get("load", {})
                    self.fleet_admission.update(worker_id, load)
                    metrics = msg.get("metrics")
                    if isinstance(metrics, dict):
                        self._worker_metrics[
                            (worker_id, incarnation)
                        ] = metrics
                    self._capacity_changed.set()
        except (ConnectionError, OSError):
            return
        finally:
            if handle is not None and handle.control_writer is writer:
                handle.control_writer = None
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    # -- death watch / restart -----------------------------------------
    async def _monitor(self) -> None:
        poll = max(0.02, self.config.heartbeat_s / 2)
        while True:
            await asyncio.sleep(poll)
            # Workers exiting during a drain are the drain working, not
            # crashes — no death counter, no lease sweep, no restart.
            if self._draining:
                continue
            for handle in self._handles.values():
                process = handle.process
                if (process is None or process.is_alive()
                        or handle.restart_task is not None
                        or handle.breaker_open):
                    continue
                self._reap(handle)

    def _reap(self, handle: _WorkerHandle) -> None:
        """A worker died: reap it, free its leases, plan the restart."""
        registry = get_registry()
        process = handle.process
        exitcode = process.exitcode if process is not None else None
        if process is not None:
            process.join(timeout=0)
        registry.inc("repro_serving_worker_deaths_total",
                     help="Worker processes that exited unexpectedly")
        handle.ready = False
        self.fleet_admission.mark_dead(handle.worker_id)
        freed: List[str] = []
        if handle.pid is not None:
            # The moment of adoption: every session lease the dead pid
            # held is broken so any surviving worker's RESUME path can
            # take it over without waiting out a liveness probe.
            try:
                freed = self._store.break_owner(handle.pid)
            except (StorageError, OSError) as exc:
                # A faulting store directory must not take the
                # supervisor down with the worker: the leases stay on
                # disk, stale, and workers reclaim them by pid-liveness
                # probe instead.
                get_tracer().event(
                    "fleet.lease_sweep_failed",
                    worker=handle.worker_id, error=str(exc),
                )
        get_tracer().event(
            "fleet.worker_death", worker=handle.worker_id,
            incarnation=handle.incarnation, exitcode=exitcode,
            leases_freed=len(freed),
        )
        now = time.monotonic()
        delay = handle.tracker.record_death(now)
        if delay is None:
            handle.breaker_open = True
            registry.inc(
                "repro_serving_worker_breaker_trips_total",
                help="Worker slots abandoned by the flap breaker",
            )
            get_tracer().event(
                "fleet.breaker_open", worker=handle.worker_id,
                deaths_in_window=handle.tracker.deaths_in_window,
            )
            return
        handle.restart_task = asyncio.ensure_future(
            self._restart_later(handle, delay)
        )

    async def _restart_later(self, handle: _WorkerHandle,
                             delay: float) -> None:
        try:
            await asyncio.sleep(delay)
            if self._draining:
                return
            self._spawn(handle)
            get_registry().inc(
                "repro_serving_worker_restarts_total",
                help="Worker processes restarted by the supervisor",
            )
        finally:
            handle.restart_task = None

    # -- router front door ---------------------------------------------
    def _live_handles(self) -> List[_WorkerHandle]:
        return [h for h in self._handles.values() if h.routable()]

    def _pick_for_resume(self, token: str) -> Optional[_WorkerHandle]:
        """Route a RESUME: the lease owner's live worker wins (its
        in-process preemption resolves the half-open race); otherwise
        the least-loaded survivor adopts."""
        live = self._live_handles()
        if not live:
            return None
        info = None
        with contextlib.suppress(Exception):
            info = self._store.lease_info(token)
        if info is not None:
            owner = str(info["owner"])
            worker_id = owner.rsplit(":", 1)[0]
            holder = self._handles.get(worker_id)
            if (holder is not None and holder.routable()
                    and int(info["pid"]) == holder.pid):
                return holder
        loads = self.fleet_admission.workers
        return max(
            live,
            key=lambda h: loads[h.worker_id].free_cores
            if h.worker_id in loads else 0.0,
        )

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            await self._route(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        except ProtocolError:
            get_registry().inc("repro_serving_protocol_errors_total",
                               help="Wire-protocol violations")
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _route(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        first = await asyncio.wait_for(
            read_message(reader, max_payload=self._recv_max_payload),
            timeout=HELLO_TIMEOUT_S,
        )
        if isinstance(first, Hello):
            await self._route_hello(first, reader, writer)
        elif isinstance(first, Resume):
            await self._route_resume(first, reader, writer)
        else:
            raise ProtocolError(
                f"expected HELLO or RESUME, got {first.type.name}"
            )

    async def _route_hello(self, hello: Hello,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        cfg = self.config
        loop = asyncio.get_running_loop()
        deadline = loop.time() + cfg.park_timeout_s
        parked = False
        while True:
            decision, worker_id, reason = self.fleet_admission.place(hello)
            if decision is AdmissionDecision.ACCEPT:
                handle = self._handles.get(worker_id)
                if handle is None or not handle.routable():
                    # Chose a worker that died since its last gossip;
                    # drop it from the table and re-place.
                    self.fleet_admission.mark_dead(worker_id or "")
                    continue
                if await self._splice_to(handle, hello, reader, writer):
                    return
                self.fleet_admission.mark_dead(worker_id)
                continue
            if decision is AdmissionDecision.REJECT:
                # "No live workers" during a restart window is not a
                # verdict — hold the client like a park and let the
                # respawn's first heartbeat release it.
                transient = (not self.fleet_admission.live_workers
                             and not self._draining)
                if not transient:
                    await write_message(writer, HelloAck(
                        decision="reject", reason=reason,
                    ))
                    return
            # PARK: hold the client while the fleet is saturated; any
            # heartbeat (load gossip) may free capacity.
            if not parked:
                parked = True
                await write_message(writer, HelloAck(
                    decision="park", reason=reason,
                ))
            remaining = deadline - loop.time()
            if remaining <= 0 or self._draining:
                self.fleet_admission.abandon_park()
                await write_message(writer, HelloAck(
                    decision="reject", reason="fleet park timeout",
                ))
                return
            self._capacity_changed.clear()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._capacity_changed.wait(), timeout=remaining
                )

    async def _route_resume(self, resume: Resume,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        handle = self._pick_for_resume(resume.resume_token)
        if handle is None:
            # No routable worker *right now* — a restart is in flight;
            # tell the client to come back rather than giving up.
            await write_message(writer, ResumeAck(
                decision="reject", reason="no live worker; fleet restarting",
                retry_after_s=self.config.resume_retry_s,
            ))
            return
        if not await self._splice_to(handle, resume, reader, writer):
            await write_message(writer, ResumeAck(
                decision="reject", reason="worker went down during routing",
                retry_after_s=self.config.resume_retry_s,
            ))

    async def _splice_to(self, handle: _WorkerHandle, first: Message,
                         reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        """Forward ``first`` to the worker, then splice bytes verbatim.

        ``False`` when the worker could not be connected (it died
        between selection and connect) — the caller re-routes.
        """
        try:
            up_reader, up_writer = await asyncio.open_connection(
                "127.0.0.1", handle.port
            )
        except OSError:
            return False
        get_registry().inc(
            "repro_serving_fleet_routed_total",
            kind=first.type.name.lower(), worker=handle.worker_id,
            help="Connections spliced to workers by first message",
        )
        writers = (writer, up_writer)
        try:
            up_writer.write(encode_message(first))
            await up_writer.drain()
            pumps = [
                asyncio.ensure_future(self._pump(reader, up_writer)),
                asyncio.ensure_future(self._pump(up_reader, writer)),
            ]
            await asyncio.gather(*pumps, return_exceptions=True)
        finally:
            for w in writers:
                with contextlib.suppress(RuntimeError):
                    w.close()
        return True

    @staticmethod
    async def _pump(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                chunk = await reader.read(_CHUNK)
                if not chunk:
                    if writer.can_write_eof():
                        with contextlib.suppress(OSError, RuntimeError):
                            writer.write_eof()
                    return
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError):
            return

    # -- observability -------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """One merged registry snapshot: the supervisor's own counters
        plus the latest heartbeat snapshot of every worker incarnation
        (counters are cumulative per incarnation, so latest-per-
        incarnation sums across restarts without double counting)."""
        merged = MetricsRegistry()
        merged.merge(get_registry().to_dict())
        for snapshot in self._worker_metrics.values():
            merged.merge(snapshot)
        return merged.to_dict()
