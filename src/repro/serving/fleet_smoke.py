"""Fixed-seed fleet failover drill (``make fleet-chaos``).

Starts a supervised 2-worker fleet over a shared state directory, runs
an uninterrupted reference pass to record each session's output digest,
then repeats the identical workload while SIGKILLing the busiest worker
mid-stream.  The gate fails loudly unless the drill ends clean:

* every session completed — the killed worker's sessions were adopted
  by the survivor (``repro_serving_sessions_adopted_total`` > 0);
* the supervisor reaped the death and restarted the slot with backoff
  (``worker_deaths`` and ``worker_restarts`` both non-zero);
* delivery was bit-identical to the uninterrupted reference run (equal
  per-session CRC digests, zero divergent replays);
* no hard connection refusals — restart-window refusals are retried
  and classified separately (``retryable_restarts``).

Everything derives from one fixed seed, so both passes stream the same
frames and the comparison is exact.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import tempfile
from typing import Dict, Optional, Tuple

from repro.serving.fleet import FleetConfig, FleetSupervisor, RestartPolicy
from repro.serving.loadgen import LoadGenConfig, LoadReport, run_loadgen_async
from repro.serving.server import ServeNetConfig

SEED = 23
WORKERS = 2
SESSIONS = 4
FRAMES = 24
GOP = 4


def _loadgen_config(port: int) -> LoadGenConfig:
    return LoadGenConfig(
        port=port, sessions=SESSIONS, frames=FRAMES,
        width=64, height=64, gop=GOP, seed=SEED,
        arrival="burst", burst_size=SESSIONS, rate_hz=100.0,
        # Paced frames: the stream is long enough to kill a worker in
        # the middle of it, and the bounded queues never overflow, so
        # zero frames drop and the digest comparison is exact.
        frame_interval_s=0.05,
        max_reconnects=8, backoff_base_s=0.05, timeout_s=120.0,
    )


async def _run_pass(
    journal_dir: str, kill: bool
) -> Tuple[LoadReport, Dict[str, float], bool]:
    """One fleet pass; returns (report, fleet counters, restarted)."""
    config = FleetConfig(
        workers=WORKERS,
        heartbeat_s=0.15,
        restart=RestartPolicy(backoff_base_s=0.2),
        server=ServeNetConfig(journal_dir=journal_dir),
    )
    supervisor = FleetSupervisor(config)
    await supervisor.start()
    restarted = False
    try:
        await supervisor.wait_ready(30.0)
        task = asyncio.ensure_future(run_loadgen_async(
            _loadgen_config(supervisor.port)
        ))
        victim: Optional[str] = None
        if kill:
            victim = await _kill_busiest_worker(supervisor)
        report = await task
        if kill and victim is not None:
            restarted = await _wait_restarted(supervisor, victim, 20.0)
        counters = _fleet_counters(supervisor.metrics_snapshot())
    finally:
        await supervisor.drain()
    return report, counters, restarted


async def _kill_busiest_worker(supervisor: FleetSupervisor) -> Optional[str]:
    """SIGKILL the worker carrying the most sessions, mid-stream."""
    deadline = asyncio.get_running_loop().time() + 15.0
    while asyncio.get_running_loop().time() < deadline:
        loads = [
            (load.active_sessions, worker_id)
            for worker_id, load in supervisor.fleet_admission.workers.items()
            if load.alive and load.active_sessions > 0
        ]
        # Best-fit placement packs sessions onto as few workers as
        # possible, so "busiest worker streaming" is the mid-stream
        # signal — the survivor may start the drill idle and inherit
        # everything through adoption.
        if loads:
            _, victim = max(loads)
            handle = supervisor.handle(victim)
            if handle is not None and handle.pid is not None:
                print(f"killing worker {handle.owner} "
                      f"(sessions per worker: {sorted(loads)})", flush=True)
                os.kill(handle.pid, signal.SIGKILL)
                return victim
        await asyncio.sleep(0.05)
    return None


async def _wait_restarted(
    supervisor: FleetSupervisor, worker_id: str, timeout_s: float
) -> bool:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while asyncio.get_running_loop().time() < deadline:
        handle = supervisor.handle(worker_id)
        if handle is not None and handle.routable():
            return True
        await asyncio.sleep(0.1)
    return False


def _fleet_counters(snapshot: dict) -> Dict[str, float]:
    wanted = {
        "repro_serving_sessions_adopted_total": "adopted",
        "repro_serving_worker_deaths_total": "deaths",
        "repro_serving_worker_restarts_total": "restarts",
        "repro_serving_lease_conflicts_total": "lease_conflicts",
    }
    out = {name: 0.0 for name in wanted.values()}
    for fam in snapshot.get("metrics", []):
        key = wanted.get(fam["name"])
        if key is not None:
            out[key] = sum(s["value"] for s in fam["samples"])
    return out


def _digests(report: LoadReport) -> Dict[int, Optional[int]]:
    return {s.session: s.output_digest for s in report.sessions}


async def _run() -> int:
    with tempfile.TemporaryDirectory() as ref_dir:
        print("reference pass (uninterrupted)", flush=True)
        reference, _, _ = await _run_pass(ref_dir, kill=False)
    print(reference.summary())
    with tempfile.TemporaryDirectory() as drill_dir:
        print("drill pass (SIGKILL one worker mid-stream)", flush=True)
        drilled, counters, restarted = await _run_pass(drill_dir, kill=True)
    print(drilled.summary())
    print("fleet counters: "
          + ", ".join(f"{k}={v:g}" for k, v in sorted(counters.items())))

    failures = []
    for name, report in (("reference", reference), ("drill", drilled)):
        if report.accepted != SESSIONS:
            failures.append(f"{name}: accepted {report.accepted}/{SESSIONS}")
        if report.errored:
            failures.append(f"{name}: {report.errored} session error(s)")
        if report.protocol_errors:
            failures.append(
                f"{name}: {report.protocol_errors} protocol error(s)"
            )
        dropped = sum(s.frames_dropped for s in report.sessions)
        if dropped:
            failures.append(
                f"{name}: {dropped} dropped frame(s) — "
                "digest comparison void"
            )
        if report.divergent_replays:
            failures.append(
                f"{name}: {report.divergent_replays} divergent replay(s)"
            )
    if drilled.connect_refusals:
        failures.append(
            f"drill: {drilled.connect_refusals} hard connection refusal(s)"
        )
    if drilled.resumes == 0:
        failures.append("drill: the killed worker's sessions never resumed")
    if counters["adopted"] == 0:
        failures.append("drill: no session was adopted by a survivor")
    if counters["deaths"] == 0:
        failures.append("drill: the supervisor never reaped the kill")
    if counters["restarts"] == 0:
        failures.append("drill: the dead worker slot was never restarted")
    if not restarted:
        failures.append("drill: the restarted worker never became routable")
    ref_digests, drill_digests = _digests(reference), _digests(drilled)
    mismatched = [
        session for session in sorted(ref_digests)
        if ref_digests[session] != drill_digests.get(session)
    ]
    if mismatched:
        failures.append(
            "drill: output diverged from the uninterrupted reference for "
            f"session(s) {mismatched}"
        )
    if failures:
        print("fleet drill FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print(f"fleet drill OK: {SESSIONS} sessions bit-identical, "
          f"{counters['adopted']:g} adopted, worker restarted")
    return 0


def main() -> int:
    return asyncio.run(_run())


if __name__ == "__main__":
    raise SystemExit(main())
