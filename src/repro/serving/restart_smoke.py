"""Fixed-seed kill-and-restart drill (``make restart-chaos``).

Runs ``serve-net`` as a journaled child process, records each session's
output digest in an uninterrupted reference pass, then repeats the
identical workload and SIGKILLs the child mid-stream.  The dead child
is reaped first — an unreaped zombie still probes alive and would keep
its leases — and a new ``serve-net`` starts on the same port and
journal directory.  Its clients RESUME, and the gate fails loudly
unless the drill ends clean:

* every session completed, and every frame got exactly one outcome;
* the restarted process adopted the killed one's sessions
  (``repro_serving_sessions_adopted_total`` > 0 in its snapshot);
* delivery was bit-identical to the uninterrupted reference run (equal
  per-session CRC digests, zero divergent replays);
* no hard connection refusals — refusals while the server is down are
  retried and classified separately (``retryable_restarts``).

Everything derives from one fixed seed, so both passes stream the same
frames and the comparison is exact.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import sys
import tempfile
from typing import Dict, Optional, Tuple

import repro
from repro.observability.metrics import serving_summary
from repro.serving.loadgen import LoadGenConfig, LoadReport, run_loadgen_async
from repro.serving.recovery import JournalStore

SEED = 23
SESSIONS = 4
FRAMES = 24
GOP = 4

_PORT_LINE = re.compile(rb"serving on [^\s:]+:(\d+)")


def _loadgen_config(port: int) -> LoadGenConfig:
    return LoadGenConfig(
        port=port, sessions=SESSIONS, frames=FRAMES,
        width=64, height=64, gop=GOP, seed=SEED,
        arrival="burst", burst_size=SESSIONS, rate_hz=100.0,
        # Paced frames: the stream is long enough to kill the server in
        # the middle of it, and the bounded queues never overflow, so
        # zero frames drop and the digest comparison is exact.
        frame_interval_s=0.05,
        max_reconnects=8, backoff_base_s=0.05, timeout_s=120.0,
    )


async def _start_server(port: int, journal_dir: str, metrics_out: str
                        ) -> Tuple[asyncio.subprocess.Process, int]:
    """Start ``serve-net`` and wait for the port it reports."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro.cli", "serve-net", "--port", str(port),
        "--journal-dir", journal_dir, "--metrics-out", metrics_out,
        stdout=asyncio.subprocess.PIPE, stdin=asyncio.subprocess.DEVNULL,
        env=env,
    )
    line = await asyncio.wait_for(proc.stdout.readline(), timeout=60.0)
    match = _PORT_LINE.search(line)
    if match is None:
        proc.kill()
        await proc.wait()
        raise RuntimeError(f"serve-net did not report its port: {line!r}")
    return proc, int(match.group(1))


async def _stop_server(proc: asyncio.subprocess.Process) -> None:
    """SIGTERM (drain, metrics snapshot) and reap."""
    if proc.returncode is None:
        proc.terminate()
        await proc.communicate()


async def _wait_mid_stream(journal_dir: str, timeout_s: float) -> bool:
    """Until every session has a durable GOP and none has finished."""
    store = JournalStore(journal_dir, fsync=False)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        done = 0
        for token in store.tokens():
            try:
                if store.restore(token).next_frame_index >= GOP:
                    done += 1
            except (OSError, ValueError):
                pass  # mid-create or torn tail: not durable yet
        if done == SESSIONS:
            return True
        await asyncio.sleep(0.02)
    return False


async def _run_pass(journal_dir: str, kill: bool
                    ) -> Tuple[LoadReport, float]:
    """One pass; returns (report, sessions adopted by the server that
    was running at the end)."""
    metrics_out = os.path.join(journal_dir, "metrics.json")
    proc, port = await _start_server(0, journal_dir, metrics_out)
    try:
        task = asyncio.ensure_future(run_loadgen_async(
            _loadgen_config(port)))
        if kill and await _wait_mid_stream(journal_dir, 30.0):
            print(f"killing serve-net pid {proc.pid} mid-stream",
                  flush=True)
            proc.kill()
            await proc.wait()  # reap: a zombie still holds its leases
            proc, _ = await _start_server(port, journal_dir, metrics_out)
            print(f"restarted serve-net as pid {proc.pid}", flush=True)
        report = await task
    finally:
        await _stop_server(proc)
    with open(metrics_out) as fh:
        summary = serving_summary(json.load(fh)) or {}
    return report, float(summary.get("sessions_adopted", 0.0))


def _digests(report: LoadReport) -> Dict[int, Optional[int]]:
    return {s.session: s.output_digest for s in report.sessions}


async def _run() -> int:
    with tempfile.TemporaryDirectory() as ref_dir:
        print("reference pass (uninterrupted)", flush=True)
        reference, _ = await _run_pass(ref_dir, kill=False)
    print(reference.summary())
    with tempfile.TemporaryDirectory() as drill_dir:
        print("drill pass (SIGKILL serve-net mid-stream, restart it)",
              flush=True)
        drilled, adopted = await _run_pass(drill_dir, kill=True)
    print(drilled.summary())

    failures = []
    for name, report in (("reference", reference), ("drill", drilled)):
        if report.accepted != SESSIONS:
            failures.append(f"{name}: accepted {report.accepted}/{SESSIONS}")
        if report.errored:
            failures.append(f"{name}: {report.errored} session error(s)")
        if report.protocol_errors:
            failures.append(
                f"{name}: {report.protocol_errors} protocol error(s)")
        short = [s.session for s in report.sessions
                 if s.frames_encoded + s.frames_dropped != FRAMES]
        if short:
            failures.append(
                f"{name}: session(s) {short} lack an outcome per frame")
        dropped = sum(s.frames_dropped for s in report.sessions)
        if dropped:
            failures.append(f"{name}: {dropped} dropped frame(s) — "
                            "digest comparison void")
        if report.divergent_replays:
            failures.append(
                f"{name}: {report.divergent_replays} divergent replay(s)")
    if drilled.connect_refusals:
        failures.append(
            f"drill: {drilled.connect_refusals} hard connection refusal(s)")
    if drilled.resumes == 0:
        failures.append("drill: the killed server's sessions never resumed")
    if adopted == 0:
        failures.append("drill: the restarted server adopted no session")
    ref_digests, drill_digests = _digests(reference), _digests(drilled)
    mismatched = [session for session in sorted(ref_digests)
                  if ref_digests[session] != drill_digests.get(session)]
    if mismatched:
        failures.append(
            "drill: output diverged from the uninterrupted reference for "
            f"session(s) {mismatched}")
    if failures:
        print("restart drill FAILED: " + "; ".join(failures),
              file=sys.stderr)
        return 1
    print(f"restart drill OK: {SESSIONS} sessions bit-identical, "
          f"{adopted:g} adopted by the restarted server")
    return 0


def main() -> int:
    return asyncio.run(_run())


if __name__ == "__main__":
    raise SystemExit(main())
