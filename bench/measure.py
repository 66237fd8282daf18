"""Run one workload once and turn what was observed into metrics."""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from typing import Dict, List, Optional

import calibrate
import check
from client import ClientResult, Event, Schedule, drive
from server_proc import ServerError, ServerProcess
from stats import percentile, samples_beyond, supported
from workloads import (
    DEADLINE_S,
    FPS,
    GOP,
    WARMUP_S,
    WORKLOADS,
    Workload,
    synthesize_clips,
)

#: How long after the window a run may still be draining before it is
#: declared wedged (the whole command must end within 180 s).
_DRAIN_LIMIT_S = 60.0
#: Slack between "server is up" and the first due frame, so connecting
#: and the handshake never make the generator late.
_LEAD_S = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "frame_latency_p50_ms": "ms",
    "delivered_frac": "ratio",
    "psnr_db": "dB",
    "bitrate_mbps": "Mbit/s",
    "server_cpu_ms_per_frame": "ms",
    "server_rss_mb": "MB",
}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 started_ns: int) -> Dict[str, object]:
    """One fresh server, one run of ``name``; never raises for a failed
    check — the result says ``valid: false`` and why."""
    workload = WORKLOADS[name]
    out: Dict[str, object] = {
        "workload": name, "traced": traced, "seed": seed,
        "window_s": seconds, "warmup_s": WARMUP_S, "valid": False,
        "errors": [], "warnings": [],
    }
    clips = synthesize_clips(workload, seed)
    server = ServerProcess(workload.journal, traced, name)
    try:
        with server:
            t_first = time.monotonic_ns() + int(_LEAD_S * 1e9)
            t0 = t_first + int(WARMUP_S * 1e9)
            schedule = Schedule(t_first, t0, t0 + int(seconds * 1e9))
            out["setup_s"] = (t0 - started_ns) / 1e9
            observed = asyncio.run(asyncio.wait_for(
                drive(workload.connections, clips, workload.open_loop,
                      schedule, server.cpu_ticks, server.port),
                timeout=WARMUP_S + seconds + _DRAIN_LIMIT_S))
            out["server_rss_mb"] = server.rss_peak_mb()
            server.stop()
            samples = calibrate.read_samples(server.probe_path)
            dump = None
            if traced:
                with open(server.spans_path) as fh:
                    dump = json.load(fh)
            if server.proc.returncode != 0:
                out["errors"].append(
                    f"server exit code {server.proc.returncode}:\n"
                    + server.stderr_tail())
    except (ServerError, OSError, RuntimeError, ValueError,
            asyncio.TimeoutError) as exc:
        out["errors"].append(f"{type(exc).__name__}: {exc}")
        tail = server.stderr_tail() if server.run_dir.exists() else ""
        if tail:
            out["server_stderr"] = tail
        return out
    summarise(workload, schedule, observed, clips, samples, dump, out)
    return out


def _window_events(observed: ClientResult,
                   schedule: Schedule) -> List[Event]:
    events = [e for e in observed.events
              if schedule.t0_ns <= e.t_ns < schedule.t_end_ns]
    events.sort(key=lambda e: e.t_ns)
    return events


def summarise(workload: Workload, schedule: Schedule,
              observed: ClientResult, clips, samples, dump: Optional[dict],
              out: Dict[str, object]) -> None:
    errors: List[str] = out["errors"]
    errors += check.outcomes(observed, workload)
    errors += check.pixels(observed, clips)
    if not workload.open_loop:
        problems, warning = check.against_reference(observed, workload,
                                                    clips)
        errors += problems
        if warning:
            out["warnings"].append(warning)

    frames = [f for s in observed.sessions for f in s.frames]
    measured = [f for f in frames if schedule.measured(f)]
    delivered = [f for f in measured if f.delivered]
    # The contract's counts.  A frame fails when it gets no orderly
    # outcome; one the server sheds under load is answered (and counted
    # against delivered_frac), not failed.
    out["attempted"] = len(frames)
    out["failed"] = sum(1 for f in frames if not f.recv_ns)
    out["frames_sent"] = len(measured)
    out["frames_failed"] = len(measured) - len(delivered)
    events = _window_events(observed, schedule)
    if len(events) < 3 or not delivered:
        errors.append(f"only {len(events)} GOPs completed in the window")
        return
    speed = calibrate.speed_index(samples, schedule.t0_ns,
                                  schedule.t_end_ns)
    # Least-squares slopes over the GOP completions inside the window:
    # frames against time, server CPU against frames.  Every event
    # pulls on the slope, so the jitter of the two at the window's
    # edges does not set the result the way a plain count would.
    cumulative = [GOP * (i + 1) for i in range(len(events))]
    seconds = [(e.t_ns - events[0].t_ns) / 1e9 for e in events]
    cpu_ms = [ServerProcess.ticks_to_ms(e.cpu_ticks) for e in events]
    frames_per_s = statistics.linear_regression(seconds, cumulative).slope
    cpu_ms_per_frame = statistics.linear_regression(cumulative, cpu_ms).slope
    latencies = [(f.recv_ns - f.due_ns) / 1e6 for f in delivered]
    # A frame first waits for its GOP to fill — the schedule's time,
    # whatever the machine — and then for the server; only the second
    # leg scales with machine speed.
    at_reference = [
        ((f.gop_sent_ns - f.due_ns) + (f.recv_ns - f.gop_sent_ns) / speed)
        / 1e6 for f in delivered]
    on_time = len(delivered)
    if workload.open_loop:
        on_time = sum(1 for ms in latencies if ms <= DEADLINE_S * 1e3)
    out["latency_samples"] = len(latencies)
    out["latency_samples_beyond_p95"] = samples_beyond(len(latencies), 95)
    if not supported(len(latencies), 95):
        out["warnings"].append(
            f"p95 rests on {len(latencies)} samples, "
            f"{samples_beyond(len(latencies), 95)} beyond it")
    out["end_to_end"] = {
        "setup_s": out.pop("setup_s"),
        # A paced stream's rate is the schedule's; an unpaced one's is
        # the machine's, and is scaled to the reference speed.
        "frames_per_s": frames_per_s * (1.0 if workload.open_loop
                                        else speed),
        "frame_latency_p50_ms": percentile(at_reference, 50),
        "delivered_frac": len(delivered) / len(measured),
        "psnr_db": statistics.fmean(f.psnr for f in delivered),
        "bitrate_mbps": (sum(f.bits for f in delivered)
                         / (len(delivered) / FPS) / 1e6),
        "server_cpu_ms_per_frame": cpu_ms_per_frame / speed,
        "server_rss_mb": out.pop("server_rss_mb"),
    }
    #: What a stopwatch beside the machine would have read.
    out["observed"] = {
        "machine.speed_index": speed,
        "raw.frames_per_s": frames_per_s,
        "raw.frame_latency_p50_ms": percentile(latencies, 50),
        "raw.frame_latency_p95_ms": percentile(latencies, 95),
        "raw.server_cpu_ms_per_frame": cpu_ms_per_frame,
        "client.on_time_frac": on_time / len(measured),
    }
    if dump is not None:
        import layers

        out["per_layer"] = dict(out["observed"])
        out["per_layer"].update(layers.per_layer(
            schedule, observed, clips, dump, events, out))
    out["valid"] = not errors
