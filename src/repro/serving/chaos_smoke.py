"""Fixed-seed chaos drill gate for the recovery stack (``make chaos``).

Starts a journaled network server behind the seeded chaos proxy, cuts
the first client's connection mid-stream after a deterministic byte
budget, and drives fault-tolerant load-generator clients through the
proxy.  The gate fails loudly unless the drill ends clean: the cut was
actually injected, the severed session resumed via RESUME and finished,
every session delivered all its frames, and zero protocol errors
surfaced.  Everything derives from one fixed seed, so the drill injects
the same fault sequence on every run.
"""

from __future__ import annotations

import asyncio
import sys
import tempfile

from repro.observability import get_registry
from repro.serving.chaos import ChaosConfig, ChaosProxy
from repro.serving.loadgen import LoadGenConfig, run_loadgen_async
from repro.serving.server import NetworkServer, ServeNetConfig

SEED = 11


async def _run(sessions: int, frames: int) -> int:
    with tempfile.TemporaryDirectory() as journal_dir:
        server = NetworkServer(ServeNetConfig(
            port=0, journal_dir=journal_dir,
        ))
        await server.start()
        try:
            async with ChaosProxy(
                "127.0.0.1", server.port,
                ChaosConfig(seed=SEED, cut_after_c2s_bytes=40000,
                            cut_connections=1, latency_spike_rate=0.02),
            ) as proxy:
                report = await run_loadgen_async(LoadGenConfig(
                    port=proxy.port, sessions=sessions, frames=frames,
                    width=96, height=96, gop=4, seed=SEED,
                    arrival="poisson", rate_hz=50.0,
                    max_reconnects=4, backoff_base_s=0.02,
                ))
                counts = dict(proxy.counts)
        finally:
            await server.drain()

    print(report.summary())
    print("chaos faults injected: "
          + (", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
             or "none"))
    failures = []
    if counts.get("cut", 0) != 1:
        failures.append("deterministic mid-stream cut was not injected")
    if report.resumes == 0:
        failures.append("the severed session never resumed")
    if report.protocol_errors:
        failures.append(f"{report.protocol_errors} protocol error(s)")
    if report.errored:
        failures.append(f"{report.errored} session error(s)")
    delivered = report.frames_encoded + sum(
        s.frames_dropped for s in report.sessions
    )
    if delivered != sessions * frames:
        failures.append(
            f"delivered {delivered}/{sessions * frames} frame outcomes"
        )
    resumes = get_registry().value("repro_serving_resumes_total") or 0
    if resumes == 0:
        failures.append("server counted no resumes")
    if failures:
        print("chaos drill FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("chaos drill OK")
    return 0


def main() -> int:
    return asyncio.run(_run(sessions=3, frames=12))


if __name__ == "__main__":
    raise SystemExit(main())
