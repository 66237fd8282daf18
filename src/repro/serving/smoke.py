"""End-to-end smoke gate for the serving layer (``make serve-smoke``).

Starts the network server on an ephemeral port, drives a few short
load-generator sessions against it, and fails loudly unless the run
was clean: every session accepted, zero protocol errors, frames
actually encoded, and a non-empty serving metrics snapshot.
"""

from __future__ import annotations

import asyncio
import sys

from repro.observability import get_registry
from repro.serving.loadgen import LoadGenConfig, run_loadgen_async
from repro.serving.server import NetworkServer, ServeNetConfig


async def _run(sessions: int, frames: int) -> int:
    server = NetworkServer(ServeNetConfig(port=0))
    await server.start()
    try:
        report = await run_loadgen_async(LoadGenConfig(
            port=server.port, sessions=sessions, frames=frames,
            width=96, height=96, seed=7, arrival="poisson", rate_hz=50.0,
        ))
    finally:
        await server.aclose()

    print(report.summary())
    failures = []
    if report.protocol_errors:
        failures.append(f"{report.protocol_errors} protocol error(s)")
    if report.errored:
        failures.append(f"{report.errored} session error(s)")
    if report.accepted != sessions:
        failures.append(
            f"only {report.accepted}/{sessions} sessions accepted"
        )
    if report.frames_encoded == 0:
        failures.append("no frames encoded")
    snapshot = [
        fam for fam in get_registry().to_dict()["metrics"]
        if fam["name"].startswith("repro_serving_") and fam["samples"]
    ]
    if not snapshot:
        failures.append("serving metrics snapshot is empty")
    print(f"serving metrics series: {len(snapshot)}")
    if failures:
        print("serve-smoke FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("serve-smoke OK")
    return 0


def main() -> int:
    return asyncio.run(_run(sessions=3, frames=16))


if __name__ == "__main__":
    raise SystemExit(main())
