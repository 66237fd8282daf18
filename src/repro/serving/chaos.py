"""Seeded chaos proxy for the serving path.

A TCP man-in-the-middle that sits between :mod:`repro.serving.loadgen`
and :mod:`repro.serving.server` and injects the network fault classes
an online transcoding service actually meets:

* **latency spikes** — a forwarded chunk is held for a configured
  delay (congestion, a retransmit burst),
* **half-open stalls** — forwarding silently pauses while the socket
  stays open (the failure mode watchdogs exist for),
* **a deterministic cut** — the transport is aborted mid-stream after
  an exact byte count (NAT timeout, a crashed middlebox; the peer sees
  ``ECONNRESET``).

All randomness flows through per-connection, per-direction
``numpy`` generators derived from ``ChaosConfig.seed``, so a drill
with one seed injects one reproducible fault sequence per connection
regardless of task scheduling order.

``cut_after_c2s_bytes`` cuts a connection after *exactly* that many
client-to-server payload bytes have been forwarded, and
``cut_connections`` bounds how many connections suffer the cut — set
it to 1 and the reconnect sails through the same proxy untouched.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

__all__ = ["ChaosConfig", "ChaosProxy"]

_CHUNK = 65536


@dataclass(frozen=True)
class ChaosConfig:
    """Rates of each injected network fault (probabilities are per
    forwarded chunk, per direction)."""

    seed: int = 0
    latency_spike_rate: float = 0.0
    latency_spike_s: float = 0.05
    stall_rate: float = 0.0
    stall_s: float = 0.25
    #: Deterministic cut: abort after exactly this many client->server
    #: bytes (0 disables).
    cut_after_c2s_bytes: int = 0
    #: Only the first N accepted connections are subject to the cut.
    cut_connections: int = 1

    def __post_init__(self) -> None:
        # A NaN or infinite delay reaches ``asyncio.sleep``, which
        # never returns.
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("latency_spike_rate", "stall_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.latency_spike_s < 0 or self.stall_s < 0:
            raise ValueError("delays must be non-negative")
        if self.cut_after_c2s_bytes < 0 or self.cut_connections < 0:
            raise ValueError("cut parameters must be non-negative")


class ChaosProxy:
    """Asyncio TCP proxy injecting seeded faults; counts what it did.

    Usable as an async context manager::

        async with ChaosProxy("127.0.0.1", server_port, cfg) as proxy:
            ...  # connect clients to ("127.0.0.1", proxy.port)
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 config: ChaosConfig = ChaosConfig(),
                 host: str = "127.0.0.1", port: int = 0):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.config = config
        self.host = host
        self.port = port
        self.connections = 0
        #: ``fault kind -> number injected`` (deterministic given seed
        #: and traffic).
        self.counts: Dict[str, int] = {}
        self._server: Optional[asyncio.AbstractServer] = None

    def _tally(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ChaosProxy":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- forwarding ----------------------------------------------------
    async def _handle(self, client_reader: asyncio.StreamReader,
                      client_writer: asyncio.StreamWriter) -> None:
        conn_index = self.connections
        self.connections += 1
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            self._tally("upstream_refused")
            client_writer.transport.abort()
            return
        cut_budget = None
        if (self.config.cut_after_c2s_bytes > 0
                and conn_index < self.config.cut_connections):
            cut_budget = self.config.cut_after_c2s_bytes
        writers = (client_writer, up_writer)
        pumps = [
            asyncio.ensure_future(self._pump(
                client_reader, up_writer, writers,
                rng=np.random.default_rng(
                    [self.config.seed, conn_index, 0]
                ),
                cut_budget=cut_budget,
            )),
            asyncio.ensure_future(self._pump(
                up_reader, client_writer, writers,
                rng=np.random.default_rng(
                    [self.config.seed, conn_index, 1]
                ),
                cut_budget=None,
            )),
        ]
        try:
            await asyncio.gather(*pumps, return_exceptions=True)
        finally:
            for w in writers:
                try:
                    w.close()
                except RuntimeError:  # pragma: no cover - loop teardown
                    pass

    async def _pump(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, writers,
                    rng: np.random.Generator,
                    cut_budget: Optional[int]) -> None:
        cfg = self.config
        try:
            while True:
                chunk = await reader.read(_CHUNK)
                if not chunk:
                    if writer.can_write_eof():
                        try:
                            writer.write_eof()
                        except (OSError, RuntimeError):
                            pass
                    return
                if cut_budget is not None:
                    if len(chunk) >= cut_budget:
                        # Forward exactly the budget, then die
                        # mid-message: the deterministic mid-GOP cut.
                        writer.write(chunk[:cut_budget])
                        try:
                            await writer.drain()
                        except (ConnectionError, OSError):
                            pass
                        self._tally("cut")
                        self._abort(writers)
                        return
                    cut_budget -= len(chunk)
                if cfg.stall_rate > 0 and rng.random() < cfg.stall_rate:
                    # Half-open stall: the socket stays up, nothing
                    # moves — the peer just sees silence.
                    self._tally("stall")
                    await asyncio.sleep(cfg.stall_s)
                elif (cfg.latency_spike_rate > 0
                      and rng.random() < cfg.latency_spike_rate):
                    self._tally("latency_spike")
                    await asyncio.sleep(cfg.latency_spike_s)
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError):
            return

    @staticmethod
    def _abort(writers) -> None:
        for w in writers:
            transport = w.transport
            if transport is not None:
                transport.abort()
