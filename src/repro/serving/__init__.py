"""Network serving layer: asyncio streaming front-end for the pipeline.

The paper's system is *online*: users arrive, are admitted against the
``1/FPS`` slot budget (Algorithm 2) and stream frames continuously.
This package puts a real network path in front of the reproduction:

* :mod:`repro.serving.protocol` — length-prefixed binary wire protocol
  (HELLO/FRAME/ENCODED/STATS/BYE messages, versioned, CRC-checked);
* :mod:`repro.serving.admission` — admission controller driven by the
  workload-LUT estimator and Algorithm-2 occupancy;
* :mod:`repro.serving.server` — asyncio server with per-client
  sessions, bounded queues and backpressure, encoding GOPs online
  through :class:`repro.transcode.pipeline.ProposedStreamSession`
  (bit-identical to the offline path);
* :mod:`repro.serving.loadgen` — load-generator client with Poisson or
  burst arrivals, a content-class mix and a latency report;
* :mod:`repro.serving.statestore` — externalised session state
  (:class:`~repro.serving.statestore.SharedDirStateStore`:
  shared-directory journals + one ``flock`` per token as its
  single-owner lease, so a restarted server adopts a killed one's
  sessions).
"""

from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.serving.protocol import (
    Bye,
    Encoded,
    ErrorMsg,
    FrameMsg,
    Hello,
    HelloAck,
    MessageDecoder,
    MsgType,
    ProtocolError,
    Stats,
    encode_message,
    read_message,
    write_message,
)
from repro.serving.server import NetworkServer, ServeNetConfig
from repro.serving.loadgen import LoadGenConfig, LoadReport, run_loadgen
from repro.serving.statestore import SharedDirStateStore

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "Bye",
    "Encoded",
    "ErrorMsg",
    "FrameMsg",
    "Hello",
    "HelloAck",
    "LoadGenConfig",
    "LoadReport",
    "MessageDecoder",
    "MsgType",
    "NetworkServer",
    "ProtocolError",
    "ServeNetConfig",
    "SharedDirStateStore",
    "Stats",
    "encode_message",
    "read_message",
    "run_loadgen",
    "write_message",
]
