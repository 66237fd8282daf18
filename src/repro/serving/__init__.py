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
* :mod:`repro.serving.smoke` — the ``make serve-smoke`` end-to-end
  gate;
* :mod:`repro.serving.statestore` — externalised session state
  (:class:`~repro.serving.statestore.SharedDirStateStore`:
  shared-directory journals + single-owner lease records);
* :mod:`repro.serving.fleet` — supervised multi-worker fleet: crash
  restarts with backoff, heartbeat monitoring and cross-worker session
  adoption (``repro serve-fleet``).
"""

from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    FleetAdmission,
    WorkerLoad,
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
from repro.serving.statestore import Lease, SharedDirStateStore
from repro.serving.fleet import (
    FleetConfig,
    FleetSupervisor,
    RestartPolicy,
    RestartTracker,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "Bye",
    "Encoded",
    "ErrorMsg",
    "FleetAdmission",
    "FleetConfig",
    "FleetSupervisor",
    "FrameMsg",
    "Hello",
    "HelloAck",
    "Lease",
    "LoadGenConfig",
    "LoadReport",
    "MessageDecoder",
    "MsgType",
    "NetworkServer",
    "ProtocolError",
    "RestartPolicy",
    "RestartTracker",
    "ServeNetConfig",
    "SharedDirStateStore",
    "Stats",
    "WorkerLoad",
    "encode_message",
    "read_message",
    "run_loadgen",
    "write_message",
]
