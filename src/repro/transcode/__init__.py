"""End-to-end transcoding: the paper's Fig. 2 pipeline for one stream
and the multi-user serving simulation."""

from repro.transcode.pipeline import (
    PipelineConfig,
    StreamTranscoder,
    StreamTrace,
    GopRecord,
    FrameRecord,
    TileRecord,
)
from repro.transcode.server import TranscodingServer, ServingReport

__all__ = [
    "PipelineConfig",
    "StreamTranscoder",
    "StreamTrace",
    "GopRecord",
    "FrameRecord",
    "TileRecord",
    "TranscodingServer",
    "ServingReport",
]
