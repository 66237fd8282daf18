"""HEVC-like block codec substrate.

A pure-Python/numpy stand-in for Kvazaar [23], the open-source HEVC
encoder the paper builds on.  It is a genuine codec — it produces a
decodable bitstream and reconstructs frames through the same
prediction/transform/quantization loop a conformant encoder uses — but
simplified where HEVC's full generality does not affect the paper's
mechanisms (see DESIGN.md):

* 16x16 coding blocks (HEVC CTUs are up to 64x64) with 8x8 transforms;
* intra prediction: DC / planar / horizontal / vertical;
* inter prediction: integer-pel motion compensation from one reference;
* flat quantization with the HEVC QP-to-step law ``Qstep = 2^((QP-4)/6)``;
* zigzag + run-length + exp-Golomb entropy coding (HEVC uses CABAC; the
  rate *ordering* across QPs and content is what matters here).

Every encode call returns exact operation counts that feed the MPSoC
cost model (``repro.platform``).
"""

from repro.codec.config import EncoderConfig, GopConfig, FrameType
from repro.codec.encoder import (
    TileEncoder,
    FrameEncoder,
    VideoEncoder,
    TileStats,
    FrameStats,
    SequenceStats,
)
from repro.codec.decoder import FrameDecoder
from repro.codec.ops import OpCounts
from repro.codec.bitstream import BitReader, BitWriter

__all__ = [
    "EncoderConfig",
    "GopConfig",
    "FrameType",
    "TileEncoder",
    "FrameEncoder",
    "VideoEncoder",
    "TileStats",
    "FrameStats",
    "SequenceStats",
    "FrameDecoder",
    "OpCounts",
    "BitReader",
    "BitWriter",
]
