"""GOP-aligned segmented output with a JSON playlist manifest.

Each rung's output is cut into *segments* of ``segment_gops`` GOPs.
Segment boundaries therefore land on GOP boundaries by construction,
and every segment opens on an I frame — the property that lets a
client switch rungs mid-stream: play rung A's segments up to boundary
``k``, then decode rung B from its segment ``k`` without any reference
to B's earlier segments.

The segment *format* is the serving wire protocol itself: a segment
file is the concatenation of ENCODED wire frames
(:func:`repro.serving.protocol.encode_encoded_into`, rung id in the
header flags), so any protocol consumer — including the zero-copy
:class:`MessageDecoder` — plays segments back without a second parser,
and segment bytes are checksummed twice (per-message CRC inside, whole
file CRC in the manifest).

The manifest (``manifest.json``) is an HLS-style playlist: ingest
geometry, GOP/segment cadence, the surviving rungs with their segment
lists, and the pruned rungs with the predicted gain that killed them.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.ladder.planner import LadderPlan
from repro.serving.protocol import (
    Encoded,
    MessageDecoder,
    ProtocolError,
    encode_encoded_into,
)
from repro.transcode.pipeline import FrameOutput

__all__ = [
    "MANIFEST_NAME",
    "SegmentRef",
    "LadderSegmentWriter",
    "LadderSegmentReader",
    "frame_psnr",
]

MANIFEST_NAME = "manifest.json"


def frame_psnr(output: FrameOutput) -> float:
    """The serving layer's per-frame PSNR convention (mean over tiles)."""
    if output.record is None or not output.record.tiles:
        return 0.0
    return output.record.psnr


@dataclass(frozen=True)
class SegmentRef:
    """One manifest segment entry."""

    uri: str
    first_frame: int
    frames: int
    crc32: str  # hex crc of the whole segment file

    def to_dict(self) -> dict:
        return {
            "uri": self.uri, "first_frame": self.first_frame,
            "frames": self.frames, "crc32": self.crc32,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentRef":
        return cls(
            uri=str(data["uri"]), first_frame=int(data["first_frame"]),
            frames=int(data["frames"]), crc32=str(data["crc32"]),
        )


class _RungState:
    """Per-rung open segment accumulator."""

    def __init__(self, rung_id: int, width: int, height: int, name: str):
        self.rung_id = rung_id
        self.width = width
        self.height = height
        self.name = name
        self.buf = bytearray()
        self.frames_in_segment = 0
        self.first_frame: Optional[int] = None
        self.segments: List[SegmentRef] = []
        self.next_index = 0


class LadderSegmentWriter:
    """Writes rung-tagged :class:`FrameOutput`\\ s as GOP-aligned
    segments plus a playlist manifest.

    ``segment_frames`` (= ``gop * segment_gops``) frames are appended
    to each rung's open segment before it is cut; feed outputs in
    frame order per rung (the order :class:`LadderSession` emits).
    """

    def __init__(
        self,
        out_dir: Path,
        plan: LadderPlan,
        ingest_width: int,
        ingest_height: int,
        gop: int,
        segment_gops: int,
        fps: float = 24.0,
    ):
        if gop < 1 or segment_gops < 1:
            raise ValueError("gop and segment_gops must be >= 1")
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.plan = plan
        self.ingest_width = ingest_width
        self.ingest_height = ingest_height
        self.gop = gop
        self.segment_gops = segment_gops
        self.segment_frames = gop * segment_gops
        self.fps = fps
        self._rungs: Dict[int, _RungState] = {}
        for planned in plan.rungs:
            r = planned.rung
            self._rungs[planned.rung_id] = _RungState(
                planned.rung_id, r.width, r.height, r.name
            )
            (self.out_dir / f"rung{planned.rung_id}").mkdir(exist_ok=True)
        self._closed = False

    # -- writing -------------------------------------------------------
    def add(self, output: FrameOutput) -> None:
        """Append one rung-tagged output to its rung's open segment."""
        if self._closed:
            raise ValueError("writer already finalized")
        try:
            state = self._rungs[output.rung]
        except KeyError:
            raise ValueError(
                f"output tagged rung {output.rung}, which is not in the "
                f"plan ({sorted(self._rungs)})"
            ) from None
        if state.frames_in_segment >= self.segment_frames:
            self._cut(state)
        if state.first_frame is None:
            state.first_frame = output.frame_index
        dropped = output.dropped
        recon = output.reconstruction
        ftype = "" if output.frame_type is None else output.frame_type.value
        if dropped is not None or recon is None:
            encode_encoded_into(
                state.buf, output.frame_index, frame_type="",
                dropped=dropped or "deadline", width=state.width,
                height=state.height, flags=output.rung,
            )
        else:
            encode_encoded_into(
                state.buf, output.frame_index, frame_type=ftype,
                dropped=None, width=recon.shape[1], height=recon.shape[0],
                bits=output.record.bits if output.record else 0,
                psnr=frame_psnr(output), luma=recon, flags=output.rung,
            )
        state.frames_in_segment += 1

    def _cut(self, state: _RungState) -> None:
        if state.frames_in_segment == 0:
            return
        uri = f"rung{state.rung_id}/seg{state.next_index:05d}.seg"
        data = bytes(state.buf)
        (self.out_dir / uri).write_bytes(data)
        state.segments.append(SegmentRef(
            uri=uri,
            first_frame=state.first_frame or 0,
            frames=state.frames_in_segment,
            crc32=f"{zlib.crc32(data) & 0xFFFFFFFF:08x}",
        ))
        state.next_index += 1
        state.buf = bytearray()
        state.frames_in_segment = 0
        state.first_frame = None

    def finalize(self) -> dict:
        """Cut every open segment and write ``manifest.json``."""
        if self._closed:
            raise ValueError("writer already finalized")
        self._closed = True
        for state in self._rungs.values():
            self._cut(state)
        manifest = {
            "version": 1,
            "ingest": {
                "width": self.ingest_width, "height": self.ingest_height,
                "fps": self.fps, "gop": self.gop,
            },
            "segment_gops": self.segment_gops,
            "segment_frames": self.segment_frames,
            "complexity": self.plan.complexity,
            "rungs": [
                {
                    "id": s.rung_id, "width": s.width, "height": s.height,
                    "name": s.name,
                    "segments": [ref.to_dict() for ref in s.segments],
                }
                for s in self._rungs.values()
            ],
            "pruned": [
                {"id": rung_id, "predicted_gain_db": gain}
                for rung_id, gain in self.plan.pruned
            ],
        }
        path = self.out_dir / MANIFEST_NAME
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        return manifest


class LadderSegmentReader:
    """Plays back a segmented ladder directory through the protocol
    decoder, verifying both checksum layers."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        self.manifest = json.loads(manifest_path.read_text())
        self.rungs: Dict[int, dict] = {
            int(r["id"]): r for r in self.manifest["rungs"]
        }

    def segment_refs(self, rung_id: int) -> List[SegmentRef]:
        return [
            SegmentRef.from_dict(d)
            for d in self.rungs[rung_id]["segments"]
        ]

    def read_segment(self, rung_id: int, index: int) -> List[Encoded]:
        """Decode one segment file; every reference must resolve and
        both the file CRC and each message CRC must verify."""
        ref = self.segment_refs(rung_id)[index]
        path = self.directory / ref.uri
        data = path.read_bytes()
        crc = f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"
        if crc != ref.crc32:
            raise ProtocolError(
                f"segment {ref.uri} crc {crc} != manifest {ref.crc32}"
            )
        messages = MessageDecoder().feed(data)
        if len(messages) != ref.frames:
            raise ProtocolError(
                f"segment {ref.uri} holds {len(messages)} frames, "
                f"manifest says {ref.frames}"
            )
        for msg in messages:
            if not isinstance(msg, Encoded) or msg.rung != rung_id:
                raise ProtocolError(
                    f"segment {ref.uri} carries a foreign message {msg!r}"
                )
        return messages
