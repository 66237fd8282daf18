"""The correctness gate: what the server returned must be right before
any of its timings count."""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.video.metrics import psnr
from repro.video.scale import downscale_plane

from client import ClientResult
from workloads import FPS, GOP, Workload, pingpong_index


def pixels(observed: ClientResult, clips) -> List[str]:
    """Every eighth frame's reconstruction must be nearer to the plane
    that frame carried than to the planes sent just before and after
    it.  (The ENCODED ``psnr`` field is a mean over tiles the client
    cannot see, so it cannot be recomputed from the wire.)"""
    problems = []
    for session, rec, rung, width, height, luma in observed.kept:
        clip = clips[session.conn][session.content_slot]
        recon = np.frombuffer(luma, dtype=np.uint8).reshape(height, width)

        def source(pos: int):
            plane = clip[pos % len(clip)]
            if plane.shape != recon.shape:
                plane = downscale_plane(plane, height, width)
            return plane

        own = psnr(source(rec.clip_pos), recon)
        others = max(psnr(source(rec.clip_pos + d), recon)
                     for d in (-1, 1))
        if own <= others:
            problems.append(
                f"conn {session.conn} frame {rec.k} rung {rung}: "
                f"reconstruction matches a neighbouring frame better "
                f"({own:.2f} dB vs {others:.2f} dB)")
    if not observed.kept:
        problems.append("no reconstruction was compared with its source")
    return problems


def outcomes(observed: ClientResult, workload: Workload) -> List[str]:
    """Every frame sent got exactly one outcome (one per rung for a
    delivered ladder frame), and the sessions ended in order."""
    problems = []
    for s, session in enumerate(observed.sessions):
        where = f"conn {session.conn} session {s}"
        spec = workload.connections[session.conn]
        rungs = len(spec.ladder) if spec.ladder else 1
        if not session.bye_ns:
            problems.append(f"{where}: no BYE")
        for f in session.frames:
            want = 1 if f.dropped in ("backpressure", "policy",
                                      "watchdog") else rungs
            if f.outcomes != want or not f.recv_ns:
                problems.append(
                    f"{where} frame {f.k}: {f.outcomes} outcomes, "
                    f"expected {want}")
                break
        received = session.stats.get("frames_received")
        if received != len(session.frames):
            problems.append(
                f"{where}: server counted {received} frames, "
                f"{len(session.frames)} were sent")
    return problems


def _reference(spec, content: str, planes: Sequence) -> List[tuple]:
    """(frame, rung, bits, psnr, crc32(recon)) of an in-process encode
    with the configuration a default ``serve-net`` gives a session.
    Reaches below the public surface, hence the late imports: the
    caller turns their failure into a warning."""
    from repro.codec.config import EncoderConfig, GopConfig
    from repro.resilience.degradation import ResilienceConfig
    from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
    from repro.video.frame import Frame
    from repro.video.generator import ContentClass

    config = PipelineConfig(
        fps=FPS, gop=GopConfig(GOP),
        base_config=EncoderConfig(qp=32, search="hexagon",
                                  search_window=64),
        content_class=ContentClass(content), resilience=ResilienceConfig(),
    )
    frames = [Frame(p, index=i) for i, p in enumerate(planes)]
    if spec.ladder:
        from repro.ladder.config import LadderConfig, LadderRung
        from repro.ladder.session import LadderSession

        encoder = LadderSession(base_config=config, ladder=LadderConfig(
            rungs=tuple(LadderRung(w, h) for w, h in spec.ladder),
            prune=False))
        outputs = [o for f in frames for o in encoder.push(f)]
        outputs += encoder.finish()
        encoder.close()
    else:
        with StreamTranscoder(config) as transcoder:
            session = transcoder.open_session()
            outputs = [o for f in frames for o in session.push(f)]
            outputs += session.finish()
    return sorted(
        (o.frame_index, o.rung, o.record.bits,
         float(np.mean([t.psnr for t in o.record.tiles])),
         zlib.crc32(o.reconstruction) & 0xFFFFFFFF)
        for o in outputs if o.dropped is None
    )


def against_reference(observed: ClientResult, workload: Workload,
                      clips) -> Tuple[List[str], Optional[str]]:
    """First two GOPs of every closed-loop session against an
    in-process encode of the same planes: same bits, same pixels."""
    problems: List[str] = []
    cache = {}
    for s, session in enumerate(observed.sessions):
        spec = workload.connections[session.conn]
        key = (session.conn, session.content_slot)
        if key not in cache:
            clip = clips[session.conn][session.content_slot]
            planes = [clip[pingpong_index(k, len(clip))]
                      for k in range(2 * GOP)]
            try:
                cache[key] = _reference(spec, session.content, planes)
            except (ImportError, AttributeError, TypeError) as exc:
                return problems, (
                    "reference encode unavailable, first-GOP comparison "
                    f"skipped: {type(exc).__name__}: {exc}")
        got = sorted((f.k, rung, bits, psnr, crc)
                     for f in session.frames[:2 * GOP]
                     for rung, bits, psnr, crc in f.recon)
        if got != cache[key]:
            problems.append(
                f"conn {session.conn} session {s}: first two GOPs differ "
                f"from the in-process reference")
    return problems, None
