"""The benchmark's workload table and input synthesis.

A workload is a traffic mix: how many connections, what each sends and
whether the next frame waits for a reply (closed loop) or for the clock
(open loop).  The table is normative — ``BENCHMARK.json`` repeats the
names and the one-line reasons — and everything a workload sends is a
pure function of ``--seed``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

GOP = 8
FPS = 24.0
#: Frames of one synthetic clip.  Clips are played ping-pong so a long
#: run needs no long synthesis and never crosses a scene cut.
CLIP_FRAMES = 96
#: Seconds of traffic before the measured window (charged to setup_s).
WARMUP_S = 2.0
#: A paced frame is on time when its outcome arrives within one GOP
#: period to fill the GOP plus one to encode it: beyond that the
#: backlog grows.
DEADLINE_S = 2 * GOP / FPS
#: Frames a closed-loop connection keeps in flight: two GOPs, so the
#: server encodes one while the next one fills.
INFLIGHT = 16
#: Frames per session of the churn workload (two GOPs).
CHURN_FRAMES = 16
LADDER: Tuple[Tuple[int, int], ...] = ((640, 480), (480, 360), (320, 240))


@dataclass(frozen=True)
class Connection:
    """What one client connection plays."""

    width: int
    height: int
    #: Content classes of successive sessions (cycled); one entry for a
    #: connection that holds a single long session.
    contents: Tuple[str, ...]
    #: Frames per session; ``None`` streams one session until the
    #: window closes.
    session_frames: Optional[int] = None
    ladder: Optional[Tuple[Tuple[int, int], ...]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``True``: frame *k* is due at ``t0 + k/FPS`` whatever the server
    #: does.  ``False``: at most :data:`INFLIGHT` frames in flight.
    open_loop: bool
    connections: Tuple[Connection, ...]
    journal: bool


def _vga(*contents: str, **kw) -> Connection:
    return Connection(640, 480, tuple(contents), **kw)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "vga_solo",
        "one unpaced 640x480 session, journal off: single-thread capacity "
        "of motion+codec; concurrency and journal changes must not show",
        open_loop=False, connections=(_vga("brain"),), journal=False,
    ),
    Workload(
        "vga_rt1",
        "one 640x480 session paced at 24 fps, journal+fsync on: the "
        "paper's operating point at a sustainable rate; reference row "
        "for latency",
        open_loop=True, connections=(_vga("brain"),), journal=True,
    ),
    Workload(
        "vga_duo",
        "two unpaced 640x480 sessions at once, journal on: the same "
        "layers as vga_rt1 with two encode threads contending; a "
        "concurrency fix shows here and nowhere else",
        open_loop=False, connections=(_vga("brain"), _vga("cardiac")),
        journal=True,
    ),
    Workload(
        "vga_ladder",
        "one unpaced 640x480 session asking for the 3-rung ladder: three "
        "encodes and a downscale per frame through the separate ladder "
        "path, no journal",
        open_loop=False, connections=(_vga("bone", ladder=LADDER),),
        journal=False,
    ),
    Workload(
        "small_churn",
        "two connections of back-to-back 16-frame 96x96 sessions, journal "
        "and lease on: handshake, admission, journal create and teardown "
        "dominate; kernels do little",
        open_loop=False,
        connections=(
            Connection(96, 96, ("brain", "bone", "lung"),
                       session_frames=CHURN_FRAMES),
            Connection(96, 96, ("bone", "lung", "brain"),
                       session_frames=CHURN_FRAMES),
        ),
        journal=True,
    ),
)}


def pingpong_index(k: int, n: int = CLIP_FRAMES) -> int:
    """Clip position of the *k*-th frame sent: 0..n-1, n-2..1, 0..."""
    if n == 1:
        return 0
    k %= 2 * n - 2
    return k if k < n else 2 * n - 2 - k


def row_fingerprint(luma) -> int:
    """CRC of a plane's middle row: how a traced server-side span is
    tied to the client-side frame it carries, from pixels alone."""
    return zlib.crc32(luma[luma.shape[0] // 2]) & 0xFFFFFFFF


def synthesize_clips(workload: Workload, seed: int) -> List[List[list]]:
    """Per connection, per content class, the clip as a list of planes.

    Connection *c* draws from ``seed * 16 + c``, so two connections
    never carry identical pixels (which is also what lets a traced span
    be matched to one connection by fingerprint).
    """
    from repro.video.generator import ContentClass, generate_video

    clips = []
    for c, conn in enumerate(workload.connections):
        frames = conn.session_frames or CLIP_FRAMES
        per_content = []
        for content in conn.contents:
            video = generate_video(
                content_class=ContentClass(content), width=conn.width,
                height=conn.height, num_frames=frames, seed=seed * 16 + c,
            )
            per_content.append([f.luma for f in video.frames])
        clips.append(per_content)
    return clips
