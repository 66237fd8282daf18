"""Fixed-seed rendition-ladder drill (``make ladder-smoke``).

Encodes one deterministic synthetic stream through a 3-rung ladder and
fails loudly unless every ladder invariant holds:

* the Green-VCA planner keeps all three rungs for this content (its
  complexity clears the default gain threshold);
* every segment boundary lands on a GOP boundary and every manifest
  reference resolves with both checksum layers intact;
* each rung's output is **bit-identical** to an independent
  single-rung session (same pinned content class) over the same
  box-downscaled frames;
* each rung's CRC-32 output digest matches the committed golden
  (``tests/golden/ladder_smoke.json``) — regenerate after an
  intentional encoder change with ``--update-golden``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import zlib
from pathlib import Path
from typing import Dict, List

from repro.codec.config import GopConfig
from repro.ladder.config import LadderConfig, default_rungs_for
from repro.ladder.segments import LadderSegmentReader, LadderSegmentWriter
from repro.ladder.session import LadderSession
from repro.transcode.pipeline import (
    FrameOutput,
    PipelineConfig,
    StreamTranscoder,
)
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)
from repro.video.scale import downscale_frame

#: Drill geometry: everything below is part of the golden contract.
WIDTH, HEIGHT = 256, 192
FRAMES = 16
GOP = 4
SEGMENT_GOPS = 2
SEED = 7
CONTENT = ContentClass.BRAIN

GOLDEN_PATH = (
    Path(__file__).resolve().parents[3] / "tests" / "golden"
    / "ladder_smoke.json"
)


def _rung_digest(outputs: List[FrameOutput]) -> str:
    """CRC-32 folded over one rung's outputs in frame order."""
    crc = 0
    for out in sorted(outputs, key=lambda o: o.frame_index):
        ftype = "" if out.frame_type is None else out.frame_type.value
        bits = out.record.bits if out.record else 0
        head = f"{out.frame_index}:{ftype}:{out.dropped or ''}:{bits}"
        crc = zlib.crc32(head.encode(), crc)
        if out.reconstruction is not None:
            crc = zlib.crc32(out.reconstruction.tobytes(), crc)
    return f"{crc & 0xFFFFFFFF:08x}"


def run(update_golden: bool = False) -> int:
    video = BioMedicalVideoGenerator(GeneratorConfig(
        width=WIDTH, height=HEIGHT, num_frames=FRAMES, seed=SEED,
        content_class=CONTENT, motion=MotionPreset.PAN_RIGHT,
    )).generate()
    base = PipelineConfig(fps=video.fps, gop=GopConfig(GOP))
    ladder_cfg = LadderConfig(
        rungs=default_rungs_for(WIDTH, HEIGHT), segment_gops=SEGMENT_GOPS,
    )
    failures: List[str] = []

    by_rung: Dict[int, List[FrameOutput]] = {}
    with LadderSession(base_config=base, ladder=ladder_cfg) as session:
        outputs: List[FrameOutput] = []
        for frame in video.frames:
            outputs.extend(session.push(frame))
        session.finish()
        plan = session.plan
        pinned = {
            rs.rung_id: rs.transcoder.config.content_class
            for rs in session.rung_sessions
        }
    for out in outputs:
        by_rung.setdefault(out.rung, []).append(out)

    if len(plan.rungs) != 3:
        failures.append(
            f"expected the full 3-rung ladder, planner kept "
            f"{len(plan.rungs)} (pruned {plan.pruned})"
        )
    for rung_id, outs in by_rung.items():
        if len(outs) != FRAMES:
            failures.append(
                f"rung {rung_id} produced {len(outs)}/{FRAMES} outputs"
            )

    # -- segments: GOP alignment + manifest resolution ------------------
    with tempfile.TemporaryDirectory(prefix="ladder_smoke_") as tmp:
        writer = LadderSegmentWriter(
            Path(tmp), plan, WIDTH, HEIGHT, gop=GOP,
            segment_gops=SEGMENT_GOPS, fps=video.fps,
        )
        for out in outputs:
            writer.add(out)
        manifest = writer.finalize()
        reader = LadderSegmentReader(Path(tmp))
        for rung in manifest["rungs"]:
            refs = reader.segment_refs(rung["id"])
            for i, ref in enumerate(refs):
                if ref.first_frame % GOP != 0:
                    failures.append(
                        f"rung {rung['id']} segment {i} opens at frame "
                        f"{ref.first_frame}: not a GOP boundary"
                    )
                msgs = reader.read_segment(rung["id"], i)
                if msgs and msgs[0].frame_type not in ("I", ""):
                    failures.append(
                        f"rung {rung['id']} segment {i} opens on a "
                        f"{msgs[0].frame_type} frame, not I"
                    )
            total = sum(ref.frames for ref in refs)
            if total != FRAMES:
                failures.append(
                    f"rung {rung['id']} segments carry {total}/{FRAMES} "
                    "frames"
                )

    # -- bit-identity vs independent single-rung sessions ---------------
    for planned in plan.rungs:
        cfg = PipelineConfig(
            fps=video.fps, gop=GopConfig(GOP),
            content_class=pinned[planned.rung_id],
        )
        with StreamTranscoder(cfg) as transcoder:
            independent = transcoder.open_session()
            solo: List[FrameOutput] = []
            for frame in video.frames:
                scaled = downscale_frame(
                    frame, planned.rung.width, planned.rung.height
                )
                solo.extend(independent.push(scaled))
            independent.finish()
        ladder_outs = sorted(
            by_rung.get(planned.rung_id, []), key=lambda o: o.frame_index
        )
        solo.sort(key=lambda o: o.frame_index)
        if _rung_digest(ladder_outs) != _rung_digest(solo):
            failures.append(
                f"rung {planned.rung_id} diverges from an independent "
                "single-rung session: bit-identity broken"
            )

    # -- golden digests -------------------------------------------------
    digests = {
        str(planned.rung_id): _rung_digest(by_rung[planned.rung_id])
        for planned in plan.rungs
    }
    golden = {
        "geometry": f"{WIDTH}x{HEIGHT}",
        "frames": FRAMES, "gop": GOP, "segment_gops": SEGMENT_GOPS,
        "seed": SEED, "content": CONTENT.value,
        "complexity": round(plan.complexity, 6),
        "rung_digests": digests,
    }
    if update_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                               + "\n")
        print(f"wrote {GOLDEN_PATH}")
    elif not GOLDEN_PATH.exists():
        failures.append(
            f"golden file missing: {GOLDEN_PATH} "
            "(run with --update-golden to create it)"
        )
    else:
        expected = json.loads(GOLDEN_PATH.read_text())
        if expected != golden:
            failures.append(
                f"golden mismatch:\n  expected {expected}\n  got      "
                f"{golden}\n  (an intentional encoder change needs "
                "--update-golden)"
            )

    for rung_id in sorted(digests):
        print(f"rung {rung_id}: crc32 {digests[rung_id]}")
    if failures:
        print("ladder-smoke FAILED:\n  - " + "\n  - ".join(failures),
              file=sys.stderr)
        return 1
    print(f"ladder-smoke OK ({len(plan.rungs)} rungs, {FRAMES} frames, "
          f"complexity {plan.complexity:.3f})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite tests/golden/ladder_smoke.json")
    args = parser.parse_args(argv)
    return run(update_golden=args.update_golden)


if __name__ == "__main__":
    raise SystemExit(main())
