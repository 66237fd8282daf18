"""The per-stream transcoding pipeline (paper Fig. 2).

For each GOP of an input video:

1. evaluate motion & texture of the initial tiling (§III-A),
2. content-aware re-tiling (§III-B),
3. per-tile quality-aware configuration: QP by texture with Algorithm 1
   adaptation, and the proposed fast motion search policy (§III-C),
4. estimate per-tile workloads via the LUT (§III-D1) and expose them as
   :class:`~repro.platform.schedule.ThreadTask` demands for the
   allocator (§III-D2),
5. apply framerate feedback: bottleneck tiles get a smaller search
   window and a higher QP on the next frame — the first rung of the
   session's :class:`~repro.resilience.degradation.DegradationController`,
   which a served stream may climb further.

The same class also runs the Khan et al. [19] baseline mode (uniform
workload-balanced tiling, one global QP, default hexagon search) so
both approaches are measured by exactly the same machinery.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.analysis.evaluator import ContentEvaluator, TileContent
from repro.analysis.motion_probe import MotionClass
from repro.analysis.texture import TextureClass
from repro import native
from repro.codec.config import EncoderConfig, FrameType, GopConfig
from repro.codec.encoder import (
    FrameEncoder,
    FrameStats,
    driver_table,
    search_columns,
)
from repro.codec.quant import quantization_step
from repro.codec.transform import TRANSFORM_SIZE
from repro.motion.proposed import (
    BioMedicalSearchPolicy,
    ProposedSearchConfig,
    merge_learned,
)
from repro.observability import get_registry, get_tracer
from repro.platform.cost_model import CostModel
from repro.platform.mpsoc import MpsocConfig, XEON_E5_2667
from repro.platform.schedule import ThreadTask
from repro.qp.adaptation import QpAdapter, TileQualityFeedback
from repro.qp.defaults import DELTA_QP, QP_MAX, QualityConstraints
from repro.resilience.degradation import (
    DegradationController,
    DegradationLevel,
    DegradationReport,
    ResilienceConfig,
)
from repro.resilience.errors import CorruptFrameError
from repro.tiling.constraints import TilingConstraints
from repro.tiling.content_aware import ContentAwareRetiler
from repro.tiling.tile import TileGrid
from repro.video.frame import Video
from repro.video.metrics import average_psnr, psnr_from_mse
from repro.video.generator import ContentClass
from repro.workload.estimator import WorkloadEstimator
from repro.workload.keys import WorkloadKey, area_bucket


#: Coefficients the codec quantizes per active transform block.
_COEFFS_PER_BLOCK = TRANSFORM_SIZE * TRANSFORM_SIZE


class PipelineMode(enum.Enum):
    PROPOSED = "proposed"
    KHAN = "khan"


_CLASSIFIER = None
_CLASSIFIER_LOCK = threading.Lock()


def _shared_classifier():
    """Process-wide body-part classifier (built once, lazily).

    Double-checked locking: concurrent ``StreamTranscoder.run`` calls
    must not each fit their own classifier (the build is expensive and
    the unsynchronized check-then-assign was a race)."""
    global _CLASSIFIER
    if _CLASSIFIER is None:
        with _CLASSIFIER_LOCK:
            if _CLASSIFIER is None:
                from repro.analysis.classes import default_classifier
                _CLASSIFIER = default_classifier()
    return _CLASSIFIER


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of one stream's transcoding pipeline."""

    mode: PipelineMode = PipelineMode.PROPOSED
    fps: float = 24.0
    gop: GopConfig = GopConfig(8)
    base_config: EncoderConfig = EncoderConfig(qp=32, search="hexagon", search_window=64)
    quality: QualityConstraints = QualityConstraints()
    tiling: TilingConstraints = TilingConstraints()
    search: ProposedSearchConfig = ProposedSearchConfig()
    platform: MpsocConfig = XEON_E5_2667
    content_class: Optional[ContentClass] = None
    #: Re-tile once per GOP (the paper's choice, §III-D2).  ``False``
    #: re-tiles on every frame — the ablation knob quantifying what the
    #: per-GOP amortisation buys (bio-medical tilings stay valid for
    #: ~1 s, paper Fig. 1).
    retile_per_gop: bool = True
    #: [19]: tile/core count per user; ``None`` derives it from the
    #: first GOP's measured workload (capacity rule).
    khan_cores: Optional[int] = None
    #: The deadline controller's ladder and corrupt-frame handling
    #: (proposed mode only).  The default is the paper's framerate
    #: feedback (§III-D2): the ladder capped at its first rung, and a
    #: corrupt frame raises.  A served stream climbs the full ladder
    #: and drops corrupt frames (``ResilienceConfig()``).
    resilience: ResilienceConfig = ResilienceConfig(
        max_level=DegradationLevel.QP_BUMP, drop_corrupt_frames=False,
    )
    #: Output luma height when this pipeline encodes one rung of a
    #: rendition ladder (``repro.ladder``).  Stamped into every
    #: :class:`WorkloadKey` the session records so the LUT learns
    #: per-resolution statistics; ``None`` (full-resolution /
    #: pre-ladder sessions) keeps the legacy key space.
    rung_resolution: Optional[int] = None

    @classmethod
    def khan(cls, **overrides) -> "PipelineConfig":
        """Baseline [19] configuration.

        The paper implements both frameworks "on top of the Kvazaar"
        encoder (§IV-A), so the baseline keeps Kvazaar's default motion
        search (hexagon) at the full window with one frame-wide QP —
        i.e. it lacks the proposed content-aware window shrinking,
        per-tile QPs and GOP direction inheritance.
        """
        defaults = dict(
            mode=PipelineMode.KHAN,
            base_config=EncoderConfig(qp=32, search="hexagon", search_window=64),
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class TileRecord:
    """Per-tile, per-frame outcome.  A session keeps one per tile of
    every frame it encodes, so it is a slotted object: one allocation
    and no per-instance dict.  (``__slots__`` is spelled out because
    ``dataclass(slots=True)`` needs Python 3.10; no field has a default,
    so the two are the same class.)"""

    __slots__ = ("tile_index", "texture", "motion", "qp", "search_window",
                 "bits", "psnr", "cpu_time_fmax")

    tile_index: int
    texture: TextureClass
    motion: MotionClass
    qp: int
    search_window: int
    bits: int
    psnr: float
    cpu_time_fmax: float


@dataclass
class FrameRecord:
    frame_index: int
    frame_type: FrameType
    tiles: List[TileRecord]

    @property
    def bits(self) -> int:
        return sum(t.bits for t in self.tiles)

    @property
    def psnr(self) -> float:
        """Mean tile PSNR: the frame's PSNR on the wire, in the journal
        and in the trace."""
        return average_psnr([t.psnr for t in self.tiles])

    @property
    def cpu_time_fmax(self) -> float:
        return sum(t.cpu_time_fmax for t in self.tiles)


@dataclass
class GopRecord:
    """Per-GOP outcome: tiling plus per-frame records."""

    gop_index: int
    grid: TileGrid
    contents: List[TileContent]
    frames: List[FrameRecord] = field(default_factory=list)

    def mean_tile_cpu_times(self) -> List[float]:
        """Per-tile CPU time (at f_max) averaged over the GOP's frames.

        Averages over the frames that actually contain each tile index
        (counts can differ across frames in the per-frame re-tiling
        ablation mode)."""
        if not self.frames:
            raise ValueError("GOP has no frames")
        num_tiles = max(len(f.tiles) for f in self.frames)
        totals = [0.0] * num_tiles
        counts = [0] * num_tiles
        for frame in self.frames:
            for t in frame.tiles:
                totals[t.tile_index] += t.cpu_time_fmax
                counts[t.tile_index] += 1
        return [x / c for x, c in zip(totals, counts) if c > 0]

    def threads(self, user_id: int = 0) -> List[ThreadTask]:
        """Per-slot thread demands for the allocator."""
        return [
            ThreadTask(
                thread_id=i,
                user_id=user_id,
                cpu_time_fmax=t,
                tile_index=i,
            )
            for i, t in enumerate(self.mean_tile_cpu_times())
        ]


@dataclass
class FrameOutput:
    """One frame's outcome as emitted by :class:`ProposedStreamSession`.

    ``dropped`` is ``None`` for an encoded frame, otherwise the reason
    (``"corrupt"`` or ``"deadline"``).  ``reconstruction`` is the
    decoded luma plane — what a receiver's decoder would display — and
    is byte-identical between the offline :meth:`StreamTranscoder.run`
    path and an online push-fed session.
    """

    frame_index: int
    dropped: Optional[str] = None
    frame_type: Optional[FrameType] = None
    record: Optional[FrameRecord] = None
    reconstruction: Optional[np.ndarray] = None
    #: Rendition-ladder rung that produced this output (0 = the
    #: primary/full-resolution rung; plain sessions never change it).
    rung: int = 0


@dataclass
class StreamTrace:
    """Full outcome of transcoding one stream."""

    gops: List[GopRecord] = field(default_factory=list)
    fps: float = 24.0
    #: Display indices of frames that were not encoded: corrupt inputs
    #: dropped by validation plus deliberate degradation-ladder drops.
    dropped_frames: List[int] = field(default_factory=list)
    #: Degradation-ladder summary (``None`` in the Khan baseline
    #: mode).
    resilience: Optional[DegradationReport] = None

    @property
    def frame_records(self) -> List[FrameRecord]:
        return [f for g in self.gops for f in g.frames]

    @property
    def frame_psnrs(self) -> List[float]:
        """Per-frame PSNR (bit-weighted over tiles is not needed: tile
        PSNRs are aggregated from SSD, so the frame value is exact)."""
        return [frame.psnr for frame in self.frame_records]

    @property
    def average_psnr(self) -> float:
        return float(np.mean(self.frame_psnrs))

    @property
    def min_psnr(self) -> float:
        return float(np.min(self.frame_psnrs))

    @property
    def max_psnr(self) -> float:
        return float(np.max(self.frame_psnrs))

    @property
    def total_bits(self) -> int:
        return sum(f.bits for f in self.frame_records)

    @property
    def bitrate_mbps(self) -> float:
        n = len(self.frame_records)
        if n == 0:
            raise ValueError("empty trace")
        return self.total_bits / (n / self.fps) / 1e6

    def steady_state_gop(self) -> GopRecord:
        """The last GOP with encoded frames — LUT warmed up, QPs
        settled (a resilient run may end on a fully-dropped GOP)."""
        for gop in reversed(self.gops):
            if gop.frames:
                return gop
        raise ValueError("empty trace")


class GopPlan:
    """What the frames of one GOP share on one rung: the grid, and per
    tile everything about it a frame cannot change — content classes,
    area, LUT area bucket, the head of its LUT keys — plus, given a
    ``block_size``, the native driver's tile table
    (:func:`repro.codec.encoder.driver_table`; ``None`` without the
    compiled kernels or for a grid outside their contract), whose
    per-frame columns are all a frame rewrites.  Built once per
    re-tiling."""

    def __init__(self, grid: TileGrid,
                 contents: Optional[Sequence[TileContent]],
                 block_size: Optional[int] = None):
        self.grid = grid
        self.contents = contents
        tiles = grid.tiles
        if contents:
            self.textures = [c.texture for c in contents]
            self.motions = [c.motion for c in contents]
        else:  # [19] evaluates no content: mid texture, moving
            self.textures = [TextureClass.MEDIUM] * len(tiles)
            self.motions = [MotionClass.HIGH] * len(tiles)
        self.areas = [t.width * t.height for t in tiles]
        self.buckets = [area_bucket(area) for area in self.areas]
        #: Per tile, the part of its LUT keys' identity a frame cannot
        #: change, as plain ints (an enum member hashes in Python).
        self.key_heads = [
            (int(texture), int(motion), bucket) for texture, motion, bucket
            in zip(self.textures, self.motions, self.buckets)
        ]
        self.tile_ids = range(len(tiles))
        self.table = None
        if block_size is not None and native.lib is not None:
            table = driver_table(
                tiles, [block_size] * len(tiles),
                (grid.frame_height, grid.frame_width),
            )
            if not isinstance(table, str):
                self.table = table


class StreamTranscoder:
    """Transcodes one video stream according to a
    :class:`PipelineConfig`."""

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        cost_model: Optional[CostModel] = None,
        estimator: Optional[WorkloadEstimator] = None,
    ):
        self.config = config
        self.cost_model = cost_model or CostModel()
        self.estimator = estimator or WorkloadEstimator()
        self.evaluator = ContentEvaluator()
        self.retiler = ContentAwareRetiler(config.tiling, self.evaluator)
        self._merged_retiler: Optional[ContentAwareRetiler] = None
        self._frame_encoder = FrameEncoder()
        # Values that repeat frame after frame, built once: the base
        # config at each QP, its (step, lambda) driver columns, and the
        # LUT key of each (texture, motion, area bucket, QP, window,
        # frame type) under the content class the keys were built for.
        self._qp_configs: Dict[int, EncoderConfig] = {}
        self._qp_quants: Dict[int, tuple] = {}
        self._workload_keys: Dict[tuple, WorkloadKey] = {}
        self._keys_class: Optional[ContentClass] = None

    def close(self) -> None:
        """A transcoder owns no thread or handle; this is the end of
        the ``with StreamTranscoder(...)`` / ``LadderSession.close()``
        lifetime its owners already bracket it with."""

    def __enter__(self) -> "StreamTranscoder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, video: Video) -> StreamTrace:
        """Transcode the whole video; returns the stream trace.

        Input validation happens here: an empty video, a video whose
        frames are all corrupt, or a frame smaller than the minimum
        tile size raise :class:`CorruptFrameError`; individual corrupt
        frames (mismatched geometry, non-finite luma) raise too unless
        the resilience config drops corrupt frames, in which case they
        are dropped and logged.
        """
        if len(video) == 0:
            raise CorruptFrameError("cannot transcode an empty video")
        corrupt = self._validate_video(video)
        self._resolved_class = self.config.content_class
        if self._resolved_class is None:
            # Recognise the body-part class so LUT entries are shared
            # with previously-seen videos of the same class (§III-D1).
            first_valid = next(
                f for f in video.frames if f.index not in corrupt
            )
            self._resolved_class = _shared_classifier().classify_frame(first_valid)
        if self.config.mode is PipelineMode.PROPOSED:
            return self._run_proposed(video, corrupt)
        return self._run_khan(video)

    # ------------------------------------------------------------------
    def _validate_video(self, video: Video) -> Set[int]:
        """Find corrupt frames; raise unless resilience absorbs them.

        A frame is corrupt when its luma plane is not a 2-D ``uint8``
        array (NaN poisoning converts the dtype), contains non-finite
        values, or disagrees with the video's reference geometry.
        """
        reference_shape = None
        corrupt: Set[int] = set()
        for frame in video.frames:
            luma = frame.luma
            ok = (
                isinstance(luma, np.ndarray)
                and luma.ndim == 2
                and luma.dtype == np.uint8
            )
            if ok and reference_shape is None:
                reference_shape = luma.shape
            elif ok and luma.shape != reference_shape:
                ok = False
            if not ok:
                corrupt.add(frame.index)
        if reference_shape is None:
            raise CorruptFrameError("every frame of the video is corrupt")
        height, width = reference_shape
        tiling = self.config.tiling
        if width < tiling.min_tile_width or height < tiling.min_tile_height:
            raise CorruptFrameError(
                f"frame {width}x{height} smaller than the minimum tile "
                f"size {tiling.min_tile_width}x{tiling.min_tile_height}"
            )
        resilient = (
            self.config.resilience.drop_corrupt_frames
            and self.config.mode is PipelineMode.PROPOSED
        )
        if corrupt and not resilient:
            raise CorruptFrameError(
                f"corrupt frames at indices {sorted(corrupt)}: mismatched "
                "geometry or non-finite luma"
            )
        return corrupt

    # ------------------------------------------------------------------
    # Proposed pipeline
    # ------------------------------------------------------------------
    def _run_proposed(self, video: Video,
                      corrupt: Optional[Set[int]] = None) -> StreamTrace:
        trace = StreamTrace(fps=self.config.fps)
        session = ProposedStreamSession(self, known_corrupt=corrupt or set(),
                                        trace=trace)
        for frame in video.frames:
            session.push(frame)
        session.finish()
        return trace

    def open_session(self) -> "ProposedStreamSession":
        """Open a push-based online session (proposed mode only).

        Frames are validated and encoded on arrival, so the caller
        gets each frame's output at its push — the network serving
        layer's entry point.  Output is bit-identical to :meth:`run`
        fed the same frames (both paths run through
        :class:`ProposedStreamSession`); unlike :meth:`run`, the
        session keeps no trace, so its memory does not grow with the
        frames it is pushed."""
        if self.config.mode is not PipelineMode.PROPOSED:
            raise ValueError("online sessions require the proposed pipeline")
        return ProposedStreamSession(self)

    def _retile(self, luma: np.ndarray, previous: Optional[np.ndarray],
                merged: bool = False):
        """Re-tile, optionally with the TILE_MERGE-reduced tile cap."""
        if not merged:
            return self.retiler.retile(luma, previous)
        if self._merged_retiler is None:
            constraints = self.config.tiling
            merged_constraints = replace(
                constraints,
                max_tiles=max(constraints.min_center_tiles + 1,
                              constraints.max_tiles // 2),
            )
            self._merged_retiler = ContentAwareRetiler(
                merged_constraints, self.evaluator
            )
        return self._merged_retiler.retile(luma, previous)

    def _encode_proposed_frame(
        self,
        luma: np.ndarray,
        frame_index: int,
        frame_type: FrameType,
        gop_position: int,
        plan: GopPlan,
        reference: Optional[np.ndarray],
        adapter: QpAdapter,
        policy: BioMedicalSearchPolicy,
        feedback: DegradationController,
        prev_feedback: Sequence[TileQualityFeedback],
        stream_bitrate_mbps: Optional[float] = None,
    ):
        """Encode one frame over the GOP's plan; returns ``(record,
        reconstruction, per-tile CPU times, threads that ran its
        tiles)``.  ``prev_feedback`` is the previous frame's outcome per
        tile (empty on the first frame after a re-tiling)."""
        bottlenecks = feedback.bottleneck_tiles
        is_first = gop_position <= 1
        is_p = frame_type is FrameType.P
        # The policy's (algorithm, window) per motion class: the whole
        # decision but for the feedback's per-tile window shrink.
        # (Indexed by the class, LOW = 0 and HIGH = 1: an IntEnum member
        # indexes a tuple, and hashes in Python.)
        by_motion = (policy.select(MotionClass.LOW, is_first),
                     policy.select(MotionClass.HIGH, is_first))
        motions = plan.motions
        qps, windows = [], []
        for i, texture in enumerate(plan.textures):
            qp = adapter.adapt(
                i, texture, prev_feedback[i] if prev_feedback else None,
                stream_bitrate_mbps=stream_bitrate_mbps,
            )
            # Lighter configuration (§III-D2): the ladder's current rung.
            qp, window = feedback.adjust_tile(
                qp, by_motion[motions[i]][1], i in bottlenecks,
                QP_MAX, DELTA_QP,
            )
            qps.append(qp)
            windows.append(window)

        frame_stats = None
        if plan.table is not None:
            frame_stats, reconstruction = self._encode_planned(
                luma, frame_index, frame_type, plan, reference, policy,
                by_motion, is_first, qps, windows,
            )
        if frame_stats is None:
            # Without the driver the decision travels per tile, as a
            # config and a hook spec.  The motion direction is learned
            # on the first *P* frame of the GOP (the I frame has no
            # motion estimation).
            configs = [self._qp_config(qp) for qp in qps]
            specs = None
            if is_p:
                specs = [
                    policy.tile_spec(motion, is_first, i, windows[i])
                    for i, motion in enumerate(motions)
                ]
            frame_stats, reconstruction = self._frame_encoder.encode(
                luma, plan.grid, configs, frame_type,
                reference=reference, frame_index=frame_index,
                hook_specs=specs,
            )
        if is_p:
            merge_learned(policy.state, frame_stats.learned())
        record, cpu_times = self._record_frame(
            frame_stats, frame_type, plan, qps, windows
        )
        return record, reconstruction, cpu_times, frame_stats.threads

    def _qp_config(self, qp: int) -> EncoderConfig:
        config = self._qp_configs.get(qp)
        if config is None:
            config = self._qp_configs[qp] = self.config.base_config.with_qp(qp)
        return config

    def _encode_planned(self, luma, frame_index, frame_type, plan, reference,
                        policy, by_motion, is_first, qps, windows):
        """The frame through the plan's driver table: its per-frame
        columns rewritten, one ``FrameEncoder.encode``.  ``(None,
        None)`` when the driver cannot take this frame (a plane that is
        not contiguous uint8, a search outside its envelope)."""
        base = self.config.base_config
        if luma.dtype != np.uint8 or not luma.flags.c_contiguous:
            return None, None
        quants = []
        for qp in qps:
            quant = self._qp_quants.get(qp)
            if quant is None:
                quant = self._qp_quants[qp] = (
                    quantization_step(qp), base.lambda_mv)
            quants.append(quant)
        searches = learners = None
        if frame_type is FrameType.P:
            predictors = policy.state.tile_mv
            searches = []
            for i, motion in enumerate(plan.motions):
                columns = search_columns(
                    by_motion[motion][0], windows[i],
                    predictors.get(i, (0, 0)), is_first,
                )
                if isinstance(columns, str):
                    return None, None
                searches.append(columns)
            if is_first:
                learners = plan.tile_ids
        plan.table.load(searches, quants)
        return self._frame_encoder.encode(
            luma, plan.grid, None, frame_type, reference=reference,
            frame_index=frame_index, table=plan.table, learners=learners,
        )

    # ------------------------------------------------------------------
    # Khan [19] baseline pipeline
    # ------------------------------------------------------------------
    def _run_khan(self, video: Video) -> StreamTrace:
        from repro.allocation.baseline_khan import khan_tiling

        cfg = self.config
        gop_size = cfg.gop.size
        trace = StreamTrace(fps=cfg.fps)
        reference: Optional[np.ndarray] = None

        # Capacity rule: derive the core count from the first GOP
        # measured on a probe tiling, then keep the balanced tiling.
        if cfg.khan_cores is not None:
            num_cores = cfg.khan_cores
            grid = khan_tiling(video.width, video.height, num_cores)
        else:
            grid = khan_tiling(video.width, video.height, 4)
        contents_stub: List[TileContent] = []

        num_gops = math.ceil(len(video) / gop_size)
        for g in range(num_gops):
            frames = video.frames[g * gop_size : (g + 1) * gop_size]
            record = GopRecord(gop_index=g, grid=grid, contents=contents_stub)
            plan = GopPlan(grid, None)  # [19]: no content, no table
            for pos, frame in enumerate(frames):
                frame_type = cfg.gop.frame_type(pos)
                configs = [cfg.base_config] * len(grid)
                with get_tracer().span(
                    "pipeline.frame", frame=frame.index,
                    type=frame_type.value, gop=g, tiles=len(grid),
                ) as span:
                    frame_stats, reference = self._frame_encoder.encode(
                        frame.luma, grid, configs, frame_type,
                        reference=reference, frame_index=frame.index,
                    )
                    if frame_stats.threads > 1:
                        span.set(threads=frame_stats.threads)
                record.frames.append(self._record_frame(
                    frame_stats, frame_type, plan,
                    [cfg.base_config.qp] * len(grid),
                    [cfg.base_config.search_window] * len(grid),
                )[0])
            trace.gops.append(record)

            if cfg.khan_cores is None and g == 0:
                # Re-tile per the capacity rule after the probe GOP.
                frame_time = float(
                    np.mean([f.cpu_time_fmax for f in record.frames])
                )
                num_cores = max(1, math.ceil(frame_time * cfg.fps))
                grid = khan_tiling(video.width, video.height, num_cores)
                reference = None  # tiling changed; restart prediction
        return trace

    # ------------------------------------------------------------------
    def _record_frame(
        self,
        frame_stats: FrameStats,
        frame_type: FrameType,
        plan: GopPlan,
        qps: Sequence[int],
        windows: Sequence[int],
    ) -> tuple:
        """One pass over the frame's result rows: price each tile,
        record it, feed the LUT and the registry.  Returns ``(record,
        per-tile CPU times)``."""
        f_max = self.config.platform.f_max
        mode = self.config.mode.value
        count_cycles = self.cost_model.count_cycles
        registry = get_registry()
        tracer = get_tracer()
        type_name = frame_type.value
        content_class = getattr(self, "_resolved_class", None)
        if content_class is not self._keys_class:
            self._workload_keys = {}
            self._keys_class = content_class
        keys = self._workload_keys
        counts, clocks = frame_stats.rows()
        tile_records = []
        frame_keys = []
        cpu_times = []
        for i, (row, clock, qp, window) in enumerate(
            zip(counts, clocks, qps, windows)
        ):
            bits, pred_pixels, sad_pixel_ops, me_candidates, blocks = row[:5]
            cpu_time = count_cycles(
                sad_pixel_ops, me_candidates, blocks,
                blocks * _COEFFS_PER_BLOCK, bits, pred_pixels,
            ) / f_max
            texture, motion = plan.textures[i], plan.motions[i]
            tile_records.append(TileRecord(
                i, texture, motion, qp, window, bits,
                psnr_from_mse(clock[0] / plan.areas[i]), cpu_time,
            ))
            # The one key object per descriptor: the LUT hashes it
            # twice per observation, and a key caches its hash and its
            # class-agnostic twin.
            memo = plan.key_heads[i] + (qp, window, type_name)
            key = keys.get(memo)
            if key is None:
                key = keys[memo] = WorkloadKey(
                    texture=texture,
                    motion=motion,
                    qp=qp,
                    search_window=window,
                    frame_type=frame_type,
                    area_bucket=plan.buckets[i],
                    content_class=content_class,
                    resolution=self.config.rung_resolution,
                )
            frame_keys.append(key)
            cpu_times.append(cpu_time)
            if tracer.enabled:
                tracer.event(
                    "tile.record",
                    tile=i,
                    frame=frame_stats.frame_index,
                    type=type_name,
                    texture=texture.name,
                    motion=motion.name,
                    qp=qp,
                    window=window,
                    area_bucket=plan.buckets[i],
                    bits=bits,
                    cpu_time_fmax=cpu_time,
                )
        # One LUT lock acquisition and one registry batch per frame.
        self.estimator.observe_many(frame_keys, cpu_times)
        registry.observe_many(
            "repro_tile_cpu_seconds", cpu_times, mode=mode,
            help="Simulated per-tile CPU time at f_max",
        )
        registry.inc("repro_frames_encoded_total", mode=mode,
                     help="Frames encoded by the pipeline")
        registry.inc("repro_tiles_encoded_total", len(tile_records),
                     mode=mode, help="Tiles encoded by the pipeline")
        return FrameRecord(
            frame_index=frame_stats.frame_index,
            frame_type=frame_type,
            tiles=tile_records,
        ), cpu_times


def frame_is_corrupt(frame, shape: Optional[tuple],
                     config: PipelineConfig) -> bool:
    """The online sessions' frame check: ``False`` for a frame whose
    luma is a 2-D uint8 plane of ``shape`` (of any shape while ``None``
    — the stream's first frame fixes it).  Anything else is corrupt:
    ``True`` when ``config``'s resilience absorbs corrupt frames (the
    frame becomes a ``corrupt`` drop), :class:`CorruptFrameError` when
    it does not."""
    luma = frame.luma
    if (isinstance(luma, np.ndarray) and luma.ndim == 2
            and luma.dtype == np.uint8
            and (shape is None or luma.shape == shape)):
        return False
    if not config.resilience.drop_corrupt_frames:
        raise CorruptFrameError(
            f"corrupt frame at index {frame.index}: mismatched "
            "geometry or non-finite luma"
        )
    return True


class ProposedStreamSession:
    """Push-based online transcoding session (proposed pipeline).

    Frames are pushed one at a time and each is encoded (or dropped) at
    its own push, which returns its output: the GOP is planned on its
    first valid frame and closed by its ``gop.size``-th push or by
    :meth:`finish`.  Nothing in a GOP's encode needs a later frame, so
    this is the per-GOP logic of :meth:`StreamTranscoder.run` frame by
    frame — the same decisions, the same bytes.  All cross-GOP state (QP
    adapter, motion policy, framerate feedback/degradation ladder,
    reference plane, rolling bitrate window) lives on the session, so
    a sequence of pushes is bit-identical to one offline run over the
    same frames.

    Two validation modes:

    * ``known_corrupt`` given (the offline :meth:`StreamTranscoder.run`
      path): the whole video was validated upfront; per-frame checks
      are skipped.
    * otherwise (online serving): each frame is validated on arrival.
      Corrupt frames raise :class:`CorruptFrameError` unless the
      pipeline's resilience config absorbs them, in which case they are
      dropped and reported as a ``FrameOutput`` with
      ``dropped="corrupt"``.

    ``trace`` is the sink the offline run passes in: every closed GOP's
    record, every dropped index and, at :meth:`finish`, the degradation
    report.  A served session has none — nothing on the served path
    reads them, and a long session would keep every frame's tile
    records — so it holds only the open GOP's.
    """

    def __init__(
        self,
        transcoder: StreamTranscoder,
        known_corrupt: Optional[Set[int]] = None,
        trace: Optional[StreamTrace] = None,
    ):
        cfg = transcoder.config
        if cfg.mode is not PipelineMode.PROPOSED:
            raise ValueError("streaming sessions require the proposed pipeline")
        self.transcoder = transcoder
        self.config = cfg
        self._validate = known_corrupt is None
        self._known_corrupt = known_corrupt or set()
        self._adapter = QpAdapter(cfg.quality)
        self._policy = BioMedicalSearchPolicy(cfg.search)
        self._feedback = DegradationController(cfg.fps, cfg.resilience)
        self._reference: Optional[np.ndarray] = None
        self._previous_original: Optional[np.ndarray] = None
        #: The previous frame's outcome per tile (Algorithm 1's input);
        #: empty until a frame has been encoded over the current grid.
        self._prev_frame_feedback: List[TileQualityFeedback] = []
        self._recent_bits: List[int] = []  # rolling ~1 s window
        self._reference_shape: Optional[tuple] = None
        #: The open GOP: frames pushed into it, valid frames among them
        #: (the frame-type position), and its plan and record — set by
        #: its first valid frame, ``None`` while every push was corrupt.
        self._gop_pushes = 0
        self._gop_pos = 0
        self._plan: Optional[GopPlan] = None
        self._record: Optional[GopRecord] = None
        self._gop_index = 0
        self._frames_pushed = 0
        self._finished = False
        self.trace = trace

    # -- validation (online mode) --------------------------------------
    def _check_frame(self, frame) -> bool:
        """``True`` when the frame is corrupt (mirrors
        :meth:`StreamTranscoder._validate_video` frame-by-frame)."""
        corrupt = frame_is_corrupt(frame, self._reference_shape, self.config)
        if not corrupt and self._reference_shape is None:
            height, width = frame.luma.shape
            tiling = self.config.tiling
            if (width < tiling.min_tile_width
                    or height < tiling.min_tile_height):
                raise CorruptFrameError(
                    f"frame {width}x{height} smaller than the minimum tile "
                    f"size {tiling.min_tile_width}x{tiling.min_tile_height}"
                )
            self._reference_shape = frame.luma.shape
        return corrupt

    def _resolve_class(self, frame) -> None:
        if getattr(self.transcoder, "_resolved_class", None) is not None:
            return
        resolved = self.config.content_class
        if resolved is None:
            resolved = _shared_classifier().classify_frame(frame)
        self.transcoder._resolved_class = resolved

    # -- ingest --------------------------------------------------------
    @property
    def pending_frames(self) -> int:
        """Frames pushed into the open GOP.

        They are encoded or dropped already — every push returns its
        output — but their GOP is not closed: :meth:`export_state`
        waits for zero, which the ``gop.size``-th push or
        :meth:`finish` brings back.
        """
        return self._gop_pushes

    def push(self, frame, corrupt: bool = False) -> List[FrameOutput]:
        """Encode one frame, or drop it as ``corrupt`` / ``deadline``;
        returns its one output.  ``corrupt`` hands over a frame the
        caller's own check already rejected and absorbed (a ladder
        checks the ingest frame once, for all its rungs): it is dropped
        as one this session's check rejects."""
        if self._finished:
            raise ValueError("session already finished")
        if self._validate:
            if not corrupt:
                corrupt = self._check_frame(frame)
                if not corrupt:
                    self._resolve_class(frame)
        else:
            corrupt = frame.index in self._known_corrupt
        self._frames_pushed += 1
        self._gop_pushes += 1
        if corrupt:
            self._feedback.observe_corrupt_frame()
            output = self._drop(frame.index, "corrupt")
        else:
            output = self._encode(frame)
        if self._gop_pushes >= self.config.gop.size:
            self._close_gop()
        return [output]

    def bump_degradation(self) -> None:
        """Force one rung of ladder escalation (serving watchdog hook)."""
        self._feedback.force_escalate()

    # -- persistence ---------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Snapshot the session's cross-GOP state at a GOP boundary.

        Only callable when no frames are pending (i.e. right after a
        :meth:`push` that flushed a GOP, or before any push): within a
        GOP the encoder also depends on intra-GOP reference planes and
        adaptation state that this snapshot deliberately excludes.  A
        fresh session that imports the snapshot and is fed the same
        subsequent frames produces bit-identical output to this session
        — the property the serving layer's journaled resume builds on.

        ``previous_original`` is returned as the raw ``ndarray``;
        serialization is the caller's concern (the session journal
        writes its bytes as they are).
        """
        if self._gop_pushes:
            raise ValueError(
                "export_state requires a GOP boundary "
                f"({self._gop_pushes} frames pending)"
            )
        resolved = getattr(self.transcoder, "_resolved_class", None)
        return {
            "gop_index": self._gop_index,
            "frames_pushed": self._frames_pushed,
            "recent_bits": list(self._recent_bits),
            "reference_shape": (
                list(self._reference_shape)
                if self._reference_shape is not None else None
            ),
            "content_class": resolved.value if resolved else None,
            "feedback": self._feedback.export_state(),
            "previous_original": self._previous_original,
        }

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot from :meth:`export_state` into a *fresh*
        session (nothing pushed yet).  Keys it does not read, such as
        the ``dropped_frames`` list older snapshots carry, are
        ignored."""
        if self._frames_pushed or self._finished:
            raise ValueError("import_state requires a fresh session")
        self._gop_index = int(state["gop_index"])
        self._frames_pushed = int(state["frames_pushed"])
        self._recent_bits = [int(b) for b in state["recent_bits"]]
        shape = state.get("reference_shape")
        self._reference_shape = tuple(shape) if shape is not None else None
        content = state.get("content_class")
        if content:
            self.transcoder._resolved_class = ContentClass(content)
        self._feedback.import_state(state["feedback"])
        previous = state.get("previous_original")
        if previous is not None:
            self._previous_original = np.asarray(previous, dtype=np.uint8)
        # The next pushed frame starts a new GOP with an I frame, so no
        # reconstruction reference crosses the boundary.
        self._reference = None

    def finish(self) -> List[FrameOutput]:
        """Close the final partial GOP and the session.  Every frame
        got its output at its push, so none is left to return."""
        if self._finished:
            return []
        self._finished = True
        if self._gop_pushes:
            self._close_gop()
        if self.trace is not None:
            self.trace.resilience = self._feedback.report
        return []

    # -- per-frame encode (the body of the offline per-GOP loop) -------
    def _drop(self, frame_index: int, reason: str) -> FrameOutput:
        if self.trace is not None:
            self.trace.dropped_frames.append(frame_index)
        return FrameOutput(frame_index=frame_index, dropped=reason)

    def _start_gop(self, first) -> None:
        """Plan the open GOP on its first valid frame: re-tiling once
        per GOP (§III-D2); under TILE_MERGE pressure the maximum tile
        count is halved."""
        feedback = self._feedback
        retiling = self.transcoder._retile(
            first.luma, self._previous_original,
            merged=feedback.merge_tiles,
        )
        self._plan = GopPlan(retiling.grid, retiling.contents,
                             self.config.base_config.block_size)
        self._adapter.reset()
        self._policy.start_gop()
        self._prev_frame_feedback = []
        self._record = GopRecord(gop_index=self._gop_index,
                                 grid=self._plan.grid,
                                 contents=self._plan.contents)

    def _close_gop(self) -> None:
        if self._record is not None and self.trace is not None:
            self.trace.gops.append(self._record)
        self._plan = self._record = None
        self._gop_pushes = self._gop_pos = 0
        self._gop_index += 1

    def _encode(self, frame) -> FrameOutput:
        cfg = self.config
        transcoder = self.transcoder
        feedback = self._feedback
        if self._plan is None:
            self._start_gop(frame)
        pos = self._gop_pos
        self._gop_pos += 1
        frame_type = cfg.gop.frame_type(pos)
        if pos > 0 and feedback.should_drop_frame():
            # Top ladder rung: skip this P frame outright; its whole
            # slot is reclaimed against the debt.
            feedback.observe_dropped_frame()
            return self._drop(frame.index, "deadline")
        record = self._record
        if not cfg.retile_per_gop and pos > 0:
            # Ablation mode: re-tile on every frame.  Tile identities
            # change, so per-tile adaptation state restarts — the cost
            # the per-GOP scheme avoids.
            retiling = transcoder._retile(
                frame.luma, self._previous_original,
                merged=feedback.merge_tiles,
            )
            self._plan = GopPlan(retiling.grid, retiling.contents,
                                 cfg.base_config.block_size)
            record.grid, record.contents = self._plan.grid, self._plan.contents
            self._adapter.reset()
            self._prev_frame_feedback = []
        plan = self._plan
        window = max(1, int(round(cfg.fps)))
        recent = self._recent_bits[-window:]
        stream_bitrate = (
            sum(recent) / (len(recent) / cfg.fps) / 1e6
            if recent else None
        )
        with get_tracer().span(
            "pipeline.frame", frame=frame.index,
            type=frame_type.value, gop=self._gop_index, tiles=len(plan.grid),
        ) as span:
            frame_record, self._reference, cpu_times, threads = (
                transcoder._encode_proposed_frame(
                    frame.luma, frame.index, frame_type, pos, plan,
                    self._reference, self._adapter,
                    self._policy, feedback, self._prev_frame_feedback,
                    stream_bitrate,
                )
            )
            if threads > 1:  # a split frame: its tiles took idle cores
                span.set(threads=threads)
        record.frames.append(frame_record)
        self._recent_bits.append(frame_record.bits)
        if len(self._recent_bits) > window:
            self._recent_bits = self._recent_bits[-window:]
        feedback.observe_frame(cpu_times)
        self._prev_frame_feedback = [
            TileQualityFeedback(psnr_db=t.psnr, bits=t.bits)
            for t in frame_record.tiles
        ]
        self._previous_original = frame.luma
        return FrameOutput(
            frame_index=frame.index,
            frame_type=frame_type,
            record=frame_record,
            reconstruction=self._reference,
        )
