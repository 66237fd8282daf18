"""Synthetic bio-medical video generator.

The paper's evaluation uses ten anonymized clinical videos provided by
medical partners (640x480 @ 24 fps).  Those are not available, so this
module synthesizes videos that reproduce the *properties the paper's
mechanisms key on* (cf. DESIGN.md, substitution table):

1. Useful information concentrates on the centre of the frame (Fig. 1 of
   the paper): an elliptical anatomy phantom sits at the centre over a
   near-black border region.
2. The whole frame moves in the same direction: specialists rotate or
   pan the volume along one axis, so motion is a global affine map whose
   direction is piecewise-constant over seconds.
3. Borders and corners have low texture and low motion; the centre has
   high texture.
4. Videos are classifiable in few categories by body part (bones, lung
   and chest, brain, etc.) with similar workload statistics per class —
   this is what makes the paper's LUT reuse across videos of one class
   work.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.video.frame import Frame, Video


class ContentClass(enum.Enum):
    """Body-part content classes (paper §III-D1).

    The paper notes medical images "are classifiable in very limited
    categories based on part of the body that is under the study (such
    as bones, lung and chest, brain, spinal cord, ligament and tendon)".
    """

    BRAIN = "brain"
    BONE = "bone"
    LUNG = "lung"
    CARDIAC = "cardiac"
    ULTRASOUND = "ultrasound"


class MotionPreset(enum.Enum):
    """Global motion patterns observed in diagnostic viewing sessions."""

    PAN_RIGHT = "pan_right"
    PAN_DOWN = "pan_down"
    ROTATE = "rotate"
    PULSATE = "pulsate"
    STILL = "still"


@dataclass
class GeneratorConfig:
    """Configuration for :class:`BioMedicalVideoGenerator`.

    Defaults mirror the paper's setup: VGA resolution at 24 fps.
    ``motion_magnitude`` is expressed in pixels/frame for pans and
    degrees/frame for rotation.
    """

    width: int = 640
    height: int = 480
    num_frames: int = 48
    fps: float = 24.0
    content_class: ContentClass = ContentClass.BRAIN
    motion: MotionPreset = MotionPreset.PAN_RIGHT
    motion_magnitude: float = 1.5
    noise_sigma: float = 2.0
    seed: int = 0
    # Direction of panning/rotation is re-drawn every `redirect_seconds`
    # (specialists change the viewing axis only occasionally).
    redirect_seconds: float = 4.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("frame dimensions must be positive")
        if self.num_frames < 0:
            raise ValueError("num_frames must be non-negative")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


def _elliptical_mask(height: int, width: int, rx: float, ry: float) -> np.ndarray:
    """Soft elliptical mask centred in an ``(height, width)`` grid.

    ``rx``/``ry`` are radii in pixels; callers size them relative to
    the *frame*, not the oversized world, so the anatomy keeps the dark
    border region that characterises medical frames (paper Fig. 1).
    """
    yy, xx = np.mgrid[0:height, 0:width]
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    dist = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2
    # Smooth roll-off near the boundary keeps gradients realistic.
    return np.clip(1.2 - dist, 0.0, 1.0)


def _smooth_noise(rng: np.random.Generator, shape: Tuple[int, int], sigma: float) -> np.ndarray:
    """Zero-mean spatially-correlated noise in [-1, 1]."""
    # SciPy loads here, not with the module: importing the package (a
    # server, a restarted server, any CLI call) must not pay 0.3 s for a
    # filter only clip synthesis uses.
    from scipy import ndimage

    raw = rng.standard_normal(shape)
    smooth = ndimage.gaussian_filter(raw, sigma=sigma)
    peak = np.max(np.abs(smooth))
    return smooth / peak if peak > 0 else smooth


class BioMedicalVideoGenerator:
    """Generate synthetic bio-medical videos.

    Example
    -------
    >>> gen = BioMedicalVideoGenerator(GeneratorConfig(width=320, height=240,
    ...                                                num_frames=8))
    >>> video = gen.generate()
    >>> len(video), video.width, video.height
    (8, 320, 240)
    """

    #: Oversize factor of the static "anatomy world" relative to the
    #: frame, so pans/rotations never sample outside the texture.
    WORLD_MARGIN = 0.35

    def __init__(self, config: Optional[GeneratorConfig] = None):
        self.config = config or GeneratorConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._world: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Anatomy phantom synthesis
    # ------------------------------------------------------------------
    def _build_world(self) -> np.ndarray:
        """Build the static anatomy texture sampled by every frame."""
        cfg = self.config
        wh = int(cfg.height * (1 + 2 * self.WORLD_MARGIN))
        ww = int(cfg.width * (1 + 2 * self.WORLD_MARGIN))
        builder = {
            ContentClass.BRAIN: self._brain_world,
            ContentClass.BONE: self._bone_world,
            ContentClass.LUNG: self._lung_world,
            ContentClass.CARDIAC: self._cardiac_world,
            ContentClass.ULTRASOUND: self._ultrasound_world,
        }[cfg.content_class]
        world = builder(wh, ww)
        return np.clip(world, 0, 255)

    def _anatomy_base(self, h: int, w: int, rx_scale: float, ry_scale: float) -> np.ndarray:
        """Dark background + soft elliptical body outline.

        Radii scale with the *frame* dimensions so the anatomy keeps
        the dark, low-texture borders of real medical frames even
        though the world texture is oversized for motion headroom.
        """
        fw, fh = self.config.width, self.config.height
        base = np.full((h, w), 14.0)
        body = _elliptical_mask(h, w, rx=fw * rx_scale, ry=fh * ry_scale)
        base += body * 50.0
        return base

    def _brain_world(self, h: int, w: int) -> np.ndarray:
        fw, fh = self.config.width, self.config.height
        world = self._anatomy_base(h, w, 0.30, 0.33)
        inner = _elliptical_mask(h, w, rx=fw * 0.26, ry=fh * 0.29)
        # Gyri/sulci: medium-contrast correlated blobs.
        folds = _smooth_noise(self._rng, (h, w), sigma=4.0)
        world += inner * (90.0 + 70.0 * folds)
        # Skull rim: bright ring.
        outer = _elliptical_mask(h, w, rx=fw * 0.30, ry=fh * 0.33)
        ring = np.clip(outer - inner * 1.05, 0, 1)
        world += ring * 140.0
        return world

    def _bone_world(self, h: int, w: int) -> np.ndarray:
        fw, fh = self.config.width, self.config.height
        world = self._anatomy_base(h, w, 0.28, 0.38)
        inner = _elliptical_mask(h, w, rx=fw * 0.24, ry=fh * 0.36)
        # Long bright shafts with sharp edges (high contrast).
        yy, xx = np.mgrid[0:h, 0:w]
        shafts = np.zeros((h, w))
        for k in range(3):
            cx = w / 2.0 + fw * 0.12 * (k - 1)
            width_px = fw * 0.035
            shaft = np.exp(-(((xx - cx) / width_px) ** 4))
            shafts = np.maximum(shafts, shaft)
        trabecular = _smooth_noise(self._rng, (h, w), sigma=1.5)
        world += inner * (shafts * 190.0 + 35.0 + 45.0 * np.abs(trabecular))
        return world

    def _lung_world(self, h: int, w: int) -> np.ndarray:
        fw, fh = self.config.width, self.config.height
        world = self._anatomy_base(h, w, 0.32, 0.36)
        inner = _elliptical_mask(h, w, rx=fw * 0.28, ry=fh * 0.32)
        # Air-filled lungs: dark fields with faint vessels.
        vessels = np.abs(_smooth_noise(self._rng, (h, w), sigma=2.0))
        vessels = np.where(vessels > 0.55, vessels, 0.0)
        world += inner * (25.0 + vessels * 110.0)
        # Mediastinum: bright central column.
        yy, xx = np.mgrid[0:h, 0:w]
        column = np.exp(-(((xx - w / 2) / (fw * 0.06)) ** 2))
        world += inner * column * 120.0
        return world

    def _cardiac_world(self, h: int, w: int) -> np.ndarray:
        fw, fh = self.config.width, self.config.height
        world = self._anatomy_base(h, w, 0.30, 0.32)
        inner = _elliptical_mask(h, w, rx=fw * 0.22, ry=fh * 0.24)
        chambers = _smooth_noise(self._rng, (h, w), sigma=6.0)
        world += inner * (100.0 + 80.0 * chambers)
        # Myocardial wall.
        wall = np.clip(
            _elliptical_mask(h, w, rx=fw * 0.24, ry=fh * 0.26) - inner * 1.1, 0, 1
        )
        world += wall * 110.0
        return world

    def _ultrasound_world(self, h: int, w: int) -> np.ndarray:
        fw, fh = self.config.width, self.config.height
        world = np.full((h, w), 8.0)
        # Fan-shaped insonified sector, apex near the top of the frame
        # window (the world is oversized; the frame samples its centre).
        yy, xx = np.mgrid[0:h, 0:w]
        cy, cx = h / 2.0 - fh * 0.45, w / 2.0
        angle = np.arctan2(xx - cx, yy - cy)
        radius = np.hypot(xx - cx, yy - cy)
        sector = (np.abs(angle) < math.radians(38)) & (radius < fh * 0.85)
        speckle = np.abs(self._rng.standard_normal((h, w)))
        tissue = 60.0 + 55.0 * _smooth_noise(self._rng, (h, w), sigma=5.0)
        world += sector * tissue * (0.55 + 0.45 * speckle)
        return world

    # ------------------------------------------------------------------
    # Motion model
    # ------------------------------------------------------------------
    def _motion_direction(self, frame_index: int) -> Tuple[float, float, float]:
        """Per-frame (dx, dy, dtheta) increments.

        Direction is piecewise constant over ``redirect_seconds`` so
        that, as in the paper, "even after 24 frames the initial tiling
        is still valid" and the whole frame moves in one direction.
        """
        cfg = self.config
        seg = int(frame_index / (cfg.fps * cfg.redirect_seconds))
        seg_rng = np.random.default_rng((cfg.seed, seg, 0xB10))
        mag = cfg.motion_magnitude
        if cfg.motion is MotionPreset.STILL:
            return 0.0, 0.0, 0.0
        if cfg.motion is MotionPreset.PAN_RIGHT:
            return mag, 0.0, 0.0
        if cfg.motion is MotionPreset.PAN_DOWN:
            return 0.0, mag, 0.0
        if cfg.motion is MotionPreset.ROTATE:
            sign = 1.0 if seg_rng.random() < 0.5 else -1.0
            return 0.0, 0.0, sign * mag
        if cfg.motion is MotionPreset.PULSATE:
            # Radial scale handled in _render; here only slight drift.
            return 0.25 * mag, 0.0, 0.0
        raise ValueError(f"unknown motion preset {cfg.motion}")

    def _render(self, offset_x: float, offset_y: float, theta_deg: float,
                scale: float) -> np.ndarray:
        """Sample the frame window from the world under the current pose."""
        cfg = self.config
        world = self._world
        assert world is not None
        wh, ww = world.shape
        cy, cx = (wh - 1) / 2.0, (ww - 1) / 2.0
        theta = math.radians(theta_deg)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        # Inverse map: output pixel -> world coordinate.
        inv_scale = 1.0 / scale
        matrix = np.array(
            [[cos_t * inv_scale, -sin_t * inv_scale],
             [sin_t * inv_scale, cos_t * inv_scale]]
        )
        out_c = np.array([(cfg.height - 1) / 2.0, (cfg.width - 1) / 2.0])
        world_c = np.array([cy + offset_y, cx + offset_x])
        offset = world_c - matrix @ out_c
        from scipy import ndimage  # see _smooth_noise

        sampled = ndimage.affine_transform(
            world, matrix, offset=offset,
            output_shape=(cfg.height, cfg.width), order=1, mode="nearest",
        )
        return sampled

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self) -> Video:
        """Generate the full configured video."""
        cfg = self.config
        if self._world is None:
            self._world = self._build_world()
        frames = []
        off_x, off_y, theta = 0.0, 0.0, 0.0
        for i in range(cfg.num_frames):
            dx, dy, dth = self._motion_direction(i)
            off_x += dx
            off_y += dy
            theta += dth
            scale = 1.0
            if cfg.motion is MotionPreset.PULSATE:
                # Heartbeat at ~1.2 Hz.
                scale = 1.0 + 0.03 * math.sin(2 * math.pi * 1.2 * i / cfg.fps)
            pixels = self._render(off_x, off_y, theta, scale)
            if cfg.noise_sigma > 0:
                pixels = pixels + self._rng.normal(0.0, cfg.noise_sigma, pixels.shape)
            luma = np.clip(pixels, 0, 255).astype(np.uint8)
            frames.append(Frame(luma, index=i))
        return Video(frames=frames, fps=cfg.fps,
                     name=f"{cfg.content_class.value}_{cfg.motion.value}_{cfg.seed}")


def generate_video(
    content_class: ContentClass = ContentClass.BRAIN,
    width: int = 640,
    height: int = 480,
    num_frames: int = 48,
    motion: MotionPreset = MotionPreset.PAN_RIGHT,
    seed: int = 0,
    **kwargs,
) -> Video:
    """Convenience wrapper around :class:`BioMedicalVideoGenerator`."""
    cfg = GeneratorConfig(
        width=width, height=height, num_frames=num_frames,
        content_class=content_class, motion=motion, seed=seed, **kwargs,
    )
    return BioMedicalVideoGenerator(cfg).generate()
