"""Shared fixtures for the test suite."""

from __future__ import annotations

import collections
import contextlib

import numpy as np
import pytest

from repro.video.frame import Frame, Video
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden-trace files instead of comparing",
    )
    parser.addoption(
        "--native-cflags", default="",
        help="extra C flags: rebuild the native kernels with them for this "
             "run (`make sanitize`); the run fails if that build does not load",
    )


def pytest_configure(config):
    extra = config.getoption("--native-cflags")
    if extra:
        from repro import native

        native.rebuild(extra.split())


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def small_video() -> Video:
    """A small, fast synthetic medical video shared across tests."""
    cfg = GeneratorConfig(
        width=96, height=80, num_frames=10, seed=7,
        content_class=ContentClass.BRAIN, motion=MotionPreset.PAN_RIGHT,
        motion_magnitude=2.0,
    )
    return BioMedicalVideoGenerator(cfg).generate()


@pytest.fixture(scope="session")
def vga_frame_pair():
    """Two consecutive VGA frames of a panning brain video."""
    cfg = GeneratorConfig(
        width=640, height=480, num_frames=2, seed=3,
        content_class=ContentClass.BRAIN, motion=MotionPreset.PAN_RIGHT,
        motion_magnitude=3.0,
    )
    video = BioMedicalVideoGenerator(cfg).generate()
    return video[0].luma, video[1].luma


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_textured_plane(rng: np.random.Generator, height: int, width: int,
                        base: int = 120, amplitude: int = 60) -> np.ndarray:
    """Random textured uint8 plane (helper importable from conftest)."""
    noise = rng.integers(-amplitude, amplitude + 1, size=(height, width))
    return np.clip(base + noise, 0, 255).astype(np.uint8)


@pytest.fixture
def textured_plane(rng):
    return make_textured_plane(rng, 64, 64)


class _ForbiddenLib:
    """Stands in for the ctypes handle where no native call may happen:
    it is not ``None`` (the encoder still believes the driver is
    loaded) but any attribute access — i.e. any call — fails."""

    def __getattr__(self, name):
        raise AssertionError(f"native.lib.{name} reached on a NumPy-only path")


@contextlib.contextmanager
def native_forbidden():
    """Run a block with ``repro.native.lib`` replaced by a stub that
    raises on any attribute access (helper importable from conftest)."""
    from repro import native

    saved, native.lib = native.lib, _ForbiddenLib()
    try:
        yield
    finally:
        native.lib = saved


class _CountingLib:
    """The ctypes handle with every foreign call counted by name."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = collections.Counter()

    def __getattr__(self, name):
        fn = getattr(self._lib, name)

        def counted(*args):
            self.calls[name] += 1
            return fn(*args)

        return counted


@contextlib.contextmanager
def counted_native():
    """Run a block with the foreign calls it makes counted; yields the
    ``Counter``, keyed by exported name (helper importable from
    conftest)."""
    from repro import native

    counting = _CountingLib(native.lib)
    saved, native.lib = native.lib, counting
    try:
        yield counting.calls
    finally:
        native.lib = saved


class CountingLock:
    """Stands in for a ``threading.Lock`` used as a context manager and
    counts its acquisitions (helper importable from conftest)."""

    def __init__(self):
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1

    def __exit__(self, *exc):
        return None
