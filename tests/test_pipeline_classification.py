"""Tests for automatic content-class resolution in the pipeline."""

import pytest

from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)


@pytest.fixture(scope="module")
def bone_video():
    return BioMedicalVideoGenerator(GeneratorConfig(
        width=160, height=128, num_frames=8, seed=6,
        content_class=ContentClass.BONE, motion=MotionPreset.PAN_DOWN,
    )).generate()


class TestAutoClassification:
    def test_lut_keys_carry_a_content_class(self, bone_video):
        transcoder = StreamTranscoder(PipelineConfig())
        transcoder.run(bone_video)
        classes = {
            key.content_class
            for key in transcoder.estimator.lut.tables
            if key.content_class is not None
        }
        assert len(classes) == 1  # one video -> one resolved class

    def test_explicit_class_respected(self, bone_video):
        config = PipelineConfig(content_class=ContentClass.LUNG)
        transcoder = StreamTranscoder(config)
        transcoder.run(bone_video)
        classes = {
            key.content_class
            for key in transcoder.estimator.lut.tables
            if key.content_class is not None
        }
        assert classes == {ContentClass.LUNG}

    def test_lut_shared_between_same_class_videos(self, bone_video):
        """Two videos of the same class feed the same LUT keys (the
        paper's cross-video LUT reuse)."""
        transcoder = StreamTranscoder(
            PipelineConfig(content_class=ContentClass.BONE)
        )
        transcoder.run(bone_video)
        keys_first = set(transcoder.estimator.lut.tables)
        other = BioMedicalVideoGenerator(GeneratorConfig(
            width=160, height=128, num_frames=8, seed=17,
            content_class=ContentClass.BONE, motion=MotionPreset.STILL,
        )).generate()
        transcoder2 = StreamTranscoder(
            PipelineConfig(content_class=ContentClass.BONE),
            estimator=transcoder.estimator,  # shared server-side LUT
        )
        transcoder2.run(other)
        keys_both = set(transcoder2.estimator.lut.tables)
        shared = {
            k for k in keys_first & keys_both
            if k.content_class is ContentClass.BONE
        }
        assert shared  # same-class keys were reused, not duplicated
