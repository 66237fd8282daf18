"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.video import io as video_io


@pytest.fixture
def video_file(tmp_path):
    path = tmp_path / "video.npz"
    code = main([
        "generate", "--out", str(path),
        "--width", "96", "--height", "80", "--frames", "4",
        "--content", "lung", "--motion", "still",
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_loadable_video(self, video_file):
        video = video_io.load_npz(video_file)
        assert len(video) == 4
        assert (video.width, video.height) == (96, 80)
        assert video.name.startswith("lung")

    def test_deterministic_with_seed(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        for path in (a, b):
            main(["generate", "--out", str(path), "--width", "64",
                  "--height", "48", "--frames", "2", "--seed", "7"])
        va, vb = video_io.load_npz(a), video_io.load_npz(b)
        np.testing.assert_array_equal(va[0].luma, vb[0].luma)


class TestEncode:
    def test_encode_runs(self, video_file, capsys):
        code = main(["encode", str(video_file), "--tiles", "2x1",
                     "--window", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PSNR" in out and "bitrate" in out

    @pytest.mark.parametrize("search", ["diamond", "three_step", "nope"])
    def test_unknown_search_is_a_usage_error(self, search, video_file,
                                             capsys):
        """Not a ``ValueError`` traceback out of ``get_search``: argparse
        exits 2 and names the searches that exist."""
        with pytest.raises(SystemExit) as exit_info:
            main(["encode", str(video_file), "--search", search])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        for survivor in ("full", "tz", "cross", "one_at_a_time", "hexagon",
                         "hexagon_rotating"):
            assert repr(survivor) in err

    def test_invalid_tiles_spec(self, video_file):
        with pytest.raises(SystemExit):
            main(["encode", str(video_file), "--tiles", "two-by-two"])


class TestTranscode:
    def test_proposed(self, video_file, capsys):
        assert main(["transcode", str(video_file)]) == 0
        assert "proposed" in capsys.readouterr().out

    def test_baseline(self, video_file, capsys):
        assert main(["transcode", str(video_file), "--baseline"]) == 0
        assert "baseline" in capsys.readouterr().out


class TestExperiment:
    def test_forwards_to_harness(self, capsys):
        code = main([
            "experiment", "table1",
            "--width", "96", "--height", "80", "--frames", "8",
        ])
        assert code == 0
        assert "TABLE I" in capsys.readouterr().out


@pytest.mark.parametrize("argv, field", [
    (["serve", "--fps", "nan"], "fps"),
    (["serve-net", "--port", "0", "--utilization", "0"], "utilization"),
    (["chaos", "--upstream-port", "1", "--latency-s", "nan"],
     "latency_spike_s"),
    (["loadgen", "--port", "1", "--rate", "nan"], "rate_hz"),
], ids=["serve", "serve-net", "chaos", "loadgen"])
def test_a_value_the_config_refuses_is_a_usage_error(argv, field):
    """A flag value the command's config refuses stops it before it
    runs: one ``error:`` line naming the field, exit code 2, no
    traceback."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2, done.stderr
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and field in errors[0], done.stderr
    assert "Traceback" not in done.stderr
