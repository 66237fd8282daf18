import json
import re

import numpy as np

from measure import END_TO_END_UNITS
from server_proc import ROOT
from workloads import (
    CLIP_FRAMES,
    WORKLOADS,
    pingpong_index,
    row_fingerprint,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_pingpong_sequence():
    assert [pingpong_index(k, 4) for k in range(10)] == \
        [0, 1, 2, 3, 2, 1, 0, 1, 2, 3]
    assert [pingpong_index(k, 1) for k in range(3)] == [0, 0, 0]
    seq = [pingpong_index(k) for k in range(3 * CLIP_FRAMES)]
    assert seq[:CLIP_FRAMES] == list(range(CLIP_FRAMES))
    assert seq[CLIP_FRAMES] == CLIP_FRAMES - 2
    # Never a jump: neighbours in time are neighbours in the clip.
    assert all(abs(a - b) == 1 for a, b in zip(seq, seq[1:]))


def test_fingerprint_reads_the_middle_row():
    plane = np.zeros((6, 8), dtype=np.uint8)
    base = row_fingerprint(plane)
    plane[0, 0] = 1
    assert row_fingerprint(plane) == base
    plane[3, 0] = 1
    assert row_fingerprint(plane) != base


def test_benchmark_json_meets_the_contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 12) <= 3420
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128


def test_benchmark_json_agrees_with_the_code():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
