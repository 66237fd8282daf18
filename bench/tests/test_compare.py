import json

import compare

SPEC = {
    "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
    "end_to_end": [
        {"name": "frames_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.05},
        {"name": "latency_ms", "unit": "ms", "better": "lower",
         "bound": 0.10},
    ],
}


def _record(path, fps, latency, quick=False):
    """A result file as run.py writes it: untraced and traced runs."""
    runs = []
    for workload in ("w1", "w2"):
        for f, lat in zip(fps[workload], latency[workload]):
            runs.append({"workload": workload, "traced": False,
                         "valid": True,
                         "end_to_end": {"frames_per_s": f,
                                        "latency_ms": lat}})
            runs.append({"workload": workload, "traced": True,
                         "valid": True,
                         "end_to_end": {"frames_per_s": f * 0.5,
                                        "latency_ms": lat * 2},
                         "per_layer": {"x": 1.0}})
    with open(path, "w") as fh:
        json.dump({"schema": 1, "quick": quick, "runs": runs}, fh)
    return str(path)


def test_round_trip_and_verdicts(tmp_path, capsys):
    a = _record(tmp_path / "a.json",
                fps={"w1": [100, 101, 99, 100], "w2": [50, 50, 51, 49]},
                latency={"w1": [10, 10, 10, 10], "w2": [20, 30, 10, 25]})
    b = _record(tmp_path / "b.json",
                fps={"w1": [120, 121, 119, 120], "w2": [45, 45, 46, 44]},
                latency={"w1": [10.5, 10.5, 10.5, 10.5],
                         "w2": [21, 31, 11, 26]})
    assert compare.main([a, b], SPEC) == 1
    rows = {(line.split()[0], line.split()[1]): line.split()[-1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("w1 ", "w2 "))}
    assert rows == {
        ("w1", "frames_per_s"): "improved",
        ("w1", "latency_ms"): "within-bound",
        ("w2", "frames_per_s"): "regressed",
        # A's own latency spread (quartiles 12.5..28.75 around 22.5)
        # dwarfs the 10 % bound: no verdict either way.
        ("w2", "latency_ms"): "unresolved",
    }


def test_same_file_compares_clean(tmp_path, capsys):
    a = _record(tmp_path / "a.json",
                fps={"w1": [100, 101], "w2": [50, 50]},
                latency={"w1": [10, 10], "w2": [20, 20]})
    assert compare.main([a, a], SPEC) == 0
    assert "regressed" not in capsys.readouterr().out


def test_traced_runs_never_enter_the_comparison(tmp_path):
    a = _record(tmp_path / "a.json", fps={"w1": [100], "w2": [50]},
                latency={"w1": [10], "w2": [20]})
    _, values = compare._end_to_end(a)
    assert values[("w1", "frames_per_s")] == [100]


def test_noisy_but_disjoint_counts_as_improved():
    worse, word = compare.verdict([10, 20, 30, 40], [1, 2, 3, 4],
                                  "lower", 0.1)
    assert word == "improved" and worse < 0


def test_quick_results_are_flagged(tmp_path, capsys):
    a = _record(tmp_path / "a.json", fps={"w1": [1], "w2": [1]},
                latency={"w1": [1], "w2": [1]}, quick=True)
    compare.main([a, a], SPEC)
    assert "--quick" in capsys.readouterr().out
