#!/usr/bin/env python3
"""End-to-end serving benchmark at the paper's operating point.

    python3 bench/run.py --workload vga_rt1 --seed 1 --seconds 12 --trace 0
        one run of one workload; the last line of stdout is the result
        object BENCHMARK.json's contract asks for
    python3 bench/run.py --seed 1 [--quick] [--repeat N] [--out FILE]
        every workload, untraced then traced, one JSON result file
    python3 bench/run.py compare A.json B.json
        one verdict per (metric, workload)

See bench/README.md.
"""

import time

_STARTED_NS = time.monotonic_ns()  # before the heavy imports: setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

QUICK_SECONDS = 3


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _require_native() -> None:
    try:
        import repro.native as native
    except ImportError as exc:
        sys.exit(f"bench: the program is not importable from "
                 f"{ROOT / 'src'}: {exc}")
    if not native.available():
        sys.exit(
            "bench: the native kernels are not loaded (no C compiler, a "
            "failed build, or REPRO_NATIVE=0). The numbers would describe "
            "the NumPy fallback, which is a different program; refusing "
            "to run.")


def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(f"  {title}")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"    {name:38s} {shown:>14s} {units.get(name, '')}")


def _report(result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    mode = "traced" if result["traced"] else "untraced"
    print(f"{result['workload']} ({mode}, seed {result['seed']}, "
          f"{result['window_s']:g} s window): valid={result['valid']}")
    if "end_to_end" in result:
        print(f"    frames sent {result['frames_sent']}, failed "
              f"{result['frames_failed']}; latency samples "
              f"{result['latency_samples']} "
              f"({result['latency_samples_beyond_p95']} beyond p95)")
        _print_metrics("end to end (at reference machine speed)",
                       result["end_to_end"], units)
        if not result["traced"]:
            _print_metrics("as observed", result["observed"], units)
    if result.get("per_layer"):
        _print_metrics("per layer", result["per_layer"], units)
    for line in result["warnings"]:
        print(f"    warning: {line}")
    for line in result["errors"]:
        print(f"    ERROR: {line}")
    if result.get("server_stderr"):
        print("    server stderr:\n" + result["server_stderr"])


def _driver_line(result: dict, spec: dict) -> str:
    """The contract's result object: every end-to-end metric untraced,
    every per-layer metric traced.  A per-layer metric whose entry
    point is gone reads 0 here (the contract wants numbers) and carries
    a warning above."""
    section = "per_layer" if result["traced"] else "end_to_end"
    values = result[section]
    metrics = {
        m["name"]: {"value": values.get(m["name"]) or 0.0,
                    "unit": m["unit"]}
        for m in spec[section]
    }
    return json.dumps({
        "correct": bool(result["valid"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def _run_one(args, spec: dict) -> int:
    from measure import run_workload

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), _STARTED_NS)
    _report(result, spec)
    if not result["valid"]:
        return 1
    print(_driver_line(result, spec))
    return 0


def _run_all(args, spec: dict) -> int:
    from machine import machine_record
    from measure import run_workload

    seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    record = {
        "schema": 1, "quick": args.quick, "seed": args.seed,
        "window_s": seconds, "machine": machine_record(), "runs": [],
    }
    ok = True
    for _ in range(args.repeat):
        for name in (w["name"] for w in spec["workloads"]):
            fps = None
            for traced in (False, True):
                result = run_workload(name, args.seed, seconds, traced,
                                      time.monotonic_ns())
                if result["valid"] and traced and fps:
                    overhead = (
                        (fps - result["end_to_end"]["frames_per_s"]) / fps)
                    result["per_layer"]["trace.overhead_frac"] = overhead
                    if overhead > 0.10:
                        result["warnings"].append(
                            f"tracing cost {overhead:.0%} of frames_per_s")
                elif result["valid"]:
                    fps = result["end_to_end"]["frames_per_s"]
                _report(result, spec)
                record["runs"].append(result)
                ok = ok and result["valid"]
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"wrote {args.out}; all valid: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:], _spec())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run this workload only (driver mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (driver mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s windows; smoke use only, "
                             "not comparable")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sets of runs in the result file")
    parser.add_argument("--out", default="bench_result.json")
    args = parser.parse_args(argv)
    spec = _spec()
    _require_native()
    if args.workload is None:
        return _run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return _run_one(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
