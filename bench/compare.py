"""``run.py compare A.json B.json``: one verdict per (metric, workload).

Both files come from ``run.py --seed N [--repeat R]``.  Each side is
summarised by the median of its runs; the spread is the distance
between A's quartiles as a share of its median (taken as zero when a
side holds fewer than two runs — say so, and repeat).
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple

from stats import spread

Values = Dict[Tuple[str, str], List[float]]


def _end_to_end(path: str) -> Tuple[dict, Values]:
    with open(path) as fh:
        record = json.load(fh)
    values: Values = {}
    for run in record["runs"]:
        if run["traced"] or "end_to_end" not in run:
            continue
        for metric, value in run["end_to_end"].items():
            values.setdefault((run["workload"], metric), []).append(value)
    return record, values


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[float, str]:
    """(relative change of the median, verdict).  Positive = worse."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if len(a) >= 2 and spread(a) > bound:
        # Too noisy for the bound to mean anything — unless the two
        # sides do not even overlap.
        if all(sign * (y - x) < 0 for x in a for y in b):
            return worse, "improved"
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "within-bound"


def main(argv: List[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json")
        return 2
    (rec_a, a), (rec_b, b) = _end_to_end(argv[0]), _end_to_end(argv[1])
    for rec, path in ((rec_a, argv[0]), (rec_b, argv[1])):
        if rec.get("quick"):
            print(f"note: {path} is a --quick result; not comparable")
    bad = 0
    print(f"{'workload':12s} {'metric':26s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            worse, word = verdict(a[key], b[key], m["better"], m["bound"])
            bad += word in ("regressed", "unresolved")
            print(f"{workload:12s} {m['name']:26s} "
                  f"{statistics.median(a[key]):12.5g} "
                  f"{statistics.median(b[key]):12.5g} "
                  f"{worse:+9.2%} {m['bound']:6.0%}  {word}")
    runs = min(min(map(len, a.values()), default=0),
               min(map(len, b.values()), default=0))
    if runs < 2:
        print("note: fewer than two runs a side; spread taken as zero")
    return 1 if bad else 0
