"""Process-local metrics registry.

Three metric kinds, all keyed by a label tuple:

* **counter** — monotonically increasing float;
* **gauge** — last-write-wins float;
* **histogram** — fixed upper-bound buckets (cumulative on exposition,
  per-bucket internally) plus an exact running sum/count.

Registries are *mergeable*: :meth:`MetricsRegistry.merge` folds another
registry (or its :meth:`~MetricsRegistry.to_dict` snapshot) into this
one — counters and histogram bins add, gauges take the other side's
value when present.  That is how fleet workers' heartbeat snapshots
fold into the supervisor's view (:mod:`repro.serving.fleet`), and the
operation is commutative, associative and count/sum-preserving
(property-tested in ``tests/test_observability.py``).

Exposition formats: :meth:`~MetricsRegistry.to_dict` (JSON) and
:meth:`~MetricsRegistry.to_prometheus_text` (Prometheus text format
0.0.4).  The module is stdlib-only on purpose: importing it must never
cost anything in the hot path.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "HistogramValue",
    "MetricsRegistry",
    "format_metrics",
]

#: Default histogram buckets for span/CPU-time observations (seconds).
#: Geometric-ish ladder from 10 us to 10 s; values above the last bound
#: land in the implicit +Inf bucket.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    1e-1, 3e-1, 1.0, 3.0, 10.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


#: Label sets already canonicalised, by their items in call order.  Only
#: all-``str`` label sets are remembered (a ``1`` and a ``True`` are
#: equal as dictionary keys and different as labels; no non-``str``
#: equals a ``str``), and only a bounded number of them — the hot
#: call sites pass the same few literal label sets on every frame.
_LABEL_KEYS: Dict[tuple, "LabelKey"] = {}
_LABEL_KEYS_MAX = 4096


def _label_key(labels: Dict[str, object]) -> LabelKey:
    if not labels:
        return ()
    items = tuple(labels.items())
    try:
        key = _LABEL_KEYS.get(items)
    except TypeError:  # an unhashable label value
        key = None
    if key is None:
        key = tuple(sorted((str(k), str(v)) for k, v in items))
        if (len(_LABEL_KEYS) < _LABEL_KEYS_MAX
                and all(type(v) is str for _, v in items)):
            _LABEL_KEYS[items] = key
    return key


class HistogramValue:
    """One fixed-bucket histogram sample (a single label tuple).

    ``bucket_counts`` has ``len(buckets) + 1`` entries: one per finite
    upper bound plus the overflow (+Inf) bucket.  An observation lands
    in the first bucket whose upper bound is ``>= value``.
    """

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        b = tuple(float(x) for x in buckets)
        if not b:
            raise ValueError("need at least one bucket bound")
        if any(not math.isfinite(x) for x in b):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        if list(b) != sorted(set(b)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = b
        self.bucket_counts = [0] * (len(b) + 1)
        self.sum = 0.0
        self.count = 0

    def _bucket_index(self, value: float) -> int:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    def observe(self, value: float) -> None:
        self.bucket_counts[self._bucket_index(value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "HistogramValue") -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.sum += other.sum
        self.count += other.count

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (linear interpolation inside the
        containing bucket, Prometheus-style).  ``None`` when empty; an
        observation landing in the overflow bucket clamps to the last
        finite bound."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, n in zip(self.buckets, self.bucket_counts):
            if n > 0 and cumulative + n >= target:
                fraction = (target - cumulative) / n
                return lower + (bound - lower) * fraction
            cumulative += n
            lower = bound
        return self.buckets[-1]

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramValue":
        hist = cls(buckets=data["buckets"])
        counts = [int(c) for c in data["bucket_counts"]]
        if len(counts) != len(hist.bucket_counts):
            raise ValueError("bucket count length mismatch")
        if any(c < 0 for c in counts) or int(data["count"]) < 0:
            raise ValueError("negative histogram counts")
        hist.bucket_counts = counts
        hist.sum = float(data["sum"])
        hist.count = int(data["count"])
        return hist


class _Family:
    """All samples of one metric name (one kind, one bucket layout)."""

    __slots__ = ("name", "kind", "help", "buckets", "samples")

    def __init__(self, name: str, kind: str, help_text: str = "",
                 buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = tuple(buckets) if buckets is not None else None
        self.samples: Dict[LabelKey, Union[float, HistogramValue]] = {}


class MetricsRegistry:
    """Thread-safe, process-local registry of named metrics."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, _Family] = {}

    # -- family management ---------------------------------------------
    def _family(self, name: str, kind: str, help_text: str = "",
                buckets: Optional[Sequence[float]] = None) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            fam = _Family(name, kind, help_text, buckets)
            self._families[name] = fam
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, "
                f"not {kind}"
            )
        if help_text and not fam.help:
            fam.help = help_text
        return fam

    # -- writes --------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, help: str = "",
            **labels: object) -> None:
        """Add ``value`` to a counter (created on first use)."""
        if value < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            fam = self._family(name, "counter", help)
            fam.samples[key] = float(fam.samples.get(key, 0.0)) + value

    def set_gauge(self, name: str, value: float, help: str = "",
                  **labels: object) -> None:
        """Set a gauge to ``value`` (last write wins)."""
        key = _label_key(labels)
        with self._lock:
            fam = self._family(name, "gauge", help)
            fam.samples[key] = float(value)

    def observe(self, name: str, value: float, help: str = "",
                buckets: Optional[Sequence[float]] = None,
                **labels: object) -> None:
        """Record one observation into a fixed-bucket histogram."""
        self.observe_many(name, (value,), help, buckets, **labels)

    def observe_many(self, name: str, values: Sequence[float],
                     help: str = "",
                     buckets: Optional[Sequence[float]] = None,
                     **labels: object) -> None:
        """Record a batch of observations, in order, into one
        fixed-bucket histogram sample under one lock acquisition."""
        key = _label_key(labels)
        with self._lock:
            fam = self._family(name, "histogram", help,
                               buckets or DEFAULT_TIME_BUCKETS)
            hist = fam.samples.get(key)
            if hist is None:
                hist = HistogramValue(fam.buckets or DEFAULT_TIME_BUCKETS)
                fam.samples[key] = hist
            assert isinstance(hist, HistogramValue)
            for value in values:
                hist.observe(value)

    # -- reads ---------------------------------------------------------
    def value(self, name: str, **labels: object) -> Optional[
            Union[float, HistogramValue]]:
        """The sample for ``name``/``labels``; ``None`` when absent."""
        key = _label_key(labels)
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                return None
            return fam.samples.get(key)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def clear(self) -> None:
        with self._lock:
            self._families.clear()

    # -- merge ---------------------------------------------------------
    def merge(self, other: Union["MetricsRegistry", dict]) -> None:
        """Fold another registry (or snapshot dict) into this one.

        Counters and histogram bins add; gauges take the incoming
        value.  Kind or bucket-layout conflicts raise ``ValueError``
        rather than silently corrupting a series.
        """
        if isinstance(other, MetricsRegistry):
            other = other.to_dict()
        for metric in other.get("metrics", []):
            name = metric["name"]
            kind = metric["kind"]
            with self._lock:
                fam = self._family(name, kind, metric.get("help", ""),
                                   metric.get("buckets"))
                for sample in metric["samples"]:
                    key = _label_key(sample.get("labels", {}))
                    if kind == "counter":
                        fam.samples[key] = (
                            float(fam.samples.get(key, 0.0))
                            + float(sample["value"])
                        )
                    elif kind == "gauge":
                        fam.samples[key] = float(sample["value"])
                    elif kind == "histogram":
                        incoming = HistogramValue.from_dict(sample["value"])
                        current = fam.samples.get(key)
                        if current is None:
                            fam.samples[key] = incoming
                        else:
                            assert isinstance(current, HistogramValue)
                            current.merge(incoming)
                    else:
                        raise ValueError(f"unknown metric kind {kind!r}")

    # -- exposition ----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable snapshot (schema version 1).

        Families and samples are deterministically ordered so two
        equal registries serialize byte-identically.
        """
        metrics = []
        with self._lock:
            for name in sorted(self._families):
                fam = self._families[name]
                samples = []
                for key in sorted(fam.samples):
                    raw = fam.samples[key]
                    value = (raw.to_dict()
                             if isinstance(raw, HistogramValue) else raw)
                    samples.append({"labels": dict(key), "value": value})
                entry = {
                    "name": fam.name,
                    "kind": fam.kind,
                    "help": fam.help,
                    "samples": samples,
                }
                if fam.buckets is not None:
                    entry["buckets"] = list(fam.buckets)
                metrics.append(entry)
        return {"version": 1, "metrics": metrics}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        reg = cls()
        reg.merge(data)
        return reg

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition (format 0.0.4)."""
        lines: List[str] = []
        snapshot = self.to_dict()
        for fam in snapshot["metrics"]:
            name, kind = fam["name"], fam["kind"]
            if fam.get("help"):
                lines.append(f"# HELP {name} {fam['help']}")
            lines.append(f"# TYPE {name} {kind}")
            for sample in fam["samples"]:
                labels = sample["labels"]
                if kind in ("counter", "gauge"):
                    lines.append(
                        f"{name}{_prom_labels(labels)} "
                        f"{_prom_num(sample['value'])}"
                    )
                else:
                    hist = sample["value"]
                    cumulative = 0
                    bounds = list(hist["buckets"]) + [math.inf]
                    for bound, count in zip(bounds, hist["bucket_counts"]):
                        cumulative += count
                        le = "+Inf" if math.isinf(bound) else _prom_num(bound)
                        lines.append(
                            f"{name}_bucket"
                            f"{_prom_labels(labels, le=le)} {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_prom_labels(labels)} "
                        f"{_prom_num(hist['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_prom_labels(labels)} {hist['count']}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_num(value: float) -> str:
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _prom_labels(labels: Dict[str, str], **extra: str) -> str:
    merged = dict(labels)
    merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_prom_escape(v)}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _prom_escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _counter_sum(fams: Dict[str, dict], name: str, **match: str) -> float:
    """Sum a counter family's samples whose labels contain ``match``."""
    fam = fams.get(name)
    if fam is None:
        return 0.0
    total = 0.0
    for sample in fam["samples"]:
        labels = sample.get("labels", {})
        if all(labels.get(k) == v for k, v in match.items()):
            total += float(sample["value"])
    return total


def _counter_by_label(fams: Dict[str, dict], name: str,
                      label: str) -> Dict[str, float]:
    """Per-label-value sums of one counter family (empty if absent)."""
    fam = fams.get(name)
    if fam is None:
        return {}
    out: Dict[str, float] = {}
    for sample in fam["samples"]:
        key = sample.get("labels", {}).get(label)
        if key is not None:
            out[key] = out.get(key, 0.0) + float(sample["value"])
    return out


def _gauge_value(fams: Dict[str, dict], name: str,
                 default: float = 0.0) -> float:
    fam = fams.get(name)
    if fam is None or not fam["samples"]:
        return default
    return float(fam["samples"][-1]["value"])


def _histogram_merged(fams: dict, name: str) -> HistogramValue:
    """Every sample of histogram family ``name`` merged into one
    (empty when the family is absent)."""
    merged = HistogramValue()
    for sample in fams.get(name, {"samples": ()})["samples"]:
        merged.merge(HistogramValue.from_dict(sample["value"]))
    return merged


def serving_summary(data: dict) -> Optional[Dict[str, object]]:
    """Digest of the ``repro_serving_*`` families of a snapshot.

    ``None`` when the snapshot contains no serving metrics (e.g. it was
    written by the offline ``repro serve`` simulation).
    """
    fams = {f["name"]: f for f in data.get("metrics", [])}
    if not any(n.startswith("repro_serving_") for n in fams):
        return None
    latency = _histogram_merged(
        fams, "repro_serving_frame_latency_seconds"
    )
    appends = _histogram_merged(
        fams, "repro_serving_journal_append_seconds"
    )
    encoded = _counter_sum(fams, "repro_serving_frames_encoded_total")
    misses = _counter_sum(fams, "repro_serving_deadline_miss_total")
    adm = "repro_serving_admission_total"
    return {
        "sessions_accepted": _counter_sum(fams, adm, decision="accept"),
        "sessions_parked": _counter_sum(fams, adm, decision="park"),
        "sessions_rejected": _counter_sum(fams, adm, decision="reject"),
        "frames_encoded": encoded,
        "frames_dropped": _counter_sum(
            fams, "repro_serving_frames_dropped_total"
        ),
        "protocol_errors": _counter_sum(
            fams, "repro_serving_protocol_errors_total"
        ),
        "latency_p50_s": latency.quantile(0.50),
        "latency_p95_s": latency.quantile(0.95),
        "deadline_misses": misses,
        "deadline_miss_rate": (misses / encoded) if encoded else None,
        "resumes": _counter_sum(fams, "repro_serving_resumes_total"),
        "watchdog_fires": _counter_sum(
            fams, "repro_serving_watchdog_fires_total"
        ),
        "watchdog_replans": _counter_sum(
            fams, "repro_serving_watchdog_replans_total"
        ),
        "journal_gops": _counter_sum(
            fams, "repro_serving_journal_gops_total"
        ),
        "journal_corruptions": _counter_sum(
            fams, "repro_serving_journal_corruptions_total"
        ),
        "sessions_parked_for_resume": _counter_sum(
            fams, "repro_serving_sessions_parked_total"
        ),
        "drains": _counter_sum(fams, "repro_serving_drains_total"),
        # Fleet counters.  ``_counter_sum`` yields 0.0 for absent families,
        # so snapshots written before the multi-worker fleet existed still
        # summarise cleanly with stable zero defaults.
        "sessions_adopted": _counter_sum(
            fams, "repro_serving_sessions_adopted_total"
        ),
        "lease_conflicts": _counter_sum(
            fams, "repro_serving_lease_conflicts_total"
        ),
        "worker_deaths": _counter_sum(
            fams, "repro_serving_worker_deaths_total"
        ),
        "worker_restarts": _counter_sum(
            fams, "repro_serving_worker_restarts_total"
        ),
        "worker_breaker_trips": _counter_sum(
            fams, "repro_serving_worker_breaker_trips_total"
        ),
        "fleet_accepted": _counter_sum(
            fams, "repro_serving_fleet_admission_total", decision="accept"
        ),
        "fleet_parked": _counter_sum(
            fams, "repro_serving_fleet_admission_total", decision="park"
        ),
        "fleet_rejected": _counter_sum(
            fams, "repro_serving_fleet_admission_total", decision="reject"
        ),
        # Tenant-policy counters (PR 9): every key below defaults to
        # zero/empty, so a pre-policy snapshot summarises unchanged.
        "tenant_sessions": _counter_by_label(
            fams, "repro_serving_tenant_sessions_total", "tenant"
        ),
        "entitlement_blocks": _counter_sum(
            fams, "repro_serving_tenant_entitlement_total"
        ),
        # Storage-durability counters (PR 10): absent families default
        # to zero and the gauge to healthy, so older snapshots (and a
        # journal-less server) summarise unchanged.
        "durability": _gauge_value(
            fams, "repro_serving_durability", default=1.0
        ),
        "durability_brownouts": _counter_sum(
            fams, "repro_serving_durability_brownouts_total"
        ),
        "durability_readmits": _counter_sum(
            fams, "repro_serving_durability_readmits_total"
        ),
        "tombstone_rejects": _counter_sum(
            fams, "repro_serving_tombstone_rejects_total"
        ),
        "journal_retries": _counter_sum(
            fams, "repro_serving_journal_retries_total"
        ),
        # What durability costs, on the journal writer thread: records
        # appended, seconds spent building + hashing + writing + syncing
        # them, bytes they put on disk.
        "journal_appends": float(appends.count),
        "journal_append_s": float(appends.sum),
        "journal_bytes": _counter_sum(
            fams, "repro_serving_journal_bytes_total"
        ),
    }


def _fmt_latency(value: Optional[float]) -> str:
    return f"{value * 1e3:.1f} ms" if value is not None else "n/a"


def format_metrics(data: dict) -> str:
    """Human-readable rendering of a :meth:`MetricsRegistry.to_dict`
    snapshot (the ``repro metrics`` pretty-printer)."""
    lines: List[str] = []
    for fam in data.get("metrics", []):
        lines.append(f"{fam['name']}  [{fam['kind']}]"
                     + (f"  — {fam['help']}" if fam.get("help") else ""))
        for sample in fam["samples"]:
            labels = sample.get("labels", {})
            tag = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            tag = f"{{{tag}}}" if tag else ""
            value = sample["value"]
            if isinstance(value, dict):  # histogram
                mean = value["sum"] / value["count"] if value["count"] else 0.0
                lines.append(
                    f"  {tag:<40} count={value['count']} "
                    f"sum={value['sum']:.6g} mean={mean:.6g}"
                )
            else:
                lines.append(f"  {tag:<40} {value:g}")
    serving = serving_summary(data)
    if serving is not None:
        miss_rate = serving["deadline_miss_rate"]
        lines += [
            "",
            "serving",
            f"  sessions     : accepted {serving['sessions_accepted']:g}, "
            f"parked {serving['sessions_parked']:g}, "
            f"rejected {serving['sessions_rejected']:g}",
            f"  frames       : encoded {serving['frames_encoded']:g}, "
            f"dropped {serving['frames_dropped']:g}",
            f"  latency      : p50 {_fmt_latency(serving['latency_p50_s'])}, "
            f"p95 {_fmt_latency(serving['latency_p95_s'])}",
            f"  deadline miss: {serving['deadline_misses']:g} "
            + (f"({miss_rate:.1%})" if miss_rate is not None else "(n/a)"),
            f"  protocol errs: {serving['protocol_errors']:g}",
            f"  recovery     : resumes {serving['resumes']:g}, "
            f"watchdog fires {serving['watchdog_fires']:g} "
            f"(replans {serving['watchdog_replans']:g}), "
            f"parked for resume {serving['sessions_parked_for_resume']:g}, "
            f"drains {serving['drains']:g}",
            f"  journal      : GOPs {serving['journal_gops']:g}, "
            f"corruptions {serving['journal_corruptions']:g}, "
            f"appends {serving['journal_appends']:g} "
            f"({serving['journal_append_s'] * 1e3:.1f} ms, "
            f"{serving['journal_bytes']:.0f} bytes)",
            f"  durability   : "
            + ("healthy" if serving["durability"] >= 1.0 else "BROWNOUT")
            + f", brownouts {serving['durability_brownouts']:g}, "
            f"readmits {serving['durability_readmits']:g}, "
            f"tombstone rejects {serving['tombstone_rejects']:g}, "
            f"write retries {serving['journal_retries']:g}",
            f"  fleet        : adopted {serving['sessions_adopted']:g}, "
            f"lease conflicts {serving['lease_conflicts']:g}, "
            f"worker deaths {serving['worker_deaths']:g}, "
            f"restarts {serving['worker_restarts']:g}, "
            f"breaker trips {serving['worker_breaker_trips']:g}",
            f"  policy       : entitlement blocks "
            f"{serving['entitlement_blocks']:g}",
        ]
        for name, sessions in sorted(serving["tenant_sessions"].items()):
            lines.append(f"  tenant {name:>6s}: sessions {sessions:g}")
    return "\n".join(lines)
