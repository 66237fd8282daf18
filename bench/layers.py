"""Per-layer metrics of a traced run: the cost ledger.

``*_per_frame`` values divide what the spans (or the client's own
timers) recorded between the first and the last GOP completion of the
window by the ingest frames delivered in between.  Layer = module name.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

import spans as sp
from client import ClientResult, Event, Schedule
from stats import percentile
from workloads import GOP, row_fingerprint

#: Every per-layer metric: (unit, which way is better).  Counts that
#: only describe the run carry "higher" for traffic and "lower" for
#: cost, by convention; none of them has a bound.
PER_LAYER = {
    "machine.speed_index": ("ratio", "lower"),
    "raw.frames_per_s": ("1/s", "higher"),
    "raw.frame_latency_p50_ms": ("ms", "lower"),
    "raw.frame_latency_p95_ms": ("ms", "lower"),
    "raw.server_cpu_ms_per_frame": ("ms", "lower"),
    "client.on_time_frac": ("ratio", "higher"),
    "motion.search_ms_per_frame": ("ms", "lower"),
    "motion.sad_pixel_ops_per_frame": ("count", "lower"),
    "motion.candidates_per_frame": ("count", "lower"),
    "codec.entropy_ms_per_frame": ("ms", "lower"),
    "codec.tile_self_ms_per_frame": ("ms", "lower"),
    "codec.frame_self_ms_per_frame": ("ms", "lower"),
    "codec.transform_blocks_per_frame": ("count", "lower"),
    "codec.entropy_bits_per_frame": ("count", "lower"),
    "pipeline.push_ms_per_frame": ("ms", "lower"),
    "pipeline.self_ms_per_frame": ("ms", "lower"),
    "tiling.retile_ms_per_gop": ("ms", "lower"),
    "tiling.tiles_per_frame": ("count", "lower"),
    "analysis.evaluate_ms_per_frame": ("ms", "lower"),
    "analysis.classify_ms_per_session": ("ms", "lower"),
    "qp.adapt_us_per_frame": ("us", "lower"),
    "qp.mean_qp": ("count", "lower"),
    "workload.lut_us_per_frame": ("us", "lower"),
    "workload.lut_keys": ("count", "lower"),
    "server.ingest_wait_ms": ("ms", "lower"),
    "server.egress_wait_ms": ("ms", "lower"),
    "server.encode_util": ("ratio", "lower"),
    "server.peak_ingest_depth": ("count", "lower"),
    "server.drops.backpressure": ("count", "lower"),
    "server.drops.egress": ("count", "lower"),
    "server.drops.deadline": ("count", "lower"),
    "server.drops.watchdog": ("count", "lower"),
    "server.drops.policy": ("count", "lower"),
    "server.drops.corrupt": ("count", "lower"),
    "recovery.journal_append_ms": ("ms", "lower"),
    "recovery.appends_per_gop": ("count", "lower"),
    "recovery.journal_bytes_per_frame": ("count", "lower"),
    "statestore.lease_us_per_session": ("us", "lower"),
    "admission.decide_us": ("us", "lower"),
    "protocol.frame_serialise_us": ("us", "lower"),
    "protocol.encoded_decode_us": ("us", "lower"),
    "protocol.wire_bytes_per_frame": ("count", "lower"),
    "ladder.push_self_ms_per_frame": ("ms", "lower"),
    "scale.downscale_ms_per_frame": ("ms", "lower"),
    "ladder.rung_frames_per_ingest_frame": ("count", "higher"),
    "loadgen.lateness_p95_ms": ("ms", "lower"),
    "serving.sessions_per_s": ("1/s", "higher"),
    "serving.session_setup_p50_ms": ("ms", "lower"),
    "ledger.gops_matched_frac": ("ratio", "higher"),
    "ledger.self_sum_err_max_frac": ("ratio", "lower"),
    "trace.frames_per_s": ("1/s", "higher"),
}

#: Span name -> the metrics that read it.  When a refactor removed the
#: entry point behind a span, these come out empty (with a warning)
#: and the run still succeeds.
READS = {
    "pipeline.push": ("pipeline.push_ms_per_frame",
                      "pipeline.self_ms_per_frame", "server.ingest_wait_ms",
                      "server.egress_wait_ms", "server.encode_util",
                      "ledger.gops_matched_frac",
                      "ledger.self_sum_err_max_frac"),
    "ladder.push": ("ladder.push_self_ms_per_frame",),
    "tiling.retile": ("tiling.retile_ms_per_gop",),
    "analysis.evaluate": ("analysis.evaluate_ms_per_frame",),
    "analysis.classify": ("analysis.classify_ms_per_session",),
    "qp.adapt": ("qp.adapt_us_per_frame", "qp.mean_qp"),
    "codec.frame": ("codec.frame_self_ms_per_frame",
                    "tiling.tiles_per_frame"),
    "codec.tile": ("codec.tile_self_ms_per_frame",
                   "codec.entropy_ms_per_frame",
                   "codec.transform_blocks_per_frame",
                   "codec.entropy_bits_per_frame",
                   "motion.search_ms_per_frame",
                   "motion.sad_pixel_ops_per_frame",
                   "motion.candidates_per_frame", "tiling.tiles_per_frame"),
    "workload.estimate": ("workload.lut_us_per_frame",),
    "workload.observe": ("workload.lut_us_per_frame", "workload.lut_keys"),
    "admission.decide": ("admission.decide_us",),
    "recovery.append": ("recovery.journal_append_ms",
                        "recovery.appends_per_gop",
                        "recovery.journal_bytes_per_frame"),
    "statestore.acquire": ("statestore.lease_us_per_session",),
    "statestore.release": ("statestore.lease_us_per_session",),
    "scale.downscale": ("scale.downscale_ms_per_frame",),
}


def _journal_bytes(spans: Sequence[list], w0: int, w1: int) -> int:
    """Bytes the journals grew by inside the window: per journal, its
    size after the last append in the window minus its size after the
    last append before it."""
    before: Dict[int, int] = {}
    inside: Dict[int, int] = {}
    for s in spans:
        if s[sp.NAME] != "recovery.append" or s[sp.ATTR] is None:
            continue
        if s[sp.END] < w0:
            before[s[sp.OBJ]] = max(before.get(s[sp.OBJ], 0), s[sp.ATTR])
        elif s[sp.END] < w1:
            inside[s[sp.OBJ]] = max(inside.get(s[sp.OBJ], 0), s[sp.ATTR])
    return sum(size - before.get(obj, 0) for obj, size in inside.items())


def _ledgers(spans: Sequence[list], events: Sequence[Event],
             clips) -> List[sp.GopLedger]:
    pushes = sp.index_pushes(spans)
    ledgers = []
    for e in events:
        f = e.last
        plane = clips[e.session.conn][e.session.content_slot][f.clip_pos]
        push = sp.match_push(pushes, f.k, row_fingerprint(plane),
                             f.sent_ns, f.recv_ns)
        if push is not None:
            ledgers.append(sp.gop_ledger(push, f.due_ns, f.sent_ns,
                                         f.recv_ns))
    return ledgers


def per_layer(schedule: Schedule, observed: ClientResult, clips, dump: dict,
              events: Sequence[Event],
              out: Dict[str, object]) -> Dict[str, Optional[float]]:
    spans = dump["spans"]
    w0, w1 = events[0].t_ns, events[-1].t_ns
    window_s = (w1 - w0) / 1e9
    gops = len(events) - 1
    frames = gops * GOP
    own = sp.self_times(spans)
    totals = sp.totals_by_name(spans, own, w0, w1)
    zero = sp.Total(0, 0, 0)

    def t(name: str) -> sp.Total:
        return totals.get(name, zero)

    def per_call(total_ns: int, calls: int, scale: float) -> float:
        return total_ns / scale / calls if calls else 0.0

    tiles = [s for s in spans if s[sp.NAME] == "codec.tile"
             and w0 <= s[sp.END] < w1 and s[sp.ATTR]]
    ops = [sum(s[sp.ATTR][i] for s in tiles) for i in range(4)]
    qps = [s[sp.ATTR] for s in spans if s[sp.NAME] == "qp.adapt"
           and w0 <= s[sp.END] < w1 and s[sp.ATTR] is not None]
    root_pushes = [s for s in sp.roots(spans, ("pipeline.push",
                                               "ladder.push"))
                   if w0 <= s[sp.END] < w1]
    push_ns = sum(s[sp.END] - s[sp.START] for s in root_pushes)
    sums = sp.subtree_self_sums(spans, own)
    self_err = max(
        (abs(sums[s[sp.ID]] - (s[sp.END] - s[sp.START]))
         / max(1, s[sp.END] - s[sp.START]) for s in root_pushes),
        default=0.0)
    ledgers = _ledgers(spans, events[1:], clips)
    sessions = observed.sessions
    done = [s for s in sessions if w0 <= s.bye_ns < w1]
    setups = [(s.ack_ns - s.connect_ns) / 1e6 for s in sessions
              if w0 <= s.connect_ns < w1] or \
             [(s.ack_ns - s.connect_ns) / 1e6 for s in sessions]
    measured = [f for s in sessions for f in s.frames
                if schedule.measured(f)]
    delivered_all = sum(1 for s in sessions for f in s.frames
                        if f.delivered)
    sent_all = sum(len(s.frames) for s in sessions)
    drops: Dict[str, int] = {}
    for s in sessions:
        for reason, n in s.stats.get("frames_dropped", {}).items():
            drops[reason] = drops.get(reason, 0) + int(n)
    lease = t("statestore.acquire").total_ns + t("statestore.release").total_ns
    lut = t("workload.estimate").total_ns + t("workload.observe").total_ns

    m: Dict[str, Optional[float]] = {
        "motion.search_ms_per_frame": t("motion.search").total_ns / 1e6 / frames,
        "motion.sad_pixel_ops_per_frame": ops[0] / frames,
        "motion.candidates_per_frame": ops[1] / frames,
        "codec.entropy_ms_per_frame": t("codec.entropy").total_ns / 1e6 / frames,
        "codec.tile_self_ms_per_frame": t("codec.tile").self_ns / 1e6 / frames,
        "codec.frame_self_ms_per_frame": t("codec.frame").self_ns / 1e6 / frames,
        "codec.transform_blocks_per_frame": ops[2] / frames,
        "codec.entropy_bits_per_frame": ops[3] / frames,
        "pipeline.push_ms_per_frame": push_ns / 1e6 / frames,
        "pipeline.self_ms_per_frame": t("pipeline.push").self_ns / 1e6 / frames,
        "tiling.retile_ms_per_gop": per_call(
            t("tiling.retile").self_ns, t("tiling.retile").calls, 1e6),
        "tiling.tiles_per_frame": per_call(
            t("codec.tile").calls, t("codec.frame").calls, 1),
        "analysis.evaluate_ms_per_frame":
            t("analysis.evaluate").total_ns / 1e6 / frames,
        "analysis.classify_ms_per_session": per_call(
            t("analysis.classify").total_ns, t("analysis.classify").calls,
            1e6),
        "qp.adapt_us_per_frame": t("qp.adapt").total_ns / 1e3 / frames,
        "qp.mean_qp": statistics.fmean(qps) if qps else 0.0,
        "workload.lut_us_per_frame": lut / 1e3 / frames,
        "workload.lut_keys": float(dump["lut_keys"]),
        "server.ingest_wait_ms": statistics.median(
            g.ingest_wait_ns for g in ledgers) / 1e6 if ledgers else None,
        "server.egress_wait_ms": statistics.median(
            g.egress_wait_ns for g in ledgers) / 1e6 if ledgers else None,
        "server.encode_util": push_ns / 1e9 / window_s,
        "server.peak_ingest_depth": float(max(
            (int(s.stats.get("peak_ingest_depth", 0)) for s in sessions),
            default=0)),
        "recovery.journal_append_ms": per_call(
            t("recovery.append").total_ns, t("recovery.append").calls, 1e6),
        "recovery.appends_per_gop": t("recovery.append").calls / gops,
        "recovery.journal_bytes_per_frame":
            _journal_bytes(spans, w0, w1) / frames,
        "statestore.lease_us_per_session": per_call(lease, len(done), 1e3),
        "admission.decide_us": per_call(
            t("admission.decide").total_ns, t("admission.decide").calls,
            1e3),
        "protocol.frame_serialise_us": per_call(
            observed.serialise_ns, observed.serialised, 1e3),
        "protocol.encoded_decode_us": per_call(
            observed.decode_ns, observed.decoded, 1e3),
        "protocol.wire_bytes_per_frame": observed.wire_bytes / sent_all,
        "ladder.push_self_ms_per_frame": t("ladder.push").self_ns / 1e6 / frames,
        "scale.downscale_ms_per_frame":
            t("scale.downscale").total_ns / 1e6 / frames,
        "ladder.rung_frames_per_ingest_frame":
            (observed.decoded - sum(drops.values())) / max(1, delivered_all),
        "loadgen.lateness_p95_ms": percentile(
            [(f.sent_ns - f.due_ns) / 1e6 for f in measured], 95),
        "serving.sessions_per_s": len(done) / window_s,
        "serving.session_setup_p50_ms": statistics.median(setups),
        "ledger.gops_matched_frac": len(ledgers) / gops,
        "ledger.self_sum_err_max_frac": self_err,
        "trace.frames_per_s": out["end_to_end"]["frames_per_s"],
    }
    for reason in ("backpressure", "egress", "deadline", "watchdog",
                   "policy", "corrupt"):
        m[f"server.drops.{reason}"] = float(drops.get(reason, 0))

    for span_name in dump["unresolved"]:
        out["warnings"].append(
            f"entry point behind span {span_name!r} no longer exists; "
            f"its metrics are empty")
        for metric in READS.get(span_name, ()):
            m[metric] = None
    if m["loadgen.lateness_p95_ms"] > 5.0:
        out["warnings"].append(
            f"load generator ran late: p95 {m['loadgen.lateness_p95_ms']:.1f}"
            " ms after the due time")
    if m["ledger.gops_matched_frac"] is not None \
            and m["ledger.gops_matched_frac"] < 1.0:
        out["warnings"].append(
            f"ledger: only {len(ledgers)} of {gops} GOPs were "
            "matched to their server-side push")
    if self_err > 0.01:
        out["warnings"].append(
            f"ledger: self times under a push miss its duration by "
            f"{self_err:.1%}")
    return m
