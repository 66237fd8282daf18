"""Span arithmetic: self times, per-name totals and the per-GOP ledger.

A span is the list written by ``traced_server.Recorder``:
``[id, parent, name, start_ns, end_ns, thread, obj, attr]``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

ID, PARENT, NAME, START, END, THREAD, OBJ, ATTR = range(8)


def self_times(spans: Sequence[list]) -> Dict[int, int]:
    """Self time of every span: its duration minus its direct children.

    Parents are tracked per thread, so a span's children ran on its own
    thread, inside its interval and one after the other: their
    durations add up to the part of the interval they cover.  Spans of
    other threads that merely overlap in time do not count.
    """
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class Total(NamedTuple):
    calls: int
    total_ns: int   # children included
    self_ns: int


def totals_by_name(spans: Sequence[list], own: Dict[int, int], t0_ns: int,
                   t1_ns: int) -> Dict[str, Total]:
    """Per span name, over spans that *ended* inside ``[t0, t1)``;
    ``own`` is :func:`self_times` of the same spans."""
    acc: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        if t0_ns <= s[END] < t1_ns:
            a = acc[s[NAME]]
            a[0] += 1
            a[1] += s[END] - s[START]
            a[2] += own[s[ID]]
    return {name: Total(*a) for name, a in acc.items()}


def roots(spans: Sequence[list], names: Iterable[str]) -> List[list]:
    """Spans of the given names that no other span encloses."""
    names = set(names)
    return [s for s in spans if s[PARENT] == 0 and s[NAME] in names]


def subtree_self_sums(spans: Sequence[list],
                      own: Dict[int, int]) -> Dict[int, int]:
    """Per root span id, the self times (``own``) of it and everything
    under it.

    Equals the root's duration when every child nests inside its
    parent — the ledger's closure check for the encode subtree.
    """
    parent = {s[ID]: s[PARENT] for s in spans}
    sums: Dict[int, int] = defaultdict(int)
    for sid, self_ns in own.items():
        root = sid
        while parent.get(root, 0) in parent:
            root = parent[root]
        sums[root] += self_ns
    return sums


class GopLedger(NamedTuple):
    """One GOP's completion latency split into the four legs that add
    up to it exactly (one clock, CLOCK_MONOTONIC, on both sides)."""

    lateness_ns: int      # due -> actually sent
    ingest_wait_ns: int   # sent -> the GOP-closing push starts
    push_ns: int          # the push (encode) itself
    egress_wait_ns: int   # push ends -> last outcome received

    @property
    def total_ns(self) -> int:
        return sum(self)


def gop_ledger(push: list, due_ns: int, sent_ns: int,
               recv_ns: int) -> GopLedger:
    return GopLedger(sent_ns - due_ns, push[START] - sent_ns,
                     push[END] - push[START], recv_ns - push[END])


def match_push(pushes_by_key: Dict[tuple, List[list]], k: int,
               fingerprint: int, sent_ns: int,
               recv_ns: int) -> Optional[list]:
    """The root push that carried client frame ``k``: same index, same
    pixels, and it ran between the frame's send and its outcome."""
    for push in pushes_by_key.get((k, fingerprint), ()):
        if sent_ns <= push[START] and push[END] <= recv_ns:
            return push
    return None


def index_pushes(spans: Sequence[list]) -> Dict[tuple, List[list]]:
    by_key: Dict[tuple, List[list]] = defaultdict(list)
    for s in roots(spans, ("pipeline.push", "ladder.push")):
        if s[ATTR]:
            by_key[(s[ATTR][0], s[ATTR][1])].append(s)
    return by_key
