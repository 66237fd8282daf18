"""Traced server entry point: ``traced_server.py SPANS_OUT serve-net ...``.

Wraps a fixed table of the program's *public* entry points by class
attribute, then hands over to ``repro.cli.main`` unchanged.  Nothing in
``src/`` knows it is being traced: spans are recorded here, kept in
memory, and written to ``SPANS_OUT`` once the server has drained.

The table is resolved by name at start.  An entry point that a refactor
removed is reported under ``unresolved`` in the dump — its metrics come
out empty with a warning — and never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, List, Optional

from workloads import row_fingerprint

_now = time.monotonic_ns


class Recorder:
    """In-memory span store with a per-thread parent stack.

    A span is ``[id, parent, name, start_ns, end_ns, thread, obj, attr]``
    — ``obj`` identifies the session-level object the call ran on and
    ``attr`` is one entry-point-specific value (see :data:`TABLE`).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.unresolved: List[str] = []
        self.lut_keys: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn: Callable, name: str,
             attr: Optional[Callable] = None,
             force_kwargs: Optional[dict] = None,
             is_method: bool = True) -> Callable:
        spans, stack_of, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if force_kwargs:
                kwargs.update(force_kwargs)
            stack = stack_of()
            span = [next(ids), stack[-1] if stack else 0, name, _now(), 0,
                    threading.get_ident(),
                    id(args[0]) if is_method and args else 0, None]
            stack.append(span[0])
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[4] = _now()
                stack.pop()
                spans.append(span)
                if attr is not None:
                    try:
                        span[7] = attr(self, span, args, kwargs, result)
                    except Exception:  # a moved field must not fail a run
                        span[7] = None

        return traced

    def child(self, parent: list, name: str, start: int, dur: int) -> None:
        """A span measured by the program itself (stage timers)."""
        self.spans.append([next(self._ids), parent[0], name, start,
                           start + dur, parent[5], parent[6], None])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "unresolved": self.unresolved,
                "lut_keys": len(self.lut_keys),
                "pid": os.getpid(),
            }, fh)


# -- what each wrapper keeps of its call --------------------------------
def _frame_key(rec, span, args, kwargs, result):
    """(frame index, pixel fingerprint, outputs returned) of a push."""
    frame = args[1]
    return [int(frame.index), row_fingerprint(frame.luma),
            len(result) if result is not None else 0]


def _result_int(rec, span, args, kwargs, result):
    return int(result)


def _tile_stats(rec, span, args, kwargs, result):
    """Turn the encoder's own stage timers into child spans and keep
    the operation counts of the tile."""
    stages = result.stage_seconds or {}
    start = span[3]
    for stage, name in (("motion", "motion.search"),
                        ("entropy", "codec.entropy")):
        dur = int(stages.get(stage, 0.0) * 1e9)
        rec.child(span, name, start, dur)
        start += dur
    ops = result.ops
    return [ops.sad_pixel_ops, ops.me_candidates, ops.transform_blocks,
            ops.entropy_bits]


def _lut_key(rec, span, args, kwargs, result):
    rec.lut_keys.add(args[1])


def _journal_size(rec, span, args, kwargs, result):
    return os.path.getsize(args[0].path)


#: (span name, module, class or None, attribute, attr extractor, forced
#: keyword arguments).  Public entry points only, none called more
#: than once per tile.
TABLE = (
    ("pipeline.push", "repro.transcode.pipeline", "ProposedStreamSession",
     "push", _frame_key, None),
    ("pipeline.finish", "repro.transcode.pipeline", "ProposedStreamSession",
     "finish", None, None),
    ("ladder.push", "repro.ladder.session", "LadderSession", "push",
     _frame_key, None),
    ("tiling.retile", "repro.tiling.content_aware", "ContentAwareRetiler",
     "retile", None, None),
    ("analysis.evaluate", "repro.analysis.evaluator", "ContentEvaluator",
     "evaluate", None, None),
    ("analysis.classify", "repro.analysis.classes", "ContentClassifier",
     "classify_features", None, None),
    ("qp.adapt", "repro.qp.adaptation", "QpAdapter", "adapt",
     _result_int, None),
    ("codec.frame", "repro.codec.encoder", "FrameEncoder", "encode",
     None, None),
    # measure_stages is the encoder's own public switch: with it on,
    # TileStats.stage_seconds carries the motion and entropy time.
    ("codec.tile", "repro.codec.encoder", "TileEncoder", "encode",
     _tile_stats, {"measure_stages": True}),
    ("workload.estimate", "repro.workload.estimator", "WorkloadEstimator",
     "estimate", None, None),
    ("workload.observe", "repro.workload.estimator", "WorkloadEstimator",
     "observe", _lut_key, None),
    ("admission.decide", "repro.serving.admission", "AdmissionController",
     "decide", None, None),
    ("recovery.append", "repro.serving.recovery", "SessionJournal",
     "append", _journal_size, None),
    ("statestore.acquire", "repro.serving.statestore",
     "SharedDirStateStore", "acquire", None, None),
    ("statestore.release", "repro.serving.statestore",
     "SharedDirStateStore", "release", None, None),
    # Module-level: callers reach it through the module's globals.
    ("scale.downscale", "repro.video.scale", None, "downscale_plane",
     None, None),
)


def install(recorder: Recorder) -> None:
    for name, module, cls, attribute, attr, forced in TABLE:
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            fn = getattr(owner, attribute)
        except (ImportError, AttributeError):
            recorder.unresolved.append(name)
            continue
        setattr(owner, attribute, recorder.wrap(
            fn, name, attr, forced, is_method=cls is not None))


def main(argv: List[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
