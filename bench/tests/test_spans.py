import spans as sp


def span(sid, parent, name, start, end, thread=1, obj=0, attr=None):
    return [sid, parent, name, start, end, thread, obj, attr]


def test_nested_spans_subtract_direct_children_only():
    spans = [
        span(1, 0, "push", 0, 100),
        span(2, 1, "frame", 10, 90),
        span(3, 2, "tile", 20, 60),
    ]
    own = sp.self_times(spans)
    assert own == {1: 20, 2: 40, 3: 40}
    assert sum(own.values()) == 100


def test_sibling_spans_add_up():
    spans = [
        span(1, 0, "push", 0, 100),
        span(2, 1, "tile", 0, 30),
        span(3, 1, "tile", 30, 70),
        span(4, 1, "tile", 80, 100),
    ]
    assert sp.self_times(spans)[1] == 10


def test_spans_of_another_thread_do_not_count():
    # Thread 2's push overlaps thread 1's in time; neither is the
    # other's child, so both keep their whole duration.
    spans = [
        span(1, 0, "push", 0, 100, thread=1),
        span(2, 0, "push", 50, 150, thread=2),
        span(3, 2, "tile", 60, 140, thread=2),
    ]
    own = sp.self_times(spans)
    assert own[1] == 100
    assert own[2] == 20
    assert own[3] == 80


def test_totals_by_name_window_and_self():
    spans = [
        span(1, 0, "push", 0, 100),
        span(2, 1, "tile", 10, 40),
        span(3, 0, "push", 200, 260),   # ends outside the window
    ]
    totals = sp.totals_by_name(spans, sp.self_times(spans), 0, 150)
    assert totals["push"] == sp.Total(1, 100, 70)
    assert totals["tile"] == sp.Total(1, 30, 30)


def test_subtree_self_sums_equal_root_duration():
    spans = [
        span(3, 2, "tile", 20, 60),
        span(2, 1, "frame", 10, 90),
        span(1, 0, "push", 0, 100),
        span(4, 3, "motion", 20, 35),   # synthetic child, appended late
        span(5, 0, "push", 0, 50, thread=2),
    ]
    sums = sp.subtree_self_sums(spans, sp.self_times(spans))
    assert sums[1] == 100
    assert sums[5] == 50


def test_gop_ledger_closes_exactly():
    push = span(1, 0, "pipeline.push", 1_000, 4_000, attr=[7, 99, 8])
    ledger = sp.gop_ledger(push, due_ns=100, sent_ns=300, recv_ns=4_500)
    assert ledger == sp.GopLedger(200, 700, 3_000, 500)
    assert ledger.total_ns == 4_500 - 100


def test_match_push_needs_same_pixels_and_containment():
    a = span(1, 0, "pipeline.push", 1_000, 2_000, attr=[7, 99, 8])
    b = span(2, 0, "pipeline.push", 5_000, 6_000, attr=[7, 99, 8])
    nested = span(3, 9, "pipeline.push", 1_100, 1_900, attr=[7, 99, 8])
    index = sp.index_pushes([a, b, nested])
    assert sp.match_push(index, 7, 99, 900, 2_100) is a
    assert sp.match_push(index, 7, 99, 4_000, 7_000) is b
    assert sp.match_push(index, 7, 98, 900, 2_100) is None
    assert sp.match_push(index, 7, 99, 1_500, 2_100) is None
