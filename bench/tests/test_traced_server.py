import threading
import types

import spans as sp
import traced_server
from traced_server import Recorder


def test_wrap_records_parents_per_thread():
    rec = Recorder()

    def leaf(x):
        return x + 1

    leaf_t = rec.wrap(leaf, "leaf", is_method=False)

    def root(x):
        return leaf_t(leaf_t(x))

    root_t = rec.wrap(root, "root", is_method=False)
    assert root_t(1) == 3
    other = threading.Thread(target=root_t, args=(5,))
    other.start()
    other.join(timeout=10)
    assert not other.is_alive()

    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s[sp.NAME], []).append(s)
    assert len(by_name["root"]) == 2 and len(by_name["leaf"]) == 4
    for root_span in by_name["root"]:
        assert root_span[sp.PARENT] == 0
        kids = [s for s in by_name["leaf"]
                if s[sp.PARENT] == root_span[sp.ID]]
        assert len(kids) == 2
        assert all(k[sp.THREAD] == root_span[sp.THREAD] for k in kids)
        assert all(root_span[sp.START] <= k[sp.START]
                   and k[sp.END] <= root_span[sp.END] for k in kids)
    own = sp.self_times(rec.spans)
    assert all(v >= 0 for v in own.values())


def test_a_raising_call_still_closes_its_span():
    rec = Recorder()

    def boom():
        raise KeyError("x")

    wrapped = rec.wrap(boom, "boom", is_method=False)
    try:
        wrapped()
    except KeyError:
        pass
    (span,) = rec.spans
    assert span[sp.END] >= span[sp.START] > 0
    assert wrapped.__name__ == "boom"


def test_forced_kwargs_and_failing_extractor():
    rec = Recorder()
    seen = {}

    def encode(self, measure_stages=False):
        seen["flag"] = measure_stages
        return 7

    def bad_attr(rec, span, args, kwargs, result):
        raise AttributeError("field moved")

    wrapped = rec.wrap(encode, "codec.tile", bad_attr,
                       {"measure_stages": True})
    assert wrapped(object(), measure_stages=False) == 7
    assert seen["flag"] is True
    assert rec.spans[0][sp.ATTR] is None


def test_missing_entry_point_is_reported_not_raised(monkeypatch):
    fake = types.ModuleType("fake_layer")

    class Thing:
        def present(self):
            return "ok"

    fake.Thing = Thing
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", fake)
    monkeypatch.setattr(traced_server, "TABLE", (
        ("a.present", "fake_layer", "Thing", "present", None, None),
        ("a.gone", "fake_layer", "Thing", "gone", None, None),
        ("b.gone", "no_such_module", None, "f", None, None),
    ))
    rec = Recorder()
    traced_server.install(rec)
    assert rec.unresolved == ["a.gone", "b.gone"]
    assert Thing().present() == "ok"
    assert [s[sp.NAME] for s in rec.spans] == ["a.present"]


def test_the_real_table_resolves_today():
    rec = Recorder()
    import importlib

    for name, module, cls, attribute, *_ in traced_server.TABLE:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attribute)), name
    assert rec.unresolved == []
