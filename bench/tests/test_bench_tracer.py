"""The identity-wrapping tracer and the span arithmetic."""

import sys
import threading

import pytest

import aer
import aer.cli
from child import install_tracer
from tracer import Tracer, covered_length, outermost, self_times


def _bindings():
    mods = {name: m for name, m in sys.modules.items() if name == "aer" or name.startswith("aer.")}
    return {name: dict(vars(m)) for name, m in mods.items()}, mods


def test_install_wraps_every_binding_by_identity_and_restore_undoes_it():
    before, mods = _bindings()
    call_before = aer.expr.Expr.__dict__["__call__"]
    tracer = Tracer()
    install_tracer(tracer, aer)
    try:
        # one wrapper object behind every name bound to the same function
        assert aer.forward_solve is aer.forward.forward_solve is aer.inverse.forward_solve
        assert aer.forward.forward_solve is not before["aer.forward"]["forward_solve"]
        assert aer.cli.main is before["aer.cli"]["main"]          # left untraced
        aer.parse("x*y")(2.0, 3.0)
        assert [s[2] for s in tracer.spans] == ["expr.parse", "expr.Expr.__call__"]
        with pytest.raises(aer.ConfigError):
            aer.cli.load_config("no-such-preset", None)
        assert tracer.spans[-1][2] == "cli.load_config"
    finally:
        tracer.restore()
    after, _ = _bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        changed = [a for a, v in attrs.items() if after[name][a] is not v]
        assert changed == [], f"{name} keeps traced bindings {changed}"
    assert aer.expr.Expr.__dict__["__call__"] is call_before
    n = len(tracer.spans)
    aer.parse("x")(1.0, 1.0)
    assert len(tracer.spans) == n                                  # nothing traced now


def _span(sid, parent, thread, start, end):
    return (sid, parent, f"f{sid}", thread, start, end, None)


def test_self_time_on_nested_threaded_tree():
    spans = [
        _span(0, None, 1, 0.0, 10.0),     # main thread: 0 > {1, 2 > 3}
        _span(1, 0, 1, 1.0, 4.0),
        _span(2, 0, 1, 5.0, 9.0),
        _span(3, 2, 1, 6.0, 7.0),
        _span(4, None, 2, 2.0, 8.0),      # worker thread, overlapping 0 in time
        _span(5, 4, 2, 3.0, 5.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 4.0, 5: 2.0}
    assert covered_length([s for s in spans if s[1] is None], 0.0, 12.0) == 10.0
    assert covered_length(spans, 9.5, 20.0) == 0.5
    assert [s[0] for s in outermost(spans, {"f2", "f3"})] == [2]


def test_parents_follow_threads():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    barrier = threading.Barrier(2)

    def work():
        barrier.wait()
        for _ in range(50):
            outer()

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    by_id = {s[0]: s for s in tracer.spans}
    assert len(by_id) == 200
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        if s[2] == "outer":
            assert s[1] is None
            (child,) = [c for c in tracer.spans if c[1] == s[0]]
            assert selfs[s[0]] == pytest.approx((s[5] - s[4]) - (child[5] - child[4]))
        else:
            assert by_id[s[1]][2] == "outer" and by_id[s[1]][3] == s[3]
