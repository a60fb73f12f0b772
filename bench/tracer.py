"""Span tracer that times calls into a package from outside it.

`Tracer.install` replaces every module-level binding of each target
function (matched by identity, so `aer.forward_solve`,
`aer.forward.forward_solve` and `aer.inverse.forward_solve` all become the
same wrapper) and returns nothing; `Tracer.restore` puts every original
object back.  Each wrapped call records one span:

    (sid, parent, name, thread, start, end, info)

`parent` is the sid of the innermost span open on the same thread when the
call began, or None.  `info` is whatever the function's probe extracted from
the call's arguments and result (step counts, table sizes, ...).

`self_times` and `covered_length` turn a span list into the numbers the
benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import types
from collections import defaultdict


def _plain_call(fn, args, kwargs):
    return fn(*args, **kwargs), None


class Tracer:
    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._replaced = []          # (owner, attribute, original), install order

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, probe=None):
        """Return a function that calls fn inside a span called name.

        probe(fn, args, kwargs) -> (result, info) makes the call itself, so
        it may adjust arguments and read counters off the result.
        """
        call = probe or _plain_call
        clock = self.clock
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            info = None
            start = clock()
            try:
                result, info = call(fn, args, kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(), start, end, info))
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, modules, functions, methods=(), probes=None):
        """Wrap functions (name -> function) at every binding in modules,
        and methods ((cls, attribute, name) triples) on their classes."""
        probes = probes or {}
        wrappers = {}
        for name, fn in functions.items():
            wrappers[id(fn)] = (fn, self.wrap(name, fn, probes.get(name)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replaced.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            self._replaced.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, probes.get(name)))

    def restore(self):
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)


def public_functions(modules, extra=()):
    """name -> function for the public functions each module defines itself,
    named '<last module component>.<function>', plus the listed private
    names given as 'module.function' in extra."""
    found = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, value in vars(module).items():
            if (isinstance(value, types.FunctionType) and value.__module__ == module.__name__
                    and (not attr.startswith("_") or f"{short}.{attr}" in extra)):
                found[f"{short}.{attr}"] = value
    return found


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def covered_length(spans, lo, hi):
    """Length of [lo, hi] covered by the union of the spans' intervals."""
    return _union_length([(max(s[4], lo), min(s[5], hi)) for s in spans
                          if min(s[5], hi) > max(s[4], lo)])


def self_times(spans):
    """sid -> duration minus the part of it covered by the span's children.

    Children are the spans whose parent is this span; they ran on the same
    thread, so work on other threads never counts against a span.
    """
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)
    return {s[0]: (s[5] - s[4]) - covered_length(children.get(s[0], ()), s[4], s[5])
            for s in spans}


def outermost(spans, names):
    """Spans whose name is in names and that have no ancestor named in names."""
    names = {names} if isinstance(names, str) else set(names)
    by_id = {s[0]: s for s in spans}

    def nested(s):
        parent = s[1]
        while parent is not None:
            p = by_id[parent]
            if p[2] in names:
                return True
            parent = p[1]
        return False

    return [s for s in spans if s[2] in names and not nested(s)]
