"""Span recording around the program's public entry points.

The wrappers are installed from the benchmark's own files, around calls
into each layer; nothing inside the program is instrumented.  Each span
records its name, start, end, parent span (the enclosing span on the same
thread), the request seq(s) where known and an optional work amount.
Self time is a span's duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    #: enclosing span on the same thread (0 = none)
    parent: int
    thread: int
    #: request seq (int), seqs of a batch (tuple), or None
    seq: object = None
    #: work done, e.g. elements requantized or requests in a batch
    amount: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; wrappers installed by :meth:`patch`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    def wrap(self, name: str, fn, *, seq=None, amount=None):
        """``fn`` recording one span per call.

        ``seq(args, kwargs, out)`` and ``amount(args, kwargs)`` extract
        the request seq(s) and work amount; both are optional.
        """
        local, spans, ids = self._local, self.spans, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(
                        sid, name, start, end, parent,
                        threading.get_ident(),
                        None if seq is None else seq(args, kwargs, out),
                        0 if amount is None else amount(args, kwargs),
                    )
                )

        return traced

    def patch(self, owner, attr: str, name: str, **extract) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by restore)."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        if had_own:
            raw = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, raw))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, self.wrap(name, original, **extract))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered, cur_start, cur_end = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans) -> dict[int, float]:
    """span id -> duration minus what its own children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - union_length(children[s.sid], s.start, s.end)
        for s in spans
    }


def write_spans(path, spans, header: dict) -> None:
    """JSON lines: one header object, then one array per span."""
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for s in spans:
            f.write(json.dumps(list(s)) + "\n")
