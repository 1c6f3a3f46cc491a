"""In-memory spans around calls into lisopt, recorded from outside the package.

lisopt modules bind their collaborators with ``from .x import f``, so a call
is intercepted by replacing the name in the module that looks it up (the
caller), not in the module that defines it. A span is named after the
defining module and function, e.g. ``phases.trace_values``, whichever caller
it was caught in.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float
    row: int          # result row the span worked for (0: none)
    info: object      # per-function detail taken from the result
    error: str | None  # exception class name when the call raised

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records one span per intercepted call; safe to use from several threads.

    Spans opened in a thread with no open span (the harness's pool threads)
    get the innermost region opened with ``adopt_threads=True`` as parent.
    A call wrapped with ``new_row=True`` starts a new result row, and the
    calls under it belong to that row; one wrapped with ``same_row=True``
    belongs to the last row its thread started. Other spans have row 0.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._rows = itertools.count(1)
        self._adopter: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, new_row: bool, same_row: bool = False):
        stack = self._stack()
        parent, row = stack[-1] if stack else (self._adopter, 0)
        sid = next(self._ids)
        if new_row:
            row = self._local.last_row = next(self._rows)
        elif same_row:
            row = getattr(self._local, "last_row", 0)
        stack.append((sid, row))
        return sid, parent, row

    def _close(self, sid, parent, name, t0, t1, row, info, error):
        self._stack().pop()
        self.spans.append(Span(sid, parent, name, t0, t1, row, info, error))

    @contextmanager
    def region(self, name: str, adopt_threads: bool = False):
        """A span around a block of the benchmark's own code."""
        sid, parent, row = self._open(False)
        previous = self._adopter
        if adopt_threads:
            self._adopter = sid
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._adopter = previous
            self._close(sid, parent, name, t0, t1, row, None, None)

    def wrap(self, owner, attr: str, info=None, new_row: bool = False,
             same_row: bool = False) -> None:
        """Replace ``owner.attr`` by a traced call; ``info(args, result)`` adds detail."""
        fn = getattr(owner, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            sid, parent, row = self._open(new_row, same_row)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(sid, parent, name, t0, perf_counter(), row, None,
                            type(exc).__name__)
                raise
            t1 = perf_counter()
            self._close(sid, parent, name, t0, t1, row,
                        info(args, result) if info else None, None)
            return result

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["id", "parent", "name", "t0", "t1", "row", "info",
                                 "error"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.t0, s.t1, s.row,
                                     s.info, s.error]) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Children in one thread never overlap; children in pool threads can, so
    the covered part is the length of the union of the child intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, end = 0.0, s.t0
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.id] = s.duration - covered
    return out


def per_span_overhead(repeats: int = 20000) -> float:
    """Seconds one traced call adds to a call of a trivial function."""

    class Holder:
        @staticmethod
        def noop(x):
            return x

    plain = Holder.noop
    t0 = perf_counter()
    for i in range(repeats):
        plain(i)
    bare = perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(Holder, "noop")
    traced = Holder.noop
    t0 = perf_counter()
    for i in range(repeats):
        traced(i)
    return max(0.0, (perf_counter() - t0 - bare) / repeats)
