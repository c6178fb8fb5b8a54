"""Spans around favar's module boundaries, recorded from outside the program.

``Tracer.patch`` replaces public functions in the namespace of the module
that calls them (``favar.pipeline.cv_lambda`` is the name the pipeline
looks up, so patching it catches every lambda-CV the pipeline runs) with a
wrapper that records one span per call: name, start, end, parent span and
thread. Spans stay in memory until ``write``. A span's self time is its
duration minus the part of it that its child spans cover; child spans
opened in worker threads count toward the span that was open in the main
thread when they began.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    args: tuple = ()
    result: object = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self, spans: list["Span"]) -> float:
        """Duration minus the union of the child spans' intervals."""
        covered = 0.0
        reach = self.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in self.children):
            lo, hi = max(lo, reach), min(hi, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


def layer_name(fn) -> str:
    """``favar.varlasso.cv_lambda`` -> ``varlasso.cv_lambda``."""
    return f"{fn.__module__.removeprefix('favar.')}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, args: tuple = ()):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sp = Span(len(self.spans), name, 0.0, parent=parent,
                      thread=threading.get_ident(), args=args)
            self.spans.append(sp)
            if parent is not None:
                self.spans[parent].children.append(sp.id)
        stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def patch(self, module, attr: str) -> None:
        """Wrap ``module.attr`` so every call through that name is a span."""
        original = getattr(module, attr)
        name = layer_name(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, args) as sp:
                sp.result = original(*args, **kwargs)
            return sp.result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def under(self, root: Span) -> list[Span]:
        """``root`` and every span below it."""
        out, todo = [], [root.id]
        while todo:
            sp = self.spans[todo.pop()]
            out.append(sp)
            todo.extend(sp.children)
        return out

    def write(self, path) -> None:
        records = [
            {
                "id": sp.id,
                "name": sp.name,
                "start": sp.start,
                "end": sp.end,
                "parent": sp.parent,
                "thread": sp.thread,
                "self": sp.self_time(self.spans),
            }
            for sp in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records}, fh)
            fh.write("\n")
