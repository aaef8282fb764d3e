"""In-memory spans for the traced run.

A span is (name, start, end, parent).  The benchmark opens spans in its own
files: around the public calls it makes, and, for code the package runs
internally (the sweep loop of ``verify.master_soundness``), by wrapping the
module attributes that loop looks up for the duration of a traced call.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    """Records spans in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(_now())
        self.ends.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.ends[idx] = _now()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _in_root(self, root: str | None) -> list[bool]:
        """Per span: does it lie under a top-level span named `root`?"""
        if root is None:
            return [True] * len(self.names)
        top = []
        for idx, parent in enumerate(self.parents):
            top.append(idx if parent < 0 else top[parent])
        return [self.names[t] == root for t in top]

    def durations(self, name: str, root: str | None = None) -> list[float]:
        keep = self._in_root(root)
        return [
            e - s
            for n, s, e, k in zip(self.names, self.starts, self.ends, keep)
            if k and n == name
        ]

    def self_times(self, root: str | None = None) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        totals: dict[str, float] = defaultdict(float)
        for name, t, k in zip(self.names, own, self._in_root(root)):
            if k:
                totals[name] += t
        return dict(totals)

    def dump(self, path, meta: dict) -> None:
        spans = [
            [n, s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"], "spans": spans}, fh)


class NullTracer:
    """The tracer of an untraced run: spans cost one no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL = NullTracer()


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap attributes in spans while the block runs.

    targets is [(owner, attr, span_name)], ``owner`` a module, a class or a
    dict.  A target the package no longer has is skipped with a warning;
    its time then shows up as uncovered in the report instead of breaking
    the run.
    """
    saved = []
    try:
        for owner, attr, span_name in targets:
            table = owner if isinstance(owner, dict) else vars(owner)
            if attr not in table:
                where = getattr(owner, "__name__", type(owner).__name__)
                print(f"perfbench: trace target {where}.{attr} missing", file=sys.stderr)
                continue
            old = table[attr]
            if isinstance(old, classmethod):
                new = classmethod(tracer.wrap(span_name, old.__func__))
            else:
                new = tracer.wrap(span_name, old)
            saved.append((owner, attr, old))
            if isinstance(owner, dict):
                owner[attr] = new
            else:
                setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
