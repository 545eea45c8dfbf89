"""Outside-in span tracer for the public functions of ``callebaut_lab``.

The benchmark changes no code under ``src/``.  Instead it replaces each traced
public function, for the length of one traced session, by a wrapper that
records a span (name, key, start, end, parent) and then calls the original.

A function is often bound in several module namespaces: ``sym_eigen`` is
defined in ``matcore`` and imported by name into ``sampler``, ``inequalities``
and the package ``__init__``; ``cli`` imports ``evaluate_inequality`` and
``sample_family`` the same way.  A call resolves the name in the caller's own
namespace, so patching only the defining module would silently miss those
calls.  ``Tracer.session`` therefore replaces every binding, in every loaded
``callebaut_lab`` module, that is the original object, and restores each one
when the session ends.

Spans stay in memory.  A span's self time is its duration minus the time of
its child spans; both are computed as the spans close, and nothing is written
out until the caller asks for it after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "callebaut_lab"


@dataclass(frozen=True)
class Target:
    """One traced callable.

    ``attr`` may be dotted (``"MeanPath.__init__"``): the method is then
    replaced on its class, which every namespace shares.  ``key`` maps the
    call's ``(args, kwargs)`` to a sub-key recorded with the span (it runs
    before the clock starts); ``after`` maps ``(args, kwargs, result)`` to a
    number added to the span's ``note`` (it runs after the clock stops).
    """

    module: str
    attr: str
    name: str
    key: Callable | None = None
    after: Callable | None = None


class Span:
    __slots__ = ("name", "key", "start", "end", "parent", "child_ns", "note")

    def __init__(self, name, key, parent):
        self.name = name
        self.key = key
        self.parent = parent
        self.start = 0
        self.end = 0
        self.child_ns = 0
        self.note = 0

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """Records the spans of one traced session; create one per session."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack
        key_of, after = target.key, target.after
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(target.name, key_of(args, kwargs) if key_of else None, parent)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.end - span.start
            if after is not None:
                span.note = after(args, kwargs, result)
            return result

        return traced

    def _install(self, targets):
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for target in targets:
            owner = importlib.import_module(target.module)
            *path, leaf = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(target, original)
            if path:
                # A method: its class is shared by every namespace.
                self._patched.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def _restore(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def session(self, targets):
        """Trace ``targets`` inside the ``with`` block; restore on exit."""
        try:
            self._install(targets)
            yield self
        finally:
            self._restore()

    def write_jsonl(self, path: str):
        """Write every span as one JSON line (times in ns from the first span)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        origin = self.spans[0].start if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "parent": index[id(s.parent)] if s.parent is not None else None,
                    "name": s.name,
                    "key": s.key,
                    "start_ns": s.start - origin,
                    "dur_ns": s.dur_ns,
                    "self_ns": s.self_ns,
                }
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
