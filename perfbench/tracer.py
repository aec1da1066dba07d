"""In-memory spans around the public functions of gnde's modules.

The tracer replaces each public function of a module with a wrapper that
records ``(span id, parent id, name, start, end)``.  Only the module's own
binding is replaced, so the spans sit at the calls into a layer (and at
calls a module makes to its own public functions); the program itself is
not edited.  A span opened on a worker thread with nothing open on that
thread gets the outermost open span as parent, so the trial pool's work
nests under ``cli.entry``.

Hooks keyed by span name add deterministic counts taken from a call's
arguments or result.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self, hooks=None):
        self.spans = []  # (sid, parent, name, t0, t1)
        self.counts = Counter()
        self._hooks = hooks or {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._patched = []

    def install(self, modules):
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                setattr(mod, name, self._wrap(f"{layer}.{name}", fn))
                self._patched.append((mod, name, fn))

    def uninstall(self):
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def _wrap(self, span_name, fn):
        hook = self._hooks.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if parent is None:
                self._root = sid
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if self._root == sid:
                    self._root = None
                self.spans.append((sid, parent, span_name, t0, t1))
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    # -- summaries ---------------------------------------------------------

    def calls(self, names) -> int:
        return sum(1 for span in self.spans if span[2] in names)

    def busy_s(self, names) -> float:
        """Summed time of the named spans, not counting a named span that
        runs inside another named one twice."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for sid, parent, name, t0, t1 in self.spans:
            if name in names and not self._inside(parent, names, by_id):
                total += t1 - t0
        return total

    def layer_self_s(self, layer: str) -> float:
        """Time inside the layer's spans that no other layer's span covers."""
        by_id = {span[0]: span for span in self.spans}
        prefix = layer + "."
        total = 0.0
        for sid, parent, name, t0, t1 in self.spans:
            in_layer = name.startswith(prefix)
            parent_in_layer = parent in by_id and by_id[parent][2].startswith(prefix)
            if in_layer and not parent_in_layer:
                total += t1 - t0  # outermost span of the layer
            elif not in_layer and parent_in_layer:
                total -= t1 - t0  # another layer called from inside it
        return total

    @staticmethod
    def _inside(sid, names, by_id) -> bool:
        while sid in by_id:
            if by_id[sid][2] in names:
                return True
            sid = by_id[sid][1]
        return False
