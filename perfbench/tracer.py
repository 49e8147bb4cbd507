"""Outside-in tracer: wraps the program's public functions without editing them.

A wrapped name is rebound in every loaded ``schurq`` module that holds the same
object, because the package imports names directly (``from .linalg import
nullspace``); patching only the defining module would miss those calls.
Methods are patched on their class, which every caller reaches.

Each call records a span (name, start, end, parent, op).  A span's self time is
its duration minus the durations of its direct children.  Bookkeeping done by
hooks (counting keys, sizing results) runs outside every span, so it shows as
lost coverage and as overhead rather than inflating a layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = 0
        self.spans = []  # (name, start, end, parent span index or -1, op)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.keys = defaultdict(set)  # per-op distinct keys, e.g. repeat detection
        self.distinct = defaultdict(int)
        self.missing = []
        self._stack = []  # [span index, child seconds, group]
        self._patches = []
        self._alive = []  # objects whose id() is part of a key during one op

    # -- recording -----------------------------------------------------

    def begin_op(self):
        self.op += 1
        self._flush_keys()

    def end_op(self):
        self._flush_keys()

    def _flush_keys(self):
        for name, keys in self.keys.items():
            self.distinct[name] += len(keys)
        self.keys.clear()
        self._alive.clear()

    def seen(self, name, key):
        """Record a key for ``name``; True if it was already seen in this op."""
        keys = self.keys[name]
        if key in keys:
            return True
        keys.add(key)
        return False

    def keep(self, obj):
        """Keep ``obj`` alive until the op ends, so its id() cannot be reused."""
        self._alive.append(obj)

    def wrap(self, name, fn, hook=None, group=None):
        """Traced version of ``fn``.

        ``hook(args, kwargs, result)`` updates counters after the call.  A call
        made while a span of the same ``group`` is open runs untraced, so it
        counts once and its time stays with the outer call.
        """
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (group and stack and stack[-1][2] == group):
                return fn(*args, **kwargs)
            frame = [len(spans), 0.0, group]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans[frame[0]] = (name, t0, t1, parent, self.op)
                self.self_s[name] += (t1 - t0) - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if hook is not None:
                hook(args, kwargs, result)
                if stack:
                    stack[-1][1] += _clock() - t1
            return result

        return traced

    # -- patching ------------------------------------------------------

    def patch_function(self, module, attr, name, hook=None, group=None):
        """Rebind ``module.attr`` in every loaded schurq module that imported it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append("%s.%s" % (module.__name__, attr))
            return
        traced = self.wrap(name, original, hook, group)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "schurq" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr, name, hook=None, group=None):
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append("%s.%s" % (cls.__name__, attr))
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, hook, group))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def write_spans(self, path, meta):
        """Write the recorded spans as JSON lines, after the measured work."""
        with open(path, "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(
                    '{"id":%d,"parent":%d,"op":%d,"name":"%s","start":%.9f,"end":%.9f}\n'
                    % (i, parent, op, name, t0, t1)
                )
