"""In-memory span tracer that wraps functions from outside the program.

A span is (name, start, end, parent). Spans are allocated when a wrapped
call starts, so a parent's index is always smaller than its children's.
Columns live in typed arrays (about 32 bytes per span) because a traced
filter run records around a million spans.
"""

import math
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.labels = []          # span name per name id
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")   # optional per-call payload (rows, pairs, bytes)
        self._stack = [-1]
        self._wrapped = []        # (owner, attr, original)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.labels)
            self.labels.append(name)
        return self._ids[name]

    def wrap(self, owner, attr, name, value=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``owner`` is the module or class whose attribute the caller looks
        up at call time; a name imported with ``from m import f`` must be
        wrapped in the importing module. ``value(args, kwargs)`` gives the
        span's payload.
        """
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.value.append(value(args, kwargs) if value else 0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, original))

    def restore(self):
        """Put every original back; returns True when all are restored."""
        for owner, attr, original in reversed(self._wrapped):
            setattr(owner, attr, original)
        restored = all(getattr(o, a) is f for o, a, f in self._wrapped)
        self._wrapped = []
        return restored

    def spans(self):
        return Spans(self.labels, self.name, self.parent, self.start, self.end,
                     self.value)


class Spans:
    """Column view of recorded spans with self-time and ancestry queries."""

    def __init__(self, labels, name, parent, start, end, value):
        self.labels = list(labels)
        self.name = np.asarray(name, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.value = np.asarray(value, dtype=np.float64)
        self.dur = np.asarray(end, dtype=np.float64) - self.start
        n = len(self.dur)
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child], minlength=n)
        self.self_time = self.dur - covered

    def __len__(self):
        return len(self.dur)

    def mask(self, name):
        if name not in self.labels:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.labels.index(name)

    def owner(self, name):
        """Index of the nearest span called ``name`` at or above each span, or -1."""
        idx = np.arange(len(self))
        own = np.where(self.mask(name), idx, -1)
        up = self.parent.copy()
        while True:
            todo = (own < 0) & (up >= 0)
            if not todo.any():
                return own
            hop = up[todo]
            own[todo] = own[hop]
            up[todo] = up[hop]

    def save(self, path):
        np.savez(path, labels=np.array(self.labels), name=self.name,
                 parent=self.parent, start=self.start, dur=self.dur, value=self.value)


def tail_percentile(samples, q):
    """Nearest-rank q-th percentile, or None unless ten samples lie above it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    if len(xs) - rank < 10:
        return None
    return xs[rank - 1]
