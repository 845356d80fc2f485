"""Spans around the calls into each gramphase module.

The tracer replaces module attributes with timing wrappers at the names
through which other modules (and the benchmark) call them, e.g.
``gramphase.experiments.solve`` or ``gramphase.solvers.project_prior``,
and puts the originals back on :meth:`Tracer.uninstall`.  Each call
records a span ``(id, parent, name, start, end)`` in memory; the spans
are written out once, at the end.  Calls are single-threaded, so child
spans nest inside their parent and a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.peaks: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr, name, on_return=None):
        """Time ``owner.attr`` as span ``name``; ``on_return(args, kwargs,
        result, seconds)`` records counters after the span has closed."""
        orig = getattr(owner, attr)
        spans, stack, names = self.spans, self._stack, self._names

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            names.append(name)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                names.pop()
                spans.append((sid, parent, name, t0, t1))
            if on_return is not None:
                on_return(args, kwargs, result, t1 - t0)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def caller(self) -> str:
        """Name of the innermost open span ('' at top level)."""
        return self._names[-1] if self._names else ""

    def count(self, key, value=1.0):
        self.counts[key] += value

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks[key], value)

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _, name, t0, t1 in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_time[sid]
        return out

    def under(self, name, ancestor_prefix):
        """Number of ``name`` spans with an ancestor named ``ancestor_prefix*``."""
        parents = {sid: (parent, n) for sid, parent, n, _, _ in self.spans}
        hits = 0
        for sid, parent, n, _, _ in self.spans:
            if n != name:
                continue
            while parent >= 0:
                parent, pname = parents[parent]
                if pname.startswith(ancestor_prefix):
                    hits += 1
                    break
        return hits

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
