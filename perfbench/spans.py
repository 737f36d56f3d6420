"""In-memory span recorder for the traced benchmark run.

The tracer wraps hybridkit's public functions at the module attributes their
callers resolve (for example `hybridkit.hybrid.mla_forward`, which
`hybrid_forward` looks up in its own module), so nothing under `src/` changes.
Each wrapper appends one span (name, start, end, parent) to a list kept in
memory; the benchmark reads the list once the measured work is over.

A span's self time is its duration minus the time its direct children cover.
"""

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}     # name -> largest value noted
        self._stack = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def note(self, name: str, value) -> None:
        """Keep the largest value seen for a counter."""
        self.counts[name] = max(self.counts.get(name, value), value)

    def wrap(self, fn, name, after=None):
        """`name` is a span name or a callable(*args, **kwargs) -> name;
        `after(result)` runs once the wrapped call returns."""
        namer = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(namer(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result)
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Replace `owner.attr` by a traced wrapper for each
        (owner, attr, name[, after]) in `patches`; restore on exit."""
        saved = []
        try:
            for owner, attr, name, *after in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, *after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def roots(self) -> list:
        """Per span: the index of the top-level span it was recorded under."""
        out = []
        for idx, (_, _, _, parent) in enumerate(self.spans):
            out.append(idx if parent < 0 else out[parent])
        return out
