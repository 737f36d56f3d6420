"""Transient-allocation accounting.

Forward and loss paths report their large working buffers (anything on the
order of tokens x vocab) through `record_alloc`. Tests wrap a region in
`track_allocations()` to assert that memory-bounded paths never materialize
full logit/softmax matrices.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class AllocTracker:
    sizes: dict = field(default_factory=dict)   # tag -> largest size recorded

    def record(self, tag: str, elements: int) -> None:
        self.sizes[tag] = max(self.sizes.get(tag, 0), int(elements))

    @property
    def peak_elements(self) -> int:
        return max(self.sizes.values(), default=0)

    def largest(self, tag_prefix: str = "") -> int:
        return max((n for tag, n in self.sizes.items() if tag.startswith(tag_prefix)),
                   default=0)


_active: list[AllocTracker] = []


def record_alloc(tag: str, elements: int) -> None:
    """Report a transient buffer of `elements` scalars to all active trackers."""
    for tracker in _active:
        tracker.record(tag, elements)


@contextmanager
def track_allocations():
    tracker = AllocTracker()
    _active.append(tracker)
    try:
        yield tracker
    finally:
        _active.remove(tracker)
