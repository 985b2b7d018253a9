"""An LRU buffer pool between the query algorithms and the simulated disk.

The paper's experiments vary the buffer size between 0 % and 2 % of the
pages occupied by the MCN information (default 1 %); the pool here
implements exactly that: a fixed-capacity page cache with least-recently-used
eviction and hit/miss accounting.  Capacity 0 disables caching entirely
(every request is a physical read), matching the paper's 0 % configuration.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.counters import Counters
from repro.errors import StorageError
from repro.storage.disk import SimulatedDisk
from repro.storage.pages import Page

__all__ = ["BufferStatistics", "LRUBufferPool"]


@dataclass
class BufferStatistics(Counters):
    """Logical request counters of the buffer pool."""

    requests: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class LRUBufferPool:
    """Fixed-capacity LRU cache of disk pages."""

    def __init__(self, disk: SimulatedDisk, capacity: int):
        if capacity < 0:
            raise StorageError("buffer capacity cannot be negative")
        self._disk = disk
        self._capacity = capacity
        self._frames: OrderedDict[int, Page] = OrderedDict()
        self._stats = BufferStatistics()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def statistics(self) -> BufferStatistics:
        return self._stats

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    def read(self, page_id: int) -> Page:
        """Return the page, from the buffer when resident, otherwise from disk."""
        self._stats.requests += 1
        if self._capacity == 0:
            self._stats.misses += 1
            return self._disk.read(page_id)
        frame = self._frames.get(page_id)
        if frame is not None:
            self._stats.hits += 1
            self._frames.move_to_end(page_id)
            return frame
        self._stats.misses += 1
        page = self._disk.read(page_id)
        self._frames[page_id] = page
        if len(self._frames) > self._capacity:
            self._frames.popitem(last=False)
        return page

    def clear(self) -> None:
        """Drop all resident pages (used between repeated queries in benchmarks)."""
        self._frames.clear()
