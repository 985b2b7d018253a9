"""A simulated disk: a flat page store with read/write accounting."""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.counters import Counters
from repro.errors import StorageError
from repro.storage.pages import Page, PageKind

__all__ = ["DiskStatistics", "SimulatedDisk"]


@dataclass
class DiskStatistics(Counters):
    """Raw physical I/O counters of the simulated disk."""

    page_reads: int = 0
    page_writes: int = 0


class SimulatedDisk:
    """Stores pages by id and counts every physical read and write.

    All reads normally go through :class:`repro.storage.buffer.LRUBufferPool`;
    reading the disk directly is only done by the buffer pool itself (on a
    miss) and by tests.
    """

    def __init__(self, page_size: int):
        if page_size <= 0:
            raise StorageError("page size must be positive")
        self._page_size = page_size
        self._pages: dict[int, Page] = {}
        self._next_page_id = 0
        self._stats = DiskStatistics()
        # One disk may back many snapshot views read by concurrent shard
        # workers; the counter increment must not lose updates across threads.
        self._stats_lock = threading.Lock()

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def statistics(self) -> DiskStatistics:
        return self._stats

    def allocate(self, kind: PageKind) -> Page:
        """Create and persist a fresh empty page of the given kind."""
        page = Page(page_id=self._next_page_id, kind=kind)
        self._pages[page.page_id] = page
        self._next_page_id += 1
        self._stats.page_writes += 1
        return page

    def read(self, page_id: int) -> Page:
        """Physically read a page (counted; safe under concurrent readers)."""
        try:
            page = self._pages[page_id]
        except KeyError:
            raise StorageError(f"unknown page {page_id}") from None
        with self._stats_lock:
            self._stats.page_reads += 1
        return page

    def peek(self, page_id: int) -> Page:
        """Read a page without touching any counter.

        Used only at *build* time — the compiled-graph snapshot walks the
        index trees once to precompute per-request page plans, and that walk
        must not perturb the physical-read accounting the experiments measure.
        """
        try:
            return self._pages[page_id]
        except KeyError:
            raise StorageError(f"unknown page {page_id}") from None

    def pages_of_kind(self, kind: PageKind) -> int:
        """Number of pages of a given kind (used to size the LRU buffer)."""
        return sum(1 for page in self._pages.values() if page.kind is kind)
