"""A static, bulk-loaded B+-tree over integer keys, stored on simulated pages.

The "adjacency tree" and "facility tree" of the paper's storage scheme
(Figure 2) are modelled with this structure: given a node id (respectively a
facility id), a root-to-leaf traversal — each step a buffered page read —
yields the pointer into the adjacency file (respectively the facility file).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from collections.abc import Iterable

from repro.errors import IndexKeyError, PackFormatError, StorageError
from repro.storage.buffer import LRUBufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.pages import PageKind, RecordSizes

__all__ = ["StaticBPlusTree"]


@dataclass(frozen=True)
class _LeafRecord:
    keys: tuple[int, ...]
    values: tuple[object, ...]


@dataclass(frozen=True)
class _InternalRecord:
    separators: tuple[int, ...]  # smallest key reachable under each child except the first
    children: tuple[int, ...]  # child page ids


class StaticBPlusTree:
    """Bulk-loaded B+ tree mapping integer keys to opaque values.

    The tree is read-only after construction, which matches the paper's
    setting (the network and facility set are static during querying).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        kind: PageKind,
        entries: Iterable[tuple[int, object]],
        *,
        record_sizes: RecordSizes | None = None,
        presorted: bool = False,
    ):
        """Bulk-load the tree from ``entries``.

        With ``presorted=True`` the entries are consumed as a stream that
        must already be in strictly increasing key order; nothing is
        materialised, so million-entry trees can be loaded with bounded
        memory (the streaming pack builder relies on this).  The resulting
        pages are identical to the sorted-list path for the same entries.
        """
        self._disk = disk
        self._kind = kind
        sizes = record_sizes or RecordSizes()
        fanout = max(disk.page_size // sizes.index_entry(), 2)
        self._fanout = fanout
        if not presorted:
            entries = sorted(entries, key=lambda pair: pair[0])
            keys = [key for key, _ in entries]
            if len(set(keys)) != len(keys):
                raise StorageError("B+ tree keys must be unique")
        self._num_entries = 0
        self._height = 0
        self._root_page_id = self._bulk_load(iter(entries))

    @classmethod
    def from_built(
        cls,
        disk,
        kind: PageKind,
        *,
        root_page_id: int | None,
        height: int,
        num_entries: int,
        record_sizes: RecordSizes | None = None,
    ) -> "StaticBPlusTree":
        """Adopt a tree whose pages already live on ``disk`` (no bulk load).

        Used when a dataset pack is opened: the leaf and internal pages were
        serialised at build time, so only the root pointer and shape
        metadata need restoring.
        """
        tree = object.__new__(cls)
        tree._disk = disk
        tree._kind = kind
        sizes = record_sizes or RecordSizes()
        tree._fanout = max(disk.page_size // sizes.index_entry(), 2)
        tree._num_entries = num_entries
        tree._height = height
        tree._root_page_id = root_page_id
        return tree

    @property
    def height(self) -> int:
        """Number of levels (pages read per lookup)."""
        return self._height

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def root_page_id(self) -> int | None:
        return self._root_page_id

    def page_count(self) -> int:
        """Number of pages the tree occupies."""
        return self._disk.pages_of_kind(self._kind)

    def _flush_leaf(self, keys: list[int], values: list[object]) -> tuple[int, int]:
        page = self._disk.allocate(self._kind)
        page.records.append(_LeafRecord(keys=tuple(keys), values=tuple(values)))
        page.used_bytes = len(keys) * RecordSizes().index_entry()
        return keys[0], page.page_id

    def _bulk_load(self, sorted_entries) -> int | None:
        # Leaf level, streamed: entries are consumed in key order and each
        # full fanout-chunk becomes one leaf page immediately.
        level: list[tuple[int, int]] = []  # (smallest key, page id)
        chunk_keys: list[int] = []
        chunk_values: list[object] = []
        previous_key: int | None = None
        for key, value in sorted_entries:
            if previous_key is not None and key <= previous_key:
                raise StorageError("B+ tree keys must be unique and in increasing order")
            previous_key = key
            chunk_keys.append(key)
            chunk_values.append(value)
            self._num_entries += 1
            if len(chunk_keys) == self._fanout:
                level.append(self._flush_leaf(chunk_keys, chunk_values))
                chunk_keys = []
                chunk_values = []
        if chunk_keys:
            level.append(self._flush_leaf(chunk_keys, chunk_values))
        if not level:
            return None
        self._height = 1
        # Internal levels.
        while len(level) > 1:
            next_level: list[tuple[int, int]] = []
            for start in range(0, len(level), self._fanout):
                chunk = level[start : start + self._fanout]
                page = self._disk.allocate(self._kind)
                record = _InternalRecord(
                    separators=tuple(key for key, _ in chunk[1:]),
                    children=tuple(page_id for _, page_id in chunk),
                )
                page.records.append(record)
                page.used_bytes = len(chunk) * RecordSizes().index_entry()
                next_level.append((chunk[0][0], page.page_id))
            level = next_level
            self._height += 1
        return level[0][1]

    def _traverse(self, key: int, read) -> tuple[list[int], object]:
        """Root-to-leaf descent for ``key``: the visited page ids and the value.

        ``read`` supplies each page — the buffered (counted) reader for live
        lookups, :meth:`SimulatedDisk.peek` for plan extraction — so both
        callers share one descent and can never diverge.  Raises
        :class:`IndexKeyError` when the key is absent.
        """
        if self._root_page_id is None:
            raise IndexKeyError(f"key {key} not found in empty index")
        path: list[int] = []
        page_id = self._root_page_id
        # A stored tree may be corrupt: every page must be one of this tree's
        # and a leaf must come within ``height`` levels, or the descent fails
        # typed (PackFormatError) instead of crashing or cycling.
        for _level in range(self._height):
            path.append(page_id)
            page = read(page_id)
            if page.kind is not self._kind or not page.records:
                raise PackFormatError(f"page {page_id} is not a page of the {self._kind.value} tree")
            record = page.records[0]
            if isinstance(record, _LeafRecord):
                position = bisect.bisect_left(record.keys, key)
                if position < len(record.keys) and record.keys[position] == key:
                    return path, record.values[position]
                raise IndexKeyError(f"key {key} not found in index")
            if isinstance(record, _InternalRecord):
                child_index = bisect.bisect_right(record.separators, key)
                if child_index < len(record.children):
                    page_id = record.children[child_index]
                    continue
            raise PackFormatError(f"page {page_id} holds no child for key {key}")
        raise PackFormatError(f"descent for key {key} passes the tree height {self._height}")

    def lookup(self, key: int, buffer: LRUBufferPool) -> object:
        """Return the value stored under ``key``; every page visited is a buffered read.

        Raises :class:`IndexKeyError` when the key is absent.
        """
        return self._traverse(key, buffer.read)[1]

    def path_pages(self, key: int) -> tuple[int, ...]:
        """The root-to-leaf page ids a :meth:`lookup` of ``key`` would read.

        The tree is static, so the path is fixed at build time; the compiled
        graph precomputes it per key and replays it through a buffer pool to
        charge exactly the page reads a live traversal would cost.  Reads go
        through :meth:`SimulatedDisk.peek`, so no counter moves here.
        """
        return tuple(self._traverse(key, self._disk.peek)[0])
