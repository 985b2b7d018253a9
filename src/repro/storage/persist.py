"""The on-disk dataset pack format and its ``mmap``-backed page store.

A *pack* is a single file holding an entire built dataset: every page of the
Figure-2 storage scheme (adjacency file, facility file and both bulk-loaded
B+-trees) plus the binary side tables a graph view needs (node ids, edge
table, facility-page index) and a JSON catalog describing all of it.

Layout (all integers little-endian)::

    +--------------------------------------------------------------+
    | header (88 bytes, fixed)                                     |
    |   magic "MCNPACK1" | endian tag | format version             |
    |   page_size | slot_size | num_pages                          |
    |   catalog offset | catalog length | SHA-256 checksum         |
    +--------------------------------------------------------------+
    | page region: num_pages slots of slot_size bytes each         |
    |   slot i starts at HEADER_SIZE + i * slot_size  (arithmetic) |
    +--------------------------------------------------------------+
    | binary sections (node ids, edge table, facility-page index)  |
    +--------------------------------------------------------------+
    | catalog JSON (section offsets, tree shapes, page counts)     |
    +--------------------------------------------------------------+

Every page is encoded into a fixed-width slot (the width is the largest
encoded page, so ``page_id -> file offset`` is a multiply-add), which lets
:class:`FileDisk` serve :meth:`read`/:meth:`peek` straight off an ``mmap``
with the exact interface of :class:`~repro.storage.disk.SimulatedDisk`.  The
checksum is the SHA-256 of the whole file with the checksum field zeroed.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import tempfile
import threading
from collections.abc import Sequence
from itertools import repeat

from repro.errors import (
    PackChecksumError,
    PackFormatError,
    PackVersionError,
    StorageError,
)
from repro.network.accessor import AdjacencyRecord, FacilityRecord
from repro.storage.btree import _InternalRecord, _LeafRecord
from repro.storage.disk import DiskStatistics
from repro.storage.layout import StoredAdjacencyEntry
from repro.storage.pages import Page, PageKind

__all__ = [
    "PACK_MAGIC",
    "PACK_VERSION",
    "FileDisk",
    "PackWriter",
    "SpoolingDisk",
    "compute_pack_checksum",
    "read_pack_header",
]

PACK_MAGIC = b"MCNPACK1"
PACK_VERSION = 1
# Written as a native little-endian u32; a pack produced on (or doctored
# for) a big-endian layout reads back as 0x04030201 and is rejected.
_ENDIAN_TAG = 0x01020304
_ENDIAN_TAG_SWAPPED = 0x04030201

_HEADER = struct.Struct("<8sIIQQQQQ32s")
HEADER_SIZE = _HEADER.size
_CHECKSUM_OFFSET = HEADER_SIZE - 32

_SLOT_HEADER = struct.Struct("<BxHI")  # page kind, pad, record count, used_bytes

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_FACILITY_RECORD = struct.Struct("<qqd")
# node, neighbour, edge, first node, length, facility count; then d costs
# and the facility-page id list.
_ADJACENCY_HEAD = struct.Struct("<qqqqdI")

_KIND_CODES = {
    PageKind.ADJACENCY: 0,
    PageKind.FACILITY: 1,
    PageKind.ADJACENCY_INDEX: 2,
    PageKind.FACILITY_INDEX: 3,
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

_LEAF = 0
_INTERNAL = 1


# --------------------------------------------------------------------- #
# Page slot codec
# --------------------------------------------------------------------- #
def _append_ids(parts: list[bytes], ids) -> None:
    parts.append(_U32.pack(len(ids)))
    for value in ids:
        parts.append(_I64.pack(value))


def encode_page(page: Page, num_cost_types: int) -> bytes:
    """Serialise one page (without slot padding)."""
    parts: list[bytes] = [
        _SLOT_HEADER.pack(_KIND_CODES[page.kind], len(page.records), page.used_bytes)
    ]
    if page.kind is PageKind.ADJACENCY:
        for stored in page.records:
            record = stored.record
            parts.append(
                _ADJACENCY_HEAD.pack(
                    stored.node,
                    record.neighbor,
                    record.edge_id,
                    record.first_node,
                    record.length,
                    record.facility_count,
                )
            )
            for cost in record.costs:
                parts.append(_F64.pack(cost))
            _append_ids(parts, stored.facility_pages)
    elif page.kind is PageKind.FACILITY:
        for record in page.records:
            parts.append(
                _FACILITY_RECORD.pack(record.facility_id, record.edge_id, record.offset)
            )
    else:
        for record in page.records:
            if isinstance(record, _LeafRecord):
                parts.append(_U8.pack(_LEAF))
                _append_ids(parts, record.keys)
                if page.kind is PageKind.ADJACENCY_INDEX:
                    # Adjacency-tree values are adjacency-file page tuples.
                    for pages in record.values:
                        _append_ids(parts, pages)
                else:
                    # Facility-tree values are (edge id, facility-page tuple).
                    for edge_id, pages in record.values:
                        parts.append(_I64.pack(edge_id))
                        _append_ids(parts, pages)
            elif isinstance(record, _InternalRecord):
                parts.append(_U8.pack(_INTERNAL))
                _append_ids(parts, record.separators)
                _append_ids(parts, record.children)
            else:  # pragma: no cover - guarded by the storage layer itself
                raise PackFormatError(
                    f"unencodable index record {type(record).__name__}"
                )
    return b"".join(parts)


def _mid_record() -> PackFormatError:
    return PackFormatError("page slot ends mid-record (corrupt pack)")


def _ids_overrun() -> PackFormatError:
    return PackFormatError("id list longer than its page slot (corrupt pack)")


def _read_ids(buffer, pos: int, end: int) -> tuple[tuple[int, ...], int]:
    """The id list at ``pos`` (u32 count + i64s) and the offset past it."""
    if pos + _U32.size > end:
        raise _mid_record()
    (count,) = _U32.unpack_from(buffer, pos)
    pos += _U32.size
    if count > (end - pos) >> 3:
        raise _ids_overrun()
    return struct.unpack_from(f"<{count}q", buffer, pos), pos + (count << 3)


def _ids_at(buffer, pos: int) -> tuple[int, ...]:
    """The id list at ``pos``, whose framing was already checked."""
    (count,) = _U32.unpack_from(buffer, pos)
    return struct.unpack_from(f"<{count}q", buffer, pos + _U32.size)


def _frame_adjacency(buffer, pos: int, end: int, count: int, head: struct.Struct):
    """Frame ``count`` adjacency records: their offsets and node column.

    ``head`` unpacks a record's node and the length of its id list (the
    record's last field); each record, list included, must fit the slot.
    """
    offsets: list[int] = []
    nodes: list[int] = []
    size = head.size
    for _ in range(count):
        if pos + size > end:
            raise _mid_record()
        node, ids = head.unpack_from(buffer, pos)
        offsets.append(pos)
        nodes.append(node)
        pos += size + (ids << 3)
        if pos > end:
            raise _ids_overrun()
    return offsets, nodes


def _frame_values(buffer, pos: int, end: int, count: int, head_size: int):
    """Frame ``count`` leaf values: their offsets and the offset past them.

    A value is a ``head_size``-byte head ending in the u32 length of its id
    list, then the list; each must fit the slot.
    """
    offsets: list[int] = []
    append = offsets.append
    unpack = _U32.unpack_from
    skip = head_size - _U32.size
    for _ in range(count):
        if pos + head_size > end:
            raise _mid_record()
        append(pos)
        pos += head_size + (unpack(buffer, pos + skip)[0] << 3)
        if pos > end:
            raise _ids_overrun()
    return offsets, pos


class _SlotRecords(Sequence):
    """Records framed in a page slot and decoded only when accessed.

    Holds the records' offsets into the pack's map (and a reference to the
    :class:`FileDisk`, never a ``memoryview``), so what a buffered page
    keeps resident is a column of ints.  Framing was checked when the page
    was read, so decoding a record cannot overrun its slot; once the disk
    is closed every access raises :class:`StorageError`.
    """

    __slots__ = ("_disk", "_offsets")

    def __init__(self, disk: "FileDisk", offsets: list[int]):
        self._disk = disk
        self._offsets = offsets

    def _decode(self, buffer, offset: int):
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index):
        buffer = self._disk._map()
        if isinstance(index, slice):
            return [self._decode(buffer, offset) for offset in self._offsets[index]]
        return self._decode(buffer, self._offsets[index])

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, _SlotRecords)):
            return list(self) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


class _AdjacencyRecords(_SlotRecords):
    """The :class:`StoredAdjacencyEntry` records of an adjacency page."""

    __slots__ = ("_nodes", "_costs")

    def __init__(self, disk, offsets, nodes: list[int], costs: struct.Struct):
        super().__init__(disk, offsets)
        self._nodes = nodes
        self._costs = costs

    def _record(self, buffer, offset: int) -> AdjacencyRecord:
        _node, neighbor, edge_id, first_node, length, facility_count = (
            _ADJACENCY_HEAD.unpack_from(buffer, offset)
        )
        return AdjacencyRecord(
            neighbor=neighbor,
            edge_id=edge_id,
            costs=self._costs.unpack_from(buffer, offset + _ADJACENCY_HEAD.size),
            length=length,
            first_node=first_node,
            facility_count=facility_count,
        )

    def _decode(self, buffer, offset: int) -> StoredAdjacencyEntry:
        (node,) = _I64.unpack_from(buffer, offset)
        return StoredAdjacencyEntry(
            node=node,
            record=self._record(buffer, offset),
            facility_pages=_ids_at(buffer, offset + _ADJACENCY_HEAD.size + self._costs.size),
        )

    def entries_of(self, node_id: int) -> list[AdjacencyRecord]:
        """The adjacency records of ``node_id`` on this page, in page order."""
        buffer = self._disk._map()
        return [
            self._record(buffer, offset)
            for offset, node in zip(self._offsets, self._nodes)
            if node == node_id
        ]


class _LeafValues(_SlotRecords):
    """The values of a B+-tree leaf: page tuples (adjacency tree) or
    ``(edge id, page tuple)`` pairs (facility tree)."""

    __slots__ = ("_paired",)

    def __init__(self, disk, offsets, paired: bool):
        super().__init__(disk, offsets)
        self._paired = paired

    def _decode(self, buffer, offset: int):
        if self._paired:
            (edge_id,) = _I64.unpack_from(buffer, offset)
            return edge_id, _ids_at(buffer, offset + _I64.size)
        return _ids_at(buffer, offset)


def decode_page(disk: "FileDisk", page_id: int) -> Page:
    """Frame the page in slot ``page_id`` of ``disk``; decode what is cheap.

    The whole slot is walked and validated — the kind code, every record
    and id-list length against the slot end, every index record type — but
    records are materialised only where a lookup needs them all: facility
    records (fixed width, one pass) and internal B+-tree records.
    Adjacency records and leaf values stay framed offsets
    (:class:`_SlotRecords`) until accessed.
    """
    buffer = disk._map()
    pos = HEADER_SIZE + page_id * disk._slot_size
    end = pos + disk._slot_size
    if pos + _SLOT_HEADER.size > end:
        raise _mid_record()
    kind_code, record_count, used_bytes = _SLOT_HEADER.unpack_from(buffer, pos)
    pos += _SLOT_HEADER.size
    kind = _CODE_KINDS.get(kind_code)
    if kind is None:
        raise PackFormatError(f"page {page_id} has unknown kind code {kind_code}")
    if kind is PageKind.ADJACENCY:
        offsets, nodes = _frame_adjacency(
            buffer, pos, end, record_count, disk._adjacency_frame
        )
        records = _AdjacencyRecords(disk, offsets, nodes, disk._costs)
    elif kind is PageKind.FACILITY:
        size = record_count * _FACILITY_RECORD.size
        if size > end - pos:
            raise _mid_record()
        # tuple.__new__ is what FacilityRecord._make does, minus its
        # Python-level length check: iter_unpack yields exact triples.
        records = list(
            map(
                tuple.__new__,
                repeat(FacilityRecord),
                _FACILITY_RECORD.iter_unpack(buffer[pos : pos + size]),
            )
        )
    else:
        paired = kind is PageKind.FACILITY_INDEX
        value_head = (_I64.size if paired else 0) + _U32.size
        records = []
        for _ in range(record_count):
            if pos + _U8.size > end:
                raise _mid_record()
            (record_type,) = _U8.unpack_from(buffer, pos)
            pos += _U8.size
            if record_type == _LEAF:
                keys, pos = _read_ids(buffer, pos, end)
                offsets, pos = _frame_values(buffer, pos, end, len(keys), value_head)
                records.append(_LeafRecord(keys=keys, values=_LeafValues(disk, offsets, paired)))
            elif record_type == _INTERNAL:
                separators, pos = _read_ids(buffer, pos, end)
                children, pos = _read_ids(buffer, pos, end)
                records.append(_InternalRecord(separators=separators, children=children))
            else:
                raise PackFormatError(
                    f"page {page_id} has unknown index record type {record_type}"
                )
    return Page(page_id=page_id, kind=kind, records=records, used_bytes=used_bytes)


# --------------------------------------------------------------------- #
# Checksum
# --------------------------------------------------------------------- #
def compute_pack_checksum(readable, total_size: int) -> bytes:
    """SHA-256 of a pack with the header's checksum field zeroed.

    ``readable`` must support ``seek``/``read``; the file is consumed in
    chunks so arbitrarily large packs hash with constant memory.
    """
    digest = hashlib.sha256()
    readable.seek(0)
    digest.update(readable.read(_CHECKSUM_OFFSET))
    digest.update(b"\x00" * 32)
    readable.seek(_CHECKSUM_OFFSET + 32)
    remaining = total_size - (_CHECKSUM_OFFSET + 32)
    while remaining > 0:
        chunk = readable.read(min(remaining, 1 << 20))
        if not chunk:
            raise PackFormatError("pack file shrank while hashing")
        digest.update(chunk)
        remaining -= len(chunk)
    return digest.digest()


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #
class _SectionWriter:
    """Accumulates one binary section in a spill file."""

    def __init__(self, name: str, directory: str):
        self.name = name
        self._file = tempfile.TemporaryFile(dir=directory)
        self.length = 0

    def write(self, data: bytes) -> None:
        self._file.write(data)
        self.length += len(data)

    def copy_into(self, destination, chunk_size: int = 1 << 20) -> None:
        self._file.seek(0)
        while True:
            chunk = self._file.read(chunk_size)
            if not chunk:
                break
            destination.write(chunk)

    def close(self) -> None:
        self._file.close()


class PackWriter:
    """Streams encoded page slots and sections into a pack file.

    Pages and section bytes are spilled to temporary files as they arrive
    (the final slot width is only known once the largest page has been
    seen), then assembled into the destination file by :meth:`finalize`.
    Nothing is held in memory, so million-page packs build with bounded RSS.
    """

    def __init__(self, path: str, *, page_size: int, num_cost_types: int):
        if page_size <= 0:
            raise StorageError("page size must be positive")
        self._path = os.fspath(path)
        self._page_size = page_size
        self._num_cost_types = num_cost_types
        directory = os.path.dirname(os.path.abspath(self._path)) or "."
        self._directory = directory
        self._slots = tempfile.TemporaryFile(dir=directory)
        self._sections: list[_SectionWriter] = []
        self._num_pages = 0
        self._max_slot = 0
        self._finalized = False

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def num_pages(self) -> int:
        return self._num_pages

    def add_page(self, page: Page) -> None:
        """Append a page; pages must arrive in ``page_id`` order from 0."""
        if page.page_id != self._num_pages:
            raise StorageError(
                f"pages must be added in id order: expected {self._num_pages}, "
                f"got {page.page_id}"
            )
        encoded = encode_page(page, self._num_cost_types)
        self._slots.write(_U32.pack(len(encoded)))
        self._slots.write(encoded)
        self._max_slot = max(self._max_slot, len(encoded))
        self._num_pages += 1

    def section(self, name: str) -> _SectionWriter:
        """Open a named binary section; write bytes to the returned object."""
        writer = _SectionWriter(name, self._directory)
        self._sections.append(writer)
        return writer

    def finalize(self, catalog_payload: dict) -> dict:
        """Assemble the pack file and stamp its checksum.

        ``catalog_payload`` is extended with the slot geometry and section
        directory, serialised as the trailing JSON catalog, and returned.
        """
        if self._finalized:
            raise StorageError("pack writer already finalized")
        self._finalized = True
        # Align slots to 8 bytes so mmap'ed struct reads stay aligned.
        slot_size = (self._max_slot + 7) & ~7 if self._num_pages else 0
        payload = dict(catalog_payload)
        payload["format_version"] = PACK_VERSION
        payload["page_size"] = self._page_size
        payload["num_cost_types"] = self._num_cost_types
        payload["num_pages"] = self._num_pages
        payload["slot_size"] = slot_size

        sections: dict[str, list[int]] = {}
        offset = HEADER_SIZE + self._num_pages * slot_size
        for section in self._sections:
            sections[section.name] = [offset, section.length]
            offset += section.length
        payload["sections"] = sections
        catalog_offset = offset
        catalog_bytes = json.dumps(payload, sort_keys=True).encode("utf-8")

        with open(self._path, "wb") as out:
            out.write(
                _HEADER.pack(
                    PACK_MAGIC,
                    _ENDIAN_TAG,
                    PACK_VERSION,
                    self._page_size,
                    slot_size,
                    self._num_pages,
                    catalog_offset,
                    len(catalog_bytes),
                    b"\x00" * 32,
                )
            )
            self._slots.seek(0)
            for _ in range(self._num_pages):
                (length,) = _U32.unpack(self._slots.read(_U32.size))
                encoded = self._slots.read(length)
                out.write(encoded)
                out.write(b"\x00" * (slot_size - length))
            for section in self._sections:
                section.copy_into(out)
                section.close()
            out.write(catalog_bytes)
            out.flush()
        self._slots.close()
        with open(self._path, "r+b") as out:
            checksum = compute_pack_checksum(out, os.path.getsize(self._path))
            out.seek(_CHECKSUM_OFFSET)
            out.write(checksum)
        payload["checksum"] = checksum.hex()
        return payload


class SpoolingDisk:
    """A write-only stand-in for :class:`SimulatedDisk` that streams to a pack.

    The flat-file and B+-tree builders only ever touch the page they most
    recently allocated, so the previous page can be encoded and spilled the
    moment a new one is requested.  Reads are refused: nothing queries a
    dataset while it is being built.
    """

    def __init__(self, writer: PackWriter):
        self._writer = writer
        self._current: Page | None = None
        self._next_page_id = 0
        self._kind_counts = {kind: 0 for kind in PageKind}
        self._stats = DiskStatistics()

    @property
    def page_size(self) -> int:
        return self._writer.page_size

    @property
    def num_pages(self) -> int:
        return self._next_page_id

    @property
    def statistics(self) -> DiskStatistics:
        return self._stats

    def allocate(self, kind: PageKind) -> Page:
        self.flush()
        page = Page(page_id=self._next_page_id, kind=kind)
        self._current = page
        self._next_page_id += 1
        self._kind_counts[kind] += 1
        self._stats.page_writes += 1
        return page

    def flush(self) -> None:
        """Spill the in-flight page (called automatically; once more at the end)."""
        if self._current is not None:
            self._writer.add_page(self._current)
            self._current = None

    def read(self, page_id: int) -> Page:
        raise StorageError("a spooling disk is write-only (pack under construction)")

    def peek(self, page_id: int) -> Page:
        raise StorageError("a spooling disk is write-only (pack under construction)")

    def pages_of_kind(self, kind: PageKind) -> int:
        return self._kind_counts[kind]


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #
def read_pack_header(path: str) -> dict:
    """Parse and validate a pack header; returns its fields as a dict.

    Raises the typed pack errors on malformed input; never reads past the
    header, so it is safe on arbitrarily corrupt files.
    """
    size = os.path.getsize(path)
    if size < HEADER_SIZE:
        raise PackFormatError(
            f"{path}: file of {size} bytes is shorter than the {HEADER_SIZE}-byte header"
        )
    with open(path, "rb") as handle:
        raw = handle.read(HEADER_SIZE)
    (
        magic,
        endian_tag,
        version,
        page_size,
        slot_size,
        num_pages,
        catalog_offset,
        catalog_length,
        checksum,
    ) = _HEADER.unpack(raw)
    if magic != PACK_MAGIC:
        raise PackFormatError(f"{path}: bad magic {magic!r}; not a dataset pack")
    if endian_tag == _ENDIAN_TAG_SWAPPED:
        raise PackFormatError(
            f"{path}: byte-swapped endianness tag; pack written with opposite endianness"
        )
    if endian_tag != _ENDIAN_TAG:
        raise PackFormatError(f"{path}: corrupt endianness tag 0x{endian_tag:08x}")
    if version != PACK_VERSION:
        raise PackVersionError(
            f"{path}: pack format version {version}, this build reads version {PACK_VERSION}"
        )
    expected = catalog_offset + catalog_length
    if size < expected:
        raise PackFormatError(
            f"{path}: truncated pack ({size} bytes, catalog ends at {expected})"
        )
    return {
        "page_size": page_size,
        "slot_size": slot_size,
        "num_pages": num_pages,
        "catalog_offset": catalog_offset,
        "catalog_length": catalog_length,
        "checksum": checksum,
        "file_size": size,
    }


class FileDisk:
    """``mmap``-backed read-only page store over a dataset pack.

    Satisfies the read interface of :class:`~repro.storage.disk.SimulatedDisk`
    — counted :meth:`read`, uncounted :meth:`peek` (page-plan extraction),
    ``page_size`` / ``num_pages`` / ``statistics`` / :meth:`pages_of_kind` —
    so the LRU buffer pool, ``NetworkStorage``-style accessors, golden
    page-read fixtures and the differential oracle run unchanged over it.
    Every read frames and validates its whole slot (:func:`decode_page`)
    but decodes adjacency records and B+-tree leaf values only when a
    lookup touches them; what a page keeps resident is its offsets, so
    memory stays bounded by the buffer pool holding the pages, not the
    dataset.  Touching a page after :meth:`close` raises
    :class:`StorageError`.
    """

    def __init__(self, path: str, *, verify_checksum: bool = True):
        self._path = os.fspath(path)
        header = read_pack_header(self._path)
        self._page_size = header["page_size"]
        self._slot_size = header["slot_size"]
        self._num_pages = header["num_pages"]
        self._file = open(self._path, "rb")
        try:
            self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._file.close()
            raise PackFormatError(f"{self._path}: cannot map an empty pack") from None
        try:
            if verify_checksum:
                # Hash through chunked file reads, not mmap slices: slicing
                # the map would fault the whole pack into resident memory,
                # defeating the bounded-RSS property on multi-GB datasets.
                actual = compute_pack_checksum(self._file, header["file_size"])
                if actual != header["checksum"]:
                    raise PackChecksumError(
                        f"{self._path}: SHA-256 mismatch — expected "
                        f"{header['checksum'].hex()}, file hashes to {actual.hex()}"
                    )
            start = header["catalog_offset"]
            end = start + header["catalog_length"]
            try:
                payload = json.loads(self._mm[start:end].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise PackFormatError(f"{self._path}: undecodable catalog: {exc}") from None
            if not isinstance(payload, dict):
                raise PackFormatError(f"{self._path}: catalog is not a JSON object")
            self._catalog_payload = payload
            self._costs = struct.Struct(f"<{int(payload.get('num_cost_types', 1))}d")
            # An adjacency record's node and the length of its id list, in
            # one unpack: the page framing walk reads nothing else.
            self._adjacency_frame = struct.Struct(
                f"<q{_ADJACENCY_HEAD.size - _I64.size + self._costs.size}xI"
            )
            counts = payload.get("page_kind_counts", {})
            self._kind_counts = {
                kind: int(counts.get(kind.value, 0)) for kind in PageKind
            }
            self._checksum = header["checksum"]
        except Exception:
            self._mm.close()
            self._file.close()
            raise
        self._stats = DiskStatistics()
        self._stats_lock = threading.Lock()
        self._closed = False

    # -- SimulatedDisk interface ---------------------------------------- #
    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def statistics(self) -> DiskStatistics:
        return self._stats

    def allocate(self, kind: PageKind) -> Page:
        raise StorageError("a pack-backed disk is read-only")

    def _map(self):
        """The live map; :class:`StorageError` once the pack is closed."""
        if self._closed:
            raise StorageError(f"{self._path}: pack is closed")
        return self._mm

    def _decode(self, page_id: int) -> Page:
        if not 0 <= page_id < self._num_pages:
            raise StorageError(f"unknown page {page_id}")
        return decode_page(self, page_id)

    def read(self, page_id: int) -> Page:
        """Physically read a page (counted; safe under concurrent readers)."""
        page = self._decode(page_id)
        with self._stats_lock:
            self._stats.page_reads += 1
        return page

    def peek(self, page_id: int) -> Page:
        """Read a page without touching any counter (page-plan extraction)."""
        return self._decode(page_id)

    def pages_of_kind(self, kind: PageKind) -> int:
        return self._kind_counts[kind]

    # -- pack-specific surface ------------------------------------------ #
    @property
    def path(self) -> str:
        return self._path

    @property
    def checksum(self) -> bytes:
        """The SHA-256 recorded in the header (32 raw bytes)."""
        return self._checksum

    @property
    def catalog_payload(self) -> dict:
        """The decoded trailing JSON catalog."""
        return self._catalog_payload

    def section_bounds(self, name: str) -> tuple[int, int]:
        """``(offset, length)`` of a named binary section."""
        try:
            offset, length = self._catalog_payload["sections"][name]
        except (KeyError, TypeError, ValueError):
            raise PackFormatError(f"{self._path}: pack has no section {name!r}") from None
        return int(offset), int(length)

    @property
    def buffer(self):
        """The raw ``mmap`` (sections are bisected in place, never copied);
        :class:`StorageError` once the pack is closed."""
        return self._map()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._mm.close()
            self._file.close()

    def __enter__(self) -> "FileDisk":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
