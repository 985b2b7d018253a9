"""Dataset catalogs and the packed (file-backed) storage accessor.

The :class:`DatasetCatalog` (defined with the pack format in
:mod:`repro.storage.persist`) is the metadata record embedded in every
dataset pack: page geometry, per-kind page counts, B+-tree shapes and the
binary section directory.  :func:`open_dataset` maps a pack and returns a
:class:`PackedDataset`, from which :meth:`~PackedDataset.storage` builds a
:class:`PackedNetworkStorage` — an accessor with the exact read behaviour
(same pages, same order, same counters) as the in-RAM
:class:`~repro.storage.scheme.NetworkStorage` the pack was derived from.

A pack can be opened in two modes:

* **standalone** — queries run against :class:`PackedGraphView` /
  :class:`PackedFacilityView`, thin read-only views that answer the graph
  protocol (``has_node``/``has_edge``/``edge``/...) by bisecting the pack's
  binary sections in place; nothing graph-sized is materialised in RAM;
* **attached** — the original ``MultiCostGraph``/``FacilitySet`` are passed
  in, which additionally enables the compiled fast path and lets the same
  session compare simulated and file-backed residencies side by side.
"""

from __future__ import annotations

import struct

from repro.errors import GraphError, IndexKeyError, PackFormatError, StorageError
from repro.network.accessor import AccessStatistics, AdjacencyRecord, FacilityRecord
from repro.network.costs import CostVector
from repro.network.graph import Edge, EdgeId, Node, NodeId
from repro.storage.btree import StaticBPlusTree
from repro.storage.buffer import LRUBufferPool
from repro.storage.pages import PageKind
from repro.storage.persist import DatasetCatalog, FileDisk, PackWriter, TreeShape
from repro.storage.scheme import StorageSnapshotView

__all__ = [
    "TreeShape",
    "DatasetCatalog",
    "PackedGraphView",
    "PackedFacilityView",
    "PackedNetworkStorage",
    "PackedDataset",
    "open_dataset",
    "pack_network_storage",
]

_I64 = struct.Struct("<q")
_U64 = struct.Struct("<Q")

SECTION_NODE_IDS = "node_ids"
SECTION_EDGE_TABLE = "edge_table"
SECTION_FACILITY_EDGE_IDS = "facility_edge_ids"
SECTION_FACILITY_EDGE_OFFSETS = "facility_edge_offsets"
SECTION_FACILITY_EDGE_PAGES = "facility_edge_pages"


def _bisect_section(mm, base: int, count: int, key: int, stride: int = _I64.size) -> int:
    """Index of ``key`` among ``count`` sorted rows of ``stride`` bytes at
    ``base``, each led by its i64 key (or -1)."""
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        (value,) = _I64.unpack_from(mm, base + mid * stride)
        if value < key:
            lo = mid + 1
        else:
            hi = mid
    if lo < count:
        (value,) = _I64.unpack_from(mm, base + lo * stride)
        if value == key:
            return lo
    return -1


class PackedGraphView:
    """Graph protocol over a pack's binary sections (zero-copy bisect reads).

    Provides exactly the surface query validation and seed computation need
    — ``has_node``/``has_edge``/``node``/``edge``/``num_cost_types``/
    ``directed`` — without materialising any node or edge objects beyond the
    ones a call returns.  Node coordinates are not stored in packs, so
    :meth:`node` returns origin-coordinate nodes.
    """

    def __init__(self, disk: FileDisk, catalog: DatasetCatalog):
        self._disk = disk
        self._catalog = catalog
        self._node_base, node_bytes = disk.section_bounds(SECTION_NODE_IDS)
        self._num_nodes = node_bytes // _I64.size
        self._edge_base, edge_bytes = disk.section_bounds(SECTION_EDGE_TABLE)
        # edge row: edge_id, u, v (i64) + length + d costs (f64)
        self._edge_stride = 3 * 8 + 8 + catalog.num_cost_types * 8
        self._num_edges = edge_bytes // self._edge_stride if self._edge_stride else 0
        self._edge_row = struct.Struct(f"<qqqd{catalog.num_cost_types}d")

    @property
    def num_cost_types(self) -> int:
        return self._catalog.num_cost_types

    @property
    def directed(self) -> bool:
        return self._catalog.directed

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def _edge_index(self, edge_id: EdgeId) -> int:
        return _bisect_section(
            self._disk.buffer, self._edge_base, self._num_edges, edge_id, self._edge_stride
        )

    def has_node(self, node_id: NodeId) -> bool:
        return _bisect_section(self._disk.buffer, self._node_base, self._num_nodes, node_id) >= 0

    def has_edge(self, edge_id: EdgeId) -> bool:
        return self._edge_index(edge_id) >= 0

    def node(self, node_id: NodeId) -> Node:
        if not self.has_node(node_id):
            raise GraphError(f"unknown node {node_id}")
        return Node(node_id)

    def _edge_at(self, index: int) -> Edge:
        row = self._edge_row.unpack_from(
            self._disk.buffer, self._edge_base + index * self._edge_stride
        )
        edge_id, u, v, length = row[0], row[1], row[2], row[3]
        costs = row[4:]
        return Edge(edge_id, u, v, CostVector(costs), length)

    def edge(self, edge_id: EdgeId) -> Edge:
        index = self._edge_index(edge_id)
        if index < 0:
            raise GraphError(f"unknown edge {edge_id}")
        return self._edge_at(index)

    def node_ids(self):
        """Iterate all node ids in ascending order (streamed off the pack)."""
        mm = self._disk.buffer
        for index in range(self._num_nodes):
            (node_id,) = _I64.unpack_from(mm, self._node_base + index * _I64.size)
            yield node_id

    def edges(self):
        """Iterate all edges in ascending edge-id order (streamed off the pack)."""
        for index in range(self._num_edges):
            yield self._edge_at(index)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"PackedGraphView({kind}, d={self.num_cost_types}, "
            f"nodes={self._num_nodes}, edges={self._num_edges})"
        )


class PackedFacilityView:
    """Facility metadata of a packed dataset (ids and edges, no objects).

    Satisfies the little that engine and session construction need from a
    facility set — ``len``, ``graph`` identity and a frozen ``revision`` —
    while facility *content* is always read through the storage accessor
    (facility file + facility tree), as on the simulated disk.
    """

    def __init__(self, graph: PackedGraphView, catalog: DatasetCatalog):
        self._graph = graph
        self._catalog = catalog

    @property
    def graph(self) -> PackedGraphView:
        return self._graph

    @property
    def revision(self) -> int:
        """Packs are immutable; the revision never moves."""
        return 0

    def __len__(self) -> int:
        return self._catalog.num_facilities

    def density(self) -> float:
        if self._catalog.num_edges == 0:
            return 0.0
        return self._catalog.num_facilities / self._catalog.num_edges


class PackedNetworkStorage:
    """File-backed counterpart of :class:`~repro.storage.scheme.NetworkStorage`.

    Reads the same page sequences through the same LRU buffer pool — the
    adjacency tree resolves a node to its adjacency-file pages, the
    adjacency entries carry facility-file pointers, the facility tree
    resolves facility ids — so page-read/buffer-hit accounting is
    bit-identical to the simulated disk for the same dataset and buffer
    configuration.  Implements the accessor protocol plus the page-plan
    surface the compiled fast path binds to.
    """

    def __init__(
        self,
        disk: FileDisk,
        catalog: DatasetCatalog,
        *,
        buffer_fraction: float = 0.01,
        buffer_capacity: int | None = None,
        graph=None,
        facilities=None,
    ):
        if buffer_fraction < 0:
            raise StorageError("buffer fraction cannot be negative")
        self._disk = disk
        self._catalog = catalog
        self._buffer_fraction = buffer_fraction
        self._adjacency_tree = StaticBPlusTree.from_built(
            disk,
            PageKind.ADJACENCY_INDEX,
            root_page_id=catalog.adjacency_tree.root_page_id,
            height=catalog.adjacency_tree.height,
            num_entries=catalog.adjacency_tree.num_entries,
        )
        self._facility_tree = StaticBPlusTree.from_built(
            disk,
            PageKind.FACILITY_INDEX,
            root_page_id=catalog.facility_tree.root_page_id,
            height=catalog.facility_tree.height,
            num_entries=catalog.facility_tree.num_entries,
        )
        if buffer_capacity is None:
            buffer_capacity = max(int(round(self.mcn_page_count * buffer_fraction)), 0)
            if buffer_fraction > 0:
                buffer_capacity = max(buffer_capacity, 1)
        self._buffer = LRUBufferPool(disk, buffer_capacity)
        self._stats = AccessStatistics()
        if graph is None:
            graph = PackedGraphView(disk, catalog)
        if facilities is None and isinstance(graph, PackedGraphView):
            facilities = PackedFacilityView(graph, catalog)
        self._graph = graph
        self._facilities = facilities
        # Facility-page index sections: sorted facility-bearing edge ids, the
        # per-edge [start, end) offsets, and the flat page-id blob.
        self._fac_ids_base, fac_ids_bytes = disk.section_bounds(SECTION_FACILITY_EDGE_IDS)
        self._num_facility_edges = fac_ids_bytes // _I64.size
        self._fac_offsets_base, fac_offsets_bytes = disk.section_bounds(
            SECTION_FACILITY_EDGE_OFFSETS
        )
        if fac_offsets_bytes < (self._num_facility_edges + 1) * _U64.size:
            raise PackFormatError("facility-page offset section is shorter than its edge list")
        self._fac_pages_base, fac_pages_bytes = disk.section_bounds(SECTION_FACILITY_EDGE_PAGES)
        self._num_facility_pages = fac_pages_bytes // _I64.size

    # ------------------------------------------------------------------ #
    # Sizing / introspection (NetworkStorage parity)
    # ------------------------------------------------------------------ #
    @property
    def graph(self):
        return self._graph

    @property
    def facilities(self):
        return self._facilities

    @property
    def catalog(self) -> DatasetCatalog:
        return self._catalog

    @property
    def disk(self) -> FileDisk:
        return self._disk

    @property
    def buffer(self) -> LRUBufferPool:
        return self._buffer

    @property
    def num_cost_types(self) -> int:
        return self._catalog.num_cost_types

    @property
    def mcn_page_count(self) -> int:
        return self._catalog.mcn_page_count

    @property
    def total_page_count(self) -> int:
        return self._catalog.num_pages

    @property
    def statistics(self) -> AccessStatistics:
        stats = self._stats
        stats.page_reads = self._buffer.statistics.misses
        stats.buffer_hits = self._buffer.statistics.hits
        return stats

    def reset_statistics(self, *, clear_buffer: bool = False) -> None:
        self._stats.reset()
        self._buffer.statistics.reset()
        self._disk.statistics.reset()
        if clear_buffer:
            self._buffer.clear()

    # ------------------------------------------------------------------ #
    # Accessor protocol
    # ------------------------------------------------------------------ #
    def adjacency(self, node_id: NodeId) -> list[AdjacencyRecord]:
        self._stats.adjacency_requests += 1
        return self._read_adjacency(node_id, self._buffer)

    def edge_facilities(self, edge_id: EdgeId) -> list[FacilityRecord]:
        self._stats.facility_requests += 1
        return self._read_edge_facilities(edge_id, self._buffer)

    def facility_edge(self, facility_id: int) -> EdgeId:
        self._stats.facility_tree_requests += 1
        return self._read_facility_edge(facility_id, self._buffer)

    # Shared with StorageSnapshotView, exactly as on NetworkStorage.
    def _read_adjacency(self, node_id: NodeId, buffer: LRUBufferPool) -> list[AdjacencyRecord]:
        try:
            pages = self._adjacency_tree.lookup(node_id, buffer)
        except IndexKeyError:
            raise StorageError(f"node {node_id} not present in the adjacency tree") from None
        records: list[AdjacencyRecord] = []
        for page_id in pages:  # type: ignore[union-attr]
            page = buffer.read(page_id)
            # Only the node's own records are decoded off the page.
            if page.kind is PageKind.ADJACENCY:
                records.extend(page.records.entries_of(node_id))
        return records

    def _read_edge_facilities(self, edge_id: EdgeId, buffer: LRUBufferPool) -> list[FacilityRecord]:
        records: list[FacilityRecord] = []
        for page_id in self._facility_pages_of(edge_id):
            page = buffer.read(page_id)
            if page.kind is PageKind.FACILITY:
                records.extend(stored for stored in page.records if stored.edge_id == edge_id)
        return records

    def _read_facility_edge(self, facility_id: int, buffer: LRUBufferPool) -> EdgeId:
        try:
            edge_id, _pages = self._facility_tree.lookup(facility_id, buffer)
        except IndexKeyError:
            raise StorageError(
                f"facility {facility_id} not present in the facility tree"
            ) from None
        return edge_id

    def _facility_pages_of(self, edge_id: EdgeId) -> tuple[int, ...]:
        """The facility-file pages of ``edge_id`` (empty when it hosts none)."""
        mm = self._disk.buffer
        index = _bisect_section(mm, self._fac_ids_base, self._num_facility_edges, edge_id)
        if index < 0:
            return ()
        start, end = struct.unpack_from(
            "<QQ", mm, self._fac_offsets_base + index * _U64.size
        )
        if not start <= end <= self._num_facility_pages:
            raise PackFormatError(f"facility-page offsets of edge {edge_id} overrun their section")
        return struct.unpack_from(
            f"<{end - start}q", mm, self._fac_pages_base + start * _I64.size
        )

    # ------------------------------------------------------------------ #
    # Page plans (compiled fast path)
    # ------------------------------------------------------------------ #
    def adjacency_page_plan(self, node_id: NodeId) -> tuple[int, ...]:
        path, pages = self._adjacency_tree._traverse(node_id, self._disk.peek)
        return tuple(path) + tuple(pages)

    def facility_page_plan(self, edge_id: EdgeId) -> tuple[int, ...]:
        return self._facility_pages_of(edge_id)

    def facility_tree_page_plan(self, facility_id: int) -> tuple[int, ...]:
        return self._facility_tree.path_pages(facility_id)

    def snapshot_view(self, *, buffer_capacity: int | None = None) -> StorageSnapshotView:
        """A read-only sibling view with a private buffer (shard workers)."""
        if buffer_capacity is None:
            buffer_capacity = self._buffer.capacity
        return StorageSnapshotView(self, buffer_capacity)

    def describe(self) -> dict[str, int]:
        counts = self._catalog.page_kind_counts
        return {
            "adjacency_file_pages": counts.get(PageKind.ADJACENCY.value, 0),
            "adjacency_tree_pages": counts.get(PageKind.ADJACENCY_INDEX.value, 0),
            "facility_file_pages": counts.get(PageKind.FACILITY.value, 0),
            "facility_tree_pages": counts.get(PageKind.FACILITY_INDEX.value, 0),
            "mcn_pages": self.mcn_page_count,
            "total_pages": self.total_page_count,
            "buffer_capacity": self._buffer.capacity,
        }


class PackedDataset:
    """An opened dataset pack: the mapped disk plus its catalog."""

    def __init__(self, disk: FileDisk, catalog: DatasetCatalog):
        self._disk = disk
        self._catalog = catalog

    @property
    def disk(self) -> FileDisk:
        return self._disk

    @property
    def catalog(self) -> DatasetCatalog:
        return self._catalog

    @property
    def path(self) -> str:
        return self._disk.path

    def storage(
        self,
        *,
        buffer_fraction: float = 0.01,
        buffer_capacity: int | None = None,
        graph=None,
        facilities=None,
    ) -> PackedNetworkStorage:
        """A fresh accessor over this pack (each gets its own LRU buffer)."""
        return PackedNetworkStorage(
            self._disk,
            self._catalog,
            buffer_fraction=buffer_fraction,
            buffer_capacity=buffer_capacity,
            graph=graph,
            facilities=facilities,
        )

    def graph_view(self) -> PackedGraphView:
        return PackedGraphView(self._disk, self._catalog)

    def close(self) -> None:
        self._disk.close()

    def __enter__(self) -> "PackedDataset":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_dataset(path: str, *, verify_checksum: bool = True) -> PackedDataset:
    """Map a dataset pack, optionally verifying its SHA-256 first.

    Raises the typed pack errors (:class:`~repro.errors.PackFormatError`,
    :class:`~repro.errors.PackVersionError`,
    :class:`~repro.errors.PackChecksumError`) on malformed or corrupt files.
    """
    disk = FileDisk(path, verify_checksum=verify_checksum)
    return PackedDataset(disk, disk.catalog)


# --------------------------------------------------------------------- #
# Building packs from a built NetworkStorage
# --------------------------------------------------------------------- #
def _write_facility_index(writer: PackWriter, edge_pages: dict[EdgeId, tuple[int, ...]]) -> None:
    ids = writer.section(SECTION_FACILITY_EDGE_IDS)
    offsets = writer.section(SECTION_FACILITY_EDGE_OFFSETS)
    pages_blob = writer.section(SECTION_FACILITY_EDGE_PAGES)
    position = 0
    sorted_ids = sorted(edge_pages)
    for edge_id in sorted_ids:
        ids.write(_I64.pack(edge_id))
        offsets.write(_U64.pack(position))
        for page_id in edge_pages[edge_id]:
            pages_blob.write(_I64.pack(page_id))
        position += len(edge_pages[edge_id])
    offsets.write(_U64.pack(position))


def _tree_shape(tree: StaticBPlusTree) -> TreeShape:
    return TreeShape(
        root_page_id=tree.root_page_id,
        height=tree.height,
        num_entries=tree.num_entries,
    )


def pack_network_storage(storage, path: str, *, extras: dict | None = None) -> DatasetCatalog:
    """Serialise a built :class:`NetworkStorage` into a dataset pack.

    Every simulated page is written to its slot unchanged, so a
    :class:`PackedNetworkStorage` over the result reads bit-identical pages
    (and therefore produces bit-identical answers and I/O counters) to the
    source storage.
    """
    graph = storage.graph
    writer = PackWriter(
        path, page_size=storage.config.page_size, num_cost_types=graph.num_cost_types
    )
    disk = storage.disk
    for page_id in range(disk.num_pages):
        writer.add_page(disk.peek(page_id))

    node_section = writer.section(SECTION_NODE_IDS)
    for node_id in sorted(graph.node_ids()):
        node_section.write(_I64.pack(node_id))
    edge_section = writer.section(SECTION_EDGE_TABLE)
    for edge in sorted(graph.edges(), key=lambda e: e.edge_id):
        edge_section.write(
            struct.pack(
                f"<qqqd{graph.num_cost_types}d",
                edge.edge_id,
                edge.u,
                edge.v,
                edge.length,
                *edge.costs.values,
            )
        )
    _write_facility_index(writer, storage._facility_layout.edge_pages)

    payload = {
        "directed": graph.directed,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_facilities": len(storage.facilities),
        "page_kind_counts": {
            kind.value: disk.pages_of_kind(kind) for kind in PageKind
        },
        "adjacency_tree": _tree_shape(storage._adjacency_tree).to_payload(),
        "facility_tree": _tree_shape(storage._facility_tree).to_payload(),
        "extras": dict(extras or {}),
    }
    final = writer.finalize(payload)
    return DatasetCatalog.from_payload(final)
