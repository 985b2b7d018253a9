"""The graph-accessor protocol shared by all query algorithms.

The paper's algorithms never touch the graph directly: every adjacency list,
every list of facilities on an edge and every facility-tree probe goes
through an *accessor*.  Two implementations exist:

* :class:`InMemoryAccessor` (this module) — reads the in-memory
  :class:`~repro.network.graph.MultiCostGraph`; useful for pure-algorithm
  work and for unit tests.  It still counts logical accesses so that the
  access-sharing property of CEA can be verified without the disk simulator.
* :class:`repro.storage.NetworkStorage` — the disk-resident storage scheme
  of Figure 2 with a simulated page store and LRU buffer; it counts page
  reads, which dominate the paper's reported processing time.

Both expose the same methods, so LSA/CEA/top-k are written once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, runtime_checkable

from repro.counters import Counters
from repro.errors import FacilityError
from repro.network.facilities import FacilityId, FacilitySet
from repro.network.graph import EdgeId, MultiCostGraph, NodeId

__all__ = [
    "AdjacencyRecord",
    "FacilityRecord",
    "AccessStatistics",
    "GraphAccessor",
    "InMemoryAccessor",
    "FetchOnceCache",
]


class AdjacencyRecord(NamedTuple):
    """One entry of a node's adjacency list, as returned by an accessor."""

    neighbor: NodeId
    edge_id: EdgeId
    costs: tuple[float, ...]
    length: float
    first_node: NodeId  # the edge's canonical first end-node (offsets are measured from it)
    facility_count: int


class FacilityRecord(NamedTuple):
    """One entry of an edge's facility list."""

    facility_id: FacilityId
    edge_id: EdgeId
    offset: float  # distance from the edge's first end-node


@dataclass
class AccessStatistics(Counters):
    """Counters of the logical and physical work done through an accessor."""

    adjacency_requests: int = 0
    facility_requests: int = 0
    facility_tree_requests: int = 0
    page_reads: int = 0
    buffer_hits: int = 0

    @property
    def total_requests(self) -> int:
        return self.adjacency_requests + self.facility_requests + self.facility_tree_requests


@runtime_checkable
class GraphAccessor(Protocol):
    """What the LSA/CEA/top-k algorithms need from the data layer."""

    @property
    def num_cost_types(self) -> int:
        """Number of cost types ``d`` of the underlying MCN."""

    @property
    def statistics(self) -> AccessStatistics:
        """Cumulative access counters."""

    def adjacency(self, node_id: NodeId) -> list[AdjacencyRecord]:
        """The adjacency list of a node (one accessor request)."""

    def edge_facilities(self, edge_id: EdgeId) -> list[FacilityRecord]:
        """The facilities lying on an edge (one accessor request)."""

    def facility_edge(self, facility_id: FacilityId) -> EdgeId:
        """The edge a facility lies on (a facility-tree probe)."""


class InMemoryAccessor:
    """Accessor over the in-memory graph and facility set.

    Counts logical requests only; there is no page model here.  Used directly
    by the pure-algorithm API and as the backing store of the disk simulator.
    """

    def __init__(self, graph: MultiCostGraph, facilities: FacilitySet):
        if facilities.graph is not graph:
            raise FacilityError("facility set was built for a different graph")
        self._graph = graph
        self._facilities = facilities
        self._stats = AccessStatistics()

    @property
    def graph(self) -> MultiCostGraph:
        return self._graph

    @property
    def facilities(self) -> FacilitySet:
        return self._facilities

    @property
    def num_cost_types(self) -> int:
        return self._graph.num_cost_types

    @property
    def statistics(self) -> AccessStatistics:
        return self._stats

    def adjacency(self, node_id: NodeId) -> list[AdjacencyRecord]:
        self._stats.adjacency_requests += 1
        records = []
        for neighbor, edge in self._graph.neighbors(node_id):
            records.append(
                AdjacencyRecord(
                    neighbor=neighbor,
                    edge_id=edge.edge_id,
                    costs=edge.costs.values,
                    length=edge.length,
                    first_node=edge.u,
                    facility_count=len(self._facilities.on_edge(edge.edge_id)),
                )
            )
        return records

    def edge_facilities(self, edge_id: EdgeId) -> list[FacilityRecord]:
        self._stats.facility_requests += 1
        return [
            FacilityRecord(facility.facility_id, facility.edge_id, facility.offset)
            for facility in self._facilities.on_edge(edge_id)
        ]

    def facility_edge(self, facility_id: FacilityId) -> EdgeId:
        self._stats.facility_tree_requests += 1
        return self._facilities.edge_of(facility_id)

    def snapshot_view(self) -> "InMemoryAccessor":
        """A read-only sibling accessor sharing the graph, with fresh counters.

        The in-memory counterpart of
        :meth:`repro.storage.NetworkStorage.snapshot_view`: parallel shard
        workers each get their own accessor (and therefore isolated request
        counters) over the same immutable graph and facility set, without
        copying either.
        """
        return InMemoryAccessor(self._graph, self._facilities)


class FetchOnceCache:
    """Information-sharing wrapper: each node/edge is fetched at most once.

    This is the data-layer half of the Combined Expansion Algorithm (CEA):
    all ``d`` expansions route their requests through one cache, so the
    adjacency information of a node and the facility contents of an edge hit
    the underlying accessor (and therefore the disk) no more than once for
    the whole query, no matter how many expansions need them.
    """

    def __init__(self, accessor: GraphAccessor):
        self._accessor = accessor
        self._adjacency: dict[NodeId, list[AdjacencyRecord]] = {}
        self._edge_facilities: dict[EdgeId, list[FacilityRecord]] = {}
        self._facility_edges: dict[FacilityId, EdgeId] = {}

    @property
    def num_cost_types(self) -> int:
        return self._accessor.num_cost_types

    @property
    def statistics(self) -> AccessStatistics:
        return self._accessor.statistics

    @property
    def cached_nodes(self) -> int:
        """Number of distinct nodes whose adjacency has been fetched."""
        return len(self._adjacency)

    def adjacency(self, node_id: NodeId) -> list[AdjacencyRecord]:
        cached = self._adjacency.get(node_id)
        if cached is None:
            cached = self._accessor.adjacency(node_id)
            self._adjacency[node_id] = cached
        return cached

    def edge_facilities(self, edge_id: EdgeId) -> list[FacilityRecord]:
        cached = self._edge_facilities.get(edge_id)
        if cached is None:
            cached = self._accessor.edge_facilities(edge_id)
            self._edge_facilities[edge_id] = cached
        return cached

    def facility_edge(self, facility_id: FacilityId) -> EdgeId:
        cached = self._facility_edges.get(facility_id)
        if cached is None:
            cached = self._accessor.facility_edge(facility_id)
            self._facility_edges[facility_id] = cached
        return cached
