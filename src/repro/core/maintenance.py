"""Incremental maintenance of skyline and top-k results under facility updates.

Section VII of the paper lists, as future work, "incrementally updating the
skyline or top-k set in the presence of facility/query location updates".
This module implements that extension for the common update mix of
location-based services — frequent insertions and deletions of facilities,
occasional query relocation:

* **Insertion** is handled incrementally: the new facility's cost vector is
  priced in O(d) against lazily materialised settled-distance maps (node
  distances depend only on the graph and the query, never on the facility
  set, so they are computed once per query location and reused by every
  later insertion) and the cached result is patched.
* **Deletion of a facility outside the current result** is free: an excluded
  facility is always dominated by (respectively scored worse than) a result
  member, so removing it cannot change the result.
* **Deletion of a result member** (and query relocation) falls back to a
  fresh CEA computation — the cases the paper leaves open.  The maintainers
  count how often each path is taken so applications can see the saving.

Updates are *atomic*: an insertion validates its placement and computes the
new facility's cost vector **before** touching the
:class:`~repro.network.facilities.FacilitySet`, so a rejected update (bad
edge, bad offset, unreachable facility) leaves both the set and the
maintained result exactly as they were.

The continuous :class:`~repro.monitor.MonitoringService` layers many
maintainers over one *shared* facility set.  For that use the mutation is
split from the maintenance: the caller mutates the set once and notifies
every maintainer through :meth:`~SkylineMaintainer.note_insert` /
:meth:`~SkylineMaintainer.note_delete`, and the expensive fallback can be
deferred (``defer_recompute=True``) so one batched — optionally sharded —
CEA pass at the end of an update tick refreshes every stale maintainer via
:meth:`~SkylineMaintainer.refresh`.

Both maintainers evaluate against the in-memory accessor (the disk-resident
layout of Figure 2 is bulk-loaded and static; rebuilding it belongs to a
load pipeline, not to query maintenance).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregates import AggregateFunction
from repro.core.expansion import ExpansionSeeds, NearestFacilityExpansion
from repro.core.kernel import make_kernel_data_layer
from repro.core.vector import kernel_class_for
from repro.core.results import SkylineResult, TopKResult
from repro.counters import Counters
from repro.core.skyline import MCNSkylineSearch
from repro.core.topk import MCNTopKSearch
from repro.errors import FacilityError, QueryError
from repro.network.accessor import FetchOnceCache, InMemoryAccessor
from repro.network.compiled import CompiledGraph
from repro.network.costs import dominates
from repro.network.facilities import Facility, FacilityId, FacilitySet
from repro.network.graph import MultiCostGraph
from repro.network.location import NetworkLocation

__all__ = ["MaintenanceStatistics", "SkylineMaintainer", "TopKMaintainer"]


@dataclass
class MaintenanceStatistics(Counters):
    """How often each maintenance path was taken."""

    insertions: int = 0
    deletions: int = 0
    incremental_updates: int = 0
    recomputations: int = 0
    query_moves: int = 0
    edge_cost_refreshes: int = 0


class _QueryDistanceMaps:
    """Full settled-distance maps from one query location, one per cost type.

    Node-to-query network distances depend only on the graph and the query —
    never on the facility set — so a maintainer computes them once (lazily,
    at the first insertion) and prices every later insertion in O(d) lookups
    instead of running a fresh early-terminating expansion per update.  The
    d full expansions share adjacency fetches through a
    :class:`~repro.network.accessor.FetchOnceCache`, exactly as CEA shares
    them within one query.

    The per-facility pricing replicates the expansion's own arithmetic
    (settled end-node distance plus the pro-rated partial edge weight, the
    direct along-edge path for facilities on the query's own edge, forward
    traversal only on directed graphs), so the values are bit-identical to
    what :class:`NearestFacilityExpansion` would report.
    """

    def __init__(
        self,
        accessor: InMemoryAccessor,
        graph: MultiCostGraph,
        query: NetworkLocation,
        compiled: CompiledGraph | None = None,
        vector: bool | None = None,
    ):
        self._accessor = accessor
        self._graph = graph
        self._compiled = compiled
        self._vector = vector
        self._seeds = ExpansionSeeds.from_query(graph, query)
        self._settled: list[dict[int, float]] | None = None

    def _materialise(self) -> list[dict[int, float]]:
        if self._settled is None:
            maps = []
            if self._compiled is not None:
                # The kernel fast path: candidate mode with no candidates
                # drains the node heap over the CSR columns.  The charge
                # layer mirrors the FetchOnceCache the legacy path uses, so
                # the accessor counters move identically.  No blanket
                # ensure_fresh(): settled distances never read the facility
                # columns (the query-edge facility slots a possibly stale
                # snapshot seeds are all discarded by the empty candidate
                # set), so skipping the refresh keeps per-update insertion
                # pricing from rebuilding facility columns on every
                # monitoring tick.  Arc columns *are* cost-dependent, so a
                # cost-revision drift alone forces the refresh.
                if self._compiled.costs_revision != self._graph.costs_revision:
                    self._compiled.ensure_fresh()
                layer = make_kernel_data_layer(
                    self._compiled, target=self._accessor, fetch_once=True
                )
                kernel_class = kernel_class_for(self._vector)
                for cost_index in range(self._graph.num_cost_types):
                    kernel = kernel_class(layer, self._seeds, cost_index)
                    kernel.enter_candidate_mode({})
                    while kernel.next_facility() is not None:  # pragma: no cover - no candidates
                        pass
                    maps.append(kernel.settled_costs)
            else:
                shared = FetchOnceCache(self._accessor)
                for cost_index in range(self._graph.num_cost_types):
                    expansion = NearestFacilityExpansion(shared, self._seeds, cost_index)
                    # No candidates: the expansion drains the whole node heap
                    # without ever reading a facility file.
                    expansion.enter_candidate_mode({})
                    while expansion.next_facility() is not None:  # pragma: no cover - no candidates
                        pass
                    maps.append(expansion.settled_costs)
            self._settled = maps
        return self._settled

    def cost_vector(self, facility: Facility) -> tuple[float, ...]:
        """The d-dimensional cost vector of ``facility`` from the query."""
        settled = self._materialise()
        edge = self._graph.edge(facility.edge_id)
        if edge.length > 0:
            fraction_u = facility.offset / edge.length
            fraction_v = (edge.length - facility.offset) / edge.length
        else:
            fraction_u = fraction_v = 0.0
        costs = []
        for cost_index in range(self._graph.num_cost_types):
            edge_cost = edge.costs.values[cost_index]
            best = self._direct_cost(facility, cost_index)
            via_u = settled[cost_index].get(edge.u)
            if via_u is not None:
                candidate = via_u + edge_cost * fraction_u
                if best is None or candidate < best:
                    best = candidate
            if not self._graph.directed:
                via_v = settled[cost_index].get(edge.v)
                if via_v is not None:
                    candidate = via_v + edge_cost * fraction_v
                    if best is None or candidate < best:
                        best = candidate
            if best is None:
                raise QueryError(
                    f"facility {facility.facility_id} is unreachable from the query location"
                )
            costs.append(best)
        return tuple(costs)

    def _direct_cost(self, facility: Facility, cost_index: int) -> float | None:
        """The along-edge cost for a facility on the query's own edge, if any."""
        seeds = self._seeds
        if seeds.query_edge != facility.edge_id or seeds.query_edge_costs is None:
            return None
        if seeds.directed and facility.offset < seeds.query_offset:
            return None
        length = seeds.query_edge_length
        fraction = abs(facility.offset - seeds.query_offset) / length if length else 0.0
        return seeds.query_edge_costs[cost_index] * fraction


class _MaintainerBase:
    """State and update plumbing shared by the two maintainers."""

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        query: NetworkLocation,
        accessor: InMemoryAccessor | None = None,
        compiled: CompiledGraph | None = None,
        vector: bool | None = None,
    ):
        self._graph = graph
        self._facilities = facilities
        self._query = query
        if accessor is None:
            accessor = InMemoryAccessor(graph, facilities)
        elif accessor.graph is not graph:
            raise QueryError("the accessor was built over a different graph")
        if compiled is not None:
            if compiled.graph is not graph:
                raise QueryError("the compiled graph was built over a different graph")
            if compiled.facilities is not facilities:
                raise QueryError(
                    "the compiled graph was built over a different facility set"
                )
        self._accessor = accessor
        self._compiled = compiled
        self._vector = vector
        self._distances = _QueryDistanceMaps(accessor, graph, query, compiled, vector)
        self._statistics = MaintenanceStatistics()
        self._stale = False

    def _search_compiled(self) -> CompiledGraph | None:
        """The compiled snapshot for a fallback search, refreshed if present."""
        if self._compiled is None:
            return None
        return self._compiled.ensure_fresh()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def query(self) -> NetworkLocation:
        return self._query

    @property
    def statistics(self) -> MaintenanceStatistics:
        return self._statistics

    @property
    def stale(self) -> bool:
        """True when a deferred fallback is pending; call :meth:`refresh`."""
        return self._stale

    # ------------------------------------------------------------------ #
    # Updates (mutating flavour: the maintainer owns the facility set)
    # ------------------------------------------------------------------ #
    def cost_vector(self, facility: Facility) -> tuple[float, ...]:
        """The cost vector ``facility`` would have, without mutating anything.

        Validates the placement and reachability of a prospective insertion
        (id uniqueness is the set's concern, checked when the facility is
        actually added — so this also prices delete-then-reinsert chains);
        the returned tuple can be passed back to :meth:`insert` /
        :meth:`note_insert` so the work is not repeated.
        """
        self._facilities.validate_placement(facility)
        return self._distances.cost_vector(facility)

    def insert(self, facility: Facility, *, costs: tuple[float, ...] | None = None) -> bool:
        """Insert a facility; return True when the result changed.

        The insertion is atomic: placement and reachability are validated
        (and the cost vector computed) *before* the facility set is touched,
        so a rejected insert leaves both the set and the result unchanged.
        """
        if costs is None and not self._stale:
            costs = self.cost_vector(facility)
        self._facilities.add(facility)
        return self.note_insert(facility, costs=costs)

    def delete(self, facility_id: FacilityId, *, defer_recompute: bool = False) -> bool:
        """Delete a facility; return True when the result changed."""
        if facility_id not in self._facilities:
            raise FacilityError(f"unknown facility {facility_id}")
        self._facilities.remove(facility_id)
        return self.note_delete(facility_id, defer_recompute=defer_recompute)

    # ------------------------------------------------------------------ #
    # Updates (notification flavour: the caller already mutated the set)
    # ------------------------------------------------------------------ #
    def note_insert(self, facility: Facility, *, costs: tuple[float, ...] | None = None) -> bool:
        """Patch the result for a facility the caller already added to the set.

        While the maintainer is stale (a deferred fallback is pending) the
        patch is skipped — the pending :meth:`refresh` sees the final set
        anyway, so incremental work in between would be thrown away.
        """
        self._statistics.insertions += 1
        if self._stale:
            return False
        if costs is None:
            costs = self._distances.cost_vector(facility)
        self._statistics.incremental_updates += 1
        return self._patch_insert(facility.facility_id, costs)

    def note_delete(self, facility_id: FacilityId, *, defer_recompute: bool = False) -> bool:
        """Patch the result for a facility the caller already removed from the set.

        Deleting a non-member is free (the cheap path).  Deleting a result
        member either recomputes immediately or, with ``defer_recompute``,
        marks the maintainer :attr:`stale` so the caller can batch one
        :meth:`refresh` for a whole update tick.
        """
        self._statistics.deletions += 1
        if self._stale:
            # The pending refresh resolves the final result either way; only
            # report a change when the facility was actually dropped from the
            # (partial) cached result.
            return self._drop_member(facility_id)
        if not self._drop_member(facility_id):
            # An excluded facility is dominated by (scored no better than) a
            # result member, so its removal can never promote anything.
            self._statistics.incremental_updates += 1
            return False
        if defer_recompute:
            self._stale = True
        else:
            self._recompute()
        return True

    def move_query(self, query: NetworkLocation, *, defer_recompute: bool = False) -> None:
        """Relocate the query point (always a fallback recomputation)."""
        query.validate(self._graph)
        self._query = query
        self._distances = _QueryDistanceMaps(
            self._accessor, self._graph, query, self._compiled, self._vector
        )
        self._statistics.query_moves += 1
        if defer_recompute:
            self._stale = True
        else:
            self._recompute()

    def note_edge_costs_changed(self, *, defer_recompute: bool = False) -> None:
        """React to edge cost-vector changes (always a fallback recomputation).

        Settled distance maps embed the edge costs they were expanded over,
        so any re-profiled edge invalidates them wholesale — there is no
        cheap incremental patch analogous to the facility cases.  The maps
        are rebuilt lazily (nothing is expanded until the next read) and the
        result is recomputed, immediately or deferred like the other hooks.
        """
        self._distances = _QueryDistanceMaps(
            self._accessor, self._graph, self._query, self._compiled, self._vector
        )
        self._statistics.edge_cost_refreshes += 1
        if defer_recompute:
            self._stale = True
        else:
            self._recompute()

    def refresh(self, result: SkylineResult | TopKResult | None = None) -> None:
        """Resolve a deferred fallback (or force a fresh computation).

        With ``result`` the maintainer installs an externally computed answer
        — this is how the monitoring service feeds one batched (optionally
        sharded) CEA pass back into many maintainers; the external pass still
        counts as a recomputation.  Without it the maintainer recomputes
        itself.
        """
        if result is None:
            self._recompute()
            return
        self._statistics.recomputations += 1
        self._install(result)
        self._stale = False

    # ------------------------------------------------------------------ #
    # Hooks implemented by the concrete maintainers
    # ------------------------------------------------------------------ #
    def _patch_insert(self, facility_id: FacilityId, costs: tuple[float, ...]) -> bool:
        raise NotImplementedError

    def _drop_member(self, facility_id: FacilityId) -> bool:
        """Remove ``facility_id`` from the result; True if it was a member."""
        raise NotImplementedError

    def _recompute(self) -> None:
        raise NotImplementedError

    def _install(self, result: SkylineResult | TopKResult) -> None:
        raise NotImplementedError

    def _guard_fresh(self) -> None:
        if self._stale:
            raise QueryError(
                "the maintained result is stale (a deferred fallback is pending); "
                "call refresh() before reading it"
            )


class SkylineMaintainer(_MaintainerBase):
    """Maintains ``sky(q)`` while facilities are inserted and deleted."""

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        query: NetworkLocation,
        *,
        accessor: InMemoryAccessor | None = None,
        compiled: CompiledGraph | None = None,
        vector: bool | None = None,
    ):
        super().__init__(graph, facilities, query, accessor, compiled, vector)
        self._skyline: dict[FacilityId, tuple[float, ...]] = {}
        self._recompute()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def skyline(self) -> dict[FacilityId, tuple[float, ...]]:
        """The current skyline: facility id -> complete cost vector."""
        self._guard_fresh()
        return dict(self._skyline)

    def skyline_ids(self) -> set[FacilityId]:
        self._guard_fresh()
        return set(self._skyline)

    # ------------------------------------------------------------------ #
    # Maintenance hooks
    # ------------------------------------------------------------------ #
    def _patch_insert(self, facility_id: FacilityId, costs: tuple[float, ...]) -> bool:
        if any(dominates(existing, costs) for existing in self._skyline.values()):
            return False
        dominated = [
            fid for fid, existing in self._skyline.items() if dominates(costs, existing)
        ]
        for fid in dominated:
            del self._skyline[fid]
        self._skyline[facility_id] = costs
        return True

    def _drop_member(self, facility_id: FacilityId) -> bool:
        if facility_id not in self._skyline:
            return False
        del self._skyline[facility_id]
        return True

    def _recompute(self) -> None:
        self._statistics.recomputations += 1
        search = MCNSkylineSearch(
            self._accessor,
            self._graph,
            self._query,
            share_accesses=True,
            compiled=self._search_compiled(),
            vector=self._vector,
        )
        self._install(search.run())

    def _install(self, result: SkylineResult) -> None:
        self._skyline = {}
        for member in result:
            if all(value is not None for value in member.costs):
                self._skyline[member.facility_id] = member.complete_costs
            else:
                facility = self._facilities.facility(member.facility_id)
                self._skyline[member.facility_id] = self._distances.cost_vector(facility)
        self._stale = False


class TopKMaintainer(_MaintainerBase):
    """Maintains ``top(q)`` (k best facilities) while facilities are inserted and deleted."""

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        query: NetworkLocation,
        aggregate: AggregateFunction,
        k: int,
        *,
        accessor: InMemoryAccessor | None = None,
        compiled: CompiledGraph | None = None,
        vector: bool | None = None,
    ):
        if k < 1:
            raise QueryError("k must be a positive integer")
        super().__init__(graph, facilities, query, accessor, compiled, vector)
        self._aggregate = aggregate
        self._k = k
        self._top: list[tuple[float, FacilityId, tuple[float, ...]]] = []
        self._recompute()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        return self._k

    @property
    def aggregate(self) -> AggregateFunction:
        """The aggregate function the ranking is maintained under."""
        return self._aggregate

    def ranking(self) -> list[tuple[FacilityId, float]]:
        """The current top-k as ``(facility id, aggregate cost)`` pairs, best first."""
        self._guard_fresh()
        return [(facility_id, score) for score, facility_id, _costs in self._top]

    def facility_ids(self) -> list[FacilityId]:
        self._guard_fresh()
        return [facility_id for _score, facility_id, _costs in self._top]

    # ------------------------------------------------------------------ #
    # Maintenance hooks
    # ------------------------------------------------------------------ #
    def _patch_insert(self, facility_id: FacilityId, costs: tuple[float, ...]) -> bool:
        score = self._aggregate(costs)
        entry = (score, facility_id, costs)
        if len(self._top) < self._k:
            self._top.append(entry)
            self._top.sort(key=lambda item: (item[0], item[1]))
            return True
        worst_score, worst_id, _ = self._top[-1]
        if (score, facility_id) < (worst_score, worst_id):
            self._top[-1] = entry
            self._top.sort(key=lambda item: (item[0], item[1]))
            return True
        return False

    def _drop_member(self, facility_id: FacilityId) -> bool:
        for index, (_score, member_id, _costs) in enumerate(self._top):
            if member_id == facility_id:
                del self._top[index]
                return True
        return False

    def _recompute(self) -> None:
        self._statistics.recomputations += 1
        result = MCNTopKSearch(
            self._accessor,
            self._graph,
            self._query,
            self._aggregate,
            self._k,
            share_accesses=True,
            compiled=self._search_compiled(),
            vector=self._vector,
        ).run()
        self._install(result)

    def _install(self, result: TopKResult) -> None:
        self._top = [
            (item.score, item.facility_id, item.costs) for item in result
        ]
        self._top.sort(key=lambda item: (item[0], item[1]))
        self._stale = False
