"""The correctness gate: answers re-derived by independent code.

Ground-truth facility cost vectors come from one plain Dijkstra expansion
per cost type (:mod:`repro.network.dijkstra`); the skyline and the top-k
over those vectors come from the classic BNL and threshold algorithms
(:mod:`repro.classic`), which share nothing with the network search.
"""

from __future__ import annotations

import math

from common import GateError

_TOLERANCE = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_TOLERANCE, abs_tol=_TOLERANCE)


def check_answer(graph, facilities, request, result) -> None:
    """Raise :class:`GateError` unless ``result`` answers ``request`` exactly."""
    from repro.classic import SortedCostLists, bnl_skyline, threshold_algorithm
    from repro.core.aggregates import WeightedSum
    from repro.core.results import SkylineResult
    from repro.network.dijkstra import all_facility_cost_vectors

    vectors = {
        fid: tuple(vector)
        for fid, vector in all_facility_cost_vectors(graph, facilities, request.location).items()
    }
    if isinstance(result, SkylineResult):
        expected = bnl_skyline(vectors)
        got = result.facility_ids()
        if got != expected:
            raise GateError(
                f"skyline at {request.location}: got {sorted(got)}, BNL over Dijkstra "
                f"costs gives {sorted(expected)}"
            )
        for facility in result:
            for known, truth in zip(facility.costs, vectors[facility.facility_id]):
                if known is not None and not _close(known, truth):
                    raise GateError(
                        f"skyline facility {facility.facility_id} cost {known} != Dijkstra {truth}"
                    )
        return
    aggregate = WeightedSum(request.weights)
    classic = threshold_algorithm(SortedCostLists.from_cost_vectors(vectors), aggregate, request.k)
    got_scores = [entry.score for entry in result]
    want_scores = [score for _key, score in classic]
    if len(got_scores) != len(want_scores) or not all(
        _close(a, b) for a, b in zip(got_scores, want_scores)
    ):
        raise GateError(f"top-k at {request.location}: scores {got_scores} != TA {want_scores}")
    for entry in result:
        truth = aggregate(vectors[entry.facility_id])
        if not _close(entry.score, truth):
            raise GateError(
                f"top-k facility {entry.facility_id} scored {entry.score}, Dijkstra gives {truth}"
            )
