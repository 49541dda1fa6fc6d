"""Route-risk subsystem: risk-weighted road graph + route serving.

The paper scores crash proneness per 1 km segment; a navigation
backend needs *route-level* risk.  This package connects the existing
ingredients — :class:`~repro.roads.network.RoadNetwork`, the compiled
scoring kernels, phase-3 spatial hotspot clusters, the serving stack —
into a routing layer:

* :class:`~repro.routing.graph.RiskGraph` — the network lowered into
  contiguous numpy edge arrays with risk-weighted costs;
* :mod:`~repro.routing.queries` — shortest / safest / k-alternative
  route search with per-route aggregated risk;
* :class:`~repro.routing.store.RouteStore` — precomputed-route cache
  content-addressed to the scorer artefact checksum;
* :class:`~repro.routing.planner.RoutePlanner` — the control plane the
  HTTP endpoints (``/v1/route/score``, ``/v1/route/safest``) and the
  ``repro-study routes`` CLI drive.
"""

from repro.routing.graph import COST_FLOOR, RiskGraph
from repro.routing.planner import RoutePlanner, popular_town_pairs
from repro.routing.queries import (
    DEFAULT_ALPHA,
    MAX_ALTERNATIVES,
    RoutePlan,
    SafestResult,
    best_route,
    k_alternative_routes,
    safest_route,
    score_town_path,
    shortest_route,
)
from repro.routing.store import RouteStore

__all__ = [
    "COST_FLOOR",
    "DEFAULT_ALPHA",
    "MAX_ALTERNATIVES",
    "RiskGraph",
    "RoutePlan",
    "RoutePlanner",
    "RouteStore",
    "SafestResult",
    "best_route",
    "k_alternative_routes",
    "popular_town_pairs",
    "safest_route",
    "score_town_path",
    "shortest_route",
]
