"""The routing control plane: scores, graphs, cache and counters.

:class:`RoutePlanner` owns everything a route query needs:

* the study dataset (network + segment table) and its spatial k-means
  hotspot clusters (phase-3 geometry, computed once per planner);
* a small LRU of :class:`~repro.routing.graph.RiskGraph` instances
  keyed by scorer artefact checksum — segments are scored once per
  model version in one in-process ``scorer.score`` pass, not per query;
* a :class:`~repro.routing.store.RouteStore` of finished responses,
  content-addressed to the same checksum, so a registry hot-reload
  both misses the store and purges the superseded version's entries;
* plan/build counters that ``/metrics`` exposes as ``repro_route_*``.

Tracing: every public plan method runs under a ``routing.plan`` span
(the first query for a new artefact nests a ``routing.build`` span;
each search nests ``routing.search``), so route requests produce one
connected trace tree exactly like score requests do.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.exceptions import ConfigurationError, RoutingError
from repro.obs.trace import span as obs_span
from repro.roads.generator import RoadCrashDataset
from repro.roads.hotspots import spatial_kmeans_hotspots
from repro.routing import queries
from repro.routing.graph import RiskGraph
from repro.routing.queries import DEFAULT_ALPHA, MAX_ALTERNATIVES
from repro.routing.store import RouteStore

__all__ = ["RoutePlanner", "popular_town_pairs"]


def popular_town_pairs(
    towns: list[dict], limit: int = 32
) -> list[tuple[str, str]]:
    """Top town pairs by population product — the precompute set.

    ``towns`` is a town listing shaped like :meth:`RoutePlanner.towns`
    (and the ``GET /v1/route/towns`` payload).  Deterministic: pairs of
    the 24 most populous towns sorted by ``(-pop_a*pop_b, id_a, id_b)``.
    """
    if limit < 1:
        raise ConfigurationError(f"limit must be >= 1, got {limit}")
    ranked = sorted(
        towns, key=lambda t: (-t["population"], t["town_id"])
    )[:24]
    pairs = [(a, b) for i, a in enumerate(ranked) for b in ranked[i + 1:]]
    pairs.sort(
        key=lambda p: (
            -(p[0]["population"] * p[1]["population"]),
            p[0]["town_id"],
            p[1]["town_id"],
        )
    )
    return [(a["name"], b["name"]) for a, b in pairs[:limit]]


class RoutePlanner:
    """Answer route-risk queries for one study dataset.

    Parameters
    ----------
    dataset:
        The generated study area (network + scored segment table).
    n_clusters / cluster_seed:
        Spatial k-means hotspot geometry; skipped when the dataset has
        fewer crashes than clusters.
    store_capacity / max_graphs:
        Bounds on the response cache and the per-artefact graph LRU.
    default_alpha:
        Risk weight used when a request does not name one.
    """

    def __init__(
        self,
        dataset: RoadCrashDataset,
        n_clusters: int = 8,
        cluster_seed: int = 0,
        store_capacity: int = 1024,
        max_graphs: int = 4,
        default_alpha: float = DEFAULT_ALPHA,
    ):
        if max_graphs < 1:
            raise ConfigurationError(
                f"max_graphs must be >= 1, got {max_graphs}"
            )
        if not 0.0 <= default_alpha <= 1.0:
            raise ConfigurationError(
                f"default_alpha must be in [0, 1], got {default_alpha}"
            )
        self.dataset = dataset
        self.network = dataset.network
        self.default_alpha = float(default_alpha)
        n_crashes = dataset.crash_instances.n_rows
        self.clusters = (
            spatial_kmeans_hotspots(dataset, n_clusters, seed=cluster_seed)
            if 0 < n_clusters <= n_crashes
            else []
        )
        self.store = RouteStore(store_capacity)
        self.max_graphs = max_graphs
        self._graphs: OrderedDict[str, RiskGraph] = OrderedDict()
        self._model_checksums: dict[str, str] = {}
        self._lock = threading.Lock()
        self._graph_builds = 0
        self._plans = {"score": 0, "safest": 0, "path": 0}

    # -- graph lifecycle ---------------------------------------------------
    def graph_for(self, scorer, checksum: str, model: str | None = None) -> RiskGraph:
        """The risk graph for one scorer artefact, built at most once.

        ``model`` (the registry name) lets a hot reload purge the
        superseded checksum's cached routes and graph.
        """
        if model is not None:
            self._note_model(model, checksum)
        with self._lock:
            graph = self._graphs.get(checksum)
            if graph is not None:
                self._graphs.move_to_end(checksum)
                return graph
        # Build outside the lock: scoring every segment can take a
        # while and must not serialise unrelated cache hits.  A rare
        # concurrent duplicate build loses the race below and is
        # dropped.
        graph = self._build_graph(scorer, checksum)
        with self._lock:
            existing = self._graphs.get(checksum)
            if existing is not None:
                return existing
            self._graphs[checksum] = graph
            while len(self._graphs) > self.max_graphs:
                self._graphs.popitem(last=False)
            self._graph_builds += 1
        return graph

    def _note_model(self, model: str, checksum: str) -> None:
        stale = None
        with self._lock:
            previous = self._model_checksums.get(model)
            if previous != checksum:
                self._model_checksums[model] = checksum
                if previous is not None:
                    self._graphs.pop(previous, None)
                    stale = previous
        if stale is not None:
            self.store.invalidate_checksum(stale)

    def _build_graph(self, scorer, checksum: str) -> RiskGraph:
        table = self.dataset.segment_table
        with obs_span(
            "routing.build", checksum=checksum, segments=table.n_rows
        ):
            probabilities = scorer.score(table)
            segment_ids = table.numeric("segment_id").astype(int)
            return RiskGraph.build(
                self.network,
                segment_ids,
                probabilities,
                checksum=checksum,
                clusters=tuple(self.clusters),
            )

    # -- request-level queries ----------------------------------------------
    def _alpha(self, alpha) -> float:
        if alpha is None:
            return self.default_alpha
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
            raise RoutingError(f"'alpha' must be a number, got {alpha!r}")
        return float(alpha)

    def _k(self, k) -> int:
        if k is None:
            return 3
        if isinstance(k, bool) or not isinstance(k, int):
            raise RoutingError(f"'k' must be an integer, got {k!r}")
        if not 1 <= k <= MAX_ALTERNATIVES:
            raise RoutingError(
                f"'k' must be in [1, {MAX_ALTERNATIVES}], got {k}"
            )
        return k

    def _count_plan(self, kind: str) -> None:
        with self._lock:
            self._plans[kind] += 1

    def plan_pair(
        self,
        scorer,
        checksum: str,
        origin,
        dest,
        alpha=None,
        model: str | None = None,
    ) -> dict:
        """Risk breakdown for the best blended route of a town pair."""
        alpha = self._alpha(alpha)
        o = self.network.town_named(origin)
        d = self.network.town_named(dest)
        key = (checksum, "score", o.town_id, d.town_id, alpha)
        with obs_span(
            "routing.plan", kind="score", origin=o.name, destination=d.name,
            alpha=alpha,
        ):
            self._count_plan("score")
            cached = self.store.lookup(key)
            if cached is not None:
                return cached
            graph = self.graph_for(scorer, checksum, model)
            plan = queries.best_route(graph, o.town_id, d.town_id, alpha)
            response = {
                "origin": o.name,
                "destination": d.name,
                "alpha": alpha,
                "route": plan.to_dict(),
            }
            self.store.insert(key, response)
            return response

    def plan_safest(
        self,
        scorer,
        checksum: str,
        origin,
        dest,
        alpha=None,
        k=None,
        model: str | None = None,
    ) -> dict:
        """Safest plan vs the shortest, with the alternatives weighed."""
        alpha = self._alpha(alpha)
        k = self._k(k)
        o = self.network.town_named(origin)
        d = self.network.town_named(dest)
        key = (checksum, "safest", o.town_id, d.town_id, alpha, k)
        with obs_span(
            "routing.plan", kind="safest", origin=o.name,
            destination=d.name, alpha=alpha, k=k,
        ):
            self._count_plan("safest")
            cached = self.store.lookup(key)
            if cached is not None:
                return cached
            graph = self.graph_for(scorer, checksum, model)
            result = queries.safest_route(
                graph, o.town_id, d.town_id, alpha, k
            )
            response = {
                "origin": o.name,
                "destination": d.name,
                "alpha": alpha,
                "k": k,
                **result.to_dict(),
            }
            self.store.insert(key, response)
            return response

    def score_path(
        self,
        scorer,
        checksum: str,
        towns: list,
        alpha=None,
        model: str | None = None,
    ) -> dict:
        """Risk breakdown for an explicit town sequence."""
        alpha = self._alpha(alpha)
        if not isinstance(towns, (list, tuple)) or not towns:
            raise RoutingError(
                "'path' must be a non-empty list of town names"
            )
        resolved = [self.network.town_named(t) for t in towns]
        ids = tuple(t.town_id for t in resolved)
        key = (checksum, "path", ids, alpha)
        with obs_span(
            "routing.plan", kind="path", n_towns=len(ids), alpha=alpha
        ):
            self._count_plan("path")
            cached = self.store.lookup(key)
            if cached is not None:
                return cached
            graph = self.graph_for(scorer, checksum, model)
            plan = queries.score_town_path(graph, list(ids), alpha)
            response = {"route": plan.to_dict()}
            self.store.insert(key, response)
            return response

    # -- precompute / reporting ----------------------------------------------
    def popular_pairs(self, limit: int = 32) -> list[tuple[str, str]]:
        """:func:`popular_town_pairs` of this planner's towns."""
        return popular_town_pairs(self.towns(), limit)

    def precompute(
        self,
        scorer,
        checksum: str,
        pairs: list[tuple[str, str]] | None = None,
        alpha=None,
        k=None,
        limit: int = 32,
        model: str | None = None,
    ) -> int:
        """Warm the store with safest + best plans for popular pairs."""
        if pairs is None:
            pairs = self.popular_pairs(limit)
        n = 0
        for origin, dest in pairs:
            self.plan_safest(
                scorer, checksum, origin, dest, alpha=alpha, k=k,
                model=model,
            )
            self.plan_pair(
                scorer, checksum, origin, dest, alpha=alpha, model=model
            )
            n += 2
        self.store.note_precomputed(n)
        return n

    def top_risk_routes(
        self, scorer, checksum: str, limit: int = 10,
        model: str | None = None,
    ) -> list[dict]:
        """The network's riskiest edges (by expected crashes), worst first."""
        if limit < 1:
            raise ConfigurationError(f"limit must be >= 1, got {limit}")
        graph = self.graph_for(scorer, checksum, model)
        order = sorted(
            range(graph.n_edges),
            key=lambda e: (-float(graph.edge_risk[e]), e),
        )[:limit]
        return [
            {
                "route_id": int(graph.edge_route_id[e]),
                "from": graph.town_names[int(graph.edge_u[e])],
                "to": graph.town_names[int(graph.edge_v[e])],
                "length_km": round(float(graph.edge_length[e]), 6),
                "expected_crashes": round(float(graph.edge_risk[e]), 6),
                "worst_segment_probability": round(
                    float(graph.edge_worst[e]), 6
                ),
                "hotspot_segments": int(graph.edge_hotspot[e]),
                "scored_segments": int(graph.edge_scored[e]),
            }
            for e in order
        ]

    def towns(self) -> list[dict]:
        """Town directory for clients building route requests."""
        return [
            {
                "town_id": t.town_id,
                "name": t.name,
                "x": round(t.x, 6),
                "y": round(t.y, 6),
                "population": t.population,
            }
            for t in sorted(self.network.towns, key=lambda t: t.town_id)
        ]

    def stats(self) -> dict:
        """Counter snapshot for ``/metrics``."""
        with self._lock:
            plans = dict(self._plans)
            graph_builds = self._graph_builds
            graphs_cached = len(self._graphs)
        return {
            "towns": len(self.network.towns),
            "routes": len(self.network.routes),
            "clusters": len(self.clusters),
            "graph_builds": graph_builds,
            "graphs_cached": graphs_cached,
            "plans": plans,
            "store": self.store.stats(),
        }
