"""Synthetic road network builder.

The QDTMR study area is a state-wide network of sealed roads surveyed
in 1 km segments.  We synthesise an analogous network: towns are placed
on a plane, connected by a spanning backbone plus shortcut links, and
each link becomes a *route* with a functional class, terrain and region.
Routes are then sliced into 1 km :class:`SegmentSkeleton` records that
carry only the topological facts (class, terrain, region, urbanisation);
:mod:`repro.roads.segments` later dresses the skeletons with correlated
condition attributes.

networkx computes the Euclidean minimum spanning tree behind the
backbone, and :attr:`RoadNetwork.graph` keeps the towns and routes as an
``nx.Graph`` for :meth:`RoadNetwork.is_connected`.  Lookups such as
:meth:`RoadNetwork.route_endpoints` (the hotspot example maps
crash-prone segments back onto routes between named towns this way) use
plain dict indexes.  networkx is imported only where a graph is built or
checked, so importing this module, and with it :mod:`repro`, does not
load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError
from repro.roads.attributes import REGIONS, ROAD_CLASSES, TERRAIN_TYPES

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Town", "Route", "SegmentSkeleton", "RoadNetwork"]


@dataclass(frozen=True)
class Town:
    """A node of the network: a population centre."""

    town_id: int
    name: str
    x: float
    y: float
    population: int


@dataclass(frozen=True)
class Route:
    """One edge of the network: a sealed road between two towns."""

    route_id: int
    start: int
    end: int
    road_class: str
    terrain: str
    region: str
    length_km: float


@dataclass(frozen=True)
class SegmentSkeleton:
    """Topological identity of one 1 km segment before attributes."""

    segment_id: int
    route_id: int
    chainage_km: float
    road_class: str
    terrain: str
    region: str
    urbanisation: float
    """0 = deep rural, 1 = town centre; drives AADT and intersections."""
    x: float = 0.0
    y: float = 0.0
    """Plane coordinates (km) interpolated along the route; used by the
    KDE hotspot baseline."""


def _empty_graph() -> nx.Graph:
    import networkx as nx

    return nx.Graph()


def _class_for(pop_a: int, pop_b: int, rng: np.random.Generator) -> str:
    """Pick a functional class from the populations of the end towns."""
    smaller = min(pop_a, pop_b)
    larger = max(pop_a, pop_b)
    if larger >= 200_000 and smaller >= 50_000:
        return str(rng.choice(["motorway", "highway"], p=[0.4, 0.6]))
    if larger >= 50_000:
        return str(rng.choice(["highway", "arterial"], p=[0.55, 0.45]))
    if larger >= 10_000:
        return str(rng.choice(["arterial", "rural"], p=[0.5, 0.5]))
    return "rural"


@dataclass
class RoadNetwork:
    """A generated network of towns, routes and 1 km segments."""

    towns: list[Town] = field(default_factory=list)
    routes: list[Route] = field(default_factory=list)
    graph: nx.Graph = field(default_factory=_empty_graph)
    _skeletons: list[SegmentSkeleton] = field(default_factory=list)
    # Lookup indexes, built once on first use and rebuilt only if the
    # backing list has grown (generation appends; nothing mutates after).
    _route_index: dict[int, Route] | None = field(
        default=None, repr=False, compare=False
    )
    _town_index: dict[int, Town] | None = field(
        default=None, repr=False, compare=False
    )
    _town_names: dict[str, Town] | None = field(
        default=None, repr=False, compare=False
    )
    _skeleton_index: dict[int, SegmentSkeleton] | None = field(
        default=None, repr=False, compare=False
    )

    # -- construction -------------------------------------------------
    @classmethod
    def generate(
        cls,
        rng: np.random.Generator,
        n_towns: int = 40,
        extent_km: float = 1000.0,
        shortcut_fraction: float = 0.35,
    ) -> "RoadNetwork":
        """Generate a connected network.

        Parameters
        ----------
        rng:
            Source of randomness; the network is a pure function of it.
        n_towns:
            Number of population centres.
        extent_km:
            Side length of the square study area.
        shortcut_fraction:
            Extra edges (as a fraction of ``n_towns``) added on top of
            the minimum spanning tree to create alternative routes.
        """
        import networkx as nx

        if n_towns < 2:
            raise ConfigurationError(f"need at least 2 towns, got {n_towns}")
        net = cls()
        xs = rng.uniform(0, extent_km, size=n_towns)
        ys = rng.uniform(0, extent_km, size=n_towns)
        # Log-normal town sizes: a few cities, many small towns.
        pops = np.round(np.exp(rng.normal(9.5, 1.6, size=n_towns))).astype(int)
        pops = np.clip(pops, 500, 2_500_000)
        for i in range(n_towns):
            net.towns.append(
                Town(i, f"town_{i:03d}", float(xs[i]), float(ys[i]), int(pops[i]))
            )
            net.graph.add_node(i, town=net.towns[-1])

        # Backbone: Euclidean minimum spanning tree.
        complete = nx.Graph()
        for i in range(n_towns):
            for j in range(i + 1, n_towns):
                dist = math.hypot(xs[i] - xs[j], ys[i] - ys[j])
                complete.add_edge(i, j, weight=dist)
        backbone = nx.minimum_spanning_tree(complete)
        edges = list(backbone.edges(data=True))

        # Shortcuts: prefer short links between large towns.
        candidates = [
            (u, v, data["weight"])
            for u, v, data in complete.edges(data=True)
            if not backbone.has_edge(u, v) and data["weight"] < extent_km * 0.45
        ]
        scores = np.array(
            [math.log(pops[u] * pops[v]) / (d + 1.0) for u, v, d in candidates]
        )
        n_extra = int(round(n_towns * shortcut_fraction))
        if candidates and n_extra > 0:
            order = np.argsort(-scores)[:n_extra]
            for k in order:
                u, v, d = candidates[int(k)]
                edges.append((u, v, {"weight": d}))

        for u, v, data in edges:
            net._add_route(u, v, data["weight"], extent_km, rng)
        net._build_skeletons(rng)
        return net

    def _add_route(
        self,
        u: int,
        v: int,
        euclid_km: float,
        extent_km: float,
        rng: np.random.Generator,
    ) -> None:
        terrain = str(
            rng.choice(TERRAIN_TYPES, p=[0.45, 0.38, 0.17])
        )
        winding = {"flat": 1.08, "rolling": 1.18, "mountainous": 1.38}[terrain]
        length = max(2.0, euclid_km * winding * rng.uniform(0.95, 1.1))
        mid_x = (self.towns[u].x + self.towns[v].x) / 2
        mid_y = (self.towns[u].y + self.towns[v].y) / 2
        region = REGIONS[
            (mid_x > extent_km / 2) + 2 * (mid_y > extent_km / 2)
        ]
        road_class = _class_for(
            self.towns[u].population, self.towns[v].population, rng
        )
        route = Route(
            route_id=len(self.routes),
            start=u,
            end=v,
            road_class=road_class,
            terrain=terrain,
            region=region,
            length_km=float(length),
        )
        self.routes.append(route)
        self.graph.add_edge(u, v, route=route, weight=length)

    def _build_skeletons(self, rng: np.random.Generator) -> None:
        segment_id = 0
        for route in self.routes:
            n_segments = max(1, int(route.length_km))
            for k in range(n_segments):
                chainage = float(k)
                # Urbanisation decays with distance from either end town.
                from_ends = min(k, n_segments - 1 - k)
                urban = math.exp(-from_ends / 6.0)
                pop_scale = math.log10(
                    max(
                        self.towns[route.start].population,
                        self.towns[route.end].population,
                    )
                ) / 7.0
                urbanisation = min(1.0, urban * pop_scale * rng.uniform(0.8, 1.2))
                if route.road_class == "urban":
                    urbanisation = max(urbanisation, 0.6)
                fraction = (k + 0.5) / n_segments
                start_town = self.towns[route.start]
                end_town = self.towns[route.end]
                self._skeletons.append(
                    SegmentSkeleton(
                        segment_id=segment_id,
                        route_id=route.route_id,
                        chainage_km=chainage,
                        road_class=route.road_class,
                        terrain=route.terrain,
                        region=route.region,
                        urbanisation=float(urbanisation),
                        x=start_town.x + fraction * (end_town.x - start_town.x),
                        y=start_town.y + fraction * (end_town.y - start_town.y),
                    )
                )
                segment_id += 1
        # A state network also has in-town ("urban") street segments that
        # are not between-town routes; add a block of those.
        n_urban = int(len(self._skeletons) * 0.18)
        for _ in range(n_urban):
            town = self.towns[int(rng.integers(len(self.towns)))]
            spread = 1.0 + math.log10(town.population)
            self._skeletons.append(
                SegmentSkeleton(
                    segment_id=segment_id,
                    route_id=-1,
                    chainage_km=0.0,
                    road_class="urban",
                    terrain=str(rng.choice(TERRAIN_TYPES, p=[0.7, 0.25, 0.05])),
                    region=REGIONS[int(rng.integers(len(REGIONS)))],
                    urbanisation=float(
                        min(1.0, 0.5 + math.log10(town.population) / 14.0)
                    ),
                    x=town.x + float(rng.normal(0.0, spread)),
                    y=town.y + float(rng.normal(0.0, spread)),
                )
            )
            segment_id += 1

    # -- queries ---------------------------------------------------------
    @property
    def skeletons(self) -> list[SegmentSkeleton]:
        return list(self._skeletons)

    @property
    def n_segments(self) -> int:
        return len(self._skeletons)

    def _routes_by_id(self) -> dict[int, Route]:
        index = self._route_index
        if index is None or len(index) != len(self.routes):
            index = {route.route_id: route for route in self.routes}
            self._route_index = index
        return index

    def _towns_by_id(self) -> dict[int, Town]:
        index = self._town_index
        if index is None or len(index) != len(self.towns):
            index = {town.town_id: town for town in self.towns}
            self._town_index = index
        return index

    def _towns_by_name(self) -> dict[str, Town]:
        index = self._town_names
        if index is None or len(index) != len(self.towns):
            index = {town.name: town for town in self.towns}
            self._town_names = index
        return index

    def _skeletons_by_id(self) -> dict[int, SegmentSkeleton]:
        index = self._skeleton_index
        if index is None or len(index) != len(self._skeletons):
            index = {s.segment_id: s for s in self._skeletons}
            self._skeleton_index = index
        return index

    def route_of(self, skeleton: SegmentSkeleton) -> Route | None:
        if skeleton.route_id < 0:
            return None
        return self._routes_by_id()[skeleton.route_id]

    def route_endpoints(self, route: Route) -> tuple[Town, Town]:
        towns = self._towns_by_id()
        return towns[route.start], towns[route.end]

    def town_named(self, ref: str | int) -> Town:
        """Resolve a town by name (``town_007``) or integer id."""
        if isinstance(ref, bool):
            raise ConfigurationError(f"not a town reference: {ref!r}")
        if isinstance(ref, int):
            town = self._towns_by_id().get(ref)
        else:
            index = self._towns_by_name()
            town = index.get(str(ref))
            if town is None and str(ref).isdigit():
                town = self._towns_by_id().get(int(ref))
        if town is None:
            raise ConfigurationError(
                f"unknown town {ref!r} "
                f"(network has {len(self.towns)} towns: "
                f"{self.towns[0].name}..{self.towns[-1].name})"
                if self.towns
                else f"unknown town {ref!r} (network has no towns)"
            )
        return town

    def skeleton_of(self, segment_id: int) -> SegmentSkeleton | None:
        return self._skeletons_by_id().get(int(segment_id))

    def is_connected(self) -> bool:
        import networkx as nx

        return nx.is_connected(self.graph)

    def total_length_km(self) -> float:
        return sum(r.length_km for r in self.routes)

    def __repr__(self) -> str:
        classes = {c: 0 for c in ROAD_CLASSES}
        for s in self._skeletons:
            classes[s.road_class] += 1
        mix = ", ".join(f"{c}={n}" for c, n in classes.items() if n)
        return (
            f"RoadNetwork({len(self.towns)} towns, {len(self.routes)} routes, "
            f"{self.n_segments} segments: {mix})"
        )
