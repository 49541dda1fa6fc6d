"""RoutePlanner: graph caching, response cache, hot-reload purge.

These tests use the function-scoped ``fresh_planner`` so counter
assertions start from zero.
"""

import pytest

from repro.exceptions import ConfigurationError, RoutingError
from repro.obs.trace import Tracer, use_tracer


class TestGraphCache:
    def test_graph_built_once_per_checksum(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        a = fresh_planner.graph_for(routing_scorer, routing_checksum)
        b = fresh_planner.graph_for(routing_scorer, routing_checksum)
        assert a is b
        assert fresh_planner.stats()["graph_builds"] == 1
        assert fresh_planner.stats()["graphs_cached"] == 1

    def test_hot_reload_purges_superseded_artefact(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        planner = fresh_planner
        planner.plan_pair(
            routing_scorer, routing_checksum, "town_000", "town_005",
            model="cp8",
        )
        assert len(planner.store) == 1
        # Same registry name, new checksum → the old artefact's graph
        # and cached routes must go.
        planner.graph_for(routing_scorer, "new-checksum", model="cp8")
        stats = planner.stats()
        assert stats["store"]["invalidations"] == 1
        assert len(planner.store) == 0
        assert routing_checksum not in planner._graphs


class TestResponseCache:
    def test_cached_response_is_identical(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        first = fresh_planner.plan_safest(
            routing_scorer, routing_checksum, "town_000", "town_005"
        )
        second = fresh_planner.plan_safest(
            routing_scorer, routing_checksum, "town_000", "town_005"
        )
        assert second is first
        stats = fresh_planner.stats()
        assert stats["store"]["hits"] == 1
        assert stats["store"]["misses"] == 1
        assert stats["plans"]["safest"] == 2

    def test_alpha_and_k_key_the_cache(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        a = fresh_planner.plan_pair(
            routing_scorer, routing_checksum, "town_000", "town_005",
            alpha=0.1,
        )
        b = fresh_planner.plan_pair(
            routing_scorer, routing_checksum, "town_000", "town_005",
            alpha=0.9,
        )
        assert a is not b
        assert fresh_planner.stats()["store"]["misses"] == 2

    def test_town_names_and_ids_resolve_to_one_entry(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        """Keys are canonical town ids, not the caller's spelling."""
        by_name = fresh_planner.plan_pair(
            routing_scorer, routing_checksum, "town_000", "town_005"
        )
        by_id = fresh_planner.plan_pair(
            routing_scorer, routing_checksum, 0, 5
        )
        assert by_id is by_name


class TestPrecompute:
    def test_precompute_fills_store_deterministically(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        pairs = fresh_planner.popular_pairs(limit=4)
        assert pairs == fresh_planner.popular_pairs(limit=4)
        n = fresh_planner.precompute(
            routing_scorer, routing_checksum, pairs=pairs
        )
        assert n == 8  # safest + best per pair
        stats = fresh_planner.stats()
        assert stats["store"]["precomputed"] == 8
        assert stats["store"]["entries"] == 8
        # Serving those pairs now hits the store.
        fresh_planner.plan_safest(
            routing_scorer, routing_checksum, *pairs[0]
        )
        assert fresh_planner.stats()["store"]["hits"] == 1

    def test_top_risk_routes_sorted_worst_first(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        rows = fresh_planner.top_risk_routes(
            routing_scorer, routing_checksum, limit=5
        )
        assert len(rows) == 5
        risks = [row["expected_crashes"] for row in rows]
        assert risks == sorted(risks, reverse=True)


class TestTracing:
    def test_plan_produces_connected_span_tree(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        tracer = Tracer()
        with use_tracer(tracer):
            fresh_planner.plan_safest(
                routing_scorer, routing_checksum, "town_000", "town_005"
            )
        spans = tracer.finished()
        names = {span.name for span in spans}
        assert {"routing.plan", "routing.build", "routing.search"} <= names
        roots = [span for span in spans if span.parent_id is None]
        assert len(roots) == 1
        assert roots[0].name == "routing.plan"
        assert len({span.trace_id for span in spans}) == 1
        children = [
            span for span in spans if span.parent_id == roots[0].span_id
        ]
        assert children


class TestValidation:
    def test_bad_alpha_and_k(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        with pytest.raises(RoutingError, match="'alpha'"):
            fresh_planner.plan_pair(
                routing_scorer, routing_checksum, 0, 5, alpha="high"
            )
        with pytest.raises(RoutingError, match="'k'"):
            fresh_planner.plan_safest(
                routing_scorer, routing_checksum, 0, 5, k=0
            )

    def test_unknown_town(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        with pytest.raises(ConfigurationError, match="town"):
            fresh_planner.plan_pair(
                routing_scorer, routing_checksum, "atlantis", "town_005"
            )

    def test_empty_path(
        self, fresh_planner, routing_scorer, routing_checksum
    ):
        with pytest.raises(RoutingError, match="non-empty"):
            fresh_planner.score_path(routing_scorer, routing_checksum, [])

    def test_config_bounds(self, small_dataset):
        from repro.routing import RoutePlanner

        with pytest.raises(ConfigurationError, match="max_graphs"):
            RoutePlanner(small_dataset, max_graphs=0)
        with pytest.raises(ConfigurationError, match="default_alpha"):
            RoutePlanner(small_dataset, default_alpha=2.0)
