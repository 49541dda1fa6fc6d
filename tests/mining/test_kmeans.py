"""Tests for simple k-means."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatable import CategoricalColumn, DataTable, NumericColumn
from repro.exceptions import FitError, NotFittedError
from repro.mining import KMeans
from repro.mining.kmeans import _pairwise_sq


def blob_table(n_per=120, seed=0):
    gen = np.random.default_rng(seed)
    centres = [(-5.0, -5.0), (0.0, 5.0), (6.0, -2.0)]
    xs, ys, true = [], [], []
    for label, (cx, cy) in enumerate(centres):
        xs.extend(gen.normal(cx, 0.4, n_per))
        ys.extend(gen.normal(cy, 0.4, n_per))
        true.extend([label] * n_per)
    return (
        DataTable(
            [
                NumericColumn("x", xs),
                NumericColumn("y", ys),
            ]
        ),
        np.array(true),
    )


class TestKMeans:
    def test_recovers_blobs(self):
        table, true = blob_table()
        model = KMeans(n_clusters=3, seed=1)
        assignment = model.fit_predict(table)
        # Each true blob maps to exactly one cluster.
        for label in range(3):
            members = assignment[true == label]
            assert len(set(members.tolist())) == 1
        assert len(set(assignment.tolist())) == 3

    def test_assignment_minimises_distance(self):
        table, _true = blob_table(seed=3)
        model = KMeans(n_clusters=3, seed=2).fit(table)
        from repro.mining.kmeans import _pairwise_sq
        from repro.mining.preprocessing import MatrixEncoder

        features = model._feature_set(table, model._input_names)
        x = model._encoder.transform(features)
        distances = _pairwise_sq(x, model.centroids)
        assignment = model.predict(table)
        assert np.array_equal(assignment, distances.argmin(axis=1))

    def test_inertia_decreases_with_k(self):
        table, _true = blob_table(seed=5)
        inertias = []
        for k in (2, 3, 6):
            model = KMeans(n_clusters=k, seed=1, n_init=2).fit(table)
            inertias.append(model.inertia)
        assert inertias[0] > inertias[1] > inertias[2]

    def test_deterministic_given_seed(self):
        table, _true = blob_table(seed=7)
        a = KMeans(n_clusters=3, seed=4).fit_predict(table)
        b = KMeans(n_clusters=3, seed=4).fit_predict(table)
        assert np.array_equal(a, b)

    def test_too_few_rows_rejected(self):
        table = DataTable([NumericColumn("x", [1.0, 2.0])])
        with pytest.raises(FitError):
            KMeans(n_clusters=5).fit(table)

    def test_predict_before_fit(self):
        table, _true = blob_table()
        with pytest.raises(NotFittedError):
            KMeans().predict(table)

    def test_categorical_features_encoded(self):
        labels = ["a"] * 100 + ["b"] * 100
        table = DataTable([CategoricalColumn("g", labels, ("a", "b"))])
        assignment = KMeans(n_clusters=2, seed=0).fit_predict(table)
        # The categorical column alone separates the two groups exactly.
        assert len(set(assignment[:100].tolist())) == 1
        assert len(set(assignment[100:].tolist())) == 1
        assert assignment[0] != assignment[150]

    def test_cluster_sizes(self):
        table, _true = blob_table()
        model = KMeans(n_clusters=3, seed=1)
        assignment = model.fit_predict(table)
        sizes = model.cluster_sizes(assignment)
        assert sizes.sum() == table.n_rows
        assert (sizes > 0).all()

    def test_include_restricts_features(self):
        table, _true = blob_table()
        noisy = table.with_column(
            NumericColumn("noise", list(np.random.default_rng(0).normal(0, 100, table.n_rows)))
        )
        model = KMeans(n_clusters=3, seed=1).fit(noisy, include=["x", "y"])
        assert model._input_names == ["x", "y"]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0)
        with pytest.raises(ValueError):
            KMeans(n_init=0)

    def test_empty_cluster_reseeded(self):
        # k close to n forces empty-cluster handling during Lloyd steps.
        table, _true = blob_table(n_per=4, seed=11)
        model = KMeans(n_clusters=10, seed=3, n_init=1).fit(table)
        assignment = model.predict(table)
        assert assignment.shape == (12,)

    @pytest.mark.parametrize("k, seed", [(8, 3), (5, 1), (12, 0)])
    def test_lloyd_stops_at_scipy_fixed_point(self, small_dataset, k, seed):
        """Run to convergence, the fitted centroids are a fixed point of
        Lloyd's step: one scipy ``kmeans2`` step from them assigns every
        row to its nearest centroid and leaves the centroids in place."""
        from scipy.cluster.vq import kmeans2

        table = small_dataset.crash_instances
        model = KMeans(
            n_clusters=k, tolerance=0.0, max_iterations=300, seed=seed
        ).fit(table)
        features = model._feature_set(table, model._input_names)
        x = model._encoder.transform(features)
        labels = _pairwise_sq(x, model.centroids).argmin(axis=1)
        if (np.bincount(labels, minlength=k) == 0).any():
            pytest.skip("an empty cluster has no scipy mean")
        centroids, scipy_labels = kmeans2(
            x, model.centroids.copy(), iter=1, minit="matrix", missing="raise"
        )
        assert np.array_equal(scipy_labels, labels)
        np.testing.assert_allclose(
            centroids, model.centroids, rtol=0, atol=1e-12
        )


def _reference_lloyd(model, x, rng):
    """The per-cluster Lloyd loop that the bincount update replaced, kept
    as the reference.  Also reports whether any cluster emptied."""
    centroids = model._kmeanspp(x, rng)
    emptied = False
    iterations = 0
    for iterations in range(1, model.max_iterations + 1):
        distances = _pairwise_sq(x, centroids)
        assignment = distances.argmin(axis=1)
        new_centroids = centroids.copy()
        for k in range(model.n_clusters):
            members = assignment == k
            if members.any():
                new_centroids[k] = x[members].mean(axis=0)
            else:
                emptied = True
                worst = int(distances.min(axis=1).argmax())
                new_centroids[k] = x[worst]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < model.tolerance:
            break
    distances = _pairwise_sq(x, centroids)
    inertia = float(distances.min(axis=1).sum())
    return centroids, inertia, iterations, emptied


def _lloyd_pair(seed, n, d, k, ties):
    gen = np.random.default_rng(seed)
    if ties:  # few distinct rows: k-means++ repeats points, clusters empty
        pool = gen.integers(0, 3, (int(gen.integers(1, 6)), d)).astype(float)
        x = pool[gen.integers(0, len(pool), n)]
    else:
        x = gen.normal(0, 1, (n, d)) * 10.0 ** gen.uniform(-3, 3)
    model = KMeans(n_clusters=k, max_iterations=int(gen.integers(1, 30)))
    ours = model._lloyd(x, np.random.default_rng(seed))
    ref = _reference_lloyd(model, x, np.random.default_rng(seed))
    return ours, ref


def _same_fit(ours, ref):
    centroids, inertia, iterations = ours
    assert centroids.tobytes() == ref[0].tobytes()
    assert inertia.hex() == ref[1].hex()
    assert iterations == ref[2]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    d=st.integers(1, 9),
    k=st.integers(1, 12),
    ties=st.booleans(),
)
def test_lloyd_matches_the_per_cluster_loop(seed, n, d, k, ties):
    """Centroids, inertia and iterations bit for bit, one column included
    (numpy sums a single column pairwise)."""
    ours, ref = _lloyd_pair(seed, max(n, k), d, k, ties)
    _same_fit(ours, ref)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_lloyd_reseeds_empty_clusters_like_the_loop(d):
    """Cases where clusters empty: every empty cluster takes the same
    worst-served point, as in the loop."""
    emptied = 0
    for seed in range(40):
        ours, ref = _lloyd_pair(seed, 30, d, 10, ties=True)
        _same_fit(ours, ref)
        emptied += ref[3]
    assert emptied > 0
