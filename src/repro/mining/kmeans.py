"""Simple k-means clustering.

Phase 3 of the paper: "deploying clustering using the optimal model of
eight crashes per road segment ... used simple k-means as the method,
configured to provide 32 clusters."  Lloyd's algorithm with k-means++
seeding over the standardised :class:`MatrixEncoder` encoding; empty
clusters are re-seeded from the points farthest from their centroids.
"""

from __future__ import annotations

import numpy as np

from repro.datatable import DataTable
from repro.exceptions import ConfigurationError, FitError, NotFittedError
from repro.mining.features import FeatureSet
from repro.mining.preprocessing import MatrixEncoder

__all__ = ["KMeans"]


class KMeans:
    """Simple k-means over a modelling table.

    Unlike the supervised models, k-means does not take a target; call
    :meth:`fit` with the table and (optionally) the columns to cluster
    on.

    Parameters
    ----------
    n_clusters:
        Number of clusters (the paper used 32).
    max_iterations / tolerance:
        Lloyd iteration limits (centroid shift under ``tolerance``
        stops early).
    n_init:
        Independent k-means++ restarts; the lowest-inertia run wins.
    seed:
        Seeding randomness; fitting is deterministic given it.
    """

    def __init__(
        self,
        n_clusters: int = 32,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        n_init: int = 3,
        seed: int = 0,
    ):
        if n_clusters < 1:
            raise ConfigurationError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1:
            raise ConfigurationError(f"n_init must be >= 1, got {n_init}")
        self.n_clusters = n_clusters
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.n_init = n_init
        self.seed = seed
        self._encoder: MatrixEncoder | None = None
        self._input_names: list[str] | None = None
        self._vocabularies: dict[str, tuple[str, ...]] = {}
        self.centroids: np.ndarray | None = None
        self.inertia: float = float("nan")
        self.n_iterations = 0

    # -- fitting ---------------------------------------------------------
    def fit(
        self,
        table: DataTable,
        include: list[str] | None = None,
    ) -> "KMeans":
        """Cluster the table rows; returns self."""
        features = self._feature_set(table, include)
        self._input_names = features.input_names
        self._vocabularies = features.vocabularies()
        self._encoder = MatrixEncoder(standardise=True).fit(features)
        x = self._encoder.transform(features)
        if x.shape[0] < self.n_clusters:
            raise FitError(
                f"cannot form {self.n_clusters} clusters from "
                f"{x.shape[0]} rows"
            )
        rng = np.random.default_rng(self.seed)
        best_inertia = np.inf
        best_centroids: np.ndarray | None = None
        best_iterations = 0
        for _restart in range(self.n_init):
            centroids, inertia, iterations = self._lloyd(x, rng)
            if inertia < best_inertia:
                best_inertia = inertia
                best_centroids = centroids
                best_iterations = iterations
        assert best_centroids is not None
        self.centroids = best_centroids
        self.inertia = float(best_inertia)
        self.n_iterations = best_iterations
        return self

    @staticmethod
    def _feature_set(
        table: DataTable, include: list[str] | None
    ) -> FeatureSet:
        # Reuse FeatureSet's input resolution by giving it a throwaway
        # constant "target" that is excluded from the inputs.
        from repro.datatable import NumericColumn

        dummy_name = "__kmeans_dummy_target__"
        augmented = table.with_column(
            NumericColumn.from_array(dummy_name, np.zeros(table.n_rows))
        )
        return FeatureSet(augmented, dummy_name, include)

    def _kmeanspp(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n = x.shape[0]
        centroids = np.empty((self.n_clusters, x.shape[1]))
        first = int(rng.integers(n))
        centroids[0] = x[first]
        closest_sq = ((x - centroids[0]) ** 2).sum(axis=1)
        for k in range(1, self.n_clusters):
            total = closest_sq.sum()
            if total <= 0:
                centroids[k:] = x[rng.integers(n, size=self.n_clusters - k)]
                break
            probs = closest_sq / total
            pick = int(rng.choice(n, p=probs))
            centroids[k] = x[pick]
            dist_sq = ((x - centroids[k]) ** 2).sum(axis=1)
            closest_sq = np.minimum(closest_sq, dist_sq)
        return centroids

    def _lloyd(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, float, int]:
        centroids = self._kmeanspp(x, rng)
        x_sq = _row_sq(x)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            distances = _pairwise_sq(x, centroids, x_sq)
            assignment = distances.argmin(axis=1)
            sizes = np.bincount(assignment, minlength=self.n_clusters)
            sums = _cluster_sums(x, assignment, self.n_clusters)
            new_centroids = centroids.copy()
            filled = sizes > 0
            new_centroids[filled] = sums[filled] / sizes[filled, None]
            if not filled.all():
                # Re-seed every empty cluster at the worst-served point.
                new_centroids[~filled] = x[int(distances.min(axis=1).argmax())]
            shift = float(np.abs(new_centroids - centroids).max())
            centroids = new_centroids
            if shift < self.tolerance:
                break
        distances = _pairwise_sq(x, centroids, x_sq)
        inertia = float(distances.min(axis=1).sum())
        return centroids, inertia, iterations

    # -- assignment ----------------------------------------------------------
    def predict(self, table: DataTable) -> np.ndarray:
        """Cluster index per row."""
        if self.centroids is None:
            raise NotFittedError("KMeans")
        assert self._encoder is not None and self._input_names is not None
        features = self._feature_set(table, self._input_names)
        features = features.aligned_to(self._vocabularies)
        x = self._encoder.transform(features)
        return _pairwise_sq(x, self.centroids).argmin(axis=1)

    def fit_predict(
        self, table: DataTable, include: list[str] | None = None
    ) -> np.ndarray:
        return self.fit(table, include).predict(table)

    def cluster_sizes(self, assignment: np.ndarray) -> np.ndarray:
        return np.bincount(assignment, minlength=self.n_clusters)


def _cluster_sums(
    x: np.ndarray, assignment: np.ndarray, n_clusters: int
) -> np.ndarray:
    """Per-cluster column sums, (n_clusters, n_columns), bit-equal to
    ``x[assignment == k].sum(axis=0)``.  numpy adds the rows of a 2-D
    block in row order, as one bincount per column does; a single
    column it sums pairwise, so that case keeps the masked sum."""
    if x.shape[1] == 1:
        return np.array([[x[assignment == k, 0].sum()] for k in range(n_clusters)])
    columns = [np.bincount(assignment, weights=c, minlength=n_clusters) for c in x.T]
    return np.array(columns).reshape(x.shape[1], n_clusters).T


def _row_sq(x: np.ndarray) -> np.ndarray:
    """Squared row norms as a column, (n_rows, 1)."""
    return (x**2).sum(axis=1, keepdims=True)


def _pairwise_sq(
    x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances, (n_rows, n_clusters).  ``x_sq`` is
    ``_row_sq(x)``, for callers that reuse one ``x``."""
    if x_sq is None:
        x_sq = _row_sq(x)
    c_sq = (centroids**2).sum(axis=1)
    cross = x @ centroids.T
    return np.maximum(x_sq - 2 * cross + c_sq, 0.0)
