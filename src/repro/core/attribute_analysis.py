"""Attribute analysis: cluster signatures, correlations, importances.

The paper's future work: "the full range of attribute values
partitioned by cluster will be analyzed to develop attribute
correlations with the cluster groups, and distinguish correlations,
leading to new knowledge about causation of the particular road segment
types."  This module implements that analysis:

* :func:`cluster_attribute_signatures` — per cluster, which attributes
  deviate most from the population (Cohen's d for interval attributes,
  share lift for nominal levels);
* :func:`attribute_crash_correlations` — each attribute's association
  with the segment crash count (Pearson/Spearman for interval,
  correlation ratio η² for nominal);
* :func:`tree_feature_importance` — which attributes a fitted tree
  actually splits on, weighted by split statistic and node size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatable import CategoricalColumn, DataTable, NumericColumn
from repro.exceptions import EvaluationError
from repro.mining.tree.structure import TreeNode, iter_nodes

__all__ = [
    "AttributeSignature",
    "cluster_attribute_signatures",
    "AttributeCorrelation",
    "attribute_crash_correlations",
    "tree_feature_importance",
]


@dataclass(frozen=True)
class AttributeSignature:
    """How one attribute distinguishes one cluster from the population.

    ``effect`` is Cohen's d for interval attributes (cluster mean vs
    rest, pooled SD) and the dominant level's share lift (cluster share
    − population share) for nominal attributes.
    """

    cluster_id: int
    attribute: str
    effect: float
    cluster_value: float | str
    population_value: float | str

    def describe(self) -> str:
        direction = "above" if self.effect > 0 else "below"
        return (
            f"cluster {self.cluster_id}: {self.attribute} "
            f"{direction} population "
            f"({self.cluster_value} vs {self.population_value}, "
            f"effect {self.effect:+.2f})"
        )


def _cohens_d(group: np.ndarray, rest: np.ndarray) -> float:
    group = group[~np.isnan(group)]
    rest = rest[~np.isnan(rest)]
    if group.size < 2 or rest.size < 2:
        return 0.0
    pooled_var = (
        (group.size - 1) * group.var(ddof=1)
        + (rest.size - 1) * rest.var(ddof=1)
    ) / max(group.size + rest.size - 2, 1)
    if pooled_var <= 0:
        return 0.0
    return float((group.mean() - rest.mean()) / np.sqrt(pooled_var))


def cluster_attribute_signatures(
    table: DataTable,
    assignment: np.ndarray,
    include: list[str] | None = None,
    top_per_cluster: int = 5,
) -> dict[int, list[AttributeSignature]]:
    """Most distinguishing attributes of every cluster.

    Returns cluster id → signatures sorted by |effect| descending,
    at most ``top_per_cluster`` each.
    """
    assignment = np.asarray(assignment)
    if assignment.shape[0] != table.n_rows:
        raise EvaluationError(
            f"assignment length {assignment.shape[0]} does not match "
            f"table of {table.n_rows} rows"
        )
    names = include or [
        c.name
        for c in table.columns()
        if c.name not in ("segment_id", "segment_crash_count", "crash_year")
    ]
    result: dict[int, list[AttributeSignature]] = {}
    for cluster_id in np.unique(assignment):
        members = assignment == cluster_id
        signatures: list[AttributeSignature] = []
        for name in names:
            column = table.column(name)
            if isinstance(column, NumericColumn):
                values = column.values
                effect = _cohens_d(values[members], values[~members])
                present = values[~np.isnan(values)]
                cluster_present = values[members]
                cluster_present = cluster_present[
                    ~np.isnan(cluster_present)
                ]
                if cluster_present.size == 0 or present.size == 0:
                    continue
                signatures.append(
                    AttributeSignature(
                        cluster_id=int(cluster_id),
                        attribute=name,
                        effect=effect,
                        cluster_value=round(float(cluster_present.mean()), 3),
                        population_value=round(float(present.mean()), 3),
                    )
                )
            elif isinstance(column, CategoricalColumn):
                codes = column.codes
                for code, label in enumerate(column.labels):
                    cluster_share = float(
                        (codes[members] == code).mean()
                    )
                    population_share = float((codes == code).mean())
                    lift = cluster_share - population_share
                    if abs(lift) < 1e-12:
                        continue
                    signatures.append(
                        AttributeSignature(
                            cluster_id=int(cluster_id),
                            attribute=f"{name}={label}",
                            effect=lift,
                            cluster_value=round(cluster_share, 3),
                            population_value=round(population_share, 3),
                        )
                    )
        signatures.sort(key=lambda s: -abs(s.effect))
        result[int(cluster_id)] = signatures[:top_per_cluster]
    return result


@dataclass(frozen=True)
class AttributeCorrelation:
    """Association of one attribute with the segment crash count."""

    attribute: str
    kind: str  # 'pearson+spearman' | 'eta_squared'
    pearson: float
    spearman: float
    eta_squared: float

    @property
    def strength(self) -> float:
        """A comparable magnitude across kinds."""
        if self.kind == "eta_squared":
            return float(np.sqrt(max(self.eta_squared, 0.0)))
        return abs(self.spearman)


def attribute_crash_correlations(
    table: DataTable,
    count_column: str = "segment_crash_count",
    include: list[str] | None = None,
) -> list[AttributeCorrelation]:
    """Correlate every attribute with the crash count, strongest first."""
    from scipy import stats

    counts = table.numeric(count_column)
    names = include or [
        c.name
        for c in table.columns()
        if c.name
        not in ("segment_id", count_column, "crash_year")
    ]
    out: list[AttributeCorrelation] = []
    for name in names:
        column = table.column(name)
        if isinstance(column, NumericColumn):
            values = column.values
            mask = ~np.isnan(values) & ~np.isnan(counts)
            if mask.sum() < 3 or values[mask].std() == 0:  # repro: ignore[REP003] -- exact zero std means a constant column; Pearson is undefined only then
                continue
            pearson = float(np.corrcoef(values[mask], counts[mask])[0, 1])
            spearman = float(
                stats.spearmanr(values[mask], counts[mask]).statistic
            )
            out.append(
                AttributeCorrelation(
                    attribute=name,
                    kind="pearson+spearman",
                    pearson=pearson,
                    spearman=spearman,
                    eta_squared=float("nan"),
                )
            )
        elif isinstance(column, CategoricalColumn):
            codes = column.codes
            groups = [
                counts[codes == code]
                for code in range(len(column.labels))
                if (codes == code).sum() > 1
            ]
            if len(groups) < 2:
                continue
            from repro.evaluation import one_way_anova

            try:
                anova = one_way_anova(groups)
            except EvaluationError:
                continue
            out.append(
                AttributeCorrelation(
                    attribute=name,
                    kind="eta_squared",
                    pearson=float("nan"),
                    spearman=float("nan"),
                    eta_squared=anova.eta_squared,
                )
            )
    out.sort(key=lambda c: -c.strength)
    return out


def tree_feature_importance(root: TreeNode) -> dict[str, float]:
    """Split-statistic importance of every feature in a fitted tree.

    Each internal node contributes its test statistic weighted by the
    fraction of training rows it covers; importances are normalised to
    sum to 1.
    """
    raw: dict[str, float] = {}
    total_rows = max(root.n_samples, 1)
    for node in iter_nodes(root):
        if node.split is None:
            continue
        weight = node.n_samples / total_rows
        raw[node.split.feature] = raw.get(node.split.feature, 0.0) + (
            node.split.statistic * weight
        )
    total = sum(raw.values())
    if total <= 0:
        return {}
    return dict(
        sorted(
            ((k, v / total) for k, v in raw.items()),
            key=lambda item: -item[1],
        )
    )
