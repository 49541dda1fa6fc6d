"""Deployment: a persistable crash-proneness scorer.

The paper's future work: "develop deployment to embed with a strategic
and operational decision support system."  :class:`CrashPronenessScorer`
packages everything such a system needs:

* the fitted CP-k decision tree (and optionally the regression tree),
* the selected threshold and its provenance (MCPV, plateau, seed),
* validation statistics recorded at training time,

with JSON save/load, segment scoring, and a ranked treatment list —
the artefact a road authority's asset-management pipeline would consume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.assessment import assess_scores
from repro.core.thresholds import TARGET_COLUMN, build_threshold_dataset
from repro.datatable import DataTable
from repro.evaluation import train_valid_split
from repro.exceptions import ReproError
from repro.mining import DecisionTreeClassifier, RegressionTree, TreeConfig
from repro.mining.tree.compile import TreePlan

__all__ = ["CrashPronenessScorer", "SegmentScore", "payload_checksum"]

SCORER_FORMAT_VERSION = 1


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON of a scorer payload.

    The ``checksum`` key itself is excluded, so a saved file can embed
    the digest of everything else and the registry can re-derive it to
    detect corrupted or hand-edited artefacts.
    """
    body = {k: v for k, v in payload.items() if k != "checksum"}
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SegmentScore:
    """One scored segment, ready for a treatment list."""

    segment_id: int
    probability: float
    crash_prone: bool
    rank: int


@dataclass
class CrashPronenessScorer:
    """A trained, persistable crash-proneness model.

    Build with :meth:`train` (from crash instances and a threshold) or
    :meth:`load` (from a saved file).

    Attributes
    ----------
    threshold:
        The crash-count threshold the model classifies against.
    model:
        The fitted chi-square decision tree.
    validation:
        Table 2 measures recorded on the held-out validation split at
        training time (what the system's operators audit against).
    metadata:
        Free-form provenance (seed, dataset description, ...).
    """

    threshold: int
    model: DecisionTreeClassifier
    validation: dict[str, float] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)
    regression: RegressionTree | None = None

    # -- training ------------------------------------------------------
    @classmethod
    def train(
        cls,
        crash_instances: DataTable,
        threshold: int,
        seed: int = 0,
        train_fraction: float = 0.6,
        tree_config: TreeConfig | None = None,
        metadata: dict[str, object] | None = None,
        with_regression: bool = False,
    ) -> "CrashPronenessScorer":
        """Train a scorer at a given crash-proneness threshold.

        With ``with_regression`` the paper's companion F-test regression
        tree is fitted on the same split and persisted alongside the
        classifier (its R² is what Tables 3/4 report).
        """
        dataset = build_threshold_dataset(crash_instances, threshold)
        rng = np.random.default_rng(seed)
        split = train_valid_split(
            dataset.table, rng, train_fraction, stratify_by=TARGET_COLUMN
        )
        if tree_config is None:
            min_leaf = max(25, dataset.table.n_rows // 150)
            tree_config = TreeConfig(
                min_leaf=min_leaf,
                min_split=max(60, int(2.5 * min_leaf)),
                max_leaves=160,
            )
        model = DecisionTreeClassifier(tree_config).fit(
            split.train, TARGET_COLUMN
        )
        regression = None
        if with_regression:
            regression = RegressionTree(tree_config).fit(
                split.train, TARGET_COLUMN
            )
        actual = build_threshold_dataset(
            split.valid, threshold
        ).target_vector()
        assessment = assess_scores(actual, model.predict_proba(split.valid))
        return cls(
            threshold=threshold,
            model=model,
            validation=assessment.as_dict(),
            metadata=dict(metadata or {}, seed=seed),
            regression=regression,
        )

    # -- scoring -------------------------------------------------------------
    def score(self, table: DataTable) -> np.ndarray:
        """P(crash prone) per row of any table with the road attributes."""
        return self.model.predict_proba(table)

    def classify(self, table: DataTable, cutoff: float = 0.5) -> np.ndarray:
        """0/1 crash-proneness flags."""
        return self.model.predict(table, threshold=cutoff)

    def treatment_list(
        self,
        segment_table: DataTable,
        top: int | None = None,
        cutoff: float = 0.5,
        probabilities: np.ndarray | None = None,
    ) -> list[SegmentScore]:
        """Segments ranked by predicted crash-proneness.

        ``segment_table`` must carry ``segment_id`` plus the model's
        input attributes.  Returns the ``top`` highest-probability
        segments (all, if ``top`` is None), ranked descending.

        ``probabilities`` are per-row scores the caller already holds
        from :meth:`score` on the same table; they must align with
        ``segment_table`` row for row.  ``repro-study score`` passes
        them because it also sums them into the expected crash-prone
        kilometres, so one scoring pass serves both the ranking and
        the total.
        """
        if "segment_id" not in segment_table:
            raise ReproError(
                "treatment_list requires a 'segment_id' column"
            )
        if probabilities is None:
            probabilities = self.score(segment_table)
        else:
            probabilities = np.asarray(probabilities, dtype=np.float64)
            if probabilities.shape != (segment_table.n_rows,):
                raise ReproError(
                    f"precomputed probabilities have shape "
                    f"{probabilities.shape}, expected "
                    f"({segment_table.n_rows},)"
                )
        ids = segment_table.numeric("segment_id").astype(int)
        order = np.argsort(-probabilities, kind="stable")
        if top is not None:
            order = order[:top]
        return [
            SegmentScore(
                segment_id=int(ids[i]),
                probability=float(probabilities[i]),
                crash_prone=bool(probabilities[i] >= cutoff),
                rank=rank + 1,
            )
            for rank, i in enumerate(order)
        ]

    def expected_prone_km(self, segment_table: DataTable) -> float:
        """Expected crash-prone kilometres (sum of probabilities;
        segments are 1 km)."""
        return float(self.score(segment_table).sum())

    def score_regression(self, table: DataTable) -> np.ndarray:
        """Companion regression-tree predictions (if trained with one)."""
        if self.regression is None:
            raise ReproError(
                "this scorer was trained without a regression tree; "
                "pass with_regression=True to train()"
            )
        return self.regression.predict(table)

    # -- serving contract ---------------------------------------------------
    def input_schema(self) -> dict[str, dict]:
        """The columns a scoring request must provide.

        Maps input column name → ``{"kind": "numeric"}`` or
        ``{"kind": "categorical", "levels": [...]}`` in model input
        order.  This is the schema the serving layer validates request
        rows against; labels outside ``levels`` are legal and route the
        same way unseen labels did at fit time.
        """
        vocabularies = self.model.vocabularies
        schema: dict[str, dict] = {}
        for name in self.model.input_names:
            levels = vocabularies.get(name)
            if levels is None:
                schema[name] = {"kind": "numeric"}
            else:
                schema[name] = {"kind": "categorical", "levels": list(levels)}
        return schema

    def scoring_plan(self) -> TreePlan:
        """The classifier's compiled plan.  :meth:`score` uses the same
        plan; the serving engine evaluates it on request rows it has
        encoded itself (:mod:`repro.serving.encoder`)."""
        return self.model.scoring_plan()

    # -- persistence -------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "format_version": SCORER_FORMAT_VERSION,
            "threshold": self.threshold,
            "validation": self.validation,
            "metadata": self.metadata,
            "input_schema": self.input_schema(),
            "model": self.model.to_dict(),
            "regression": (
                None if self.regression is None else self.regression.to_dict()
            ),
        }
        payload["checksum"] = payload_checksum(payload)
        return payload

    @classmethod
    def from_dict(
        cls, data: dict, source: str | Path | None = None
    ) -> "CrashPronenessScorer":
        """Rebuild a scorer from :meth:`to_dict` output.

        Loading compiles each tree's scoring plan, so a tree the plan
        cannot represent raises :class:`~repro.exceptions.TreeCompileError`
        here.  A payload that lacks a key or holds a value of the wrong
        shape raises :class:`ReproError` naming ``source``; any other
        :class:`ReproError` passes through unchanged.
        """
        origin = f" in {source}" if source is not None else ""
        version = data.get("format_version")
        if version != SCORER_FORMAT_VERSION:
            raise ReproError(
                f"unsupported scorer format version {version!r}{origin} "
                f"(expected {SCORER_FORMAT_VERSION})"
            )
        stored = data.get("checksum")
        if stored is not None and stored != payload_checksum(data):
            raise ReproError(
                f"scorer checksum mismatch{origin}: the artefact was "
                "modified after save()"
            )
        try:
            regression_data = data.get("regression")
            return cls(
                threshold=data["threshold"],
                model=DecisionTreeClassifier.from_dict(data["model"]),
                validation=dict(data["validation"]),
                metadata=dict(data["metadata"]),
                regression=(
                    None
                    if regression_data is None
                    else RegressionTree.from_dict(regression_data)
                ),
            )
        except ReproError:
            # Some are also ValueErrors or KeyErrors; keep them as they are.
            raise
        except (
            KeyError, TypeError, ValueError, AttributeError, IndexError,
            OverflowError,
        ) as exc:
            raise ReproError(
                f"malformed scorer artefact{origin}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def save(self, path: str | Path) -> None:
        """Write the scorer to a JSON file (checksummed, see
        :func:`payload_checksum`)."""
        payload = json.dumps(self.to_dict(), indent=2, allow_nan=True)
        Path(path).write_text(payload, encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CrashPronenessScorer":
        """Read a scorer saved with :meth:`save`.

        Raises :class:`ReproError` naming ``path`` for missing files,
        invalid JSON, checksum mismatches, stale format versions and
        payloads of the wrong shape, and
        :class:`~repro.exceptions.TreeCompileError` naming the node for
        a tree the scoring plan cannot represent.
        """
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot read scorer file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"scorer file {path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ReproError(
                f"scorer file {path} does not contain a JSON object"
            )
        return cls.from_dict(data, source=path)

    def describe(self) -> str:
        mcpv = self.validation.get("mcpv", float("nan"))
        kappa = self.validation.get("kappa", float("nan"))
        return (
            f"CrashPronenessScorer(CP-{self.threshold}, "
            f"{self.model.n_leaves} leaves, validation MCPV={mcpv:.3f}, "
            f"Kappa={kappa:.3f})"
        )
