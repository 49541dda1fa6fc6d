"""Compiled scoring kernels: fitted trees lowered to flat arrays.

:func:`~repro.mining.tree.structure.route_rows` interprets a fitted
tree by walking :class:`~repro.mining.tree.structure.TreeNode` objects
in Python — one feature lookup, one ``np.isin`` per nominal arm, one
mask per branch, *per node*.  That is fine for fitting (each node is
visited once) but it dominates the network-wide re-score the paper's
deployment story needs: scoring 42k+ segments touches every node of a
160-leaf tree with Python-level overhead each time.

:func:`compile_tree` lowers a fitted tree into a :class:`TreePlan` of
flat numpy arrays — per-node feature index, numeric threshold,
child offsets for the ``le`` / ``gt`` / ``missing`` arms, and for
nominal splits a per-level child lookup table with missing-value and
unseen-label routing baked in.  :meth:`TreePlan.evaluate` then routes
whole column blocks without touching a ``TreeNode``, through one of
two backends over the same arrays:

``native``
    A generic C interpreter (:mod:`repro.mining.tree.kernel`) built
    once with the system compiler and loaded via ctypes — the fast
    path for bulk re-scores.
``numpy``
    A pure-numpy mask-propagation evaluator (one boolean mask pushed
    down the flattened tree, O(nodes) vectorised steps) used whenever
    the native kernel is unavailable, and as the parity oracle for it.

The plan is a pure lowering: its output is bit-identical to
``route_rows`` (enforced by hypothesis parity tests), including the
paper's missing-as-valid-data routing and the largest-child fallback
for unmatched rows.  It is also the only way a fitted tree scores
(:class:`CompiledScoringMixin`): it is compiled from the tree's own
nodes, never stored, and a tree whose branch layout it cannot
represent (e.g. a hand-edited artefact with mismatched ``le``/``gt``
thresholds) raises :class:`TreeCompileError` naming the node.  Every
index in a compiled plan is in range by construction (DESIGN.md §8),
so the native kernel can trust it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence, TypeVar

import numpy as np

from repro.datatable import DataTable
from repro.exceptions import ReproError, TreeCompileError
from repro.mining.base import Model
from repro.mining.features import FeatureSet
from repro.mining.tree import kernel as _kernel
from repro.mining.tree.growth import GrownTree, TreeConfig, grow_tree
from repro.mining.tree.serialize import node_from_dict, node_to_dict
from repro.mining.tree.structure import TreeNode, iter_nodes
from repro.obs.trace import span as obs_span

__all__ = [
    "PlanInput",
    "PlanRows",
    "TreePlan",
    "compile_tree",
    "plan_inputs",
    "CompiledScoringMixin",
]

#: node kinds in the flattened plan
_LEAF, _NUMERIC, _NOMINAL = 0, 1, 2


@dataclass(frozen=True)
class PlanInput:
    """One model input as the plan expects it at evaluation time.

    ``n_levels`` is the training vocabulary size for nominal inputs;
    evaluation accepts codes in ``[-1, n_levels]`` (``-1`` = missing,
    ``n_levels`` = the unseen-label code produced by vocabulary
    alignment).
    """

    name: str
    is_numeric: bool
    n_levels: int = 0


class PlanRows:
    """Rows laid out as a plan's evaluation input.

    ``values`` is a C-contiguous float64 ``[n_numeric, n_rows]`` block,
    one row per numeric plan input in plan order, NaN for missing.
    ``codes`` is a C-contiguous int64 ``[n_nominal, n_rows]`` block of
    LUT-shifted training-vocabulary codes: 0 = missing,
    ``1..n_levels`` = the vocabulary, ``n_levels + 1`` = unseen.  Row
    ``f`` of a block is input column ``f``, as in the per-column lists
    a :class:`~repro.mining.features.FeatureSet` evaluates through.
    The serving layer's row encoder writes request rows straight into
    one.
    """

    __slots__ = ("values", "codes", "n_rows")

    def __init__(self, values: np.ndarray, codes: np.ndarray):
        self.values = values
        self.codes = codes
        self.n_rows = int(values.shape[1])


class TreePlan:
    """A fitted tree lowered to flat arrays for block evaluation.

    Nodes are stored in pre-order; index 0 is the root.  Per node:

    ``kind``
        0 = leaf, 1 = numeric split, 2 = nominal split.
    ``feature``
        Column index into the numeric (kind 1) or nominal (kind 2)
        value block; 0 for leaves.
    ``threshold`` / ``le_child`` / ``gt_child`` / ``nan_child``
        Numeric routing: rows go to ``le_child`` when value ≤ threshold,
        ``gt_child`` when value > threshold, ``nan_child`` when missing
        (the explicit missing arm, or the largest child as fallback).
    ``lut_offset`` + ``lut``
        Nominal routing: node ``i`` owns ``lut[lut_offset[i] + code + 1]``
        for codes ``-1 .. n_levels``, each entry a child node index with
        first-match, missing-arm and largest-child semantics pre-applied.
    ``prediction`` / ``node_id``
        Leaf payloads (P(positive) or mean target, and the original
        ``TreeNode.node_id`` for ``apply``).
    """

    def __init__(
        self,
        inputs: tuple[PlanInput, ...],
        kind: np.ndarray,
        feature: np.ndarray,
        threshold: np.ndarray,
        le_child: np.ndarray,
        gt_child: np.ndarray,
        nan_child: np.ndarray,
        lut_offset: np.ndarray,
        lut: np.ndarray,
        prediction: np.ndarray,
        node_id: np.ndarray,
    ):
        # Dtypes are pinned to what both backends consume directly:
        # the C kernel reads these buffers through ctypes as-is.
        self.inputs = inputs
        self.kind = np.ascontiguousarray(kind, dtype=np.int8)
        self.feature = np.ascontiguousarray(feature, dtype=np.int32)
        self.threshold = np.ascontiguousarray(threshold, dtype=np.float64)
        self.le_child = np.ascontiguousarray(le_child, dtype=np.int32)
        self.gt_child = np.ascontiguousarray(gt_child, dtype=np.int32)
        self.nan_child = np.ascontiguousarray(nan_child, dtype=np.int32)
        self.lut_offset = np.ascontiguousarray(lut_offset, dtype=np.int32)
        self.lut = np.ascontiguousarray(lut, dtype=np.int32)
        self.prediction = np.ascontiguousarray(prediction, dtype=np.float64)
        self.node_id = np.ascontiguousarray(node_id, dtype=np.int64)
        self._numeric_names = [i.name for i in inputs if i.is_numeric]
        self._nominal = [i for i in inputs if not i.is_numeric]
        # Largest legal shifted code per nominal input, as uint64 so a
        # negative code (viewed unsigned) fails the same comparison.
        self._code_limit = np.array(
            [[spec.n_levels + 1] for spec in self._nominal], dtype=np.uint64
        ).reshape(len(self._nominal), 1)
        self._bound: _kernel.BoundPlan | None = None

    def __getstate__(self) -> dict:
        # The native binding holds this process's addresses.
        state = dict(self.__dict__)
        state["_bound"] = None
        return state

    @property
    def n_nodes(self) -> int:
        return int(self.kind.shape[0])

    # -- evaluation --------------------------------------------------------
    def _columns(
        self, features: FeatureSet
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Evaluation columns (numeric values, shifted nominal codes).

        Nominal codes are clipped to ``[-1, n_levels]`` and shifted by
        ``+1`` so they index a node's LUT slice directly (slot 0 =
        missing, last slot = unseen); the clip also guarantees a
        malformed code can never index a neighbour's slice.  Numeric
        columns are the feature set's own arrays, not copies.

        Raises :class:`TreeCompileError` when the feature set does not
        carry every plan input with the expected measurement level.  A
        model's own feature sets always do: vocabulary alignment
        (:meth:`FeatureSet.aligned_to`) settles each input's kind first.
        """
        by_name = {f.name: f for f in features.features}
        numeric_cols = []
        for name in self._numeric_names:
            feat = by_name.get(name)
            if feat is None or not feat.is_numeric:
                raise TreeCompileError(
                    f"plan input {name!r} is not a numeric feature of "
                    f"the evaluation table"
                )
            numeric_cols.append(
                np.ascontiguousarray(feat.values, dtype=np.float64)
            )
        code_cols = []
        for spec in self._nominal:
            feat = by_name.get(spec.name)
            if feat is None or feat.is_numeric:
                raise TreeCompileError(
                    f"plan input {spec.name!r} is not a nominal feature "
                    f"of the evaluation table"
                )
            shifted = np.clip(feat.values, -1, spec.n_levels) + 1
            code_cols.append(
                np.ascontiguousarray(shifted, dtype=np.int64)
            )
        return numeric_cols, code_cols

    def _check(self, rows: PlanRows) -> None:
        """Refuse a block the kernel could read outside its buffers:
        wrong dtype, layout or shape, or a code outside its LUT slice."""
        values, codes = rows.values, rows.codes
        n = rows.n_rows
        if (
            values.dtype != np.float64
            or codes.dtype != np.int64
            or not values.flags.c_contiguous
            or not codes.flags.c_contiguous
            or values.shape != (len(self._numeric_names), n)
            or codes.shape != (len(self._nominal), n)
        ):
            raise TreeCompileError(
                "rows do not match the plan's input layout"
            )
        if codes.size and (codes.view(np.uint64) > self._code_limit).any():
            raise TreeCompileError(
                "a nominal code lies outside its lookup-table slice"
            )

    def evaluate(
        self, features: FeatureSet | PlanRows, backend: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route every row to a leaf via the flat arrays.

        ``features`` is a feature set or a :class:`PlanRows` block
        already in the plan's layout, which is checked before either
        backend reads it.  Returns ``(predictions, leaf_ids)`` exactly
        as :func:`~repro.mining.tree.structure.route_rows` would.

        ``backend`` pins the evaluator to ``"native"`` or ``"numpy"``
        (benchmarks and parity tests); the default picks the native
        kernel when available.  Pinning ``"native"`` on a host without
        a kernel raises :class:`TreeCompileError`.
        """
        if isinstance(features, PlanRows):
            self._check(features)
            numeric_cols, code_cols = features.values, features.codes
        else:
            numeric_cols, code_cols = self._columns(features)
        n = features.n_rows
        if backend not in (None, "native", "numpy"):
            raise TreeCompileError(f"unknown plan backend {backend!r}")
        if backend != "numpy" and n > 0:
            native = _kernel.native_kernel()
            if native is not None:
                with obs_span(
                    "plan.evaluate",
                    rows=n,
                    backend="native",
                    nodes=self.n_nodes,
                ):
                    bound = self._bound
                    if bound is None:
                        bound = self._bound = native.bind(self)
                    return bound(numeric_cols, code_cols, n)
            if backend == "native":
                raise TreeCompileError(
                    "native kernel requested but unavailable: "
                    + _kernel.native_kernel_status()
                )
        with obs_span(
            "plan.evaluate", rows=n, backend="numpy", nodes=self.n_nodes
        ):
            return self._evaluate_numpy(numeric_cols, code_cols, n)

    def _evaluate_numpy(
        self,
        numeric_cols: Sequence[np.ndarray],
        code_cols: Sequence[np.ndarray],
        n: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mask-propagation evaluator: push one boolean membership mask
        per node down the flattened tree.  Full-width contiguous
        compares and AND/XOR beat gather-based routing for the pruned
        tree sizes this study produces, and need no C toolchain."""
        final = np.zeros(n, dtype=np.intp)
        if n and self.kind[0] != _LEAF:
            stack: list[tuple[int, np.ndarray]] = [
                (0, np.ones(n, dtype=bool))
            ]
            while stack:
                node, mask = stack.pop()
                node_kind = self.kind[node]
                if node_kind == _LEAF:
                    final[mask] = node
                    continue
                if node_kind == _NUMERIC:
                    values = numeric_cols[self.feature[node]]
                    cut = self.threshold[node]
                    with np.errstate(invalid="ignore"):
                        le_mask = (values <= cut) & mask
                        gt_mask = (values > cut) & mask
                    nan_mask = mask ^ le_mask ^ gt_mask
                    if nan_mask.any():
                        stack.append(
                            (int(self.nan_child[node]), nan_mask)
                        )
                    stack.append((int(self.le_child[node]), le_mask))
                    stack.append((int(self.gt_child[node]), gt_mask))
                else:
                    spec = self._nominal[self.feature[node]]
                    offset = self.lut_offset[node]
                    table = self.lut[offset: offset + spec.n_levels + 2]
                    child = table[code_cols[self.feature[node]]]
                    for target in np.unique(table):
                        stack.append(
                            (int(target), (child == target) & mask)
                        )
        return self.prediction[final], self.node_id[final]


def _fallback_index(node: TreeNode) -> int:
    """Index of the largest-child branch (first max, like route_rows)."""
    sizes = [branch.child.n_samples for branch in node.branches]
    return sizes.index(max(sizes))


def compile_tree(
    root: TreeNode, inputs: list[PlanInput] | tuple[PlanInput, ...]
) -> TreePlan:
    """Lower a fitted tree into a :class:`TreePlan`.

    ``inputs`` describes the model's input features in order (the
    fitted ``input_names`` with their measurement level and training
    vocabulary size).  Raises :class:`TreeCompileError`, naming the
    node, when the tree references unknown features, groups a level
    code outside its feature's vocabulary, or carries a branch layout
    the lowering cannot represent faithfully.  Every index the result
    holds is in range by construction: child indices come from this
    function's own pre-order walk, feature indices from ``inputs``,
    and each lookup-table slice is ``n_levels + 2`` entries long.
    """
    inputs = tuple(inputs)
    spec_by_name = {spec.name: spec for spec in inputs}
    numeric_col = {
        spec.name: i
        for i, spec in enumerate(s for s in inputs if s.is_numeric)
    }
    nominal_col = {
        spec.name: i
        for i, spec in enumerate(s for s in inputs if not s.is_numeric)
    }

    # Pre-order flattening; children always get larger indices than
    # their parent, so evaluation can never loop.
    order = list(iter_nodes(root))
    index_of = {id(node): i for i, node in enumerate(order)}

    n = len(order)
    kind = np.zeros(n, dtype=np.int8)
    feature = np.zeros(n, dtype=np.int64)
    threshold = np.full(n, np.inf, dtype=np.float64)
    le_child = np.arange(n, dtype=np.int64)
    gt_child = np.arange(n, dtype=np.int64)
    nan_child = np.arange(n, dtype=np.int64)
    lut_offset = np.zeros(n, dtype=np.int64)
    lut_parts: list[np.ndarray] = []
    lut_size = 0
    prediction = np.empty(n, dtype=np.float64)
    node_id = np.empty(n, dtype=np.int64)

    for i, node in enumerate(order):
        prediction[i] = node.prediction
        node_id[i] = node.node_id
        if node.is_leaf:
            continue
        kinds = [branch.kind for branch in node.branches]
        fallback = index_of[
            id(node.branches[_fallback_index(node)].child)
        ]
        missing_children = [
            index_of[id(b.child)] for b in node.branches if b.kind == "missing"
        ]
        if len(missing_children) > 1:
            raise TreeCompileError(
                f"node {node.node_id} has {len(missing_children)} missing "
                f"arms; cannot compile"
            )
        missing_child = (
            missing_children[0] if missing_children else fallback
        )
        if node.split is None:
            raise TreeCompileError(
                f"node {node.node_id} has branches but no split; "
                f"cannot compile"
            )
        spec = spec_by_name.get(node.split.feature)
        if spec is None:
            raise TreeCompileError(
                f"node {node.node_id} splits on unknown feature "
                f"{node.split.feature!r}"
            )
        if any(k == "le" or k == "gt" for k in kinds):
            le_arms = [b for b in node.branches if b.kind == "le"]
            gt_arms = [b for b in node.branches if b.kind == "gt"]
            extras = [k for k in kinds if k not in ("le", "gt", "missing")]
            if (
                not spec.is_numeric
                or extras
                or len(le_arms) != 1
                or len(gt_arms) != 1
                or le_arms[0].threshold is None
                or le_arms[0].threshold != gt_arms[0].threshold
            ):
                raise TreeCompileError(
                    f"node {node.node_id} has a non-canonical numeric "
                    f"branch layout ({kinds}); cannot compile"
                )
            kind[i] = _NUMERIC
            feature[i] = numeric_col[spec.name]
            threshold[i] = le_arms[0].threshold
            le_child[i] = index_of[id(le_arms[0].child)]
            gt_child[i] = index_of[id(gt_arms[0].child)]
            nan_child[i] = missing_child
        else:
            if spec.is_numeric or any(
                k not in ("in", "missing") for k in kinds
            ):
                raise TreeCompileError(
                    f"node {node.node_id} has a non-canonical nominal "
                    f"branch layout ({kinds}); cannot compile"
                )
            # LUT slots: [missing, code 0 .. n_levels-1, unseen].
            table = np.full(spec.n_levels + 2, -1, dtype=np.int64)
            table[0] = missing_child
            for branch in node.branches:  # first match wins
                if branch.kind != "in":
                    continue
                child = index_of[id(branch.child)]
                for code in sorted(branch.codes):
                    if not 0 <= code < spec.n_levels:
                        raise TreeCompileError(
                            f"node {node.node_id} groups level code "
                            f"{code} outside the {spec.n_levels}-level "
                            f"vocabulary of {spec.name!r}; cannot compile"
                        )
                    if table[code + 1] == -1:
                        table[code + 1] = child
            table[table == -1] = fallback  # unseen + ungrouped levels
            kind[i] = _NOMINAL
            feature[i] = nominal_col[spec.name]
            lut_offset[i] = lut_size
            lut_parts.append(table)
            lut_size += table.shape[0]

    return TreePlan(
        inputs=inputs,
        kind=kind,
        feature=feature,
        threshold=threshold,
        le_child=le_child,
        gt_child=gt_child,
        nan_child=nan_child,
        lut_offset=lut_offset,
        lut=(
            np.concatenate(lut_parts)
            if lut_parts
            else np.empty(0, dtype=np.int64)
        ),
        prediction=prediction,
        node_id=node_id,
    )


def plan_inputs(
    input_names: list[str], vocabularies: dict[str, tuple[str, ...]]
) -> tuple[PlanInput, ...]:
    """Plan input specs from a fitted model's names + vocabularies."""
    return tuple(
        PlanInput(
            name=name,
            is_numeric=name not in vocabularies,
            n_levels=len(vocabularies.get(name, ())),
        )
        for name in input_names
    )


_Tree = TypeVar("_Tree", bound="CompiledScoringMixin")


class CompiledScoringMixin(Model):
    """What the two fitted tree models share: the grown tree, its one
    scoring path and the artefact keys.

    Mixed into :class:`~repro.mining.tree.decision_tree.DecisionTreeClassifier`
    and :class:`~repro.mining.tree.regression_tree.RegressionTree`.  A
    fitted tree scores only through its compiled :class:`TreePlan`,
    which is compiled from the tree's own nodes: on the first
    prediction after :meth:`fit`, and at once in :meth:`from_dict`.
    So a tree that cannot lower is refused when it is loaded, with a
    :class:`TreeCompileError` that names the node.  The plan is reused
    by every later scan: the study's validation passes, the serving
    engine and bulk re-scores all share it.  Artefacts never hold it.
    """

    def __init__(self, config: TreeConfig | None = None):
        super().__init__()
        self.config = config or TreeConfig()
        self._tree: GrownTree | None = None
        self._plan: TreePlan | None = None

    def _grow(self, features: FeatureSet, y: np.ndarray, mode: str) -> None:
        self._tree = grow_tree(features, y, self.config, mode=mode)
        self._plan = None

    # -- structure ---------------------------------------------------------
    def _grown(self) -> GrownTree:
        self._require_fitted()
        assert self._tree is not None
        return self._tree

    @property
    def root(self) -> TreeNode:
        return self._grown().root

    @property
    def n_leaves(self) -> int:
        return self._grown().n_leaves

    @property
    def n_nodes(self) -> int:
        return self._grown().n_nodes

    @property
    def depth(self) -> int:
        return self._grown().depth

    # -- scoring -----------------------------------------------------------
    def scoring_plan(self) -> TreePlan:
        """The compiled plan, compiled on first use."""
        if self._plan is None:
            with obs_span("plan.compile") as compile_span:
                self._plan = compile_tree(
                    self.root,
                    plan_inputs(self.input_names, self.vocabularies),
                )
                if compile_span is not None:
                    compile_span.attrs["nodes"] = self._plan.n_nodes
        return self._plan

    def _route(self, table: DataTable) -> tuple[np.ndarray, np.ndarray]:
        """(predictions, leaf_ids) for every row of ``table``."""
        return self.scoring_plan().evaluate(self._features_for(table))

    def apply(self, table: DataTable) -> np.ndarray:
        """Leaf id reached by every row (for rule analysis)."""
        return self._route(table)[1]

    # -- persistence -------------------------------------------------------
    def _extra_payload(self) -> dict:
        """Model-specific artefact keys, written after ``vocabularies``."""
        return {}

    def _restore_extra(self, data: dict) -> None:
        """Read back what :meth:`_extra_payload` wrote."""

    def to_dict(self) -> dict:
        """JSON-safe representation of the fitted model."""
        tree = self._grown()
        return {
            "model": type(self).__name__,
            "config": asdict(self.config),
            "input_names": self.input_names,
            "target_name": self.target_name,
            "vocabularies": {
                name: list(labels)
                for name, labels in self._vocabularies.items()
            },
            **self._extra_payload(),
            "n_leaves": tree.n_leaves,
            "n_nodes": tree.n_nodes,
            "depth": tree.depth,
            "tree": node_to_dict(tree.root),
        }

    @classmethod
    def from_dict(cls: type[_Tree], data: dict) -> _Tree:
        """Rebuild a fitted model from :meth:`to_dict` output and
        compile its plan.

        An artefact written while plans were still persisted carries a
        ``scoring_plan`` key; it is not read.
        """
        if data.get("model") != cls.__name__:
            raise ReproError(
                f"expected a {cls.__name__} dump, got {data.get('model')!r}"
            )
        model = cls(TreeConfig(**data["config"]))
        model._tree = GrownTree(
            root=node_from_dict(data["tree"]),
            n_leaves=data["n_leaves"],
            n_nodes=data["n_nodes"],
            depth=data["depth"],
        )
        model._input_names = list(data["input_names"])
        model._target_name = data["target_name"]
        model._vocabularies = {
            name: tuple(labels)
            for name, labels in data.get("vocabularies", {}).items()
        }
        model._restore_extra(data)
        model._fitted = True
        model.scoring_plan()
        return model
