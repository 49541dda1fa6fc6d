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
for unmatched rows.  Trees whose branch layout is not the canonical
grower output (e.g. hand-edited artefacts with mismatched ``le``/``gt``
thresholds) refuse to compile with :class:`TreeCompileError`; callers
fall back to the interpreted path, so compilation is never a
behavioural change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import TreeCompileError
from repro.mining.features import FeatureSet
from repro.mining.tree import kernel as _kernel
from repro.mining.tree.structure import TreeNode, route_rows
from repro.obs.trace import span as obs_span

__all__ = [
    "PLAN_FORMAT_VERSION",
    "PlanInput",
    "PlanRows",
    "TreePlan",
    "compile_tree",
    "plan_inputs",
    "CompiledScoringMixin",
]

PLAN_FORMAT_VERSION = 1

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
        max_depth: int,
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
        self.max_depth = max_depth
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
        carry every plan input with the expected measurement level —
        the caller's cue to fall back to the interpreted router.
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

    # -- persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation (persisted in scorer artefacts)."""
        return {
            "plan_format_version": PLAN_FORMAT_VERSION,
            "inputs": [
                {
                    "name": i.name,
                    "is_numeric": i.is_numeric,
                    "n_levels": i.n_levels,
                }
                for i in self.inputs
            ],
            "kind": self.kind.tolist(),
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "le_child": self.le_child.tolist(),
            "gt_child": self.gt_child.tolist(),
            "nan_child": self.nan_child.tolist(),
            "lut_offset": self.lut_offset.tolist(),
            "lut": self.lut.tolist(),
            "prediction": self.prediction.tolist(),
            "node_id": self.node_id.tolist(),
            "max_depth": self.max_depth,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TreePlan":
        """Rebuild a plan from :meth:`to_dict` output.

        Raises :class:`TreeCompileError` for stale format versions or
        structurally inconsistent payloads; callers recompile from the
        tree instead.
        """
        version = data.get("plan_format_version")
        if version != PLAN_FORMAT_VERSION:
            raise TreeCompileError(
                f"unsupported plan format version {version!r} "
                f"(expected {PLAN_FORMAT_VERSION})"
            )
        try:
            inputs = tuple(
                PlanInput(
                    name=i["name"],
                    is_numeric=bool(i["is_numeric"]),
                    n_levels=int(i["n_levels"]),
                )
                for i in data["inputs"]
            )
            arrays = {
                name: np.asarray(data[name], dtype=np.int64)
                for name in (
                    "kind", "feature", "le_child", "gt_child",
                    "nan_child", "lut_offset", "lut", "node_id",
                )
            }
            arrays["threshold"] = np.asarray(
                data["threshold"], dtype=np.float64
            )
            arrays["prediction"] = np.asarray(
                data["prediction"], dtype=np.float64
            )
            max_depth = int(data["max_depth"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TreeCompileError(
                f"malformed scoring plan payload: {exc}"
            ) from exc
        n = arrays["kind"].shape[0] if arrays["kind"].ndim == 1 else 0
        per_node = (
            "feature", "threshold", "le_child", "gt_child",
            "nan_child", "lut_offset", "prediction", "node_id",
        )
        if n == 0 or any(arrays[name].shape != (n,) for name in per_node):
            raise TreeCompileError(
                "malformed scoring plan payload: per-node arrays disagree"
            )
        # Validate on the raw int64 parse, before __init__ narrows to
        # int32 (a narrowing cast would wrap silently).  The native
        # kernel trusts these arrays completely — an out-of-range index
        # there is a memory error, not an exception — so every way a
        # payload could aim a read outside its buffers is rejected here.
        children = np.concatenate(
            [arrays[k] for k in ("le_child", "gt_child", "nan_child", "lut")]
        )
        if children.size and (children.min() < 0 or children.max() >= n):
            raise TreeCompileError(
                "malformed scoring plan payload: child index out of range"
            )
        kind, feature = arrays["kind"], arrays["feature"]
        if not np.isin(kind, (_LEAF, _NUMERIC, _NOMINAL)).all():
            raise TreeCompileError(
                "malformed scoring plan payload: unknown node kind"
            )
        n_numeric = sum(1 for spec in inputs if spec.is_numeric)
        nominal_specs = [spec for spec in inputs if not spec.is_numeric]
        numeric_nodes = kind == _NUMERIC
        nominal_nodes = kind == _NOMINAL
        if numeric_nodes.any():
            used = feature[numeric_nodes]
            if used.min() < 0 or used.max() >= n_numeric:
                raise TreeCompileError(
                    "malformed scoring plan payload: numeric feature "
                    "index out of range"
                )
        for node in np.flatnonzero(nominal_nodes):
            col = feature[node]
            if not 0 <= col < len(nominal_specs):
                raise TreeCompileError(
                    "malformed scoring plan payload: nominal feature "
                    "index out of range"
                )
            slice_end = arrays["lut_offset"][node] + (
                nominal_specs[col].n_levels + 2
            )
            if arrays["lut_offset"][node] < 0 or (
                slice_end > arrays["lut"].shape[0]
            ):
                raise TreeCompileError(
                    "malformed scoring plan payload: LUT slice out of "
                    "range"
                )
        return cls(inputs=inputs, max_depth=max_depth, **arrays)


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
    vocabulary size).  Raises :class:`TreeCompileError` when the tree
    references unknown features or carries a branch layout the lowering
    cannot represent faithfully.
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
    order: list[tuple[TreeNode, int]] = []  # (node, depth)
    index_of: dict[int, int] = {}
    stack: list[tuple[TreeNode, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        index_of[id(node)] = len(order)
        order.append((node, depth))
        for branch in reversed(node.branches):
            stack.append((branch.child, depth + 1))

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
    max_depth = 0

    for i, (node, depth) in enumerate(order):
        max_depth = max(max_depth, depth)
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
        assert node.split is not None
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
        max_depth=max_depth,
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


class CompiledScoringMixin:
    """Lazy plan compilation + interpreted fallback for tree models.

    Mixed into :class:`~repro.mining.tree.decision_tree.DecisionTreeClassifier`
    and :class:`~repro.mining.tree.regression_tree.RegressionTree`.  The
    plan compiles once per fitted tree on first prediction (or arrives
    pre-compiled from a persisted artefact via :meth:`attach_plan`) and
    is reused by every subsequent scan — the study's validation passes,
    the serving engine, and bulk re-scores all share it.  Any
    :class:`TreeCompileError` (non-canonical tree, mismatched
    evaluation features) drops that call back to ``route_rows``, so the
    fast path can never change behaviour.
    """

    _plan: TreePlan | None = None
    _plan_failed: bool = False

    def _reset_plan(self) -> None:
        self._plan = None
        self._plan_failed = False

    def scoring_plan(self) -> TreePlan | None:
        """The compiled plan, or ``None`` when the tree won't lower."""
        if self._plan is None and not self._plan_failed:
            try:
                with obs_span("plan.compile") as compile_span:
                    self._plan = compile_tree(
                        self.root,
                        plan_inputs(self.input_names, self.vocabularies),
                    )
                    if compile_span is not None:
                        compile_span.attrs["nodes"] = self._plan.n_nodes
            except TreeCompileError:
                self._plan_failed = True
        return self._plan

    def attach_plan(self, plan: TreePlan) -> None:
        """Adopt a pre-compiled plan (from a persisted artefact).

        The plan must describe this model's inputs and node count;
        anything else raises :class:`TreeCompileError` and the caller
        should recompile from the tree instead.
        """
        expected = plan_inputs(self.input_names, self.vocabularies)
        if plan.inputs != expected:
            raise TreeCompileError(
                "persisted scoring plan does not match the model inputs"
            )
        if plan.n_nodes != self.n_nodes:
            raise TreeCompileError(
                f"persisted scoring plan has {plan.n_nodes} nodes, "
                f"the tree has {self.n_nodes}"
            )
        self._plan = plan
        self._plan_failed = False

    def _route(self, features: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
        """(predictions, leaf_ids) via the plan, or interpreted fallback."""
        plan = self.scoring_plan()
        if plan is not None:
            try:
                return plan.evaluate(features)
            except TreeCompileError:
                pass  # features don't fit the plan; interpret instead
        return route_rows(self.root, features)

    # -- persistence helpers ----------------------------------------------
    def _plan_payload(self) -> dict | None:
        """JSON-safe compiled plan for model artefacts (None when the
        tree won't lower)."""
        plan = self.scoring_plan()
        return None if plan is None else plan.to_dict()

    def _adopt_plan_payload(self, data: dict) -> None:
        """Attach a persisted ``scoring_plan`` payload, if compatible.

        Stale, malformed or mismatched payloads are dropped silently —
        the plan recompiles lazily from the tree, so a hand-edited or
        older artefact costs a recompile, never a failure."""
        payload = data.get("scoring_plan")
        if payload is None:
            return
        try:
            self.attach_plan(TreePlan.from_dict(payload))
        except TreeCompileError:
            self._reset_plan()
