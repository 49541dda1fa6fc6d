"""Native scoring backend for compiled tree plans.

:mod:`repro.mining.tree.compile` lowers a fitted tree into flat arrays
(a :class:`~repro.mining.tree.compile.TreePlan`).  This module provides
the fastest way to *run* such a plan: a tiny, tree-independent C
interpreter over the plan arrays, built once per machine with the
system C compiler and loaded through :mod:`ctypes`.

The C source is generic — one function that walks any plan — so the
shared object is compiled a single time and cached under a
content-addressed file name; every process (including the study's
sweep pool workers) just ``dlopen``\\ s the cached artefact.  A
plan's ten arrays are bound into the kernel once
(:meth:`NativeKernel.bind`), so a call marshals only the rows, the row
count and the outputs.  A 2-D row block reaches the C side as two base
addresses; only a list of separate columns needs a pointer table built
in Python.  When no C compiler is available, the build fails, or
``REPRO_NO_NATIVE_KERNEL`` is set when the kernel is first asked for,
:func:`native_kernel` returns ``None`` and callers fall back to the
pure-numpy block evaluator, so the native path is strictly an
accelerator and never a behavioural dependency.

Semantics match the numpy evaluator bit for bit: IEEE-754 double
comparisons (``v <= t`` and ``v > t`` are both false for NaN, which
routes missing values to the plan's ``nan_child``), and nominal codes
index the same pre-baked lookup table.  No ``-ffast-math``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Sequence

import numpy as np

from repro.exceptions import KernelBuildError, TreeCompileError

__all__ = [
    "BoundPlan",
    "NativeKernel",
    "native_kernel",
    "native_kernel_status",
]

#: Environment switch: set to any non-empty value to force the
#: pure-numpy evaluator (useful for parity tests and debugging).  It is
#: read once, when the kernel is first asked for.
DISABLE_ENV = "REPRO_NO_NATIVE_KERNEL"

#: Override the directory holding the compiled shared object.
CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

_SOURCE = r"""
#include <stdint.h>

/* Generic interpreter over a flattened tree plan.

   kind: 0 = leaf, 1 = numeric split, 2 = nominal split.
   The plan's ten arrays are bound once into a repro_plan; a call
   passes only the rows.  repro_score_block takes values / codes as
   one pointer per plan input column, each n_rows long;
   repro_score_rows takes them as C-contiguous [n_inputs, n_rows]
   blocks and builds those pointer tables itself.  Nominal codes
   arrive pre-shifted (+1) so they index the node's LUT slice
   directly: slot 0 = missing, 1..n = vocabulary, n+1 = unseen.

   NaN routing falls out of IEEE-754: a NaN value fails both the
   "<= threshold" and "> threshold" tests and lands on nan_child.  */
typedef struct {
    const int8_t *kind;
    const int32_t *feature;
    const double *threshold;
    const int32_t *le_child;
    const int32_t *gt_child;
    const int32_t *nan_child;
    const int32_t *lut_offset;
    const int32_t *lut;
    const double *prediction;
    const int64_t *node_id;
} repro_plan;

void repro_score_block(
    const repro_plan *plan,
    const double *const *values, const int64_t *const *codes,
    int64_t n_rows, double *out_pred, int64_t *out_leaf)
{
    const int8_t *kind = plan->kind;
    const int32_t *feature = plan->feature;
    const double *threshold = plan->threshold;
    const int32_t *le_child = plan->le_child;
    const int32_t *gt_child = plan->gt_child;
    const int32_t *nan_child = plan->nan_child;
    const int32_t *lut_offset = plan->lut_offset;
    const int32_t *lut = plan->lut;
    for (int64_t i = 0; i < n_rows; i++) {
        int32_t node = 0;
        for (;;) {
            int8_t k = kind[node];
            if (k == 0)
                break;
            if (k == 1) {
                double v = values[feature[node]][i];
                if (v <= threshold[node])
                    node = le_child[node];
                else if (v > threshold[node])
                    node = gt_child[node];
                else
                    node = nan_child[node];
            } else {
                node = lut[lut_offset[node] + codes[feature[node]][i]];
            }
        }
        out_pred[i] = plan->prediction[node];
        out_leaf[i] = plan->node_id[node];
    }
}

void repro_score_rows(
    const repro_plan *plan,
    const double *values, int64_t n_values,
    const int64_t *codes, int64_t n_codes,
    int64_t n_rows, double *out_pred, int64_t *out_leaf)
{
    const double *value_cols[n_values > 0 ? n_values : 1];
    const int64_t *code_cols[n_codes > 0 ? n_codes : 1];
    for (int64_t f = 0; f < n_values; f++)
        value_cols[f] = values + f * n_rows;
    for (int64_t f = 0; f < n_codes; f++)
        code_cols[f] = codes + f * n_rows;
    repro_score_block(plan, value_cols, code_cols, n_rows, out_pred, out_leaf);
}
"""

#: The plan arrays in ``repro_plan`` field order, with the dtype the C
#: side reads each one as.
PLAN_ARRAYS = (
    ("kind", np.int8),
    ("feature", np.int32),
    ("threshold", np.float64),
    ("le_child", np.int32),
    ("gt_child", np.int32),
    ("nan_child", np.int32),
    ("lut_offset", np.int32),
    ("lut", np.int32),
    ("prediction", np.float64),
    ("node_id", np.int64),
)


class _Plan(ctypes.Structure):
    _fields_ = [(name, ctypes.c_void_p) for name, _dtype in PLAN_ARRAYS]


class BoundPlan:
    """One plan's arrays bound into the kernel.

    The ten plan pointers are marshalled once, into a ``repro_plan``
    struct; a call passes the struct's address, the rows, the row
    count and the outputs.  The bound arrays are held here, so their
    buffers outlive every call.  The struct holds this process's
    addresses: a pickled :class:`~repro.mining.tree.compile.TreePlan`
    leaves its binding behind and binds again where it is used.
    """

    __slots__ = ("_kernel", "_arrays", "_plan", "_address")

    def __init__(self, kernel: "NativeKernel", plan) -> None:
        arrays = []
        for name, dtype in PLAN_ARRAYS:
            array = getattr(plan, name)
            if array.dtype != dtype or not array.flags.c_contiguous:
                raise TreeCompileError(
                    f"plan array {name!r} must be C-contiguous {np.dtype(dtype)}"
                )
            arrays.append(array)
        self._kernel = kernel
        self._arrays = tuple(arrays)
        self._plan = _Plan(*(array.ctypes.data for array in arrays))
        self._address = ctypes.addressof(self._plan)

    def __call__(
        self,
        values: Sequence[np.ndarray],
        codes: Sequence[np.ndarray],
        n_rows: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route ``n_rows`` rows.  ``values`` holds one C-contiguous
        float64 column per numeric input and ``codes`` one int64 column
        of LUT-shifted codes per nominal input, each ``n_rows`` long:
        lists of arrays, or C-contiguous 2-D blocks with one input per
        row (both in the same form).  The caller checks them; the C
        side trusts them."""
        out_pred = np.empty(n_rows, dtype=np.float64)
        out_leaf = np.empty(n_rows, dtype=np.int64)
        if isinstance(values, np.ndarray):
            self._kernel.score_rows(
                self._address,
                values.ctypes.data,
                values.shape[0],
                codes.ctypes.data,
                codes.shape[0],
                n_rows,
                out_pred.ctypes.data,
                out_leaf.ctypes.data,
            )
        else:
            self._kernel.score_block(
                self._address,
                _column_pointers(values),
                _column_pointers(codes),
                n_rows,
                out_pred.ctypes.data,
                out_leaf.ctypes.data,
            )
        return out_pred, out_leaf


def _column_pointers(columns: Sequence[np.ndarray]) -> ctypes.Array:
    """The address of each column: the C side's pointer table."""
    addresses = [column.ctypes.data for column in columns]
    return (ctypes.c_void_p * len(addresses))(*addresses)


class NativeKernel:
    """ctypes wrapper around the compiled ``repro_score_block`` (columns
    as pointer tables) and ``repro_score_rows`` (columns as 2-D
    blocks)."""

    def __init__(self, library: ctypes.CDLL, path: str):
        self.path = path
        pointer, count = ctypes.c_void_p, ctypes.c_int64
        self.score_block = library.repro_score_block
        self.score_block.argtypes = [
            pointer, pointer, pointer, count, pointer, pointer
        ]
        self.score_block.restype = None
        self.score_rows = library.repro_score_rows
        self.score_rows.argtypes = [
            pointer, pointer, count, pointer, count, count, pointer, pointer
        ]
        self.score_rows.restype = None

    def bind(self, plan) -> BoundPlan:
        """Bind ``plan``'s arrays (the attributes named in
        :data:`PLAN_ARRAYS`) for repeated calls."""
        return BoundPlan(self, plan)


_lock = threading.Lock()
_kernel: NativeKernel | None = None
_status = "not loaded"
_attempted = False


def _cache_dir() -> str:
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return configured
    return os.path.join(
        tempfile.gettempdir(), f"repro-tree-kernel-{os.getuid()}"
    )


def _build_and_load() -> NativeKernel:
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_tree_kernel_{digest}.so")
    if not os.path.exists(so_path):
        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is None:
            raise KernelBuildError("no C compiler on PATH")
        os.makedirs(cache, mode=0o700, exist_ok=True)
        src_path = os.path.join(cache, f"repro_tree_kernel_{digest}.c")
        with open(src_path, "w") as handle:
            handle.write(_SOURCE)
        # Build to a unique name, then publish atomically so concurrent
        # pool workers never dlopen a half-written object.
        build_path = f"{so_path}.build-{os.getpid()}"
        result = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", build_path, src_path],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if result.returncode != 0:
            raise KernelBuildError(
                f"kernel build failed: {result.stderr.strip()[:500]}"
            )
        os.replace(build_path, so_path)
    return NativeKernel(ctypes.CDLL(so_path), so_path)  # repro: ignore[REP005] -- the dlopen handle is a process-lifetime cache shared by every plan; it is never closed by design


def native_kernel() -> NativeKernel | None:
    """The process-wide native kernel, or ``None`` when unavailable.

    The first call reads :data:`DISABLE_ENV` and attempts the (cached)
    build; the outcome is remembered, so a broken toolchain costs one
    attempt, not one per evaluation, and every later call returns it
    without taking the lock.
    """
    global _kernel, _status, _attempted
    if _attempted:
        return _kernel
    with _lock:  # repro: ignore[REP102] -- build-once guard: the lock must cover the compiler run so concurrent first callers cannot race the .so build; it blocks exactly once per process, then every call is a cached read
        if not _attempted:
            if os.environ.get(DISABLE_ENV):
                _status = f"disabled via {DISABLE_ENV}"
            else:
                try:
                    _kernel = _build_and_load()
                    _status = f"native ({_kernel.path})"
                except Exception as exc:  # no compiler, sandboxed tmp, ...
                    _status = f"unavailable: {exc}"
            # Published last: a reader that sees it set without the
            # lock also sees the outcome.
            _attempted = True
        return _kernel


def native_kernel_status() -> str:
    """Human-readable backend status (for benchmarks and stats)."""
    native_kernel()
    return _status
