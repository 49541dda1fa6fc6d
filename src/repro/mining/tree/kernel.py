"""Native scoring backend for compiled tree plans.

:mod:`repro.mining.tree.compile` lowers a fitted tree into flat arrays
(a :class:`~repro.mining.tree.compile.TreePlan`).  This module provides
the fastest way to *run* such a plan: a tiny, tree-independent C
interpreter over the plan arrays, built once per machine with the
system C compiler and loaded through :mod:`ctypes`.

The C source is generic — one function that walks any plan — so the
shared object is compiled a single time and cached under a
content-addressed file name; every process (including the study's
sweep pool workers) just ``dlopen``\\ s the cached artefact.  When no C
compiler is available, the build fails, or ``REPRO_NO_NATIVE_KERNEL``
is set, :func:`native_kernel` returns ``None`` and callers fall back
to the pure-numpy block evaluator, so the native path is strictly an
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

import numpy as np

from repro.exceptions import KernelBuildError

__all__ = ["NativeKernel", "native_kernel", "native_kernel_status"]

#: Environment switch: set to any non-empty value to force the
#: pure-numpy evaluator (useful for parity tests and debugging).
DISABLE_ENV = "REPRO_NO_NATIVE_KERNEL"

#: Override the directory holding the compiled shared object.
CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

_SOURCE = r"""
#include <stdint.h>

/* Generic interpreter over a flattened tree plan.

   kind: 0 = leaf, 1 = numeric split, 2 = nominal split.
   values / codes: one pointer per plan input column, each n_rows long.
   Nominal codes arrive pre-shifted (+1) so they index the node's LUT
   slice directly: slot 0 = missing, 1..n = vocabulary, n+1 = unseen.

   NaN routing falls out of IEEE-754: a NaN value fails both the
   "<= threshold" and "> threshold" tests and lands on nan_child.  */
void repro_score_block(
    const double *const *values, const int64_t *const *codes,
    int64_t n_rows,
    const int8_t *kind, const int32_t *feature, const double *threshold,
    const int32_t *le_child, const int32_t *gt_child,
    const int32_t *nan_child,
    const int32_t *lut_offset, const int32_t *lut,
    const double *prediction, const int64_t *node_id,
    double *out_pred, int64_t *out_leaf)
{
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
        out_pred[i] = prediction[node];
        out_leaf[i] = node_id[node];
    }
}
"""

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_INT64_P = ctypes.POINTER(ctypes.c_int64)
_INT32_P = ctypes.POINTER(ctypes.c_int32)
_INT8_P = ctypes.POINTER(ctypes.c_int8)


class NativeKernel:
    """ctypes wrapper around the compiled ``repro_score_block``."""

    def __init__(self, library: ctypes.CDLL, path: str):
        self.path = path
        self._fn = library.repro_score_block
        self._fn.restype = None

    def score_block(
        self,
        *,
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
        numeric_cols: list[np.ndarray],
        code_cols: list[np.ndarray],
        n_rows: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        out_pred = np.empty(n_rows, dtype=np.float64)
        out_leaf = np.empty(n_rows, dtype=np.int64)
        value_ptrs = (_DOUBLE_P * max(1, len(numeric_cols)))(
            *(c.ctypes.data_as(_DOUBLE_P) for c in numeric_cols)
        )
        code_ptrs = (_INT64_P * max(1, len(code_cols)))(
            *(c.ctypes.data_as(_INT64_P) for c in code_cols)
        )
        self._fn(
            value_ptrs,
            code_ptrs,
            ctypes.c_int64(n_rows),
            kind.ctypes.data_as(_INT8_P),
            feature.ctypes.data_as(_INT32_P),
            threshold.ctypes.data_as(_DOUBLE_P),
            le_child.ctypes.data_as(_INT32_P),
            gt_child.ctypes.data_as(_INT32_P),
            nan_child.ctypes.data_as(_INT32_P),
            lut_offset.ctypes.data_as(_INT32_P),
            lut.ctypes.data_as(_INT32_P),
            prediction.ctypes.data_as(_DOUBLE_P),
            node_id.ctypes.data_as(_INT64_P),
            out_pred.ctypes.data_as(_DOUBLE_P),
            out_leaf.ctypes.data_as(_INT64_P),
        )
        return out_pred, out_leaf


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

    The first call attempts the (cached) build; failures are remembered
    so a broken toolchain costs one attempt, not one per evaluation.
    """
    global _kernel, _status, _attempted
    if os.environ.get(DISABLE_ENV):
        return None
    with _lock:  # repro: ignore[REP102] -- build-once guard: the lock must cover the compiler run so concurrent first callers cannot race the .so build; it blocks exactly once per process, then every call is a cached read
        if not _attempted:
            _attempted = True
            try:
                _kernel = _build_and_load()
                _status = f"native ({_kernel.path})"
            except Exception as exc:  # no compiler, sandboxed tmp, ...
                _kernel = None
                _status = f"unavailable: {exc}"
        return _kernel


def native_kernel_status() -> str:
    """Human-readable backend status (for benchmarks and stats)."""
    if os.environ.get(DISABLE_ENV):
        return f"disabled via {DISABLE_ENV}"
    native_kernel()
    return _status
