"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` from
misuse of numpy, etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A table or column violates its declared schema."""


class ColumnTypeError(SchemaError):
    """An operation was applied to a column of the wrong measurement level."""


class MissingColumnError(SchemaError, KeyError):
    """A referenced column does not exist in the table."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = available
        msg = f"column {name!r} not found"
        if available:
            msg += f"; available columns: {', '.join(available)}"
        super().__init__(msg)

    def __str__(self) -> str:  # KeyError would repr() the args tuple
        return self.args[0]


class EmptyTableError(ReproError):
    """An operation that requires rows was applied to an empty table."""


class ArtefactError(ReproError):
    """A binary table artefact could not be read (bad magic, malformed
    header, out-of-bounds block offsets) — the file is not served
    partially; loading fails atomically."""


class ArtefactVersionError(ArtefactError):
    """The artefact was written by an incompatible format version."""


class ArtefactIntegrityError(ArtefactError):
    """The artefact is truncated or its checksums do not match."""


class ConfigurationError(ReproError, ValueError):
    """A parameter carries an invalid value (bad k, ratio, backend, ...).

    Also a :class:`ValueError` so call sites that predate the hierarchy
    (and external code following numpy convention) keep working.
    """


class RowIndexError(ReproError, IndexError):
    """A row index or slice is out of range for the table."""


class StageNotFoundError(ReproError, KeyError):
    """A timing record lookup named a stage that was never timed."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no stage named {name!r} was timed")

    def __str__(self) -> str:  # KeyError would repr() the args tuple
        return self.args[0]


class KernelBuildError(ReproError, RuntimeError):
    """The native scoring kernel could not be compiled or loaded."""


class AnalysisError(ReproError):
    """The static-analysis engine was misconfigured (bad rule id,
    unreadable baseline, missing path) — distinct from findings, which
    are results, not errors."""


class LockOrderViolation(AnalysisError):
    """The runtime lock-order sanitizer observed an acquisition that
    closes a cycle in the global lock-order graph — the dynamic
    counterpart of lint rule REP101."""


class ObservabilityError(ReproError):
    """A tracing/metrics artefact could not be read or rendered (bad
    span payload, malformed trace file, invalid Prometheus exposition)
    — never raised on the recording hot path, which must not fail
    requests."""


class ProfilerStateError(ObservabilityError, RuntimeError):
    """The sampling profiler was driven through an invalid lifecycle
    transition (e.g. started twice).

    Also a :class:`RuntimeError` so lifecycle-misuse call sites that
    predate the hierarchy keep catching it.
    """


class NotFittedError(ReproError):
    """``predict``/``transform`` was called before ``fit``."""

    def __init__(self, model_name: str = "model"):
        super().__init__(
            f"{model_name} is not fitted yet; call fit() before predicting"
        )


class FitError(ReproError):
    """Model fitting failed (degenerate data, no valid split, etc.)."""


class EvaluationError(ReproError):
    """A metric could not be computed from the given predictions."""


class CalibrationError(ReproError):
    """The synthetic data generator could not be calibrated to its targets."""


class ServingError(ReproError):
    """A model-serving request or registry operation could not be satisfied."""


class RoutingError(ReproError):
    """A route-risk query could not be answered (unknown town,
    disconnected pair, malformed path)."""


class TreeCompileError(ReproError):
    """A fitted tree could not be lowered to its compiled scoring plan
    (an unknown split feature, a level code outside the vocabulary, a
    branch layout the plan cannot represent; the message names the
    node), or rows do not match a plan's input layout.  The plan is
    the only way a tree scores, so a loaded artefact whose tree does
    not lower is refused at load."""


class ConvergenceWarning(UserWarning):
    """An iterative fit stopped at its iteration cap before converging."""
