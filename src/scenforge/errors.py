"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ScenForgeError(Exception):
    """Base class for all package-specific errors."""


# --- report ingestion ---------------------------------------------------


class MalformedReport(ScenForgeError):
    """Report file is missing required content or is structurally invalid."""


# --- scene sampling -----------------------------------------------------


class MalformedMap(ScenForgeError):
    """Map file violates a structural constraint; message names the first one."""


class SceneError(ScenForgeError):
    """Base class for scene-instantiation failures."""


class UnplaceableObject(SceneError):
    """A positional specifier references geometry the map does not provide."""


class RejectionBudgetExhausted(SceneError):
    """Every sampling round violated a require statement."""


class SceneEvaluationError(SceneError):
    """A scene expression could not be evaluated (bad types, bad arity, ...)."""


# --- LLM gateway --------------------------------------------------------


class GatewayError(ScenForgeError):
    """Base class for backend access failures."""


class BackendUnavailable(GatewayError):
    """Remote backend failed after the configured retries."""


class PlaybackMiss(GatewayError):
    """Scripted playback backend has no entry for the request."""


class ConstraintUnsatisfiable(GatewayError):
    """No conforming output line after the regeneration budget."""


# --- retrieval ----------------------------------------------------------


class RetrievalError(ScenForgeError):
    """Base class for vector-store failures."""


class EmptyText(RetrievalError):
    """Embedding was asked for text with no tokens."""


class EmptyStore(RetrievalError):
    """Query issued against a store with no entries."""


class DimensionMismatch(RetrievalError):
    """Embedder dimension differs from the store dimension."""


# --- pipeline -----------------------------------------------------------


class PipelineError(ScenForgeError):
    """Base class for pipeline stage failures."""


class MarkerMissing(PipelineError):
    """Object stage never produced a FINAL ANSWER block, even after reprompt."""


class RepairExhausted(PipelineError):
    """Repair loop ran out of budget; carries the last diagnostics."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


# --- evaluation ---------------------------------------------------------


class OutOfRange(ScenForgeError):
    """A rubric score fell outside the 1..5 range."""


class EmptyInput(ScenForgeError):
    """An aggregate was asked for zero results."""


class MalformedResult(ScenForgeError):
    """A persisted run's trace or validity file is not what a run writes."""


class UnmatchedScore(ScenForgeError):
    """A human score references a report id with no run result."""
