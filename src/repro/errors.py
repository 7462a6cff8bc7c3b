"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "CheckpointError",
    "CircuitOpenError",
    "ConfigError",
    "DatasetError",
    "DeadlineExceededError",
    "DeploymentError",
    "ExperimentError",
    "ExplainerError",
    "FaultInjectedError",
    "GenerationError",
    "ModelError",
    "PoolError",
    "RegistryError",
    "ReproError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServingError",
    "TrainingError",
    "TransientError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class DatasetError(ReproError):
    """A dataset could not be generated, loaded, or split as requested."""


class ModelError(ReproError):
    """A model was used in an unsupported way (e.g. before training)."""


class GenerationError(ModelError):
    """Text/description generation failed or produced an unparsable output."""


class TrainingError(ReproError):
    """A training stage could not run (bad stage ordering, empty data, ...)."""


class ExplainerError(ReproError):
    """An explainer received inputs it cannot attribute."""


class ExperimentError(ReproError):
    """An experiment runner was invoked with an unknown id or bad options."""


class ServingError(ReproError):
    """The serving layer was used in an unsupported way."""


class ServiceClosedError(ServingError):
    """A request was submitted to a service that has shut down."""


class ServiceOverloadedError(ServingError):
    """Backpressure: the request queue is at ``max_queue_depth``."""


class TransientError(ReproError):
    """A failure that is safe to retry: the operation itself is sound,
    the attempt hit a passing condition (injected fault, transient
    resource hiccup).  The reliability layer's retry/circuit-breaker
    machinery classifies errors as retryable iff they derive from this
    class; everything else in the taxonomy is treated as fatal."""


class FaultInjectedError(TransientError):
    """Raised by an armed :class:`~repro.reliability.faults.FaultPlan`
    at a named fault site.  Retryable by design: injected faults model
    transient infrastructure failures."""


class DeadlineExceededError(ServingError):
    """The request's deadline expired while it was still queued; it was
    shed before any executor work was spent on it."""


class CircuitOpenError(ServingError):
    """The serving circuit breaker is open and the request could not be
    served from cache (degraded mode off or cache miss)."""


class CheckpointError(ReproError):
    """A training checkpoint is missing, corrupt, or belongs to a
    different (config, dataset) fingerprint than the resuming run."""


class PoolError(ServingError):
    """The replica pool was used in an unsupported way or lost a
    replica (bad replica count, no ``os.fork`` on this platform, a dead
    replica child)."""


class RegistryError(ModelError):
    """A model-registry artifact is missing, corrupt, or fails its
    recorded integrity digest."""


class DeploymentError(PoolError):
    """A versioned deploy could not complete -- the canary's circuit
    breaker tripped (the canaries were rolled back), or the requested
    version is not loadable on every replica."""
