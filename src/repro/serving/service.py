"""The online stress-detection service.

:class:`StressService` is the deployment front of the library: it
accepts concurrent ``predict`` requests, coalesces them through the
dynamic micro-batcher into the :class:`ChainBatchExecutor`, and
returns full :class:`~repro.cot.chain.ChainResult` objects -- label,
probability, *and* the rationale chain, because a served prediction
without its reasoning would break the paper's interpretability
contract.

Usage::

    service = StressService(StressChainPipeline(model))
    try:
        result = service.predict(video)                  # blocking
        future = service.submit(other_video,
                                deadline_ms=50.0)        # async + deadline
        print(service.stats())
    finally:
        service.close()                                  # graceful drain

Guarantees:

- responses are bitwise-identical to serial ``pipeline.predict`` (the
  serving equivalence suite enforces this per request);
- the queue is bounded -- submits past ``max_queue_depth`` raise
  :class:`~repro.errors.ServiceOverloadedError` instead of growing
  latency without bound;
- a request whose ``deadline_ms`` expires while queued is shed with
  :class:`~repro.errors.DeadlineExceededError` *before* any model
  work is spent on it;
- transient executor failures (:class:`~repro.errors.TransientError`)
  are retried per-request with seeded exponential backoff; sustained
  failure trips a circuit breaker that fails fast (or serves
  cache-only hits flagged ``degraded=True``) instead of hammering a
  broken executor;
- ``close()`` drains in-flight work before returning and reports
  whether the drain actually completed;
- all model access runs on the single batcher worker thread, which
  serializes the foundation model's forward-pass state (DESIGN.md
  sections 10 and 12).

:class:`SerialDispatcher` is the no-batching baseline -- a global
lock around ``pipeline.predict`` -- used by the throughput benchmark
and the equivalence tests as the reference dispatch strategy.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import CircuitOpenError, ConfigError
from repro.observability.metrics import global_metrics
from repro.reliability.breaker import CLOSED, BreakerConfig, CircuitBreaker
from repro.reliability.deadlines import Deadline
from repro.reliability.retry import RetryPolicy, is_retryable
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import StageCaches
from repro.serving.executor import ChainBatchExecutor
from repro.serving.stats import ServiceStats, ServiceStatsSnapshot
from repro.video.frame import Video


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Knobs of one :class:`StressService`.

    ``max_batch_size`` / ``max_wait_ms`` shape the micro-batches
    (flush on whichever bound is hit first); ``max_queue_depth`` is
    the backpressure limit; the ``*_cache_capacity`` fields size the
    per-stage LRU caches (0 disables a cache).

    The reliability knobs: ``default_deadline_ms`` attaches a deadline
    to every submit that does not bring its own; ``retry_policy``
    retries transient per-request executor failures with seeded
    backoff; ``breaker`` trips on sustained failure.  These three
    default to off.  ``degraded_mode`` (on by default, but it acts only
    while a configured breaker is open) lets an open breaker serve
    cache-only hits (flagged ``degraded=True``) instead of failing
    everything fast.
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    max_queue_depth: int = 256
    describe_cache_capacity: int = 2048
    assess_cache_capacity: int = 4096
    highlight_cache_capacity: int = 4096
    default_deadline_ms: float | None = None
    retry_policy: RetryPolicy | None = None
    breaker: BreakerConfig | None = None
    degraded_mode: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ConfigError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        for field_name in ("describe_cache_capacity",
                           "assess_cache_capacity",
                           "highlight_cache_capacity"):
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{field_name} must be >= 0")
        if (self.default_deadline_ms is not None
                and self.default_deadline_ms <= 0):
            raise ConfigError(
                "default_deadline_ms must be positive, "
                f"got {self.default_deadline_ms}")


class StressService:
    """Concurrent serving front-end over one chain pipeline."""

    def __init__(self, pipeline, config: ServiceConfig | None = None, *,
                 _executor=None):
        self.config = config or ServiceConfig()
        self.caches = StageCaches(
            describe_capacity=self.config.describe_cache_capacity,
            assess_capacity=self.config.assess_cache_capacity,
            highlight_capacity=self.config.highlight_cache_capacity,
        )
        # ``_executor``: the replica pool's forked executor.
        self.executor = (_executor if _executor is not None
                         else ChainBatchExecutor(pipeline, self.caches))
        # Held by the worker for the span of each batch's execution;
        # swap_pipeline() acquires it to wait out the in-flight batch.
        self._swap_lock = threading.Lock()
        self._stats = ServiceStats()
        self._breaker = (CircuitBreaker(self.config.breaker)
                         if self.config.breaker is not None else None)
        self._batcher = MicroBatcher(
            self._process_batch,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            max_queue_depth=self.config.max_queue_depth,
            stats=self._stats,
            name="stress-service",
        )

    @property
    def pipeline(self):
        return self.executor.pipeline

    @property
    def breaker(self) -> CircuitBreaker | None:
        return self._breaker

    # ------------------------------------------------------------------

    def submit(self, video: Video, deadline_ms: float | None = None):
        """Enqueue one request; returns a ``Future[ChainResult]``.

        ``deadline_ms`` bounds how long the caller will wait: a request
        still queued when its deadline expires is shed with
        :class:`~repro.errors.DeadlineExceededError` before execution
        (falls back to ``config.default_deadline_ms`` when ``None``).

        Raises
        ------
        ServiceOverloadedError
            If the queue already holds ``max_queue_depth`` requests.
        ServiceClosedError
            If the service has been closed.
        """
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = (Deadline.after_ms(deadline_ms)
                    if deadline_ms is not None else None)
        return self._batcher.submit(video, deadline=deadline)

    def predict(self, video: Video, timeout: float | None = None,
                deadline_ms: float | None = None):
        """Blocking predict: submit and wait for the result."""
        return self.submit(video, deadline_ms=deadline_ms).result(timeout)

    def stats(self) -> ServiceStatsSnapshot:
        """Current service counters (see :class:`ServiceStatsSnapshot`)."""
        breaker_state = (self._breaker.state
                         if self._breaker is not None else CLOSED)
        return self._stats.snapshot(self.caches.stats(),
                                    breaker_state=breaker_state)

    def queue_depth(self) -> int:
        return self._batcher.queue_depth()

    def swap_pipeline(self, pipeline) -> None:
        """Hot-swap the served pipeline without dropping requests.

        Blocks until the in-flight batch (if any) finishes, then
        points the executor at ``pipeline`` and clears the stage
        caches (cached stage outputs are only valid for the weights
        that produced them).  Queued requests are untouched -- they
        simply execute against the new pipeline once the swap
        completes -- so a deploy fails zero in-flight requests.
        """
        with self._swap_lock:
            self.executor.replace_pipeline(pipeline)
            self.caches.clear()

    @property
    def closed(self) -> bool:
        return self._batcher.closed

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Shut down; with ``drain=True`` (default) queued requests
        finish first, with ``drain=False`` they fail fast.

        Returns ``True`` when the worker fully drained and exited
        within ``timeout``; ``False`` means it is still running and
        pending futures may remain unresolved (see
        :meth:`MicroBatcher.close`).
        """
        return self._batcher.close(drain=drain, timeout=timeout)

    def __enter__(self) -> "StressService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _process_batch(self, videos: list[Video]) -> list[object]:
        with self._swap_lock:
            if self._breaker is not None and not self._breaker.allow():
                outcomes: list[object] = self._degraded_outcomes(videos)
                unique = len(videos)
            else:
                outcomes, unique = self._execute(videos)
                if self._breaker is not None:
                    for outcome in outcomes:
                        self._breaker.record(
                            not isinstance(outcome, BaseException))
        self._stats.record_batch(size=len(videos), unique=unique)
        # Live backlog signal, refreshed once per batch (not per
        # request -- the gauge is a sampling surface, not a counter).
        global_metrics().gauge("serving.queue_depth").set(
            self._batcher.queue_depth())
        return outcomes

    def _execute(self, videos: list[Video]) -> tuple[list[object], int]:
        """One batch through the executor, retrying transient
        per-request failures under the configured policy."""
        outcomes, unique = self.executor.run_batch(videos)
        policy = self.config.retry_policy
        if policy is None:
            return outcomes, unique
        delays = policy.delays_s(scope=f"batch:{self._stats.batches}")
        for attempt, delay_s in enumerate(delays, start=1):
            retry_idx = [i for i, outcome in enumerate(outcomes)
                         if isinstance(outcome, BaseException)
                         and is_retryable(outcome)]
            if not retry_idx:
                break
            self._stats.record_retries(len(retry_idx))
            # The worker thread sleeps the backoff; the whole queue
            # waits with it, which is the point -- a transient fault
            # needs breathing room, not a hot retry loop.
            if delay_s > 0:
                time.sleep(delay_s)
            retried, __ = self.executor.run_batch(
                [videos[i] for i in retry_idx])
            for i, outcome in zip(retry_idx, retried):
                outcomes[i] = outcome
        return outcomes, unique

    def _degraded_outcomes(self, videos: list[Video]) -> list[object]:
        """Breaker-open answers: with degraded mode on, the executor
        answers fully cached requests from its caches (flagged
        ``degraded``); every other request gets
        :class:`CircuitOpenError`, and an executor failure (a dead
        replica child's :class:`~repro.errors.PoolError`) passes through."""
        outcomes = (self.executor.run_cached(videos)
                    if self.config.degraded_mode else [None] * len(videos))
        for i, outcome in enumerate(outcomes):
            if outcome is None:
                outcomes[i] = CircuitOpenError(
                    "circuit breaker is open and the request is not fully "
                    "cached; retry after the breaker's open window")
            elif not isinstance(outcome, BaseException):
                self._stats.record_degraded()
        return outcomes


class SerialDispatcher:
    """The pre-serving baseline: concurrent callers are serialized
    through one global lock around ``pipeline.predict``.

    This is the correct (and only safe) way to share a pipeline across
    threads *without* the service -- the foundation model's layers
    cache forward activations, so unserialized concurrent calls would
    race on that state.  The throughput benchmark measures the service
    against this dispatcher under identical client load.

    Interface parity with :class:`StressService` includes the context
    manager protocol, so benchmark and test harnesses can swap the two
    freely inside ``with`` blocks.
    """

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self._lock = threading.Lock()

    def predict(self, video: Video):
        with self._lock:
            return self.pipeline.predict(video)

    def close(self) -> bool:  # interface parity with StressService
        """No-op; the dispatcher owns no worker state.  Returns
        ``True`` (there is never anything left to drain)."""
        return True

    def __enter__(self) -> "SerialDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
