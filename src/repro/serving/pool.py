"""The sharded replica pool: serving scaled across worker replicas.

One :class:`~repro.serving.service.StressService` serializes all model
work on a single batcher thread (DESIGN.md section 10).  A
:class:`ReplicaPool` shards that hot path across ``num_replicas``
independent replicas, each owning its *own* pipeline copy, micro-batch
worker, stage caches, and circuit breaker:

- **Routing is consistent-hash on content.**  Every request is routed
  by its video content hash over a vnode hash ring, so one clip's
  repeats always land on the same replica and that replica's LRU
  caches stay hot -- random routing would shred the hit rate across
  replicas.  Adding or removing a replica remaps only the ring arcs it
  owns, not the whole keyspace.
- **Every replica is a service over a forked executor.**  Each
  replica is a plain :class:`StressService`, so batching, deadlines,
  retries, the breaker and stats exist once; its executor forks a
  child that owns the pipeline, a real batch executor and the stage
  caches, and speaks a tiny pickled command protocol over a pipe.
  Degraded cache-only answers cross the pipe like batches, so an open
  breaker answers from the child's caches.  Fork is the only backend
  (POSIX only, like :mod:`repro.evaluation.parallel`'s process
  backend): threaded replicas lost to one service, because the GIL
  serializes their Python work.  Without ``os.fork`` use
  :class:`StressService`.  The replica count defaults to
  ``REPRO_POOL_REPLICAS`` via :func:`repro.config.settings`.
- **Versioned hot-swap.**  :meth:`ReplicaPool.deploy` loads a version
  from a :class:`~repro.model.registry.ModelRegistry`, swaps a canary
  subset first (each replica drains its in-flight batch before its
  weights change, so zero in-flight requests fail), and
  :meth:`Deployment.promote` rolls the canaries back and raises
  :class:`~repro.errors.DeploymentError` if any canary's circuit
  breaker tripped during the bake.
- **Single-replica equivalence.**  ``ReplicaPool(num_replicas=1)``
  returns bitwise-identical :class:`~repro.cot.chain.ChainResult`
  objects to a plain :class:`StressService` (the pool equivalence
  suite pins this): routing picks a replica, never changes the math.
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import os
import threading
from dataclasses import dataclass, replace

from repro.config import POOL_REPLICAS_ENV, settings
from repro.errors import (
    ConfigError,
    DeploymentError,
    PoolError,
    ServiceClosedError,
)
from repro.observability.metrics import global_metrics
from repro.observability.tracing import span
from repro.reliability.breaker import OPEN, BreakerConfig
from repro.serving.cache import LRUCache, StageCaches, video_content_hash
from repro.serving.executor import ChainBatchExecutor
from repro.serving.service import ServiceConfig, StressService
from repro.serving.stats import ServiceStatsSnapshot
from repro.video.frame import Video

__all__ = [
    "Deployment",
    "PoolStatsSnapshot",
    "ReplicaPool",
    "clone_pipeline",
    "resolve_pool_replicas",
]

#: Virtual nodes per replica on the hash ring.  Enough that the
#: keyspace split between replicas stays near-even, small enough that
#: building the ring is trivial.
DEFAULT_VNODES = 64


def resolve_pool_replicas(num_replicas: int | None = None) -> int:
    """Pick the replica count: explicit argument, then the
    ``REPRO_POOL_REPLICAS`` environment variable, then one."""
    if num_replicas is None:
        num_replicas = settings().pool_replicas
        if num_replicas is None:
            num_replicas = 1
    if num_replicas < 1:
        raise PoolError(
            f"num_replicas must be >= 1, got {num_replicas} "
            f"(set {POOL_REPLICAS_ENV} or pass num_replicas)")
    return num_replicas


def clone_pipeline(pipeline):
    """An independent copy of ``pipeline`` computing bitwise-identical
    results.

    Two threads must not share one pipeline object: the foundation
    model caches forward activations during a pass, so concurrent
    callers would race on that state.  The clone deep-copies the model
    (weights and feature cache) and rebinds a shallow-copied retriever
    to it; the verification pool is shared read-only.
    """
    import copy

    from repro.cot.chain import StressChainPipeline

    model = pipeline.model.clone()
    retriever = pipeline.retriever
    if retriever is not None:
        retriever = copy.copy(retriever)
        if hasattr(retriever, "model"):
            retriever.model = model
    return StressChainPipeline(
        model,
        use_chain=pipeline.use_chain,
        retriever=retriever,
        test_time_refine=pipeline.test_time_refine,
        verification_pool=list(pipeline.verification_pool) or None,
        refine_rounds=pipeline.refine_rounds,
        num_verify_trials=pipeline.num_verify_trials,
        seed=pipeline.seed,
    )


class _HashRing:
    """A consistent-hash ring over replica indices.

    Each replica owns ``vnodes`` points on a SHA-1 ring; a key routes
    to the first point at or after its own hash (wrapping).  The map
    is stable: repeats of one key always land on the same replica, and
    resizing the pool moves only the arcs the changed replica owned.
    """

    def __init__(self, num_replicas: int, vnodes: int = DEFAULT_VNODES):
        points: list[tuple[int, int]] = []
        for replica in range(num_replicas):
            for vnode in range(vnodes):
                digest = hashlib.sha1(
                    f"replica-{replica}:vnode-{vnode}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), replica))
        points.sort()
        self._hashes = [point for point, __ in points]
        self._replicas = [replica for __, replica in points]

    def route(self, key: str) -> int:
        digest = hashlib.sha1(key.encode()).digest()
        point = int.from_bytes(digest[:8], "big")
        index = bisect.bisect_right(self._hashes, point)
        if index == len(self._hashes):
            index = 0
        return self._replicas[index]


# ----------------------------------------------------------------------
# The replica executor
# ----------------------------------------------------------------------


class _ForkedExecutor:
    """A replica's executor: :class:`ChainBatchExecutor`'s
    ``run_batch`` / ``run_cached`` / ``replace_pipeline`` contract,
    served by a forked child that owns the pipeline, a real
    ``ChainBatchExecutor`` and the stage caches.  The pipe is strictly
    request/response and guarded by a lock; a batch crosses as specs
    plus a renderer reference (DESIGN.md section 13).  A child that
    dies fails the in-flight and later requests with
    :class:`PoolError`.
    """

    #: The pipeline lives in the child only.
    pipeline = None

    def __init__(self, index: int, pipeline, config: ServiceConfig):
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._conn_lock = threading.Lock()
        self._process = context.Process(
            target=self._serve,
            args=(child_conn, pipeline, config),
            name=f"pool-replica-{index}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    @staticmethod
    def _serve(conn, pipeline, config: ServiceConfig) -> None:
        """Child-process loop: inherits ``pipeline`` through fork and
        answers ``("ok", result)`` / ``("error", exc)`` per command.  A
        swap carries a registry artifact *path* (weights never cross the
        pipe) or a pickled pipeline (rollback of a bare-pipeline pool).
        """
        caches = StageCaches(
            describe_capacity=config.describe_cache_capacity,
            assess_capacity=config.assess_cache_capacity,
            highlight_capacity=config.highlight_cache_capacity,
        )
        executor = ChainBatchExecutor(pipeline, caches)
        while True:
            try:
                command, argument = conn.recv()
            except EOFError:
                return
            try:
                if command == "batch":
                    conn.send(("ok", executor.run_batch(argument)))
                elif command == "cached":
                    conn.send(("ok", executor.run_cached(argument)))
                elif command == "swap":
                    if isinstance(argument, (str, os.PathLike)):
                        from repro.model.persistence import load_pipeline

                        argument = load_pipeline(argument)
                    executor.replace_pipeline(argument)
                    caches.clear()
                    conn.send(("ok", None))
                elif command == "fingerprint":
                    conn.send(("ok", executor.pipeline.model.fingerprint()))
                elif command == "close":
                    conn.send(("ok", None))
                    return
                else:  # pragma: no cover - protocol guard
                    conn.send(("error", PoolError(
                        f"unknown replica command {command!r}")))
            except BaseException as exc:  # noqa: BLE001 - child must survive
                conn.send(("error", exc))

    def _command(self, command: str, argument) -> object:
        with self._conn_lock:
            if not self._process.is_alive():
                raise PoolError(f"{self._process.name} worker process "
                                "has exited")
            try:
                self._conn.send((command, argument))
                status, payload = self._conn.recv()
            except (EOFError, OSError) as exc:
                raise PoolError(f"{self._process.name} worker process "
                                f"died during {command!r}") from exc
        if status == "error":
            raise payload
        return payload

    def run_batch(self, videos: list[Video]) -> tuple[list[object], int]:
        try:
            return self._command("batch", videos)
        except BaseException as exc:  # noqa: BLE001 - fail the batch
            return [exc] * len(videos), len(videos)

    def run_cached(self, videos: list[Video]) -> list[object]:
        try:
            return self._command("cached", videos)
        except BaseException as exc:  # noqa: BLE001 - fail the batch
            return [exc] * len(videos)

    def replace_pipeline(self, pipeline) -> None:
        """Swap the child's pipeline: ``pipeline`` is a pipeline object
        (pickled across) or the path of a registry artifact for the
        child to load."""
        self._command("swap", pipeline)

    def fingerprint(self) -> str:
        return self._command("fingerprint", None)

    def close(self, timeout: float | None = None) -> bool:
        """End the child; ``True`` iff it exited cleanly."""
        try:
            self._command("close", None)
        except PoolError:
            pass
        self._process.join(timeout if timeout is not None else 5.0)
        if self._process.is_alive():  # pragma: no cover - hung child
            self._process.terminate()
        self._conn.close()
        # Only the close command ends the child with exit code 0; one
        # that died first (killed, crashed) failed the requests routed
        # to it, so the replica did not shut down cleanly.
        return self._process.exitcode == 0


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PoolStatsSnapshot:
    """A point-in-time view of the whole pool.

    ``routed`` counts requests per replica (the routing histogram the
    consistent-hash ring produced); ``replicas`` holds each replica's
    own :class:`ServiceStatsSnapshot`.  A replica's ``cache`` reports
    its parent-side stage caches, which have capacity 0: the caches
    that do the work live in the child.
    """

    num_replicas: int
    version: str | None
    routed: tuple[int, ...]
    replicas: tuple[ServiceStatsSnapshot, ...]

    @property
    def requests(self) -> int:
        return sum(self.routed)


class ReplicaPool:
    """Shards serving across replicas with consistent-hash routing.

    Parameters
    ----------
    pipeline:
        The pipeline every replica starts from; each replica's child
        inherits it through fork.
    num_replicas:
        Replica count (default: ``REPRO_POOL_REPLICAS``, then 1).
    backend:
        ``"process"``, the only backend (``None`` means the same).
    config:
        Per-replica :class:`ServiceConfig`.  The default attaches a
        :class:`~repro.reliability.breaker.BreakerConfig` so every
        replica gets its own circuit breaker (canary promotion reads
        them); pass an explicit config to override.
    registry:
        Optional :class:`~repro.model.registry.ModelRegistry` that
        :meth:`deploy` resolves versions against.
    version:
        Optional name of the version ``pipeline`` was loaded from
        (reported in stats; lets the pool roll back by artifact path
        instead of pickling weights).
    """

    def __init__(self, pipeline, *, num_replicas: int | None = None,
                 backend: str | None = None,
                 config: ServiceConfig | None = None,
                 registry=None, version: str | None = None,
                 vnodes: int = DEFAULT_VNODES):
        if backend not in (None, "process"):
            raise ConfigError(f"unknown pool backend {backend!r}; "
                              "the only backend is 'process'")
        if not hasattr(os, "fork"):
            raise PoolError("ReplicaPool forks its replicas and this "
                            "platform has no os.fork; use StressService")
        self.num_replicas = resolve_pool_replicas(num_replicas)
        self.config = (config if config is not None
                       else ServiceConfig(breaker=BreakerConfig()))
        self.registry = registry
        self.version = version
        self._ring = _HashRing(self.num_replicas, vnodes=vnodes)
        self._key_memo = LRUCache(8192)
        self._routed = [0] * self.num_replicas
        self._routed_lock = threading.Lock()
        self._deploy_lock = threading.Lock()
        self._closed = False
        initial = ((registry.verified_artifact(version), version)
                   if registry is not None and version is not None else None)
        # The stage caches live in each replica's child, so the
        # parent-side ones hold nothing.
        forked_config = replace(
            self.config, describe_cache_capacity=0, assess_cache_capacity=0,
            highlight_cache_capacity=0)
        self._replicas = [
            StressService(pipeline, forked_config,
                          _executor=_ForkedExecutor(index, pipeline,
                                                    self.config))
            for index in range(self.num_replicas)]
        # Each replica's rollback payload: (artifact path or pipeline,
        # version).
        self._payloads: list[tuple] = [
            initial or (pipeline, None)] * self.num_replicas
        metrics = global_metrics()
        metrics.gauge("pool.replicas").set(self.num_replicas)
        self._m_requests = metrics.counter("pool.requests")
        self._m_routed = [metrics.counter(f"pool.replica.{i}.requests")
                          for i in range(self.num_replicas)]
        self._m_deploys = metrics.counter("pool.deploys")
        self._m_rollbacks = metrics.counter("pool.rollbacks")

    @classmethod
    def from_registry(cls, registry, version: str | None = None,
                      **kwargs) -> "ReplicaPool":
        """A pool serving ``version`` (default: the registry's latest)
        loaded through the persistence layer."""
        if version is None:
            version = registry.latest()
        if version is None:
            raise PoolError(f"registry {registry.root} holds no versions")
        pipeline = registry.load(version)
        return cls(pipeline, registry=registry, version=version, **kwargs)

    # -- the hot path --------------------------------------------------

    def route(self, video: Video) -> int:
        """The replica index ``video`` shards to (pure function of its
        content hash -- repeats always land on the same replica)."""
        memo_key = (video.video_id, video.spec.seed)
        key = self._key_memo.get(memo_key)
        if key is None:
            key = video_content_hash(video)
            self._key_memo.put(memo_key, key)
        return self._ring.route(key)

    def submit(self, video: Video, deadline_ms: float | None = None):
        """Route and enqueue one request; returns a
        ``Future[ChainResult]``.  Raises the same backpressure and
        closed-state errors as :meth:`StressService.submit`."""
        if self._closed:
            raise ServiceClosedError(
                "replica pool is shut down; no new requests accepted")
        index = self.route(video)
        with span("pool.route", replica=index):
            future = self._replicas[index].submit(video, deadline_ms)
        with self._routed_lock:
            self._routed[index] += 1
        self._m_requests.inc()
        self._m_routed[index].inc()
        return future

    def predict(self, video: Video, timeout: float | None = None,
                deadline_ms: float | None = None):
        """Blocking predict: route, submit, and wait for the result."""
        return self.submit(video, deadline_ms=deadline_ms).result(timeout)

    # -- introspection -------------------------------------------------

    def fingerprints(self) -> list[str]:
        """Each replica's model fingerprint (asserts which weights a
        replica actually serves -- equal fingerprints imply bitwise-
        equal forward passes)."""
        return [r.executor.fingerprint() for r in self._replicas]

    def stats(self) -> PoolStatsSnapshot:
        with self._routed_lock:
            routed = tuple(self._routed)
        return PoolStatsSnapshot(
            num_replicas=self.num_replicas,
            version=self.version,
            routed=routed,
            replicas=tuple(r.stats() for r in self._replicas),
        )

    # -- deploys -------------------------------------------------------

    def deploy(self, version: str, *, canary_fraction: float = 1.0,
               registry=None) -> "Deployment":
        """Hot-swap every replica to ``version`` from the registry.

        With ``canary_fraction < 1`` only the first
        ``max(1, round(fraction * n))`` replicas swap now; the
        returned :class:`Deployment` stays in its canary state until
        :meth:`Deployment.promote` checks the canaries' circuit
        breakers and either rolls the rest of the pool forward or
        rolls the canaries back (raising
        :class:`~repro.errors.DeploymentError`).  When the computed
        canary set covers every replica (e.g. any fraction on a
        one-replica pool), the deployment completes immediately and a
        subsequent :meth:`Deployment.promote` is a no-op.  Each
        replica drains its in-flight batch before its weights change,
        so zero in-flight requests fail during a swap.
        """
        registry = registry if registry is not None else self.registry
        if registry is None:
            raise DeploymentError(
                "deploy needs a ModelRegistry (pass registry= here or to "
                "the pool constructor)")
        if not 0.0 < canary_fraction <= 1.0:
            raise ConfigError(
                f"canary_fraction must be in (0, 1], got {canary_fraction}")
        artifact = registry.verified_artifact(version)
        payload = (artifact, version)
        if canary_fraction >= 1.0:
            canary_count = self.num_replicas
        else:
            canary_count = min(self.num_replicas,
                               max(1, round(canary_fraction
                                            * self.num_replicas)))
        with self._deploy_lock:
            canaries = tuple(range(canary_count))
            previous = {i: self._payloads[i] for i in canaries}
            for index in canaries:
                with span("pool.swap", replica=index, version=version):
                    self._swap(index, payload)
            self._m_deploys.inc()
            deployment = Deployment(self, version, payload, canaries,
                                    previous)
            if canary_count == self.num_replicas:
                deployment._complete()
        return deployment

    def _swap(self, index: int, payload) -> None:
        """Point replica ``index`` at ``payload``'s pipeline, after its
        in-flight batch.  The child loads a registry artifact itself."""
        self._replicas[index].swap_pipeline(payload[0])
        self._payloads[index] = payload

    # -- lifecycle -----------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Shut every replica down; ``True`` iff all drained fully and
        every child exited cleanly."""
        self._closed = True
        drained = True
        for replica in self._replicas:
            drained = replica.close(drain=drain, timeout=timeout) and drained
            drained = replica.executor.close(timeout) and drained
        return drained

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Deployment:
    """One in-progress (or finished) versioned rollout.

    States: ``"canary"`` (a subset serves the new version) ->
    ``"complete"`` (:meth:`promote` rolled every replica forward) or
    ``"rolled_back"`` (:meth:`rollback`, or a canary breaker trip
    during :meth:`promote`).
    """

    def __init__(self, pool: ReplicaPool, version: str, payload,
                 canaries: tuple[int, ...], previous: dict):
        self.pool = pool
        self.version = version
        self._payload = payload
        self.canaries = canaries
        self._previous = previous
        self.state = "canary"

    def _complete(self) -> None:
        self.state = "complete"
        self.pool.version = self.version

    def tripped_canaries(self) -> list[int]:
        """Canary replicas whose circuit breaker is currently open."""
        tripped = []
        for index in self.canaries:
            breaker = self.pool._replicas[index].breaker
            if breaker is not None and breaker.state == OPEN:
                tripped.append(index)
        return tripped

    def promote(self) -> None:
        """Roll the remaining replicas forward -- unless a canary's
        breaker tripped, in which case the canaries are rolled back
        and :class:`~repro.errors.DeploymentError` is raised.

        A no-op on an already-``"complete"`` deployment: ``deploy()``
        auto-completes when the canary set covers the whole pool (for
        example, any fraction on a one-replica pool), and an
        unconditional ``promote()`` after that is not an error.
        Promoting a rolled-back deployment still raises.
        """
        if self.state == "complete":
            return
        if self.state != "canary":
            raise DeploymentError(
                f"deployment of {self.version!r} is {self.state}; only a "
                "canary-state deployment can be promoted")
        tripped = self.tripped_canaries()
        if tripped:
            self.rollback()
            raise DeploymentError(
                f"canary breaker open on replica(s) {tripped} while baking "
                f"{self.version!r}; canaries rolled back")
        with self.pool._deploy_lock:
            for index in range(self.pool.num_replicas):
                if index in self._previous:
                    continue
                self._previous[index] = self.pool._payloads[index]
                with span("pool.swap", replica=index, version=self.version):
                    self.pool._swap(index, self._payload)
        self._complete()

    def rollback(self) -> None:
        """Restore every swapped replica to its pre-deploy weights."""
        if self.state == "rolled_back":
            return
        with self.pool._deploy_lock:
            for index, payload in self._previous.items():
                with span("pool.swap", replica=index, rollback=True):
                    self.pool._swap(index, payload)
        self.pool._m_rollbacks.inc()
        previous_versions = {payload[1]
                             for payload in self._previous.values()}
        if len(previous_versions) == 1:
            self.pool.version = next(iter(previous_versions))
        self.state = "rolled_back"
