"""Batched execution of the reasoning chain.

:class:`ChainBatchExecutor` turns a batch of videos into one
:class:`~repro.cot.chain.ChainResult` per request.  It owns only the
batch mechanics:

- requests are grouped by content key, so duplicate contents in one
  batch are computed once and fanned out;
- each unique content runs the chain's one implementation,
  :func:`~repro.cot.chain.run_stages`, with the per-stage LRU caches
  as its stage store, so stage outputs replay across batches;
- every request gets its *own* :class:`~repro.model.session.DialogueSession`
  from :meth:`~repro.cot.chain.ChainCore.materialize`, so concurrent
  requests can never interleave dialogue state (the mutable-state
  hazard DESIGN.md section 10 discusses);
- :meth:`ChainBatchExecutor.run_cached` answers from the caches alone
  (the circuit breaker's degraded mode), so it runs wherever the
  caches live -- in-process, or in a replica pool's forked child.

Responses are bitwise-identical to serial
:meth:`~repro.cot.chain.StressChainPipeline.predict` because both run
the same function; only the stage store differs.
"""

from __future__ import annotations

from repro.cot.chain import StressChainPipeline, run_stages
from repro.observability.tracing import span
from repro.reliability.faults import fault_point
from repro.serving.cache import CacheOnlyView, StageCaches
from repro.video.frame import Video


class ChainBatchExecutor:
    """Runs chain requests in batches against one pipeline.

    The executor is written for single-threaded use (the micro-batcher
    worker, or an offline ``predict_many`` loop); the caches it reads
    are individually thread-safe, but model access is expected to be
    serialized by the caller.
    """

    def __init__(self, pipeline, caches: StageCaches | None = None):
        self.replace_pipeline(pipeline)
        self.caches = caches if caches is not None else StageCaches()

    def replace_pipeline(self, pipeline) -> None:
        """Point the executor at a different pipeline (hot-swap).

        The caller owns synchronization: the service swaps under its
        swap lock so no batch is mid-execution, and it must also clear
        the stage caches -- cached stage outputs are only valid for
        the weights that produced them.
        """
        if not isinstance(pipeline, StressChainPipeline):
            raise TypeError(
                f"expected a StressChainPipeline, got {type(pipeline).__name__}")
        self.pipeline = pipeline

    def run_batch(self, videos: list[Video]) -> tuple[list[object], int]:
        """Process one batch.

        Returns ``(outcomes, unique)`` where ``outcomes[i]`` is the
        :class:`ChainResult` for ``videos[i]`` or the exception that
        request raised, and ``unique`` is the number of distinct video
        contents actually computed (batch occupancy minus in-flight
        duplicates).
        """
        outcomes: list[object] = [None] * len(videos)
        groups: dict[str, list[int]] = {}
        with span("serve.execute_batch", size=len(videos)) as sp:
            for i, video in enumerate(videos):
                try:
                    key = self.caches.content_key(video)
                except Exception as exc:  # noqa: BLE001 - per-request failure
                    outcomes[i] = exc
                    continue
                groups.setdefault(key, []).append(i)
            sp.set("unique", len(groups))
            for key, indices in groups.items():
                try:
                    # The serve.execute fault site fires per unique
                    # group: an injected fault fails exactly the
                    # requests of that group (a transient, retryable
                    # error), never the whole batch.
                    fault_point("serve.execute")
                    core = run_stages(self.pipeline, videos[indices[0]],
                                      self.caches, key)
                except Exception as exc:  # noqa: BLE001 - per-request failure
                    for i in indices:
                        outcomes[i] = exc
                    continue
                for i in indices:
                    outcomes[i] = core.materialize()
        return outcomes, len(groups)

    def run_cached(self, videos: list[Video]) -> list[object]:
        """Answer from the stage caches alone, computing nothing.

        ``outcomes[i]`` is the :class:`ChainResult` for ``videos[i]``,
        flagged ``degraded=True`` and otherwise bitwise-identical to a
        computed answer, when every stage it needs is cached, else
        ``None``.  Refine and retriever pipelines are never answered
        from cache.
        """
        pipeline = self.pipeline
        if pipeline.test_time_refine or pipeline.retriever is not None:
            return [None] * len(videos)
        store = CacheOnlyView(self.caches)
        outcomes: list[object] = []
        for video in videos:
            try:
                core = run_stages(pipeline, video, store,
                                  self.caches.content_key(video))
            except Exception:  # noqa: BLE001 - a miss or a cache fault
                outcomes.append(None)
            else:
                outcomes.append(core.materialize(degraded=True))
        return outcomes
