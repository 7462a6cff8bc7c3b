"""Content-addressed LRU caches for the serving layer.

Serving traffic is heavily repetitive -- the same clip arrives from
many clients, and the ``use_chain``/retriever pipeline variants share
their Describe work -- so the service keeps one bounded LRU cache per
chain stage, keyed by a *content hash* of the video:

- the **describe cache** stores the greedy description with its
  rendered text and, when test-time refinement is on, the refined
  description;
- the **assess cache** stores the final assessment ``(logit, prob,
  label)`` per ``(content, description)`` pair;
- the **highlight cache** stores the rationale ordering and its
  rendered text per ``(content, description, label)``.

:class:`StageCaches` is the stage store the chain
(:func:`~repro.cot.chain.run_stages`) consults before each stage
computes, and :class:`CacheOnlyView` is the circuit breaker's
degraded-mode store over the same caches.  Every cached value was
produced by that one chain function, and all three steps are
deterministic under greedy decoding, so replaying a cached value is
bitwise-identical to recomputing it.

The content hash digests the :class:`~repro.video.frame.VideoSpec`
rather than rendered pixels: rendering is fully deterministic given
the spec (including its id and render seed), so the spec *is* the
content in latent form, and hashing ~1 KB of latent state instead of
~150 KB of pixels keeps the cache-hit path far cheaper than a model
call.  Keys are memoized per ``(video_id, render seed)``, the same
globally-unique pair the model's feature cache relies on.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import CircuitOpenError, ConfigError
from repro.observability import profiling
from repro.reliability.faults import fault_point
from repro.video.frame import Video


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Counters of one LRU cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A thread-safe bounded LRU map.

    ``capacity=0`` disables the cache (every ``get`` misses, ``put``
    is a no-op), which is how the service runs in cache-off mode.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ConfigError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Any) -> Any | None:
        """The cached value, or ``None`` on a miss (values are never
        ``None``)."""
        fault_point("cache.get")
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              size=len(self._data), capacity=self.capacity)


# ----------------------------------------------------------------------
# Content keys
# ----------------------------------------------------------------------


def video_content_hash(video: Video) -> str:
    """Hex digest of everything that determines the video's pixels.

    Digests the latent spec -- video id, per-frame AU intensities,
    identity embedding, capture parameters, render seed -- plus the
    renderer's frame size.  Rendering is deterministic given exactly
    these inputs (see :class:`~repro.video.frame.Video`), so clips
    with equal digests render the same pixels.  The id is part of the
    content: the renderer seeds each frame's noise by it, so two specs
    that differ only in id are different clips.
    """
    spec = video.spec
    digest = hashlib.sha1()
    video_id = spec.video_id.encode()
    digest.update(struct.pack("<q", len(video_id)))
    digest.update(video_id)
    au = np.ascontiguousarray(spec.au_intensities, dtype=np.float64)
    digest.update(struct.pack("<qq", *au.shape))
    digest.update(au.tobytes())
    digest.update(
        np.ascontiguousarray(spec.identity, dtype=np.float64).tobytes()
    )
    digest.update(struct.pack(
        "<dddqq", spec.lighting, spec.noise_scale, spec.occlusion_rate,
        spec.seed, video.frame_size,
    ))
    return digest.hexdigest()


class StageCaches:
    """The per-stage caches one service (or ``predict_many`` call)
    owns, plus the content-key memo that makes repeated lookups cheap."""

    def __init__(self, describe_capacity: int = 2048,
                 assess_capacity: int = 4096,
                 highlight_capacity: int = 4096,
                 key_memo_capacity: int = 8192):
        self.describe = LRUCache(describe_capacity)
        self.assess = LRUCache(assess_capacity)
        self.highlight = LRUCache(highlight_capacity)
        self._key_memo = LRUCache(key_memo_capacity)

    def content_key(self, video: Video) -> str:
        """Memoized :func:`video_content_hash`.

        The memo key is ``(video_id, render seed)`` -- the repo-wide
        contract (see :meth:`FoundationModel.features`) is that this
        pair is globally unique per rendered content.
        """
        memo_key = (video.video_id, video.spec.seed)
        key = self._key_memo.get(memo_key)
        if key is None:
            key = video_content_hash(video)
            self._key_memo.put(memo_key, key)
        return key

    def fetch(self, stage: str, key: Any, compute: Callable[[], Any]) -> Any:
        """The ``stage`` cache's value for ``key``; on a miss,
        ``compute()`` it and keep it."""
        cache = getattr(self, stage)
        value = cache.get(key)
        if value is None:
            profiling.count(profiling.STAGE_CACHE_MISS)
            value = compute()
            cache.put(key, value)
        else:
            profiling.count(profiling.STAGE_CACHE_HIT)
        return value

    def clear(self) -> None:
        self.describe.clear()
        self.assess.clear()
        self.highlight.clear()
        self._key_memo.clear()

    def stats(self) -> dict[str, CacheStats]:
        return {
            "describe": self.describe.stats(),
            "assess": self.assess.stats(),
            "highlight": self.highlight.stats(),
        }


class CacheOnlyView:
    """The circuit breaker's degraded-mode stage store: stage values
    come from ``caches`` or not at all -- a miss raises
    :class:`~repro.errors.CircuitOpenError` instead of computing."""

    def __init__(self, caches: StageCaches):
        self.caches = caches

    def fetch(self, stage: str, key: Any, compute: Callable[[], Any]) -> Any:
        value = getattr(self.caches, stage).get(key)
        if value is None:
            raise CircuitOpenError(f"{stage} stage output is not cached")
        return value
