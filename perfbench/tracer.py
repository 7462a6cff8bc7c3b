"""In-memory spans around calls into the program's public functions.

The traced run wraps, from outside ``src/``, the public functions each
layer exposes -- the renderer, the model's feature/embed/head entry
points, the micro-batcher, the batch executor and the pool router --
and records one span per call: name, start, end, parent span, and the
id of the request the call serves.  Spans stay in memory and are
written out when the run ends.

Process replicas fork after the wrappers are installed, so they trace
too.  A shared switch turns recording on and off in every process at
once, and each child writes what it recorded to a file in the run's
directory when it exits; the parent merges the files after the pool
has closed.  The switch is an anonymous shared mapping, so nothing is
written outside that directory.
"""

from __future__ import annotations

import functools
import itertools
import json
import mmap
import multiprocessing.util
import os
import pickle
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from repro.model.foundation import FoundationModel
from repro.serving.batcher import MicroBatcher
from repro.serving.executor import ChainBatchExecutor
from repro.serving.pool import ReplicaPool
from repro.video.face_synth import FaceRenderer

#: The layer entry points wrapped in a traced run, as
#: (owner, attribute, span name).
LAYER_CALLS = (
    (FaceRenderer, "render", "video.render"),
    (FoundationModel, "features", "model.features"),
    (FoundationModel, "embed_video", "model.embed"),
    (FoundationModel, "au_logits_from_embed", "model.describe"),
    (FoundationModel, "assess_logit_from_embed", "model.assess"),
    (FoundationModel, "highlight_from_embed", "model.highlight"),
    (FoundationModel, "chain_prob_from_frames_batch", "model.frames_batch"),
)


class Span(NamedTuple):
    """One recorded call; ``parent`` is 0 for a root span."""

    pid: int
    id: int
    parent: int
    name: str
    start: float
    end: float
    rid: object
    attrs: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Switched:
    """Per-process records kept while a shared switch is on.

    A forked child starts from a copy of its parent's records; on its
    first record it clears them and arranges to :meth:`_dump` its own
    at exit, for :meth:`collect_children` to read back.
    """

    def __init__(self, dump_dir: Path, tag: str):
        self._switch = mmap.mmap(-1, 1)  # shared with forked children
        self._dump_dir = dump_dir
        self._tag = tag
        self._pid = os.getpid()

    def start(self) -> None:
        self._switch[0] = 1

    def stop(self) -> None:
        self._switch[0] = 0

    @property
    def recording(self) -> bool:
        return bool(self._switch[0])

    def _check_fork(self) -> None:
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._reset()
            multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        path = self._dump_dir / f"{self._tag}-{os.getpid()}.pkl"
        with open(path, "wb") as handle:
            pickle.dump(self._records(), handle)

    def collect_children(self) -> list:
        """The records forked children wrote at exit (call after they
        have exited); the files are removed."""
        records = []
        for path in sorted(self._dump_dir.glob(f"{self._tag}-*.pkl")):
            with open(path, "rb") as handle:
                records.append(pickle.load(handle))
            path.unlink()
        return records

    def _reset(self) -> None:
        raise NotImplementedError

    def _records(self):
        raise NotImplementedError


class Tracer(_Switched):
    """Records spans while :attr:`recording` is on.

    Request ids are assigned at ``MicroBatcher.submit`` and follow the
    request's video through the model calls on the serving thread.  A
    forked replica sees a pickled copy of each video, so there the
    request id is the ``video_id`` (unique per request on the cold
    stream, the only one served by process replicas).
    """

    def __init__(self, dump_dir: Path):
        super().__init__(dump_dir, "spans")
        self._root_pid = os.getpid()
        self._ids = itertools.count(1)
        self._rid_counter = itertools.count(1)
        self._rids: dict[int, object] = {}
        self._local = threading.local()
        self._originals: list[tuple[type, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.spans: list[Span] = []
        #: id(executor) -> [stage-cache stats before the first traced
        #: batch, stats after the latest one].
        self.caches: dict = {}

    def _records(self):
        return {"spans": [tuple(s) for s in self.spans],
                "caches": list(self.caches.values())}

    # -- request ids ---------------------------------------------------

    def _new_rid(self, video) -> int:
        rid = next(self._rid_counter)
        self._rids[id(video)] = rid
        return rid

    def _rid_of(self, video):
        if os.getpid() == self._root_pid:
            return self._rids.get(id(video), video.video_id)
        return video.video_id

    def _state(self):
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.rid = None
            return local.stack

    # -- recording -----------------------------------------------------

    def _record(self, span: tuple) -> None:
        self.spans.append(Span(self._pid, *span))

    def _call(self, name, original, args, kwargs, rid_fn=None, before=None,
              after=None):
        self._check_fork()
        stack = self._state()
        local = self._local
        if rid_fn is not None:
            local.rid = rid_fn(args)
        if before is not None:
            before(args)
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = after(args, result) if after is not None else None
        self._record((sid, parent, name, start, end, local.rid, attrs))
        return result

    @contextmanager
    def span(self, name: str, rid=None):
        """A harness-level span around a direct call into a layer."""
        if not self.recording:
            yield
            return
        self._check_fork()
        stack = self._state()
        self._local.rid = rid
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record((sid, parent, name, start, end, rid, None))

    def _wrap(self, owner: type, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._switch[0]:
                return original(*args, **kwargs)
            return tracer._call(name, original, args, kwargs, **hooks)

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point (before any service or pool
        is built, so batch callbacks and forked replicas see them)."""
        rid_of_video = (lambda args: self._rid_of(args[1]))
        for owner, attr, name in LAYER_CALLS:
            hooks = {}
            if attr in ("features", "embed_video"):
                hooks["rid_fn"] = rid_of_video
            elif attr == "chain_prob_from_frames_batch":
                hooks["after"] = lambda args, result: len(args[1])
            self._wrap(owner, attr, name, **hooks)
        self._wrap(MicroBatcher, "submit", "batcher.submit",
                   rid_fn=lambda args: self._new_rid(args[1]))
        self._wrap(ChainBatchExecutor, "run_batch", "executor.run_batch",
                   rid_fn=lambda args: None, before=self._cache_before,
                   after=self._cache_after)
        self._wrap(ReplicaPool, "route", "pool.route")

        init = MicroBatcher.__dict__["__init__"]
        tracer = self

        @functools.wraps(init)
        def traced_init(batcher, on_batch, *args, **kwargs):
            init(batcher, tracer._batch_callback(on_batch), *args, **kwargs)

        MicroBatcher.__init__ = traced_init
        self._originals.append((MicroBatcher, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _batch_callback(self, on_batch):
        """Wrap a micro-batcher's batch callback: the span starts when
        the batch starts, and lists the request ids it carries."""
        def after(args, result):
            items = args[0]
            return [self._rid_of(item) for item in items], items[0].video_id

        def traced(items):
            if not self._switch[0]:
                return on_batch(items)
            return self._call("batcher.batch", on_batch, (items,), {},
                              rid_fn=lambda args: None, after=after)

        return traced

    def _cache_before(self, args) -> None:
        executor = args[0]
        if id(executor) not in self.caches:
            stats = executor.caches.stats()
            self.caches[id(executor)] = [stats, stats]

    def _cache_after(self, args, result):
        executor, videos = args[0], args[1]
        self.caches[id(executor)][1] = executor.caches.stats()
        return len(videos), result[1], videos[0].video_id

    # -- output --------------------------------------------------------

    def collect_children(self) -> None:
        """Merge the spans forked replicas wrote at exit (call after
        the pool has closed)."""
        for number, dump in enumerate(super().collect_children()):
            self.spans.extend(Span(*s) for s in dump["spans"])
            for index, entry in enumerate(dump["caches"]):
                self.caches[f"child{number}:{index}"] = entry

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "pid": s.pid, "id": s.id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                    "rid": s.rid, "attrs": s.attrs}) + "\n")


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run on the span's own thread, one after
    another, so the time they cover is the sum of their durations.
    """
    covered: dict[tuple[int, int], float] = {}
    for s in spans:
        if s.parent:
            key = (s.pid, s.parent)
            covered[key] = covered.get(key, 0.0) + s.duration
    return {(s.pid, s.id): s.duration - covered.get((s.pid, s.id), 0.0)
            for s in spans}


class RenderCounter(_Switched):
    """Counts ``FaceRenderer.render`` calls while switched on, in this
    process and in the replicas it forks; cheap enough for the
    untraced runs, whose self-checks need it."""

    def __init__(self, dump_dir: Path):
        super().__init__(dump_dir, "renders")
        self._reset()
        original = FaceRenderer.__dict__["render"]
        counter = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if counter._switch[0]:
                counter._check_fork()
                # One serving thread per process renders.
                counter.calls += 1
            return original(*args, **kwargs)

        self._original = original
        FaceRenderer.render = counted

    def _reset(self) -> None:
        self.calls = 0

    def _records(self):
        return self.calls

    def total(self) -> int:
        """Renders counted here and in exited children."""
        return self.calls + sum(self.collect_children())

    def uninstall(self) -> None:
        FaceRenderer.render = self._original
