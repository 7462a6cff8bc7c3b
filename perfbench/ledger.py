"""The per-layer ledger: layer metrics derived from a traced run's spans.

Every ``*_per_req`` (or ``*_per_sample``) figure is a sum of span
*self* times -- duration minus the child spans it covers -- divided by
the requests (or samples) of the traced phases, so the model, video
and executor rows add up to the serving thread's busy time per
request.  Each metric is listed with its unit and the direction in
which it improves in ``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import defaultdict

from loadgen import quantile
from tracer import Span, self_times

#: Per-layer metrics, in ``BENCHMARK.json`` order: name -> unit.
PER_LAYER_UNITS: dict[str, str] = {
    "video.render.calls_per_req": "count",
    "video.render.ms_per_req": "ms",
    "video.segmentation.ms_per_sample": "ms",
    "model.features.hit_ratio": "fraction",
    "model.features.ms_per_req": "ms",
    "model.embed.ms_per_req": "ms",
    "model.describe.ms_per_req": "ms",
    "model.assess.ms_per_req": "ms",
    "model.highlight.ms_per_req": "ms",
    "model.frames_batch.rows_per_sample": "count",
    "model.frames_batch.ms_per_sample": "ms",
    "chain.predict.ms_per_sample": "ms",
    "batcher.queue_wait_p50_ms": "ms",
    "batcher.queue_wait_p99_ms": "ms",
    "batcher.occupancy_mean": "count",
    "batcher.dedup_ratio": "fraction",
    "cache.hit_ratio": "fraction",
    "cache.describe.hit_ratio": "fraction",
    "cache.evictions": "count",
    "executor.self_ms_per_req": "ms",
    "executor.execute_p50_ms": "ms",
    "pool.route_us_per_req": "us",
    "pool.dispatch_ms_p50": "ms",
    "pool.route_imbalance": "ratio",
    "explainers.lime.ms_per_sample": "ms",
    "explainers.shap.ms_per_sample": "ms",
    "explainers.sobol.ms_per_sample": "ms",
    "explainers.evals_per_sample": "count",
    "explainers.deletion.ms_per_sample": "ms",
    "explain.fig6_ratio.lime": "ratio",
    "explain.fig6_ratio.shap": "ratio",
    "explain.fig6_ratio.sobol": "ratio",
    "tracing.overhead_ratio": "ratio",
    "bench.open.sent": "count",
    "bench.open.ok": "count",
    "bench.open.failed": "count",
    "bench.saturation.sent": "count",
    "bench.saturation.ok": "count",
    "bench.saturation.failed": "count",
    "bench.generator_lag_ms": "ms",
    "bench.repeat_share": "fraction",
}

#: Rows charged as span self time per request.
_SELF_ROWS = {
    "video.render.ms_per_req": "video.render",
    "model.features.ms_per_req": "model.features",
    "model.embed.ms_per_req": "model.embed",
    "model.describe.ms_per_req": "model.describe",
    "model.assess.ms_per_req": "model.assess",
    "model.highlight.ms_per_req": "model.highlight",
    "executor.self_ms_per_req": "executor.run_batch",
}

#: Rows charged as whole calls (their model work included) per sample.
_STEP_ROWS = {
    "video.segmentation.ms_per_sample": "video.segmentation",
    "model.frames_batch.ms_per_sample": "model.frames_batch",
    "chain.predict.ms_per_sample": "chain.predict",
    "explainers.lime.ms_per_sample": "explainers.lime",
    "explainers.shap.ms_per_sample": "explainers.shap",
    "explainers.sobol.ms_per_sample": "explainers.sobol",
    "explainers.deletion.ms_per_sample": "explainers.deletion",
}


def ledger(spans: list[Span], caches, count: int, root_pid: int,
           open_until: float | None) -> dict:
    """Layer metrics of one traced run over ``count`` requests (or
    samples).  ``caches`` holds ``[before, after]`` stage-cache stats
    per executor.  Queue waits are those of the requests submitted
    before ``open_until`` -- the open-loop phase, whose latency they
    explain.  Metrics of a layer the workload does not reach read 0."""
    own = self_times(spans)
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    per = 1.0 / max(count, 1)
    out = {name: 0.0 for name in PER_LAYER_UNITS}

    for metric, name in _SELF_ROWS.items():
        busy = sum(own[(s.pid, s.id)] for s in named[name])
        out[metric] = busy * 1e3 * per
    for metric, name in _STEP_ROWS.items():
        out[metric] = sum(s.duration for s in named[name]) * 1e3 * per
    out["model.frames_batch.rows_per_sample"] = (
        sum(s.attrs for s in named["model.frames_batch"]) * per)
    out["video.render.calls_per_req"] = len(named["video.render"]) * per

    rendered = {(s.pid, s.parent) for s in named["video.render"]}
    features = named["model.features"]
    if features:
        hits = sum((s.pid, s.id) not in rendered for s in features)
        out["model.features.hit_ratio"] = hits / len(features)

    submitted = {s.rid: s.start for s in named["batcher.submit"]
                 if s.pid == root_pid
                 and (open_until is None or s.start < open_until)}
    batches = [s for s in named["batcher.batch"] if s.pid == root_pid]
    waits = [(b.start - submitted[rid]) * 1e3
             for b in batches for rid in b.attrs[0] if rid in submitted]
    if waits:
        out["batcher.queue_wait_p50_ms"] = quantile(waits, 0.50)
        out["batcher.queue_wait_p99_ms"] = quantile(waits, 0.99)
    if batches:
        out["batcher.occupancy_mean"] = (
            sum(len(b.attrs[0]) for b in batches) / len(batches))

    runs = named["executor.run_batch"]
    if runs:
        size = sum(s.attrs[0] for s in runs)
        out["batcher.dedup_ratio"] = 1.0 - sum(s.attrs[1] for s in runs) / size
        out["executor.execute_p50_ms"] = quantile(
            [s.duration * 1e3 for s in runs], 0.50)

    hits = lookups = describe_hits = describe_lookups = evictions = 0
    for before, after in caches:
        for stage in after:
            delta_hits = after[stage].hits - before[stage].hits
            delta = delta_hits + after[stage].misses - before[stage].misses
            hits += delta_hits
            lookups += delta
            evictions += after[stage].evictions - before[stage].evictions
            if stage == "describe":
                describe_hits += delta_hits
                describe_lookups += delta
    if lookups:
        out["cache.hit_ratio"] = hits / lookups
    if describe_lookups:
        out["cache.describe.hit_ratio"] = describe_hits / describe_lookups
    out["cache.evictions"] = float(evictions)

    out["pool.route_us_per_req"] = (
        sum(s.duration for s in named["pool.route"]) * 1e6 * per)
    # Pipe and pickle, per batch: the parent's batch time minus the
    # replica process's run_batch time for the same batch.
    replica_runs = {s.attrs[2]: s for s in runs if s.pid != root_pid}
    dispatch = [(b.duration - replica_runs[b.attrs[1]].duration) * 1e3
                for b in batches if b.attrs[1] in replica_runs]
    if dispatch:
        out["pool.dispatch_ms_p50"] = quantile(dispatch, 0.50)
    return out
