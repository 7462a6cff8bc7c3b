"""The four workloads: set-up, timed phases, checks and metrics.

``cold``, ``zipf`` and ``cold-pool2`` drive a serving entry point with
an open-loop phase at a fixed rate and then a saturation phase;
``explain`` runs the paper's Figure 6 loop one sample at a time.
Every served result is compared bitwise with serial ``predict`` run on
an independent :func:`~repro.serving.clone_pipeline` copy, with fresh
videos, after the timed phases, so the reference never warms the
served caches.
"""

from __future__ import annotations

import contextlib
import gc
import math
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field

from repro.cot.chain import StressChainPipeline
from repro.datasets.uvsd import generate_uvsd
from repro.explainers.evaluation import (
    chain_predict_fn,
    deletion_metric,
    rationale_ranker,
)
from repro.explainers.lime import LimeExplainer
from repro.explainers.shap import KernelShapExplainer
from repro.explainers.sobol import SobolExplainer
from repro.model.foundation import FoundationModel
from repro.rng import derive_seed, make_rng
from repro.serving import ReplicaPool, StressService, clone_pipeline
from repro.video.frame import Video
from repro.video.keyframes import extract_keyframes

import inputs
from ledger import ledger
from loadgen import Phase, cpu_seconds, open_loop, quantile, saturate
from tracer import RenderCounter, Tracer

#: Longest wait for the set-up's first response.
FIRST_RESPONSE_TIMEOUT_S = 60.0


def signature(result) -> tuple:
    """Every field of a served answer the bitwise check compares."""
    description = result.description
    return (result.prob_stressed, result.label, result.rationale.au_ids,
            None if description is None else description.au_ids,
            result.session.transcript(), result.degraded)


def _same(a, b) -> bool:
    """Cheap field-wise equality of two results (no transcript text)."""
    return (a.prob_stressed == b.prob_stressed and a.label == b.label
            and a.rationale == b.rationale
            and a.description == b.description
            and a.session.turns == b.session.turns
            and a.degraded == b.degraded)


class Checker:
    """Checks every served result against serial ``predict``.

    Repeats of one content are compared with the first result served
    for it as they arrive, so memory grows with distinct contents, not
    with requests; :meth:`verify` then compares each first result with
    the reference.  A mismatch counts every request of its content.
    """

    def __init__(self):
        self.first: dict = {}
        self.count: dict = {}
        self.mismatches = 0

    def served(self, key, result) -> None:
        first = self.first.get(key)
        if first is None:
            self.first[key] = result
            self.count[key] = 1
            return
        self.count[key] += 1
        if not _same(first, result):
            self.mismatches += 1

    def verify(self, reference) -> None:
        """``reference(key)`` is the serial result for one content."""
        for key, first in self.first.items():
            if signature(first) != signature(reference(key)):
                self.mismatches += self.count[key]


@dataclass
class Outcome:
    """What one run measured."""

    attempted: int
    failed: int
    mismatches: int
    checks: dict[str, bool]
    metrics: dict[str, float]
    phases: dict[str, dict] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return (self.mismatches == 0 and self.failed == 0
                and all(self.checks.values()))


def rss_peak_mb() -> float:
    """Peak RSS so far of this process plus its live child processes
    (the process replicas)."""
    pids = ["self"] + [c.pid for c in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def build_pipeline() -> StressChainPipeline:
    """The served program: the chain over an untrained model (serving
    and explanation cost do not depend on the weights)."""
    model = FoundationModel(make_rng(inputs.MODEL_SEED, "perfbench.model"))
    return StressChainPipeline(model)


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------


@dataclass
class _Serving:
    entry: object
    reference: StressChainPipeline
    specs: list
    open_keys: list
    saturation_keys: list
    first_ok: bool


def _set_up_serving(name: str, seed: int, open_count: int,
                    saturation_s: float) -> _Serving:
    """Everything from the program's construction to the first checked
    response.  Process replicas fork before the inputs exist, so they
    do not carry the harness's pre-generated specs."""
    params = inputs.WORKLOADS[name]
    pipeline = build_pipeline()
    if name == "cold-pool2":
        entry = ReplicaPool(pipeline, num_replicas=2, backend="process")
    else:
        entry = StressService(pipeline)
    if params["stream"] == "cold":
        # Spec 0 is the warm-up clip; every timed request is a new one.
        count = 1 + open_count + math.ceil(
            inputs.MAX_SATURATION_RPS * saturation_s)
        specs = inputs.clip_specs(seed, count, "cold")
        keys = list(range(1, count))
    else:
        specs = inputs.clip_specs(seed, params["catalogue"], "zipf")
        keys = inputs.zipf_draws(
            seed, params["catalogue"], params["zipf_s"],
            open_count + math.ceil(inputs.MAX_ZIPF_RPS * saturation_s),
        ).tolist()
        # The service is idle, so its model may be used directly.
        for spec in specs:
            pipeline.model.features(Video(spec))
    # Cloned before any request: the reference shares no stage cache
    # with the served pipeline (only the warmed, weight-free features).
    reference = clone_pipeline(pipeline)
    first = entry.predict(Video(specs[0]), timeout=FIRST_RESPONSE_TIMEOUT_S)
    want = reference.predict(Video(specs[0]))
    first_ok = signature(first) == signature(want)
    return _Serving(entry, reference, specs, keys[:open_count],
                    keys[open_count:], first_ok)


def _settle() -> None:
    """Collect set-up garbage and exempt everything alive at the end of
    set-up (the program's model as well as the pre-generated inputs)
    from later collections, so collector pauses in the timed phases
    scale with what those phases allocate, not with the input lists."""
    gc.collect()
    gc.freeze()


def _cache_hits(entry) -> int:
    return sum(s.hits for s in entry.stats().cache.values())


def run_serving(name: str, seed: int, seconds: float, tracer: Tracer | None,
                work_dir) -> Outcome:
    params = inputs.WORKLOADS[name]
    rate = params["open_rate_rps"]
    open_s, saturation_s = inputs.phase_windows(seconds, rate)
    open_count = round(open_s * rate)
    renders = RenderCounter(work_dir)
    try:
        setup_times = []
        repeats = 1 if tracer else inputs.SETUP_REPEATS
        for attempt in range(repeats):
            start = time.perf_counter()
            run = _set_up_serving(name, seed, open_count, saturation_s)
            setup_times.append(time.perf_counter() - start)
            if attempt < repeats - 1:
                run.entry.close()
        _settle()
        try:
            outcome = _measure_serving(name, run, rate, saturation_s,
                                       renders, tracer,
                                       statistics.median(setup_times))
            outcome.notes["windows_s"] = {"open": open_s,
                                          "saturation": saturation_s}
            return outcome
        finally:
            run.entry.close()
    finally:
        renders.uninstall()


def _measure_serving(name, run: _Serving, rate, saturation_s, renders,
                     tracer, setup_s) -> Outcome:
    entry, specs = run.entry, run.specs
    is_pool = isinstance(entry, ReplicaPool)
    checker = Checker()
    hits_before = 0 if is_pool else _cache_hits(entry)
    routed_before = entry.stats().routed if is_pool else ()
    renders.start()
    if tracer:
        tracer.start()
    open_phase = open_loop(entry, specs, run.open_keys, rate, checker)
    open_end = time.perf_counter()
    # Read after a fixed amount of work: the saturation phase serves more
    # requests the faster the program is, and cold requests each leave
    # features behind, so a peak taken later would grow with speed.
    peak_rss_mb = rss_peak_mb()
    saturation = saturate(entry, specs, run.saturation_keys, saturation_s,
                          inputs.IN_FLIGHT, checker)
    if tracer:
        tracer.stop()
    renders.stop()
    stage_hits = 0 if is_pool else _cache_hits(entry) - hits_before
    routed = (tuple(after - before for after, before in
                    zip(entry.stats().routed, routed_before))
              if is_pool else ())
    phases = [open_phase, saturation]
    overhead = None
    if tracer:
        # The same saturation phase untraced, on inputs not yet sent.
        overhead = saturate(entry, specs,
                            run.saturation_keys[saturation.sent:],
                            saturation_s, inputs.IN_FLIGHT, checker)
        phases.append(overhead)
    # Replicas write their counts and spans as they exit.
    entry.close()
    timed_renders = renders.total()
    if tracer:
        tracer.collect_children()

    served = run.open_keys + run.saturation_keys[:saturation.sent]
    checker.verify(lambda key: run.reference.predict(Video(specs[key])))

    checks = {"first_response_matches": run.first_ok}
    repeat_share = 1.0 - len(set(served)) / max(len(served), 1)
    if inputs.WORKLOADS[name]["stream"] == "cold":
        # A feature-cache hit would skip a keyframe render.
        expected = sum(len(set(extract_keyframes(specs[key])))
                       for key in served)
        checks["cold_every_request_renders"] = timed_renders == expected
        if not is_pool:
            checks["cold_no_stage_cache_hit"] = stage_hits == 0
    else:
        checks["zipf_no_render_in_timed_phases"] = timed_renders == 0

    attempted = sum(p.sent for p in phases)
    failed = sum(p.failed for p in phases)
    latencies = open_phase.latencies_s
    p99 = quantile(latencies, 0.99)
    timed = open_phase.sent + saturation.sent
    metrics = {
        "setup_s": setup_s,
        "throughput_rps": saturation.throughput_rps,
        "cpu_ms_per_req": saturation.cpu_ms_per_req,
        "latency_p50_ms": quantile(latencies, 0.50) * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "success_ratio": (timed - open_phase.failed - saturation.failed
                          - checker.mismatches) / timed,
        "rss_peak_mb": peak_rss_mb,
    }
    notes = {"latency_samples": len(latencies),
             "beyond_p99": sum(1 for v in latencies if v > p99),
             "latency_ms": {f"p{q * 100:g}": quantile(latencies, q) * 1e3
                            for q in (0.5, 0.9, 0.95, 0.99, 0.999)},
             "renders_in_timed_phases": timed_renders,
             "stage_cache_hits_in_timed_phases": stage_hits}
    if tracer:
        layer = ledger(tracer.spans, tracer.caches.values(),
                       open_phase.sent + saturation.sent, os.getpid(),
                       open_end)
        layer.update(_harness_rows(open_phase, saturation, repeat_share))
        layer["tracing.overhead_ratio"] = (
            overhead.throughput_rps / saturation.throughput_rps)
        if routed and sum(routed):
            layer["pool.route_imbalance"] = max(routed) / (
                sum(routed) / len(routed))
        if inputs.WORKLOADS[name]["stream"] == "cold":
            checks["cold_no_feature_cache_hit"] = (
                layer["model.features.hit_ratio"] == 0.0)
            checks["cold_no_stage_cache_hit"] = (
                checks.get("cold_no_stage_cache_hit", True)
                and layer["cache.hit_ratio"] == 0.0)
        metrics = layer
    return Outcome(attempted=attempted, failed=failed,
                   mismatches=checker.mismatches, checks=checks,
                   metrics=metrics,
                   phases={p.name + ("-untraced" if p is overhead else ""):
                           p.summary() for p in phases},
                   notes=notes)


def _harness_rows(open_phase: Phase, saturation: Phase,
                  repeat_share: float) -> dict:
    rows = {}
    for phase in (open_phase, saturation):
        rows[f"bench.{phase.name}.sent"] = float(phase.sent)
        rows[f"bench.{phase.name}.ok"] = float(phase.ok)
        rows[f"bench.{phase.name}.failed"] = float(phase.failed)
    rows["bench.generator_lag_ms"] = quantile(open_phase.lag_s, 0.99) * 1e3
    rows["bench.repeat_share"] = repeat_share
    return rows


# ----------------------------------------------------------------------
# The explain workload
# ----------------------------------------------------------------------


@dataclass
class _Explain:
    pipeline: StressChainPipeline
    reference: StressChainPipeline
    samples: list
    explainers: dict
    first_ok: bool


def _set_up_explain(seed: int) -> _Explain:
    params = inputs.WORKLOADS["explain"]
    samples = list(generate_uvsd(seed))
    pipeline = build_pipeline()
    reference = clone_pipeline(pipeline)
    explainers = {
        "lime": LimeExplainer(num_samples=params["lime_samples"]),
        "shap": KernelShapExplainer(num_samples=params["shap_samples"]),
        "sobol": SobolExplainer(num_designs=params["sobol_designs"]),
    }
    # Sample 0 is the warm-up; the timed loop starts at sample 1.
    first = pipeline.predict(samples[0].video)
    first_ok = (signature(first)
                == signature(reference.predict(Video(samples[0].video.spec))))
    return _Explain(pipeline, reference, samples, explainers, first_ok)


def _budget(key: str, explainer, labels) -> int:
    """The model evaluations each explainer is configured to spend."""
    if key == "lime":
        return explainer.num_samples
    if key == "shap":
        return explainer.num_samples + 2
    return explainer.num_designs * (int(labels.max()) + 1 + 2)


class _ExplainPhase(Phase):
    """The explain loop, reported as a saturation phase with one
    sample in flight."""

    def __init__(self):
        super().__init__("saturation")
        self.results: list = []
        self.samples: list = []
        self.seconds: list[float] = []
        self.evaluations = 0


def _explain_loop(run: _Explain, seed: int, seconds: float, first: int,
                  tracer: Tracer | None) -> _ExplainPhase:
    """Explain samples ``first, first + 1, ...`` back to back."""
    params = inputs.WORKLOADS["explain"]
    pipeline = run.pipeline
    phase = _ExplainPhase()

    def span(name: str, rid):
        return tracer.span(name, rid) if tracer else contextlib.nullcontext()

    cpu_start = cpu_seconds()
    start = time.perf_counter()
    index = first
    while time.perf_counter() - start < seconds and index < len(run.samples):
        sample = run.samples[index]
        index += 1
        rid = sample.sample_id
        began = time.perf_counter()
        phase.sent += 1
        with span("chain.predict", rid):
            result = pipeline.predict(sample.video)
        with span("video.segmentation", rid):
            labels = sample.video.segmentation(params["num_segments"])
        expressive, __ = sample.video.keyframes
        predict_fn = chain_predict_fn(pipeline, sample)
        sample_seed = derive_seed(seed, f"perfbench.explain:{rid}")
        within_budget = True
        for key, explainer in run.explainers.items():
            with span(f"explainers.{key}", rid):
                attribution = explainer.attribute(expressive, labels,
                                                  predict_fn, seed=sample_seed)
            phase.evaluations += attribution.num_evaluations
            within_budget &= (attribution.num_evaluations
                              == _budget(key, explainer, labels))
        with span("explainers.deletion", rid):
            deletion = deletion_metric(
                [sample], rationale_ranker(pipeline),
                lambda s: chain_predict_fn(pipeline, s),
                num_segments=params["num_segments"], seed=sample_seed)
        phase.seconds.append(time.perf_counter() - began)
        sample.video.drop_frame_cache()
        if within_budget and deletion.num_samples == 1:
            phase.ok += 1
        else:
            phase.failed += 1
        phase.results.append(result)
        phase.samples.append(sample)
    phase.elapsed_s = time.perf_counter() - start
    phase.cpu_s = cpu_seconds() - cpu_start
    return phase


def run_explain(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    setup_times = []
    for __ in range(1 if tracer else inputs.SETUP_REPEATS):
        start = time.perf_counter()
        run = _set_up_explain(seed)  # nothing to close
        setup_times.append(time.perf_counter() - start)
    _settle()
    if tracer:
        tracer.start()
    phase = _explain_loop(run, seed, seconds, 1, tracer)
    phases = [phase]
    if tracer:
        tracer.stop()
        # The same loop untraced, on the samples that follow.
        overhead = _explain_loop(run, seed, (1 - inputs.OPEN_SHARE) * seconds,
                                 1 + phase.sent, None)
        phases.append(overhead)

    peak_rss_mb = rss_peak_mb()
    mismatches = 0
    for p in phases:
        fresh = [Video(sample.video.spec) for sample in p.samples]
        for served, want in zip(p.results,
                                run.reference.predict_many(fresh)):
            mismatches += signature(served) != signature(want)

    done = max(phase.sent, 1)
    if tracer:
        metrics = ledger(tracer.spans, [], done, os.getpid(), None)
        metrics.update(_harness_rows(Phase("open"), phase, 0.0))
        metrics["explainers.evals_per_sample"] = phase.evaluations / done
        chain_ms = metrics["chain.predict.ms_per_sample"]
        for key in run.explainers:
            metrics[f"explain.fig6_ratio.{key}"] = (
                metrics[f"explainers.{key}.ms_per_sample"] / chain_ms)
        metrics["tracing.overhead_ratio"] = (
            overhead.throughput_rps / phase.throughput_rps)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_rps": phase.sent / phase.elapsed_s,
            "cpu_ms_per_req": phase.cpu_s * 1e3 / done,
            "latency_p50_ms": quantile(phase.seconds, 0.50) * 1e3,
            "latency_p99_ms": quantile(phase.seconds, 0.99) * 1e3,
            "success_ratio": (phase.ok - mismatches) / done,
            "rss_peak_mb": peak_rss_mb,
        }
    return Outcome(
        attempted=sum(p.sent for p in phases),
        failed=sum(p.failed for p in phases), mismatches=mismatches,
        checks={"first_response_matches": run.first_ok},
        metrics=metrics,
        phases={f"explain-{i}": p.summary() for i, p in enumerate(phases)},
        notes={"latency_samples": len(phase.seconds)})
