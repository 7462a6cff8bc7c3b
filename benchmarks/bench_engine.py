#!/usr/bin/env python
"""Benchmark the batched prediction engine and parallel evaluation.

Two timed comparisons, each against the pre-engine reference path:

1. **Deletion metric** -- the explainer black box as a plain
   single-frame callable (every perturbation pays one model call) vs
   the :class:`~repro.explainers.base.BatchPredictFn` returned by
   :func:`~repro.explainers.evaluation.chain_predict_fn`, which scores
   the perturbations in vectorized chunks of up to ~128 frames.
2. **Cross-validated baseline** -- ``evaluate_baseline`` with the
   serial fold loop vs the process backend.

Both comparisons also verify the outputs agree, so the benchmark
doubles as an end-to-end equivalence check.  Results land in
``BENCH_eval.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--check]

``--quick`` shrinks the workload for CI smoke runs; ``--check`` exits
non-zero if the batched path is slower than the serial path or if any
outputs disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from bench_common import merge_report
from repro.datasets import generate_uvsd
from repro.evaluation import evaluate_baseline
from repro.explainers import (
    RiseExplainer,
    chain_predict_fn,
    deletion_metric,
    explainer_ranker,
)
from repro.cot.chain import StressChainPipeline
from repro.model.foundation import FoundationModel
from repro.rng import make_rng

REPO_ROOT = Path(__file__).resolve().parent.parent


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_deletion(quick: bool) -> dict:
    """Deletion metric: per-frame loop vs batched engine."""
    num_samples = 2 if quick else 6
    num_rise = 100 if quick else 400
    num_segments = 64
    dataset = generate_uvsd(seed=7, num_samples=num_samples,
                            num_subjects=max(2, num_samples // 2))
    samples = list(dataset)
    model = FoundationModel(make_rng(0, "bench-engine-model"))
    pipeline = StressChainPipeline(model)

    # Warm the per-video caches (frame rendering, SLIC) so both timed
    # runs measure prediction work, not rendering.
    for sample in samples:
        sample.video.keyframes
        sample.video.segmentation(num_segments)

    def serial_factory(sample):
        """The pre-engine black box: a plain callable, no ``batch``."""
        __, neutral = sample.video.keyframes
        return lambda frame: model.chain_prob_from_frames(frame, neutral)

    kwargs = dict(
        ranker=explainer_ranker(RiseExplainer(num_samples=num_rise)),
        ks=(1, 2, 3), num_segments=num_segments, seed=0,
    )
    serial_result, serial_s = _timed(lambda: deletion_metric(
        samples, predict_fn_factory=serial_factory, **kwargs))
    batched_result, batched_s = _timed(lambda: deletion_metric(
        samples,
        predict_fn_factory=lambda s: chain_predict_fn(pipeline, s),
        **kwargs))

    return {
        "num_samples": num_samples,
        "num_segments": num_segments,
        "rise_num_samples": num_rise,
        "serial_s": serial_s,
        "batched_s": batched_s,
        "speedup": serial_s / batched_s if batched_s else float("inf"),
        "results_match": (
            serial_result.base_accuracy == batched_result.base_accuracy
            and serial_result.accuracy_after == batched_result.accuracy_after
        ),
    }


def bench_parallel_cv(quick: bool) -> dict:
    """``evaluate_baseline``: serial fold loop vs process backend."""
    num_folds = 4 if quick else 10
    num_workers = 4
    dataset = generate_uvsd(seed=7,
                            num_samples=48 if quick else 120,
                            num_subjects=12)

    serial_result, serial_s = _timed(lambda: evaluate_baseline(
        "fdassnn", dataset, num_folds=num_folds, backend="serial"))
    parallel_result, parallel_s = _timed(lambda: evaluate_baseline(
        "fdassnn", dataset, num_folds=num_folds,
        backend="process", num_workers=num_workers))

    return {
        "baseline": "fdassnn",
        "num_folds": num_folds,
        "num_workers": num_workers,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else float("inf"),
        "results_match": serial_result == parallel_result,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--check", action="store_true",
                        help="fail if batched is slower or outputs differ")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_eval.json")
    args = parser.parse_args(argv)

    report = {
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "deletion_metric": bench_deletion(args.quick),
        "parallel_cv": bench_parallel_cv(args.quick),
    }
    # merge, don't overwrite: other bench scripts own other sections
    merge_report(args.output, report)
    print(json.dumps(report, indent=2))

    if args.check:
        deletion = report["deletion_metric"]
        cv = report["parallel_cv"]
        failures = []
        if not deletion["results_match"]:
            failures.append("deletion metric outputs differ")
        if not cv["results_match"]:
            failures.append("cross-validation outputs differ")
        if deletion["speedup"] < 1.0:
            failures.append(
                f"batched deletion metric slower than serial "
                f"({deletion['speedup']:.2f}x)"
            )
        if failures:
            print("CHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("CHECK PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
