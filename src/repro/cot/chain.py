"""The Describe -> Assess -> Highlight inference pipeline.

:class:`StressChainPipeline` is the deployment-time entry point of the
library: it runs the paper's reasoning chain over a foundation model,
producing a stress prediction *and* its rationale in a single forward
chain (which is what makes Figure 6's efficiency comparison possible).
Options cover every inference protocol in the evaluation:

- ``use_chain=False`` -- the "w/o Chain" direct query;
- ``retriever`` -- in-context example retrieval (Table VII);
- ``test_time_refine=True`` -- refinement without weight updates, the
  protocol applied to frozen off-the-shelf models in Table VIII.

The chain itself is one function, :func:`run_stages`, shared by every
entry point: serial :meth:`StressChainPipeline.predict`, the serving
batch executor behind :meth:`~StressChainPipeline.predict_many` and
:class:`~repro.serving.StressService`, and the service's degraded
cache-only answers.  Each stage asks a *stage store* for its value
before computing it: ``predict`` uses a store that always computes,
serving uses :class:`~repro.serving.cache.StageCaches`, and degraded
mode uses a cache-only view that turns a miss into
:class:`~repro.errors.CircuitOpenError`.  The stages call the model's
video-level entry points with one shared trunk embedding, so subclass
overrides (the off-the-shelf proxies' per-query noise) apply on every
path and each request embeds its video once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.cot.incontext import incontext_logit_shift
from repro.cot.rationale import Rationale
from repro.errors import DeadlineExceededError, ModelError
from repro.facs.descriptions import FacialDescription
from repro.model.foundation import (
    STRESSED,
    UNSTRESSED,
    FoundationModel,
    _render_rationale,
)
from repro.model.generation import GREEDY, GenerationConfig
from repro.model.instructions import (
    ASSESS_INSTRUCTION,
    DESCRIBE_INSTRUCTION,
    DIRECT_ASSESS_INSTRUCTION,
    HIGHLIGHT_INSTRUCTION,
)
from repro.model.session import DialogueSession
from repro.nn.tensorops import sigmoid
from repro.observability.tracing import span
from repro.reliability.deadlines import Deadline
from repro.rng import derive_seed
from repro.training.verification import verification_score
from repro.video.frame import Video

import numpy as np


@dataclass(frozen=True)
class ChainResult:
    """Everything one chain run produces."""

    description: FacialDescription | None
    label: int
    prob_stressed: float
    rationale: Rationale
    session: DialogueSession
    elapsed_seconds: float
    #: ``True`` when the serving layer answered this request from its
    #: stage caches alone because the circuit breaker was open (the
    #: values are still bitwise-identical to a computed chain run; the
    #: flag only marks *how* they were obtained).
    degraded: bool = False

    @property
    def is_stressed(self) -> bool:
        return self.label == STRESSED


class StressChainPipeline:
    """Runs the reasoning chain for one model.

    Parameters
    ----------
    model:
        A trained :class:`FoundationModel` (or frozen off-the-shelf
        proxy).
    use_chain:
        ``False`` reproduces the "w/o Chain" ablation: a direct
        stress query with no description conditioning (a rationale is
        still produced afterwards via I3, as in Table IV's protocol).
    retriever:
        Optional in-context retriever (see :mod:`repro.retrieval`).
    test_time_refine:
        Apply the Table VIII test-time self-refinement: reflect on the
        description and keep candidates that verify at least as
        faithfully, without any weight update.  Requires
        ``verification_pool``.
    verification_pool:
        Videos used to draw verification negatives from.
    seed:
        Scopes all sampling inside the pipeline.
    """

    def __init__(
        self,
        model: FoundationModel,
        use_chain: bool = True,
        retriever=None,
        test_time_refine: bool = False,
        verification_pool: list[Video] | None = None,
        refine_rounds: int = 2,
        num_verify_trials: int = 3,
        seed: int = 0,
    ):
        if test_time_refine and not verification_pool:
            raise ModelError(
                "test_time_refine needs a verification_pool of videos"
            )
        self.model = model
        self.use_chain = use_chain
        self.retriever = retriever
        self.test_time_refine = test_time_refine
        self.verification_pool = verification_pool or []
        self.refine_rounds = refine_rounds
        self.num_verify_trials = num_verify_trials
        self.seed = seed

    # ------------------------------------------------------------------

    def predict(self, video: Video, *, explain: bool = True,
                deadline_ms: float | None = None) -> ChainResult:
        """Run the chain on one video.

        This is the library's one serial prediction entry point (the
        served twins are :meth:`StressService.predict`/``submit``).
        With the keyword defaults the math is exactly the paper's
        chain -- the golden fixtures and the serving equivalence suite
        pin it bitwise.

        Parameters
        ----------
        video:
            The clip to assess.
        explain:
            ``False`` skips the Highlight stage: the result carries an
            empty rationale and no I3 dialogue turn.  Label and
            probability are unchanged.
        deadline_ms:
            Best-effort compute budget, checked at stage boundaries:
            if the budget is exhausted before the result is complete,
            :class:`~repro.errors.DeadlineExceededError` is raised
            rather than burning further model time.  (The serving
            layer's ``deadline_ms`` sheds *queued* requests; this is
            the serial analogue for offline sweeps.)
        """
        deadline = (Deadline.after_ms(deadline_ms)
                    if deadline_ms is not None else None)
        return run_stages(self, video, explain=explain,
                          deadline=deadline).materialize()

    def predict_many(self, videos: list[Video], *, batch_size: int = 32,
                     caches=None) -> list[ChainResult]:
        """Run the chain over many videos through the serving batch
        executor: duplicate contents are computed once per batch, and
        the per-stage caches share Describe/Assess work across the
        call.  Results are bitwise-identical to calling
        :meth:`predict` per video, in order.

        Parameters
        ----------
        videos:
            Videos to run, in response order.
        batch_size:
            Executor batch granularity (bounds dedup bookkeeping).
        caches:
            Optional :class:`~repro.serving.cache.StageCaches` to
            reuse across calls (e.g. a service's warm caches); a fresh
            set is created otherwise.
        """
        from repro.errors import ConfigError
        from repro.serving.cache import StageCaches
        from repro.serving.executor import ChainBatchExecutor

        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        executor = ChainBatchExecutor(
            self, caches if caches is not None else StageCaches())
        results: list[ChainResult] = []
        for begin in range(0, len(videos), batch_size):
            outcomes, __ = executor.run_batch(videos[begin:begin + batch_size])
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
                results.append(outcome)
        return results

    # ------------------------------------------------------------------

    def _refine_description(self, video: Video,
                            description: FacialDescription) -> FacialDescription:
        """Test-time self-refinement (Table VIII): keep reflected
        candidates that verify at least as faithfully; no labels, no
        weight updates."""
        current = description
        current_score = self._verify(video, current, round_index=-1)
        for round_index in range(self.refine_rounds):
            candidate = self.model.reflect_description(
                video, current,
                GenerationConfig(
                    temperature=1.0,
                    seed=derive_seed(self.seed,
                                     f"ttr:{video.video_id}:{round_index}"),
                ),
                true_label=None,
            )
            if candidate == current:
                break
            candidate_score = self._verify(video, candidate, round_index)
            if candidate_score >= current_score:
                current, current_score = candidate, candidate_score
            else:
                break
        return current

    def _verify(self, video: Video, description: FacialDescription,
                round_index: int) -> float:
        return verification_score(
            self.model, video, description, self.verification_pool,
            num_trials=self.num_verify_trials,
            seed=derive_seed(self.seed, f"ttv:{video.video_id}:{round_index}"),
        )


#: The facade name the public API exports: ``repro.StressPipeline`` is
#: the documented way to reach the chain pipeline (the historical
#: ``StressChainPipeline`` name remains valid -- it is the same class).
StressPipeline = StressChainPipeline


# ----------------------------------------------------------------------
# The staged chain
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DescribeEntry:
    """The Describe stage's greedy draw and its rendered text (the
    response the I1 dialogue turn records)."""

    description: FacialDescription
    rendered: str


@dataclass(frozen=True, slots=True)
class AssessEntry:
    """The Assess stage's final (post in-context shift) logit and the
    prob/label floats derived from it."""

    logit: float
    prob: float
    label: int


@dataclass(frozen=True, slots=True)
class HighlightEntry:
    """The Highlight stage's rationale and its rendered text (``None``
    when the description names no action unit: the model then answers
    without recording an I3 turn)."""

    rationale: tuple[int, ...]
    rendered: str | None


@dataclass(frozen=True, slots=True)
class ChainCore:
    """The request-independent core of one chain run: everything a
    :class:`ChainResult` needs except its per-request session."""

    use_chain: bool
    description: FacialDescription | None
    greedy_render: str | None
    label: int
    prob: float
    rationale: tuple[int, ...]
    rationale_render: str | None
    elapsed_seconds: float

    def materialize(self, degraded: bool = False) -> ChainResult:
        """A fresh :class:`ChainResult` whose session records the
        chain's turns in serial order -- one per request, also for
        requests that share a core."""
        session = DialogueSession()
        if self.use_chain:
            session.record(DESCRIBE_INSTRUCTION, self.greedy_render)
        session.record(
            ASSESS_INSTRUCTION if self.use_chain else DIRECT_ASSESS_INSTRUCTION,
            "Stressed" if self.label == STRESSED else "Unstressed",
        )
        if self.rationale_render is not None:
            session.record(HIGHLIGHT_INSTRUCTION, self.rationale_render)
        return ChainResult(
            description=self.description,
            label=self.label,
            prob_stressed=self.prob,
            rationale=Rationale(self.rationale),
            session=session,
            elapsed_seconds=self.elapsed_seconds,
            degraded=degraded,
        )


class _ComputeAlways:
    """Serial ``predict``'s stage store: every stage computes, and
    nothing is hashed, looked up or kept."""

    @staticmethod
    def fetch(stage: str, key: Any, compute: Callable[[], Any]) -> Any:
        return compute()


_COMPUTE_ALWAYS = _ComputeAlways()


def run_stages(pipeline: StressChainPipeline, video: Video,
               store=_COMPUTE_ALWAYS, key: str | None = None, *,
               explain: bool = True,
               deadline: Deadline | None = None) -> ChainCore:
    """Run the Describe -> Assess -> Highlight chain on one video.

    Each stage gets its value from ``store.fetch(stage, stage_key,
    compute)``, where ``stage`` names the stage cache (``"describe"``,
    ``"assess"`` or ``"highlight"``) and ``stage_key`` extends ``key``,
    the video's content key, with the stage's inputs.  The default
    store computes every stage and needs no key.  The trunk embedding
    is computed at most once, on the first stage that computes, and
    handed to the model's video-level entry points.

    ``explain=False`` skips Highlight; ``deadline`` is checked at stage
    boundaries (see :meth:`StressChainPipeline.predict`).
    """
    model = pipeline.model
    start = time.perf_counter()
    embed = None

    def get_embed():
        nonlocal embed
        if embed is None:
            embed = model.embed_video(video)
        return embed

    def greedy_describe() -> DescribeEntry:
        def compute() -> DescribeEntry:
            description = model.describe(video, GREEDY, embed=get_embed())
            return DescribeEntry(description, description.render())
        return store.fetch("describe", key, compute)

    description: FacialDescription | None = None
    greedy_render: str | None = None
    if pipeline.use_chain:
        with span("chain.describe", refine=pipeline.test_time_refine):
            greedy = greedy_describe()
            description, greedy_render = greedy.description, greedy.rendered
            if pipeline.test_time_refine:
                description = store.fetch(
                    "describe", (key, "refined"),
                    lambda: pipeline._refine_description(
                        video, greedy.description))
        _check_deadline(deadline, "Describe")

    def compute_assess() -> AssessEntry:
        logit = model.assess_logit(video, description, embed=get_embed())
        if pipeline.retriever is not None and description is not None:
            examples = pipeline.retriever.retrieve(video, description)
            shift = incontext_logit_shift(description, examples)
            # In-context evidence sways the model where it is unsure;
            # a confident assessment barely moves (the gating mirrors
            # how prompt examples influence a real LFM's decision).
            confidence = abs(2.0 * float(sigmoid(np.array(logit))[()]) - 1.0)
            logit += shift * (1.0 - confidence)
        return AssessEntry(logit, float(sigmoid(np.array(logit))[()]),
                           STRESSED if logit > 0 else UNSTRESSED)

    with span("chain.assess", use_chain=pipeline.use_chain):
        assessed = store.fetch(
            "assess",
            (key, description.au_ids if description is not None else None),
            compute_assess)

    highlight = HighlightEntry((), None)
    if explain:
        _check_deadline(deadline, "Assess")
        with span("chain.highlight"):
            # w/o Chain still answers I3; it reads its greedy AU
            # estimate off the video when asked to point at cues.
            cues = (description if description is not None
                    else greedy_describe().description)

            def compute_highlight() -> HighlightEntry:
                rationale = model.highlight(video, cues, assessed.label,
                                            GREEDY, embed=get_embed())
                return HighlightEntry(
                    rationale,
                    _render_rationale(rationale) if cues.au_ids else None)

            highlight = store.fetch(
                "highlight", (key, cues.au_ids, assessed.label),
                compute_highlight)

    return ChainCore(
        use_chain=pipeline.use_chain,
        description=description,
        greedy_render=greedy_render,
        label=assessed.label,
        prob=assessed.prob,
        rationale=highlight.rationale,
        rationale_render=highlight.rendered,
        elapsed_seconds=time.perf_counter() - start,
    )


def _check_deadline(deadline: Deadline | None, stage: str) -> None:
    if deadline is not None and deadline.expired():
        raise DeadlineExceededError(
            f"predict deadline expired after the {stage} stage; "
            "no further model work was spent")
