"""The closed loop: offline training, streamed online selection, two-phase
retraining, and the 120-selection evaluation.

Online selections run the acquisition protocol end to end: a producer thread
serializes the simulated amplifier output into byte chunks while the consumer
decodes frames incrementally, reassembles the record, and classifies each
trial.  A selection is the majority vote over per-trial argmax winners; its
simulated latency is the flashing time of the trials themselves.
"""
from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import acquisition, dsp, features, lda
from .acquisition import ModelFile
from .core import N_IMAGES, ChannelSet, EegRecord
from .features import EpochWindow, LabeledDataset
from .scheduler import (
    ScenarioSchedule,
    TimingConfig,
    build_online_trial_schedule,
    build_scenario_schedule,
    durations,
)
from .subject import SubjectParams, simulate_subject, with_targets

DEFAULT_MISMATCH_S = 0.1
DEFAULT_TRIALS = 3
DEFAULT_REPS_PER_OBJECT = 10

_DEFAULT_OBJECTS = (
    (0, "house", "Take me to my house"),
    (1, "television", "Turn on the television"),
    (2, "telephone", "Bring me my telephone"),
    (3, "car", "Get my chauffeur prepare my car"),
    (4, "bed", "Take me to my bed"),
    (5, "coffee", "Get me a cup of coffee"),
    (6, "meal", "Prepare my meal"),
    (7, "bath", "Get my bath ready"),
    (8, "shopping cart", "Take me shopping"),
    (9, "internet modem", "Turn on the internet modem"),
    (10, "popcorn", "Bring me some popcorn"),
    (11, "heart", "Call my doctor immediately"),
)


@dataclass(frozen=True)
class ObjectCatalog:
    """The 12 selectable objects and the command message each one triggers."""

    entries: tuple[tuple[int, str, str], ...] = _DEFAULT_OBJECTS

    def __post_init__(self) -> None:
        ids = sorted(e[0] for e in self.entries)
        if ids != list(range(N_IMAGES)):
            raise ValueError("catalog must cover image ids 0..11 exactly once")

    def label(self, image_id: int) -> str:
        return self._entry(image_id)[1]

    def message(self, image_id: int) -> str:
        return self._entry(image_id)[2]

    def _entry(self, image_id: int):
        for entry in self.entries:
            if entry[0] == image_id:
                return entry
        raise KeyError(f"no catalog entry for image {image_id}")


@dataclass(frozen=True)
class PipelineConfig:
    """Feature-pipeline knobs shared by training and online use."""

    window: EpochWindow = EpochWindow()
    nan_threshold: float = features.DEFAULT_NAN_THRESHOLD
    shrinkage: float = lda.DEFAULT_SHRINKAGE
    use_ica: bool = False
    ica_kurtosis_threshold: float = 10.0
    ica_frontal_fraction: float = 0.6
    stream_chunk: int = acquisition.DEFAULT_CHUNK


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one online selection."""

    trial_winners: tuple[int, ...]
    per_image_scores: np.ndarray  # [n_trials x 12]
    selected: int
    latency_s: float
    message: str

    def __post_init__(self) -> None:
        scores = np.array(self.per_image_scores, dtype=np.float64, copy=True)
        scores.flags.writeable = False
        object.__setattr__(self, "per_image_scores", scores)
        object.__setattr__(self, "trial_winners", tuple(self.trial_winners))


def trial_winner(scores) -> int:
    """Argmax image id for one trial's 12 scores; ties go to the lowest id."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (N_IMAGES,):
        raise ValueError(f"need exactly {N_IMAGES} scores")
    if not np.isfinite(scores).all():
        raise ValueError("trial scores must be finite")
    return int(np.argmax(scores))


def majority_vote(trial_winners, per_image_scores) -> int:
    """Modal trial winner; score-sum tie-break, then lowest id.

    When several ids share the top vote count (e.g. a 1-1-1 split), the one
    with the highest summed score across trials wins; exact score ties fall
    back to the lowest id.
    """
    winners = list(trial_winners)
    if not winners:
        raise ValueError("need at least one trial winner")
    scores = np.asarray(per_image_scores, dtype=np.float64)
    counts = np.bincount(winners, minlength=N_IMAGES)
    candidates = np.flatnonzero(counts == counts.max())
    if len(candidates) == 1:
        return int(candidates[0])
    sums = scores.sum(axis=0)
    best = max(candidates, key=lambda i: (sums[i], -i))
    return int(best)


def _dataset(record: EegRecord, pipeline: PipelineConfig,
             ica_rng: np.random.Generator | None = None) -> LabeledDataset:
    return features.dataset_from_scenario(
        record,
        window=pipeline.window,
        nan_threshold=pipeline.nan_threshold,
        use_ica=pipeline.use_ica,
        ica_rng=ica_rng,
        ica_kurtosis_threshold=pipeline.ica_kurtosis_threshold,
        ica_frontal_fraction=pipeline.ica_frontal_fraction,
    )


def _bundle(model: lda.LdaModel, scaling: dsp.ScalingParams,
            channels: ChannelSet, window: EpochWindow) -> ModelFile:
    return ModelFile(weights=model.w, bias=model.b, mins=scaling.mins,
                     maxes=scaling.maxes, channels=tuple(channels),
                     window=window)


def train_on_dataset(dataset: LabeledDataset,
                     pipeline: PipelineConfig) -> ModelFile:
    """Fit scaling on the training vectors, then the discriminant."""
    return train_with_features(dataset, pipeline)[0]


def train_with_features(dataset: LabeledDataset, pipeline: PipelineConfig,
                        ) -> tuple[ModelFile, np.ndarray]:
    """`train_on_dataset`, plus the scaled training vectors it was fit on."""
    scaling = dsp.minmax_fit(dataset.vectors)
    scaled = dsp.minmax_apply(scaling, dataset.vectors)
    model = lda.train(scaled, dataset.labels, shrinkage=pipeline.shrinkage)
    return _bundle(model, scaling, dataset.channels, dataset.window), scaled


def score_vectors(model: ModelFile, vectors: np.ndarray) -> np.ndarray:
    """Scale raw feature vectors with the model's training scaling and score."""
    scaling = dsp.ScalingParams(mins=model.mins, maxes=model.maxes)
    scaled = dsp.minmax_apply(scaling, vectors)
    return scaled @ model.weights + model.bias


def run_offline_training(params: SubjectParams, timing: TimingConfig,
                         rng: np.random.Generator | None = None,
                         pipeline: PipelineConfig = PipelineConfig(),
                         ) -> tuple[ModelFile, EegRecord, ScenarioSchedule]:
    """Phase-1 training: simulate a full scenario and fit the model.

    Returns (model bundle, raw record, the schedule used), so callers can
    persist the record and replay its flashing orders online.
    """
    schedule = build_scenario_schedule(timing, None, rng)
    record = simulate_subject(schedule, params)
    dataset = _dataset(record, pipeline, ica_rng=rng)
    model = train_on_dataset(dataset, pipeline)
    return model, record, schedule


def _stream_roundtrip(record: EegRecord, chunk: int,
                      rng: np.random.Generator) -> EegRecord:
    """Producer thread -> byte chunks -> incremental consumer -> record.

    The producer serializes frames and pushes byte slices of random sizes; the
    consumer decodes as bytes arrive, tolerating arbitrary chunk boundaries.
    """
    chunk_queue: queue.Queue[bytes | None] = queue.Queue(maxsize=64)

    def produce() -> None:
        payload = b"".join(acquisition.encode_frame(f)
                           for f in acquisition.stream_record(record, chunk))
        pos = 0
        while pos < len(payload):
            size = int(rng.integers(1, 2048))
            chunk_queue.put(payload[pos:pos + size])
            pos += size
        chunk_queue.put(None)

    producer = threading.Thread(target=produce, name="amplifier-producer")
    producer.start()
    reader = acquisition.FrameReader()
    frames: list[acquisition.WireFrame] = []
    while True:
        data = chunk_queue.get()
        if data is None:
            break
        frames.extend(reader.feed(data))
    producer.join()
    if reader.pending_bytes:
        raise acquisition.ProtocolError("stream ended mid-frame")
    return acquisition.reassemble(frames)


def run_online_selection(model: ModelFile, params: SubjectParams,
                         catalog: ObjectCatalog, target: int,
                         n_trials: int = DEFAULT_TRIALS,
                         rng: np.random.Generator | None = None,
                         timing: TimingConfig = TimingConfig(),
                         pipeline: PipelineConfig = PipelineConfig(),
                         sequences=None,
                         ) -> tuple[SelectionResult, EegRecord]:
    """One live selection: simulate, stream, classify, vote.

    The subject attends `target`; the decision pipeline never sees that, but
    the returned logged record keeps ground-truth labels for retraining.
    """
    if rng is None:
        rng = np.random.default_rng()
    blind = build_online_trial_schedule(timing, n_trials, rng,
                                        sequences=sequences)
    schedule = with_targets(blind, target)
    record = simulate_subject(schedule, params)
    logged = _stream_roundtrip(record, pipeline.stream_chunk, rng)

    dataset = _dataset(logged, pipeline, ica_rng=rng)
    if tuple(dataset.channels) != model.channels:
        raise ValueError(
            f"model was trained on channels {model.channels}, "
            f"online data yields {tuple(dataset.channels)}")
    if dataset.window != model.window:
        raise ValueError("model epoch window differs from pipeline window")
    raw_scores = score_vectors(model, dataset.vectors)

    per_image = np.full((n_trials, N_IMAGES), np.nan)
    for (run, _sess, image_id), value in zip(dataset.provenance, raw_scores):
        per_image[run, image_id] = value
    winners = tuple(trial_winner(per_image[t]) for t in range(n_trials))
    selected = majority_vote(winners, per_image)

    isi = Fraction(str(timing.d_flash)) + Fraction(str(timing.d_no_flash))
    latency = float(n_trials * isi * timing.images
                    + (n_trials - 1) * Fraction(str(timing.d_run_interval)))
    result = SelectionResult(trial_winners=winners, per_image_scores=per_image,
                             selected=selected, latency_s=latency,
                             message=catalog.message(selected))
    return result, logged


def retrain_from_online(logged_records, pipeline: PipelineConfig = PipelineConfig(),
                        rng: np.random.Generator | None = None) -> ModelFile:
    """Second training phase: rebuild the dataset from online logs and refit."""
    logged_records = list(logged_records)
    if not logged_records:
        raise ValueError("no logged records to retrain from")
    parts = [_dataset(rec, pipeline, ica_rng=rng) for rec in logged_records]
    channels = parts[0].channels
    for part in parts:
        if tuple(part.channels) != tuple(channels):
            raise ValueError("logged records disagree on surviving channels")
    vectors = np.vstack([p.vectors for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    provenance = tuple(pv for p in parts for pv in p.provenance)
    if labels.sum() < 2 or (~labels).sum() < 2:
        raise ValueError("need at least two examples of each class to retrain")
    dataset = LabeledDataset(vectors=vectors, labels=labels,
                             provenance=provenance, channels=channels,
                             window=pipeline.window)
    return train_on_dataset(dataset, pipeline)


def cross_validated_auc(dataset: LabeledDataset,
                        pipeline: PipelineConfig = PipelineConfig()) -> float:
    """Leave-one-session-out AUC of the discriminant scores.

    Each fold's model is, up to rounding, the one `train_on_dataset` would
    fit on the other sessions: min-max scaling fit on them, then shrinkage
    LDA.  It is derived from statistics shared by all folds rather than
    refit from the fold's rows; see `_cross_validated_scores`.  The held-out
    rows are scaled with `dsp.minmax_apply` (clipping included) and scored.
    Raises ValueError for fewer than two sessions, or when a fold's training
    part lacks a class.
    """
    return _auc(_cross_validated_scores(dataset, pipeline.shrinkage),
                dataset.labels)


def _cross_validated_scores(dataset: LabeledDataset,
                            shrinkage: float) -> np.ndarray:
    """Held-out discriminant score of every epoch, one fold per session.

    The class statistics of the whole dataset are computed once.  A fold
    removes its session's statistics from them exactly (the pooled-scatter
    downdate in `lda.ClassStatistics.without`), then applies its min-max
    scaling as the diagonal map D, giving the scatter D S D.  Training rows
    lie within their own min and max, so the clip of `minmax_apply` does
    nothing to them and this is the same algebra as scaling the rows and
    refitting; the fold's min and max come from per-session ones.
    """
    session_of = np.array([sess for _run, sess, _img in dataset.provenance])
    sessions = np.unique(session_of)
    if len(sessions) < 2:
        raise ValueError("need at least two sessions for cross-validation")
    vectors, labels = dataset.vectors, dataset.labels
    whole = lda.ClassStatistics.of(vectors, labels)
    held_rows = [session_of == sess for sess in sessions]
    session_mins = np.array([vectors[held].min(axis=0) for held in held_rows])
    session_maxes = np.array([vectors[held].max(axis=0) for held in held_rows])
    scores = np.empty(dataset.n_epochs)
    for i, held in enumerate(held_rows):
        others = np.arange(len(sessions)) != i
        scaling = dsp.ScalingParams(mins=session_mins[others].min(axis=0),
                                    maxes=session_maxes[others].max(axis=0))
        # One expression, so each intermediate d x d statistic is freed as
        # soon as the next is made; this keeps the peak memory down.
        model = whole.without(
            lda.ClassStatistics.of(vectors[held], labels[held])
        ).scaled(scaling.mins, scaling.factors).solve(shrinkage)
        scores[held] = (dsp.minmax_apply(scaling, vectors[held])
                        @ model.w + model.b)
    return scores


def _auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based area under the ROC curve (ties get half credit)."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    # average ranks over exact ties
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = ranks[order[i:j + 1]].mean()
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _phase_sequences(schedule: ScenarioSchedule, target: int,
                     round_index: int, n_trials: int):
    """Replay slice of the training session that prescribed `target`.

    Round r reuses that session's runs starting at (r * n_trials) mod
    runs_per_session, wrapping cyclically, so consecutive rounds walk through
    the recorded flashing orders exactly as they were acquired.
    """
    position = list(schedule.session_targets).index(target)
    runs_per_session = schedule.timing.runs_per_session
    by_run: dict[int, list[tuple[int, int]]] = {}
    for ev in schedule.events:
        if ev.session_index == position:
            by_run.setdefault(ev.run_index, []).append(
                (ev.onset_sample, ev.image_id))
    sequences = []
    for run in sorted(by_run):
        sequences.append([img for _s, img in sorted(by_run[run])])
    start = (round_index * n_trials) % runs_per_session
    return [sequences[(start + i) % runs_per_session] for i in range(n_trials)]


@dataclass(frozen=True)
class EvaluationPhase:
    """Accuracy bookkeeping for one online phase."""

    correct: int
    total: int
    per_object_correct: tuple[int, ...]
    per_object_total: tuple[int, ...]

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


def _run_phase(model: ModelFile, base_params: SubjectParams,
               catalog: ObjectCatalog, timing: TimingConfig,
               pipeline: PipelineConfig, n_trials: int, reps: int,
               mismatch: float, seed_seq: np.random.SeedSequence,
               training_schedule: ScenarioSchedule | None,
               collect_logs: bool):
    """reps rounds over all 12 objects in turn; returns (phase, logs, results)."""
    per_correct = [0] * N_IMAGES
    per_total = [0] * N_IMAGES
    logs: list[EegRecord] = []
    results: list[SelectionResult] = []
    round_seeds = seed_seq.spawn(reps * N_IMAGES)
    i = 0
    for round_index in range(reps):
        for target in range(N_IMAGES):
            child = round_seeds[i]
            i += 1
            subject_seed, stream_seed = child.spawn(2)
            params = replace(base_params, constant_offset=mismatch,
                             seed=subject_seed)
            sequences = None
            if training_schedule is not None:
                sequences = _phase_sequences(training_schedule, target,
                                             round_index, n_trials)
            result, logged = run_online_selection(
                model, params, catalog, target, n_trials=n_trials,
                rng=np.random.default_rng(stream_seed), timing=timing,
                pipeline=pipeline, sequences=sequences)
            per_total[target] += 1
            if result.selected == target:
                per_correct[target] += 1
            if collect_logs:
                logs.append(logged)
            results.append(result)
    phase = EvaluationPhase(correct=sum(per_correct), total=sum(per_total),
                            per_object_correct=tuple(per_correct),
                            per_object_total=tuple(per_total))
    return phase, logs, results


def run_full_evaluation(params: SubjectParams,
                        catalog: ObjectCatalog | None = None,
                        seed: int = 0,
                        timing: TimingConfig = TimingConfig(),
                        pipeline: PipelineConfig = PipelineConfig(),
                        n_trials: int = DEFAULT_TRIALS,
                        reps_per_object: int = DEFAULT_REPS_PER_OBJECT,
                        mismatch: float = DEFAULT_MISMATCH_S) -> dict:
    """Two-phase closed-loop evaluation; returns the report as a plain dict.

    Phase 1 trains offline, then runs reps_per_object selections per object
    under the timing mismatch while replaying the training flashing orders.
    Phase 2 retrains on those logs and repeats the selections with fresh
    random orders.  Everything derives from `seed`, so reports are identical
    across runs (wall_clock_seconds aside).
    """
    if catalog is None:
        catalog = ObjectCatalog()
    started = time.perf_counter()
    root = np.random.SeedSequence(seed)
    train_seq, phase1_seq, phase2_seq = root.spawn(3)
    schedule_seq, subject_seq = train_seq.spawn(2)

    train_params = replace(params, constant_offset=0.0, seed=subject_seq)
    model1, _record, training_schedule = run_offline_training(
        train_params, timing, rng=np.random.default_rng(schedule_seq),
        pipeline=pipeline)

    phase1, logs, _ = _run_phase(
        model1, params, catalog, timing, pipeline, n_trials, reps_per_object,
        mismatch, phase1_seq, training_schedule, collect_logs=True)

    model2 = retrain_from_online(logs, pipeline)

    phase2, _, _ = _run_phase(
        model2, params, catalog, timing, pipeline, n_trials, reps_per_object,
        mismatch, phase2_seq, training_schedule=None, collect_logs=False)

    d_run, d_session, d_scenario = durations(timing)
    isi = Fraction(str(timing.d_flash)) + Fraction(str(timing.d_no_flash))
    latency = float(n_trials * isi * timing.images
                    + (n_trials - 1) * Fraction(str(timing.d_run_interval)))
    report = {
        "phase1": _phase_dict(phase1, catalog),
        "phase2": _phase_dict(phase2, catalog),
        "latency": {
            "per_selection_s": latency,
            "n_trials": n_trials,
        },
        "timing": {
            "d_run_s": d_run,
            "d_session_s": d_session,
            "d_scenario_s": d_scenario,
        },
        "config": {
            "seed": seed,
            "mismatch_s": mismatch,
            "reps_per_object": reps_per_object,
            "subject": _subject_dict(params),
            "timing": _timing_dict(timing),
            "pipeline": _pipeline_dict(pipeline),
        },
        "wall_clock_seconds": time.perf_counter() - started,
    }
    return report


def _phase_dict(phase: EvaluationPhase, catalog: ObjectCatalog) -> dict:
    return {
        "correct": phase.correct,
        "total": phase.total,
        "accuracy": phase.accuracy,
        "per_object": [
            {"image_id": i, "label": catalog.label(i),
             "correct": phase.per_object_correct[i],
             "total": phase.per_object_total[i]}
            for i in range(N_IMAGES)
        ],
    }


def _subject_dict(params: SubjectParams) -> dict:
    return {
        "background_rms": params.background_rms,
        "alpha_amp": params.alpha_amp,
        "p300_amp": params.p300_amp,
        "p300_peak_latency": params.p300_peak_latency,
        "p300_width": params.p300_width,
        "blink_rate": params.blink_rate,
        "blink_amp": params.blink_amp,
        "nan_channel": params.nan_channel,
        "nan_fraction": params.nan_fraction,
        "latency_jitter_sd": params.latency_jitter_sd,
        "p300_topography": (None if params.p300_topography is None
                            else list(params.p300_topography)),
    }


def _timing_dict(timing: TimingConfig) -> dict:
    return {
        "d_flash": timing.d_flash,
        "d_no_flash": timing.d_no_flash,
        "d_run_interval": timing.d_run_interval,
        "d_inf": timing.d_inf,
        "d_adapt": timing.d_adapt,
        "runs_per_session": timing.runs_per_session,
        "sessions_per_scenario": timing.sessions_per_scenario,
        "images": timing.images,
    }


def _pipeline_dict(pipeline: PipelineConfig) -> dict:
    return {
        "window_start_offset": pipeline.window.start_offset,
        "window_length": pipeline.window.length,
        "nan_threshold": pipeline.nan_threshold,
        "shrinkage": pipeline.shrinkage,
        "use_ica": pipeline.use_ica,
    }
