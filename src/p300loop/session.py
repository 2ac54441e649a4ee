"""The closed loop: offline training, streamed online selection, two-phase
retraining, and the 120-selection evaluation.

Online selections run the acquisition protocol end to end: the simulated
amplifier output is encoded to wire bytes (`acquisition.encode_record`) and
decoded back from slices cut at `acquisition.RECV_BYTES`, the stream
consumer's largest read (`acquisition.decode_record`).  The cut is chosen,
not a model of live traffic; in a default selection it falls inside a
frame, so the reader's carry-over is exercised.  The record's model
channels run once through the model's pipeline; its labelled epochs are
scored, one row of 12 image scores per trial, and logged, so retraining
extracts nothing.  `votes`, the consumer's rule too, selects; the latency
is the trials' flashing time.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import acquisition, dsp, features, lda
from .acquisition import ModelFile
from .core import N_IMAGES, EegRecord, set_readonly
from .features import LabeledDataset, PipelineConfig
from .scheduler import (
    ScenarioSchedule,
    TimingConfig,
    build_online_trial_schedule,
    build_scenario_schedule,
    durations,
    online_grid,
)
from .subject import SubjectParams, simulate_subject

DEFAULT_MISMATCH_S = 0.1
DEFAULT_TRIALS = 3
DEFAULT_REPS_PER_OBJECT = 10
_RETRAIN_BLOCK = 1024  # fewest epochs per merge of the retraining statistics

OBJECTS = (  # (label, message) of each image id
    ("house", "Take me to my house"),
    ("television", "Turn on the television"),
    ("telephone", "Bring me my telephone"),
    ("car", "Get my chauffeur prepare my car"),
    ("bed", "Take me to my bed"),
    ("coffee", "Get me a cup of coffee"),
    ("meal", "Prepare my meal"),
    ("bath", "Get my bath ready"),
    ("shopping cart", "Take me shopping"),
    ("internet modem", "Turn on the internet modem"),
    ("popcorn", "Bring me some popcorn"),
    ("heart", "Call my doctor immediately"),
)


class ObjectCatalog:
    """The 12 selectable objects and the command message each one triggers."""

    def label(self, image_id: int) -> str:
        return self._entry(image_id)[0]

    def message(self, image_id: int) -> str:
        return self._entry(image_id)[1]

    @staticmethod
    def _entry(image_id: int) -> tuple[str, str]:
        if not 0 <= image_id < N_IMAGES:
            raise KeyError(f"no catalog entry for image {image_id}")
        return OBJECTS[image_id]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one online selection."""

    trial_winners: tuple[int, ...]
    per_image_scores: np.ndarray  # [n_trials x 12]
    selected: int
    latency_s: float
    message: str

    def __post_init__(self) -> None:
        set_readonly(self, "per_image_scores", self.per_image_scores)
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
    sums = scores.sum(axis=0)
    best = max(candidates, key=lambda i: (sums[i], -i))
    return int(best)


def trial_scores(provenance, scores) -> np.ndarray:
    """[n_runs x 12] per-image score table, one row per (session, run).

    `provenance` holds the (run, session, image_id) of each score in any
    order, as in `LabeledDataset.provenance`; rows come in (session, run)
    order.  Raises ValueError unless every run flashed each image exactly once.
    """
    keys = np.asarray(provenance, dtype=np.int64).reshape(-1, 3)
    order = np.lexsort((keys[:, 2], keys[:, 0], keys[:, 1]))
    keys, slot = keys[order], np.arange(len(keys))
    opens = keys[slot - slot % N_IMAGES]  # the row that opens each run
    bad = ((keys[:, 2] != slot % N_IMAGES)
           | (keys[:, :2] != opens[:, :2]).any(axis=1))
    bad[-1:] |= len(keys) % N_IMAGES != 0
    if bad.any():
        run, sess, _ = opens[np.argmax(bad)].tolist()
        raise ValueError(f"run {(sess, run)} is not one flash per image")
    return np.asarray(scores, dtype=np.float64)[order].reshape(-1, N_IMAGES)


def vote(table) -> tuple[tuple[int, ...], int]:
    """(trial winners, selected image) of a [n_trials x 12] score table."""
    winners = tuple(trial_winner(row) for row in table)
    return winners, majority_vote(winners, table)


def votes(table, n_trials: int):
    """([(trial winners, selected image)], trailing rows left over): one
    `vote` per `n_trials` consecutive rows of a score table, in its
    (session, run) order; the last rows too few to vote are only counted."""
    n_votes, n_left = divmod(len(table), n_trials)
    return [vote(table[i:i + n_trials])
            for i in range(0, n_votes * n_trials, n_trials)], n_left


def train_on_dataset(dataset: LabeledDataset,
                     pipeline: PipelineConfig) -> ModelFile:
    """Fit scaling on the training vectors, then the discriminant; the model
    stores `pipeline`, which built `dataset`, as the one it is served with."""
    return _fit(dataset.statistics, dsp.minmax_fit(dataset.vectors),
                dataset.channels, pipeline)


def _fit(stats: lda.ClassStatistics, scaling: dsp.ScalingParams, channels,
         pipeline: PipelineConfig) -> ModelFile:
    """The model of raw training rows from their statistics and min-max
    scaling: the discriminant of the rows (x - mins) * factors, exactly the
    rows `minmax_apply` makes of them, as they lie in [0, 1]."""
    model = stats.solve_scaled(scaling.mins, scaling.factors,
                               pipeline.shrinkage)
    return ModelFile(weights=model.w, bias=model.b, scaling=scaling,
                     channels=tuple(channels), pipeline=pipeline)


def score_vectors(model: ModelFile, vectors, channels) -> np.ndarray:
    """Scale raw feature vectors with the model's training scaling and score;
    raises ValueError unless `channels`, the vectors' own, are the model's."""
    if tuple(channels) != model.channels:
        raise ValueError(
            f"model was trained on channels {model.channels}, "
            f"online data yields {tuple(channels)}")
    scaled = dsp.minmax_apply(model.scaling, vectors)
    return scaled @ model.weights + model.bias


def score_table(model: ModelFile, record: EegRecord) -> np.ndarray:
    """[n_runs x 12] score table of a record under a trained model.

    The record's model channels run through the model's pipeline.  Scoring
    reads no target flag, so a live stream's unknown ones are fine.  Raises
    KeyError for a missing model channel, ValueError for a pruned one; rows
    are as `trial_scores` builds them.
    """
    vectors, channels = features.epoch_features(
        record.with_channels(model.channels), model.pipeline)
    return trial_scores(record.markers.provenance,
                        score_vectors(model, vectors, channels))


def run_offline_training(params: SubjectParams, timing: TimingConfig,
                         rng: np.random.Generator,
                         pipeline: PipelineConfig = PipelineConfig(),
                         ) -> tuple[ModelFile, EegRecord, ScenarioSchedule]:
    """Phase-1 training: simulate a full scenario and fit the model.

    Returns (model bundle, raw record, the schedule used), so callers can
    persist the record and replay its flashing orders online.
    """
    schedule = build_scenario_schedule(timing, None, rng)
    record = simulate_subject(schedule, params)
    dataset = features.dataset_from_scenario(record, pipeline=pipeline)
    model = train_on_dataset(dataset, pipeline)
    return model, record, schedule


def run_online_selection(model: ModelFile, params: SubjectParams,
                         catalog: ObjectCatalog, target: int,
                         n_trials: int = DEFAULT_TRIALS, *,
                         rng: np.random.Generator,
                         timing: TimingConfig = TimingConfig(),
                         sequences=None,
                         ) -> tuple[SelectionResult, LabeledDataset]:
    """One live selection: simulate, stream, classify, vote.

    The subject attends `target`; the decision pipeline never sees that, but
    the returned log, the epochs it scored, carries the labels to retrain on.
    The wire bytes are decoded from slices cut every `RECV_BYTES`; `rng`
    draws only the flashing orders, and nothing when `sequences` gives them.
    """
    schedule = build_online_trial_schedule(timing, n_trials, rng,
                                           sequences=sequences, target=target)
    record = simulate_subject(schedule, params)
    payload = acquisition.encode_record(record, acquisition.DEFAULT_CHUNK)
    received = acquisition.decode_record(
        payload[i:i + acquisition.RECV_BYTES]
        for i in range(0, len(payload), acquisition.RECV_BYTES))
    logged = features.dataset_from_scenario(
        received.with_channels(model.channels), model.pipeline)
    per_image = trial_scores(logged.provenance, score_vectors(
        model, logged.vectors, logged.channels))
    [(winners, selected)], _ = votes(per_image, n_trials)

    result = SelectionResult(trial_winners=winners, per_image_scores=per_image,
                             selected=selected, latency_s=schedule.span_s,
                             message=catalog.message(selected))
    return result, logged


def retrain_from_online(model: ModelFile, logs) -> ModelFile:
    """Second training phase: refit `model` on the logs of its selections.

    `logs`, the `run_online_selection` datasets, is any iterable, consumed
    once and lazily, and no log is kept: its rows are copied into one reused
    buffer, whose blocks of at least `_RETRAIN_BLOCK` rows fold into
    per-feature extremes and class statistics (`lda.ClassStatistics.merged`).
    The model is, up to rounding, `train_on_dataset`'s on the stacked logs,
    with `model`'s channels and pipeline; other channels raise ValueError."""
    rows, flags = np.empty((0, len(model.weights))), np.empty(0, bool)
    stats, extremes, n = lda.ClassStatistics.of(rows, flags), [], 0

    def fold():
        nonlocal stats, n
        stats = stats.merged(rows[:n], flags[:n])
        extremes.extend((rows[:n].min(axis=0), rows[:n].max(axis=0)))
        n = 0

    for log in logs:
        if tuple(log.channels) != model.channels:
            raise ValueError(f"a log is not of the channels {model.channels}")
        end = n + log.n_epochs
        if end > len(rows):  # room for a whole block more; keeps rows[:n]
            rows = np.resize(rows, (end + _RETRAIN_BLOCK, rows.shape[1]))
            flags = np.resize(flags, end + _RETRAIN_BLOCK)
        rows[n:end], flags[n:end] = log.vectors, log.labels
        n = end
        if n >= _RETRAIN_BLOCK:
            fold()
    if n:
        fold()
    if min(stats.counts) < 2:
        raise ValueError("need at least two examples of each class to retrain")
    return _fit(stats, dsp.minmax_fit(extremes), model.channels, model.pipeline)


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

    The whole dataset's class statistics (`LabeledDataset.statistics`, which
    training shares) serve every fold.  A fold downdates them by its session
    and solves under its min-max scaling
    (`lda.ClassStatistics.solve_without`): the fit `_fit` makes of the other
    sessions, whose factors scale its held-out rows.  The fold's min and
    max are those of per-session ones.
    """
    session_of = dataset.provenance[:, 1]
    sessions = np.unique(session_of)
    if len(sessions) < 2:
        raise ValueError("need at least two sessions for cross-validation")
    vectors, labels, whole = dataset.vectors, dataset.labels, dataset.statistics
    held_rows = [session_of == sess for sess in sessions]
    extremes = np.array([(vectors[held].min(axis=0), vectors[held].max(axis=0))
                         for held in held_rows])
    scores = np.empty(dataset.n_epochs)
    for i, held in enumerate(held_rows):
        others = np.arange(len(sessions)) != i
        scaling = dsp.minmax_fit(extremes[others].reshape(-1, vectors.shape[1]))
        rows = vectors[held]
        model = whole.solve_without(rows, labels[held], scaling.mins,
                                    scaling.factors, shrinkage)
        scores[held] = dsp.minmax_apply(scaling, rows) @ model.w + model.b
    return scores


def _auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based area under the ROC curve (ties get half credit)."""
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    ranks = _average_ranks(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """Ranks from 1, exact ties sharing their average: a run of c equal
    scores that ends at rank r holds ranks r - c + 1 .. r."""
    _, run, counts = np.unique(scores, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[run]


def _phase_sequences(schedule: ScenarioSchedule, target: int,
                     round_index: int, n_trials: int):
    """Replay slice of training session `target`, which attended it.

    Round r reuses that session's runs starting at (r * n_trials) mod
    runs_per_session, wrapping cyclically, so consecutive rounds walk through
    the recorded flashing orders exactly as they were acquired.
    """
    events = schedule.events  # in onset order, a session's runs in turn
    runs = events.image[events.session == target].reshape(-1, N_IMAGES)
    first = round_index * n_trials
    return runs.take(range(first, first + n_trials), axis=0, mode="wrap").tolist()


def run_full_evaluation(params: SubjectParams,
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
    random orders.  Both phases run through one local generator, which
    `retrain_from_online` consumes once in phase 1: each selection's scored
    epochs are folded as it ends, and none is kept, so memory does not grow
    with the number of selections.  Everything derives from `seed`, so
    reports are identical across runs (wall_clock_seconds aside).
    """
    if timing.sessions_per_scenario != N_IMAGES:  # one per object, replayed
        raise ValueError(f"the evaluation needs sessions_per_scenario = "
                         f"{N_IMAGES}, not {timing.sessions_per_scenario}")
    per_selection_s = online_grid(timing, n_trials)[1]  # refused before training
    catalog = ObjectCatalog()
    started = time.perf_counter()
    train_seq, phase1_seq, phase2_seq = np.random.SeedSequence(seed).spawn(3)
    schedule_seq, subject_seq = train_seq.spawn(2)

    train_params = replace(params, constant_offset=0.0, seed=subject_seq)
    model1, record, training_schedule = run_offline_training(
        train_params, timing, rng=np.random.default_rng(schedule_seq),
        pipeline=pipeline)
    del record  # the offline record is not needed past training

    def phase(model, seed_seq, replayed, hits):
        """reps_per_object rounds over the 12 objects in turn, replaying the
        flashing orders of `replayed` unless it is None: yields each
        selection's log as soon as it ends, and counts its hit in `hits`."""
        for i, child in enumerate(seed_seq.spawn(reps_per_object * N_IMAGES)):
            round_index, target = divmod(i, N_IMAGES)
            subject_seed, stream_seed = child.spawn(2)
            sequences = None if replayed is None else _phase_sequences(
                replayed, target, round_index, n_trials)
            result, logged = run_online_selection(
                model, replace(params, constant_offset=mismatch,
                               seed=subject_seed),
                catalog, target, n_trials=n_trials,
                rng=np.random.default_rng(stream_seed), timing=timing,
                sequences=sequences)
            hits[target] += int(result.selected == target)
            yield logged

    hits1, hits2 = [0] * N_IMAGES, [0] * N_IMAGES
    model2 = retrain_from_online(
        model1, phase(model1, phase1_seq, training_schedule, hits1))
    for _ in phase(model2, phase2_seq, None, hits2):
        pass

    return {
        "phase1": _phase_dict(hits1, reps_per_object, catalog),
        "phase2": _phase_dict(hits2, reps_per_object, catalog),
        "latency": {
            "per_selection_s": per_selection_s,
            "n_trials": n_trials,
        },
        "timing": dict(zip(("d_run_s", "d_session_s", "d_scenario_s"),
                           durations(timing))),
        "config": {
            "seed": seed,
            "mismatch_s": mismatch,
            "reps_per_object": reps_per_object,
            "subject": _subject_dict(params),
            "timing": asdict(timing),
            "pipeline": _pipeline_dict(pipeline),
        },
        "wall_clock_seconds": time.perf_counter() - started,
    }


def _phase_dict(hits: list[int], reps: int, catalog: ObjectCatalog) -> dict:
    """One phase's report: its hits per object, of `reps` selections each."""
    correct, total = sum(hits), reps * N_IMAGES
    return {
        "correct": correct,
        "total": total,
        "accuracy": correct / total,
        "per_object": [
            {"image_id": i, "label": catalog.label(i), "correct": hits[i],
             "total": reps}
            for i in range(N_IMAGES)
        ],
    }


def _subject_dict(params: SubjectParams) -> dict:
    """The subject fields but `constant_offset` and `seed`, which the report
    gives as `mismatch_s` and `seed`; `p300_topography` comes last."""
    subject = asdict(params)
    del subject["constant_offset"], subject["seed"]
    subject["p300_topography"] = subject.pop("p300_topography")
    return subject


def _pipeline_dict(pipeline: PipelineConfig) -> dict:
    """The pipeline fields, the window's flattened first as `window_*`."""
    fields = asdict(pipeline)
    window = fields.pop("window")
    return {f"window_{name}": value for name, value in window.items()} | fields
