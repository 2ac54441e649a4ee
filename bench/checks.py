"""Output checks computed apart from the program.

Each check takes plain arrays and numbers, recomputes the expected value with
its own arithmetic, and returns a list of problems (empty when the output is
right).  Only numpy and the standard library are used here, so a fault in the
program's vote, timing or discriminant code cannot hide in the check.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

N_IMAGES = 12

# The paper's timing: 0.2 s flash, 0.1 s gap, 0.2 s between trials.
D_FLASH = Fraction(1, 5)
D_NO_FLASH = Fraction(1, 10)
D_RUN_INTERVAL = Fraction(1, 5)
N_TRIALS = 3
SELECTION_LATENCY = (N_TRIALS * N_IMAGES * (D_FLASH + D_NO_FLASH)
                     + (N_TRIALS - 1) * D_RUN_INTERVAL)  # 56/5 s = 11.2 s

# Phase 2 must reach the paper's 90.83% online accuracy: 109 of 120.
PAPER_PHASE2_CORRECT = 109
# `p300loop train` uses this shrinkage unless told otherwise.
SHRINKAGE = 1e-3
# 14 channels less the FC5 dropout, times a 65-sample epoch.
MODEL_CHANNELS = 13
EPOCH_SAMPLES = 65


def expected_vote(scores) -> tuple[tuple[int, ...], int]:
    """(trial winners, selection) from a [n_trials x 12] score table.

    Per trial the highest score wins, the lowest id on ties; the selection is
    the modal winner, ties broken by the larger score sum over all trials,
    then by the lowest id.
    """
    table = np.asarray(scores, dtype=np.float64)
    winners = []
    for row in table:
        best = 0
        for image in range(1, len(row)):
            if row[image] > row[best]:
                best = image
        winners.append(best)
    counts = [winners.count(image) for image in range(table.shape[1])]
    top = max(counts)
    sums = [float(sum(row[image] for row in table))
            for image in range(table.shape[1])]
    selected = None
    for image in range(table.shape[1]):
        if counts[image] != top:
            continue
        if selected is None or sums[image] > sums[selected]:
            selected = image
    return tuple(winners), selected


def check_selection(scores, trial_winners, selected, latency_s) -> list[str]:
    """One online selection: score table shape, vote and latency."""
    problems = []
    table = np.asarray(scores, dtype=np.float64)
    if table.shape != (N_TRIALS, N_IMAGES):
        return [f"score table has shape {table.shape}, "
                f"expected {(N_TRIALS, N_IMAGES)}"]
    if not np.isfinite(table).all():
        return ["score table holds non-finite values"]
    winners, vote = expected_vote(table)
    if tuple(trial_winners) != winners:
        problems.append(f"trial winners {tuple(trial_winners)} != {winners}")
    if selected != vote:
        problems.append(f"selected {selected} != recomputed vote {vote}")
    if latency_s != float(SELECTION_LATENCY):
        problems.append(f"latency {latency_s!r} s != "
                        f"{float(SELECTION_LATENCY)!r} s")
    return problems


def check_phase2(correct: int, total: int,
                 floor: int = PAPER_PHASE2_CORRECT) -> list[str]:
    if correct < floor:
        return [f"phase 2 got {correct}/{total}, needs at least {floor}"]
    return []


def check_loaded_record(saved_samples, saved_markers, loaded_samples,
                        loaded_markers) -> list[str]:
    """A loaded record equals the float32 rounding of the saved one."""
    expected = np.asarray(saved_samples, dtype=np.float64)
    expected = expected.astype(np.float32).astype(np.float64)
    got = np.asarray(loaded_samples)
    if got.shape != expected.shape:
        return [f"loaded samples have shape {got.shape}, "
                f"expected {expected.shape}"]
    problems = []
    if not np.array_equal(np.isnan(got), np.isnan(expected)):
        problems.append("NaN positions differ from the saved record")
    elif not np.array_equal(got, expected, equal_nan=True):
        problems.append("samples differ from the float32 rounding of the "
                        "saved record")
    if tuple(loaded_markers) != tuple(saved_markers):
        problems.append("markers differ from the saved record")
    return problems


def shrinkage_lda_direction(vectors, labels,
                            shrinkage: float = SHRINKAGE) -> np.ndarray:
    """Unit discriminant direction from min-max-scaled features, in numpy."""
    x = np.asarray(vectors, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    scaled = np.where(span > 0, (x - lo) / np.where(span > 0, span, 1.0), 0.0)
    pos, neg = scaled[y], scaled[~y]
    m1, m2 = pos.mean(axis=0), neg.mean(axis=0)
    d = scaled.shape[1]
    within = ((pos - m1).T @ (pos - m1) + (neg - m2).T @ (neg - m2))
    within /= max(len(scaled) - 2, 1)
    regularized = (1 - shrinkage) * within
    regularized += shrinkage * np.trace(within) / d * np.eye(d)
    w = np.linalg.solve(regularized, m1 - m2)
    return w / np.linalg.norm(w)


def check_model(weights, n_channels: int, window_length: int,
                vectors, labels) -> list[str]:
    """Written weights: 13 x 65, finite, unit norm, the LDA direction."""
    if (n_channels, window_length) != (MODEL_CHANNELS, EPOCH_SAMPLES):
        return [f"model is {n_channels} channels x {window_length} samples, "
                f"expected {MODEL_CHANNELS} x {EPOCH_SAMPLES}"]
    w = np.asarray(weights, dtype=np.float64)
    size = n_channels * window_length
    if w.shape != (size,):
        return [f"model has {w.shape} weights, expected ({size},)"]
    if not np.isfinite(w).all():
        return ["model weights are not all finite"]
    problems = []
    norm = float(np.linalg.norm(w))
    if abs(norm - 1.0) > 1e-9:
        problems.append(f"weight norm {norm!r} is not 1")
    reference = shrinkage_lda_direction(vectors, labels)
    cosine = float(w @ reference) / norm
    if not cosine >= 1 - 1e-9:
        problems.append(f"weight direction has cosine {cosine!r} with the "
                        "numpy shrinkage-LDA solve")
    return problems
