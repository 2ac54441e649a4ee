#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each check first accepts a real output of the program, then must reject the
same output after a deliberate corruption: a flipped vote, a moved trial
winner, a wrong latency, a perturbed or moved sample, a changed marker, a NaN
weight, a rotated weight vector, a short phase.  Exits 0 when every check
behaves, 1 otherwise.
"""
import os
import sys
from dataclasses import replace
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tempfile  # noqa: E402

import numpy as np  # noqa: E402
from p300loop import (  # noqa: E402
    acquisition,
    features,
    scheduler,
    session,
    subject,
)

import checks  # noqa: E402

failures = []


def expect(name: str, problems: list, should_pass: bool) -> None:
    ok = (not problems) == should_pass
    verdict = "ok  " if ok else "FAIL"
    seen = problems[0] if problems else "accepted"
    print(f"{verdict} {name}: {seen}")
    if not ok:
        failures.append(name)


def selection_cases() -> None:
    model, _, _ = session.run_offline_training(
        subject.SubjectParams(seed=7), scheduler.TimingConfig(),
        rng=np.random.default_rng(7))
    params = subject.SubjectParams(seed=8, constant_offset=0.1)
    result, _ = session.run_online_selection(
        model, params, session.ObjectCatalog(), target=5,
        rng=np.random.default_rng(9))
    scores = np.array(result.per_image_scores)
    winners, selected = result.trial_winners, result.selected
    expect("selection as made", checks.check_selection(
        scores, winners, selected, result.latency_s), True)
    expect("flipped vote", checks.check_selection(
        scores, winners, (selected + 1) % 12, result.latency_s), False)
    moved = list(winners)
    moved[1] = (moved[1] + 1) % 12
    expect("moved trial winner", checks.check_selection(
        scores, moved, selected, result.latency_s), False)
    expect("latency off by one flash", checks.check_selection(
        scores, winners, selected, result.latency_s + 0.2), False)
    nan_scores = scores.copy()
    nan_scores[0, 3] = np.nan
    expect("NaN score", checks.check_selection(
        nan_scores, winners, selected, result.latency_s), False)
    expect("missing trial", checks.check_selection(
        scores[:2], winners[:2], selected, result.latency_s), False)

    # The vote rule on tables built to hit each branch, against the program.
    split = np.zeros((3, 12))
    split[0, 2], split[1, 7], split[2, 4] = 1.0, 3.0, 2.0
    expect("1-1-1 split goes to the larger score sum",
           [] if checks.expected_vote(split) == ((2, 7, 4), 7) else ["wrong"],
           True)
    tied = np.zeros((3, 12))
    tied[0, 9], tied[0, 6], tied[1, 5], tied[2, 2] = 1.0, 1.0, 1.0, 1.0
    expect("score ties go to the lowest id, in a trial and in the vote",
           [] if checks.expected_vote(tied) == ((6, 5, 2), 2) else ["wrong"],
           True)
    rng = np.random.default_rng(11)
    disagree = 0
    for _ in range(2000):
        table = rng.integers(0, 3, size=(3, 12)).astype(float)
        program = [session.trial_winner(row) for row in table]
        vote = session.majority_vote(program, table)
        if checks.expected_vote(table) != (tuple(program), vote):
            disagree += 1
    expect("vote agrees with the program on 2000 tied tables",
           [f"{disagree} disagree"] if disagree else [], True)


def phase_cases() -> None:
    expect("phase 2 at the paper's 109/120", checks.check_phase2(109, 120),
           True)
    expect("phase 2 one short of 109/120", checks.check_phase2(108, 120),
           False)


def record_cases(tmp: Path) -> None:
    timing = scheduler.TimingConfig(sessions_per_scenario=2)
    schedule = scheduler.build_scenario_schedule(
        timing, None, np.random.default_rng(3))
    record = subject.simulate_subject(schedule, subject.SubjectParams(seed=3))
    path = tmp / "record.eeg"
    acquisition.save_record(record, path)
    loaded = acquisition.load_record(path)
    saved = record.samples, record.markers
    expect("record as loaded", checks.check_loaded_record(
        *saved, loaded.samples, loaded.markers), True)

    finite = np.argwhere(np.isfinite(loaded.samples))
    row, col = finite[len(finite) // 2]
    perturbed = loaded.samples.copy()
    perturbed[row, col] = np.nextafter(np.float32(perturbed[row, col]),
                                       np.float32(np.inf))
    expect("one sample one float32 step off", checks.check_loaded_record(
        *saved, perturbed, loaded.markers), False)
    unrounded = record.samples
    expect("samples not rounded to float32", checks.check_loaded_record(
        *saved, unrounded, loaded.markers), False)
    moved = loaded.samples.copy()
    nan_at = np.argwhere(np.isnan(moved))[0]
    moved[tuple(nan_at)] = 0.0
    moved[row, col] = np.nan
    expect("a NaN moved", checks.check_loaded_record(
        *saved, moved, loaded.markers), False)
    markers = list(loaded.markers)
    markers[4] = replace(markers[4], onset_sample=markers[4].onset_sample + 1)
    expect("a marker one sample late", checks.check_loaded_record(
        *saved, loaded.samples, tuple(markers)), False)


def model_cases() -> None:
    schedule = scheduler.build_scenario_schedule(
        scheduler.TimingConfig(), None, np.random.default_rng(5))
    record = subject.simulate_subject(schedule, subject.SubjectParams(seed=5))
    dataset = features.dataset_from_scenario(record)
    model = session.train_on_dataset(dataset, session.PipelineConfig())
    args = (len(model.channels), model.window.length, dataset.vectors,
            dataset.labels)
    weights = np.array(model.weights)
    expect("model as trained", checks.check_model(weights, *args), True)
    nan_weight = weights.copy()
    nan_weight[17] = np.nan
    expect("NaN weight", checks.check_model(nan_weight, *args), False)
    expect("weights scaled by 1.01", checks.check_model(
        weights * 1.01, *args), False)
    rotated = weights.copy()
    hi, lo = int(np.argmax(weights)), int(np.argmin(weights))
    rotated[[hi, lo]] = rotated[[lo, hi]]
    expect("largest and smallest weights swapped",
           checks.check_model(rotated, *args), False)
    expect("one channel short", checks.check_model(
        weights[:-65], *args), False)
    shrunk = session.train_on_dataset(
        dataset, session.PipelineConfig(shrinkage=0.5))
    expect("weights of another shrinkage", checks.check_model(
        np.array(shrunk.weights), *args), False)


def main() -> int:
    selection_cases()
    phase_cases()
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        record_cases(Path(tmp))
    model_cases()
    if failures:
        print(f"{len(failures)} case(s) misjudged: {', '.join(failures)}")
        return 1
    print("every check accepts real output and rejects each corruption")
    return 0


if __name__ == "__main__":
    sys.exit(main())
