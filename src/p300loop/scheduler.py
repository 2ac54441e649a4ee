"""Block-random flash scheduling with exact run/session/scenario timing.

A run flashes each of the 12 images once in a uniformly random order; runs are
rejection-resampled so no image flashes twice in a row, including across run
boundaries.  Onset times are computed in exact rational seconds and converted
once to sample indices, so no rounding drift accumulates over a scenario.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DEFAULT_RATE, N_IMAGES, Markers, time_to_sample

# The longest scenario simulated: 2 h, 921,600 samples at 128 Hz, six times
# the 1,200 s records the tests load.  A longer one is refused before its
# samples are allocated.
MAX_SCENARIO_S = 7200


def _fr(x) -> Fraction:
    """Exact rational view of a config duration (decimal string round trip)."""
    return Fraction(str(x))


@dataclass(frozen=True)
class TimingConfig:
    """All protocol durations and counts; defaults give the 3.6/25.6 s grid."""

    d_flash: float = 0.2
    d_no_flash: float = 0.1
    d_run_interval: float = 0.2
    d_inf: float = 3.0
    d_adapt: float = 10.0
    runs_per_session: int = 6
    sessions_per_scenario: int = 12

    def __post_init__(self) -> None:
        for name in ("d_flash", "d_no_flash", "d_run_interval", "d_inf", "d_adapt"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive")
        for name in ("runs_per_session", "sessions_per_scenario"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        _check_span(_exact_durations(self)[3])


def _check_span(span: Fraction) -> None:
    """Refuse a record span of exact seconds past MAX_SCENARIO_S."""
    if span > MAX_SCENARIO_S:
        shown = f"{float(span):g} s" if span < 1e308 else "over 1e308 s"
        raise ValueError(
            f"a scenario of {shown} is too large: the cap is "
            f"{MAX_SCENARIO_S} s, {MAX_SCENARIO_S * DEFAULT_RATE:,.0f} samples")


def _exact_durations(timing: TimingConfig) -> tuple[Fraction, ...]:
    """(isi, d_run, d_session, d_scenario) as exact rational seconds."""
    isi = _fr(timing.d_flash) + _fr(timing.d_no_flash)
    d_run = isi * N_IMAGES
    d_session = (
        _fr(timing.d_inf)
        + timing.runs_per_session * d_run
        + (timing.runs_per_session - 1) * _fr(timing.d_run_interval)
    )
    d_scenario = _fr(timing.d_adapt) + timing.sessions_per_scenario * d_session
    return isi, d_run, d_session, d_scenario


def _run_grid(timing: TimingConfig, run_starts) -> tuple[int, ...]:
    """Onset samples of runs that start at the exact seconds `run_starts`:
    flash 12 r + j, run r's j-th, is j * isi after run r's start."""
    isi = _exact_durations(timing)[0]
    rate = _fr(DEFAULT_RATE)
    return tuple(time_to_sample(start + j * isi, rate)
                 for start in run_starts for j in range(N_IMAGES))


def durations(timing: TimingConfig) -> tuple[float, float, float]:
    """(d_run, d_session, d_scenario) in seconds, computed exactly.

    d_run = (d_flash + d_no_flash) * 12
    d_session = d_inf + runs * d_run + (runs - 1) * d_run_interval
    d_scenario = d_adapt + sessions * d_session
    """
    _, d_run, d_session, d_scenario = _exact_durations(timing)
    return float(d_run), float(d_session), float(d_scenario)


@dataclass(frozen=True)
class ScenarioSchedule:
    """The flash table, the one record of who was attended, and its span."""

    events: Markers  # or a sequence of StimulusEvent rows
    span_s: float = 0.0

    def __post_init__(self) -> None:
        events = Markers.of(self.events)
        object.__setattr__(self, "events", events)
        keys = np.stack((events.session, events.run, events.image))
        keys = keys[:, np.lexsort(keys[::-1])]  # by session, run, image
        twice = np.flatnonzero((keys[:, 1:] == keys[:, :-1]).all(axis=0))
        if len(twice):
            sess, run, image = keys[:, twice[0]].tolist()
            raise ValueError(f"image {image} flashes twice in session "
                             f"{sess} run {run}")

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_targets(self) -> int:
        return int((self.events.target == 1).sum())


def _markers(onsets, runs_per_session: int, rng, sequences=None,
             session_targets=()) -> Markers:
    """The flash table of consecutive runs at `_run_grid` onsets: run k is
    run k % runs_per_session of session k // runs_per_session and shows
    `sequences[k]`, or else a `generate_run_sequence` draw from `rng` that
    does not open with the image that closed run k - 1.  Flashes of their
    session's `session_targets` entry are targets; without them none is
    known.  This is the one labelling of flashes and check of target images.
    """
    targets = np.asarray(session_targets, dtype=np.int64)
    if ((targets < 0) | (targets >= N_IMAGES)).any():
        raise ValueError("session target outside image id range")
    n_runs = len(onsets) // N_IMAGES
    if sequences is None:
        sequences = []
        for _ in range(n_runs):
            sequences.append(generate_run_sequence(
                rng, sequences[-1][-1] if sequences else None))
    k = np.repeat(np.arange(n_runs), N_IMAGES)
    image = np.concatenate(sequences)
    session = k // runs_per_session
    target = image == targets[session] if len(targets) else None
    return Markers(onset=onsets, image=image, run=k % runs_per_session,
                   session=session, target=target)


def generate_run_sequence(rng: np.random.Generator,
                          previous_last: int | None = None) -> list[int]:
    """Uniform random permutation of image ids whose first id != previous_last."""
    if previous_last is not None and not 0 <= previous_last < N_IMAGES:
        raise ValueError("previous_last outside image id range")
    while True:
        seq = [int(i) for i in rng.permutation(N_IMAGES)]
        if previous_last is None or seq[0] != previous_last:
            return seq


def build_scenario_schedule(timing: TimingConfig,
                            session_targets=None,
                            rng: np.random.Generator | None = None) -> ScenarioSchedule:
    """Full training scenario: adaptation, then one session per prescribed image.

    Each session shows d_inf of instruction, then runs_per_session runs spaced by
    d_run_interval.  is_target marks flashes of the session's prescribed image.
    """
    if session_targets is None:
        session_targets = range(timing.sessions_per_scenario)
    if len(session_targets) != timing.sessions_per_scenario:
        raise ValueError("need one target image per session")
    if rng is None:
        raise TypeError("a scenario schedule needs rng")

    _, d_run, d_session, d_scenario = _exact_durations(timing)
    run_step = d_run + _fr(timing.d_run_interval)
    onsets = _run_grid(timing, [
        _fr(timing.d_adapt) + sess * d_session + _fr(timing.d_inf)
        + run * run_step for sess in range(timing.sessions_per_scenario)
        for run in range(timing.runs_per_session)])
    return ScenarioSchedule(
        events=_markers(onsets, timing.runs_per_session, rng,
                        session_targets=session_targets),
        span_s=float(d_scenario))


def build_online_trial_schedule(timing: TimingConfig,
                                n_trials: int = 3,
                                rng: np.random.Generator | None = None,
                                sequences=None,
                                target: int | None = None) -> ScenarioSchedule:
    """n_trials back-to-back runs with d_run_interval gaps and no prefix.

    is_target marks flashes of the attended image `target`; without it every
    flag is left unknown (blind use).  When sequences is given (one image
    order per trial) it is used verbatim instead of fresh random permutations,
    which lets an online phase replay the exact flashing orders of a recorded
    training scenario; otherwise `rng` draws them and is required.
    """
    onsets, span_s = online_grid(timing, n_trials)
    if sequences is not None:
        sequences = [list(map(int, s)) for s in sequences]
        if len(sequences) != n_trials:
            raise ValueError("need one sequence per trial")
        if any(sorted(s) != list(range(N_IMAGES)) for s in sequences):
            raise ValueError("each trial sequence must permute all image ids")
    if rng is None and sequences is None:
        raise TypeError("an online schedule without sequences needs rng")
    targets = () if target is None else (int(target),)
    return ScenarioSchedule(_markers(onsets, n_trials, rng, sequences, targets),
                            span_s=span_s)


@functools.lru_cache(maxsize=32)
def online_grid(timing: TimingConfig, n_trials: int):
    """(onsets, span_s) of `n_trials` back-to-back online runs, exactly.

    onsets are the trials' `_run_grid` onset samples; span_s is n_trials *
    d_run + (n_trials - 1) * d_run_interval: the simulated latency of one
    selection.  Fewer than one trial, or a span past MAX_SCENARIO_S, is
    refused before any onset is laid out.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    step = _exact_durations(timing)[1] + _fr(timing.d_run_interval)
    span = n_trials * step - _fr(timing.d_run_interval)
    _check_span(span)
    onsets = _run_grid(timing, [trial * step for trial in range(n_trials)])
    return onsets, float(span)


def event_table(schedule: ScenarioSchedule) -> str:
    """One tab-separated line per flash; time_s is its onset sample's time."""
    lines = ["time_s\tonset_sample\timage_id\trun\tsession\tis_target"]
    events = schedule.events
    for onset, image, run, sess, target in zip(*(
            column.tolist() for column in (events.onset, events.image,
                                           events.run, events.session,
                                           events.target))):
        lines.append(f"{onset / DEFAULT_RATE:.6f}\t{onset}\t{image}\t{run}\t"
                     f"{sess}\t{'?' if target < 0 else target}")
    return "\n".join(lines) + "\n"
