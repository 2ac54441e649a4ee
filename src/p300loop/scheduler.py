"""Block-random flash scheduling with exact run/session/scenario timing.

A run flashes each of the 12 images once in a uniformly random order; runs are
rejection-resampled so no image flashes twice in a row, including across run
boundaries.  Onset times are computed in exact rational seconds and converted
once to sample indices, so no rounding drift accumulates over a scenario.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import DEFAULT_RATE, N_IMAGES, StimulusEvent, time_to_sample


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("runs_per_session", "sessions_per_scenario"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    @property
    def isi(self) -> float:
        """Interstimulus interval: flash plus gap, onset to onset."""
        return float(_exact_durations(self)[0])

    @property
    def d_run(self) -> float:
        return float(_exact_durations(self)[1])


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
    """Ordered stimulus events plus the timing they were generated from."""

    timing: TimingConfig
    events: tuple[StimulusEvent, ...]
    session_targets: tuple[int, ...] = ()
    span_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "session_targets", tuple(self.session_targets))
        seen: dict[tuple[int, int], set[int]] = {}
        last = -1
        for ev in self.events:
            if ev.onset_sample <= last:
                raise ValueError("event onsets must be strictly increasing")
            last = ev.onset_sample
            imgs = seen.setdefault((ev.session_index, ev.run_index), set())
            if ev.image_id in imgs:
                raise ValueError(
                    f"image {ev.image_id} flashes twice in session "
                    f"{ev.session_index} run {ev.run_index}"
                )
            imgs.add(ev.image_id)

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_targets(self) -> int:
        return sum(1 for ev in self.events if ev.is_target)


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
                            rng: np.random.Generator | None = None,
                            rate: float = DEFAULT_RATE) -> ScenarioSchedule:
    """Full training scenario: adaptation, then one session per prescribed image.

    Each session shows d_inf of instruction, then runs_per_session runs spaced by
    d_run_interval.  is_target marks flashes of the session's prescribed image.
    """
    if session_targets is None:
        session_targets = list(range(timing.sessions_per_scenario))
    session_targets = [int(t) for t in session_targets]
    if len(session_targets) != timing.sessions_per_scenario:
        raise ValueError("need one target image per session")
    if any(not 0 <= t < N_IMAGES for t in session_targets):
        raise ValueError("session target outside image id range")
    if rng is None:
        rng = np.random.default_rng()

    isi, d_run, d_session, d_scenario = _exact_durations(timing)
    rate_fr = _fr(rate)

    events: list[StimulusEvent] = []
    prev_last: int | None = None
    for sess, target in enumerate(session_targets):
        session_base = _fr(timing.d_adapt) + sess * d_session + _fr(timing.d_inf)
        for run in range(timing.runs_per_session):
            run_base = session_base + run * (d_run + _fr(timing.d_run_interval))
            seq = generate_run_sequence(rng, prev_last)
            prev_last = seq[-1]
            for j, img in enumerate(seq):
                onset = run_base + j * isi
                events.append(StimulusEvent(
                    image_id=img,
                    onset_sample=time_to_sample(onset, rate_fr),
                    run_index=run,
                    session_index=sess,
                    is_target=(img == target),
                    onset_s=float(onset),
                ))
    return ScenarioSchedule(timing=timing, events=tuple(events),
                            session_targets=tuple(session_targets),
                            span_s=float(d_scenario))


def build_online_trial_schedule(timing: TimingConfig,
                                n_trials: int = 3,
                                rng: np.random.Generator | None = None,
                                rate: float = DEFAULT_RATE,
                                sequences=None,
                                previous_last: int | None = None) -> ScenarioSchedule:
    """n_trials back-to-back runs with d_run_interval gaps and no prefix.

    is_target is left unset (blind use).  When sequences is given (one image
    order per trial) it is used verbatim instead of fresh random permutations,
    which lets an online phase replay the exact flashing orders of a recorded
    training scenario.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if sequences is not None:
        sequences = [list(map(int, s)) for s in sequences]
        if len(sequences) != n_trials:
            raise ValueError("need one sequence per trial")
        for s in sequences:
            if sorted(s) != list(range(N_IMAGES)):
                raise ValueError("each trial sequence must permute all image ids")
    if rng is None and sequences is None:
        rng = np.random.default_rng()

    grid, span_s = online_grid(timing, n_trials, rate)
    events: list[StimulusEvent] = []
    prev_last = previous_last
    for trial, slots in enumerate(grid):
        if sequences is not None:
            seq = sequences[trial]
        else:
            seq = generate_run_sequence(rng, prev_last)
        prev_last = seq[-1]
        events.extend(StimulusEvent(image_id=img, onset_sample=sample,
                                    run_index=trial, session_index=0,
                                    onset_s=onset_s)
                      for img, (sample, onset_s) in zip(seq, slots))
    return ScenarioSchedule(timing=timing, events=tuple(events),
                            session_targets=(), span_s=span_s)


@functools.lru_cache(maxsize=32)
def online_grid(timing: TimingConfig, n_trials: int,
                rate: float = DEFAULT_RATE):
    """(grid, span_s) of `n_trials` back-to-back online runs, computed exactly.

    grid[trial][j] is the (onset_sample, onset_s) of the trial's j-th flash.
    span_s is n_trials * d_run + (n_trials - 1) * d_run_interval: the
    simulated latency of one selection.
    """
    isi, d_run, _, _ = _exact_durations(timing)
    rate_fr = _fr(rate)
    grid = []
    for trial in range(n_trials):
        run_base = trial * (d_run + _fr(timing.d_run_interval))
        onsets = [run_base + j * isi for j in range(N_IMAGES)]
        grid.append(tuple((time_to_sample(t, rate_fr), float(t))
                          for t in onsets))
    span = n_trials * d_run + (n_trials - 1) * _fr(timing.d_run_interval)
    return tuple(grid), float(span)


def event_table(schedule: ScenarioSchedule) -> str:
    """Human-readable event table, one line per event."""
    lines = ["onset_s\tonset_sample\timage_id\trun\tsession\tis_target"]
    for ev in schedule.events:
        flag = "?" if ev.is_target is None else str(int(ev.is_target))
        lines.append(
            f"{ev.onset_s:.6f}\t{ev.onset_sample}\t{ev.image_id}"
            f"\t{ev.run_index}\t{ev.session_index}\t{flag}"
        )
    return "\n".join(lines) + "\n"
