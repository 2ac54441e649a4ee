"""Simulated subject: schedule-aligned multichannel EEG with embedded responses.

Background is pink (1/f) noise plus a 10 Hz alpha sinusoid.  Target flashes add
a posterior-weighted Gaussian voltage bump; blinks add large frontal
deflections; one channel is corrupted with NaN entries.  A constant offset (and
optional per-event jitter) shifts every response relative to its marker,
modelling acquisition latency between the stimulus software and the amplifier
stream.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_RATE,
    FRONTAL_LABELS,
    POSTERIOR_LABELS,
    TEMPORAL_LABELS,
    ChannelSet,
    EegRecord,
)
from .scheduler import ScenarioSchedule

# Extra record length past the nominal schedule span: covers the epoch window
# of the last flash plus any injected latency offset.
TAIL_S = 0.8

# Blink deflection shape: Gaussian with +/- 2 sigma spanning 0.3 s.
BLINK_SIGMA_S = 0.075
BLINK_LEAKAGE = 0.05


@dataclass(frozen=True)
class SubjectParams:
    """Synthetic-subject knobs; amplitudes in microvolts, times in seconds.

    p300_amp's default was calibrated by a grid search so that the closed-loop
    selection target is attainable at the default background level (see the
    calibration demo); the physiologically plausible range is wide.
    """

    background_rms: float = 10.0
    alpha_amp: float = 3.0
    p300_amp: float = 12.0
    p300_peak_latency: float = 0.4
    p300_width: float = 0.08
    p300_topography: tuple[float, ...] | None = None
    blink_rate: float = 4.0  # events per minute
    blink_amp: float = 80.0
    nan_channel: str = "FC5"
    nan_fraction: float = 0.2
    latency_jitter_sd: float = 0.0
    constant_offset: float = 0.0
    seed: object = 0  # int or numpy SeedSequence

    def __post_init__(self) -> None:
        for name in ("background_rms", "alpha_amp", "p300_amp", "blink_amp",
                     "blink_rate", "latency_jitter_sd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.p300_width <= 0:
            raise ValueError("p300_width must be positive")
        if not 0 <= self.nan_fraction <= 1:
            raise ValueError("nan_fraction must lie in [0, 1]")
        if not 0.25 <= self.p300_peak_latency <= 0.5:
            warnings.warn(
                f"p300_peak_latency {self.p300_peak_latency} s outside the "
                "typical 0.25-0.5 s range", stacklevel=2)


def default_topography(channels: ChannelSet) -> np.ndarray:
    """Posterior-weighted P300 gain: 1.0 posterior, 0.6 temporal, 0.3 elsewhere."""
    gains = []
    for lab in channels:
        if lab in POSTERIOR_LABELS:
            gains.append(1.0)
        elif lab in TEMPORAL_LABELS:
            gains.append(0.6)
        else:
            gains.append(0.3)
    return np.array(gains)


def stage_generators(seed) -> tuple[np.random.Generator, ...]:
    """Independent per-stage generators (background, p300, blinks, nan).

    All randomness in simulate_subject flows from the single seed through this
    split, so disabling one stage never perturbs the others.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return tuple(np.random.default_rng(child) for child in ss.spawn(4))


def generate_background(duration: float, channels: ChannelSet,
                        params: SubjectParams, rng: np.random.Generator,
                        rate: float = DEFAULT_RATE) -> EegRecord:
    """Markerless background record: pink noise plus random-phase alpha.

    Each row draws its white noise, then its alpha phase; the 1/f shaping
    (DC removed, exact target RMS) and the alpha run over all rows at once.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration * rate))
    white = np.empty((len(channels), n))
    phases = np.empty((len(channels), 1))
    for i in range(len(channels)):
        rng.standard_normal(out=white[i])
        if params.alpha_amp > 0:
            phases[i] = rng.uniform(0.0, 2.0 * np.pi)
    freq = np.fft.rfftfreq(n)
    shape = np.zeros_like(freq)
    shape[1:] = 1.0 / np.sqrt(freq[1:])
    x = np.fft.irfft(np.fft.rfft(white) * shape, n)
    scale = np.sqrt(np.mean(x * x, axis=1, keepdims=True))
    ok = (scale > 0) & (params.background_rms > 0)
    gain = params.background_rms / np.where(ok, scale, 1.0)
    samples = np.where(ok, x * gain, 0.0)
    if params.alpha_amp > 0:
        t = np.arange(n) / rate
        samples = samples + params.alpha_amp * np.sin(
            2.0 * np.pi * 10.0 * t + phases)
    return EegRecord(channels, rate, samples)


def inject_p300(record: EegRecord, schedule: ScenarioSchedule,
                params: SubjectParams,
                rng: np.random.Generator | None = None) -> EegRecord:
    """Add the target-flash response bumps; non-target events are untouched.

    Each target event contributes amp * topography[ch] * Gaussian centred at
    onset + peak latency + constant offset (+ jitter when enabled).
    """
    for ev in schedule.events:
        if ev.onset_sample >= record.n_samples:
            raise IndexError(
                f"event at sample {ev.onset_sample} beyond record of "
                f"{record.n_samples} samples")
        if ev.is_target is None:
            raise ValueError("is_target flags must be set before injection")
    if params.latency_jitter_sd > 0 and rng is None:
        raise ValueError("latency jitter requires a random generator")
    if params.p300_amp == 0:
        return record.with_samples(record.samples)

    topo = (np.asarray(params.p300_topography, dtype=float)
            if params.p300_topography is not None
            else default_topography(record.channels))
    if topo.shape != (record.n_channels,):
        raise ValueError("topography length must match channel count")

    t = np.arange(record.n_samples) / record.rate
    train = np.zeros(record.n_samples)
    for ev in schedule.events:
        if not ev.is_target:
            continue
        jitter = rng.normal(0.0, params.latency_jitter_sd) if params.latency_jitter_sd > 0 else 0.0
        centre = (ev.onset_sample / record.rate + params.p300_peak_latency
                  + params.constant_offset + jitter)
        train += np.exp(-0.5 * ((t - centre) / params.p300_width) ** 2)
    samples = record.samples + params.p300_amp * np.outer(topo, train)
    return record.with_samples(samples)


def inject_blinks(record: EegRecord, params: SubjectParams,
                  rng: np.random.Generator) -> EegRecord:
    """Poisson-timed frontal blink deflections with small posterior leakage."""
    duration = record.n_samples / record.rate
    n_blinks = int(rng.poisson(params.blink_rate * duration / 60.0))
    if n_blinks == 0 or params.blink_amp == 0:
        return record.with_samples(record.samples)
    times = rng.uniform(0.0, duration, size=n_blinks)
    t = np.arange(record.n_samples) / record.rate
    train = np.zeros(record.n_samples)
    for tc in times:
        train += np.exp(-0.5 * ((t - tc) / BLINK_SIGMA_S) ** 2)
    weights = np.array([1.0 if lab in FRONTAL_LABELS else BLINK_LEAKAGE
                        for lab in record.channels])
    samples = record.samples + params.blink_amp * np.outer(weights, train)
    return record.with_samples(samples)


def corrupt_nan_channel(record: EegRecord, params: SubjectParams,
                        rng: np.random.Generator) -> EegRecord:
    """Set a uniformly chosen fraction of one channel's samples to NaN."""
    row = record.channels.index(params.nan_channel)
    n_bad = int(round(params.nan_fraction * record.n_samples))
    samples = np.array(record.samples, copy=True)
    if n_bad > 0:
        idx = rng.choice(record.n_samples, size=n_bad, replace=False)
        samples[row, idx] = np.nan
    return record.with_samples(samples)


def simulate_subject(schedule: ScenarioSchedule, params: SubjectParams,
                     channels: ChannelSet | None = None,
                     rate: float = DEFAULT_RATE,
                     tail_s: float = TAIL_S) -> EegRecord:
    """Full subject simulation for a schedule, markers attached.

    Composition: background, then P300 injection, then blinks, then NaN
    corruption.  The record extends tail_s past the schedule span so the last
    flash's epoch window (plus any latency offset) stays in range.
    """
    if channels is None:
        channels = ChannelSet()
    bg_rng, p300_rng, blink_rng, nan_rng = stage_generators(params.seed)
    duration = schedule.span_s + tail_s
    record = generate_background(duration, channels, params, bg_rng, rate)
    record = record.with_markers(schedule.events)
    record = inject_p300(record, schedule, params, p300_rng)
    record = inject_blinks(record, params, blink_rng)
    if params.nan_fraction > 0:
        record = corrupt_nan_channel(record, params, nan_rng)
    return record


def with_targets(schedule: ScenarioSchedule, target: int) -> ScenarioSchedule:
    """Copy of a blind schedule with is_target set against one attended image."""
    events = tuple(replace(ev, is_target=(ev.image_id == target))
                   for ev in schedule.events)
    return ScenarioSchedule(timing=schedule.timing, events=events,
                            session_targets=schedule.session_targets,
                            span_s=schedule.span_s)
