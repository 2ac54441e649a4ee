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
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_RATE,
    FRONTAL_LABELS,
    POSTERIOR_LABELS,
    TEMPORAL_LABELS,
    ChannelSet,
    EegRecord,
    time_to_sample,
)
from .scheduler import ScenarioSchedule

# Extra record length past the nominal schedule span: covers the epoch window
# of the last flash plus any injected latency offset.
TAIL_S = 0.8

# Blink deflection shape: Gaussian with +/- 2 sigma spanning 0.3 s.
BLINK_SIGMA_S = 0.075
BLINK_LEAKAGE = 0.05

# Reach of a Gaussian bump, in widths: past z = 38.6 the float64
# exp(-z**2 / 2) is exactly 0.0, so no sample farther out changes.
BUMP_REACH = 40.0


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
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0 < self.p300_width < np.inf:
            raise ValueError("p300_width must be finite and positive")
        if not 0 <= self.nan_fraction <= 1:
            raise ValueError("nan_fraction must lie in [0, 1]")
        for name in ("p300_peak_latency", "constant_offset"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.25 <= self.p300_peak_latency <= 0.5:
            warnings.warn(
                f"p300_peak_latency {self.p300_peak_latency} s outside the "
                "typical 0.25-0.5 s range", stacklevel=2)


def default_topography(channels: ChannelSet) -> np.ndarray:
    """Posterior-weighted P300 gain: 1.0 posterior, 0.6 temporal, 0.3 elsewhere."""
    return np.array([1.0 if lab in POSTERIOR_LABELS
                     else 0.6 if lab in TEMPORAL_LABELS else 0.3
                     for lab in channels])


def stage_generators(seed) -> tuple[np.random.Generator, ...]:
    """Independent per-stage generators (background, p300, blinks, nan).

    All randomness in simulate_subject flows from the single seed through this
    split, so disabling one stage never perturbs the others.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return tuple(np.random.default_rng(child) for child in ss.spawn(4))


def generate_background(duration: float, channels: ChannelSet,
                        params: SubjectParams,
                        rng: np.random.Generator) -> EegRecord:
    """Markerless background record: pink noise plus random-phase alpha.

    Each row draws its white noise, then its alpha phase; the 1/f shaping
    (DC removed, exact target RMS) and the alpha run over all rows at once,
    in place on the spectrum and then on the samples.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    n = time_to_sample(duration, DEFAULT_RATE)
    white = np.empty((len(channels), n))
    phases = np.empty((len(channels), 1))
    for i in range(len(channels)):
        rng.standard_normal(out=white[i])
        if params.alpha_amp > 0:
            phases[i] = rng.uniform(0.0, 2.0 * np.pi)
    freq = np.fft.rfftfreq(n)
    shape = np.zeros_like(freq)
    shape[1:] = 1.0 / np.sqrt(freq[1:])
    spectrum = np.fft.rfft(white)
    del white
    spectrum *= shape
    samples = np.fft.irfft(spectrum, n)
    del spectrum
    scale = np.sqrt(np.mean(samples * samples, axis=1, keepdims=True))
    ok = (scale > 0) & (params.background_rms > 0)
    samples *= params.background_rms / np.where(ok, scale, 1.0)
    samples[~ok[:, 0]] = 0.0
    if params.alpha_amp > 0:
        wave = 2.0 * np.pi * 10.0 * (np.arange(n) / DEFAULT_RATE) + phases
        np.sin(wave, out=wave)
        wave *= params.alpha_amp
        samples += wave
    return EegRecord(channels, DEFAULT_RATE, samples)


def inject_p300(record: EegRecord, params: SubjectParams,
                rng: np.random.Generator) -> EegRecord:
    """Add the response bumps of the record's target flashes; others untouched.

    Each target marker contributes amp * topography[ch] * Gaussian centred at
    onset + peak latency + constant offset (+ jitter when enabled).
    """
    events = record.markers
    if (events.target < 0).any():
        raise ValueError("is_target flags must be set before injection")
    topo = (np.asarray(params.p300_topography, dtype=float)
            if params.p300_topography is not None
            else default_topography(record.channels))
    if topo.shape != (record.n_channels,):
        raise ValueError("topography length must match channel count")
    sd = params.latency_jitter_sd
    centres = [onset / record.rate + params.p300_peak_latency
               + params.constant_offset + (rng.normal(0.0, sd) if sd > 0 else 0.0)
               for onset in events.onset[events.target == 1].tolist()]
    return _with_bumps(record, centres, params.p300_width, params.p300_amp, topo)


def _with_bumps(record: EegRecord, centres, width: float, amp: float,
                gains: np.ndarray) -> EegRecord:
    """The record plus amp * gains[ch] * the sum of the Gaussian bumps of
    `width` s centred at `centres` s; a zero `amp` or no centre adds zeros."""
    t = np.arange(record.n_samples) / record.rate
    train = np.zeros(record.n_samples)
    for centre in centres:
        _add_bump(train, t, centre, width)
    return record.with_samples(record.samples + amp * np.outer(gains, train))


def _add_bump(train: np.ndarray, t: np.ndarray, centre: float,
              width: float) -> None:
    """Add exp(-((t - centre) / width)**2 / 2) to `train` at the sorted
    times `t` within `BUMP_REACH` widths of `centre`: bitwise the sum over
    all of `t`, since every term farther out is 0.0."""
    lo, hi = np.searchsorted(t, (centre - BUMP_REACH * width,
                                 centre + BUMP_REACH * width))
    train[lo:hi] += np.exp(-0.5 * ((t[lo:hi] - centre) / width) ** 2)


def inject_blinks(record: EegRecord, params: SubjectParams,
                  rng: np.random.Generator) -> EegRecord:
    """Poisson-timed frontal blink deflections with small posterior leakage."""
    n_blinks = int(rng.poisson(params.blink_rate * record.duration_s / 60.0))
    times = rng.uniform(0.0, record.duration_s, size=n_blinks)
    weights = np.array([1.0 if lab in FRONTAL_LABELS else BLINK_LEAKAGE
                        for lab in record.channels])
    return _with_bumps(record, times, BLINK_SIGMA_S, params.blink_amp, weights)


def corrupt_nan_channel(record: EegRecord, params: SubjectParams,
                        rng: np.random.Generator) -> EegRecord:
    """Set a uniformly chosen fraction of one channel's samples to NaN."""
    row = record.channels.index(params.nan_channel)
    n_bad = int(round(params.nan_fraction * record.n_samples))
    samples = np.array(record.samples, copy=True)
    idx = rng.choice(record.n_samples, size=n_bad, replace=False)
    samples[row, idx] = np.nan
    return record.with_samples(samples)


def simulate_subject(schedule: ScenarioSchedule,
                     params: SubjectParams) -> EegRecord:
    """Full 14-channel subject simulation for a schedule, markers attached.

    Composition: background, then P300 injection, then blinks, then NaN
    corruption.  The record extends TAIL_S past the schedule span so the last
    flash's epoch window (plus any latency offset) stays in range.
    """
    bg_rng, p300_rng, blink_rng, nan_rng = stage_generators(params.seed)
    duration = schedule.span_s + TAIL_S
    record = generate_background(duration, ChannelSet(), params, bg_rng)
    record = record.with_markers(schedule.events)
    record = inject_p300(record, params, p300_rng)
    record = inject_blinks(record, params, blink_rng)
    if params.nan_fraction > 0:
        record = corrupt_nan_channel(record, params, nan_rng)
    return record

