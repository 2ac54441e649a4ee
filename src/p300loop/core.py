"""Foundational domain types, channel metadata, and time/sample arithmetic.

Sample matrices are stored channel-by-row in 64-bit floating point, microvolt
units. Missing samples are represented as NaN entries directly in the matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

DEFAULT_RATE = 128.0

DEFAULT_CHANNEL_LABELS = (
    "AF3", "F7", "F3", "FC5", "T7", "P7", "O1",
    "O2", "P8", "T8", "FC6", "F4", "F8", "AF4",
)

FRONTAL_LABELS = ("AF3", "AF4", "F7", "F8")
POSTERIOR_LABELS = ("P7", "P8", "O1", "O2")
TEMPORAL_LABELS = ("T7", "T8")

N_IMAGES = 12


@dataclass(frozen=True)
class ChannelSet:
    """Ordered, unique channel labels; defines row order of sample matrices."""

    labels: tuple[str, ...] = DEFAULT_CHANNEL_LABELS

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise ValueError("channel set must not be empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("channel labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown channel label {label!r}") from None

    def indices(self, labels) -> list[int]:
        return [self.index(lab) for lab in labels]


@dataclass(frozen=True)
class StimulusEvent:
    """One image flash: identity, position in the schedule, and target flag.

    is_target is None when unknown (blind online use).  onset_s is carried for
    human-readable exports and excluded from equality; onset_sample is the
    canonical time reference.
    """

    image_id: int
    onset_sample: int
    run_index: int
    session_index: int
    is_target: bool | None = None
    onset_s: float = field(default=math.nan, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.image_id < N_IMAGES:
            raise ValueError(f"image_id {self.image_id} outside [0, {N_IMAGES})")
        if self.onset_sample < 0:
            raise ValueError("onset_sample must be non-negative")
        if self.run_index < 0 or self.session_index < 0:
            raise ValueError("run/session indices must be non-negative")


@dataclass(frozen=True)
class EegRecord:
    """Multichannel sample matrix plus rate and time-aligned stimulus markers."""

    channels: ChannelSet
    rate: float
    samples: np.ndarray  # [n_channels x n_samples], microvolts, may hold NaN
    markers: tuple[StimulusEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        samples = np.array(self.samples, dtype=np.float64, copy=True)
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-D matrix")
        if samples.shape[0] != len(self.channels):
            raise ValueError(
                f"samples has {samples.shape[0]} rows, expected {len(self.channels)}"
            )
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "markers", tuple(self.markers))
        last = -1
        for ev in self.markers:
            if ev.onset_sample <= last:
                raise ValueError("marker onset samples must be strictly increasing")
            if ev.onset_sample >= self.n_samples:
                raise ValueError("marker onset beyond end of record")
            last = ev.onset_sample

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.rate

    def with_samples(self, samples: np.ndarray) -> "EegRecord":
        """Same channels/rate/markers over a new sample matrix."""
        return EegRecord(self.channels, self.rate, samples, self.markers)

    def with_markers(self, markers) -> "EegRecord":
        return EegRecord(self.channels, self.rate, self.samples, tuple(markers))


def time_to_sample(t, rate) -> int:
    """Convert seconds to a sample index, rounding half away from zero.

    Accepts exact Fractions as well as floats; the rounding convention is fixed
    here and reused by every module that maps times onto the sample grid.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if t < 0:
        raise ValueError("time must be non-negative")
    x = t * rate
    if isinstance(x, Fraction):
        return int(math.floor(x + Fraction(1, 2)))
    return int(math.floor(float(x) + 0.5))

