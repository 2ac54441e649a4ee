"""Foundational domain types, channel metadata, and time/sample arithmetic.

Sample matrices are stored channel-by-row in 64-bit floating point, microvolt
units. Missing samples are represented as NaN entries directly in the matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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
    """Channel labels, unique non-empty strings, in sample-matrix row order."""

    labels: tuple[str, ...] = DEFAULT_CHANNEL_LABELS

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not (all(isinstance(label, str) and label for label in labels)
                and 0 < len(set(labels)) == len(labels)):
            raise ValueError("channel labels must be unique, non-empty strings")

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


def set_readonly(obj, name: str, value, dtype=np.float64) -> np.ndarray:
    """Set field `name` of a frozen dataclass to a read-only copy of `value`."""
    array = np.array(value, dtype=dtype, copy=True)
    array.flags.writeable = False
    object.__setattr__(obj, name, array)
    return array


def fields_equal(a, b) -> bool:
    """Dataclass equality with array fields compared by value, NaN equal to
    NaN; fields declared with compare=False are skipped."""
    return type(a) is type(b) and all(
        np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray)
        else x == y for x, y in ((getattr(a, f.name), getattr(b, f.name))
                                 for f in fields(a) if f.compare))


def scalar_fields(cls) -> list:
    """A dataclass's fields whose default is a bool, int, float or str."""
    return [f for f in fields(cls) if isinstance(f.default, (int, float, str))]


@dataclass(frozen=True)
class StimulusEvent:
    """One image flash, a row of `Markers`, checked as a one-row table.

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
        Markers.of((self,))


@dataclass(frozen=True, eq=False)
class Markers:
    """Immutable columnar flash table, one row per flash in onset order.

    Read-only int64 columns `onset` (sample index), `image`, `run`, `session`
    and `target` (1, 0, or -1 for unknown), and the exact `onset_s` (NaN where
    unknown), which equality ignores.  The constructor is the one check of
    the flash invariants.  Indexing, slicing and iteration read rows back as
    `StimulusEvent`s; a table equals a sequence of equal rows.
    """

    onset: np.ndarray = ()
    image: np.ndarray = ()
    run: np.ndarray = ()
    session: np.ndarray = ()
    target: np.ndarray | None = None
    onset_s: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = len(self.onset)
        target = np.full(n, -1) if self.target is None else self.target
        onset, image, run, session, target = (  # OverflowError past int64
            set_readonly(self, name, value, np.int64) for name, value in zip(
                ("onset", "image", "run", "session", "target"),
                (self.onset, self.image, self.run, self.session, target)))
        onset_s = set_readonly(self, "onset_s", np.full(n, math.nan)
                               if self.onset_s is None else self.onset_s)
        if any(c.shape != (n,) for c in (image, run, session, target, onset_s)):
            raise ValueError("marker columns must be vectors of one length")
        if n and onset[0] < 0:
            raise ValueError("onset_sample must be non-negative")
        if (onset[1:] <= onset[:-1]).any():
            raise ValueError("marker onset samples must be strictly increasing")
        outside = (image < 0) | (image >= N_IMAGES)
        if outside.any():
            raise ValueError(f"image_id {image[outside][0]} outside [0, {N_IMAGES})")
        if (run < 0).any() or (session < 0).any():
            raise ValueError("run/session indices must be non-negative")
        if (np.abs(target) > 1).any():
            raise ValueError("target must be 1, 0 or -1 (unknown)")

    @classmethod
    def of(cls, events) -> Markers:
        """`events` as a table: a Markers as it is, else its rows'."""
        if isinstance(events, Markers):
            return events
        return cls(*zip(*((ev.onset_sample, ev.image_id, ev.run_index,
                           ev.session_index, -1 if ev.is_target is None
                           else int(bool(ev.is_target)), ev.onset_s)
                          for ev in events)))

    @property
    def provenance(self) -> np.ndarray:
        """[n x 3] (run, session, image) rows."""
        return np.stack((self.run, self.session, self.image), axis=1)

    def __len__(self) -> int:
        return len(self.onset)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        row = object.__new__(StimulusEvent)  # a checked table's: not rechecked
        row.__dict__.update(
            image_id=int(self.image[i]), onset_sample=int(self.onset[i]),
            run_index=int(self.run[i]), session_index=int(self.session[i]),
            is_target=None if self.target[i] < 0 else bool(self.target[i]),
            onset_s=float(self.onset_s[i]))
        return row

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(other)
        return fields_equal(self, other)


@dataclass(frozen=True)
class EegRecord:
    """Multichannel sample matrix plus rate and time-aligned stimulus markers."""

    channels: ChannelSet
    rate: float
    samples: np.ndarray  # [n_channels x n_samples], microvolts, may hold NaN
    markers: Markers = ()  # or a sequence of StimulusEvent rows

    def __post_init__(self) -> None:
        if not 0 < self.rate < np.inf:  # NaN fails too
            raise ValueError("rate must be finite and positive")
        samples = set_readonly(self, "samples", self.samples)
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-D matrix")
        if samples.shape[0] != len(self.channels):
            raise ValueError(
                f"samples has {samples.shape[0]} rows, expected {len(self.channels)}"
            )
        markers = Markers.of(self.markers)
        if len(markers) and markers.onset[-1] >= samples.shape[1]:
            raise ValueError("marker onset beyond end of record")
        object.__setattr__(self, "markers", markers)

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
        return EegRecord(self.channels, self.rate, self.samples, markers)

    def with_channels(self, labels) -> "EegRecord":
        """The rows of `labels`, in that order; KeyError names a missing one."""
        rows = self.channels.indices(labels)
        return EegRecord(ChannelSet(labels), self.rate, self.samples[rows],
                         self.markers)


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

