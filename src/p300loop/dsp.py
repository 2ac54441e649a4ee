"""Band-pass filtering and min-max feature scaling.

The band-pass is a 3rd-order Butterworth (6 poles after the band transform),
discretized by bilinear transform with pre-warping and factored into
second-order sections.  With a 0.1 Hz corner at 128 Hz the poles sit very close
to the unit circle, so the cascade form is required for numerical stability.
Filtering is causal (forward-only): the system is online, and the classifier
absorbs the group delay through retraining.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from .core import DEFAULT_RATE, EegRecord


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth band-pass design parameters."""

    order: int = 3
    low_cut: float = 0.1
    high_cut: float = 20.0
    rate: float = DEFAULT_RATE

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if not 0 < self.low_cut < self.high_cut < self.rate / 2:
            raise ValueError("need 0 < low_cut < high_cut < rate/2")


@dataclass(frozen=True)
class FilterCoefficients:
    """Cascade of second-order sections (b0, b1, b2, a1, a2) plus overall gain."""

    sections: np.ndarray  # [n_sections x 5]
    gain: float

    def __post_init__(self) -> None:
        sections = np.array(self.sections, dtype=np.float64, copy=True)
        if sections.ndim != 2 or sections.shape[1] != 5:
            raise ValueError("sections must be an n x 5 matrix")
        for b0, b1, b2, a1, a2 in sections:
            poles = np.roots([1.0, a1, a2])
            if np.any(np.abs(poles) >= 1.0):
                raise ValueError("unstable section: pole on or outside unit circle")
        sections.flags.writeable = False
        object.__setattr__(self, "sections", sections)

    @property
    def n_sections(self) -> int:
        return self.sections.shape[0]

    @property
    def sos(self) -> np.ndarray:
        """Sections in (b0, b1, b2, a0=1, a1, a2) layout, gain not included."""
        out = np.empty((self.n_sections, 6))
        out[:, 0:3] = self.sections[:, 0:3]
        out[:, 3] = 1.0
        out[:, 4:6] = self.sections[:, 3:5]
        return out


def design_bandpass(spec: FilterSpec) -> FilterCoefficients:
    """Design the Butterworth band-pass as second-order sections plus gain."""
    zeros, poles, gain = signal.butter(
        spec.order, [spec.low_cut, spec.high_cut], btype="bandpass",
        fs=spec.rate, output="zpk")
    sos = signal.zpk2sos(zeros, poles, 1.0)
    return FilterCoefficients(sections=sos[:, [0, 1, 2, 4, 5]], gain=float(gain))


def frequency_response(coeffs: FilterCoefficients, freqs_hz,
                       rate: float) -> np.ndarray:
    """Complex response H(e^{j w}) evaluated directly from the sections."""
    freqs_hz = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    z_inv = np.exp(-2j * np.pi * freqs_hz / rate)
    h = np.full(freqs_hz.shape, coeffs.gain, dtype=complex)
    for b0, b1, b2, a1, a2 in coeffs.sections:
        num = b0 + b1 * z_inv + b2 * z_inv ** 2
        den = 1.0 + a1 * z_inv + a2 * z_inv ** 2
        h *= num / den
    return h


def _filter_rows(coeffs: FilterCoefficients, rows: np.ndarray) -> np.ndarray:
    """Causal cascade per row, zero initial state; NaN rows pass untouched."""
    out = np.array(rows, dtype=np.float64, copy=True)
    for i in range(out.shape[0]):
        if np.isnan(out[i]).any():
            continue  # channel awaits pruning/interpolation; leave as-is
        out[i] = coeffs.gain * signal.sosfilt(coeffs.sos, out[i])
    return out


def filter_apply(coeffs: FilterCoefficients, data):
    """Apply the filter causally, per channel, zero initial state.

    Accepts an EegRecord (returns a new record, markers kept), a 2-D matrix, or
    a 1-D series.  Channels containing NaN are passed through unmodified.
    """
    if isinstance(data, EegRecord):
        return data.with_samples(_filter_rows(coeffs, data.samples))
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        return _filter_rows(coeffs, arr[None, :])[0]
    if arr.ndim == 2:
        return _filter_rows(coeffs, arr)
    raise ValueError("expected a record, 1-D series, or 2-D matrix")


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature min and max learned from training vectors."""

    mins: np.ndarray
    maxes: np.ndarray

    def __post_init__(self) -> None:
        mins = np.array(self.mins, dtype=np.float64, copy=True)
        maxes = np.array(self.maxes, dtype=np.float64, copy=True)
        if mins.ndim != 1 or mins.shape != maxes.shape:
            raise ValueError("mins and maxes must be 1-D vectors of equal length")
        if np.any(maxes < mins):
            raise ValueError("every max must be >= its min")
        mins.flags.writeable = False
        maxes.flags.writeable = False
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxes", maxes)

    @property
    def n_features(self) -> int:
        return self.mins.shape[0]

    @property
    def factors(self) -> np.ndarray:
        """Diagonal of D in minmax_apply's map D (x - mins) before clipping:
        1 / (max - min) per feature, 0 for constant features."""
        span = self.maxes - self.mins
        return np.divide(1.0, span, out=np.zeros_like(span), where=span > 0)


def minmax_fit(vectors) -> ScalingParams:
    """Elementwise min and max over a set of training feature vectors."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("need at least one feature vector")
    return ScalingParams(mins=arr.min(axis=0), maxes=arr.max(axis=0))


def minmax_apply(params: ScalingParams, v) -> np.ndarray:
    """Scale to [0, 1] with clamping; constant features map to 0."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape[-1] != params.n_features:
        raise ValueError(
            f"vector length {arr.shape[-1]} != {params.n_features} features")
    span = params.maxes - params.mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (arr - params.mins) / safe
    scaled = np.where(span > 0, scaled, 0.0)
    return np.clip(scaled, 0.0, 1.0)
