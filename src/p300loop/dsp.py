"""Band-pass filtering and min-max feature scaling.

The band-pass is a 3rd-order Butterworth (6 poles after the band transform),
discretized by bilinear transform with pre-warping and factored into
second-order sections, bitwise as scipy.signal's butter and zpk2sos design it.
With a 0.1 Hz corner at 128 Hz the poles sit very close to the unit circle, so
the cascade form is required for numerical stability.  Filtering is causal
(forward-only): the system is online, and the classifier absorbs the group
delay through retraining.  The cascade runs as a block-state filter (Burrus
1972, IEEE Trans. Audio Electroacoust. 20:230), a few matrix products per block
of `_BLOCK` samples, and matches scipy.signal.sosfilt to rounding.  Scaling
serves the one map every fit solves for, clip((x - mins) * factors, 0, 1).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_RATE, EegRecord, fields_equal, set_readonly

_BLOCK = 64  # samples per block of the filter kernel


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
        sections = set_readonly(self, "sections", self.sections)
        if sections.ndim != 2 or sections.shape[1] != 5:
            raise ValueError("sections must be an n x 5 matrix")
        for b0, b1, b2, a1, a2 in sections:
            poles = np.roots([1.0, a1, a2])
            if np.any(np.abs(poles) >= 1.0):
                raise ValueError("unstable section: pole on or outside unit circle")

    @property
    def n_sections(self) -> int:
        return self.sections.shape[0]

    @property
    def sos(self) -> np.ndarray:
        """Sections in (b0, b1, b2, a0=1, a1, a2) layout, gain not included."""
        return np.insert(self.sections, 3, 1.0, axis=1)

    @functools.cached_property
    def _blocks(self) -> tuple[np.ndarray, ...]:
        """Per block of `_BLOCK` samples, from the recursion sosfilt runs
        (transposed direct form II) fed unit impulses and unit start states:
        the impulse responses T and the zero-input responses C of the states,
        both with the gain; [F; I], mapping [start state, input term] to the
        next start state; and G, mapping a block's input to its input term."""
        n, n_state = _BLOCK, 2 * self.n_sections
        x = np.eye(n + n_state, n)
        state = np.eye(n + n_state, n_state, -n)
        for k, (b0, b1, b2, a1, a2) in enumerate(self.sections):
            z0, z1 = state[:, 2 * k].copy(), state[:, 2 * k + 1].copy()
            for t in range(n):
                y = b0 * x[:, t] + z0
                z0 = b1 * x[:, t] - a1 * y + z1
                z1 = b2 * x[:, t] - a2 * y
                x[:, t] = y
            state[:, 2 * k], state[:, 2 * k + 1] = z0, z1
        x *= self.gain
        return x[:n], x[n:], np.vstack((state[n:], np.eye(n_state))), state[:n]


@functools.lru_cache(maxsize=32)
def design_bandpass(spec: FilterSpec) -> FilterCoefficients:
    """Design the Butterworth band-pass as second-order sections plus gain,
    cached per spec: equal specs share one read-only coefficients object.
    A port of scipy.signal's butter(output="zpk") and zpk2sos(pairing=
    "nearest"); the zeros are `order` at z = -1 and `order` at z = +1."""
    n = spec.order
    analog = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2.0) / (2 * n))
    edges = np.array([spec.low_cut, spec.high_cut]) / (float(spec.rate) / 2)
    warped = 4.0 * np.tan(np.pi * edges / 2.0)
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(np.prod(warped)))
    lowpass = analog * bw / 2
    root = np.sqrt(lowpass ** 2 - wo ** 2)
    band = np.concatenate((lowpass + root, lowpass - root))
    gain = bw ** n * np.real(4.0 ** n / np.prod(4.0 - band))
    poles = (4.0 + band) / (4.0 - band)
    # one pole of each conjugate pair, then the real poles
    real = np.abs(poles.imag) <= 100 * np.finfo(float).eps * np.abs(poles)
    poles = np.concatenate((poles[~real & (poles.imag > 0)], poles[real].real))
    zeros = np.repeat([-1.0, 1.0], n)
    sections = np.empty((n, 5))
    for si in range(n - 1, -1, -1):  # the pole nearest the circle goes last
        i = np.argmin(np.abs(1 - np.abs(poles)))
        p1, poles = poles[i], np.delete(poles, i)
        if np.isreal(p1):  # with the real pole left nearest the circle
            reals = np.flatnonzero(np.isreal(poles))
            i = reals[np.argmin(np.abs(1 - np.abs(poles[reals])))]
            p2, poles = poles[i], np.delete(poles, i)
        else:
            p2 = p1.conj()
        near = np.argsort(np.abs(zeros - p1), kind="stable")[:2]
        pair, zeros = zeros[near], np.delete(zeros, near)  # the nearest two
        sections[si, :3] = np.poly(pair)
        sections[si, 3:] = np.poly([p1, p2])[1:]
    return FilterCoefficients(sections=sections, gain=float(gain))


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
    """Causal cascade along each row, zero initial state, all rows in one
    call; a row holding NaN is refused, as `prune_channels` handles NaN.

    Block j's output is X_j T + S_j C, its start state S_j = S_{j-1} F +
    X_{j-1} G.  Whole blocks are views of `rows`; the tail is one zero-padded
    block, exact because the filter is causal."""
    rows = np.asarray(rows, dtype=np.float64)
    if np.isnan(rows).any():
        raise ValueError("rows hold NaN samples: prune channels first")
    taps, zir, step, feed = coeffs._blocks
    n_rows, n = rows.shape
    full, tail = divmod(n, _BLOCK)
    n_head, n_state = full * _BLOCK, len(zir)
    head = rows[:, :n_head].reshape(n_rows, full, _BLOCK)
    # [S_j, X_j G] per block: one product per step.  A doubling scan over
    # powers of F, far from normal, erred 7e-12 of the output against 3e-13
    states = np.zeros((full + (tail > 0), n_rows, 2 * n_state))
    np.matmul(head.transpose(1, 0, 2), feed, out=states[:full, :, n_state:])
    for prev, start in zip(list(states), list(states[1:, :, :n_state])):
        np.matmul(prev, step, out=start)
    starts = states[:, :, :n_state]
    out = np.empty((n_rows, n))
    for row in range(n_rows):
        mine = out[row, :n_head].reshape(full, _BLOCK)
        np.matmul(head[row], taps, out=mine)
        mine += starts[:full, row] @ zir
    if tail:
        last = np.zeros((n_rows, _BLOCK))
        last[:, :tail] = rows[:, n_head:]
        out[:, n_head:] = (last @ taps + starts[-1] @ zir)[:, :tail]
    return out


def filter_apply(coeffs: FilterCoefficients, data):
    """Apply the filter causally, per channel, zero initial state.

    Accepts an EegRecord (returns a new record, markers kept), a 2-D matrix, or
    a 1-D series; a channel holding NaN is refused (prune channels first).
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
        mins = set_readonly(self, "mins", self.mins)
        maxes = set_readonly(self, "maxes", self.maxes)
        if mins.ndim != 1 or mins.shape != maxes.shape:
            raise ValueError("mins and maxes must be 1-D vectors of equal length")
        if not (mins <= maxes).all() or not np.isfinite([mins, maxes]).all():
            raise ValueError("every min and max must be finite, max >= min")

    __eq__ = fields_equal

    @property
    def n_features(self) -> int:
        return self.mins.shape[0]

    @property
    def factors(self) -> np.ndarray:
        """D of the map D (x - mins) that fits solve for: 1 / (max - min), or
        0 where that overflows (constant features, spans < 1 / finfo.max)."""
        with np.errstate(divide="ignore", over="ignore"):
            factors = 1.0 / (self.maxes - self.mins)
        return np.where(np.isinf(factors), 0.0, factors)


def minmax_fit(vectors) -> ScalingParams:
    """Elementwise min and max over a set of training feature vectors."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("need at least one feature vector")
    return ScalingParams(mins=arr.min(axis=0), maxes=arr.max(axis=0))


def minmax_apply(params: ScalingParams, v) -> np.ndarray:
    """clip((v - mins) * factors, 0, 1): the rows a fit was solved for."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape[-1] != params.n_features:
        raise ValueError(
            f"vector length {arr.shape[-1]} != {params.n_features} features")
    scaled = arr - params.mins  # the one full-size array
    scaled *= params.factors
    return np.clip(scaled, 0.0, 1.0, out=scaled)
