"""FastICA blind source separation with artifact identification.

Whitening projects mean-centred data onto covariance eigenvectors scaled by
inverse square-root eigenvalues.  Both estimators run one routine, the
one-unit tanh fixed point (Hyvarinen & Oja 1997), over the whole whitened
record.  `fit` runs it once, from the whitened sample of largest norm, to
extract the blink, the one stable direction over a Gaussian background
(Hyvarinen 1999), and keeps that one component; `fastica` runs it once per
row by deflation, each row started from a draw of `rng` and kept
orthogonal to the rows already found.  Components that are strongly
super-Gaussian and load mostly on frontal channels are flagged as blinks,
and reconstruction subtracts the flagged ones from the data.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import FRONTAL_LABELS, ChannelSet

EIGENVALUE_FLOOR = 1e-12  # relative to the largest eigenvalue
FRONTAL_FRACTION = 0.6  # least share of a blink's mixing energy on the front


class RankError(ValueError):
    """The data's numerical rank is below its channel count."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_w: np.ndarray, iterations: int):
        super().__init__(message)
        self.last_w = last_w
        self.iterations = iterations


@dataclass(frozen=True)
class IcaModel:
    """Whitening and components of a recording; W's rows alone count them."""

    mean: np.ndarray        # [n_channels]
    whitening: np.ndarray   # V, [m x n_channels]
    unmixing: np.ndarray    # W, [k x m], orthonormal rows in whitened space
    mixing: np.ndarray      # A, [n_channels x k]

    def __post_init__(self) -> None:
        w = np.asarray(self.unmixing)
        if w.ndim != 2 or w.shape[1] != len(self.whitening):
            raise ValueError("unmixing must be k x the whitened dimension")
        if not np.allclose(w @ w.T, np.eye(len(w)), atol=1e-6):
            raise ValueError("unmixing rows must be orthonormal within 1e-6")


def whiten(data: np.ndarray):
    """(mean, V, whitened) with the whitened sample covariance = identity.

    Eigenvalues below 1e-12 of the largest are treated as numerically null and
    cannot back a component: each channel needs one.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be [n_channels x n_samples]")
    n_channels, n_samples = data.shape
    if n_samples <= n_channels:
        raise ValueError("need more samples than channels")
    mean = data.mean(axis=1)
    centred = data - mean[:, None]
    cov = centred @ centred.T / (n_samples - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    retained = int(np.sum(evals > EIGENVALUE_FLOOR * evals[0]))
    if n_channels > retained:
        raise RankError(f"numerical rank {retained} < {n_channels} channels")
    v = evecs.T / np.sqrt(evals)[:, None]
    return mean, v, v @ centred


def _one_unit(z: np.ndarray, w: np.ndarray, rows: np.ndarray, tol: float,
              max_iter: int):
    """One-unit tanh fixed point on whitened z from start w, orthogonal to
    the orthonormal `rows`; returns (w, steps), or (w, None) unconverged.

    Each step is w <- E[z tanh(w z)] - E[1 - tanh(w z)^2] w, with `rows`
    projected out and the result normalized; it stops once
    1 - |w_new . w| < tol, a change invariant to the iteration's sign flips.
    """
    n = z.shape[1]
    w = w / np.linalg.norm(w)
    for step in range(1, max_iter + 1):
        g = np.tanh(w @ z)
        w_new = g @ z.T / n - (1.0 - g ** 2).sum() / n * w
        w_new -= rows.T @ (rows @ w_new)
        w_new /= np.linalg.norm(w_new)
        w, w_old = w_new, w
        if 1.0 - abs(w @ w_old) < tol:
            return w, step
    return w, None


def _complete(rows: np.ndarray) -> np.ndarray:
    """Orthonormal k x k matrix whose leading rows are `rows` up to sign."""
    k = rows.shape[1]
    return np.linalg.qr(np.column_stack([rows.T, np.eye(k)]))[0].T


def fastica(whitened: np.ndarray, rng: np.random.Generator,
            tol: float = 1e-4, max_iter: int = 200):
    """Deflation estimate of W: one row at a time, each started from a draw
    of `rng` and kept orthogonal to the rows before it.

    Returns (W, sources); sources are unit-variance rows of W @ whitened with
    each row's sign fixed so its largest-magnitude loading is positive.
    Raises ConvergenceError when a row has not converged after max_iter
    steps; it carries the rows found so far, completed to an orthonormal
    basis, and that row's step count.
    """
    z = np.asarray(whitened, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("whitened data must be 2-D")
    k = z.shape[0]

    w = np.empty((0, k))
    for row in range(k):
        unit, steps = _one_unit(z, rng.standard_normal(k), w, tol, max_iter)
        if steps is None:
            raise ConvergenceError(
                f"row {row} not converged after {max_iter} iterations",
                _complete(w), max_iter)
        w = np.vstack([w, unit])
    return _finalize(w, z)


def _finalize(w: np.ndarray, z: np.ndarray):
    """Sign-fix rows (largest loading positive) and unit-variance the sources."""
    largest = w[np.arange(len(w)), np.argmax(np.abs(w), axis=1)]
    w = np.where(largest[:, None] < 0, -w, w)
    sources = w @ z
    std = sources.std(axis=1, ddof=1)
    std[std == 0] = 1.0
    sources = sources / std[:, None]
    return w, sources


def fit(data: np.ndarray, *, tol: float = 1e-4, max_iter: int = 200):
    """Whiten, then extract one component; returns (IcaModel, sources).

    Stops once 1 - |w_new . w| < tol, or warns and keeps the last iterate
    after max_iter steps.  The model keeps it alone: k = 1, mixing V^-1 w^T.
    """
    mean, v, z = whiten(data)
    start = z[:, np.argmax(np.einsum("ij,ij->j", z, z))]
    w, steps = _one_unit(z, start, np.empty((0, len(z))), tol, max_iter)
    if steps is None:
        warnings.warn("accepting unconverged unmixing (no convergence after "
                      f"{max_iter} iterations)", RuntimeWarning, stacklevel=2)
    w, sources = _finalize(w[None, :], z)
    return IcaModel(mean=mean, whitening=v, unmixing=w,
                    mixing=np.linalg.solve(v, w.T)), sources


def classify_components(model: IcaModel, sources: np.ndarray,
                        channels: ChannelSet,
                        kurtosis_threshold: float = 10.0) -> np.ndarray:
    """Boolean artifact mask: super-Gaussian AND frontally concentrated.

    A component is a blink candidate when its excess kurtosis exceeds
    kurtosis_threshold and at least FRONTAL_FRACTION of its mixing-column
    energy lies on the frontal channels.  A constant component has excess
    kurtosis 0.
    """
    frontal_rows = [i for i, lab in enumerate(channels) if lab in FRONTAL_LABELS]
    centred = sources - sources.mean(axis=1, keepdims=True)
    squared = centred ** 2
    var = squared.mean(axis=1)
    fourth = (squared ** 2).mean(axis=1)  # not centred ** 4: pow is slow
    energy = np.sum(model.mixing ** 2, axis=0)
    frontal = np.sum(model.mixing[frontal_rows] ** 2, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 flags nothing
        kurtosis = np.where(var > 0, fourth / var ** 2 - 3.0, 0.0)
        return ((kurtosis > kurtosis_threshold) & (energy > 0)
                & (frontal / energy >= FRONTAL_FRACTION))


def reconstruct(model: IcaModel, data: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
    """The data less its masked components: the data bitwise if none."""
    data = np.asarray(data, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(model.unmixing),):
        raise ValueError("mask length must equal the component count")
    if data.shape[0] != model.mean.shape[0]:
        raise ValueError("data row count must match the fitted channel count")
    centred = data - model.mean[:, None]
    removed = model.unmixing[mask] @ model.whitening @ centred
    return data - model.mixing[:, mask] @ removed
