"""FastICA blind source separation with artifact identification.

Whitening projects mean-centred data onto covariance eigenvectors scaled by
inverse square-root eigenvalues.  The unmixing matrix is estimated by the
symmetric fixed-point iteration with the tanh contrast, orthonormalizing the
full matrix each step.  Components are flagged as blink artifacts when they are
strongly super-Gaussian and load mostly on frontal channels; flagged components
are zeroed before reconstruction.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import FRONTAL_LABELS, ChannelSet

EIGENVALUE_FLOOR = 1e-12  # relative to the largest eigenvalue


class RankError(ValueError):
    """Requested more components than the data's numerical rank supports."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_w: np.ndarray, iterations: int):
        super().__init__(message)
        self.last_w = last_w
        self.iterations = iterations


@dataclass(frozen=True)
class IcaModel:
    """Whitening + unmixing estimated from one recording."""

    mean: np.ndarray        # [n_channels]
    whitening: np.ndarray   # V, [k x n_channels]
    unmixing: np.ndarray    # W, [k x k], orthonormal rows in whitened space
    mixing: np.ndarray      # A_hat = pinv(W V), [n_channels x k]
    k: int

    def __post_init__(self) -> None:
        w = np.asarray(self.unmixing)
        if w.shape != (self.k, self.k):
            raise ValueError("unmixing must be k x k")
        if not _orthonormal(w):
            raise ValueError("unmixing rows must be orthonormal within 1e-6")


def _orthonormal(w: np.ndarray) -> bool:
    return np.allclose(w @ w.T, np.eye(w.shape[0]), atol=1e-6)


def whiten(data: np.ndarray, k: int | None = None):
    """(mean, V, whitened) with the whitened sample covariance = identity.

    Eigenvalues below 1e-12 of the largest are treated as numerically null and
    cannot back a component.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be [n_channels x n_samples]")
    n_channels, n_samples = data.shape
    if n_samples <= n_channels:
        raise ValueError("need more samples than channels")
    if k is None:
        k = n_channels
    if k > n_channels:
        raise RankError(f"k={k} exceeds {n_channels} channels")
    mean = data.mean(axis=1)
    centred = data - mean[:, None]
    cov = centred @ centred.T / (n_samples - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    retained = int(np.sum(evals > EIGENVALUE_FLOOR * evals[0]))
    if k > retained:
        raise RankError(f"k={k} exceeds numerical rank {retained}")
    v = evecs[:, :k].T / np.sqrt(evals[:k])[:, None]
    return mean, v, v @ centred


def _symmetric_orthonormalize(w: np.ndarray) -> np.ndarray:
    """W <- (W W^T)^(-1/2) W, all rows on equal footing, or LinAlgError when
    W W^T is too near singular for rows orthonormal within 1e-6."""
    evals, evecs = np.linalg.eigh(w @ w.T)
    if evals[0] <= 0:
        raise np.linalg.LinAlgError("degenerate unmixing iterate")
    inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    w = inv_sqrt @ w
    if not _orthonormal(w):
        raise np.linalg.LinAlgError("unmixing iterate not orthonormal")
    return w


def fastica(whitened: np.ndarray, k: int | None = None,
            nonlinearity: str = "tanh", tol: float = 1e-4,
            max_iter: int = 200,
            rng: np.random.Generator | None = None):
    """Symmetric fixed-point estimation of the unmixing matrix W.

    Returns (W, sources); sources are unit-variance rows of W @ whitened with
    each row's sign fixed so its largest-magnitude loading is positive.
    Raises ConvergenceError (carrying the last iterate) after max_iter steps
    without the maximum row-angle change dropping below tol, or on a step
    that cannot be orthonormalized (carrying the last iterate that was).
    """
    if nonlinearity != "tanh":
        raise ValueError(f"unsupported nonlinearity {nonlinearity!r}")
    z = np.asarray(whitened, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("whitened data must be 2-D")
    if k is None:
        k = z.shape[0]
    if k != z.shape[0]:
        raise ValueError("k must match the whitened row count")
    n_samples = z.shape[1]
    if rng is None:
        rng = np.random.default_rng()

    w = _symmetric_orthonormalize(rng.standard_normal((k, k)))
    for iteration in range(1, max_iter + 1):
        proj = w @ z
        g = np.tanh(proj)
        g_prime_mean = (1.0 - g ** 2).mean(axis=1)
        w_new = g @ z.T / n_samples - g_prime_mean[:, None] * w
        try:
            w_new = _symmetric_orthonormalize(w_new)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"{exc} at iteration {iteration}",
                                   w, iteration - 1) from exc
        # angle change per row, invariant to the sign flips of the iteration
        change = 1.0 - np.abs(np.sum(w_new * w, axis=1))
        w = w_new
        if change.max() < tol:
            break
    else:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations", w, max_iter)

    return _finalize(w, z)


def _finalize(w: np.ndarray, z: np.ndarray):
    """Sign-fix rows (largest loading positive) and unit-variance the sources."""
    w = w.copy()
    sources = w @ z
    for i in range(w.shape[0]):
        j = int(np.argmax(np.abs(w[i])))
        if w[i, j] < 0:
            w[i] = -w[i]
            sources[i] = -sources[i]
    std = sources.std(axis=1, ddof=1)
    std[std == 0] = 1.0
    sources = sources / std[:, None]
    return w, sources


def fit(data: np.ndarray, k: int | None = None, *, tol: float = 1e-4,
        max_iter: int = 200, rng: np.random.Generator | None = None,
        strict: bool = True):
    """Whiten then run fastica; returns (IcaModel, sources).

    With strict=False a non-converged iteration is accepted with a warning
    instead of raising: EEG-like data with a largely Gaussian background has
    no stable rotation for the background subspace, while strongly
    non-Gaussian components (artifacts) settle within a few iterations.
    """
    mean, v, z = whiten(data, k)
    try:
        w, sources = fastica(z, z.shape[0], tol=tol, max_iter=max_iter,
                             rng=rng)
    except ConvergenceError as exc:
        if strict:
            raise
        warnings.warn(f"accepting unconverged unmixing ({exc})",
                      RuntimeWarning, stacklevel=2)
        w, sources = _finalize(exc.last_w, z)
    a_hat = np.linalg.pinv(w @ v)
    model = IcaModel(mean=mean, whitening=v, unmixing=w, mixing=a_hat,
                     k=z.shape[0])
    return model, sources


def _excess_kurtosis(x: np.ndarray) -> float:
    centred = x - x.mean()
    var = np.mean(centred ** 2)
    if var == 0:
        return 0.0
    return float(np.mean(centred ** 4) / var ** 2 - 3.0)


def classify_components(model: IcaModel, sources: np.ndarray,
                        channels: ChannelSet,
                        kurtosis_threshold: float = 10.0,
                        frontal_fraction: float = 0.6) -> np.ndarray:
    """Boolean artifact mask: super-Gaussian AND frontally concentrated.

    A component is a blink candidate when its excess kurtosis exceeds
    kurtosis_threshold and at least frontal_fraction of its mixing-column
    energy lies on the frontal channels.
    """
    frontal_rows = [i for i, lab in enumerate(channels) if lab in FRONTAL_LABELS]
    mask = np.zeros(model.k, dtype=bool)
    for i in range(model.k):
        kurt = _excess_kurtosis(sources[i])
        column = model.mixing[:, i]
        energy = float(np.sum(column ** 2))
        if energy == 0:
            continue
        frontal_energy = float(np.sum(column[frontal_rows] ** 2))
        if kurt > kurtosis_threshold and frontal_energy / energy >= frontal_fraction:
            mask[i] = True
    return mask


def reconstruct(model: IcaModel, data: np.ndarray,
                mask: np.ndarray) -> np.ndarray:
    """Rebuild the data with masked components zeroed."""
    data = np.asarray(data, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (model.k,):
        raise ValueError("mask length must equal the component count")
    if data.shape[0] != model.mean.shape[0]:
        raise ValueError("data row count must match the fitted channel count")
    sources = model.unmixing @ model.whitening @ (data - model.mean[:, None])
    sources[mask] = 0.0
    return model.mixing @ sources + model.mean[:, None]
