"""FastICA blind source separation with artifact identification.

Whitening projects mean-centred data onto covariance eigenvectors scaled by
inverse square-root eigenvalues.  `fit` extracts the blink by the one-unit
tanh fixed point (Hyvarinen & Oja 1997) from the whitened sample of largest
norm, the one stable direction over a Gaussian background (Hyvarinen 1999),
and completes it to an orthonormal basis; `fastica` runs the symmetric
iteration over all rows.  Each step is one pass over the whitened data in
column blocks of BLOCK_SAMPLES through one reused buffer.  Components that
are strongly super-Gaussian and load mostly on frontal channels are flagged
as blinks and zeroed before reconstruction.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import FRONTAL_LABELS, ChannelSet

EIGENVALUE_FLOOR = 1e-12  # relative to the largest eigenvalue
# Samples per column block of a fixed-point step.  One block of 13 whitened
# rows is 416 KiB of float64, so it stays in a 2 MiB per-core L2 cache from
# its matmul through its tanh to its two sums, where whole-record temporaries
# (4.2 MB on a 318 s record) go out to memory between each of those passes.
BLOCK_SAMPLES = 4096


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


def fastica(whitened: np.ndarray, rng: np.random.Generator,
            tol: float = 1e-4, max_iter: int = 200):
    """Symmetric fixed-point estimation of W, started from a draw of `rng`.

    Returns (W, sources); sources are unit-variance rows of W @ whitened with
    each row's sign fixed so its largest-magnitude loading is positive.
    Each step runs over the samples in blocks of BLOCK_SAMPLES columns (see
    _fixed_point_step); with at most one block, W is bitwise that of the
    unblocked step, while longer records sum in a different order.
    Raises ConvergenceError (carrying the last iterate) after max_iter steps
    without the maximum row-angle change dropping below tol, or on a step
    that cannot be orthonormalized (carrying the last iterate that was).
    """
    z = np.asarray(whitened, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("whitened data must be 2-D")
    k = z.shape[0]

    buf = np.empty(k * min(z.shape[1], BLOCK_SAMPLES))
    w = _symmetric_orthonormalize(rng.standard_normal((k, k)))
    for iteration in range(1, max_iter + 1):
        w_new = _fixed_point_step(w, z, buf)
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


def _fixed_point_step(w: np.ndarray, z: np.ndarray,
                      buf: np.ndarray) -> np.ndarray:
    """E[z tanh(w z)^T] - E[1 - tanh(w z)^2] w per row of w, unnormalized.

    Runs over column blocks of z (views, not copies) with tanh(w z) of each
    block held in the flat buffer `buf` of at least len(w) * min(n,
    BLOCK_SAMPLES) floats.  A single block performs the same operations on
    the same operands as the unblocked expression: the same result, bitwise.
    """
    k, n = z.shape
    gz = np.zeros((len(w), k))
    gp = np.zeros(len(w))
    for start in range(0, n, BLOCK_SAMPLES):
        zb = z[:, start:start + BLOCK_SAMPLES]
        g = buf[:len(w) * zb.shape[1]].reshape(len(w), -1)  # contiguous
        np.matmul(w, zb, out=g)
        np.tanh(g, out=g)
        gz += g @ zb.T
        gp += (1.0 - g ** 2).sum(axis=1)
    return gz / n - (gp / n)[:, None] * w


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


def fit(data: np.ndarray, *, tol: float = 1e-4, max_iter: int = 200):
    """Whiten, then extract one component; returns (IcaModel, sources).

    Stops once 1 - |w_new . w| < tol, or warns and keeps the last iterate
    after max_iter steps.  Unmixing row 0 is the extracted direction.
    """
    mean, v, z = whiten(data)
    w = z[:, np.argmax(np.einsum("ij,ij->j", z, z))]
    w = w / np.linalg.norm(w)
    buf = np.empty(min(z.shape[1], BLOCK_SAMPLES))
    for _ in range(max_iter):
        w, w_old = _fixed_point_step(w[None, :], z, buf)[0], w
        w /= np.linalg.norm(w)
        if 1.0 - abs(w @ w_old) < tol:
            break
    else:
        warnings.warn("accepting unconverged unmixing (no convergence after "
                      f"{max_iter} iterations)", RuntimeWarning, stacklevel=2)
    basis, _ = np.linalg.qr(np.column_stack([w, np.eye(len(w))]))
    w, sources = _finalize(basis.T, z)
    return IcaModel(mean=mean, whitening=v, unmixing=w,
                    mixing=np.linalg.pinv(w @ v), k=len(w)), sources


def classify_components(model: IcaModel, sources: np.ndarray,
                        channels: ChannelSet,
                        kurtosis_threshold: float = 10.0,
                        frontal_fraction: float = 0.6) -> np.ndarray:
    """Boolean artifact mask: super-Gaussian AND frontally concentrated.

    A component is a blink candidate when its excess kurtosis exceeds
    kurtosis_threshold and at least frontal_fraction of its mixing-column
    energy lies on the frontal channels.  A constant component has excess
    kurtosis 0.
    """
    frontal_rows = [i for i, lab in enumerate(channels) if lab in FRONTAL_LABELS]
    centred = sources - sources.mean(axis=1, keepdims=True)
    squared = centred ** 2
    var = squared.mean(axis=1)
    fourth = (squared ** 2).mean(axis=1)  # not centred ** 4: pow is slow
    varying = var > 0
    kurtosis = np.zeros(model.k)
    kurtosis[varying] = fourth[varying] / var[varying] ** 2 - 3.0
    mask = np.zeros(model.k, dtype=bool)
    for i in range(model.k):
        column = model.mixing[:, i]
        energy = float(np.sum(column ** 2))
        if energy == 0:
            continue
        frontal_energy = float(np.sum(column[frontal_rows] ** 2))
        if (kurtosis[i] > kurtosis_threshold
                and frontal_energy / energy >= frontal_fraction):
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
