"""Fisher linear discriminant with shrinkage-regularized within-class scatter.

With 845-dimensional features and under a thousand training epochs the pooled
scatter matrix is near-singular, so it is blended toward a scaled identity:
S_lambda = (1 - lambda) S_w + lambda (trace(S_w)/d) I.  The weight vector is the
solve S_lambda w = m1 - m2 (class 1 = target), normalized to unit length, with
the bias placing the decision boundary at the midpoint of the class means.

A fit is two steps: the class statistics (counts, means, pooled centred
scatter) and the shrinkage solve on them.  Statistics merge and downdate
blocks of rows exactly, so every fit of the loop is the scaled solve on raw
statistics: training, retraining merged block by block from the logs, and
each cross-validation fold downdated from the whole sample's statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk

from .core import set_readonly

DEFAULT_SHRINKAGE = 1e-3


@dataclass(frozen=True)
class LdaModel:
    """Trained discriminant: weights and bias; score is w.v + b."""

    w: np.ndarray
    b: float

    def __post_init__(self) -> None:
        w = set_readonly(self, "w", self.w)
        if w.ndim != 1:
            raise ValueError("w must be a vector")
        norm = np.linalg.norm(w)
        if not np.isfinite(norm) or norm == 0:
            raise ValueError("w must be finite with positive norm")


def _as_arrays(vectors, labels):
    """[n x d] float vectors and their n boolean labels, checked."""
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if vectors.ndim != 2 or labels.shape != (vectors.shape[0],):
        raise ValueError("need [n x d] vectors with one boolean label each")
    return vectors, labels


@dataclass(frozen=True)
class ClassStatistics:
    """Per-class count and mean plus the pooled centred scatter of a sample.

    Class 1 (target) comes first.  The scatter is sum over both classes of
    (x - class mean)(x - class mean)^T, not yet divided by n - 2.  An empty
    class has mean zero and adds nothing to the scatter.

    `solve` fits the discriminant of the sample, `solve_scaled` the one of
    its rows rescaled, and `solve_without` the one of the rows that stay once
    some leave, rescaled, by downdating in a caller-owned buffer instead of
    refitting from the rows that stay.  `merged` adds rows in place.
    """

    counts: tuple[int, int]
    means: np.ndarray  # [2 x d]: target mean, non-target mean
    scatter: np.ndarray  # [d x d]

    @classmethod
    def of(cls, vectors: np.ndarray, labels: np.ndarray) -> ClassStatistics:
        """Statistics of finite [n x d] vectors with one boolean label each."""
        d = vectors.shape[1]
        empty = cls(counts=(0, 0), means=np.zeros((2, d)),
                    scatter=np.zeros((d, d)))
        return empty.merged(vectors, labels)

    def solve(self, shrinkage: float = DEFAULT_SHRINKAGE) -> LdaModel:
        """The shrinkage discriminant of these statistics."""
        return _shrinkage_solve(self.scatter.copy(), self.means, self.counts,
                                shrinkage)

    def merged(self, rows: np.ndarray, labels: np.ndarray) -> ClassStatistics:
        """The statistics of this sample with finite `rows` added.

        Per class, with n rows before, k added and t = n + k, the exact merge
        of Chan, Golub & LeVeque (1979) adds the added rows' own scatter plus
        (n k / t) g g^T, g their mean minus the old one: one syrk over them
        centred on their mean and the row sqrt(n k / t) g, the dual of the
        downdate in `solve_without`.  The products add into this scatter in
        place, with no d x d copy: the returned statistics own it, and
        these are spent.
        """
        if not np.isfinite(rows).all():
            raise ValueError("training features must be finite")
        counts, means, scatter = [], [], self.scatter
        for n, mean, mask in zip(self.counts, self.means, (labels, ~labels)):
            k = int(np.count_nonzero(mask))
            if k:
                update = np.empty((k + (n > 0), rows.shape[1]))
                part = np.compress(mask, rows, axis=0, out=update[:k])
                part_mean = part.mean(axis=0)
                part -= part_mean
                gap = part_mean - mean
                update[k:] = math.sqrt(n * k / (n + k)) * gap  # none if n = 0
                scatter += update.T @ update  # a syrk, mirrored by numpy
                mean = mean + (k / (n + k)) * gap if n else part_mean
            counts.append(n + k)
            means.append(mean)
        return ClassStatistics(counts=tuple(counts), means=np.array(means),
                               scatter=scatter)

    def solve_scaled(self, shift: np.ndarray, factor: np.ndarray,
                     shrinkage: float = DEFAULT_SHRINKAGE,
                     out: np.ndarray | None = None) -> LdaModel:
        """The discriminant of these rows mapped by (x - shift) * factor.

        With D = diag(factor) the means map to D (m - shift) and the scatter
        to D S D, formed and factored in `out`, a Fortran-order [d x d]
        buffer (new by default) that may be this scatter: then only its lower
        triangle is read.
        """
        if out is None:
            out = np.empty_like(self.scatter, order="F")
        if out is not self.scatter:
            np.copyto(out.T, self.scatter)  # the scatter is symmetric
        out *= factor[:, None]
        out *= factor
        return _shrinkage_solve(out, (self.means - shift) * factor,
                                self.counts, shrinkage, lower=True)

    def solve_without(self, rows: np.ndarray, labels: np.ndarray,
                      shift: np.ndarray, factor: np.ndarray, shrinkage: float,
                      out: np.ndarray) -> LdaModel:
        """`solve_scaled` of the rows that stay once `rows` leave, in `out`.

        `out` is a Fortran-order [d x d] buffer, overwritten; nothing else is
        written.  Per class, with n rows in all, k leaving and r = n - k
        staying, the exact downdate of Chan, Golub & LeVeque (1979) is
        scatter_rest = scatter_all - scatter_part - (r k / n) g g^T, g the
        leaving rows' mean minus the staying ones': one syrk with alpha = -1
        on the lower triangle over the leaving rows centred on their class
        means and sqrt(r k / n) g for each class that loses rows and keeps some.
        """
        counts, means, downdate = [], [], []
        for n, mean_all, part in zip(self.counts, self.means,
                                     (rows[labels], rows[~labels])):
            k, rest = len(part), n - len(part)
            if k:
                part_mean = part.mean(axis=0)
                downdate.append(part - part_mean)
            if k == 0:
                mean = mean_all
            elif rest == 0:
                mean = np.zeros_like(mean_all)
            else:
                mean = (n * mean_all - k * part_mean) / rest
                downdate.append(math.sqrt(rest * k / n)
                                * (part_mean - mean)[None, :])
            counts.append(rest)
            means.append(mean)
        np.copyto(out.T, self.scatter)  # the scatter is symmetric
        if downdate:  # in place unless `out` is not Fortran-ordered
            out = dsyrk(-1.0, np.vstack(downdate).T, beta=1.0, c=out, lower=1,
                        overwrite_c=1)
        rest = ClassStatistics(counts=tuple(counts), means=np.array(means),
                               scatter=out)
        return rest.solve_scaled(shift, factor, shrinkage, out=out)


def _shrinkage_solve(scatter: np.ndarray, means: np.ndarray,
                     counts: tuple[int, int], shrinkage: float,
                     lower: bool = False) -> LdaModel:
    """The shrinkage discriminant of a pooled scatter, factored in place.

    `scatter` is overwritten; only its lower triangle is read when `lower`
    is set, only its upper one otherwise.
    """
    if not 0 <= shrinkage <= 1:
        raise ValueError("shrinkage must lie in [0, 1]")
    if min(counts) == 0:
        raise ValueError("both classes must be present")
    d = scatter.shape[0]
    m1, m2 = means
    scatter /= max(sum(counts) - 2, 1)
    target = np.trace(scatter) / d
    scatter *= 1.0 - shrinkage
    scatter[np.diag_indices(d)] += shrinkage * target
    w = cho_solve(cho_factor(scatter, lower=lower, overwrite_a=True), m1 - m2)
    norm = np.linalg.norm(w)
    if norm == 0:
        raise ValueError("degenerate training set: identical class means")
    w = w / norm
    b = -float(w @ (m1 + m2)) / 2.0
    return LdaModel(w=w, b=b)


def train(vectors, labels, shrinkage: float = DEFAULT_SHRINKAGE) -> LdaModel:
    """Fit the discriminant; class 1 (True labels) is the target class."""
    vectors, labels = _as_arrays(vectors, labels)
    return ClassStatistics.of(vectors, labels).solve(shrinkage)


def score(model: LdaModel, v) -> float | np.ndarray:
    """Discriminant value w.v + b; larger means more target-like."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != model.w.shape[0]:
        raise ValueError(
            f"vector length {v.shape[-1]} != model dimension {model.w.shape[0]}")
    out = v @ model.w + model.b
    return float(out) if out.ndim == 0 else out


def fisher_criterion(model: LdaModel, vectors, labels) -> float:
    """J = (mu1 - mu2)^2 / (s1^2 + s2^2) on the projected samples.

    Per-class spread is the population variance of the projections; two
    zero-variance point classes at distinct means give +inf.
    """
    vectors, labels = _as_arrays(vectors, labels)
    proj = vectors @ model.w
    pos = proj[labels]
    neg = proj[~labels]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes must be present")
    gap = (pos.mean() - neg.mean()) ** 2
    spread = pos.var() + neg.var()
    if spread == 0:
        return math.inf if gap > 0 else 0.0
    return float(gap / spread)
