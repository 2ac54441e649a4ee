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

The solve uses numpy alone.  One routine, `_shrinkage_solve`, forms and
factors a fit's matrix c D (S - V^T V) D + mu I a panel of `_PANEL` rows at a
time (a left-looking blocked Cholesky): S the shared scatter, D the fit's
scaling, V the rows that leave it.  Each panel reads its slice of S, scales
it, and subtracts the leaving rows and the factor rows already computed in
one matrix product, so the matrix is never copied, scaled or downdated whole.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import set_readonly

DEFAULT_SHRINKAGE = 1e-3
_PANEL = 48  # rows per panel of the factorization, fastest at d = 845


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
    some leave, rescaled, by downdating instead of refitting from the rows
    that stay.  `merged` adds rows in place.
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
        d = self.scatter.shape[0]
        return self.solve_scaled(np.zeros(d), np.ones(d), shrinkage)

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
                     shrinkage: float = DEFAULT_SHRINKAGE) -> LdaModel:
        """The discriminant of these rows mapped by (x - shift) * factor.

        With D = diag(factor) the means map to D (m - shift) and the scatter
        to D S D, formed and factored in a new buffer by `_shrinkage_solve`.
        """
        return _shrinkage_solve(self.scatter, self.counts, self.means, shift,
                                factor, shrinkage, np.empty(self.scatter.shape))

    def solve_without(self, rows: np.ndarray, labels: np.ndarray,
                      shift: np.ndarray, factor: np.ndarray,
                      shrinkage: float) -> LdaModel:
        """`solve_scaled` of the rows that stay once `rows` leave.

        Nothing it is given is written.  Per class, with n rows in all, k
        leaving and r = n - k staying, the exact downdate of Chan, Golub &
        LeVeque (1979) is scatter_rest = scatter_all - scatter_part
        - (r k / n) g g^T, g the leaving rows' mean minus the staying ones':
        V^T V for V the leaving rows centred on their class means and
        sqrt(r k / n) g for each class that loses rows and keeps some.  V is
        written into the first rows of a new buffer, above the d rows where
        `_shrinkage_solve` factors and subtracts it.
        """
        masks = (labels, ~labels)
        ks = [int(np.count_nonzero(mask)) for mask in masks]
        n_leaving = len(rows) + sum(0 < k < n for n, k in zip(self.counts, ks))
        out = np.empty((n_leaving + len(self.scatter), len(self.scatter)))
        counts, means, at = [], [], 0
        for n, mean, mask, k in zip(self.counts, self.means, masks, ks):
            if k:
                part = np.compress(mask, rows, axis=0, out=out[at:at + k])
                part_mean = part.mean(axis=0)
                part -= part_mean
                at += k
                if k == n:
                    mean = np.zeros_like(mean)
                else:
                    mean = (n * mean - k * part_mean) / (n - k)
                    out[at] = math.sqrt((n - k) * k / n) * (part_mean - mean)
                    at += 1
            counts.append(n - k)
            means.append(mean)
        return _shrinkage_solve(self.scatter, tuple(counts), np.array(means),
                                shift, factor, shrinkage, out, n_leaving)


def _shrinkage_solve(scatter: np.ndarray, counts: tuple[int, int],
                     means: np.ndarray, shift: np.ndarray, factor: np.ndarray,
                     shrinkage: float, out: np.ndarray,
                     n_leaving: int = 0) -> LdaModel:
    """The discriminant of the scaled rows that stay, factored in `out`.

    The matrix is A = c D (S - V^T V) D + mu I: S the d x d `scatter`,
    D = diag(factor), V the `n_leaving` rows of `out` just above its last d,
    c = (1 - shrinkage) / (n - 2) for the n rows that stay, and mu the
    shrinkage times the mean diagonal of D (S - V^T V) D / (n - 2).  A is
    never formed whole.  The last d rows of `out` come to hold U, upper
    triangular with A = U^T U, `_PANEL` rows at a time (left-looking blocked
    Cholesky; Golub & Van Loan, Matrix Computations, 4.2): a panel reads its
    rows of S from its diagonal on, scales them, and subtracts one product
    of the rows above it in `out`, sqrt(c) V D and the factor rows done;
    its diagonal block is factored, and the rest of its rows is solved
    against it by the inverse of the block's factor.  The solve is a blocked
    substitution with U^T, then with U, through the same inverses.
    """
    if not 0 <= shrinkage <= 1:
        raise ValueError("shrinkage must lie in [0, 1]")
    if min(counts) == 0:
        raise ValueError("both classes must be present")
    d = scatter.shape[0]
    top = len(out) - d
    leaving, upper = out[top - n_leaving:top], out[top:]
    dof = max(sum(counts) - 2, 1)
    scale = (1.0 - shrinkage) / dof
    kept = np.diagonal(scatter) - np.einsum("ki,ki->i", leaving, leaving)
    mu = shrinkage * float(kept @ (factor * factor)) / dof / d
    leaving *= math.sqrt(scale) * factor
    row_factor = scale * factor
    panels = [(start, min(start + _PANEL, d)) for start in range(0, d, _PANEL)]
    work = np.empty((2, _PANEL, d))  # a panel's rows of A, and of scaled S
    diagonal = work[0].reshape(-1)[::d + 1]  # the diagonal of its first block
    inverses = []  # of each diagonal block's lower factor
    for start, stop in panels:
        rows, scaled = work[:, :stop - start, :d - start]
        done = out[top - n_leaving:top + start]
        np.matmul(done[:, start:stop].T, done[:, start:], out=rows)
        np.multiply(scatter[start:stop, start:], factor[start:], out=scaled)
        scaled *= row_factor[start:stop, None]
        np.subtract(scaled, rows, out=rows)
        diagonal[:stop - start] += mu
        if not np.isfinite(rows).all():
            raise ValueError("the regularized scatter is not finite")
        lower = np.linalg.cholesky(rows[:, :stop - start])
        inverses.append(np.linalg.inv(lower))
        np.matmul(inverses[-1], rows[:, stop - start:],
                  out=upper[start:stop, stop:])
        upper[start:stop, start:stop] = lower.T
    means = (means - shift) * factor
    m1, m2 = means
    w = m1 - m2
    for (start, stop), inverse in zip(panels, inverses):
        w[start:stop] = inverse @ (w[start:stop]
                                   - upper[:start, start:stop].T @ w[:start])
    for (start, stop), inverse in zip(panels[::-1], inverses[::-1]):
        w[start:stop] = inverse.T @ (w[start:stop]
                                     - upper[start:stop, stop:] @ w[stop:])
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
