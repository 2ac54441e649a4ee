"""Shrinkage discriminant: closed-form directions, scores, Fisher criterion."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from p300loop import lda


def _paired_cloud(mean, deltas):
    """Points mean +/- each delta: class scatter is sum of 2 d d^T terms."""
    mean = np.asarray(mean, dtype=float)
    out = []
    for d in deltas:
        d = np.asarray(d, dtype=float)
        out.append(mean + d)
        out.append(mean - d)
    return np.array(out)


def _identity_scatter_data():
    """Pooled within-class scatter exactly the 2x2 identity.

    Four points per class at mean +/- (sqrt(1.5), 0) and +/- (0, sqrt(1.5)):
    each class contributes diag(3, 3), and the pooled divisor is n - 2 = 6.
    """
    a = math.sqrt(1.5)
    pos = _paired_cloud([1.0, 0.0], [(a, 0.0), (0.0, a)])
    neg = _paired_cloud([-1.0, 0.0], [(a, 0.0), (0.0, a)])
    vectors = np.vstack([pos, neg])
    labels = np.array([True] * 4 + [False] * 4)
    return vectors, labels


class TestLdaModel:
    def test_weight_vector_validated(self):
        with pytest.raises(ValueError):
            lda.LdaModel(w=np.zeros(3), b=0.0)
        with pytest.raises(ValueError):
            lda.LdaModel(w=np.zeros((2, 2)), b=0.0)
        with pytest.raises(ValueError):
            lda.LdaModel(w=np.array([np.inf, 1.0]), b=0.0)

    def test_weights_read_only(self):
        model = lda.LdaModel(w=np.array([1.0, 0.0]), b=0.0)
        with pytest.raises(ValueError):
            model.w[0] = 2.0


class TestTrain:
    def test_identity_scatter_direction_is_exact(self):
        vectors, labels = _identity_scatter_data()
        model = lda.train(vectors, labels)
        # separation along the first axis only; no float residue on the second
        assert model.w[0] == 1.0
        assert model.w[1] == 0.0
        assert model.b == 0.0

    def test_identity_case_insensitive_to_shrinkage(self):
        # scatter proportional to I is a fixed point of the shrinkage blend
        vectors, labels = _identity_scatter_data()
        for lam in (0.0, 0.3, 1.0):
            model = lda.train(vectors, labels, shrinkage=lam)
            assert abs(model.w[0] - 1.0) < 1e-15
            assert abs(model.w[1]) < 1e-15

    def test_anisotropic_direction_vs_hand_solution(self):
        # within-class scatter diag(1, 4) and mean gap (2, 2): the
        # discriminant trades off to direction (1, 0.25)
        a = math.sqrt(1.5)
        pos = _paired_cloud([1.0, 1.0], [(a, 0.0), (0.0, 2 * a)])
        neg = _paired_cloud([-1.0, -1.0], [(a, 0.0), (0.0, 2 * a)])
        vectors = np.vstack([pos, neg])
        labels = np.array([True] * 4 + [False] * 4)
        model = lda.train(vectors, labels, shrinkage=0.0)
        want = np.array([1.0, 0.25]) / np.linalg.norm([1.0, 0.25])
        angle = math.acos(min(1.0, abs(float(model.w @ want))))
        assert angle <= 1e-9

    def test_direction_matches_direct_solve_on_random_data(self):
        rng = np.random.default_rng(12)
        d = 6
        pos = rng.normal(size=(40, d)) @ rng.normal(size=(d, d)) + 1.0
        neg = rng.normal(size=(40, d)) @ rng.normal(size=(d, d))
        vectors = np.vstack([pos, neg])
        labels = np.array([True] * 40 + [False] * 40)
        model = lda.train(vectors, labels, shrinkage=0.0)

        m1, m2 = pos.mean(axis=0), neg.mean(axis=0)
        scatter = ((pos - m1).T @ (pos - m1) + (neg - m2).T @ (neg - m2)) / 78
        direct = np.linalg.solve(scatter, m1 - m2)
        direct = direct / np.linalg.norm(direct)
        # the chord between the unit vectors, of either sign: acos of their
        # dot product reads 1.5e-8 once it rounds one step below 1
        chord = min(np.linalg.norm(model.w - direct),
                    np.linalg.norm(model.w + direct))
        assert chord <= 1e-9

    def test_full_shrinkage_reduces_to_mean_difference(self):
        rng = np.random.default_rng(13)
        pos = rng.normal(size=(30, 4)) + np.array([2.0, 0.0, 0.0, 0.0])
        neg = rng.normal(size=(30, 4))
        vectors = np.vstack([pos, neg])
        labels = np.array([True] * 30 + [False] * 30)
        model = lda.train(vectors, labels, shrinkage=1.0)
        gap = pos.mean(axis=0) - neg.mean(axis=0)
        gap = gap / np.linalg.norm(gap)
        assert abs(float(model.w @ gap)) > 1.0 - 1e-12

    def test_target_class_projects_higher(self):
        vectors, labels = _identity_scatter_data()
        model = lda.train(vectors, labels)
        projected = vectors @ model.w
        assert projected[labels].mean() > projected[~labels].mean()
        assert lda.score(model, np.array([1.0, 0.0])) > 0
        assert lda.score(model, np.array([-1.0, 0.0])) < 0

    def test_unit_norm_weights(self):
        rng = np.random.default_rng(14)
        vectors = rng.normal(size=(50, 8))
        labels = rng.random(50) > 0.5
        vectors[labels] += 0.5
        model = lda.train(vectors, labels)
        assert np.linalg.norm(model.w) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_dataset_objects(self, training_dataset):
        from p300loop import dsp
        scaling = dsp.minmax_fit(training_dataset.vectors)
        scaled = dsp.minmax_apply(scaling, training_dataset.vectors)
        model = lda.train(scaled, training_dataset.labels)
        assert model.w.shape == (845,)

    def test_validation(self):
        with pytest.raises(ValueError):
            lda.train(np.zeros((4, 2)), np.array([True] * 4))
        with pytest.raises(ValueError):
            lda.train(np.array([[np.nan, 0.0], [0.0, 1.0]]),
                      np.array([True, False]))
        with pytest.raises(ValueError):
            lda.train(np.zeros((4, 2)), np.array([True, True, False, False]),
                      shrinkage=1.5)
        # identical class means cannot define a direction
        with pytest.raises(ValueError):
            lda.train(np.array([[1.0, 0.0], [-1.0, 0.0],
                                [1.0, 0.0], [-1.0, 0.0]]),
                      np.array([True, True, False, False]))


def _one_piece_train(vectors, labels, shrinkage):
    """Reference: the discriminant written out in one piece, with the numpy
    calls of `lda.train` in the same order: while d is at most one panel the
    results are bitwise equal."""
    pos, neg = vectors[labels], vectors[~labels]
    n, d = vectors.shape
    m1, m2 = pos.mean(axis=0), neg.mean(axis=0)
    pos_c, neg_c = pos - m1, neg - m2
    scatter = pos_c.T @ pos_c + neg_c.T @ neg_c
    factor = np.ones(d)  # train scales nothing
    dof = max(n - 2, 1)
    regularized = scatter * factor
    regularized *= ((1.0 - shrinkage) / dof * factor)[:, None]
    regularized[np.diag_indices(d)] += (
        shrinkage * float(np.diagonal(scatter) @ (factor * factor)) / dof / d)
    inverse = np.linalg.inv(np.linalg.cholesky(regularized))
    w = inverse.T @ (inverse @ (m1 - m2))
    w = w / np.linalg.norm(w)
    return w, -float(w @ (m1 + m2)) / 2.0


@st.composite
def _blocked_rows(draw):
    """Labelled rows, the cut points of the blocks they are merged in, and a
    scaling (shift, factor, shrinkage).  The first block is one target row,
    so it holds no non-target, and the second holds no target."""
    n = draw(st.integers(4, 60))
    d = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = (rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
               + rng.normal(size=d) * 20.0)
    labels = rng.random(n) < 0.3
    cuts = sorted(draw(st.sets(st.integers(2, n - 1), max_size=8)) | {1})
    labels[0] = True
    labels[1:(cuts + [n])[1]] = False
    vectors[labels] += 1.0
    shift = vectors.min(axis=0)
    factor = rng.uniform(0.1, 2.0, size=d)
    factor[1:][rng.random(d - 1) < 0.2] = 0.0  # constant features
    return vectors, labels, cuts, shift, factor, draw(st.floats(0.01, 1.0))


class TestClassStatistics:
    @staticmethod
    def _data(seed=4, n=60, d=7):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, d)) + 3.0
        labels = rng.random(n) < 0.3
        vectors[labels] += 0.8
        return vectors, labels

    def test_train_is_bitwise_the_one_piece_solve(self):
        vectors, labels = self._data(n=300, d=40)
        model = lda.train(vectors, labels, shrinkage=0.01)
        w, b = _one_piece_train(vectors, labels, 0.01)
        assert model.w.tobytes() == w.tobytes()
        assert model.b == b

    @staticmethod
    def _assert_same_model(got, want):
        np.testing.assert_allclose(got.w, want.w, rtol=0, atol=1e-12)
        assert got.b == pytest.approx(want.b, rel=0, abs=1e-11)

    @pytest.mark.parametrize("leave", ["mixed", "no targets", "all targets"])
    def test_downdate_matches_statistics_of_the_rest(self, leave):
        vectors, labels = self._data()
        leaving = np.zeros(len(labels), dtype=bool)
        leaving[:20] = True
        if leave == "no targets":
            leaving &= ~labels
        elif leave == "all targets":
            leaving |= labels
        d = vectors.shape[1]
        whole = lda.ClassStatistics.of(vectors, labels)
        rest = lda.ClassStatistics.of(vectors[~leaving], labels[~leaving])

        def fold():
            return whole.solve_without(vectors[leaving], labels[leaving],
                                       np.zeros(d), np.ones(d), 0.01)

        if leave == "all targets":
            assert rest.counts[0] == 0
            with pytest.raises(ValueError, match="both classes"):
                fold()
        else:
            self._assert_same_model(fold(), rest.solve(0.01))

    def test_scaled_statistics_match_scaled_rows(self):
        vectors, labels = self._data()
        d = vectors.shape[1]
        shift = vectors.min(axis=0)
        factor = np.linspace(0.0, 2.0, d)
        got = lda.ClassStatistics.of(vectors, labels).solve_without(
            vectors[:0], labels[:0], shift, factor, 0.01)
        want = lda.ClassStatistics.of((vectors - shift) * factor,
                                      labels).solve(0.01)
        self._assert_same_model(got, want)

    @settings(max_examples=100, deadline=None)
    @given(_blocked_rows())
    def test_merged_blocks_match_statistics_of_all_rows(self, drawn):
        vectors, labels, cuts, shift, factor, shrinkage = drawn
        merged = lda.ClassStatistics.of(vectors[:0], labels[:0])
        assert merged.counts == (0, 0)
        for rows, block_labels in zip(np.split(vectors, cuts),
                                      np.split(labels, cuts)):
            merged = merged.merged(rows, block_labels)
        whole = lda.ClassStatistics.of(vectors, labels)
        # `of` is the merge of all rows at once: check it against numpy too
        centred = [rows - rows.mean(axis=0)
                   for rows in (vectors[labels], vectors[~labels])]
        assert whole.scatter.tobytes() == (centred[0].T @ centred[0]
                                           + centred[1].T @ centred[1]).tobytes()
        assert merged.counts == whole.counts
        np.testing.assert_allclose(merged.means, whole.means, rtol=0,
                                   atol=1e-12 * np.abs(vectors).max())
        np.testing.assert_allclose(merged.scatter, whole.scatter, rtol=0,
                                   atol=1e-12 * np.abs(whole.scatter).max())
        assert merged.scatter.tobytes() == merged.scatter.T.tobytes()
        want = lda.ClassStatistics.of((vectors - shift) * factor,
                                      labels).solve(shrinkage)
        # the scaled solve leaves the statistics as they were
        before = merged.scatter.tobytes()
        self._assert_same_model(
            merged.solve_scaled(shift, factor, shrinkage), want)
        assert merged.scatter.tobytes() == before

    def test_merge_rejects_non_finite_rows(self):
        vectors, labels = self._data()
        stats = lda.ClassStatistics.of(vectors, labels)
        vectors[3, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            stats.merged(vectors[:5], labels[:5])

    def test_merge_adds_into_the_scatter_in_place(self):
        # no d x d copy per merge: the merged statistics own the old buffer
        vectors, labels = self._data()
        stats = lda.ClassStatistics.of(vectors[:20], labels[:20])
        scatter = stats.scatter
        merged = stats.merged(vectors[20:], labels[20:])
        assert merged.scatter is scatter
        assert merged.counts == (labels.sum(), (~labels).sum())

    def test_downdate_writes_only_its_buffer(self):
        # the leaving rows are centred in a buffer of its own, not in place
        vectors, labels = self._data()
        d = vectors.shape[1]
        whole = lda.ClassStatistics.of(vectors, labels)
        before = (whole.scatter.copy(), whole.means.copy(), vectors.copy())
        rows = vectors[10:30]  # a view into `vectors`
        shift, factor = vectors.min(axis=0), np.full(d, 0.5)
        got = whole.solve_without(rows, labels[10:30], shift, factor, 0.01)
        for was, now in zip(before, (whole.scatter, whole.means, vectors)):
            assert was.tobytes() == now.tobytes()
        stay = np.ones(len(labels), dtype=bool)
        stay[10:30] = False
        rest = lda.ClassStatistics.of((vectors[stay] - shift) * factor,
                                      labels[stay])
        self._assert_same_model(got, rest.solve(0.01))


class TestPanelFactorization:
    """The panel by panel factorization and solve against scipy's, at widths
    on and around the panel's edges."""

    @pytest.mark.parametrize("d", [1, 47, 48, 49, 845])
    def test_matches_scipy_cholesky(self, d):
        rng = np.random.default_rng(d)
        n, k = d + 40, 15
        vectors = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
        labels = np.arange(n) % 3 == 0
        vectors[labels] += 0.5
        shift, factor = vectors.min(axis=0), rng.uniform(0.5, 2.0, size=d)
        model = lda.ClassStatistics.of(vectors, labels).solve_without(
            vectors[:k], labels[:k], shift, factor, 0.1)
        # the fold's matrix formed whole from the rows that stay
        rest = lda.ClassStatistics.of((vectors[k:] - shift) * factor,
                                      labels[k:])
        covariance = rest.scatter / (n - k - 2)
        regularized = (0.9 * covariance
                       + 0.1 * np.trace(covariance) / d * np.eye(d))
        upper = np.triu(cho_factor(regularized)[0])
        # the factor the private solve leaves in its buffer, of the same
        # rows' raw statistics
        out = np.empty((d, d))
        raw = lda.ClassStatistics.of(vectors[k:], labels[k:])
        lda._shrinkage_solve(raw.scatter, raw.counts, raw.means, shift,
                             factor, 0.1, out)
        np.testing.assert_allclose(np.triu(out), upper, rtol=0, atol=1e-12)
        w = cho_solve((upper, False), rest.means[0] - rest.means[1])
        np.testing.assert_allclose(model.w, w / np.linalg.norm(w), rtol=0,
                                   atol=1e-12)

    @staticmethod
    def _statistics(d=100):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(3 * d, d))
        labels = np.arange(3 * d) % 4 == 0
        return lda.ClassStatistics.of(vectors, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(3, 60), (70, 70), (99, 99)])
    def test_non_finite_scatter_raises(self, bad, where):
        # off the diagonal across panels, on a later panel's diagonal and in
        # the last panel
        stats = self._statistics()
        scatter = stats.scatter.copy()
        scatter[where] = scatter[where[::-1]] = bad
        broken = lda.ClassStatistics(counts=stats.counts, means=stats.means,
                                     scatter=scatter)
        with pytest.raises(ValueError, match="not finite"):
            broken.solve(0.01)

    def test_non_finite_scaling_or_rows_raise(self):
        stats = self._statistics()
        d = stats.scatter.shape[0]
        factor = np.ones(d)
        factor[50] = np.inf
        with pytest.raises(ValueError, match="not finite"):
            stats.solve_scaled(np.zeros(d), factor, 0.01)
        rows = np.zeros((4, d))
        rows[2, 7] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            stats.solve_without(rows, np.array([True, False, True, False]),
                                np.zeros(d), np.ones(d), 0.01)

    def test_non_positive_definite_raises(self):
        # 20 rows span at most 19 of 100 dimensions: unshrunk, singular
        rng = np.random.default_rng(6)
        stats = lda.ClassStatistics.of(rng.normal(size=(20, 100)),
                                       np.arange(20) % 2 == 0)
        with pytest.raises(np.linalg.LinAlgError):
            stats.solve(0.0)
        assert issubclass(np.linalg.LinAlgError, ValueError)


class TestScore:
    def test_midpoint_scores_zero(self):
        rng = np.random.default_rng(15)
        pos = rng.normal(size=(20, 3)) + 1.0
        neg = rng.normal(size=(20, 3)) - 1.0
        model = lda.train(np.vstack([pos, neg]),
                          np.array([True] * 20 + [False] * 20))
        midpoint = (pos.mean(axis=0) + neg.mean(axis=0)) / 2.0
        assert lda.score(model, midpoint) == pytest.approx(0.0, abs=1e-12)

    def test_matrix_scoring_matches_rowwise(self):
        model = lda.LdaModel(w=np.array([0.6, 0.8]), b=-0.5)
        batch = np.array([[1.0, 1.0], [0.0, 0.0], [-2.0, 0.5]])
        scores = lda.score(model, batch)
        assert scores.shape == (3,)
        for row, s in zip(batch, scores):
            assert lda.score(model, row) == pytest.approx(s, abs=1e-15)

    def test_scalar_return_for_single_vector(self):
        model = lda.LdaModel(w=np.array([1.0]), b=2.0)
        out = lda.score(model, np.array([3.0]))
        assert isinstance(out, float)
        assert out == 5.0

    def test_dimension_checked(self):
        model = lda.LdaModel(w=np.array([1.0, 2.0]), b=0.0)
        with pytest.raises(ValueError):
            lda.score(model, np.zeros(3))

    def test_decisions_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(16)
        pos = rng.normal(size=(30, 5)) + 0.8
        neg = rng.normal(size=(30, 5))
        model = lda.train(np.vstack([pos, neg]),
                          np.array([True] * 30 + [False] * 30))
        probes = rng.normal(size=(50, 12, 5))
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = lda.LdaModel(w=c * model.w, b=c * model.b)
            for group in probes:
                base = lda.score(model, group)
                alt = lda.score(scaled, group)
                assert int(np.argmax(alt)) == int(np.argmax(base))
                np.testing.assert_array_equal(np.sign(alt), np.sign(base))


class TestFisherCriterion:
    def test_monte_carlo_gaussian_value(self):
        # classes at -1/+1 with unit variance project to J = 4 / (1 + 1) = 2
        rng = np.random.default_rng(3)
        n = 100_000
        pos = rng.normal(loc=1.0, size=(n, 1))
        neg = rng.normal(loc=-1.0, size=(n, 1))
        model = lda.LdaModel(w=np.array([1.0]), b=0.0)
        j = lda.fisher_criterion(model, np.vstack([pos, neg]),
                                 np.array([True] * n + [False] * n))
        assert abs(j - 2.0) <= 0.2

    def test_point_classes_give_infinity(self):
        model = lda.LdaModel(w=np.array([1.0]), b=0.0)
        vectors = np.array([[0.0], [0.0], [1.0], [1.0]])
        labels = np.array([False, False, True, True])
        assert lda.fisher_criterion(model, vectors, labels) == math.inf

    def test_coincident_point_classes_give_zero(self):
        model = lda.LdaModel(w=np.array([1.0]), b=0.0)
        vectors = np.zeros((4, 1))
        labels = np.array([False, False, True, True])
        assert lda.fisher_criterion(model, vectors, labels) == 0.0

    def test_trained_direction_scores_high(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(size=(300, 10))
        neg = rng.normal(size=(300, 10))
        pos[:, 0] += 1.5
        pos[:, 3] -= 0.7
        vectors = np.vstack([pos, neg])
        labels = np.array([True] * 300 + [False] * 300)
        model = lda.train(vectors, labels)
        j_trained = lda.fisher_criterion(model, vectors, labels)
        j_axis = lda.fisher_criterion(lda.LdaModel(w=np.eye(10)[1], b=0.0),
                                      vectors, labels)
        assert j_trained > 1.0
        assert j_trained > 10 * j_axis

    def test_both_classes_required(self):
        model = lda.LdaModel(w=np.array([1.0]), b=0.0)
        with pytest.raises(ValueError):
            lda.fisher_criterion(model, np.zeros((3, 1)),
                                 np.array([True, True, True]))
