"""Whitening, fixed-point source separation, and artifact-component rules."""
import warnings

import numpy as np
import pytest

from p300loop import core, ica


def three_source_mixture(seed, n=20_000):
    """Two uniform sources and one Laplacian, unit variance, mixed 3 x 3."""
    rng = np.random.default_rng(seed)
    sources = np.vstack([
        rng.uniform(-np.sqrt(3), np.sqrt(3), n),
        rng.laplace(0.0, 1.0 / np.sqrt(2.0), n),
        rng.uniform(-np.sqrt(3), np.sqrt(3), n),
    ])
    while True:
        mixing = rng.normal(size=(3, 3))
        if np.linalg.cond(mixing) < 10.0:
            break
    return sources, mixing, mixing @ sources


def greedy_match_correlations(recovered, truth):
    """Best one-to-one |correlation| assignment, largest first."""
    corr = np.corrcoef(recovered, truth)[:len(recovered), len(recovered):]
    corr = np.abs(corr)
    out = []
    used_r, used_t = set(), set()
    for _ in range(len(recovered)):
        best = None
        for i in range(len(recovered)):
            for j in range(len(truth)):
                if i in used_r or j in used_t:
                    continue
                if best is None or corr[i, j] > corr[best]:
                    best = (i, j)
        used_r.add(best[0])
        used_t.add(best[1])
        out.append(corr[best])
    return np.array(out)


class TestWhiten:
    def test_whitened_covariance_is_identity(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 5000)) * np.array([[1.0], [3.0], [0.5], [2.0]])
        mean, v, z = ica.whiten(data)
        assert z.shape == (4, 5000)
        cov = z @ z.T / (z.shape[1] - 1)
        np.testing.assert_allclose(cov, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(mean, data.mean(axis=1))
        assert v.shape == (4, 4)

    def test_dimension_reduction(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 4000))
        _, v, z = ica.whiten(data, k=2)
        assert v.shape == (2, 5)
        assert z.shape == (2, 4000)

    def test_k_beyond_channel_count_rejected(self):
        data = np.random.default_rng(2).normal(size=(3, 100))
        with pytest.raises(ica.RankError):
            ica.whiten(data, k=4)

    def test_rank_deficiency_detected(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=1000)
        data = np.vstack([row, 2.0 * row, rng.normal(size=1000)])
        with pytest.raises(ica.RankError):
            ica.whiten(data, k=3)
        _, _, z = ica.whiten(data, k=2)  # the true rank still works
        assert z.shape[0] == 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ica.whiten(np.zeros(10))
        with pytest.raises(ValueError):
            ica.whiten(np.zeros((10, 5)))


class TestFastIca:
    def test_recovers_three_sources(self):
        sources, _mixing, mixed = three_source_mixture(0)
        _, _, z = ica.whiten(mixed)
        w, recovered = ica.fastica(z, rng=np.random.default_rng(100))
        matches = greedy_match_correlations(recovered, sources)
        assert np.all(matches >= 0.95)

    def test_unmixing_is_orthonormal(self):
        _, _, mixed = three_source_mixture(1)
        _, _, z = ica.whiten(mixed)
        w, _ = ica.fastica(z, rng=np.random.default_rng(101))
        np.testing.assert_allclose(w @ w.T, np.eye(3), atol=1e-6)

    def test_sources_are_unit_variance_sign_fixed(self):
        _, _, mixed = three_source_mixture(2)
        _, _, z = ica.whiten(mixed)
        w, recovered = ica.fastica(z, rng=np.random.default_rng(102))
        np.testing.assert_allclose(recovered.std(axis=1, ddof=1), 1.0,
                                   rtol=1e-12)
        for row in w:
            assert row[np.argmax(np.abs(row))] > 0

    def test_convergence_error_carries_last_iterate(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(3, 2000))  # Gaussian: no stable rotation
        with pytest.raises(ica.ConvergenceError) as excinfo:
            ica.fastica(z, tol=1e-12, max_iter=3, rng=np.random.default_rng(5))
        err = excinfo.value
        assert err.iterations == 3
        assert err.last_w.shape == (3, 3)
        np.testing.assert_allclose(err.last_w @ err.last_w.T, np.eye(3),
                                   atol=1e-8)

    def test_argument_validation(self):
        z = np.random.default_rng(6).normal(size=(2, 500))
        with pytest.raises(ValueError):
            ica.fastica(z, nonlinearity="cube")
        with pytest.raises(ValueError):
            ica.fastica(z, k=3)


class TestFit:
    def test_full_pipeline_on_mixture(self):
        sources, _, mixed = three_source_mixture(3)
        model, recovered = ica.fit(mixed, rng=np.random.default_rng(103))
        assert model.k == 3
        matches = greedy_match_correlations(recovered, sources)
        assert np.all(matches >= 0.95)
        # mixing inverts unmixing-on-whitened for a full-rank fit
        np.testing.assert_allclose(
            model.mixing @ (model.unmixing @ model.whitening), np.eye(3),
            atol=1e-8)

    def test_strict_mode_raises_on_gaussian_data(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(4, 3000))
        with pytest.raises(ica.ConvergenceError):
            ica.fit(data, tol=1e-9, max_iter=10, rng=np.random.default_rng(8))

    def test_relaxed_mode_warns_and_returns_model(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(4, 3000))
        with pytest.warns(RuntimeWarning):
            model, srcs = ica.fit(data, tol=1e-9, max_iter=10,
                                  rng=np.random.default_rng(8), strict=False)
        np.testing.assert_allclose(model.unmixing @ model.unmixing.T,
                                   np.eye(4), atol=1e-6)
        assert srcs.shape == (4, 3000)


def _collapse_on_call(monkeypatch, call):
    """Make the fixed-point step feed a rank-one matrix to the
    orthonormalization on its `call`-th use (the first use orthonormalizes
    the random start); return the list of orthonormalized iterates."""
    original = ica._symmetric_orthonormalize
    outputs = []

    def orthonormalize(w):
        if len(outputs) + 1 == call:
            w = np.tile(w[0], (w.shape[0], 1))
        outputs.append(original(w))
        return outputs[-1]

    monkeypatch.setattr(ica, "_symmetric_orthonormalize", orthonormalize)
    return outputs


class TestDegenerateIterate:
    """A step whose iterate cannot be orthonormalized stops the iteration
    with ConvergenceError carrying the last orthonormal iterate."""

    @pytest.mark.parametrize("rows", [
        "singular",       # W W^T has a zero eigenvalue
        "near singular",  # rounding leaves the rows off orthonormal
    ])
    def test_orthonormalize_rejects(self, rows):
        w = np.random.default_rng(0).standard_normal((4, 4))
        w[1] = w[0] + (1e-7 * w[2] if rows == "near singular" else 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            ica._symmetric_orthonormalize(w)

    def test_fastica_carries_last_orthonormal_iterate(self, monkeypatch):
        _, _, mixed = three_source_mixture(3)
        _, _, z = ica.whiten(mixed)
        outputs = _collapse_on_call(monkeypatch, 4)
        with pytest.raises(ica.ConvergenceError) as excinfo:
            ica.fastica(z, rng=np.random.default_rng(103))
        err = excinfo.value
        assert err.iterations == 2
        assert err.last_w is outputs[2]
        np.testing.assert_allclose(err.last_w @ err.last_w.T, np.eye(3),
                                   atol=1e-6)

    def test_relaxed_fit_accepts_last_orthonormal_iterate(self, monkeypatch):
        _, _, mixed = three_source_mixture(3)
        outputs = _collapse_on_call(monkeypatch, 4)
        with pytest.raises(ica.ConvergenceError):
            ica.fit(mixed, rng=np.random.default_rng(103))
        outputs.clear()
        with pytest.warns(RuntimeWarning, match="degenerate"):
            model, sources = ica.fit(mixed, rng=np.random.default_rng(103),
                                     strict=False)
        assert model.k == 3
        assert sources.shape == mixed.shape


class TestIcaModel:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            ica.IcaModel(mean=np.zeros(2), whitening=np.eye(2),
                         unmixing=np.array([[1.0, 0.0], [1.0, 0.0]]),
                         mixing=np.eye(2), k=2)
        with pytest.raises(ValueError):
            ica.IcaModel(mean=np.zeros(2), whitening=np.eye(2),
                         unmixing=np.eye(3), mixing=np.eye(2), k=2)


def _toy_model():
    """Two components over four channels: one frontal, one posterior."""
    channels = core.ChannelSet(("AF3", "AF4", "P7", "P8"))
    mixing = np.array([[1.0, 0.05],
                       [0.9, 0.05],
                       [0.1, 1.0],
                       [0.1, 0.9]])
    model = ica.IcaModel(mean=np.zeros(4), whitening=np.eye(2, 4),
                         unmixing=np.eye(2), mixing=mixing, k=2)
    return model, channels


class TestClassifyComponents:
    def test_spiky_frontal_component_flagged(self):
        model, channels = _toy_model()
        rng = np.random.default_rng(9)
        spiky = np.zeros(5000)
        spiky[rng.choice(5000, 25, replace=False)] = 30.0
        smooth = rng.uniform(-1.0, 1.0, 5000)
        mask = ica.classify_components(model, np.vstack([spiky, smooth]),
                                       channels)
        assert mask.tolist() == [True, False]

    def test_spiky_posterior_component_not_flagged(self):
        model, channels = _toy_model()
        rng = np.random.default_rng(10)
        spiky = np.zeros(5000)
        spiky[rng.choice(5000, 25, replace=False)] = 30.0
        smooth = rng.uniform(-1.0, 1.0, 5000)
        # the spiky source now sits on the posterior mixing column
        mask = ica.classify_components(model, np.vstack([smooth, spiky]),
                                       channels)
        assert mask.tolist() == [False, False]

    def test_threshold_is_respected(self):
        model, channels = _toy_model()
        rng = np.random.default_rng(11)
        mild = rng.laplace(size=5000)  # excess kurtosis ~ 3
        smooth = rng.uniform(-1.0, 1.0, 5000)
        srcs = np.vstack([mild, smooth])
        assert not ica.classify_components(model, srcs, channels,
                                           kurtosis_threshold=10.0)[0]
        assert ica.classify_components(model, srcs, channels,
                                       kurtosis_threshold=1.0)[0]


class TestReconstruct:
    def test_empty_mask_is_identity(self):
        _, _, mixed = three_source_mixture(5)
        model, _ = ica.fit(mixed, rng=np.random.default_rng(105))
        out = ica.reconstruct(model, mixed, np.zeros(3, dtype=bool))
        np.testing.assert_allclose(out, mixed, atol=1e-8)

    def test_full_mask_leaves_only_the_mean(self):
        _, _, mixed = three_source_mixture(6)
        mixed = mixed + 5.0
        model, _ = ica.fit(mixed, rng=np.random.default_rng(106))
        out = ica.reconstruct(model, mixed, np.ones(3, dtype=bool))
        np.testing.assert_allclose(out, mixed.mean(axis=1, keepdims=True)
                                   * np.ones_like(mixed), atol=1e-8)

    def test_masking_removes_one_source(self):
        sources, mixing, mixed = three_source_mixture(7)
        model, recovered = ica.fit(mixed, rng=np.random.default_rng(107))
        # find the recovered component matching true source 1
        corr = np.abs(np.corrcoef(recovered, sources[1:2])[:3, 3])
        target = int(np.argmax(corr))
        mask = np.zeros(3, dtype=bool)
        mask[target] = True
        out = ica.reconstruct(model, mixed, mask)
        residual = mixed - out
        # the removed part is (up to estimation error) source 1's contribution
        contribution = np.outer(mixing[:, 1], sources[1])
        err = np.abs(residual - contribution).max()
        assert err < 0.15 * np.abs(contribution).max()

    def test_validation(self):
        _, _, mixed = three_source_mixture(8)
        model, _ = ica.fit(mixed, rng=np.random.default_rng(108))
        with pytest.raises(ValueError):
            ica.reconstruct(model, mixed, np.zeros(2, dtype=bool))
        with pytest.raises(ValueError):
            ica.reconstruct(model, mixed[:2], np.zeros(3, dtype=bool))


def test_blink_removal_on_synthetic_eeg():
    """End-to-end artifact scrub on a frontally dominated spike train."""
    from p300loop import subject

    params = subject.SubjectParams(seed=0, blink_rate=20.0, blink_amp=140.0,
                                   nan_fraction=0.0)
    channels = core.ChannelSet()
    bg_rng, _, blink_rng, _ = subject.stage_generators(params.seed)
    clean = subject.generate_background(60.0, channels, params, bg_rng)
    dirty = subject.inject_blinks(clean, params, blink_rng)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model, srcs = ica.fit(dirty.samples, rng=np.random.default_rng(42),
                              strict=False)
    mask = ica.classify_components(model, srcs, channels,
                                   kurtosis_threshold=5.0)
    assert mask.any()
    scrubbed = dirty.with_samples(ica.reconstruct(model, dirty.samples, mask))

    def rms(rec, labels):
        rows = rec.channels.indices(labels)
        return float(np.sqrt(np.mean(rec.samples[rows] ** 2)))

    frontal_before = rms(dirty, core.FRONTAL_LABELS)
    frontal_after = rms(scrubbed, core.FRONTAL_LABELS)
    assert frontal_after < 0.6 * frontal_before
    posterior_before = rms(dirty, core.POSTERIOR_LABELS)
    posterior_after = rms(scrubbed, core.POSTERIOR_LABELS)
    assert abs(posterior_after - posterior_before) < 0.1 * posterior_before
