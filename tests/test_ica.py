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

    def test_rank_deficiency_detected(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=1000)
        data = np.vstack([row, 2.0 * row, rng.normal(size=1000)])
        with pytest.raises(ica.RankError, match="rank 2 < 3 channels"):
            ica.whiten(data)

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

    def test_convergence_error_keeps_the_rows_found(self):
        # one Laplacian source over a Gaussian subspace: row 0 converges on
        # it, then row 1 wanders among the Gaussian directions
        rng = np.random.default_rng(0)
        sources = np.vstack([rng.laplace(size=5000),
                             rng.normal(size=(3, 5000))])
        _, _, z = ica.whiten(rng.normal(size=(4, 4)) @ sources)
        with pytest.raises(ica.ConvergenceError, match="row 1") as excinfo:
            ica.fastica(z, tol=1e-10, max_iter=20, rng=np.random.default_rng(0))
        err = excinfo.value
        assert err.iterations == 20
        np.testing.assert_allclose(err.last_w @ err.last_w.T, np.eye(4),
                                   rtol=0, atol=1e-12)
        assert abs(np.corrcoef(err.last_w[0] @ z, sources[0])[0, 1]) >= 0.99

    def test_argument_validation(self):
        z = np.random.default_rng(6).normal(size=500)
        with pytest.raises(ValueError):
            ica.fastica(z, rng=np.random.default_rng(6))

    def test_recovers_every_source_of_a_long_record(self):
        rng = np.random.default_rng(13)
        sources = rng.laplace(0.0, 1.0 / np.sqrt(2.0), (5, 3 * 4096 + 123))
        _, _, z = ica.whiten(rng.normal(size=(5, 5)) @ sources)
        w, recovered = ica.fastica(z, rng=np.random.default_rng(104))
        assert np.all(greedy_match_correlations(recovered, sources) >= 0.95)
        np.testing.assert_allclose(w @ w.T, np.eye(5), rtol=0, atol=1e-9)


def _complete_model(data, seed):
    """(model, sources) of every component of `data`, from `fastica`'s W:
    the complete basis that `fit`, which keeps one component, does not give."""
    mean, v, z = ica.whiten(data)
    w, sources = ica.fastica(z, rng=np.random.default_rng(seed))
    return ica.IcaModel(mean=mean, whitening=v, unmixing=w,
                        mixing=np.linalg.pinv(w @ v)), sources


class TestFit:
    def test_full_pipeline_on_mixture(self):
        sources, _, mixed = three_source_mixture(3)
        model, recovered = ica.fit(mixed)
        assert len(model.unmixing) == 1
        # the extracted component is one of the true sources
        corr = np.abs(np.corrcoef(recovered[0], sources)[0, 1:])
        assert corr.max() >= 0.95
        # the mixing column inverts the unmixing row on whitened data
        np.testing.assert_allclose(
            (model.unmixing @ model.whitening) @ model.mixing, np.eye(1),
            atol=1e-8)

    def test_relaxed_mode_warns_and_returns_model(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(4, 3000))
        with pytest.warns(RuntimeWarning):
            model, srcs = ica.fit(data, tol=1e-9, max_iter=10)
        np.testing.assert_allclose(model.unmixing @ model.unmixing.T,
                                   np.eye(1), atol=1e-6)
        assert srcs.shape == (1, 3000)


class TestIcaModel:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            ica.IcaModel(mean=np.zeros(2), whitening=np.eye(2),
                         unmixing=np.array([[1.0, 0.0], [1.0, 0.0]]),
                         mixing=np.eye(2))
        with pytest.raises(ValueError):
            ica.IcaModel(mean=np.zeros(2), whitening=np.eye(2),
                         unmixing=np.eye(3), mixing=np.eye(2))


def _toy_model():
    """Two components over four channels: one frontal, one posterior."""
    channels = core.ChannelSet(("AF3", "AF4", "P7", "P8"))
    mixing = np.array([[1.0, 0.05],
                       [0.9, 0.05],
                       [0.1, 1.0],
                       [0.1, 0.9]])
    model = ica.IcaModel(mean=np.zeros(4), whitening=np.eye(2, 4),
                         unmixing=np.eye(2), mixing=mixing)
    return model, channels


def _per_row_excess_kurtosis(x):
    """Reference: the former one-component kurtosis."""
    centred = x - x.mean()
    var = np.mean(centred ** 2)
    if var == 0:
        return 0.0
    return float(np.mean(centred ** 4) / var ** 2 - 3.0)


class TestClassifyComponents:
    def test_kurtosis_matches_the_per_row_reference(self):
        rng = np.random.default_rng(12)
        sources = np.vstack([rng.laplace(size=3000),
                             np.full(3000, 2.5),  # constant: kurtosis 0
                             rng.uniform(-1.0, 1.0, 3000),
                             np.where(rng.random(3000) < 0.01, 40.0, 0.0)])
        model = ica.IcaModel(mean=np.zeros(4), whitening=np.eye(4),
                             unmixing=np.eye(4), mixing=np.eye(4))
        channels = core.ChannelSet(("AF3", "AF4", "F7", "F8"))
        expected = [_per_row_excess_kurtosis(row) for row in sources]
        # every column is frontal, so each flag is the kurtosis test alone;
        # sweep the threshold across each reference value
        for kurt in expected:
            for threshold in (kurt * (1 - 1e-12) - 1e-12,
                              kurt * (1 + 1e-12) + 1e-12):
                mask = ica.classify_components(model, sources, channels,
                                               kurtosis_threshold=threshold)
                assert mask.tolist() == [k > threshold for k in expected]
        assert expected[1] == 0.0


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
        model, _ = _complete_model(mixed, 105)
        out = ica.reconstruct(model, mixed, np.zeros(3, dtype=bool))
        np.testing.assert_allclose(out, mixed, atol=1e-8)

    def test_full_mask_leaves_only_the_mean(self):
        _, _, mixed = three_source_mixture(6)
        mixed = mixed + 5.0
        model, _ = _complete_model(mixed, 106)
        out = ica.reconstruct(model, mixed, np.ones(3, dtype=bool))
        np.testing.assert_allclose(out, mixed.mean(axis=1, keepdims=True)
                                   * np.ones_like(mixed), atol=1e-8)

    def test_masking_removes_one_source(self):
        sources, mixing, mixed = three_source_mixture(7)
        model, recovered = _complete_model(mixed, 107)
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
        model, _ = ica.fit(mixed)
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
        model, srcs = ica.fit(dirty.samples)
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


def _blink_record(duration):
    """Criterion 5's recording: background plus 20 blinks a minute."""
    from p300loop import subject

    params = subject.SubjectParams(seed=0, blink_rate=20.0, blink_amp=140.0,
                                   nan_fraction=0.0)
    bg_rng, _, blink_rng, _ = subject.stage_generators(params.seed)
    clean = subject.generate_background(duration, core.ChannelSet(), params,
                                        bg_rng)
    return subject.inject_blinks(clean, params, blink_rng)


class TestOneUnitFit:
    def test_keeps_only_the_extracted_component(self):
        data = _blink_record(30.0).samples
        model, sources = ica.fit(data)
        assert len(model.unmixing) == 1 and sources.shape == (1, data.shape[1])
        assert model.unmixing.shape == (1, 14)
        assert model.mixing.shape == (14, 1)
        # the mixing column is V^-1 w^T
        np.testing.assert_allclose(model.whitening @ model.mixing,
                                   model.unmixing.T, rtol=0, atol=1e-12)
        out = ica.reconstruct(model, data, np.zeros(1, dtype=bool))
        assert out.tobytes() == data.tobytes()

    def test_two_fits_of_one_array_are_bitwise_equal(self):
        data = _blink_record(30.0).samples
        (a, sources_a), (b, sources_b) = ica.fit(data), ica.fit(data)
        for field in ("mean", "whitening", "unmixing", "mixing"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert sources_a.tobytes() == sources_b.tobytes()

    def test_removed_source_is_the_deflation_fits_blink(self):
        dirty = _blink_record(120.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # it converges
            model, sources = ica.fit(dirty.samples)
        mask = ica.classify_components(model, sources, dirty.channels,
                                       kurtosis_threshold=5.0)
        _, v, z = ica.whiten(dirty.samples)
        try:
            w, deflated = ica.fastica(z, rng=np.random.default_rng(42))
        except ica.ConvergenceError as exc:  # the Gaussian background wanders
            w, deflated = ica._finalize(exc.last_w, z)
        deflation_model = ica.IcaModel(mean=model.mean, whitening=v,
                                       unmixing=w, mixing=np.linalg.pinv(w @ v))
        deflation_mask = ica.classify_components(
            deflation_model, deflated, dirty.channels, kurtosis_threshold=5.0)
        assert mask.sum() == deflation_mask.sum() == 1
        corr = np.corrcoef(sources[mask][0], deflated[deflation_mask][0])[0, 1]
        assert abs(corr) >= 0.98
