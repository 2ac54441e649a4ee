"""Band-pass design and min-max scaling.

The filter is checked along two independent routes that never share code with
the implementation under test:

* a closed-form magnitude law for the bilinear-transformed Butterworth
  band-pass, evaluated straight from the design parameters, and
* a hand-rolled per-sample difference equation for the section cascade.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal

from p300loop import core, dsp


def analog_prototype_magnitude(freqs_hz, spec: dsp.FilterSpec) -> np.ndarray:
    """|H(f)| from the pre-warped analog Butterworth band-pass law.

    A bilinear-transformed order-n band-pass obeys |H|^2 = 1 / (1 + x^(2n))
    with x = (W^2 - w0^2) / (B W) where W is the pre-warped frequency and
    w0, B come from the pre-warped band edges.
    """
    fs = spec.rate
    warp = lambda f: 2.0 * fs * math.tan(math.pi * f / fs)
    w_l = warp(spec.low_cut)
    w_h = warp(spec.high_cut)
    w0_sq = w_l * w_h
    bandwidth = w_h - w_l
    out = np.empty(len(freqs_hz))
    for i, f in enumerate(freqs_hz):
        if f == 0.0 or f == fs / 2.0:
            out[i] = 0.0
            continue
        big_w = warp(f)
        x = (big_w * big_w - w0_sq) / (bandwidth * big_w)
        out[i] = 1.0 / math.sqrt(1.0 + x ** (2 * spec.order))
    return out


def cascade_difference_equation(coeffs: dsp.FilterCoefficients,
                                x: np.ndarray) -> np.ndarray:
    """Direct-form-I biquad cascade, one sample at a time."""
    y = np.array(x, dtype=float, copy=True)
    for b0, b1, b2, a1, a2 in coeffs.sections:
        x_prev1 = x_prev2 = y_prev1 = y_prev2 = 0.0
        src = y.copy()
        for n in range(len(src)):
            y_n = (b0 * src[n] + b1 * x_prev1 + b2 * x_prev2
                   - a1 * y_prev1 - a2 * y_prev2)
            x_prev2, x_prev1 = x_prev1, src[n]
            y_prev2, y_prev1 = y_prev1, y_n
            y[n] = y_n
    return coeffs.gain * y


@pytest.fixture(scope="module")
def coeffs():
    return dsp.design_bandpass(dsp.FilterSpec())


class TestFilterSpec:
    def test_defaults(self):
        spec = dsp.FilterSpec()
        assert spec.order == 3
        assert spec.low_cut == 0.1
        assert spec.high_cut == 20.0

    def test_band_edge_validation(self):
        with pytest.raises(ValueError):
            dsp.FilterSpec(low_cut=0.0)
        with pytest.raises(ValueError):
            dsp.FilterSpec(low_cut=25.0, high_cut=20.0)
        with pytest.raises(ValueError):
            dsp.FilterSpec(high_cut=64.0)
        with pytest.raises(ValueError):
            dsp.FilterSpec(order=0)


class TestFilterCoefficients:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dsp.FilterCoefficients(sections=np.zeros((2, 4)), gain=1.0)

    def test_unstable_section_rejected(self):
        # pole at z = 2
        bad = np.array([[1.0, 0.0, 0.0, -2.5, 1.0]])
        with pytest.raises(ValueError):
            dsp.FilterCoefficients(sections=bad, gain=1.0)

    def test_sos_layout(self, coeffs):
        sos = coeffs.sos
        assert sos.shape == (coeffs.n_sections, 6)
        np.testing.assert_array_equal(sos[:, 3], 1.0)
        np.testing.assert_array_equal(sos[:, :3], coeffs.sections[:, :3])


class TestDesign:
    def test_three_sections_for_order_three(self, coeffs):
        assert coeffs.n_sections == 3

    def test_zeros_sit_exactly_on_dc_and_nyquist(self, coeffs):
        # numerator roots of each section are exactly z = +1 or z = -1
        for b0, b1, b2, _a1, _a2 in coeffs.sections:
            roots = np.roots([b0, b1, b2]) if b2 != 0 or b1 != 0 else []
            for r in roots:
                assert r in (1.0, -1.0)

    def test_dc_and_nyquist_blocked_exactly(self, coeffs):
        h = dsp.frequency_response(coeffs, [0.0, 64.0], 128.0)
        assert abs(h[0]) == 0.0
        assert abs(h[1]) == 0.0

    def test_passband_and_stopband_levels(self, coeffs):
        h10, h40 = np.abs(dsp.frequency_response(coeffs, [10.0, 40.0], 128.0))
        assert abs(20 * np.log10(h10)) <= 1.0
        assert 20 * np.log10(h40) <= -12.0

    def test_half_power_at_band_edges(self, coeffs):
        h = np.abs(dsp.frequency_response(coeffs, [0.1, 20.0], 128.0))
        np.testing.assert_allclose(h, 1.0 / math.sqrt(2.0), rtol=1e-9)

    def test_matches_closed_form_magnitude(self, coeffs):
        spec = dsp.FilterSpec()
        freqs = np.concatenate([[0.0], np.geomspace(0.01, 63.9, 400), [64.0]])
        want = analog_prototype_magnitude(freqs, spec)
        got = np.abs(dsp.frequency_response(coeffs, freqs, spec.rate))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)

    def test_other_designs_match_closed_form_too(self):
        spec = dsp.FilterSpec(order=2, low_cut=1.0, high_cut=30.0, rate=256.0)
        coeffs = dsp.design_bandpass(spec)
        freqs = np.geomspace(0.1, 127.0, 200)
        want = analog_prototype_magnitude(freqs, spec)
        got = np.abs(dsp.frequency_response(coeffs, freqs, spec.rate))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)


class TestFilterApply:
    def test_impulse_fft_matches_direct_response(self, coeffs):
        # 64 s of impulse response; the slow 0.1 Hz corner needs the length
        n = 8192
        impulse = np.zeros(n)
        impulse[0] = 1.0
        h_time = dsp.filter_apply(coeffs, impulse)
        h_fft = np.fft.rfft(h_time)
        freqs = np.fft.rfftfreq(n, d=1.0 / 128.0)
        h_direct = dsp.frequency_response(coeffs, freqs, 128.0)
        scale = np.abs(h_direct).max()
        assert np.abs(h_fft - h_direct).max() <= 1e-6 * scale

    def test_matches_hand_difference_equation(self, coeffs):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10_000)
        got = dsp.filter_apply(coeffs, x)
        want = cascade_difference_equation(coeffs, x)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_impulse_response_tail_decays(self, coeffs):
        n = 128 * 90
        impulse = np.zeros(n)
        impulse[0] = 1.0
        h = dsp.filter_apply(coeffs, impulse)
        assert np.abs(h[128 * 60:]).max() < 1e-9

    def test_constant_input_is_rejected_by_dc_zero(self, coeffs):
        y = dsp.filter_apply(coeffs, np.ones(128 * 80))
        assert abs(y[-1]) < 1e-6

    @pytest.mark.parametrize("nan_rows", [(1,), (3, 9)])
    def test_nan_rows_refused(self, coeffs, nan_rows):
        # `features.prune_channels` is the one handler of NaN samples; the
        # filter used to pass a NaN row through untouched
        data = np.random.default_rng(1).normal(size=(14, 256))
        for row in nan_rows:
            data[row, 17 * row:] = np.nan
        kept = data.copy()
        for arr in (data, data[nan_rows[0]]):
            with pytest.raises(ValueError, match="prune channels first"):
                dsp.filter_apply(coeffs, arr)
        rec = core.EegRecord(core.ChannelSet(), 128.0, data)
        with pytest.raises(ValueError, match="prune channels first"):
            dsp.filter_apply(coeffs, rec)
        np.testing.assert_array_equal(data, kept)

    def test_record_roundtrip_keeps_metadata(self, coeffs):
        rec = core.EegRecord(core.ChannelSet(("A", "B")), 128.0,
                             np.random.default_rng(2).normal(size=(2, 256)))
        ev = core.StimulusEvent(image_id=0, onset_sample=10, run_index=0,
                                session_index=0, is_target=True)
        rec = rec.with_markers([ev])
        out = dsp.filter_apply(coeffs, rec)
        assert isinstance(out, core.EegRecord)
        assert out.markers == rec.markers
        assert out.rate == rec.rate

    def test_dimensionality_checks(self, coeffs):
        with pytest.raises(ValueError):
            dsp.filter_apply(coeffs, np.zeros((2, 2, 2)))

    def test_causality(self, coeffs):
        # output before the impulse arrives is exactly zero
        x = np.zeros(512)
        x[100] = 1.0
        y = dsp.filter_apply(coeffs, x)
        np.testing.assert_array_equal(y[:100], 0.0)
        assert y[100] != 0.0


def reference_design(spec: dsp.FilterSpec) -> dsp.FilterCoefficients:
    """The uncached design, as it was before designs were cached."""
    zeros, poles, gain = signal.butter(
        spec.order, [spec.low_cut, spec.high_cut], btype="bandpass",
        fs=spec.rate, output="zpk")
    sos = signal.zpk2sos(zeros, poles, 1.0)
    return dsp.FilterCoefficients(sections=sos[:, [0, 1, 2, 4, 5]],
                                  gain=float(gain))


def reference_filter_rows(coeffs, rows):
    """Each row through scipy.signal.sosfilt, times the gain; rows of no
    samples stay as they are."""
    out = np.array(rows, dtype=np.float64, copy=True)
    for i in range(out.shape[0]):
        if out.shape[1] == 0:
            continue
        out[i] = coeffs.gain * signal.sosfilt(coeffs.sos, out[i])
    return out


def assert_matches_reference(got, want):
    """Within 1e-12 of the reference's largest magnitude: the block-state
    filter sums in another order than sosfilt."""
    assert got.shape == want.shape
    scale = np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


DESIGN_GRID = [dsp.FilterSpec(order, low, high, rate)
               for order in range(1, 7)
               for rate in (100.0, 128.0, 256.0, 512.0)
               for low, high in ((0.1, 20.0), (0.5, 30.0), (1.0, 12.0),
                                 (8.0, 13.0), (0.1, 40.0))]


class TestFastPathsMatchReference:
    """The design is bitwise scipy's; the filter matches sosfilt to
    rounding."""

    @pytest.mark.parametrize("spec", [
        dsp.FilterSpec(),
        dsp.FilterSpec(order=2, low_cut=1.0, high_cut=30.0, rate=256.0),
    ])
    def test_design_is_cached_and_read_only(self, spec):
        coeffs = dsp.design_bandpass(spec)
        assert dsp.design_bandpass(spec) is coeffs
        assert dsp.design_bandpass(dsp.FilterSpec(**vars(spec))) is coeffs
        assert not coeffs.sections.flags.writeable
        with pytest.raises(ValueError):
            coeffs.sections[0, 0] = 0.0
        want = reference_design(spec)
        assert np.array_equal(coeffs.sections, want.sections)
        assert coeffs.gain == want.gain

    def test_design_grid_is_bitwise_scipy(self):
        assert len(DESIGN_GRID) == 120
        for spec in DESIGN_GRID:
            got, want = dsp.design_bandpass(spec), reference_design(spec)
            assert got.sections.tobytes() == want.sections.tobytes(), spec
            assert got.gain == want.gain, spec

    def test_matrix(self, coeffs):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(14, 1434)) * 10.0
        kept = data.copy()
        got = dsp.filter_apply(coeffs, data)
        want = reference_filter_rows(coeffs, data)
        assert_matches_reference(got, want)
        np.testing.assert_array_equal(data, kept)  # input left as it was
        assert not np.shares_memory(got, data)

    def test_series(self, coeffs):
        x = np.random.default_rng(12).normal(size=1000)
        got = dsp.filter_apply(coeffs, x)
        assert got.shape == x.shape
        want = reference_filter_rows(coeffs, x[None])[0]
        assert_matches_reference(got, want)

    @settings(deadline=None)
    @given(n_rows=st.integers(1, 14),
           length=st.one_of(
               st.integers(0, 700),
               st.builds(lambda k, d: k * dsp._BLOCK + d,
                         st.integers(1, 10), st.sampled_from((-1, 0, 1))),
               st.integers(0, dsp._BLOCK - 1)),
           onsets=st.lists(st.integers(0, 800), min_size=14, max_size=14),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_shape(self, coeffs, n_rows, length, onsets, seed):
        data = np.random.default_rng(seed).normal(size=(n_rows, length)) * 10.0
        for row in range(n_rows):
            data[row, :onsets[row]] = 0.0  # silent until its onset
        kept = data.copy()
        got = dsp.filter_apply(coeffs, data)
        assert_matches_reference(got, reference_filter_rows(coeffs, data))
        for row in range(n_rows):
            assert not got[row, :onsets[row]].any()  # exactly zero
        np.testing.assert_array_equal(data, kept)
        assert not np.shares_memory(got, data)

    def test_all_nan_matrix(self, coeffs):
        with pytest.raises(ValueError, match="prune channels first"):
            dsp.filter_apply(coeffs, np.full((3, 50), np.nan))


def _minmax_apply_four_arrays(params, v):
    """Reference: `minmax_apply` as the factors, a subtract, a multiply and
    a `clip`, each into an array of its own.  A factor is 1 / span where
    that is finite and 0 elsewhere, so a NaN or inf on a constant feature
    gives NaN, as on any other feature."""
    arr = np.asarray(v, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        reciprocal = 1.0 / (params.maxes - params.mins)
    factors = np.where(np.isfinite(reciprocal), reciprocal, 0.0)
    scaled = (arr - params.mins) * factors
    return np.clip(scaled, 0.0, 1.0)


class TestMinMax:
    @settings(max_examples=150)
    @given(st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_one_buffer_is_bitwise_the_four_array_expression(
            self, n_features, n_rows, seed, one_vector):
        rng = np.random.default_rng(seed)
        fit = rng.normal(size=(4, n_features)) * 10.0
        fit[:, rng.random(n_features) < 0.3] = 2.5  # constant features
        params = dsp.minmax_fit(fit)
        # twice the fit's spread: many values fall outside [min, max]
        rows = rng.normal(size=(n_rows, n_features)) * 20.0
        rows[rng.random(rows.shape) < 0.15] = np.nan
        if one_vector:
            rows = rows[0]
        kept = rows.copy()
        got = dsp.minmax_apply(params, rows)
        want = _minmax_apply_four_arrays(params, rows)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # NaNs included
        assert rows.tobytes() == kept.tobytes()
        assert not np.shares_memory(got, rows)

    def test_fit_and_apply(self):
        vectors = np.array([[0.0, 10.0], [4.0, 30.0]])
        params = dsp.minmax_fit(vectors)
        np.testing.assert_array_equal(params.mins, [0.0, 10.0])
        np.testing.assert_array_equal(params.maxes, [4.0, 30.0])
        out = dsp.minmax_apply(params, np.array([2.0, 20.0]))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_train_extremes_map_to_unit_interval(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(20, 6)) * 40.0
        params = dsp.minmax_fit(vectors)
        scaled = dsp.minmax_apply(params, vectors)
        np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-15)

    def test_out_of_range_clipped(self):
        params = dsp.ScalingParams(mins=np.array([0.0]), maxes=np.array([1.0]))
        out = dsp.minmax_apply(params, np.array([[-5.0], [5.0]]))
        np.testing.assert_array_equal(out, [[0.0], [1.0]])

    def test_constant_feature_maps_to_zero(self):
        vectors = np.array([[7.0, 1.0], [7.0, 2.0]])
        params = dsp.minmax_fit(vectors)
        out = dsp.minmax_apply(params, np.array([7.0, 1.5]))
        assert out[0] == 0.0

    def test_length_mismatch_rejected(self):
        params = dsp.ScalingParams(mins=np.zeros(3), maxes=np.ones(3))
        with pytest.raises(ValueError):
            dsp.minmax_apply(params, np.zeros(4))

    def test_fit_needs_vectors(self):
        with pytest.raises(ValueError):
            dsp.minmax_fit(np.zeros((0, 3)))

    def test_params_validated(self):
        with pytest.raises(ValueError):
            dsp.ScalingParams(mins=np.array([1.0]), maxes=np.array([0.0]))
        with pytest.raises(ValueError):
            dsp.ScalingParams(mins=np.zeros(2), maxes=np.ones(3))
        for mins, maxes in (([np.nan], [1.0]), ([0.0], [np.nan]),
                            ([0.0], [np.inf]), ([-np.inf], [0.0])):
            with pytest.raises(ValueError, match="finite"):
                dsp.ScalingParams(mins=np.array(mins), maxes=np.array(maxes))

    def test_params_compare_by_value(self):
        # a model file's equality compares its scaling
        params = dsp.ScalingParams(mins=np.zeros(3), maxes=np.ones(3))
        assert params == dsp.ScalingParams(mins=np.zeros(3), maxes=np.ones(3))
        assert params != dsp.ScalingParams(mins=np.zeros(3),
                                           maxes=np.full(3, 2.0))

    @given(st.lists(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                             min_size=4, max_size=4),
                    min_size=2, max_size=16))
    def test_output_always_in_unit_interval(self, rows):
        vectors = np.array(rows)
        params = dsp.minmax_fit(vectors)
        scaled = dsp.minmax_apply(params, vectors)
        assert np.all(scaled >= 0.0)
        assert np.all(scaled <= 1.0)
