"""Synthetic subject: background spectra, evoked bumps, blinks, dropouts."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p300loop import core, scheduler, subject


def _quiet_params(**overrides):
    """Noiseless baseline so injected structure is directly measurable."""
    defaults = dict(background_rms=0.0, alpha_amp=0.0, blink_rate=0.0,
                    nan_fraction=0.0, seed=0)
    defaults.update(overrides)
    return subject.SubjectParams(**defaults)


class TestSubjectParams:
    def test_defaults(self):
        p = subject.SubjectParams()
        assert p.background_rms == 10.0
        assert p.p300_peak_latency == 0.4
        assert p.nan_channel == "FC5"
        assert p.nan_fraction == 0.2

    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError):
            subject.SubjectParams(background_rms=-1.0)
        with pytest.raises(ValueError):
            subject.SubjectParams(blink_amp=-0.5)
        with pytest.raises(ValueError):
            subject.SubjectParams(p300_width=0.0)

    def test_nan_fraction_bounds(self):
        with pytest.raises(ValueError):
            subject.SubjectParams(nan_fraction=1.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(subject.SubjectParams)
        if f.type == "float"])
    def test_every_float_knob_must_be_finite(self, name, value):
        # `value < 0` let NaN through: a NaN p300_amp simulated an all-NaN
        # record, and a NaN background_rms zeroed the pink noise
        with pytest.raises(ValueError, match=name):
            subject.SubjectParams(**{name: value})

    def test_implausible_latency_warns(self):
        with pytest.warns(UserWarning):
            subject.SubjectParams(p300_peak_latency=0.9)


class TestTopography:
    def test_region_gains(self):
        channels = core.ChannelSet()
        topo = subject.default_topography(channels)
        for lab, gain in zip(channels, topo):
            if lab in core.POSTERIOR_LABELS:
                assert gain == 1.0
            elif lab in core.TEMPORAL_LABELS:
                assert gain == 0.6
            else:
                assert gain == 0.3


class TestStageGenerators:
    def test_four_independent_streams(self):
        gens = subject.stage_generators(0)
        assert len(gens) == 4
        draws = [g.standard_normal(4) for g in gens]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])

    def test_seed_reproducibility(self):
        a = subject.stage_generators(5)[0].standard_normal(8)
        b = subject.stage_generators(5)[0].standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_accepts_seed_sequence(self):
        ss = np.random.SeedSequence(5)
        a = subject.stage_generators(ss)[1].standard_normal(4)
        b = subject.stage_generators(5)[1].standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestBackground:
    def test_shape_and_rate(self):
        rec = subject.generate_background(10.0, core.ChannelSet(),
                                          subject.SubjectParams(seed=0),
                                          np.random.default_rng(0))
        assert rec.n_channels == 14
        assert rec.n_samples == 1280
        assert rec.rate == 128.0

    def test_pink_rms_is_exact(self):
        params = subject.SubjectParams(alpha_amp=0.0, seed=0)
        rec = subject.generate_background(20.0, core.ChannelSet(),
                                          params, np.random.default_rng(0))
        rms = np.sqrt(np.mean(rec.samples ** 2, axis=1))
        np.testing.assert_allclose(rms, params.background_rms, rtol=1e-12)

    def test_total_rms_near_nominal(self):
        params = subject.SubjectParams(seed=0)
        rec = subject.generate_background(20.0, core.ChannelSet(),
                                          params, np.random.default_rng(0))
        rms = np.sqrt(np.mean(rec.samples ** 2, axis=1))
        assert np.all(np.abs(rms - params.background_rms)
                      <= 0.1 * params.background_rms)

    def test_alpha_peak_visible(self):
        params = subject.SubjectParams(background_rms=1.0, alpha_amp=5.0, seed=0)
        rec = subject.generate_background(30.0, core.ChannelSet(("O1",)),
                                          params, np.random.default_rng(1))
        spec = np.abs(np.fft.rfft(rec.samples[0]))
        freqs = np.fft.rfftfreq(rec.n_samples, 1.0 / rec.rate)
        peak = freqs[np.argmax(spec[freqs > 2.0]) + np.sum(freqs <= 2.0)]
        assert abs(peak - 10.0) < 0.2

    def test_spectrum_falls_off(self):
        # pink background: low band carries more power than a high band
        params = subject.SubjectParams(alpha_amp=0.0, seed=0)
        rec = subject.generate_background(30.0, core.ChannelSet(("O1",)),
                                          params, np.random.default_rng(2))
        spec = np.abs(np.fft.rfft(rec.samples[0])) ** 2
        freqs = np.fft.rfftfreq(rec.n_samples, 1.0 / rec.rate)
        low = spec[(freqs > 1) & (freqs < 5)].mean()
        high = spec[(freqs > 40) & (freqs < 60)].mean()
        assert low > 10 * high

    def test_half_sample_duration_rounds_away_from_zero(self):
        # the one seconds-to-samples rule, not Python's round half to even
        duration = 10.0 + 0.5 / 128.0
        rec = subject.generate_background(duration, core.ChannelSet(),
                                          subject.SubjectParams(seed=0),
                                          np.random.default_rng(0))
        assert rec.n_samples == core.time_to_sample(duration, 128.0) == 1281

    def test_duration_validated(self):
        with pytest.raises(ValueError):
            subject.generate_background(0.0, core.ChannelSet(),
                                        subject.SubjectParams(),
                                        np.random.default_rng(0))


def reference_background(duration, channels, params, rng, rate=128.0):
    """The row-at-a-time background that the batched one replaced."""
    def pink_noise(n):
        white = rng.standard_normal(n)
        spectrum = np.fft.rfft(white)
        freq = np.fft.rfftfreq(n)
        shape = np.zeros_like(freq)
        shape[1:] = 1.0 / np.sqrt(freq[1:])
        x = np.fft.irfft(spectrum * shape, n)
        scale = np.sqrt(np.mean(x * x))
        if scale > 0 and params.background_rms > 0:
            return x * (params.background_rms / scale)
        return np.zeros(n)

    n = int(round(duration * rate))
    t = np.arange(n) / rate
    samples = np.empty((len(channels), n))
    for i in range(len(channels)):
        row = pink_noise(n)
        if params.alpha_amp > 0:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            row = row + params.alpha_amp * np.sin(2.0 * np.pi * 10.0 * t + phase)
        samples[i] = row
    return samples


class TestBatchedBackgroundMatchesReference:
    """All rows in one FFT and one sin: bitwise the row loop, same draws."""

    @pytest.mark.parametrize("overrides,duration", [
        ({}, 11.2 + subject.TAIL_S),
        ({"alpha_amp": 0.0}, 20.0),
        ({"background_rms": 0.0}, 7.3),
        ({"background_rms": 0.0, "alpha_amp": 0.0}, 3.0),
        ({}, 1.0 / 128.0),
    ])
    def test_bitwise_equal_and_same_rng_state(self, overrides, duration):
        params = subject.SubjectParams(seed=0, **overrides)
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = subject.generate_background(duration, core.ChannelSet(), params,
                                          got_rng)
        want = reference_background(duration, core.ChannelSet(), params,
                                    want_rng)
        assert got.samples.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def reference_batched_background(duration, channels, params, rng):
    """The all-rows background before it was built in place."""
    n = core.time_to_sample(duration, 128.0)
    white = np.empty((len(channels), n))
    phases = np.empty((len(channels), 1))
    for i in range(len(channels)):
        rng.standard_normal(out=white[i])
        if params.alpha_amp > 0:
            phases[i] = rng.uniform(0.0, 2.0 * np.pi)
    freq = np.fft.rfftfreq(n)
    shape = np.zeros_like(freq)
    shape[1:] = 1.0 / np.sqrt(freq[1:])
    x = np.fft.irfft(np.fft.rfft(white) * shape, n)
    scale = np.sqrt(np.mean(x * x, axis=1, keepdims=True))
    ok = (scale > 0) & (params.background_rms > 0)
    gain = params.background_rms / np.where(ok, scale, 1.0)
    samples = np.where(ok, x * gain, 0.0)
    if params.alpha_amp > 0:
        t = np.arange(n) / 128.0
        samples = samples + params.alpha_amp * np.sin(
            2.0 * np.pi * 10.0 * t + phases)
    return samples


class TestInPlaceBackgroundMatchesReference:
    """Shaping, gain and alpha in place: bitwise the whole-array formula."""

    @pytest.mark.parametrize("overrides,duration", [
        ({}, 11.2 + subject.TAIL_S),
        ({}, 317.2 + subject.TAIL_S),
        ({"alpha_amp": 0.0}, 20.0),
        ({"background_rms": 0.0}, 7.3),
        ({"background_rms": 0.0, "alpha_amp": 0.0}, 3.0),
        ({}, 1.0 / 128.0),
    ])
    def test_bitwise_equal_and_same_rng_state(self, overrides, duration):
        params = subject.SubjectParams(seed=0, **overrides)
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = subject.generate_background(duration, core.ChannelSet(), params,
                                          got_rng)
        want = reference_batched_background(duration, core.ChannelSet(),
                                             params, want_rng)
        assert got.samples.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def reference_bumps(n, rate, centres, width):
    """Unit Gaussians summed over every sample, the far tails included."""
    t = np.arange(n) / rate
    train = np.zeros(n)
    for centre in centres:
        train += np.exp(-0.5 * ((t - centre) / width) ** 2)
    return train


def reference_inject_p300(record, params, rng):
    """`inject_p300`'s samples with every bump summed over the whole record."""
    onsets = record.markers.onset[record.markers.target == 1].tolist()
    centres = []
    for onset in onsets:
        jitter = (rng.normal(0.0, params.latency_jitter_sd)
                  if params.latency_jitter_sd > 0 else 0.0)
        centres.append(onset / record.rate + params.p300_peak_latency
                       + params.constant_offset + jitter)
    train = reference_bumps(record.n_samples, record.rate, centres,
                            params.p300_width)
    topo = subject.default_topography(record.channels)
    return record.samples + params.p300_amp * np.outer(topo, train)


def reference_inject_blinks(record, params, rng):
    """`inject_blinks`'s samples with every bump summed over the record."""
    duration = record.n_samples / record.rate
    n_blinks = int(rng.poisson(params.blink_rate * duration / 60.0))
    times = rng.uniform(0.0, duration, size=n_blinks)
    train = reference_bumps(record.n_samples, record.rate, times,
                            subject.BLINK_SIGMA_S)
    weights = np.array([1.0 if lab in core.FRONTAL_LABELS
                        else subject.BLINK_LEAKAGE for lab in record.channels])
    return record.samples + params.blink_amp * np.outer(weights, train)


class TestBumpsWithinReach:
    """Each bump is added only within `BUMP_REACH` widths of its centre;
    the samples are bitwise those of the sum over the whole record."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3000),
           width=st.floats(1e-3, 5.0),
           centres=st.lists(st.floats(-300.0, 330.0), max_size=6),
           near_ends=st.lists(st.tuples(st.booleans(), st.floats(-3.0, 3.0)),
                              max_size=4))
    def test_train_is_the_full_length_sum(self, n, width, centres, near_ends):
        rate = 128.0
        # centres just before the start, or just past the end of the record
        centres += [(n / rate if at_end else 0.0) + shift * subject.BUMP_REACH * width
                    for at_end, shift in near_ends]
        t = np.arange(n) / rate
        train = np.zeros(n)
        for centre in centres:
            subject._add_bump(train, t, centre, width)
        assert train.tobytes() == reference_bumps(n, rate, centres,
                                                  width).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_trials=st.integers(1, 3),
           width=st.floats(0.005, 1.5),
           offset=st.floats(-12.0, 12.0),
           jitter_sd=st.sampled_from([0.0, 0.01, 0.5, 5.0]))
    def test_inject_p300_is_the_full_length_sum(self, seed, n_trials, width,
                                                 offset, jitter_sd):
        rng = np.random.default_rng(seed)
        sched = scheduler.build_online_trial_schedule(
            scheduler.TimingConfig(), n_trials, rng,
            target=int(rng.integers(12)))
        n = core.time_to_sample(sched.span_s + subject.TAIL_S, 128.0)
        base = core.EegRecord(core.ChannelSet(), 128.0,
                              rng.standard_normal((14, n)), sched.events)
        params = subject.SubjectParams(p300_width=width,
                                       constant_offset=offset,
                                       latency_jitter_sd=jitter_sd)
        got_rng, want_rng = (np.random.default_rng(seed + 1) for _ in "ab")
        got = subject.inject_p300(base, params, got_rng)
        want = reference_inject_p300(base, params, want_rng)
        assert got.samples.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), seconds=st.floats(0.5, 60.0),
           rate=st.floats(1.0, 120.0))
    def test_inject_blinks_is_the_full_length_sum(self, seed, seconds, rate):
        rng = np.random.default_rng(seed)
        n = core.time_to_sample(seconds, 128.0)
        base = core.EegRecord(core.ChannelSet(), 128.0,
                              rng.standard_normal((14, n)))
        params = subject.SubjectParams(blink_rate=rate)
        got = subject.inject_blinks(base, params, np.random.default_rng(seed))
        want = reference_inject_blinks(base, params,
                                       np.random.default_rng(seed))
        assert got.samples.tobytes() == want.tobytes()


class TestInjectP300:
    def _one_target_schedule(self):
        t = scheduler.TimingConfig(sessions_per_scenario=1, runs_per_session=1)
        return scheduler.build_scenario_schedule(t, session_targets=[4],
                                                 rng=np.random.default_rng(0))

    def test_peak_lands_at_latency_on_posterior_channel(self):
        sched = self._one_target_schedule()
        rec = subject.simulate_subject(sched, _quiet_params())
        target_ev = next(ev for ev in sched.events if ev.is_target)
        row = rec.channels.index("P8")
        start = target_ev.onset_sample
        win = rec.samples[:, start:start + 65]
        # 0.4 s * 128 Hz = 51.2 samples after onset
        assert int(np.argmax(win[row])) == 51
        assert win[row].max() == pytest.approx(12.0, rel=1e-3)

    def test_constant_offset_shifts_peak(self):
        sched = self._one_target_schedule()
        rec = subject.simulate_subject(sched, _quiet_params(constant_offset=0.1))
        target_ev = next(ev for ev in sched.events if ev.is_target)
        row = rec.channels.index("P8")
        start = target_ev.onset_sample
        win = rec.samples[:, start:start + 80]
        assert int(np.argmax(win[row])) == 64

    def test_topography_scales_regions(self):
        sched = self._one_target_schedule()
        rec = subject.simulate_subject(sched, _quiet_params())
        target_ev = next(ev for ev in sched.events if ev.is_target)
        start = target_ev.onset_sample
        win = rec.samples[:, start:start + 65]
        peak = {lab: win[rec.channels.index(lab)].max()
                for lab in ("O1", "T7", "AF3")}
        assert peak["O1"] == pytest.approx(12.0, rel=1e-3)
        assert peak["T7"] == pytest.approx(0.6 * 12.0, rel=1e-3)
        assert peak["AF3"] == pytest.approx(0.3 * 12.0, rel=1e-3)

    def test_nontarget_epochs_stay_silent(self):
        sched = self._one_target_schedule()
        rec = subject.simulate_subject(sched, _quiet_params())
        target_ev = next(ev for ev in sched.events if ev.is_target)
        centre = target_ev.onset_sample + 0.4 * 128
        checked = 0
        for ev in sched.events:
            if ev.is_target:
                continue
            win = rec.samples[:, ev.onset_sample:ev.onset_sample + 40]
            # the bump decays fast: windows clear of it by 0.25 s are flat
            if ev.onset_sample + 40 < centre - 32 or ev.onset_sample > centre + 32:
                assert np.abs(win).max() < 0.1
                checked += 1
        assert checked >= 8

    def test_zero_amplitude_is_identity(self):
        sched = self._one_target_schedule()
        base = subject.generate_background(sched.span_s + 1.0, core.ChannelSet(),
                                           subject.SubjectParams(seed=3),
                                           np.random.default_rng(3))
        base = base.with_markers(sched.events)
        out = subject.inject_p300(base, subject.SubjectParams(p300_amp=0.0),
                                  np.random.default_rng(4))
        assert out.samples.tobytes() == base.samples.tobytes()

    def test_unknown_targets_rejected(self):
        t = scheduler.TimingConfig(sessions_per_scenario=1, runs_per_session=1)
        blind = scheduler.build_online_trial_schedule(
            t, n_trials=1, rng=np.random.default_rng(0))
        base = subject.generate_background(blind.span_s + 1.0, core.ChannelSet(),
                                           subject.SubjectParams(seed=0),
                                           np.random.default_rng(0))
        with pytest.raises(ValueError, match="is_target"):
            subject.inject_p300(base.with_markers(blind.events),
                                subject.SubjectParams(),
                                np.random.default_rng(1))

    def test_jitter_requires_rng(self):
        sched = self._one_target_schedule()
        base = subject.generate_background(sched.span_s + 1.0, core.ChannelSet(),
                                           subject.SubjectParams(seed=0),
                                           np.random.default_rng(0))
        with pytest.raises(TypeError):
            subject.inject_p300(base.with_markers(sched.events),
                                subject.SubjectParams(latency_jitter_sd=0.01))


class TestInjectBlinks:
    def test_frontal_dominance(self):
        params = subject.SubjectParams(blink_rate=20.0, blink_amp=80.0, seed=0)
        quiet = core.EegRecord(core.ChannelSet(), 128.0, np.zeros((14, 128 * 60)))
        out = subject.inject_blinks(quiet, params, np.random.default_rng(0))
        rms = np.sqrt(np.mean(out.samples ** 2, axis=1))
        frontal = [rms[out.channels.index(lab)] for lab in core.FRONTAL_LABELS]
        posterior = [rms[out.channels.index(lab)] for lab in core.POSTERIOR_LABELS]
        assert min(frontal) > 0
        # leakage is 5% of the frontal deflection
        np.testing.assert_allclose(np.array(posterior),
                                   0.05 * np.array(frontal), rtol=1e-9)

    def test_zero_amplitude_is_identity(self):
        quiet = core.EegRecord(core.ChannelSet(), 128.0, np.zeros((14, 1280)))
        out = subject.inject_blinks(quiet,
                                    subject.SubjectParams(blink_amp=0.0),
                                    np.random.default_rng(0))
        assert out.samples.tobytes() == quiet.samples.tobytes()

    def test_zero_rate_is_identity(self):
        quiet = core.EegRecord(core.ChannelSet(), 128.0, np.zeros((14, 1280)))
        out = subject.inject_blinks(quiet,
                                    subject.SubjectParams(blink_rate=0.0),
                                    np.random.default_rng(0))
        assert out.samples.tobytes() == quiet.samples.tobytes()

    def test_count_scales_with_rate(self):
        quiet = core.EegRecord(core.ChannelSet(("AF3",)), 128.0,
                               np.zeros((1, 128 * 600)))
        params = subject.SubjectParams(blink_rate=4.0, blink_amp=80.0)
        out = subject.inject_blinks(quiet, params, np.random.default_rng(1))
        # count peaks above half amplitude: ~40 blinks in 10 minutes
        above = out.samples[0] > 40.0
        n_bursts = int(np.sum(np.diff(above.astype(int)) == 1))
        assert 20 <= n_bursts <= 60


class TestNanCorruption:
    def test_fraction_of_one_channel(self):
        rec = core.EegRecord(core.ChannelSet(), 128.0, np.zeros((14, 1280)))
        params = subject.SubjectParams(nan_fraction=0.2)
        out = subject.corrupt_nan_channel(rec, params, np.random.default_rng(0))
        row = out.channels.index("FC5")
        assert int(np.isnan(out.samples[row]).sum()) == 256
        other = np.delete(out.samples, row, axis=0)
        assert not np.isnan(other).any()

    def test_zero_fraction_is_identity(self):
        rec = core.EegRecord(core.ChannelSet(), 128.0,
                             np.random.default_rng(1).normal(size=(14, 1280)))
        out = subject.corrupt_nan_channel(
            rec, subject.SubjectParams(nan_fraction=0.0),
            np.random.default_rng(0))
        assert out.samples.tobytes() == rec.samples.tobytes()

    def test_unknown_channel_rejected(self):
        rec = core.EegRecord(core.ChannelSet(("A",)), 128.0, np.zeros((1, 10)))
        with pytest.raises(KeyError):
            subject.corrupt_nan_channel(rec, subject.SubjectParams(nan_channel="Z"),
                                        np.random.default_rng(0))


class TestSimulateSubject:
    def test_record_extends_past_last_epoch(self, training_schedule,
                                            training_record):
        expected = int(round((training_schedule.span_s + subject.TAIL_S) * 128))
        assert training_record.n_samples == expected
        last = training_schedule.events[-1]
        assert last.onset_sample + 65 <= training_record.n_samples

    def test_markers_attached(self, training_schedule, training_record):
        assert training_record.markers == training_schedule.events

    def test_same_seed_reproduces(self, training_schedule):
        t = scheduler.TimingConfig(sessions_per_scenario=1)
        sched = scheduler.build_scenario_schedule(t, rng=np.random.default_rng(1))
        a = subject.simulate_subject(sched, subject.SubjectParams(seed=9))
        b = subject.simulate_subject(sched, subject.SubjectParams(seed=9))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_nan_stage_leaves_other_entries_untouched(self):
        t = scheduler.TimingConfig(sessions_per_scenario=1)
        sched = scheduler.build_scenario_schedule(t, rng=np.random.default_rng(1))
        dirty = subject.simulate_subject(sched, subject.SubjectParams(seed=2))
        clean = subject.simulate_subject(
            sched, subject.SubjectParams(seed=2, nan_fraction=0.0))
        mask = np.isnan(dirty.samples)
        assert mask.any()
        np.testing.assert_array_equal(dirty.samples[~mask], clean.samples[~mask])

    def test_nan_contained_to_configured_channel(self, training_record):
        row = training_record.channels.index("FC5")
        per_channel = np.isnan(training_record.samples).sum(axis=1)
        assert per_channel[row] == int(round(0.2 * training_record.n_samples))
        assert per_channel.sum() == per_channel[row]

