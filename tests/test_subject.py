"""Synthetic subject: background spectra, evoked bumps, blinks, dropouts."""
import numpy as np
import pytest

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
        win = core.slice_window(rec, target_ev.onset_sample, 65)
        # 0.4 s * 128 Hz = 51.2 samples after onset
        assert int(np.argmax(win[row])) == 51
        assert win[row].max() == pytest.approx(12.0, rel=1e-3)

    def test_constant_offset_shifts_peak(self):
        sched = self._one_target_schedule()
        rec = subject.simulate_subject(sched, _quiet_params(constant_offset=0.1))
        target_ev = next(ev for ev in sched.events if ev.is_target)
        row = rec.channels.index("P8")
        win = core.slice_window(rec, target_ev.onset_sample, 80)
        assert int(np.argmax(win[row])) == 64

    def test_topography_scales_regions(self):
        sched = self._one_target_schedule()
        rec = subject.simulate_subject(sched, _quiet_params())
        target_ev = next(ev for ev in sched.events if ev.is_target)
        win = core.slice_window(rec, target_ev.onset_sample, 65)
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
            win = core.slice_window(rec, ev.onset_sample, 40)
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
        out = subject.inject_p300(base, sched, subject.SubjectParams(p300_amp=0.0))
        np.testing.assert_array_equal(out.samples, base.samples)

    def test_unknown_targets_rejected(self):
        t = scheduler.TimingConfig(sessions_per_scenario=1, runs_per_session=1)
        blind = scheduler.build_online_trial_schedule(
            t, n_trials=1, rng=np.random.default_rng(0))
        base = subject.generate_background(blind.span_s + 1.0, core.ChannelSet(),
                                           subject.SubjectParams(seed=0),
                                           np.random.default_rng(0))
        with pytest.raises(ValueError):
            subject.inject_p300(base, blind, subject.SubjectParams())

    def test_event_beyond_record_rejected(self):
        sched = self._one_target_schedule()
        short = subject.generate_background(1.0, core.ChannelSet(),
                                            subject.SubjectParams(seed=0),
                                            np.random.default_rng(0))
        with pytest.raises(IndexError):
            subject.inject_p300(short, sched, subject.SubjectParams())

    def test_jitter_requires_rng(self):
        sched = self._one_target_schedule()
        base = subject.generate_background(sched.span_s + 1.0, core.ChannelSet(),
                                           subject.SubjectParams(seed=0),
                                           np.random.default_rng(0))
        with pytest.raises(ValueError):
            subject.inject_p300(base, sched,
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
        np.testing.assert_array_equal(out.samples, 0.0)

    def test_zero_rate_is_identity(self):
        quiet = core.EegRecord(core.ChannelSet(), 128.0, np.zeros((14, 1280)))
        out = subject.inject_blinks(quiet,
                                    subject.SubjectParams(blink_rate=0.0),
                                    np.random.default_rng(0))
        np.testing.assert_array_equal(out.samples, 0.0)

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


class TestWithTargets:
    def test_flags_set_against_target(self):
        t = scheduler.TimingConfig()
        blind = scheduler.build_online_trial_schedule(
            t, n_trials=2, rng=np.random.default_rng(0))
        labelled = subject.with_targets(blind, target=7)
        assert all(ev.is_target == (ev.image_id == 7) for ev in labelled.events)
        assert labelled.n_targets == 2
