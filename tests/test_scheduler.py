"""Stimulus scheduling: protocol durations, block randomization, time grid."""
import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import attended_images
from p300loop import core, scheduler


class TestTimingConfig:
    def test_defaults(self):
        t = scheduler.TimingConfig()
        assert t.d_flash == 0.2
        assert t.d_no_flash == 0.1
        assert t.runs_per_session == 6
        assert t.sessions_per_scenario == 12

    def test_derived_properties_are_exact(self):
        t = scheduler.TimingConfig()
        isi, d_run, _, _ = scheduler._exact_durations(t)
        assert (isi, d_run) == (Fraction(3, 10), Fraction(18, 5))
        assert scheduler.durations(t)[0] == 3.6

    def test_rejects_nonpositive_durations_and_counts(self):
        with pytest.raises(ValueError):
            scheduler.TimingConfig(d_flash=0.0)
        with pytest.raises(ValueError):
            scheduler.TimingConfig(d_inf=-1.0)
        with pytest.raises(ValueError):
            scheduler.TimingConfig(runs_per_session=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(scheduler.TimingConfig)
        if f.type == "float"])
    def test_every_duration_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            scheduler.TimingConfig(**{name: value})

    def test_scenario_span_is_capped(self):
        # 6892.8 + 12 * 25.6 s is exactly the cap, in exact arithmetic
        span = scheduler.durations(scheduler.TimingConfig(d_adapt=6892.8))[2]
        assert span == scheduler.MAX_SCENARIO_S
        with pytest.raises(ValueError, match="7200.1 s is too large"):
            scheduler.TimingConfig(d_adapt=6892.9)

    def test_image_count_is_not_configurable(self):
        # every run flashes each of the core.N_IMAGES images once
        with pytest.raises(TypeError):
            scheduler.TimingConfig(images=12)


class TestDurations:
    def test_default_grid(self):
        d_run, d_session, d_scenario = scheduler.durations(scheduler.TimingConfig())
        assert abs(d_run - 3.6) <= 1e-9
        assert abs(d_session - 25.6) <= 1e-9
        # 10 + 12 * 25.6: the scenario length follows from the composition rule
        assert abs(d_scenario - 317.2) <= 1e-9

    def test_single_run_session(self):
        t = scheduler.TimingConfig(runs_per_session=1)
        _, d_session, _ = scheduler.durations(t)
        assert d_session == pytest.approx(6.6, abs=1e-12)

    def test_shorter_flash_grid(self):
        t = scheduler.TimingConfig(d_flash=0.1, d_no_flash=0.1)
        d_run, _, _ = scheduler.durations(t)
        assert d_run == pytest.approx(2.4, abs=1e-12)

    def test_float_artifacts_do_not_accumulate(self):
        # 0.1-second terms are summed exactly, not as repeated float adds
        t = scheduler.TimingConfig(d_flash=0.1, d_no_flash=0.1,
                                   d_run_interval=0.1, d_inf=0.1, d_adapt=0.1,
                                   runs_per_session=10, sessions_per_scenario=10)
        _, _, d_scenario = scheduler.durations(t)
        assert d_scenario == pytest.approx(0.1 + 10 * (0.1 + 24.0 + 0.9),
                                           abs=1e-12)


class TestRunSequence:
    def test_seeded_permutation(self):
        rng = np.random.default_rng(42)
        seq = scheduler.generate_run_sequence(rng)
        assert seq == [0, 7, 6, 9, 11, 3, 5, 2, 4, 10, 1, 8]

    def test_is_permutation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert sorted(scheduler.generate_run_sequence(rng)) == list(range(12))

    def test_no_back_to_back_repeat(self):
        rng = np.random.default_rng(3)
        prev = None
        for _ in range(200):
            seq = scheduler.generate_run_sequence(rng, previous_last=prev)
            if prev is not None:
                assert seq[0] != prev
            prev = seq[-1]

    def test_previous_last_validated(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            scheduler.generate_run_sequence(rng, previous_last=12)


class TestScenarioSchedule:
    def test_event_and_target_counts(self, training_schedule):
        assert training_schedule.n_events == 864
        assert training_schedule.n_targets == 72

    def test_default_session_targets(self, training_schedule):
        assert attended_images(training_schedule.events) == tuple(range(12))

    def test_each_run_is_a_permutation(self, training_schedule):
        by_run = {}
        for ev in training_schedule.events:
            by_run.setdefault((ev.session_index, ev.run_index), []).append(ev)
        assert len(by_run) == 72
        for events in by_run.values():
            assert sorted(e.image_id for e in events) == list(range(12))

    def test_adjacent_runs_never_repeat_boundary_image(self, training_schedule):
        ordered = sorted(
            {(ev.session_index, ev.run_index) for ev in training_schedule.events})
        by_run = {key: [] for key in ordered}
        for ev in training_schedule.events:
            by_run[(ev.session_index, ev.run_index)].append(ev)
        prev_last = None
        for key in ordered:
            events = by_run[key]
            if prev_last is not None:
                assert events[0].image_id != prev_last
            prev_last = events[-1].image_id

    def test_target_flags_follow_session_prescription(self, training_schedule):
        for ev in training_schedule.events:
            # the default prescription: session s attends image s
            assert ev.is_target == (ev.image_id == ev.session_index)

    def test_first_onset_after_adaptation_and_instruction(self, training_schedule):
        first = training_schedule.events[0]
        assert first.onset_s == pytest.approx(13.0, abs=1e-12)
        assert first.onset_sample == core.time_to_sample(13.0, 128.0)

    def test_intra_run_onsets_step_by_isi(self, training_schedule):
        by_run = {}
        for ev in training_schedule.events:
            by_run.setdefault((ev.session_index, ev.run_index), []).append(ev)
        for events in by_run.values():
            onsets = [e.onset_s for e in events]
            gaps = np.diff(onsets)
            np.testing.assert_allclose(gaps, 0.3, atol=1e-12)

    def test_last_flash_clears_itself_before_span_end(self, training_schedule):
        last = training_schedule.events[-1]
        assert last.onset_s + 0.3 <= training_schedule.span_s + 1e-12
        assert training_schedule.span_s == pytest.approx(317.2, abs=1e-9)

    def test_onset_samples_on_128hz_grid(self, training_schedule):
        for ev in training_schedule.events[:100]:
            assert ev.onset_sample == core.time_to_sample(ev.onset_s, 128.0)

    def test_custom_targets_validated(self):
        t = scheduler.TimingConfig(sessions_per_scenario=2)
        rng = np.random.default_rng(0)
        sched = scheduler.build_scenario_schedule(t, session_targets=[5, 5],
                                                  rng=rng)
        assert attended_images(sched.events) == (5, 5)
        with pytest.raises(ValueError):
            scheduler.build_scenario_schedule(t, session_targets=[5], rng=rng)
        with pytest.raises(ValueError):
            scheduler.build_scenario_schedule(t, session_targets=[5, 12], rng=rng)

    def test_minimal_scenario_counts(self):
        t = scheduler.TimingConfig(sessions_per_scenario=1, runs_per_session=1)
        sched = scheduler.build_scenario_schedule(t, rng=np.random.default_rng(0))
        assert sched.n_events == 12
        assert sched.n_targets == 1

    def test_duplicate_image_in_run_rejected(self):
        ev = core.StimulusEvent(image_id=4, onset_sample=10, run_index=0,
                                session_index=0)
        ev2 = core.StimulusEvent(image_id=4, onset_sample=20, run_index=0,
                                 session_index=0)
        with pytest.raises(ValueError):
            scheduler.ScenarioSchedule(events=(ev, ev2))

    def test_onsets_must_increase(self):
        ev = core.StimulusEvent(image_id=4, onset_sample=10, run_index=0,
                                session_index=0)
        ev2 = core.StimulusEvent(image_id=5, onset_sample=10, run_index=0,
                                 session_index=0)
        with pytest.raises(ValueError):
            scheduler.ScenarioSchedule(events=(ev, ev2))


class TestOnlineTrialSchedule:
    def test_three_trial_span(self):
        t = scheduler.TimingConfig()
        sched = scheduler.build_online_trial_schedule(
            t, n_trials=3, rng=np.random.default_rng(0))
        assert sched.span_s == pytest.approx(11.2, abs=1e-12)
        assert sched.n_events == 36
        assert all(ev.is_target is None for ev in sched.events)
        assert {ev.run_index for ev in sched.events} == {0, 1, 2}

    def test_starts_immediately(self):
        t = scheduler.TimingConfig()
        sched = scheduler.build_online_trial_schedule(
            t, n_trials=1, rng=np.random.default_rng(0))
        assert sched.events[0].onset_s == 0.0
        assert sched.events[0].onset_sample == 0

    def test_sequences_replayed_verbatim(self):
        t = scheduler.TimingConfig()
        seqs = [list(range(12)), list(range(11, -1, -1))]
        sched = scheduler.build_online_trial_schedule(t, n_trials=2,
                                                      sequences=seqs)
        got = {}
        for ev in sched.events:
            got.setdefault(ev.run_index, []).append(ev.image_id)
        assert got[0] == seqs[0]
        assert got[1] == seqs[1]

    def test_sequences_validated(self):
        t = scheduler.TimingConfig()
        with pytest.raises(ValueError):
            scheduler.build_online_trial_schedule(t, n_trials=2,
                                                  sequences=[list(range(12))])
        with pytest.raises(ValueError):
            scheduler.build_online_trial_schedule(t, n_trials=1,
                                                  sequences=[[0] * 12])

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ValueError):
            scheduler.build_online_trial_schedule(scheduler.TimingConfig(),
                                                  n_trials=0)

    def test_flags_set_against_target(self):
        t = scheduler.TimingConfig()
        for n_trials, seed, target in [(2, 0, 7), (3, 5, 0), (1, 9, 11)]:
            blind, labelled = (scheduler.build_online_trial_schedule(
                t, n_trials, np.random.default_rng(seed), target=attended)
                for attended in (None, target))
            want = reference_with_targets(blind, target).events
            for column in ("onset", "image", "run", "session", "target",
                           "onset_s"):
                assert (getattr(labelled.events, column).tobytes()
                        == getattr(want, column).tobytes())
            assert attended_images(labelled.events) == (target,)
            assert labelled.n_targets == n_trials
            # without a target every flag is unknown, as a blind consumer
            # sees it
            assert (blind.events.target == -1).all()
            assert attended_images(blind.events) == ()

    @pytest.mark.parametrize("target", [12, -1, 200])
    def test_target_outside_image_range_rejected(self, target):
        with pytest.raises(ValueError, match="outside image id range"):
            scheduler.build_online_trial_schedule(
                scheduler.TimingConfig(), 2, np.random.default_rng(0),
                target=target)


def reference_with_targets(schedule, target):
    """The copy of a blind schedule relabelled against one attended image
    that online selections made before the builder took `target`."""
    events = schedule.events
    return scheduler.ScenarioSchedule(
        events=core.Markers(events.onset, events.image, events.run,
                            events.session, events.image == target,
                            events.onset_s),
        span_s=schedule.span_s)


def reference_online_schedule(timing, n_trials, rng, sequences=None):
    """The per-call Fraction builder that the cached online grid replaced."""
    fr = lambda x: Fraction(str(x))
    isi = fr(timing.d_flash) + fr(timing.d_no_flash)
    d_run = isi * core.N_IMAGES
    rate_fr = fr(core.DEFAULT_RATE)
    events = []
    prev_last = None
    for trial in range(n_trials):
        run_base = trial * (d_run + fr(timing.d_run_interval))
        if sequences is not None:
            seq = sequences[trial]
        else:
            seq = scheduler.generate_run_sequence(rng, prev_last)
        prev_last = seq[-1]
        for j, img in enumerate(seq):
            onset = run_base + j * isi
            events.append(core.StimulusEvent(
                image_id=img, onset_sample=core.time_to_sample(onset, rate_fr),
                run_index=trial, session_index=0, is_target=None,
                onset_s=float(onset)))
    span = n_trials * d_run + (n_trials - 1) * fr(timing.d_run_interval)
    return scheduler.ScenarioSchedule(events=tuple(events),
                                      span_s=float(span))


_CENTI_SECONDS = st.integers(min_value=1, max_value=250).map(lambda k: k / 100)


class TestCachedOnlineGrid:
    """The cached grid gives bitwise the schedules of the Fraction builder."""

    @settings(max_examples=60, deadline=None)
    @given(d_flash=_CENTI_SECONDS, d_no_flash=_CENTI_SECONDS,
           d_run_interval=_CENTI_SECONDS,
           n_trials=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**16),
           replay=st.booleans())
    def test_matches_fraction_builder(self, d_flash, d_no_flash,
                                      d_run_interval, n_trials, seed, replay):
        timing = scheduler.TimingConfig(d_flash=d_flash, d_no_flash=d_no_flash,
                                        d_run_interval=d_run_interval)
        sequences = None
        if replay:
            perm = np.random.default_rng(seed).permutation
            sequences = [[int(i) for i in perm(core.N_IMAGES)]
                         for _ in range(n_trials)]
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = scheduler.build_online_trial_schedule(
            timing, n_trials, got_rng, sequences=sequences)
        want = reference_online_schedule(timing, n_trials, want_rng, sequences)
        assert got.events == want.events
        assert ([ev.onset_s for ev in got.events]
                == [ev.onset_s for ev in want.events])
        assert got.span_s == want.span_s
        assert scheduler.online_grid(timing, n_trials)[1] == want.span_s
        assert (got_rng.bit_generator.state
                == want_rng.bit_generator.state)

    def test_grid_is_computed_once_per_key(self):
        timing = scheduler.TimingConfig(d_flash=0.15)
        first = scheduler.online_grid(timing, 3)
        assert scheduler.online_grid(
            scheduler.TimingConfig(d_flash=0.15), 3) is first
        assert first[1] == float(3 * Fraction("0.25") * 12
                                 + 2 * Fraction("0.2"))


class TestEventTable:
    def test_header_and_rows(self, training_schedule):
        table = scheduler.event_table(training_schedule)
        lines = table.splitlines()
        assert lines[0].split("\t") == ["onset_s", "onset_sample", "image_id",
                                        "run", "session", "is_target"]
        assert len(lines) == 1 + 864
        first = lines[1].split("\t")
        assert first[1] == str(training_schedule.events[0].onset_sample)

    def test_unknown_targets_marked(self):
        sched = scheduler.build_online_trial_schedule(
            scheduler.TimingConfig(), n_trials=1, rng=np.random.default_rng(0))
        table = scheduler.event_table(sched)
        assert "\t?" in table.splitlines()[1]
