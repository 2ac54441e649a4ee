"""Channel pruning, epoch segmentation, and feature-vector geometry."""
import numpy as np
import pytest

from p300loop import core, dsp, features, scheduler, subject


def _record_with_nans(fractions, n=1000):
    """One channel per requested NaN fraction."""
    labels = tuple(f"C{i}" for i in range(len(fractions)))
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(len(fractions), n))
    for row, frac in enumerate(fractions):
        n_bad = int(round(frac * n))
        if n_bad:
            samples[row, rng.choice(n, n_bad, replace=False)] = np.nan
    return core.EegRecord(core.ChannelSet(labels), 128.0, samples)


class TestEpochWindow:
    def test_defaults(self):
        w = features.EpochWindow()
        assert w.start_offset == 0
        assert w.length == 65

    def test_length_validated(self):
        with pytest.raises(ValueError):
            features.EpochWindow(length=0)


class TestPipelineConfig:
    @pytest.mark.parametrize("field,value", [
        ("nan_threshold", np.nan), ("nan_threshold", np.inf),
        ("nan_threshold", -1.0), ("nan_threshold", 5.0),
        ("shrinkage", np.nan), ("shrinkage", np.inf), ("shrinkage", 1.5),
        ("shrinkage", -0.1)])
    def test_fields_checked_where_defined(self, field, value):
        # the flags and a model file's keys are all checked here: a shrinkage
        # of 2 once reached the solver, after the record was featurised
        with pytest.raises(ValueError, match=field):
            features.PipelineConfig(**{field: value})


class TestPruneChannels:
    def test_drops_only_channels_over_threshold(self):
        rec = _record_with_nans([0.0, 0.02, 0.2])
        pruned, dropped = features.prune_channels(rec, nan_threshold=0.05)
        assert dropped == ["C2"]
        assert tuple(pruned.channels) == ("C0", "C1")
        assert not np.isnan(pruned.samples).any()

    def test_residual_nans_interpolated_linearly(self):
        samples = np.array([[0.0, np.nan, 2.0, 3.0, np.nan, 5.0]])
        rec = core.EegRecord(core.ChannelSet(("A",)), 128.0, samples)
        pruned, dropped = features.prune_channels(rec, nan_threshold=0.5)
        assert dropped == []
        np.testing.assert_allclose(pruned.samples[0], [0, 1, 2, 3, 4, 5])

    def test_all_channels_bad_rejected(self):
        rec = _record_with_nans([0.5, 0.6])
        with pytest.raises(ValueError):
            features.prune_channels(rec, nan_threshold=0.05)

    def test_all_nan_channel_dropped_whatever_the_threshold(self):
        # at a threshold of 1 an all-NaN channel once survived and failed
        # in np.interp, which has no finite sample to interpolate from
        rec = _record_with_nans([0.0, 1.0, 0.5])
        pruned, dropped = features.prune_channels(rec, nan_threshold=1.0)
        assert dropped == ["C1"]
        assert tuple(pruned.channels) == ("C0", "C2")
        assert not np.isnan(pruned.samples).any()

    def test_default_pipeline_drops_the_corrupted_channel(self, training_record):
        pruned, dropped = features.prune_channels(training_record)
        assert dropped == ["FC5"]
        assert len(pruned.channels) == 13
        assert "FC5" not in pruned.channels

    def test_markers_carried_over(self, training_record):
        pruned, _ = features.prune_channels(training_record)
        assert pruned.markers == training_record.markers


class TestSegment:
    def _record(self, markers, n=2000):
        samples = np.tile(np.arange(n, dtype=float), (2, 1))
        return core.EegRecord(core.ChannelSet(("A", "B")), 128.0, samples,
                              markers)

    def test_window_columns(self):
        ev = core.StimulusEvent(image_id=0, onset_sample=1000, run_index=0,
                                session_index=0, is_target=True)
        epochs = features.segment(self._record([ev]))
        assert epochs.shape == (1, 2, 65)
        # an onset at sample 1000 spans columns 1000..1064 inclusive
        assert epochs[0, 0, 0] == 1000.0
        assert epochs[0, 0, -1] == 1064.0

    def test_start_offset_shifts_window(self):
        ev = core.StimulusEvent(image_id=0, onset_sample=1000, run_index=0,
                                session_index=0, is_target=True)
        window = features.EpochWindow(start_offset=13, length=10)
        epochs = features.segment(self._record([ev]), window)
        assert epochs[0, 0, 0] == 1013.0

    def test_events_default_to_markers(self):
        # one epoch per marker, in marker order
        evs = [core.StimulusEvent(image_id=i, onset_sample=onset, run_index=0,
                                  session_index=0, is_target=False)
               for i, onset in ((3, 500), (1, 700), (2, 900))]
        epochs = features.segment(self._record(evs))
        assert epochs.shape == (3, 2, 65)
        np.testing.assert_array_equal(epochs[:, 1, 0], [500.0, 700.0, 900.0])

    def test_window_overrun_is_descriptive(self):
        ev = core.StimulusEvent(image_id=2, onset_sample=1000, run_index=1,
                                session_index=4, is_target=False)
        with pytest.raises(IndexError, match="session 4"):
            features.segment(self._record([ev], n=1030))


class TestFeatureVector:
    """A feature vector is its epoch flattened row-major: channel 0's
    samples, then channel 1's."""

    def _epochs(self, samples, length):
        ev = core.StimulusEvent(image_id=0, onset_sample=0, run_index=0,
                                session_index=0, is_target=True)
        rec = core.EegRecord(core.ChannelSet(tuple("AB"[:len(samples)])),
                             128.0, samples, (ev,))
        return features.segment(rec, features.EpochWindow(length=length))

    def test_row_major_order_1x3(self):
        epochs = self._epochs(np.array([[1.0, 2.0, 3.0, 9.0]]), 3)
        np.testing.assert_array_equal(epochs.reshape(1, -1), [[1.0, 2.0, 3.0]])

    def test_row_major_order_2x2(self):
        epochs = self._epochs(np.array([[1.0, 2.0, 9.0], [3.0, 4.0, 9.0]]), 2)
        np.testing.assert_array_equal(epochs.reshape(1, -1),
                                      [[1.0, 2.0, 3.0, 4.0]])

    def test_round_trip(self, training_record, training_dataset):
        pruned, _ = features.prune_channels(training_record)
        filtered = dsp.filter_apply(
            dsp.design_bandpass(dsp.FilterSpec(rate=pruned.rate)), pruned)
        epochs = features.segment(filtered)
        # reference: one basic slice per marker
        want = [filtered.samples[:, ev.onset_sample:ev.onset_sample + 65]
                for ev in filtered.markers]
        np.testing.assert_array_equal(epochs, want)
        assert training_dataset.vectors.shape == (864, 845)
        np.testing.assert_array_equal(
            training_dataset.vectors.reshape(864, 13, 65), epochs)

    def test_vector_is_a_copy(self, training_record):
        epochs = features.segment(training_record)
        assert epochs.flags.writeable
        assert not np.shares_memory(epochs, training_record.samples)


class TestDatasetFromScenario:
    def test_default_geometry(self, training_dataset):
        assert training_dataset.vectors.shape == (864, 845)
        assert training_dataset.n_targets == 72
        assert len(training_dataset.channels) == 13
        assert training_dataset.window.length == 65
        assert training_dataset.feature_size == 13 * 65

    def test_labels_follow_schedule(self, training_dataset, training_schedule):
        for (run, sess, img), label in zip(training_dataset.provenance,
                                           training_dataset.labels):
            assert label == (img == training_schedule.session_targets[sess])

    def test_events_can_come_from_markers(self, training_record,
                                          training_dataset):
        np.testing.assert_array_equal(training_dataset.provenance, [
            (ev.run_index, ev.session_index, ev.image_id)
            for ev in training_record.markers])
        np.testing.assert_array_equal(
            training_dataset.labels,
            [ev.is_target for ev in training_record.markers])

    def test_unlabelled_events_rejected(self):
        t = scheduler.TimingConfig(sessions_per_scenario=1, runs_per_session=1)
        blind, attended = (scheduler.build_online_trial_schedule(
            t, n_trials=1, rng=np.random.default_rng(0), target=target)
            for target in (None, 0))
        params = subject.SubjectParams(seed=0, nan_fraction=0.0)
        rec = subject.simulate_subject(attended, params)
        rec = rec.with_markers(blind.events)
        with pytest.raises(ValueError):
            features.dataset_from_scenario(rec)

    def test_empty_events_rejected(self):
        rec = core.EegRecord(core.ChannelSet(("A",)), 128.0, np.zeros((1, 100)))
        with pytest.raises(ValueError):
            features.dataset_from_scenario(rec)

    def test_filtering_actually_ran(self, training_record, training_dataset):
        # raw epochs contain the ~10 uV background; filtered features are
        # small and never NaN despite the corrupted channel upstream
        assert not np.isnan(training_dataset.vectors).any()
        raw_std = np.nanstd(training_record.samples)
        assert training_dataset.vectors.std() < raw_std

    def test_dataset_invariants(self):
        with pytest.raises(ValueError):
            features.LabeledDataset(vectors=np.zeros((2, 4)),
                                    labels=np.array([True]),
                                    provenance=((0, 0, 0), (0, 0, 1)))
        with pytest.raises(ValueError):
            features.LabeledDataset(vectors=np.zeros((1, 4)),
                                    labels=np.array([True]),
                                    provenance=((0, 0, 0),),
                                    channels=core.ChannelSet(("A", "B")),
                                    window=features.EpochWindow(length=3))

