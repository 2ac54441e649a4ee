"""Core data-structure behaviour: channels, events, records, sample math."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from p300loop import core, features


class TestChannelSet:
    def test_default_has_14_channels(self):
        cs = core.ChannelSet()
        assert len(cs) == 14
        assert cs.labels == core.DEFAULT_CHANNEL_LABELS

    def test_membership_and_index(self):
        cs = core.ChannelSet()
        assert "P8" in cs
        assert "Cz" not in cs
        assert cs.labels[cs.index("AF3")] == "AF3"
        with pytest.raises(KeyError):
            cs.index("Cz")

    def test_indices_maps_labels_to_rows(self):
        cs = core.ChannelSet()
        rows = cs.indices(core.POSTERIOR_LABELS)
        assert [cs.labels[i] for i in rows] == list(core.POSTERIOR_LABELS)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            core.ChannelSet(("A", "A"))
        with pytest.raises(ValueError):
            core.ChannelSet(())

    def test_iteration_order(self):
        cs = core.ChannelSet(("X", "Y"))
        assert list(cs) == ["X", "Y"]


class TestStimulusEvent:
    def test_valid_event(self):
        ev = core.StimulusEvent(image_id=3, onset_sample=100,
                                run_index=1, session_index=2, is_target=True)
        assert ev.image_id == 3
        assert ev.is_target is True

    def test_target_flag_defaults_to_unknown(self):
        ev = core.StimulusEvent(image_id=0, onset_sample=0,
                                run_index=0, session_index=0)
        assert ev.is_target is None

    @pytest.mark.parametrize("image_id", [-1, 12, 99])
    def test_image_id_range(self, image_id):
        with pytest.raises(ValueError):
            core.StimulusEvent(image_id=image_id, onset_sample=0,
                               run_index=0, session_index=0)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            core.StimulusEvent(image_id=0, onset_sample=-1,
                               run_index=0, session_index=0)
        with pytest.raises(ValueError):
            core.StimulusEvent(image_id=0, onset_sample=0,
                               run_index=-1, session_index=0)

    def test_onset_seconds_excluded_from_equality(self):
        a = core.StimulusEvent(image_id=0, onset_sample=10, run_index=0,
                               session_index=0, is_target=False, onset_s=0.5)
        b = core.StimulusEvent(image_id=0, onset_sample=10, run_index=0,
                               session_index=0, is_target=False, onset_s=0.7)
        assert a == b


class TestEegRecord:
    def _record(self, n=32, labels=("A", "B")):
        rng = np.random.default_rng(1)
        return core.EegRecord(samples=rng.normal(size=(len(labels), n)),
                              rate=128.0,
                              channels=core.ChannelSet(labels))

    def test_shape_properties(self):
        rec = self._record(n=64)
        assert rec.n_channels == 2
        assert rec.n_samples == 64
        assert rec.duration_s == pytest.approx(0.5)

    def test_samples_are_readonly_copies(self):
        raw = np.zeros((2, 8))
        rec = core.EegRecord(samples=raw, rate=128.0,
                             channels=core.ChannelSet(("A", "B")))
        raw[0, 0] = 99.0
        assert rec.samples[0, 0] == 0.0
        with pytest.raises(ValueError):
            rec.samples[0, 0] = 1.0

    def test_row_count_must_match_channels(self):
        with pytest.raises(ValueError):
            core.EegRecord(samples=np.zeros((3, 8)), rate=128.0,
                           channels=core.ChannelSet(("A", "B")))

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            core.EegRecord(samples=np.zeros((1, 8)), rate=0.0,
                           channels=core.ChannelSet(("A",)))

    def test_markers_must_be_increasing_and_in_range(self):
        rec = self._record(n=16)
        ev = core.StimulusEvent(image_id=0, onset_sample=5,
                                run_index=0, session_index=0)
        late = core.StimulusEvent(image_id=1, onset_sample=16,
                                  run_index=0, session_index=0)
        assert rec.with_markers([ev]).markers == (ev,)
        with pytest.raises(ValueError):
            rec.with_markers([ev, ev])
        with pytest.raises(ValueError):
            rec.with_markers([late])

    def test_with_samples_keeps_metadata(self):
        rec = self._record(n=16)
        ev = core.StimulusEvent(image_id=0, onset_sample=3,
                                run_index=0, session_index=0)
        rec = rec.with_markers([ev])
        swapped = rec.with_samples(np.ones((2, 16)))
        assert swapped.markers == rec.markers
        assert swapped.rate == rec.rate
        assert np.all(swapped.samples == 1.0)


class TestTimeToSample:
    def test_reference_values(self):
        # nearest-sample rounding at 128 Hz
        assert core.time_to_sample(0.5, 128.0) == 64
        assert core.time_to_sample(0.0, 128.0) == 0
        assert core.time_to_sample(3.6, 128.0) == 461

    def test_half_sample_rounds_up(self):
        # 0.5 samples maps to the next index: floor(x + 1/2)
        assert core.time_to_sample(0.5 / 128.0, 128.0) == 1

    def test_exact_fraction_input(self):
        from fractions import Fraction
        assert core.time_to_sample(Fraction(36, 10), Fraction(128)) == 461

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            core.time_to_sample(-0.1, 128.0)
        with pytest.raises(ValueError):
            core.time_to_sample(0.1, 0.0)

    @given(st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=0.0, max_value=1e4))
    def test_monotone_in_time(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert core.time_to_sample(lo, 128.0) <= core.time_to_sample(hi, 128.0)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_integral_samples_are_fixed_points(self, k):
        assert core.time_to_sample(k / 128.0, 128.0) == k


class TestSliceWindow:
    """The sample window `features.segment` cuts from a record per marker."""

    def _record(self, onset=0):
        samples = np.arange(20, dtype=float).reshape(2, 10)
        marker = core.StimulusEvent(image_id=0, onset_sample=onset,
                                    run_index=0, session_index=0)
        return core.EegRecord(samples=samples, rate=128.0,
                              channels=core.ChannelSet(("A", "B")),
                              markers=(marker,))

    def test_contents_and_copy_semantics(self):
        rec = self._record(onset=3)
        win = features.segment(rec, features.EpochWindow(length=4))[0]
        assert win.shape == (2, 4)
        np.testing.assert_array_equal(win[0], [3, 4, 5, 6])
        win[0, 0] = -1.0  # a writable copy, not a view
        assert rec.samples[0, 3] == 3.0

    def test_bounds_checks(self):
        with pytest.raises(IndexError):
            features.segment(self._record(onset=7),
                             features.EpochWindow(length=4))
        with pytest.raises(IndexError):
            features.segment(self._record(onset=0),
                             features.EpochWindow(start_offset=-1, length=4))
        with pytest.raises(ValueError):
            features.EpochWindow(length=-1)

    def test_full_span_allowed(self):
        rec = self._record(onset=0)
        win = features.segment(rec, features.EpochWindow(length=10))[0]
        np.testing.assert_array_equal(win, rec.samples)


def test_constant_groups_are_disjoint():
    frontal = set(core.FRONTAL_LABELS)
    posterior = set(core.POSTERIOR_LABELS)
    temporal = set(core.TEMPORAL_LABELS)
    assert not frontal & posterior
    assert not frontal & temporal
    assert not posterior & temporal
    assert frontal | posterior | temporal <= set(core.DEFAULT_CHANNEL_LABELS)


def test_n_images_is_twelve():
    assert core.N_IMAGES == 12
    assert math.isclose(core.DEFAULT_RATE, 128.0)
