"""Core data-structure behaviour: channels, events, records, sample math."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p300loop import acquisition, core, features, scheduler, subject


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

    @pytest.mark.parametrize("labels", [("A", ""), ("A", 1), ("A", None)])
    def test_rejects_labels_that_are_not_non_empty_strings(self, labels):
        # an empty label once made a record that no model file could hold
        with pytest.raises(ValueError, match="non-empty strings"):
            core.ChannelSet(labels)

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


def _old_event_check(onset, image, run, session):
    """The checks `StimulusEvent.__post_init__` made of each event."""
    if not 0 <= image < core.N_IMAGES:
        raise ValueError("image_id outside [0, 12)")
    if onset < 0:
        raise ValueError("onset_sample must be non-negative")
    if run < 0 or session < 0:
        raise ValueError("run/session indices must be non-negative")


def _old_record_check(rows, n_samples):
    """The onset loop of `EegRecord.__post_init__`, after each event's own."""
    last = -1
    for onset, image, run, session, _ in rows:
        _old_event_check(onset, image, run, session)
        if onset <= last:
            raise ValueError("marker onset samples must be strictly increasing")
        if onset >= n_samples:
            raise ValueError("marker onset beyond end of record")
        last = onset


def _old_schedule_check(rows):
    """The once-per-run loop of `ScenarioSchedule.__post_init__`, after each
    event's own checks."""
    seen = {}
    last = -1
    for onset, image, run, session, _ in rows:
        _old_event_check(onset, image, run, session)
        if onset <= last:
            raise ValueError("event onsets must be strictly increasing")
        last = onset
        images = seen.setdefault((session, run), set())
        if image in images:
            raise ValueError("image flashes twice in a run")
        images.add(image)


def _accepts(check, *args):
    try:
        check(*args)
    except ValueError:
        return False
    return True


_BREAKS = ("none", "duplicate", "decreasing onset", "image out of range",
           "negative field", "onset past the end", "image twice in a run")


@st.composite
def _flash_lists(draw):
    """(rows, n_samples): increasing flashes, then at most one break."""
    n = draw(st.integers(0, 14))
    onsets = np.cumsum(draw(st.lists(st.integers(1, 6), min_size=n,
                                     max_size=n))) - 1
    rows = [[int(onset), draw(st.integers(0, 11)), draw(st.integers(0, 2)),
             draw(st.integers(0, 1)), draw(st.sampled_from((None, False, True)))]
            for onset in onsets]
    n_samples = int(onsets[-1]) + draw(st.integers(1, 3)) if n else 1
    where = draw(st.integers(0, max(n - 1, 0)))
    broken = draw(st.sampled_from(_BREAKS)) if n else "none"
    if broken == "duplicate":
        rows.insert(where, list(rows[where]))
    elif broken == "decreasing onset" and n > 1:
        rows[where], rows[-1] = rows[-1], rows[where]
    elif broken == "image out of range":
        rows[where][1] = draw(st.sampled_from((-1, 12, 99)))
    elif broken == "negative field":
        rows[where][draw(st.sampled_from((0, 2, 3)))] = -1
    elif broken == "onset past the end":
        n_samples = rows[-1][0]
    elif broken == "image twice in a run" and n > 1:
        rows[-1][1:4] = rows[0][1:4]
    return [tuple(row) for row in rows], n_samples


def _markers_of(rows):
    onset, image, run, session, flag = zip(*rows) if rows else ((),) * 5
    return core.Markers(onset, image, run, session,
                        target=[-1 if f is None else int(f) for f in flag])


class TestMarkersChecks:
    """`Markers` with the one check each container adds accepts and rejects
    exactly what the three per-event loops it replaced did."""

    @settings(max_examples=300, deadline=None)
    @given(_flash_lists())
    def test_same_verdicts_as_the_per_event_loops(self, drawn):
        rows, n_samples = drawn

        def record():
            core.EegRecord(core.ChannelSet(("A",)), 128.0,
                           np.zeros((1, n_samples)), _markers_of(rows))

        def schedule():
            scheduler.ScenarioSchedule(_markers_of(rows))

        assert _accepts(record) == _accepts(_old_record_check, rows, n_samples)
        assert _accepts(schedule) == _accepts(_old_schedule_check, rows)

    @pytest.mark.parametrize("column, value", [
        ("target", 2), ("target", -2), ("onset", -1), ("image", 12),
        ("run", -1), ("session", -1)])
    def test_each_field_is_checked(self, column, value):
        fields = dict(onset=[0, 5], image=[1, 2], run=[0, 0], session=[0, 0],
                      target=[0, 1])
        core.Markers(**fields)
        fields[column] = [value, *fields[column][1:]]
        with pytest.raises(ValueError):
            core.Markers(**fields)

    def test_columns_are_read_only_and_equal_length(self):
        markers = core.Markers([3], [4], [0], [1])
        assert markers.target.tolist() == [-1]
        with pytest.raises(ValueError):
            markers.onset[0] = 0
        with pytest.raises(ValueError):
            core.Markers([3, 4], [4], [0], [1])


class TestMarkerRows:
    """The row view of `EegRecord.markers` that callers outside the package
    rely on: sequence protocol, `dataclasses.replace`, and equality."""

    @pytest.fixture(scope="class")
    def saved_and_loaded(self, tmp_path_factory):
        timing = scheduler.TimingConfig(sessions_per_scenario=1)
        schedule = scheduler.build_scenario_schedule(
            timing, rng=np.random.default_rng(3))
        record = subject.simulate_subject(schedule,
                                          subject.SubjectParams(seed=3))
        path = tmp_path_factory.mktemp("rows") / "record.eegs"
        acquisition.save_record(record, path)
        return record, acquisition.load_record(path)

    def test_len_and_iteration(self, saved_and_loaded):
        markers = saved_and_loaded[0].markers
        rows = list(markers)
        assert len(markers) == len(rows) == 72
        assert all(isinstance(ev, core.StimulusEvent) for ev in rows)
        assert [ev.onset_sample for ev in rows] == markers.onset.tolist()
        assert rows[-1] == markers[-1] == markers[71]
        assert tuple(markers[2:5]) == tuple(rows[2:5])

    def test_replace_moves_a_row(self, saved_and_loaded):
        markers = saved_and_loaded[1].markers
        late = dataclasses.replace(markers[4],
                                   onset_sample=markers[4].onset_sample + 1)
        assert late != markers[4]
        moved = list(markers)
        moved[4] = late
        assert tuple(moved) != tuple(markers)
        with pytest.raises(ValueError):
            dataclasses.replace(markers[4], image_id=12)

    def test_saved_and_loaded_rows_are_equal(self, saved_and_loaded):
        saved, loaded = saved_and_loaded
        assert not np.isnan(saved.markers.onset_s).any()
        assert np.isnan(loaded.markers.onset_s).all()  # not on the wire
        assert tuple(loaded.markers) == tuple(saved.markers)
        assert loaded.markers == saved.markers

    def test_unknown_target_reads_back_as_none(self, saved_and_loaded):
        markers = saved_and_loaded[1].markers
        blind = core.Markers(markers.onset, markers.image, markers.run,
                             markers.session)
        assert {ev.is_target for ev in blind} == {None}
        assert {ev.is_target for ev in markers} == {False, True}


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
