"""Closed-loop machinery: voting, online selection, retraining, evaluation."""
import cProfile
import dataclasses
import hashlib
import json
import os
import pstats
import queue
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from conftest import attended_images
from p300loop import (acquisition, core, dsp, features, ica, lda, scheduler,
                      session, subject)


def _code_key(code):
    """A function's key in `pstats.Stats.stats`."""
    return code.co_filename, code.co_firstlineno, code.co_name


def _noiseless_params(**overrides):
    defaults = dict(background_rms=0.0, alpha_amp=0.0, blink_rate=0.0,
                    nan_fraction=0.0, seed=0)
    defaults.update(overrides)
    return subject.SubjectParams(**defaults)


@pytest.fixture(scope="module")
def noiseless_training():
    """(model, record, schedule) for a noiseless subject, default timing."""
    return session.run_offline_training(_noiseless_params(),
                                        scheduler.TimingConfig(),
                                        rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def clean_report():
    """Full two-phase evaluation without any injected timing mismatch."""
    return session.run_full_evaluation(subject.SubjectParams(), seed=0,
                                       mismatch=0.0)


class TestObjectCatalog:
    def test_twelve_entries_cover_all_ids(self):
        # the table is indexed by image id: one distinct label per id
        assert len(session.OBJECTS) == 12
        assert len({label for label, _ in session.OBJECTS}) == 12

    def test_car_command(self):
        catalog = session.ObjectCatalog()
        assert catalog.label(3) == "car"
        assert catalog.message(3) == "Get my chauffeur prepare my car"

    def test_emergency_command(self):
        catalog = session.ObjectCatalog()
        assert catalog.label(11) == "heart"
        assert "doctor" in catalog.message(11)

    def test_unknown_id_rejected(self):
        for image_id in (12, -1):  # no negative index into the table
            with pytest.raises(KeyError):
                session.ObjectCatalog().message(image_id)
            with pytest.raises(KeyError):
                session.ObjectCatalog().label(image_id)


class TestTrialWinner:
    def test_argmax(self):
        scores = np.zeros(12)
        scores[7] = 2.0
        assert session.trial_winner(scores) == 7

    def test_tie_goes_to_lowest_id(self):
        scores = np.zeros(12)
        scores[[4, 9]] = 3.0
        assert session.trial_winner(scores) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            session.trial_winner(np.zeros(11))
        bad = np.zeros(12)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            session.trial_winner(bad)


def _brute_force_vote(winners, scores):
    """Independent reference: max votes, then summed score, then lowest id."""
    counts = {i: winners.count(i) for i in set(winners)}
    top = max(counts.values())
    tied = [i for i, c in counts.items() if c == top]
    sums = scores.sum(axis=0)
    best_sum = max(sums[i] for i in tied)
    return min(i for i in tied if sums[i] == best_sum)


class TestMajorityVote:
    def test_clear_majority(self):
        scores = np.zeros((3, 12))
        assert session.majority_vote((3, 3, 7), scores) == 3

    def test_three_way_split_uses_summed_scores(self):
        scores = np.zeros((3, 12))
        scores[0, 1] = 1.0
        scores[1, 2] = 1.2
        scores[2, 4] = 0.9
        scores[:, 2] += 0.3  # image 2 collects the largest total
        assert session.majority_vote((1, 2, 4), scores) == 2

    def test_exact_score_tie_takes_lowest_id(self):
        scores = np.zeros((2, 12))
        scores[0, 5] = 1.0
        scores[1, 8] = 1.0
        assert session.majority_vote((5, 8), scores) == 5

    def test_empty_winner_list_rejected(self):
        with pytest.raises(ValueError):
            session.majority_vote((), np.zeros((0, 12)))

    def test_matches_brute_force_on_sampled_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            winners = tuple(int(i) for i in rng.integers(0, 12, size=3))
            scores = np.zeros((3, 12))
            for t, w in enumerate(winners):
                scores[t, w] = float(rng.normal())
            got = session.majority_vote(winners, scores)
            assert got == _brute_force_vote(list(winners), scores)


def reference_online_vote(provenance, scores, n_trials):
    """The per-image fill and vote that `run_online_selection` used to do."""
    per_image = np.full((n_trials, 12), np.nan)
    for (run, _sess, image_id), value in zip(provenance, scores):
        per_image[run, image_id] = value
    winners = tuple(session.trial_winner(per_image[t]) for t in range(n_trials))
    return per_image, winners, session.majority_vote(winners, per_image)


def reference_stream_votes(provenance, scores, trials):
    """The per-run grouping and votes that the stream consumer used to do:
    (selected images, trailing runs short of a vote)."""
    per_run = {}
    for (run, sess, img), value in zip(provenance, scores):
        per_run.setdefault((sess, run), {})[img] = value
    n_images = len(next(iter(per_run.values())))
    group, chosen = [], []
    for key in sorted(per_run):
        by_image = per_run[key]
        if sorted(by_image) != list(range(n_images)):
            raise ValueError(f"run {key} is not one flash per image")
        group.append([by_image[img] for img in range(n_images)])
        if len(group) == trials:
            table = np.asarray(group)
            winners = [session.trial_winner(r) for r in table]
            chosen.append(session.majority_vote(winners, table))
            group = []
    return chosen, len(group)


def _shuffled_flashes(n_sessions, n_runs, seed, ties):
    """(provenance, scores) of every image flashed once per run, shuffled.

    With `ties`, scores come from four levels, so trial argmaxes and vote
    score sums tie often."""
    rng = np.random.default_rng(seed)
    provenance = [(run, sess, img) for sess in range(n_sessions)
                  for run in range(n_runs) for img in range(12)]
    order = rng.permutation(len(provenance))
    provenance = [provenance[i] for i in order]
    if ties:
        scores = rng.integers(0, 4, size=len(provenance)) / 4
    else:
        scores = rng.normal(size=len(provenance))
    return provenance, scores


class TestTrialScoresAndVote:
    """`trial_scores` and `vote` give what the two loops they replaced gave."""

    @settings(max_examples=80, deadline=None)
    @given(n_trials=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2**16), ties=st.booleans())
    def test_matches_online_fill(self, n_trials, seed, ties):
        provenance, scores = _shuffled_flashes(1, n_trials, seed, ties)
        table = session.trial_scores(provenance, scores)
        want_table, want_winners, want_selected = reference_online_vote(
            provenance, scores, n_trials)
        assert table.tobytes() == want_table.tobytes()
        assert session.vote(table) == (want_winners, want_selected)

    @settings(max_examples=80, deadline=None)
    @given(n_sessions=st.integers(min_value=1, max_value=3),
           n_runs=st.integers(min_value=1, max_value=7),
           trials=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2**16), ties=st.booleans())
    def test_matches_stream_grouping(self, n_sessions, n_runs, trials, seed,
                                     ties):
        provenance, scores = _shuffled_flashes(n_sessions, n_runs, seed, ties)
        table = session.trial_scores(provenance, scores)
        assert table.shape == (n_sessions * n_runs, 12)
        selections, n_left = session.votes(table, trials)
        chosen = [selected for _, selected in selections]
        assert (chosen, n_left) == reference_stream_votes(provenance, scores,
                                                          trials)

    @settings(max_examples=40, deadline=None)
    @given(n_sessions=st.integers(min_value=1, max_value=3),
           n_runs=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_run_missing_an_image_raises(self, n_sessions, n_runs, seed):
        provenance, scores = _shuffled_flashes(n_sessions, n_runs, seed, False)
        drop = int(np.random.default_rng(seed).integers(len(provenance)))
        del provenance[drop]
        scores = np.delete(scores, drop)
        with pytest.raises(ValueError, match="one flash per image"):
            session.trial_scores(provenance, scores)
        with pytest.raises(ValueError):
            reference_stream_votes(provenance, scores, 1)

    def test_run_flashing_an_image_twice_raises(self):
        provenance, scores = _shuffled_flashes(1, 2, 0, False)
        provenance.append((1, 0, 4))  # run 1 of session 0 shows image 4 again
        with pytest.raises(ValueError, match=r"run \(0, 1\)"):
            session.trial_scores(provenance, np.append(scores, 9.0))


def _assert_same_fit(model, weights, bias):
    """Weights within 1e-11 of the largest one, bias within 1e-12."""
    np.testing.assert_allclose(model.weights, weights, rtol=0,
                               atol=1e-11 * np.abs(weights).max())
    assert model.bias == pytest.approx(bias, rel=0, abs=1e-12)


class TestTrainOnDataset:
    def test_bundle_matches_manual_pipeline(self, training_dataset):
        pipeline = session.PipelineConfig()
        model = session.train_on_dataset(training_dataset, pipeline)
        assert model.weights.shape == (845,)
        assert model.channels == tuple(training_dataset.channels)
        assert model.window == training_dataset.window
        assert model.pipeline == pipeline

        scaling = dsp.minmax_fit(training_dataset.vectors)
        scaled = dsp.minmax_apply(scaling, training_dataset.vectors)
        direct = lda.train(scaled, training_dataset.labels,
                           shrinkage=pipeline.shrinkage)
        # the fit scales the statistics, not the rows: equal up to rounding
        _assert_same_fit(model, direct.w, direct.b)

    def test_score_vectors_applies_training_scaling(self, training_dataset):
        pipeline = session.PipelineConfig()
        model = session.train_on_dataset(training_dataset, pipeline)
        scores = session.score_vectors(model, training_dataset.vectors,
                                       training_dataset.channels)
        want = (dsp.minmax_apply(model.scaling, training_dataset.vectors)
                @ model.weights + model.bias)
        np.testing.assert_array_equal(scores, want)


    def test_served_rows_are_the_fitted_rows(self, training_dataset):
        # the discriminant is solved for (x - mins) * factors: serving the
        # training rows must give exactly those rows
        model = session.train_on_dataset(training_dataset,
                                         session.PipelineConfig())
        vectors, scaling = training_dataset.vectors, model.scaling
        fitted = (vectors - scaling.mins) * scaling.factors
        served = dsp.minmax_apply(scaling, vectors)
        assert training_dataset.n_epochs == 864
        assert int((served != fitted).any(axis=1).sum()) == 0

    def test_span_without_finite_reciprocal_gets_weight_zero(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(40, 6))
        vectors[:, 2] = np.tile([0.0, 1e-310], 20)  # span below 1/finfo.max
        window = features.EpochWindow(length=3)
        dataset = features.LabeledDataset(
            vectors, np.arange(40) % 4 == 0, np.zeros((40, 3)),
            core.ChannelSet(("Cz", "Pz")), window)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = session.train_on_dataset(
                dataset, session.PipelineConfig(window=window))
            served = dsp.minmax_apply(model.scaling, vectors)
        assert model.scaling.factors[2] == 0.0
        assert model.weights[2] == 0.0
        assert not served[:, 2].any()
        assert np.isfinite(model.weights).all()


class TestOfflineTraining:
    def test_returns_model_record_schedule(self, noiseless_training):
        model, record, schedule = noiseless_training
        assert schedule.n_events == 864
        assert record.markers == schedule.events
        # nothing is pruned from a clean subject: 14 channels x 65 samples
        assert len(model.channels) == 14
        assert model.weights.shape == (14 * 65,)

    def test_noiseless_training_ranks_target_first_in_every_run(
            self, noiseless_training):
        model, record, schedule = noiseless_training
        dataset = features.dataset_from_scenario(record)
        scores = session.score_vectors(model, dataset.vectors,
                                       dataset.channels)
        correct = 0
        by_run = {}
        for (run, sess, img), value in zip(dataset.provenance, scores):
            by_run.setdefault((sess, run), []).append((img, value))
        for (sess, _run), pairs in by_run.items():
            best = max(pairs, key=lambda p: p[1])[0]
            correct += best == attended_images(schedule.events)[sess]
        assert correct == 72


class TestOnlineSelection:
    def test_noiseless_selection_hits_every_target(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        for target in range(12):
            result, logged = session.run_online_selection(
                model, _noiseless_params(seed=target), catalog, target,
                rng=np.random.default_rng(target))
            assert result.selected == target
            assert result.trial_winners == (target,) * 3
            assert result.message == catalog.message(target)
            assert result.latency_s == 11.2
            assert result.per_image_scores.shape == (3, 12)
            assert np.isfinite(result.per_image_scores).all()
            # the log is the labelled epochs that were scored
            assert (logged.n_epochs, logged.n_targets) == (36, 3)
            assert tuple(logged.channels) == model.channels

    def test_logged_record_supports_retraining(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        logs = []
        for target in (0, 5):
            _, logged = session.run_online_selection(
                model, _noiseless_params(seed=100 + target), catalog, target,
                rng=np.random.default_rng(200 + target))
            logs.append(logged)
        retrained = session.retrain_from_online(model, logs)
        assert retrained.weights.shape == model.weights.shape

    def test_channel_mismatch_detected(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        # the corrupted channel gets pruned online, the model has all 14
        with pytest.raises(ValueError, match="channels"):
            session.run_online_selection(
                model, _noiseless_params(nan_fraction=0.2), catalog, 0,
                rng=np.random.default_rng(0))

    def test_replayed_sequences_are_used(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        seqs = [list(range(12)), list(range(11, -1, -1)), list(range(12))]
        _, logged = session.run_online_selection(
            model, _noiseless_params(), catalog, 4,
            rng=np.random.default_rng(0), sequences=seqs)
        got = {}
        for run, _sess, image_id in logged.provenance.tolist():
            got.setdefault(run, []).append(image_id)
        assert [got[t] for t in range(3)] == seqs

    def test_replayed_sequences_leave_rng_untouched(self, noiseless_training):
        # with the flashing orders given, nothing of the selection draws
        # from rng: neither the schedule nor the stream
        model, _, _ = noiseless_training
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        session.run_online_selection(
            model, _noiseless_params(), session.ObjectCatalog(), 4, rng=rng,
            sequences=[list(range(12))] * 3)
        assert rng.bit_generator.state == before

    def test_decodes_in_recv_bytes_cuts(self, noiseless_training, monkeypatch):
        # the wire bytes reach the decoder cut every RECV_BYTES, and the
        # decoded record is the one the threaded random-slice stream decodes
        model, _, _ = noiseless_training
        records, sizes, decoded = [], [], []
        encode, decode = acquisition.encode_record, acquisition.decode_record

        def encode_spy(record, chunk):
            records.append(record)
            return encode(record, chunk)

        def decode_spy(chunks):
            chunks = list(chunks)
            sizes.extend(len(c) for c in chunks)
            decoded.append(decode(chunks))
            return decoded[-1]

        monkeypatch.setattr(acquisition, "encode_record", encode_spy)
        monkeypatch.setattr(acquisition, "decode_record", decode_spy)
        session.run_online_selection(
            model, _noiseless_params(), session.ObjectCatalog(), 4,
            rng=np.random.default_rng(0))
        [record], [logged] = records, decoded
        n_bytes = len(encode(record, acquisition.DEFAULT_CHUNK))
        assert sizes == [acquisition.RECV_BYTES, n_bytes - acquisition.RECV_BYTES]
        want = reference_threaded_roundtrip(record, acquisition.DEFAULT_CHUNK,
                                            np.random.default_rng(4))
        assert logged.samples.tobytes() == want.samples.tobytes()
        assert logged.markers == want.markers
        assert logged.channels == want.channels and logged.rate == want.rate

    def test_builds_no_row_objects(self, noiseless_training):
        # the flash table stays columnar from schedule to vote: no
        # StimulusEvent row is read or checked, and nothing is replaced
        model, _, _ = noiseless_training
        watched = {_code_key(f.__code__): name for f, name in (
            (core.StimulusEvent.__post_init__, "row check"),
            (core.Markers.__getitem__, "row read"),
            (dataclasses.replace, "dataclasses.replace"))}
        profiler = cProfile.Profile()
        profiler.runcall(session.run_online_selection, model,
                         _noiseless_params(), session.ObjectCatalog(), 3,
                         rng=np.random.default_rng(0))
        stats = pstats.Stats(profiler).stats
        assert {name: stats[key][1] for key, name in watched.items()
                if key in stats} == {}


class TestScoreTable:
    def test_unknown_target_flags_score_as_labelled(self, noiseless_training):
        model, _, _ = noiseless_training
        blind, attended = (scheduler.build_online_trial_schedule(
            scheduler.TimingConfig(), 3, np.random.default_rng(8),
            target=target) for target in (None, 4))
        labelled = subject.simulate_subject(
            attended, subject.SubjectParams(seed=7, nan_fraction=0.0))
        unlabelled = labelled.with_markers(blind.events)
        assert all(ev.is_target is None for ev in unlabelled.markers)
        want = session.score_table(model, labelled)
        got = session.score_table(model, unlabelled)
        assert want.shape == (3, 12)
        assert got.tobytes() == want.tobytes()

    def test_channel_dropped_in_training_is_not_read(self, training_dataset):
        # the model dropped FC5; a record whose FC5 is clean is served on
        # the model's channels, exactly as one whose FC5 is all NaN
        model = session.train_on_dataset(training_dataset,
                                         session.PipelineConfig())
        assert "FC5" not in model.channels and len(model.channels) == 13
        schedule = scheduler.build_online_trial_schedule(
            scheduler.TimingConfig(), 3, np.random.default_rng(5), target=4)
        clean = subject.simulate_subject(
            schedule, subject.SubjectParams(seed=5, nan_fraction=0.0))
        samples = clean.samples.copy()
        samples[clean.channels.index("FC5")] = np.nan
        want = session.score_table(model, clean.with_samples(samples))
        got = session.score_table(model, clean)
        assert got.shape == (3, 12)
        assert got.tobytes() == want.tobytes()


    def test_record_at_another_rate_is_refused_before_pruning(
            self, noiseless_training, monkeypatch):
        # the band-pass was designed for the record's claimed rate while the
        # window counts samples, so a 256 Hz label moved a winner silently
        model, _, _ = noiseless_training
        schedule = scheduler.build_online_trial_schedule(
            scheduler.TimingConfig(), 3, np.random.default_rng(5), target=4)
        record = subject.simulate_subject(
            schedule, subject.SubjectParams(seed=5, nan_fraction=0.0))
        assert session.score_table(model, record).shape == (3, 12)
        relabelled = core.EegRecord(record.channels, 256.0, record.samples,
                                    record.markers)
        monkeypatch.setattr(features, "prune_channels", lambda *args, **kw:
                            pytest.fail("the record was pruned"))
        with pytest.raises(ValueError, match="256 Hz.*128 Hz"):
            session.score_table(model, relabelled)


def reference_threaded_roundtrip(record, chunk, rng):
    """The producer thread and queue that the inline round trip replaced."""
    chunk_queue = queue.Queue(maxsize=64)

    def produce():
        payload = b"".join(acquisition.encode_frame(f)
                           for f in acquisition.stream_record(record, chunk))
        pos = 0
        while pos < len(payload):
            size = int(rng.integers(1, 2048))
            chunk_queue.put(payload[pos:pos + size])
            pos += size
        chunk_queue.put(None)

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    record = acquisition.decode_record(iter(chunk_queue.get, None))
    producer.join()
    return record


def _served(record, chunk=acquisition.DEFAULT_CHUNK):
    """The record as an online selection logs it: its wire bytes decoded
    from slices cut every `RECV_BYTES`."""
    payload = acquisition.encode_record(record, chunk)
    size = acquisition.RECV_BYTES
    return acquisition.decode_record(
        payload[i:i + size] for i in range(0, len(payload), size))


def _online_record():
    """A default 3-trial online record, the subject attending image 2."""
    schedule = scheduler.build_online_trial_schedule(
        scheduler.TimingConfig(), 3, np.random.default_rng(1), target=2)
    return subject.simulate_subject(schedule, subject.SubjectParams(seed=3))


class TestInlineStreamRoundTrip:
    @pytest.mark.parametrize("chunk", [acquisition.DEFAULT_CHUNK, 7])
    def test_same_record_as_threaded(self, chunk):
        record = _online_record()
        got = _served(record, chunk)
        want = reference_threaded_roundtrip(record, chunk,
                                            np.random.default_rng(4))
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.markers == want.markers
        assert got.channels == want.channels and got.rate == want.rate

    def test_default_payload_is_cut_inside_a_frame(self):
        # the one cut of a default online payload falls inside a samples
        # frame, so every selection decodes through the reader's carry-over
        record = _online_record()
        payload = acquisition.encode_record(record, acquisition.DEFAULT_CHUNK)
        cut = acquisition.RECV_BYTES
        assert cut < len(payload) < 2 * cut
        pos = 0
        while True:
            frame, used = acquisition.decode_frame(payload, pos)
            if pos + used > cut:
                break
            pos += used
        assert pos < cut and isinstance(frame, acquisition.SamplesFrame)
        whole = acquisition.decode_record([payload])
        got = _served(record)
        assert got.samples.tobytes() == whole.samples.tobytes()
        assert got.markers == whole.markers
        assert got.channels == whole.channels and got.rate == whole.rate


def _replayed_selection_record(seed, index):
    """The logged record of online selection `index` (0-239) of
    `run_full_evaluation(SubjectParams(), seed=seed)`, rebuilt from the
    evaluation's seeds up to the point where its dataset is built."""
    timing = scheduler.TimingConfig()
    train_seq, phase1_seq, phase2_seq = np.random.SeedSequence(seed).spawn(3)
    schedule_seq, _ = train_seq.spawn(2)
    phase_seq, i = (phase1_seq, index) if index < 120 else (phase2_seq,
                                                             index - 120)
    subject_seed, stream_seed = phase_seq.spawn(120)[i].spawn(2)
    target = i % 12
    sequences = None
    if index < 120:  # phase 1 replays the training scenario's orders
        training = scheduler.build_scenario_schedule(
            timing, None, np.random.default_rng(schedule_seq))
        sequences = session._phase_sequences(training, target, i // 12, 3)
    rng = np.random.default_rng(stream_seed)
    params = replace(subject.SubjectParams(),
                     constant_offset=session.DEFAULT_MISMATCH_S,
                     seed=subject_seed)
    schedule = scheduler.build_online_trial_schedule(
        timing, 3, rng, sequences=sequences, target=target)
    record = subject.simulate_subject(schedule, params)
    return _served(record)


class TestOnlineIcaOnDegenerateIterates:
    """Online selections whose ICA iterate once turned degenerate
    (evaluation seed 1000, selection 64) or not orthonormal (seed 3000,
    selection 235) and stopped the whole evaluation."""

    @pytest.mark.parametrize("seed,index", [(1000, 64), (3000, 235)])
    def test_dataset_is_built_finite(self, seed, index):
        logged = _replayed_selection_record(seed, index)
        dataset = features.dataset_from_scenario(
            logged, pipeline=features.PipelineConfig(use_ica=True))
        assert dataset.n_epochs == 36
        assert np.isfinite(dataset.vectors).all()


@pytest.mark.parametrize("call", [
    lambda: scheduler.build_scenario_schedule(scheduler.TimingConfig()),
    lambda: scheduler.build_online_trial_schedule(scheduler.TimingConfig()),
    lambda: session.run_offline_training(subject.SubjectParams(),
                                         scheduler.TimingConfig()),
    lambda: subject.inject_p300(
        subject.generate_background(20.0, core.ChannelSet(),
                                    subject.SubjectParams(),
                                    np.random.default_rng(0)).with_markers(
            scheduler.build_scenario_schedule(
                scheduler.TimingConfig(sessions_per_scenario=1,
                                       runs_per_session=1),
                rng=np.random.default_rng(0)).events),
        subject.SubjectParams()),
], ids=["scenario_schedule", "online_trial_schedule", "offline_training",
        "inject_p300"])
def test_rng_is_required(call):
    with pytest.raises(TypeError):
        call()


@pytest.fixture(scope="module")
def seed0_phase1_logs():
    """(phase-1 model, its 120 logs) that the seed-0 evaluation retrains."""
    class Retraining(Exception):
        pass

    def stop(model, logs):
        raise Retraining(model, list(logs))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session, "retrain_from_online", stop)
        with pytest.raises(Retraining) as caught:
            session.run_full_evaluation(subject.SubjectParams(), seed=0)
    model, logs = caught.value.args
    assert len(logs) == 120
    return model, logs


class TestRetrainFromOnline:
    def test_matches_training_on_the_stacked_logs(self, seed0_phase1_logs):
        model, logs = seed0_phase1_logs
        pipeline = features.PipelineConfig()
        assert model.pipeline == pipeline
        stacked = features.LabeledDataset(
            vectors=np.vstack([log.vectors for log in logs]),
            labels=np.concatenate([log.labels for log in logs]),
            provenance=[pv for log in logs for pv in log.provenance],
            channels=logs[0].channels, window=pipeline.window)
        assert stacked.n_epochs > 4 * session._RETRAIN_BLOCK  # 5 merges
        want = session.train_on_dataset(stacked, pipeline)
        got = session.retrain_from_online(model, logs)
        assert got.scaling.mins.tobytes() == want.scaling.mins.tobytes()
        assert got.scaling.maxes.tobytes() == want.scaling.maxes.tobytes()
        _assert_same_fit(got, want.weights, want.bias)
        assert (got.channels, got.pipeline) == (want.channels, want.pipeline)
        again = session.retrain_from_online(model, logs)
        assert again.weights.tobytes() == got.weights.tobytes()
        assert again.bias == got.bias

    def test_peak_memory_is_bounded(self, seed0_phase1_logs):
        # stacking the 4,320 x 845 epochs and scaling a copy of them peaked
        # at 176 MB; the streamed statistics need a few blocks and d x d
        model, logs = seed0_phase1_logs
        tracemalloc.start()
        try:
            session.retrain_from_online(model, logs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 60e6

    def test_empty_log_list_rejected(self, noiseless_training):
        model, _, _ = noiseless_training
        with pytest.raises(ValueError):
            session.retrain_from_online(model, [])

    def test_generator_fits_the_model_of_the_list(self, seed0_phase1_logs):
        model, logs = seed0_phase1_logs
        want = session.retrain_from_online(model, logs)
        got = session.retrain_from_online(model, (log for log in logs))
        for got_array, want_array in (
                (got.weights, want.weights),
                (got.scaling.mins, want.scaling.mins),
                (got.scaling.maxes, want.scaling.maxes)):
            assert got_array.tobytes() == want_array.tobytes()
        assert got.bias == want.bias
        assert got.channels == want.channels

    def test_empty_generator_rejected(self, noiseless_training):
        model, _, _ = noiseless_training
        with pytest.raises(ValueError, match="two examples"):
            session.retrain_from_online(model, (log for log in []))

    def test_needs_two_examples_per_class(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        _, logged = session.run_online_selection(
            model, _noiseless_params(), catalog, 2, n_trials=1,
            rng=np.random.default_rng(1))
        # a single run holds one target flash: not enough to refit
        with pytest.raises(ValueError):
            session.retrain_from_online(model, [logged])

    def test_channel_disagreement_rejected(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        _, clean = session.run_online_selection(
            model, _noiseless_params(), catalog, 1,
            rng=np.random.default_rng(2))
        t = scheduler.TimingConfig()
        attended = scheduler.build_online_trial_schedule(
            t, n_trials=3, rng=np.random.default_rng(3), target=1)
        dirty = features.dataset_from_scenario(subject.simulate_subject(
            attended, _noiseless_params(nan_fraction=0.2)))
        # FC5 is pruned from the dirty log; the model has all 14 channels
        assert len(dirty.channels) == 13
        with pytest.raises(ValueError, match="channels"):
            session.retrain_from_online(model, [clean, dirty])


class TestEvaluationKeepsNoLogs:
    def test_at_most_two_earlier_records_alive_at_any_selection(
            self, monkeypatch):
        # phase 1 feeds the retraining as it runs: each decoded record, each
        # log of scored epochs, and the offline training record die long
        # before the evaluation ends
        records, logs, alive = [], [], []
        decode = acquisition.decode_record

        def train(*args, train=session.run_offline_training, **kwargs):
            model, record, schedule = train(*args, **kwargs)
            records.append(weakref.ref(record))
            return model, record, schedule

        def decode_spy(chunks):
            record = decode(chunks)
            records.append(weakref.ref(record))
            return record

        def select(*args, select=session.run_online_selection, **kwargs):
            alive.append([sum(ref() is not None for ref in refs)
                          for refs in (records, logs)])
            result, logged = select(*args, **kwargs)
            logs.append(weakref.ref(logged))
            return result, logged

        monkeypatch.setattr(session, "run_offline_training", train)
        monkeypatch.setattr(acquisition, "decode_record", decode_spy)
        monkeypatch.setattr(session, "run_online_selection", select)
        report = session.run_full_evaluation(subject.SubjectParams(), seed=0)
        assert (report["phase1"]["correct"], report["phase2"]["correct"]) \
            == (42, 118)
        assert len(alive) == len(records) - 1 == len(logs) == 240
        assert max(max(counts) for counts in alive) <= 2


class TestAuc:
    def test_hand_case_with_a_tie(self):
        scores = np.array([0.0, 1.0, 1.0, 2.0])
        labels = np.array([False, False, True, True])
        # pairs: (1,0)=1, (1,1)=0.5, (2,0)=1, (2,1)=1 -> 3.5 / 4
        assert session._auc(scores, labels) == pytest.approx(0.875)

    def test_perfect_and_inverted(self):
        labels = np.array([False, False, True, True])
        assert session._auc(np.array([0.0, 0.1, 5.0, 6.0]), labels) == 1.0
        assert session._auc(np.array([5.0, 6.0, 0.0, 0.1]), labels) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            session._auc(np.zeros(3), np.array([True, True, True]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.booleans()),
                    min_size=2, max_size=40))
    def test_average_ranks_match_the_tie_loop(self, pairs):
        # scores from 7 values, so most draws have many exact ties
        scores = np.array([0.25 * value for value, _ in pairs])
        labels = np.array([label for _, label in pairs])
        labels[:2] = (True, False)
        assert session._auc(scores, labels) == _tie_loop_auc(scores, labels)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from((-1.5, 0.0, 0.1, 2.0)),
                  st.integers(-2, 2).map(float),
                  st.floats(-1e3, 1e3, allow_nan=False)),
        st.booleans()), min_size=2, max_size=60))
    def test_ranks_are_rankdata_and_auc_counts_pairs(self, pairs):
        # drawn mostly from 9 values, so most draws hold runs of exact ties
        scores = np.array([score for score, _ in pairs])
        labels = np.array([label for _, label in pairs])
        labels[:2] = (True, False)
        ranks = session._average_ranks(scores)
        assert ranks.tobytes() == rankdata(scores).tobytes()
        pos, neg = scores[labels], scores[~labels]
        wins = ((pos[:, None] > neg[None, :]).sum()
                + 0.5 * (pos[:, None] == neg[None, :]).sum())
        assert abs(session._auc(scores, labels)
                   - wins / (len(pos) * len(neg))) <= 1e-12

    def test_cross_validated_auc_on_noisy_data(self, training_dataset):
        auc = session.cross_validated_auc(training_dataset)
        assert auc >= 0.85

    def test_cross_validation_needs_sessions(self, training_dataset):
        held = [p[1] == 0 for p in training_dataset.provenance]
        one = features.LabeledDataset(
            vectors=training_dataset.vectors[held][:24],
            labels=training_dataset.labels[held][:24],
            provenance=training_dataset.provenance[:24],
            channels=training_dataset.channels, window=training_dataset.window)
        with pytest.raises(ValueError):
            session.cross_validated_auc(one)


def _tie_loop_auc(scores, labels):
    """Reference: the AUC with ties averaged by an explicit loop."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = ranks[order[i:j + 1]].mean()
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _per_fold_refit_scores(dataset, shrinkage=lda.DEFAULT_SHRINKAGE):
    """Reference: scale the rows and refit the discriminant for each fold."""
    session_of = np.array([sess for _run, sess, _img in dataset.provenance])
    scores = np.empty(dataset.n_epochs)
    for sess in sorted(set(session_of)):
        held = session_of == sess
        train_vectors = dataset.vectors[~held]
        scaling = dsp.minmax_fit(train_vectors)
        model = lda.train(dsp.minmax_apply(scaling, train_vectors),
                          dataset.labels[~held], shrinkage=shrinkage)
        scores[held] = (dsp.minmax_apply(scaling, dataset.vectors[held])
                        @ model.w + model.b)
    return scores


def _relabelled(dataset, labels, vectors=None):
    return features.LabeledDataset(
        vectors=dataset.vectors if vectors is None else vectors,
        labels=labels, provenance=dataset.provenance,
        channels=dataset.channels, window=dataset.window)


def _session_of(dataset):
    return np.array([sess for _run, sess, _img in dataset.provenance])


class TestCrossValidationFolds:
    def test_scores_match_per_fold_refit(self, training_dataset):
        got = session._cross_validated_scores(training_dataset,
                                              lda.DEFAULT_SHRINKAGE)
        want = _per_fold_refit_scores(training_dataset)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_held_out_session_without_targets(self, training_dataset):
        labels = training_dataset.labels & (_session_of(training_dataset) != 2)
        # a constant feature exercises the zero scale factor as well
        vectors = training_dataset.vectors.copy()
        vectors[:, 5] = 0.25
        dataset = _relabelled(training_dataset, labels, vectors)
        got = session._cross_validated_scores(dataset, 0.05)
        want = _per_fold_refit_scores(dataset, shrinkage=0.05)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_fold_without_a_class_raises(self, training_dataset):
        labels = training_dataset.labels & (_session_of(training_dataset) == 0)
        dataset = _relabelled(training_dataset, labels)
        with pytest.raises(ValueError):
            _per_fold_refit_scores(dataset)
        with pytest.raises(ValueError):
            session.cross_validated_auc(dataset)


@st.composite
def _fold_datasets(draw):
    """Small random datasets of 3-5 sessions, often with more features than
    training rows, and with the edge cases of the fold downdate forced in."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=3, max_size=5))
    n = sum(sizes)
    d = draw(st.integers(1, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(n, d)) + rng.normal(size=d)
    session_of = np.repeat(np.arange(len(sizes)), sizes)
    case = draw(st.sampled_from(["random", "session without targets",
                                 "single target left", "constant feature"]))
    labels = rng.random(n) < 0.4
    labels[[0, -1]] = True, False
    if case == "session without targets":
        labels &= session_of != 0
        labels[-2:] = True
    elif case == "single target left":
        # holding session 0 or 1 out leaves one target row in training
        labels[:] = False
        labels[[0, sizes[0]]] = True
    elif case == "constant feature":
        vectors[:, draw(st.integers(0, d - 1))] = 0.25
    vectors[labels] += 0.5
    provenance = [(0, int(sess), 0) for sess in session_of]
    shrinkage = draw(st.floats(1e-3, 1.0))
    return (features.LabeledDataset(vectors=vectors, labels=labels,
                                    provenance=provenance,
                                    channels=core.ChannelSet(("Cz",)),
                                    window=features.EpochWindow(length=d)),
            shrinkage)


class TestCrossValidationDowndate:
    @settings(max_examples=80, deadline=None)
    @given(_fold_datasets())
    def test_matches_per_fold_refit(self, drawn):
        dataset, shrinkage = drawn
        try:
            want = _per_fold_refit_scores(dataset, shrinkage=shrinkage)
        except ValueError:
            with pytest.raises(ValueError):
                session._cross_validated_scores(dataset, shrinkage)
            return
        got = session._cross_validated_scores(dataset, shrinkage)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_session_order_does_not_matter(self, training_dataset):
        # the folds run in another order; a fold that saw state left in the
        # reused buffer by the fold before it would change its bits
        relabel = {sess: (5 * sess + 3) % 12
                   for sess in set(_session_of(training_dataset))}
        assert sorted(relabel.values()) == list(range(12))
        provenance = tuple((run, relabel[sess], img)
                           for run, sess, img in training_dataset.provenance)
        shuffled = features.LabeledDataset(
            vectors=training_dataset.vectors, labels=training_dataset.labels,
            provenance=provenance, channels=training_dataset.channels,
            window=training_dataset.window)
        want = session._cross_validated_scores(training_dataset, 0.01)
        got = session._cross_validated_scores(shuffled, 0.01)
        assert got.tobytes() == want.tobytes()

    def test_inputs_and_whole_statistics_are_not_mutated(
            self, training_dataset, monkeypatch):
        made = []
        of = lda.ClassStatistics.of
        monkeypatch.setattr(lda.ClassStatistics, "of", classmethod(
            lambda cls, vectors, labels: made.append(of(vectors, labels))
            or made[-1]))
        # a fresh dataset: the shared fixture's statistics may be cached
        dataset = _relabelled(training_dataset, training_dataset.labels)
        vectors = dataset.vectors.copy()
        labels = dataset.labels.copy()
        session._cross_validated_scores(dataset, 0.01)
        assert dataset.vectors.tobytes() == vectors.tobytes()
        assert dataset.labels.tobytes() == labels.tobytes()
        (whole,) = made
        fresh = of(vectors, labels)
        assert whole.counts == fresh.counts
        assert whole.means.tobytes() == fresh.means.tobytes()
        assert whole.scatter.tobytes() == fresh.scatter.tobytes()


def _serial_fold_scores(dataset, shrinkage):
    """Reference: the folds of `_cross_validated_scores` one after another
    in this thread, each solving in a new buffer of just enough rows."""
    session_of = dataset.provenance[:, 1]
    held_rows = [session_of == sess for sess in np.unique(session_of)]
    vectors, d = dataset.vectors, dataset.vectors.shape[1]
    extremes = np.array([(vectors[held].min(axis=0), vectors[held].max(axis=0))
                         for held in held_rows])
    scores = np.empty(dataset.n_epochs)
    for i, held in enumerate(held_rows):
        others = np.arange(len(held_rows)) != i
        scaling = dsp.minmax_fit(extremes[others].reshape(-1, d))
        model = dataset.statistics.solve_without(
            vectors[held], dataset.labels[held], scaling.mins,
            scaling.factors, shrinkage,
            np.empty((np.count_nonzero(held) + 2 + d, d)))
        scores[held] = (dsp.minmax_apply(scaling, vectors[held])
                        @ model.w + model.b)
    return scores


class TestCrossValidationPool:
    @pytest.fixture
    def pinned(self, monkeypatch):
        """BLAS on one thread, on eight usable cores: the largest pool."""
        monkeypatch.setattr(session, "_blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        assert session._fold_workers() == 2

    def test_pool_gives_the_serial_loop_bits(self, training_dataset, pinned):
        # threads switched every microsecond: a fold that wrote another's
        # rows, or solved in a buffer in use, would move bits
        want = _serial_fold_scores(training_dataset, 0.01)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = session._cross_validated_scores(training_dataset, 0.01)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()

    def test_a_raising_fold_ends_the_cross_validation(
            self, training_dataset, pinned, monkeypatch):
        # the first fold to solve raises: its error ends the run, within
        # seconds, while the folds under way finish or are cancelled
        solve, lock, calls = (lda.ClassStatistics.solve_without,
                              threading.Lock(), [])

        def solve_or_fail(*args, **kwargs):
            with lock:
                calls.append(1)
                first = len(calls) == 1
            if first:
                raise RuntimeError("fold failed")
            return solve(*args, **kwargs)

        monkeypatch.setattr(lda.ClassStatistics, "solve_without",
                            solve_or_fail)
        errors = []

        def run():
            try:
                session._cross_validated_scores(training_dataset, 0.01)
            except Exception as error:
                errors.append(error)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the cross-validation hangs"
        assert [str(error) for error in errors] == ["fold failed"]

    @pytest.mark.parametrize("blas, cores, want", [
        (1, {0, 2, 5}, 2), (1, set(range(64)), 2), (1, {3}, 1),
        (2, {0, 2, 5}, 1), (None, {0, 2, 5}, 1),
    ])
    def test_two_workers_only_at_one_blas_thread(self, monkeypatch, blas,
                                                 cores, want):
        monkeypatch.setattr(session, "_blas_threads", lambda: blas)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores,
                            raising=False)
        assert session._fold_workers() == want

    @pytest.mark.parametrize("count, want", [(16, 2), (1, 1), (None, 1)])
    def test_cpu_count_without_an_affinity_call(self, monkeypatch, count,
                                                want):
        monkeypatch.setattr(session, "_blas_threads", lambda: 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert session._fold_workers() == want

    @pytest.mark.parametrize("pin_first", [True, False])
    def test_the_rule_asks_the_blas_not_the_environment(self, pin_first):
        # OpenBLAS reads OPENBLAS_NUM_THREADS once, as numpy loads: set only
        # later, the variable leaves it a thread per core, and the folds must
        # then keep to one worker
        pin = "os.environ['OPENBLAS_NUM_THREADS'] = '1'"
        code = "\n".join(["import os", pin if pin_first else "",
                          "import numpy", pin, "from p300loop import session",
                          "print(session._blas_threads(), "
                          "session._fold_workers())"])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(session.__file__).parents[1]), env.get("PYTHONPATH")]))
        blas, workers = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout.split()
        cores = len(os.sched_getaffinity(0))
        if pin_first:
            assert blas in ("1", "None")
            assert int(workers) == (min(cores, 2) if blas == "1" else 1)
        else:
            assert int(workers) == 1


class TestPhaseSequences:
    def test_cyclic_replay_walks_training_runs(self, noiseless_training):
        _, _, schedule = noiseless_training
        target = 4
        position = attended_images(schedule.events).index(target)
        by_run = {}
        for ev in schedule.events:
            if ev.session_index == position:
                by_run.setdefault(ev.run_index, []).append(ev.image_id)
        runs = [by_run[r] for r in sorted(by_run)]

        round0 = session._phase_sequences(schedule, target, 0, 3)
        round1 = session._phase_sequences(schedule, target, 1, 3)
        round2 = session._phase_sequences(schedule, target, 2, 3)
        assert round0 == runs[0:3]
        assert round1 == runs[3:6]
        assert round2 == runs[0:3]  # six runs wrap after two rounds


class TestFullEvaluation:
    def test_seed0_default_report_counts_are_pinned(self):
        # A change that moves these bits updates the pin and says why.
        report = session.run_full_evaluation(subject.SubjectParams(), seed=0)
        counts = {phase: (report[phase]["correct"],
                          [row["correct"] for row in report[phase]["per_object"]])
                  for phase in ("phase1", "phase2")}
        assert counts == {
            "phase1": (42, [2, 5, 2, 2, 4, 2, 6, 5, 2, 4, 3, 5]),
            "phase2": (118, [10, 10, 10, 10, 9, 10, 10, 10, 10, 10, 9, 10]),
        }
        # every other byte of the report, too, in canonical JSON
        del report["wall_clock_seconds"]
        canonical = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(canonical).hexdigest() == (
            "9ec3a6590b014777261077e9f0689c81df10908c24193ca26af1aae0c5330716")

    def test_seeds_are_spawned_one_selection_at_a_time(self, monkeypatch):
        # phase 1 allocates next to nothing before its first selection,
        # whatever reps_per_object: spawning the 1.2e8 seeds of 10**7
        # repetitions at once would ask for tens of GB
        class FirstSelection(Exception):
            pass

        started = []

        def start_phase1(model, logs):  # and go no further than its start
            tracemalloc.reset_peak()
            started.append(tracemalloc.get_traced_memory()[0])
            next(iter(logs))

        def select(*args, **kwargs):
            raise FirstSelection

        monkeypatch.setattr(session, "retrain_from_online", start_phase1)
        monkeypatch.setattr(session, "run_online_selection", select)
        tracemalloc.start()
        try:
            with pytest.raises(FirstSelection):
                session.run_full_evaluation(
                    subject.SubjectParams(), seed=0,
                    timing=scheduler.TimingConfig(runs_per_session=1),
                    reps_per_object=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - started[0] < 2**20

    def test_mismatch_past_the_epoch_window_falls_to_chance(self):
        # a mismatch only moves the simulated response: 5 s early it leaves
        # every 0-0.51 s epoch, so both phases guess, and nothing fails or
        # turns non-finite; --mismatch needs no bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = session.run_full_evaluation(
                subject.SubjectParams(), seed=0, reps_per_object=1,
                mismatch=-5.0)
        for phase in ("phase1", "phase2"):
            assert report[phase]["total"] == 12
            assert report[phase]["correct"] <= 3

    def test_needs_one_session_per_object_before_training(self,
                                                          monkeypatch):
        calls = []

        def train(*args, train=session.run_offline_training, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(session, "run_offline_training", train)
        with pytest.raises(ValueError, match="sessions_per_scenario = 12"):
            session.run_full_evaluation(
                subject.SubjectParams(), seed=0, reps_per_object=1,
                timing=scheduler.TimingConfig(sessions_per_scenario=2))
        assert calls == []

    def test_one_feature_extraction_per_recording(self, monkeypatch):
        # the offline record and each selection's decoded record run through
        # the pipeline once: retraining folds the epochs that were scored
        calls = []

        def extract(*args, extract=features.epoch_features, **kwargs):
            calls.append(1)
            return extract(*args, **kwargs)

        monkeypatch.setattr(features, "epoch_features", extract)
        report = session.run_full_evaluation(subject.SubjectParams(), seed=0)
        assert (report["phase1"]["correct"], report["phase2"]["correct"]) \
            == (42, 118)
        assert len(calls) == 1 + 240

    def test_ica_fits_of_the_seed0_evaluation_converge(self, monkeypatch):
        fits = []  # (converged, mask non-empty) per fit

        def fit(*args, fit=ica.fit, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                out = fit(*args, **kwargs)
            fits.append([not any("unconverged" in str(w.message)
                                 for w in caught), None])
            return out

        def classify(*args, classify=ica.classify_components, **kwargs):
            mask = classify(*args, **kwargs)
            fits[-1][1] = bool(mask.any())
            return mask

        monkeypatch.setattr(ica, "fit", fit)
        monkeypatch.setattr(ica, "classify_components", classify)
        report = session.run_full_evaluation(
            subject.SubjectParams(), seed=0,
            pipeline=features.PipelineConfig(use_ica=True))
        assert len(fits) == 1 + 240  # training, selections: retraining fits none
        assert all(converged for converged, flagged in fits if flagged)
        assert sum(converged for converged, _ in fits) >= 0.9 * len(fits)
        assert report["phase2"]["correct"] >= 109

    def test_ica_retraining_is_seeded_by_the_evaluation_seed(self,
                                                             monkeypatch):
        class Retrained(Exception):
            pass

        weights = []

        def retrain(*args, retrain=session.retrain_from_online, **kwargs):
            weights.append(retrain(*args, **kwargs).weights)
            raise Retrained  # phase 2 is not needed

        monkeypatch.setattr(session, "retrain_from_online", retrain)
        for _ in range(2):
            with pytest.raises(Retrained), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                session.run_full_evaluation(
                    subject.SubjectParams(), seed=0,
                    timing=scheduler.TimingConfig(runs_per_session=3),
                    pipeline=features.PipelineConfig(use_ica=True),
                    reps_per_object=1)
        assert weights[0].tobytes() == weights[1].tobytes()

    def test_report_structure(self, clean_report):
        report = clean_report
        for phase_key in ("phase1", "phase2"):
            phase = report[phase_key]
            assert phase["total"] == 120
            assert len(phase["per_object"]) == 12
            assert sum(row["correct"] for row in phase["per_object"]) \
                == phase["correct"]
            assert sum(row["total"] for row in phase["per_object"]) == 120
            assert phase["accuracy"] == phase["correct"] / 120
        assert report["latency"]["per_selection_s"] == 11.2
        assert report["latency"]["n_trials"] == 3
        assert report["timing"]["d_scenario_s"] == pytest.approx(317.2)
        assert report["config"]["seed"] == 0
        assert report["config"]["mismatch_s"] == 0.0
        assert report["wall_clock_seconds"] > 0

    def test_retraining_does_not_regress_without_mismatch(self, clean_report):
        # with no timing mismatch both phases run near ceiling; the second
        # phase stays within a few selections of the first and of the maximum
        phase1 = clean_report["phase1"]["correct"]
        phase2 = clean_report["phase2"]["correct"]
        assert phase2 >= 117
        assert phase2 >= phase1 - 3

    def test_per_object_rows_carry_catalog_labels(self, clean_report):
        rows = clean_report["phase1"]["per_object"]
        catalog = session.ObjectCatalog()
        for i, row in enumerate(rows):
            assert row["image_id"] == i
            assert row["label"] == catalog.label(i)
