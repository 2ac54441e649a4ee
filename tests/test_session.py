"""Closed-loop machinery: voting, online selection, retraining, evaluation."""
import queue
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p300loop import (acquisition, dsp, features, lda, scheduler, session,
                      subject)


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
        catalog = session.ObjectCatalog()
        assert sorted(e[0] for e in catalog.entries) == list(range(12))

    def test_car_command(self):
        catalog = session.ObjectCatalog()
        assert catalog.label(3) == "car"
        assert catalog.message(3) == "Get my chauffeur prepare my car"

    def test_emergency_command(self):
        catalog = session.ObjectCatalog()
        assert catalog.label(11) == "heart"
        assert "doctor" in catalog.message(11)

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            session.ObjectCatalog().message(12)

    def test_incomplete_catalog_rejected(self):
        with pytest.raises(ValueError):
            session.ObjectCatalog(entries=((0, "a", "b"),))


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
        n_votes, n_left = divmod(len(table), trials)
        chosen = [session.vote(table[i * trials:(i + 1) * trials])[1]
                  for i in range(n_votes)]
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


class TestTrainOnDataset:
    def test_bundle_matches_manual_pipeline(self, training_dataset):
        pipeline = session.PipelineConfig()
        model = session.train_on_dataset(training_dataset, pipeline)
        assert model.weights.shape == (845,)
        assert model.channels == tuple(training_dataset.channels)
        assert model.window == training_dataset.window

        scaling = dsp.minmax_fit(training_dataset.vectors)
        scaled = dsp.minmax_apply(scaling, training_dataset.vectors)
        direct = lda.train(scaled, training_dataset.labels,
                           shrinkage=pipeline.shrinkage)
        np.testing.assert_array_equal(model.weights, direct.w)
        assert model.bias == direct.b

    def test_score_vectors_applies_training_scaling(self, training_dataset):
        pipeline = session.PipelineConfig()
        model = session.train_on_dataset(training_dataset, pipeline)
        scores = session.score_vectors(model, training_dataset.vectors)
        scaling = dsp.ScalingParams(mins=model.mins, maxes=model.maxes)
        want = (dsp.minmax_apply(scaling, training_dataset.vectors)
                @ model.weights + model.bias)
        np.testing.assert_array_equal(scores, want)


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
        scores = session.score_vectors(model, dataset.vectors)
        correct = 0
        by_run = {}
        for (run, sess, img), value in zip(dataset.provenance, scores):
            by_run.setdefault((sess, run), []).append((img, value))
        for (sess, _run), pairs in by_run.items():
            best = max(pairs, key=lambda p: p[1])[0]
            correct += best == schedule.session_targets[sess]
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
            assert logged.markers[0].is_target is not None

    def test_logged_record_supports_retraining(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        logs = []
        for target in (0, 5):
            _, logged = session.run_online_selection(
                model, _noiseless_params(seed=100 + target), catalog, target,
                rng=np.random.default_rng(200 + target))
            logs.append(logged)
        retrained = session.retrain_from_online(logs)
        assert retrained.weights.shape == model.weights.shape

    def test_channel_mismatch_detected(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        # the corrupted channel gets pruned online, the model has all 14
        with pytest.raises(ValueError, match="channels"):
            session.run_online_selection(
                model, _noiseless_params(nan_fraction=0.2), catalog, 0,
                rng=np.random.default_rng(0))

    def test_window_mismatch_detected(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        pipeline = session.PipelineConfig(
            window=features.EpochWindow(length=64))
        with pytest.raises(ValueError, match="window"):
            session.run_online_selection(
                model, _noiseless_params(), catalog, 0,
                rng=np.random.default_rng(0), pipeline=pipeline)

    def test_replayed_sequences_are_used(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        seqs = [list(range(12)), list(range(11, -1, -1)), list(range(12))]
        _, logged = session.run_online_selection(
            model, _noiseless_params(), catalog, 4,
            rng=np.random.default_rng(0), sequences=seqs)
        got = {}
        for ev in logged.markers:
            got.setdefault(ev.run_index, []).append(ev.image_id)
        assert [got[t] for t in range(3)] == seqs


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

    producer = threading.Thread(target=produce)
    producer.start()
    reader = acquisition.FrameReader()
    frames = []
    while True:
        data = chunk_queue.get()
        if data is None:
            break
        frames.extend(reader.feed(data))
    producer.join()
    assert reader.pending_bytes == 0
    return acquisition.reassemble(frames)


class TestInlineStreamRoundTrip:
    @pytest.mark.parametrize("chunk", [acquisition.DEFAULT_CHUNK, 7])
    def test_same_record_and_rng_state_as_threaded(self, chunk):
        timing = scheduler.TimingConfig()
        blind = scheduler.build_online_trial_schedule(
            timing, 3, np.random.default_rng(1))
        record = subject.simulate_subject(subject.with_targets(blind, 2),
                                          subject.SubjectParams(seed=3))
        got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = session._stream_roundtrip(record, chunk, got_rng)
        want = reference_threaded_roundtrip(record, chunk, want_rng)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.markers == want.markers
        assert got.channels == want.channels and got.rate == want.rate
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _replayed_selection_record(seed, index):
    """(logged record, rng) of online selection `index` (0-239) of
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
    blind = scheduler.build_online_trial_schedule(timing, 3, rng,
                                                  sequences=sequences)
    record = subject.simulate_subject(subject.with_targets(blind, target),
                                      params)
    return session._stream_roundtrip(record, acquisition.DEFAULT_CHUNK,
                                     rng), rng


class TestOnlineIcaOnDegenerateIterates:
    """Online selections whose ICA iterate turned degenerate (evaluation seed
    1000, selection 64) or not orthonormal (seed 3000, selection 235) used to
    stop the whole evaluation; the unconverged unmixing is now accepted."""

    @pytest.mark.parametrize("seed,index", [(1000, 64), (3000, 235)])
    def test_dataset_is_built_with_a_warning(self, seed, index):
        logged, rng = _replayed_selection_record(seed, index)
        with pytest.warns(RuntimeWarning, match="not orthonormal|degenerate"):
            dataset = features.dataset_from_scenario(
                logged, pipeline=features.PipelineConfig(use_ica=True),
                ica_rng=rng)
        assert dataset.n_epochs == 36
        assert np.isfinite(dataset.vectors).all()


class TestRetrainFromOnline:
    def test_empty_log_list_rejected(self):
        with pytest.raises(ValueError):
            session.retrain_from_online([])

    def test_needs_two_examples_per_class(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        _, logged = session.run_online_selection(
            model, _noiseless_params(), catalog, 2, n_trials=1,
            rng=np.random.default_rng(1))
        # a single run holds one target flash: not enough to refit
        with pytest.raises(ValueError):
            session.retrain_from_online([logged])

    def test_channel_disagreement_rejected(self, noiseless_training):
        model, _, _ = noiseless_training
        catalog = session.ObjectCatalog()
        _, clean = session.run_online_selection(
            model, _noiseless_params(), catalog, 1,
            rng=np.random.default_rng(2))
        t = scheduler.TimingConfig()
        blind = scheduler.build_online_trial_schedule(
            t, n_trials=3, rng=np.random.default_rng(3))
        dirty = subject.simulate_subject(
            subject.with_targets(blind, 1),
            _noiseless_params(nan_fraction=0.2))
        with pytest.raises(ValueError, match="disagree"):
            session.retrain_from_online([clean, dirty])


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

    def test_cross_validated_auc_on_noisy_data(self, training_dataset):
        auc = session.cross_validated_auc(training_dataset)
        assert auc >= 0.85

    def test_cross_validation_needs_sessions(self, training_dataset):
        held = [p[1] == 0 for p in training_dataset.provenance]
        one = features.LabeledDataset(
            vectors=training_dataset.vectors[held][:24],
            labels=training_dataset.labels[held][:24],
            provenance=training_dataset.provenance[:24])
        with pytest.raises(ValueError):
            session.cross_validated_auc(one)


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
        labels=labels, provenance=dataset.provenance)


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


class TestPhaseSequences:
    def test_cyclic_replay_walks_training_runs(self, noiseless_training):
        _, _, schedule = noiseless_training
        target = 4
        position = list(schedule.session_targets).index(target)
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


class TestEvaluationPhase:
    def test_accuracy(self):
        phase = session.EvaluationPhase(correct=9, total=12,
                                        per_object_correct=(1,) * 12,
                                        per_object_total=(1,) * 12)
        assert phase.accuracy == 0.75
        empty = session.EvaluationPhase(correct=0, total=0,
                                        per_object_correct=(0,) * 12,
                                        per_object_total=(0,) * 12)
        assert empty.accuracy == 0.0


class TestFullEvaluation:
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
