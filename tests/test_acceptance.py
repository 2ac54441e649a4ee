"""End-to-end acceptance checks, one per release criterion.

Each test exercises one numbered criterion at its stated tolerance, prints a
single PASS/FAIL summary line (echoed again after the run via the terminal
summary hook in conftest), and is held to a wall-clock budget.  The checks
are self-contained: every oracle used here is computed independently of the
implementation under test.
"""
import json
import math
import time
import warnings

import numpy as np

import conftest
from p300loop import (acquisition, core, dsp, features, ica, lda, scheduler,
                      session, subject)


class criterion:
    """Times one acceptance check and records its PASS/FAIL summary line."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.done = False

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def finish(self, ok, detail):
        elapsed = time.perf_counter() - self.started
        within = elapsed < self.budget_s
        status = "PASS" if (ok and within) else "FAIL"
        line = (f"criterion {self.number:2d} {status}  {self.label}: {detail}"
                f"  [{elapsed:.2f} s, budget {self.budget_s:g} s]")
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        self.done = True
        assert ok and within, line

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and not self.done:
            line = (f"criterion {self.number:2d} FAIL  {self.label}: "
                    f"raised {exc_type.__name__}: {exc}")
            conftest.ACCEPTANCE_LINES.append(line)
            print(line)
        return False


def test_criterion_01_schedule_timing():
    with criterion(1, "stimulus timing and event counts", 1.0) as c:
        timing = scheduler.TimingConfig()
        d_run, d_session, d_scenario = scheduler.durations(timing)
        # d_run = 12 * 0.3, d_session = 3 + 6 * d_run + 5 * 0.2,
        # d_scenario = 10 + 12 * d_session
        want = (3.6, 25.6, 317.2)
        durations_ok = all(
            abs(got - ref) <= 1e-9
            for got, ref in zip((d_run, d_session, d_scenario), want))

        schedule = scheduler.build_scenario_schedule(
            timing, rng=np.random.default_rng(0))
        counts_ok = schedule.n_events == 864 and schedule.n_targets == 72

        c.finish(durations_ok and counts_ok,
                 f"durations ({d_run:g}, {d_session:g}, {d_scenario:g}) s, "
                 f"{schedule.n_events} events / {schedule.n_targets} targets")


def test_criterion_02_feature_geometry():
    with criterion(2, "epoch features after channel pruning", 10.0) as c:
        timing = scheduler.TimingConfig()
        schedule = scheduler.build_scenario_schedule(
            timing, rng=np.random.default_rng(0))
        record = subject.simulate_subject(schedule, subject.SubjectParams(seed=0))
        dataset = features.dataset_from_scenario(record)

        ok = (dataset.n_epochs == 864
              and dataset.feature_size == 845
              and dataset.n_targets == 72
              and len(dataset.channels) == 13
              and dataset.feature_size == len(dataset.channels) * 65
              and "FC5" not in dataset.channels
              and np.isfinite(dataset.vectors).all())

        c.finish(ok, f"dataset {dataset.n_epochs} x {dataset.feature_size} "
                     f"({len(dataset.channels)} channels x 65 samples), "
                     f"{dataset.n_targets} targets")


def test_criterion_03_bandpass_response():
    with criterion(3, "band-pass frequency response", 5.0) as c:
        spec = dsp.FilterSpec()
        coeffs = dsp.design_bandpass(spec)
        rate = spec.rate

        h_edge = np.abs(dsp.frequency_response(coeffs, [0.0, rate / 2], rate))
        zeros_ok = h_edge[0] == 0.0 and h_edge[1] == 0.0

        h_pass = float(np.abs(dsp.frequency_response(coeffs, [10.0], rate))[0])
        pass_db = 20.0 * math.log10(h_pass)
        h_stop = float(np.abs(dsp.frequency_response(coeffs, [40.0], rate))[0])
        stop_db = 20.0 * math.log10(h_stop)
        levels_ok = abs(pass_db) <= 1.0 and stop_db <= -12.0

        # impulse response through the filtering path vs the direct formula
        n = 8192
        impulse = np.zeros(n)
        impulse[0] = 1.0
        response = dsp.filter_apply(coeffs, impulse)
        h_impulse = np.fft.rfft(response)
        freqs = np.fft.rfftfreq(n, d=1.0 / rate)
        h_direct = dsp.frequency_response(coeffs, freqs, rate)
        rel_err = (np.max(np.abs(h_impulse - h_direct))
                   / np.max(np.abs(h_direct)))
        routes_ok = rel_err <= 1e-6

        c.finish(zeros_ok and levels_ok and routes_ok,
                 f"|H| at band limits ({h_edge[0]:g}, {h_edge[1]:g}), "
                 f"10 Hz {pass_db:+.3f} dB, 40 Hz {stop_db:.1f} dB, "
                 f"impulse-vs-direct {rel_err:.2e}")


def _three_source_mixture(seed, n=20_000):
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
    return sources, mixing @ sources


def _matched_correlations(recovered, truth):
    """Best one-to-one |correlation| assignment, largest first."""
    corr = np.abs(np.corrcoef(recovered, truth)[:len(recovered), len(recovered):])
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


def test_criterion_04_source_recovery():
    with criterion(4, "blind source recovery over 100 seeds", 30.0) as c:
        recovered_ok = 0
        max_gram_err = 0.0
        for seed in range(100):
            sources, mixed = _three_source_mixture(seed)
            _, _, z = ica.whiten(mixed)
            try:
                w, est = ica.fastica(z, rng=np.random.default_rng(10_000 + seed))
                converged = True
            except ica.ConvergenceError as exc:
                w, est = exc.last_w, exc.last_w @ z
                converged = False
            gram_err = float(np.max(np.abs(w @ w.T - np.eye(3))))
            max_gram_err = max(max_gram_err, gram_err)
            if converged and np.all(_matched_correlations(est, sources) >= 0.95):
                recovered_ok += 1

        ok = recovered_ok >= 95 and max_gram_err <= 1e-6
        c.finish(ok, f"{recovered_ok}/100 runs with all |corr| >= 0.95, "
                     f"max orthonormality error {max_gram_err:.2e}")


def test_criterion_05_blink_removal():
    with criterion(5, "artifact component scrub", 30.0) as c:
        params = subject.SubjectParams(seed=0, blink_rate=20.0, blink_amp=140.0,
                                       nan_fraction=0.0)
        channels = core.ChannelSet()
        bg_rng, _, blink_rng, _ = subject.stage_generators(params.seed)
        clean = subject.generate_background(120.0, channels, params, bg_rng)
        dirty = subject.inject_blinks(clean, params, blink_rng)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model, sources = ica.fit(dirty.samples)
        mask = ica.classify_components(model, sources, channels,
                                       kurtosis_threshold=5.0)
        scrubbed = dirty.with_samples(ica.reconstruct(model, dirty.samples, mask))

        def rms(rec, labels):
            rows = rec.channels.indices(labels)
            return float(np.sqrt(np.mean(rec.samples[rows] ** 2)))

        frontal_drop = 1.0 - rms(scrubbed, core.FRONTAL_LABELS) / rms(
            dirty, core.FRONTAL_LABELS)
        posterior_before = rms(dirty, core.POSTERIOR_LABELS)
        posterior_shift = abs(rms(scrubbed, core.POSTERIOR_LABELS)
                              - posterior_before) / posterior_before

        ok = mask.any() and frontal_drop >= 0.50 and posterior_shift <= 0.10
        c.finish(ok, f"{int(mask.sum())} component(s) removed, frontal RMS "
                     f"-{frontal_drop:.1%}, posterior RMS shift "
                     f"{posterior_shift:.1%}")


def _paired_cloud(mean, deltas):
    mean = np.asarray(mean, dtype=float)
    out = []
    for d in deltas:
        d = np.asarray(d, dtype=float)
        out.append(mean + d)
        out.append(mean - d)
    return np.array(out)


def test_criterion_06_discriminant():
    with criterion(6, "shrinkage discriminant checks", 30.0) as c:
        # 1. identity pooled scatter: the direction and bias are exact
        a = math.sqrt(1.5)
        pos = _paired_cloud([1.0, 0.0], [(a, 0.0), (0.0, a)])
        neg = _paired_cloud([-1.0, 0.0], [(a, 0.0), (0.0, a)])
        model = lda.train(np.vstack([pos, neg]),
                          np.array([True] * 4 + [False] * 4))
        identity_ok = (model.w[0] == 1.0 and model.w[1] == 0.0
                       and model.b == 0.0)

        # 2. anisotropic scatter diag(1, 4) with mean gap (2, 2): the
        # solve trades off to direction (1, 0.25)
        pos = _paired_cloud([1.0, 1.0], [(a, 0.0), (0.0, 2 * a)])
        neg = _paired_cloud([-1.0, -1.0], [(a, 0.0), (0.0, 2 * a)])
        model = lda.train(np.vstack([pos, neg]),
                          np.array([True] * 4 + [False] * 4), shrinkage=0.0)
        want = np.array([1.0, 0.25]) / np.linalg.norm([1.0, 0.25])
        angle = math.acos(min(1.0, abs(float(model.w @ want))))
        anisotropic_ok = angle <= 1e-9

        # 3. spherical Gaussians, means +/- e1 in 10-d: held-out accuracy
        # should sit within 2 points of the optimum Phi(1)
        rng = np.random.default_rng(7)
        d = 10
        mu = np.zeros(d)
        mu[0] = 1.0
        x1 = rng.normal(size=(5000, d)) + mu
        x2 = rng.normal(size=(5000, d)) - mu
        labels = np.array([True] * 5000 + [False] * 5000)
        model = lda.train(np.vstack([x1, x2]), labels)
        t1 = rng.normal(size=(5000, d)) + mu
        t2 = rng.normal(size=(5000, d)) - mu
        accuracy = 0.5 * (np.mean(lda.score(model, t1) > 0.0)
                          + np.mean(lda.score(model, t2) <= 0.0))
        bayes = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        bayes_ok = abs(accuracy - bayes) <= 0.02

        # 4. the trained direction separates better than 100 random ones
        rng = np.random.default_rng(11)
        x1 = rng.normal(size=(300, 10))
        x2 = rng.normal(size=(300, 10))
        x1[:, 0] += 1.5
        x1[:, 3] -= 0.7
        vectors = np.vstack([x1, x2])
        labels = np.array([True] * 300 + [False] * 300)
        model = lda.train(vectors, labels)
        j_trained = lda.fisher_criterion(model, vectors, labels)
        j_random = max(
            lda.fisher_criterion(
                lda.LdaModel(w=(v := rng.normal(size=10)) / np.linalg.norm(v),
                             b=0.0),
                vectors, labels)
            for _ in range(100))
        separation_ok = j_trained > j_random

        # 5. decisions are invariant under positive rescaling of (w, b)
        rng = np.random.default_rng(17)
        base = lda.LdaModel(w=rng.normal(size=5), b=0.3)
        probes = rng.normal(size=(50, 12, 5))
        picks = np.argmax(lda.score(base, probes), axis=1)
        rescale_ok = all(
            np.array_equal(
                picks,
                np.argmax(lda.score(lda.LdaModel(w=scale * base.w,
                                                 b=scale * base.b), probes),
                          axis=1))
            for scale in (1e-6, 0.5, 3.0, 1e6))

        ok = (identity_ok and anisotropic_ok and bayes_ok and separation_ok
              and rescale_ok)
        c.finish(ok, f"identity exact, anisotropic angle {angle:.1e}, "
                     f"accuracy {accuracy:.4f} vs optimum {bayes:.4f}, "
                     f"J {j_trained:.3f} > random {j_random:.3f}, "
                     f"rescaling invariant")


def _reference_vote(winners, scores):
    """Straightforward re-statement of the voting rule, kept independent."""
    counts = [0] * 12
    for w in winners:
        counts[w] += 1
    top = max(counts)
    tied = [i for i in range(12) if counts[i] == top]
    if len(tied) == 1:
        return tied[0]
    sums = [sum(scores[t][i] for t in range(len(winners))) for i in range(12)]
    best = tied[0]
    for i in tied[1:]:
        if sums[i] > sums[best]:
            best = i
    return best


def test_criterion_07_majority_vote():
    with criterion(7, "selection vote vs brute-force rule", 1.0) as c:
        rng = np.random.default_rng(2024)
        values = rng.normal(size=(1728, 3))
        zeros = np.zeros((3, 12))
        mismatches = 0
        idx = 0
        for a in range(12):
            for b in range(12):
                for k in range(12):
                    winners = (a, b, k)
                    scores = np.zeros((3, 12))
                    scores[0, a], scores[1, b], scores[2, k] = values[idx]
                    idx += 1
                    if (session.majority_vote(winners, scores)
                            != _reference_vote(winners, scores)):
                        mismatches += 1
                    # all-equal scores force the count and lowest-id paths
                    if (session.majority_vote(winners, zeros)
                            != _reference_vote(winners, zeros)):
                        mismatches += 1

        # fixed tie tables: clear majority, score split, exact score tie
        table = np.zeros((3, 12))
        table[0, 1], table[1, 2], table[2, 4] = 0.1, 0.9, 0.3
        tie_ok = (session.majority_vote((3, 3, 7), zeros) == 3
                  and session.majority_vote((1, 2, 4), table) == 2
                  and session.majority_vote((5, 9), zeros) == 5)

        c.finish(mismatches == 0 and tie_ok,
                 f"{2 * 1728} enumerated votes, {mismatches} disagreements, "
                 f"tie tables ok={tie_ok}")


def _sample_record(n=500):
    channels = core.ChannelSet(("AF3", "P8", "O1"))
    rng = np.random.default_rng(8)
    samples = rng.normal(size=(3, n))
    samples[0, 7] = np.nan
    markers = (
        core.StimulusEvent(onset_sample=10, image_id=3, run_index=0,
                           session_index=0, is_target=True),
        core.StimulusEvent(onset_sample=150, image_id=7, run_index=1,
                           session_index=0, is_target=False),
        core.StimulusEvent(onset_sample=260, image_id=0, run_index=2,
                           session_index=1, is_target=None),
    )
    return core.EegRecord(samples=samples, rate=128, channels=channels,
                          markers=markers)


def test_criterion_08_wire_protocol(tmp_path):
    with criterion(8, "wire protocol and persistence", 30.0) as c:
        record = _sample_record()

        # bit-exact round trip for every frame kind
        kinds = [
            acquisition.HeaderFrame(channel_count=3, rate=128,
                                    labels=("AF3", "P8", "O1")),
            acquisition.SamplesFrame(
                first_sample_index=12,
                samples=np.array([[1.5, np.nan, -2.0],
                                  [0.0, 3.25, 7.0]], dtype=np.float32)),
            acquisition.MarkerFrame(sample_index=99, image_id=4, run=1,
                                    session=2, is_target=True),
            acquisition.MarkerFrame(sample_index=100, image_id=5, run=1,
                                    session=2, is_target=False),
            acquisition.MarkerFrame(sample_index=101, image_id=6, run=1,
                                    session=2, is_target=None),
            acquisition.EndFrame(),
        ]
        roundtrip_ok = True
        for frame in kinds:
            wire = acquisition.encode_frame(frame)
            decoded, used = acquisition.decode_frame(wire)
            roundtrip_ok = (roundtrip_ok and used == len(wire)
                            and acquisition.encode_frame(decoded) == wire)

        # file save/load: exact up to float32 sample quantization
        path = tmp_path / "capture.eeg"
        acquisition.save_record(record, path)
        loaded = acquisition.load_record(path)
        want = record.samples.astype(np.float32).astype(np.float64)
        file_ok = (np.array_equal(loaded.samples, want, equal_nan=True)
                   and loaded.markers == record.markers
                   and tuple(loaded.channels) == tuple(record.channels))

        # fuzz: 10,000 random split points must decode cleanly
        wire = b"".join(acquisition.encode_frame(f)
                        for f in acquisition.stream_record(record, chunk=50))
        n_frames = len(acquisition.FrameReader().feed(wire))
        rng = np.random.default_rng(99)
        crashes = 0
        fuzz_ok = True
        for _ in range(10_000):
            cut = int(rng.integers(0, len(wire) + 1))
            reader = acquisition.FrameReader()
            try:
                frames = reader.feed(wire[:cut])
                frames += reader.feed(wire[cut:])
            except Exception:
                crashes += 1
                continue
            fuzz_ok = (fuzz_ok and len(frames) == n_frames
                       and reader.pending_bytes == 0)

        ok = roundtrip_ok and file_ok and crashes == 0 and fuzz_ok
        c.finish(ok, f"{len(kinds)} frame kinds bit-exact, file round trip, "
                     f"10000 split points with {crashes} crashes")


def test_criterion_09_closed_loop_accuracy():
    with criterion(9, "closed-loop selection accuracy", 120.0) as c:
        report = session.run_full_evaluation(subject.SubjectParams(), seed=0)
        phase1 = report["phase1"]
        phase2 = report["phase2"]
        latency = report["latency"]["per_selection_s"]

        ok = (phase2["total"] == 120
              and phase2["correct"] >= 109
              and latency <= 15.0
              and phase2["accuracy"] >= phase1["accuracy"])
        c.finish(ok, f"phase 1 {phase1['correct']}/{phase1['total']}, "
                     f"phase 2 {phase2['correct']}/{phase2['total']}, "
                     f"latency {latency:g} s per selection")


def test_criterion_10_determinism():
    with criterion(10, "seeded end-to-end determinism", 120.0) as c:
        first = session.run_full_evaluation(subject.SubjectParams(), seed=0)
        second = session.run_full_evaluation(subject.SubjectParams(), seed=0)
        first.pop("wall_clock_seconds")
        second.pop("wall_clock_seconds")
        # every selection inside the evaluation streams its record through
        # the loopback wire path, so that path is covered by construction
        ok = (json.dumps(first, sort_keys=True)
              == json.dumps(second, sort_keys=True))
        c.finish(ok, "two seed-0 reports identical "
                     f"(phase 2 {first['phase2']['correct']}/120)")
