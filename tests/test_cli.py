"""Command-line interface: subcommands, exit codes, config files, loopback."""
import contextlib
import dataclasses
import functools
import io
import json
import re
import socket
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from p300loop import (acquisition, cli, core, features, ica, lda, scheduler,
                      session, subject)


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full simulated recording plus a model trained from it."""
    root = tmp_path_factory.mktemp("cli")
    record = root / "scenario.eegs"
    model = root / "model.json"
    assert _run(["simulate", "--out", str(record), "--seed", "0"]) == 0
    assert _run(["train", "--record", str(record),
                 "--model", str(model)]) == 0
    return {"root": root, "record": record, "model": model}


@pytest.fixture(scope="module")
def stream_assets(tmp_path_factory):
    """Small noiseless recording + model for deterministic streaming checks."""
    root = tmp_path_factory.mktemp("stream")
    record = root / "clean.eegs"
    model = root / "clean-model.json"
    base = ["--sessions-per-scenario", "2", "--background-rms", "0",
            "--alpha-amp", "0", "--blink-rate", "0", "--nan-fraction", "0"]
    assert _run(["simulate", "--out", str(record), "--seed", "3"] + base) == 0
    assert _run(["train", "--record", str(record), "--model", str(model)]) == 0
    return {"record": record, "model": model}


@pytest.fixture(scope="module")
def ica_assets(tmp_path_factory):
    """A 2-session recording and a model trained on it with ICA and a NaN
    threshold that keeps FC5 (20% NaN), which the default would drop."""
    root = tmp_path_factory.mktemp("ica")
    record = root / "scenario.eegs"
    model = root / "ica-model.json"
    assert _run(["simulate", "--out", str(record), "--seed", "3",
                 "--sessions-per-scenario", "2"]) == 0
    assert _run(["train", "--record", str(record), "--model", str(model),
                 "--ica", "--nan-threshold", "0.3"]) == 0
    return {"record": record, "model": model}


def _consume_with_producer(record, model, extra_producer=(), trials=3):
    """Serve `record` in a background thread and consume it; returns stdout rc."""
    port = _free_port()
    producer = threading.Thread(
        target=_run,
        args=(["stream", "producer", "--port", str(port),
               "--record", str(record)] + list(extra_producer),),
        daemon=True)
    producer.start()
    deadline = time.monotonic() + 10.0
    rc = None
    while time.monotonic() < deadline:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = _run(["stream", "consumer", "--port", str(port),
                       "--model", str(model), "--trials", str(trials)])
        sys.stderr.write(err.getvalue())
        if "refused" not in err.getvalue():  # the producer had not bound yet
            break
        time.sleep(0.2)
    producer.join(timeout=10.0)
    return rc


def _serve_bytes_once(payload):
    """Listen on a free port, send `payload` to the first client and close;
    returns (port, server thread)."""
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def serve():
        with server:
            conn, _ = server.accept()
            with conn:
                conn.sendall(payload)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return port, thread


class TestSimulate:
    def test_prints_durations_and_counts(self, workspace, capsys):
        out = workspace["root"] / "again.eegs"
        assert _run(["simulate", "--out", str(out), "--seed", "0"]) == 0
        stdout = capsys.readouterr().out
        assert "d_run = 3.6 s, d_session = 25.6 s, d_scenario = 317.2 s" in stdout
        assert "864 markers (72 targets)" in stdout
        assert "seed 0" in stdout

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        small = ["--sessions-per-scenario", "1"]
        a, b, c = (tmp_path / n for n in ("a.eegs", "b.eegs", "c.eegs"))
        assert _run(["simulate", "--out", str(a), "--seed", "5"] + small) == 0
        assert _run(["simulate", "--out", str(b), "--seed", "5"] + small) == 0
        assert _run(["simulate", "--out", str(c), "--seed", "6"] + small) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_written_file_round_trips(self, workspace):
        record = acquisition.load_record(workspace["record"])
        assert record.n_channels == 14
        assert len(record.markers) == 864

    def test_timing_flags_change_the_grid(self, tmp_path, capsys):
        out = tmp_path / "short.eegs"
        assert _run(["simulate", "--out", str(out), "--runs-per-session", "1",
                     "--sessions-per-scenario", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "d_session = 6.6 s" in stdout

    @pytest.mark.parametrize("flag,value", [
        ("--p300-amp", "nan"), ("--background-rms", "nan"),
        ("--latency-jitter-sd", "nan"), ("--blink-rate", "inf"),
        ("--p300-peak-latency", "-inf"), ("--d-flash", "nan"),
        ("--d-adapt", "inf"), ("--p300-amp", "1e308")])
    def test_non_finite_knob_is_a_data_error(self, tmp_path, capsys, flag,
                                             value):
        # each exited 0 with a record of NaN, zeroed or unreadable samples,
        # or failed in numpy; 1e308 is finite, but not as a float32 sample
        out = tmp_path / "x.eegs"
        with np.errstate(over="ignore"):
            assert _run(["simulate", "--out", str(out), f"{flag}={value}",
                         "--sessions-per-scenario", "1",
                         "--runs-per-session", "1"]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_float32_overflow_is_refused_before_numpy_warns(self, tmp_path,
                                                             capsys):
        # 1e308 is finite, but its samples overflow the float32 cast: a data
        # error, refused before numpy would warn of the overflow
        out = tmp_path / "x.eegs"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(["simulate", "--out", str(out), "--p300-amp=1e308",
                         "--sessions-per-scenario", "1",
                         "--runs-per-session", "1"]) == 2
        assert "infinite as float32" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_reports_dataset_geometry(self, workspace, capsys):
        model_path = workspace["root"] / "model2.json"
        assert _run(["train", "--record", str(workspace["record"]),
                     "--model", str(model_path)]) == 0
        stdout = capsys.readouterr().out
        assert "trained on 864 epochs (72 targets), 845 features" in stdout
        assert "cross-validated AUC" in stdout

    def test_in_sample_fisher_criterion_not_printed(self, workspace, capsys):
        # J of the vectors the model was fit on measures fit, not separation
        assert _run(["train", "--record", str(workspace["record"]),
                     "--model", str(workspace["root"] / "model3.json")]) == 0
        stdout = capsys.readouterr().out
        assert "fisher" not in stdout.lower()
        assert "cross-validated AUC = " in stdout
        assert "score range on training data: [" in stdout

    def test_model_file_is_loadable(self, workspace):
        model = acquisition.load_model(workspace["model"])
        assert model.weights.shape == (845,)
        assert len(model.channels) == 13
        assert "FC5" not in model.channels

    def test_window_length_flag_reshapes_features(self, stream_assets,
                                                  tmp_path):
        model_path = tmp_path / "w64.json"
        assert _run(["train", "--record", str(stream_assets["record"]),
                     "--model", str(model_path),
                     "--window-length", "64"]) == 0
        model = acquisition.load_model(model_path)
        assert model.window.length == 64
        assert model.weights.shape == (14 * 64,)

    def test_class_statistics_are_built_once(self, stream_assets, tmp_path,
                                             monkeypatch):
        # training and cross-validation share the dataset's statistics
        calls = []
        of = lda.ClassStatistics.of
        monkeypatch.setattr(lda.ClassStatistics, "of", classmethod(
            lambda cls, vectors, labels: calls.append(len(vectors))
            or of(vectors, labels)))
        model_path = tmp_path / "once.json"
        assert _run(["train", "--record", str(stream_assets["record"]),
                     "--model", str(model_path)]) == 0
        assert calls == [144]
        assert model_path.read_bytes() == stream_assets["model"].read_bytes()

    def test_unknown_targets_are_a_data_error(self, stream_assets, tmp_path,
                                              capsys):
        # a blind online record carries no target flags to train from
        record = acquisition.load_record(stream_assets["record"])
        markers = record.markers
        blind = tmp_path / "blind.eegs"
        acquisition.save_record(record.with_markers(core.Markers(
            markers.onset, markers.image, markers.run, markers.session)),
            blind)
        assert acquisition.load_record(blind).markers[0].is_target is None
        assert _run(["train", "--record", str(blind),
                     "--model", str(tmp_path / "m.json")]) == 2
        assert "target labels" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_record_at_another_rate_is_a_data_error(self, stream_assets,
                                                     tmp_path, capsys):
        # the pipeline runs at 128 Hz alone; the band-pass was once designed
        # for whatever rate a record claimed
        record = acquisition.load_record(stream_assets["record"])
        relabelled, model = tmp_path / "256.eegs", tmp_path / "m.json"
        acquisition.save_record(core.EegRecord(
            record.channels, 256.0, record.samples, record.markers),
            relabelled)
        assert _run(["train", "--record", str(relabelled),
                     "--model", str(model)]) == 2
        err = capsys.readouterr().err
        assert "256 Hz" in err and "128 Hz" in err
        assert not model.exists()

    def test_failed_cross_validation_writes_no_model(self, tmp_path,
                                                     capsys):
        # one session cannot be cross-validated, so no model is written
        record, model = tmp_path / "one.eegs", tmp_path / "m.json"
        assert _run(["simulate", "--out", str(record),
                     "--sessions-per-scenario", "1"]) == 0
        assert _run(["train", "--record", str(record),
                     "--model", str(model)]) == 2
        assert "two sessions" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("flags", [
        ["--shrinkage", "2"], ["--shrinkage", "-0.5"], ["--shrinkage", "nan"],
        ["--nan-threshold", "nan"], ["--nan-threshold", "inf"],
        ["--nan-threshold", "-1"], ["--nan-threshold", "5"]])
    def test_pipeline_is_checked_before_the_record_is_read(
            self, tmp_path, monkeypatch, capsys, flags):
        # `--shrinkage 2` once failed in the solver, after decoding and
        # featurising the record
        monkeypatch.setattr(cli, "load_record", lambda path: pytest.fail(
            "the record was read"))
        model = tmp_path / "m.json"
        assert _run(["train", "--record", "any.eegs", "--model", str(model),
                     *flags]) == 2
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not model.exists()


class TestEvaluate:
    def test_report_written_and_deterministic(self, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["evaluate", "--seed", "0", "--reps-per-object", "1"]
        assert _run(argv + ["--report", str(r1)]) == 0
        assert _run(argv + ["--report", str(r2)]) == 0
        stdout = capsys.readouterr().out
        assert "phase 1" in stdout and "phase 2" in stdout
        a = json.loads(r1.read_text())
        b = json.loads(r2.read_text())
        a.pop("wall_clock_seconds")
        b.pop("wall_clock_seconds")
        assert a == b

    def test_report_embeds_config(self, tmp_path):
        report_path = tmp_path / "r.json"
        assert _run(["evaluate", "--seed", "7", "--reps-per-object", "1",
                     "--mismatch", "0.05", "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["seed"] == 7
        assert report["config"]["mismatch_s"] == 0.05
        assert report["config"]["subject"]["p300_amp"] == 12.0
        assert report["phase1"]["total"] == 12

    def test_trials_below_one_is_a_usage_error(self, tmp_path, monkeypatch,
                                               capsys):
        calls = []
        monkeypatch.setattr(cli, "run_full_evaluation",
                            lambda *args, **kwargs: calls.append(args))
        report = tmp_path / "r.json"
        for trials in ("0", "-1"):
            assert _run(["evaluate", "--report", str(report),
                         "--trials", trials]) == 1
            assert "--trials" in capsys.readouterr().err
        assert calls == [] and not report.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--reps-per-object", "0"), ("--reps-per-object", "-2"),
        ("--mismatch", "nan"), ("--mismatch", "inf"), ("--mismatch", "-inf")])
    def test_bad_argument_is_a_usage_error_before_training(
            self, tmp_path, monkeypatch, capsys, flag, value):
        # --reps-per-object 0 failed after offline training; --mismatch nan
        # ran the evaluation, then left a truncated report
        calls = []
        monkeypatch.setattr(cli, "run_full_evaluation",
                            lambda *args, **kwargs: calls.append(args))
        report = tmp_path / "r.json"
        assert _run(["evaluate", "--report", str(report),
                     f"{flag}={value}"]) == 1
        assert flag in capsys.readouterr().err
        assert calls == [] and not report.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_constant_offset_is_a_usage_error(self, tmp_path, monkeypatch,
                                              capsys, source):
        # the evaluation sets the offset of training and of each phase, so
        # the flag once changed nothing, not even the report
        calls = []
        monkeypatch.setattr(cli, "run_full_evaluation",
                            lambda *args, **kwargs: calls.append(args))
        argv = ["--constant-offset", "0.3"]
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"constant_offset": 0.3}))
            argv = ["--config", str(cfg)]
        report = tmp_path / "r.json"
        assert _run(["evaluate", "--report", str(report),
                     "--reps-per-object", "1", *argv]) == 1
        assert "--constant-offset" in capsys.readouterr().err
        assert calls == [] and not report.exists()

    def test_failed_dump_leaves_the_old_report(self, tmp_path, monkeypatch):
        report = tmp_path / "r.json"
        report.write_text("old\n")
        monkeypatch.setattr(cli, "run_full_evaluation",
                            lambda *args, **kwargs: {"value": float("nan")})
        assert _run(["evaluate", "--report", str(report)]) == 2
        assert report.read_text() == "old\n"

    def test_failed_write_leaves_the_old_report(self, tmp_path, monkeypatch,
                                                capsys):
        # the new report is written beside the old one, then renamed over it
        report = tmp_path / "r.json"
        report.write_text("old\n")
        monkeypatch.setattr(cli, "run_full_evaluation",
                            lambda *args, **kwargs: {"value": 1.0})

        def fail(src, dst):
            assert Path(src).read_text() == '{\n "value": 1.0\n}\n'
            raise OSError("rename failed")

        monkeypatch.setattr(acquisition.os, "replace", fail)
        assert _run(["evaluate", "--report", str(report)]) == 2
        assert "rename failed" in capsys.readouterr().err
        assert report.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


class TestInspect:
    def test_record_summary(self, workspace, capsys):
        assert _run(["inspect", "--record", str(workspace["record"])]) == 0
        stdout = capsys.readouterr().out
        assert "14 channels @ 128 Hz" in stdout
        assert "markers: 864 (72 targets)" in stdout
        assert "FC5" in stdout  # NaN census names the corrupted channel

    def test_model_summary(self, workspace, capsys):
        assert _run(["inspect", "--model", str(workspace["model"])]) == 0
        stdout = capsys.readouterr().out
        assert "845 weights = 13 channels x 65 samples" in stdout
        assert str(features.PipelineConfig()) in stdout

    def test_needs_an_argument(self):
        assert _run(["inspect"]) == 1


class TestConfigFile:
    def test_config_sets_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 5, "sessions_per_scenario": 1, "background_rms": 0.0,
            "alpha_amp": 0.0, "blink_rate": 0.0, "nan_fraction": 0.0}))
        a = tmp_path / "a.eegs"
        b = tmp_path / "b.eegs"
        direct = tmp_path / "direct.eegs"
        assert _run(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert _run(["simulate", "--config", str(cfg), "--seed", "2",
                     "--out", str(b)]) == 0
        before = tmp_path / "before.eegs"  # --config ahead of the subcommand
        assert _run(["--config", str(cfg), "simulate", "--out",
                     str(before)]) == 0
        assert _run(["simulate", "--sessions-per-scenario", "1",
                     "--background-rms", "0", "--alpha-amp", "0",
                     "--blink-rate", "0", "--nan-fraction", "0",
                     "--seed", "5", "--out", str(direct)]) == 0
        stdout = capsys.readouterr().out
        assert "seed 5" in stdout and "seed 2" in stdout
        assert a.read_bytes() == direct.read_bytes() == before.read_bytes()
        assert a.read_bytes() != b.read_bytes()

    def test_non_object_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert _run(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.eegs")]) == 2

    def _rejected(self, tmp_path, capsys, config, key):
        """`simulate --config` exits 2 before simulating, naming `key`."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x.eegs"
        assert _run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        self._rejected(tmp_path, capsys, {"p300_ampp": 99}, "p300_ampp")

    def test_config_key_rejected(self, tmp_path, capsys):
        # --config is read before the flags it seeds, so it seeds none
        self._rejected(tmp_path, capsys, {"config": "other.json"}, "config")

    def test_float_for_an_int_flag_rejected(self, tmp_path, capsys):
        self._rejected(tmp_path, capsys, {"seed": 1.5}, "seed")

    def test_bool_for_an_int_flag_rejected(self, tmp_path, capsys):
        self._rejected(tmp_path, capsys, {"trials": True}, "trials")

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--co", "0.3"], "--co"),  # --constant-offset meant
        (["--conf", "c.json", "simulate"], "c.json"),
        (["simulate", "--conf", "c.json"], "--conf"),
    ])
    def test_flag_prefix_is_a_usage_error(self, tmp_path, capsys, argv,
                                          named):
        # no parser takes a prefix, the --config probe neither: a prefix of
        # --config is an unknown flag, not a config file to open
        out = tmp_path / "x.eegs"
        assert _run(argv + ["--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_int_for_a_float_flag_is_a_float(self, monkeypatch, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d_inf": 2}))
        seen = _evaluate_configs(monkeypatch, tmp_path,
                                 ["--config", str(cfg)])
        assert repr(seen["timing"].d_inf) == "2.0"


class TestExitCodes:
    def test_usage_errors(self):
        assert _run([]) == 1
        assert _run(["frobnicate"]) == 1
        assert _run(["train", "--model", "m.json"]) == 1
        assert _run(["stream", "producer", "--port", "1"]) == 1

    def test_missing_file_is_a_data_error(self, tmp_path):
        assert _run(["train", "--record", str(tmp_path / "nope.eegs"),
                     "--model", str(tmp_path / "m.json")]) == 2

    def test_malformed_model_is_a_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert _run(["inspect", "--model", str(bad)]) == 2

    def test_nan_weight_model_is_a_data_error(self, workspace, tmp_path,
                                              capsys):
        doc = json.loads(workspace["model"].read_text())
        doc["weights"][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert _run(["inspect", "--model", str(bad)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("shrinkage", 5.0),
        ("epoch_window", {"start_offset": 0, "length": 65.9}),
        ("epoch_window", {"start_offset": 0, "length": "65"}),
        ("epoch_window", {"start_offset": True, "length": 65}),
        ("channels", lambda labels: [labels[0]] * len(labels)),
        ("channels", lambda labels: list(range(len(labels)))),
        ("maxes", lambda maxes: [maxes[0] - 1e6] + maxes[1:]),
        ("weights", lambda weights: ["0.5"] + weights[1:]),
        ("weights", lambda weights: [True] + weights[1:])],
        ids=["shrinkage", "float_length", "string_length", "bool_start",
             "repeated_channel", "integer_channels", "max_below_min",
             "string_weight", "bool_weight"])
    def test_model_train_never_writes_is_a_data_error(
            self, workspace, tmp_path, capsys, field, value):
        doc = json.loads(workspace["model"].read_text())
        doc[field] = value(doc[field]) if callable(value) else value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        # the consumer loads its model before it connects
        for argv in (["inspect", "--model", str(bad)],
                     ["stream", "consumer", "--port", str(_free_port()),
                      "--model", str(bad)]):
            assert _run(argv) == 2
            assert "error: model" in capsys.readouterr().err

    def test_bad_magic_is_a_protocol_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.eegs"
        bad.write_bytes(b"XXXX" + bytes(32))
        assert _run(["train", "--record", str(bad),
                     "--model", str(tmp_path / "m.json")]) == 4
        assert "protocol error" in capsys.readouterr().err

    def test_infinite_sample_is_a_protocol_error(self, workspace, tmp_path,
                                                 capsys):
        # the encoder refuses an infinite sample: patch one into the bytes
        record = acquisition.load_record(workspace["record"])
        samples = record.samples.copy()
        samples[3, 1000] = 12345.5  # exact in float32
        bad = tmp_path / "inf.eegs"
        acquisition.save_record(record.with_samples(samples), bad)
        marker = np.float32(12345.5).tobytes()
        assert bad.read_bytes().count(marker) == 1
        bad.write_bytes(bad.read_bytes().replace(
            marker, np.float32(np.inf).tobytes()))
        assert _run(["inspect", "--record", str(bad)]) == 4
        assert "infinite sample" in capsys.readouterr().err

    def test_singular_scatter_is_a_numeric_error(self, tmp_path, capsys):
        record = tmp_path / "tiny.eegs"
        assert _run(["simulate", "--out", str(record), "--seed", "0",
                     "--sessions-per-scenario", "1",
                     "--runs-per-session", "1"]) == 0
        # 12 epochs cannot support an unregularized 845-dim scatter
        assert _run(["train", "--record", str(record),
                     "--model", str(tmp_path / "m.json"),
                     "--shrinkage", "0"]) == 3
        assert "numeric error" in capsys.readouterr().err


    def test_unconverged_ica_as_an_error_is_a_numeric_error(
            self, tmp_path, monkeypatch, capsys):
        # `-W error::RuntimeWarning` turns the unconverged-unmixing warning
        # into an exception, which must end in exit 3 and write no report
        monkeypatch.setattr(ica, "fit", functools.partial(ica.fit, max_iter=1))
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _run(["evaluate", "--ica", "--reps-per-object", "1",
                         "--report", str(report)]) == 3
        assert "unconverged" in capsys.readouterr().err
        assert not report.exists()

    def test_timing_overflowing_int64_onsets_is_a_data_error(self, tmp_path,
                                                             capsys):
        # a 1e300 s pause, whose flash onsets would not fit the int64 table,
        # makes a scenario past the cap: refused before anything is printed
        out = tmp_path / "o.eeg"
        assert _run(["simulate", "--d-inf", "1e300", "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert "scenario of 1.2e+301 s is too large" in printed.err
        assert printed.out == ""
        assert not out.exists()

    def test_scenario_past_the_cap_is_refused_before_it_is_simulated(
            self, tmp_path, capsys, monkeypatch):
        # a 1e6 s pause would ask for 14 x 1.5e9 samples of background
        def allocate(*args, **kwargs):
            raise AssertionError("the background was generated")

        monkeypatch.setattr(subject, "generate_background", allocate)
        out = tmp_path / "big.eeg"
        assert _run(["simulate", "--d-inf", "1e6", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scenario of 1.20003e+07 s is too large" in err
        assert f"cap is {scheduler.MAX_SCENARIO_S} s" in err
        assert not out.exists()

    def test_online_span_past_the_cap_is_refused_before_training(
            self, tmp_path, capsys, monkeypatch):
        # 1895 trials would simulate a 7,200.8 s record per selection
        def train(*args, **kwargs):
            raise AssertionError("the evaluation trained")

        monkeypatch.setattr(session, "run_offline_training", train)
        report = tmp_path / "r3.json"
        assert _run(["evaluate", "--trials", "1895", "--reps-per-object", "1",
                     "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert "scenario of 7200.8 s is too large" in err
        assert f"cap is {scheduler.MAX_SCENARIO_S} s" in err
        assert not report.exists()

    def test_blink_rate_past_its_bound_is_refused_before_it_is_simulated(
            self, tmp_path, capsys, monkeypatch):
        # 1e9 blinks a minute would draw 6e8 blink times
        def allocate(*args, **kwargs):
            raise AssertionError("the background was generated")

        monkeypatch.setattr(subject, "generate_background", allocate)
        out = tmp_path / "b.eeg"
        assert _run(["simulate", "--blink-rate", "1e9", "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert "blink_rate" in printed.err
        assert printed.out == ""
        assert not out.exists()

    def test_subject_warning_as_an_error_is_a_data_error(self, tmp_path,
                                                         capsys):
        # `-W error::UserWarning` turns the atypical-latency warning into an
        # exception, which must end in exit 2 and write no record
        out = tmp_path / "w.eeg"
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            assert _run(["simulate", "--p300-peak-latency", "0.6",
                         "--out", str(out)]) == 2
        assert "p300_peak_latency" in capsys.readouterr().err
        assert not out.exists()

# Each stream role's own flags, and the argv of its required ones.
_ROLE_FLAGS = {"producer": ["--host", "--port", "--record", "--time-scale"],
               "consumer": ["--host", "--port", "--model", "--trials"]}
_ROLE_ARGV = {"producer": ["--port", "7", "--record", "r.eeg"],
              "consumer": ["--port", "7", "--model", "m.json"]}


class TestStreamRoles:
    """Each stream role parses the flags it reads and no other."""

    @pytest.mark.parametrize("role,flag", [
        ("producer", "--model"), ("producer", "--trials"),
        ("consumer", "--record"), ("consumer", "--time-scale")])
    def test_role_foreign_flag_is_a_usage_error(self, role, flag, capsys):
        # refused by the parser, before a file is read or a socket opened
        assert _run(["stream", role] + _ROLE_ARGV[role] + [flag, "1"]) == 1
        assert (f"unrecognized arguments: {flag} 1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("role", sorted(_ROLE_FLAGS))
    def test_help_lists_the_role_flags(self, role, capsys):
        with pytest.raises(SystemExit):
            _run(["stream", role, "--help"])
        listed = re.findall(r"^ +(?:-h, )?(--[\w-]+)",
                            capsys.readouterr().out, re.M)
        assert listed == ["--help"] + _ROLE_FLAGS[role]

    @pytest.mark.parametrize("role,key,value", [
        ("producer", "host", "::1"), ("producer", "port", 9),
        ("producer", "record", "c.eeg"), ("producer", "time_scale", 0.5),
        ("consumer", "host", "::1"), ("consumer", "port", 9),
        ("consumer", "model", "c.json"), ("consumer", "trials", 5)])
    def test_config_key_of_a_role_loads(self, role, key, value, tmp_path):
        # a required flag must still be given, and then wins
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ["stream", role, "--config", str(cfg)] + _ROLE_ARGV[role]
        parser = cli.build_parser()
        args = parser.parse_args(cli._apply_config_file(parser, argv))
        flag = "--" + key.replace("_", "-")
        if flag in argv:
            value = type(value)(argv[argv.index(flag) + 1])
        assert getattr(args, key) == value
        assert args.handler is {"producer": cli._stream_produce,
                                "consumer": cli._stream_consume}[role]


class TestStreamLoopback:
    def test_consumer_recovers_selections(self, stream_assets, capsys):
        rc = _consume_with_producer(stream_assets["record"],
                                    stream_assets["model"])
        assert rc == 0
        stdout = capsys.readouterr().out
        lines = [l for l in stdout.splitlines() if l.startswith("selection")]
        # 2 sessions x 6 runs form 4 three-trial votes over targets 0, 0, 1, 1
        assert len(lines) == 4
        assert lines[0] == ("selection 1: image 0 (house) -> "
                            "Take me to my house")
        assert lines[1].startswith("selection 2: image 0")
        assert lines[2].startswith("selection 3: image 1")
        assert lines[3].startswith("selection 4: image 1")

    def test_time_scale_does_not_change_decisions(self, stream_assets, capsys):
        rc = _consume_with_producer(stream_assets["record"],
                                    stream_assets["model"])
        assert rc == 0
        instant = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("selection")]
        rc = _consume_with_producer(stream_assets["record"],
                                    stream_assets["model"],
                                    extra_producer=["--time-scale", "0.01"])
        assert rc == 0
        paced = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("selection")]
        assert paced == instant

    def test_producer_paces_each_block_by_its_length(self, tmp_path,
                                                     monkeypatch):
        # 300 samples: two 128-sample blocks, then a last block of 44
        record = core.EegRecord(core.ChannelSet(("Cz", "Pz")),
                                core.DEFAULT_RATE, np.ones((2, 300)))
        path = tmp_path / "short.eegs"
        acquisition.save_record(record, path)
        slept = []
        monkeypatch.setattr(cli.time, "sleep", slept.append)
        port = _free_port()
        producer = threading.Thread(
            target=_run, args=(["stream", "producer", "--port", str(port),
                                "--record", str(path), "--time-scale", "2"],),
            daemon=True)
        producer.start()
        deadline = time.monotonic() + 10.0
        while True:
            try:
                conn = socket.create_connection(("127.0.0.1", port))
                break
            except ConnectionRefusedError:  # the producer had not bound yet
                assert time.monotonic() < deadline
                threading.Event().wait(0.05)  # time.sleep is patched
        with conn:
            got = acquisition.decode_record(iter(lambda: conn.recv(4096), b""))
        producer.join(timeout=10.0)
        assert got.samples.tobytes() == record.samples.tobytes()
        assert slept == [2 * 128 / 128.0, 2 * 128 / 128.0, 2 * 44 / 128.0]

    def test_trailing_trials_reported(self, stream_assets, capsys):
        # 12 runs grouped in fives: two votes, two leftover runs
        rc = _consume_with_producer(stream_assets["record"],
                                    stream_assets["model"], trials=5)
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "ignored 2 trailing trial(s)" in stdout

    def test_trials_below_one_is_a_usage_error(self, stream_assets, capsys):
        for trials in ("0", "-1"):
            assert _run(["stream", "consumer", "--port", str(_free_port()),
                         "--model", str(stream_assets["model"]),
                         "--trials", trials]) == 1
            assert "--trials" in capsys.readouterr().err

    def test_run_missing_an_image_is_a_data_error(self, stream_assets,
                                                  tmp_path, capsys):
        record = acquisition.load_record(stream_assets["record"])
        gappy = tmp_path / "gappy.eegs"
        acquisition.save_record(record.with_markers(
            record.markers[:30] + record.markers[31:]), gappy)
        rc = _consume_with_producer(gappy, stream_assets["model"])
        assert rc == 2
        assert "not one flash per image" in capsys.readouterr().err


    def test_producer_closing_mid_frame_is_a_protocol_error(
            self, stream_assets, capsys):
        wire = acquisition.encode_record(
            acquisition.load_record(stream_assets["record"]),
            acquisition.DEFAULT_CHUNK)
        port, server = _serve_bytes_once(wire[:-3])  # inside the end frame
        rc = _run(["stream", "consumer", "--port", str(port),
                   "--model", str(stream_assets["model"])])
        server.join(timeout=10.0)
        assert rc == 4
        assert "stream ended mid-frame" in capsys.readouterr().err

    def test_model_channels_differ_from_the_stream(self, stream_assets,
                                                   tmp_path, capsys):
        # FC5 is corrupted and dropped from the stream; the model has all 14
        dirty = tmp_path / "dirty.eegs"
        assert _run(["simulate", "--out", str(dirty), "--seed", "3",
                     "--sessions-per-scenario", "2"]) == 0
        model = acquisition.load_model(stream_assets["model"])
        assert len(model.channels) == 14
        rc = _consume_with_producer(dirty, stream_assets["model"])
        assert rc == 2
        err = capsys.readouterr().err
        streamed = tuple(lab for lab in model.channels if lab != "FC5")
        assert f"model was trained on channels {model.channels}" in err
        assert f"online data yields {streamed}" in err

    def test_consumer_serves_the_trained_pipeline(self, ica_assets, capsys):
        rc = _consume_with_producer(ica_assets["record"], ica_assets["model"])
        assert rc == 0
        got = [l for l in capsys.readouterr().out.splitlines()
               if l.startswith("selection")]
        table = session.score_table(
            acquisition.load_model(ica_assets["model"]),
            acquisition.load_record(ica_assets["record"]))
        chosen = [session.vote(table[i:i + 3])[1]
                  for i in range(0, len(table), 3)]
        catalog = session.ObjectCatalog()
        assert got == [f"selection {i + 1}: image {c} ({catalog.label(c)}) "
                       f"-> {catalog.message(c)}" for i, c in enumerate(chosen)]

    def test_served_table_is_the_training_table(self, ica_assets):
        record = acquisition.load_record(ica_assets["record"])
        model = acquisition.load_model(ica_assets["model"])
        pipeline = features.PipelineConfig(nan_threshold=0.3, use_ica=True)
        assert model.pipeline == pipeline and "FC5" in model.channels
        dataset = features.dataset_from_scenario(record, pipeline=pipeline)
        trained = session.train_on_dataset(dataset, pipeline)
        assert trained == model
        want = session.trial_scores(
            dataset.provenance,
            session.score_vectors(trained, dataset.vectors, dataset.channels))
        got = session.score_table(model, record)
        assert got.tobytes() == want.tobytes()


# One value per timing and subject field that has a flag, each off its default.
_FIELD_VALUES = {
    "d_flash": 0.25, "d_no_flash": 0.15, "d_run_interval": 0.3, "d_inf": 2.5,
    "d_adapt": 8.0, "runs_per_session": 4, "sessions_per_scenario": 3,
    "background_rms": 9.0, "alpha_amp": 2.0, "p300_amp": 11.0,
    "p300_peak_latency": 0.35, "p300_width": 0.07, "blink_rate": 5.0,
    "blink_amp": 70.0, "nan_channel": "O1", "nan_fraction": 0.1,
    "latency_jitter_sd": 0.01, "constant_offset": 0.05,
}
_TIMING_FIELDS = {f.name for f in dataclasses.fields(cli.TimingConfig)}

# Each pipeline field: its flag's dest (the config key) and a value off its
# default.  The window's fields sit in the model file under "epoch_window".
_PIPELINE_VALUES = {
    "nan_threshold": ("nan_threshold", 0.3), "shrinkage": ("shrinkage", 0.02),
    "use_ica": ("ica", True), "start_offset": ("window_start", 2),
    "length": ("window_length", 60),
}
_WINDOW_FIELDS = [f.name for f in dataclasses.fields(features.EpochWindow)]
_PIPELINE_FIELDS = [
    f.name for f in dataclasses.fields(features.PipelineConfig)
    if f.name != "window"] + _WINDOW_FIELDS


class _Simulated(Exception):
    """Raised in place of simulating, past the point the configs are built."""


def _simulate_configs(monkeypatch, tmp_path, argv):
    """The configs `simulate` hands to the schedule and the subject, which
    is not simulated."""
    seen = {}

    def fake_schedule(timing, images, rng):
        seen.update(timing=timing)

    def fake_subject(schedule, params):
        seen.update(params=params)
        raise _Simulated

    monkeypatch.setattr(cli, "build_scenario_schedule", fake_schedule)
    monkeypatch.setattr(cli, "simulate_subject", fake_subject)
    with pytest.raises(_Simulated):
        _run(["simulate", "--out", str(tmp_path / "r.eegs")] + list(argv))
    return seen


def _evaluate_configs(monkeypatch, tmp_path, argv):
    """The configs `evaluate` hands to the evaluation, which is not run."""
    seen = {}

    def fake_evaluation(params, seed, timing, pipeline, **_):
        seen.update(params=params, timing=timing, pipeline=pipeline)
        phase = {"correct": 0, "total": 1, "accuracy": 0.0}
        return {"phase1": phase, "phase2": phase,
                "latency": {"per_selection_s": 0.0}}

    monkeypatch.setattr(cli, "run_full_evaluation", fake_evaluation)
    assert _run(["evaluate", "--report", str(tmp_path / "r.json")]
                + list(argv)) == 0
    return seen


class TestFieldFlags:
    """Timing and subject flags come from the fields of their dataclasses."""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", sorted(_FIELD_VALUES))
    def test_each_flag_lands_in_its_field(self, name, source, monkeypatch,
                                          tmp_path):
        value = _FIELD_VALUES[name]
        if source == "flag":
            argv = ["--" + name.replace("_", "-"), str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({name: value}))
            argv = ["--config", str(cfg)]
        if name == "constant_offset":  # evaluate sets its own offsets
            seen = _simulate_configs(monkeypatch, tmp_path, argv)
        else:
            seen = _evaluate_configs(monkeypatch, tmp_path, argv)
            assert seen["pipeline"] == features.PipelineConfig()
        timing, params = cli.TimingConfig(), cli.SubjectParams(seed=0)
        if name in _TIMING_FIELDS:
            timing = dataclasses.replace(timing, **{name: value})
        else:
            params = dataclasses.replace(params, **{name: value})
        assert seen["timing"] == timing
        assert seen["params"] == params

    def test_flag_groups_hold_exactly_the_field_flags(self, capsys):
        with pytest.raises(SystemExit):
            _run(["evaluate", "--help"])
        groups, current = {}, None
        for line in capsys.readouterr().out.splitlines():
            if line.endswith("overrides:"):
                current = groups.setdefault(line, [])
            elif not line.strip():
                current = None
            elif current is not None:
                current.append(line.split()[0])
        flags = [f for group in groups.values() for f in group]
        assert sorted(flags) == sorted("--" + n.replace("_", "-")
                                       for n in _FIELD_VALUES)
        assert groups["timing overrides:"] == [
            f for f in flags if f[2:].replace("-", "_") in _TIMING_FIELDS]

    @pytest.mark.parametrize("flag", ["--images", "--p300-topography"])
    def test_fields_without_a_flag(self, flag, tmp_path):
        assert _run(["evaluate", "--report", str(tmp_path / "r.json"),
                     flag, "12"]) == 1

    def test_seed_and_topography_are_not_subject_overrides(self, monkeypatch,
                                                           tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4}))
        seen = _evaluate_configs(monkeypatch, tmp_path,
                                 ["--config", str(cfg)])
        assert seen["params"] == cli.SubjectParams(seed=4)
        cfg.write_text(json.dumps({"p300_topography": [1.0] * 14}))
        assert _run(["evaluate", "--config", str(cfg),
                     "--report", str(tmp_path / "r.json")]) == 2

    def test_pipeline_flags_land_in_the_pipeline(self, monkeypatch, tmp_path):
        seen = _evaluate_configs(monkeypatch, tmp_path, [
            "--ica", "--shrinkage", "0.01", "--nan-threshold", "0.3",
            "--window-start", "2", "--window-length", "60"])
        assert seen["pipeline"] == features.PipelineConfig(
            window=features.EpochWindow(start_offset=2, length=60),
            nan_threshold=0.3, shrinkage=0.01, use_ica=True)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", _PIPELINE_FIELDS)
    def test_each_pipeline_flag_lands_in_its_model_key(self, name, source,
                                                       ica_assets, tmp_path):
        dest, value = _PIPELINE_VALUES[name]
        flag = "--" + dest.replace("_", "-")
        if source == "flag":
            argv = [flag] if value is True else [flag, str(value)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({dest: value}))
            argv = ["--config", str(cfg)]
        model = tmp_path / "m.json"
        assert _run(["train", "--record", str(ica_assets["record"]),
                     "--model", str(model)] + argv) == 0
        doc = json.loads(model.read_text())
        section = doc["epoch_window"] if name in _WINDOW_FIELDS else doc
        assert section[name] == value and type(section[name]) is type(value)
        if name in _WINDOW_FIELDS:
            want = features.PipelineConfig(window=dataclasses.replace(
                features.EpochWindow(), **{name: value}))
        else:
            want = features.PipelineConfig(**{name: value})
        loaded = acquisition.load_model(model)
        assert loaded.pipeline == want
        resaved = tmp_path / "again.json"
        acquisition.save_model(loaded, resaved)
        assert loaded == acquisition.load_model(resaved)
        assert resaved.read_bytes() == model.read_bytes()
