"""Command-line harness: simulate, train, evaluate, inspect, and stream.

Exit codes: 0 success, 1 usage, 2 data/format, 3 numeric failure,
4 protocol violation.
"""
from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import acquisition, ica, lda, session
from .acquisition import (
    FormatError,
    FrameReader,
    ProtocolError,
    encode_frame,
    load_model,
    load_record,
    reassemble,
    save_model,
    save_record,
    stream_record,
)
from .features import EpochWindow, dataset_from_scenario
from .scheduler import TimingConfig, build_scenario_schedule, durations
from .session import (
    ObjectCatalog,
    PipelineConfig,
    majority_vote,
    run_full_evaluation,
    score_vectors,
    trial_winner,
)
from .subject import SubjectParams, simulate_subject

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_PROTOCOL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exit(2)."""

    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Everything one subcommand invocation needs, flags over config file."""

    command: str
    args: argparse.Namespace

    @property
    def seed(self) -> int:
        return self.args.seed


def _add_timing_flags(parser) -> None:
    group = parser.add_argument_group("timing overrides")
    group.add_argument("--d-flash", type=float, default=None)
    group.add_argument("--d-no-flash", type=float, default=None)
    group.add_argument("--d-run-interval", type=float, default=None)
    group.add_argument("--d-inf", type=float, default=None)
    group.add_argument("--d-adapt", type=float, default=None)
    group.add_argument("--runs-per-session", type=int, default=None)
    group.add_argument("--sessions-per-scenario", type=int, default=None)


def _add_subject_flags(parser) -> None:
    group = parser.add_argument_group("subject overrides")
    group.add_argument("--background-rms", type=float, default=None)
    group.add_argument("--alpha-amp", type=float, default=None)
    group.add_argument("--p300-amp", type=float, default=None)
    group.add_argument("--p300-peak-latency", type=float, default=None)
    group.add_argument("--p300-width", type=float, default=None)
    group.add_argument("--blink-rate", type=float, default=None)
    group.add_argument("--blink-amp", type=float, default=None)
    group.add_argument("--nan-channel", type=str, default=None)
    group.add_argument("--nan-fraction", type=float, default=None)
    group.add_argument("--latency-jitter-sd", type=float, default=None)
    group.add_argument("--constant-offset", type=float, default=None)


def _add_pipeline_flags(parser) -> None:
    group = parser.add_argument_group("pipeline flags")
    group.add_argument("--ica", action="store_true", default=None,
                       help="enable ICA artifact cleaning")
    group.add_argument("--shrinkage", type=float, default=None)
    group.add_argument("--nan-threshold", type=float, default=None)
    group.add_argument("--window-start", type=int, default=None)
    group.add_argument("--window-length", type=int, default=None)


def _overridden(cls, args: argparse.Namespace, mapping: dict):
    """Build a config dataclass from defaults plus any flags that were set."""
    overrides = {}
    for flag, field_name in mapping.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field_name] = value
    return cls(**overrides)


_TIMING_MAP = {
    "d_flash": "d_flash", "d_no_flash": "d_no_flash",
    "d_run_interval": "d_run_interval", "d_inf": "d_inf",
    "d_adapt": "d_adapt", "runs_per_session": "runs_per_session",
    "sessions_per_scenario": "sessions_per_scenario",
}

_SUBJECT_MAP = {
    "background_rms": "background_rms", "alpha_amp": "alpha_amp",
    "p300_amp": "p300_amp", "p300_peak_latency": "p300_peak_latency",
    "p300_width": "p300_width", "blink_rate": "blink_rate",
    "blink_amp": "blink_amp", "nan_channel": "nan_channel",
    "nan_fraction": "nan_fraction", "latency_jitter_sd": "latency_jitter_sd",
    "constant_offset": "constant_offset",
}


def _timing_from(args) -> TimingConfig:
    return _overridden(TimingConfig, args, _TIMING_MAP)


def _subject_from(args) -> SubjectParams:
    params = _overridden(SubjectParams, args, _SUBJECT_MAP)
    return replace(params, seed=args.seed)


def _pipeline_from(args) -> PipelineConfig:
    window = EpochWindow(
        start_offset=args.window_start if getattr(args, "window_start", None) is not None else 0,
        length=args.window_length if getattr(args, "window_length", None) is not None else 65,
    )
    kwargs = {"window": window}
    if getattr(args, "nan_threshold", None) is not None:
        kwargs["nan_threshold"] = args.nan_threshold
    if getattr(args, "shrinkage", None) is not None:
        kwargs["shrinkage"] = args.shrinkage
    if getattr(args, "ica", None):
        kwargs["use_ica"] = True
    return PipelineConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="p300loop",
                     description="Closed-loop P300 selection engine")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of flag defaults (dest names, e.g. "
                             '"p300_amp"); explicit flags win')
    sub = parser.add_subparsers(dest="command", required=True)
    parser.command_parsers = {}

    p_sim = sub.add_parser("simulate", help="synthesize a training scenario recording")
    p_sim.add_argument("--out", required=True, help="record file to write")
    p_sim.add_argument("--seed", type=int, default=0)
    _add_timing_flags(p_sim)
    _add_subject_flags(p_sim)

    p_train = sub.add_parser("train", help="fit a model from a recorded scenario")
    p_train.add_argument("--record", required=True)
    p_train.add_argument("--model", required=True, help="model file to write")
    p_train.add_argument("--seed", type=int, default=0)
    _add_pipeline_flags(p_train)

    p_eval = sub.add_parser("evaluate", help="run the two-phase closed-loop evaluation")
    p_eval.add_argument("--report", required=True, help="report file to write")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--reps-per-object", type=int, default=session.DEFAULT_REPS_PER_OBJECT)
    p_eval.add_argument("--trials", type=int, default=session.DEFAULT_TRIALS)
    p_eval.add_argument("--mismatch", type=float, default=session.DEFAULT_MISMATCH_S)
    _add_timing_flags(p_eval)
    _add_subject_flags(p_eval)
    _add_pipeline_flags(p_eval)

    p_stream = sub.add_parser("stream", help="serve or consume a live record stream")
    p_stream.add_argument("role", choices=["producer", "consumer"])
    p_stream.add_argument("--host", default="127.0.0.1")
    p_stream.add_argument("--port", type=int, required=True)
    p_stream.add_argument("--record", help="record file (producer)")
    p_stream.add_argument("--model", help="model file (consumer)")
    p_stream.add_argument("--trials", type=int, default=session.DEFAULT_TRIALS)
    p_stream.add_argument("--time-scale", type=float, default=0.0,
                          help="1.0 = real time, 0 = as fast as possible")
    p_stream.add_argument("--chunk", type=int, default=acquisition.DEFAULT_CHUNK)
    p_stream.add_argument("--seed", type=int, default=0)

    p_ins = sub.add_parser("inspect", help="summarize a record or model file")
    p_ins.add_argument("--record")
    p_ins.add_argument("--model")
    p_ins.add_argument("--seed", type=int, default=0)

    parser.command_parsers = {"simulate": p_sim, "train": p_train,
                              "evaluate": p_eval, "stream": p_stream,
                              "inspect": p_ins}
    # accepted before or after the subcommand
    for p_cmd in parser.command_parsers.values():
        p_cmd.add_argument("--config", type=str, default=None,
                           help=argparse.SUPPRESS)
    return parser


def cmd_simulate(config: RunConfig) -> int:
    args = config.args
    timing = _timing_from(args)
    params = _subject_from(args)
    d_run, d_session, d_scenario = durations(timing)
    print(f"d_run = {d_run:g} s, d_session = {d_session:g} s, "
          f"d_scenario = {d_scenario:g} s")
    rng = np.random.default_rng(args.seed)
    schedule = build_scenario_schedule(timing, None, rng)
    record = simulate_subject(schedule, params)
    save_record(record, args.out)
    n_targets = sum(1 for ev in record.markers if ev.is_target)
    print(f"wrote {args.out}: {record.n_channels} channels x "
          f"{record.n_samples} samples, {len(record.markers)} markers "
          f"({n_targets} targets), seed {args.seed}")
    return EXIT_OK


def cmd_train(config: RunConfig) -> int:
    args = config.args
    pipeline = _pipeline_from(args)
    record = load_record(args.record)
    rng = np.random.default_rng(args.seed)
    dataset = dataset_from_scenario(
        record, window=pipeline.window, nan_threshold=pipeline.nan_threshold,
        use_ica=pipeline.use_ica, ica_rng=rng,
        ica_kurtosis_threshold=pipeline.ica_kurtosis_threshold,
        ica_frontal_fraction=pipeline.ica_frontal_fraction)
    model, scaled = session.train_with_features(dataset, pipeline)
    save_model(model, args.model)
    scores = scaled @ model.weights + model.bias
    lda_view = lda.LdaModel(w=model.weights, b=model.bias)
    j_value = lda.fisher_criterion(lda_view, scaled, dataset.labels)
    auc = session.cross_validated_auc(dataset, pipeline)
    print(f"trained on {dataset.n_epochs} epochs "
          f"({dataset.n_targets} targets), {dataset.feature_size} features")
    print(f"fisher J = {j_value:.4f}, cross-validated AUC = {auc:.4f}")
    print(f"score range on training data: [{scores.min():.4f}, {scores.max():.4f}]")
    print(f"wrote {args.model}")
    return EXIT_OK


def cmd_evaluate(config: RunConfig) -> int:
    args = config.args
    timing = _timing_from(args)
    params = _subject_from(args)
    pipeline = _pipeline_from(args)
    report = run_full_evaluation(
        params, seed=args.seed, timing=timing, pipeline=pipeline,
        n_trials=args.trials, reps_per_object=args.reps_per_object,
        mismatch=args.mismatch)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, allow_nan=False)
        fh.write("\n")
    p1, p2 = report["phase1"], report["phase2"]
    print(f"phase 1 (mismatch, training orders): {p1['correct']}/{p1['total']} "
          f"correct ({100 * p1['accuracy']:.2f}%)")
    print(f"phase 2 (retrained, fresh orders):   {p2['correct']}/{p2['total']} "
          f"correct ({100 * p2['accuracy']:.2f}%)")
    print(f"per-selection latency: {report['latency']['per_selection_s']:.1f} s")
    print(f"wrote {args.report}")
    return EXIT_OK


def cmd_stream(config: RunConfig) -> int:
    args = config.args
    if args.role == "producer":
        if not args.record:
            raise UsageError("producer needs --record")
        return _stream_produce(args)
    if not args.model:
        raise UsageError("consumer needs --model")
    return _stream_consume(args)


def _stream_produce(args) -> int:
    record = load_record(args.record)
    frames = stream_record(record, args.chunk)
    chunk_duration = args.chunk / record.rate
    with socket.create_server((args.host, args.port)) as server:
        print(f"serving {args.record} on {args.host}:{args.port}")
        conn, peer = server.accept()
        with conn:
            print(f"consumer connected from {peer[0]}:{peer[1]}")
            for frame in frames:
                conn.sendall(encode_frame(frame))
                if args.time_scale > 0 and isinstance(frame, acquisition.SamplesFrame):
                    time.sleep(chunk_duration * args.time_scale)
    print(f"streamed {record.n_samples} samples, {len(record.markers)} markers")
    return EXIT_OK


def _stream_consume(args) -> int:
    model = load_model(args.model)
    catalog = ObjectCatalog()
    reader = FrameReader()
    frames = []
    with socket.create_connection((args.host, args.port)) as conn:
        while True:
            data = conn.recv(65536)
            if not data:
                break
            frames.extend(reader.feed(data))
    if reader.pending_bytes:
        raise ProtocolError("stream ended mid-frame")
    record = reassemble(frames)
    print(f"received {record.n_samples} samples, {len(record.markers)} markers")

    # Scoring needs no labels; mark unknown targets non-target so the
    # segmentation path accepts live streams.
    if any(ev.is_target is None for ev in record.markers):
        record = record.with_markers(tuple(
            replace(ev, is_target=False) if ev.is_target is None else ev
            for ev in record.markers))

    pipeline = PipelineConfig(window=model.window)
    dataset = dataset_from_scenario(
        record, window=model.window, nan_threshold=pipeline.nan_threshold)
    if tuple(dataset.channels) != model.channels:
        raise FormatError("model channels do not match the received stream")
    scores = score_vectors(model, dataset.vectors)

    per_run = {}
    for (run, sess, img), value in zip(dataset.provenance, scores):
        per_run.setdefault((sess, run), {})[img] = value
    n_images = len(next(iter(per_run.values())))
    group = []
    selections = 0
    for key in sorted(per_run):
        by_image = per_run[key]
        if sorted(by_image) != list(range(n_images)):
            raise FormatError(f"run {key} is not one flash per image")
        group.append([by_image[img] for img in range(n_images)])
        if len(group) == args.trials:
            table = np.asarray(group)
            winners = [trial_winner(r) for r in table]
            chosen = majority_vote(winners, table)
            selections += 1
            print(f"selection {selections}: image {chosen} "
                  f"({catalog.label(chosen)}) -> {catalog.message(chosen)}")
            group = []
    if group:
        print(f"ignored {len(group)} trailing trial(s) short of a vote")
    return EXIT_OK


def cmd_inspect(config: RunConfig) -> int:
    args = config.args
    if not args.record and not args.model:
        raise UsageError("inspect needs --record and/or --model")
    if args.record:
        record = load_record(args.record)
        n_targets = sum(1 for ev in record.markers if ev.is_target)
        nan_counts = {
            lab: int(np.isnan(record.samples[i]).sum())
            for i, lab in enumerate(record.channels)
            if np.isnan(record.samples[i]).any()}
        print(f"record {args.record}: {record.n_channels} channels @ "
              f"{record.rate:g} Hz, {record.n_samples} samples "
              f"({record.duration_s:.1f} s)")
        print(f"  markers: {len(record.markers)} ({n_targets} targets)")
        print(f"  channels: {', '.join(record.channels)}")
        if nan_counts:
            print(f"  NaN samples: {nan_counts}")
    if args.model:
        model = load_model(args.model)
        print(f"model {args.model}: {len(model.weights)} weights = "
              f"{len(model.channels)} channels x {model.window.length} samples")
        print(f"  bias {model.bias:.6g}, format version {model.format_version}, "
              f"ica {'present' if model.ica else 'absent'}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "stream": cmd_stream,
    "inspect": cmd_inspect,
}


def _apply_config_file(parser, argv):
    """Seed parser defaults from --config JSON; explicit flags still win."""
    probe = _Parser(add_help=False)
    probe.add_argument("--config", type=str, default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    with open(known.config, encoding="utf-8") as fh:
        defaults = json.load(fh)
    if not isinstance(defaults, dict):
        raise FormatError("config file must hold a JSON object")
    for sub in parser.command_parsers.values():
        sub.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        config = RunConfig(command=args.command, args=args)
        return _COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (ica.ConvergenceError, ica.RankError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, ValueError, OSError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
