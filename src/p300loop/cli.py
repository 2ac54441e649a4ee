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

import numpy as np

from . import acquisition, ica, session
from .acquisition import (
    RECV_BYTES,
    FormatError,
    ProtocolError,
    decode_record,
    encode_frame,
    load_model,
    load_record,
    save_model,
    save_record,
    stream_record,
    write_whole,
)
from .core import scalar_fields
from .features import EpochWindow, PipelineConfig, dataset_from_scenario
from .scheduler import TimingConfig, build_scenario_schedule, durations
from .session import ObjectCatalog, run_full_evaluation, score_table, votes
from .subject import SubjectParams, simulate_subject

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_PROTOCOL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exit(2), and
    matches a flag by its whole name only.  Every parser is one, the
    `--config` probe too, so no two of them can disagree about a prefix."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _flag_fields(*classes) -> dict:
    """The flag fields of config dataclasses, by dest (a field's "flag"
    metadata, or else its name): those with a scalar default, but `seed`."""
    return {f.metadata.get("flag", f.name): f for cls in classes
            for f in scalar_fields(cls) if f.name != "seed"}


def _add_field_flags(parser, title: str, *classes) -> None:
    """One flag per flag field of `classes`, unset by default; a bool field's
    is a switch."""
    group = parser.add_argument_group(title)
    for dest, f in _flag_fields(*classes).items():
        kind = ({"action": "store_true"} if type(f.default) is bool
                else {"type": type(f.default)})
        group.add_argument("--" + dest.replace("_", "-"), default=None,
                           help=f.metadata.get("help"), **kind)


def _overridden(cls, values: dict, **fixed):
    """Build a config dataclass from its defaults, the flag fields set in
    `values`, then `fixed`."""
    overrides = {f.name: values[dest] for dest, f in _flag_fields(cls).items()
                 if values.get(dest) is not None}
    return cls(**{**overrides, **fixed})


def _pipeline_from(args) -> PipelineConfig:
    return _overridden(PipelineConfig, vars(args),
                       window=_overridden(EpochWindow, vars(args)))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="p300loop",
                     description="Closed-loop P300 selection engine")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of flag defaults (dest names, e.g. "
                             '"p300_amp"); explicit flags win')
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="synthesize a training scenario recording")
    p_sim.set_defaults(handler=cmd_simulate)
    p_sim.add_argument("--out", required=True, help="record file to write")
    p_sim.add_argument("--seed", type=int, default=0)
    _add_field_flags(p_sim, "timing overrides", TimingConfig)
    _add_field_flags(p_sim, "subject overrides", SubjectParams)

    p_train = sub.add_parser("train", help="fit a model from a recorded scenario")
    p_train.set_defaults(handler=cmd_train)
    p_train.add_argument("--record", required=True)
    p_train.add_argument("--model", required=True, help="model file to write")
    p_train.add_argument("--seed", type=int, default=0,
                         help="no effect: training draws nothing at random")
    _add_field_flags(p_train, "pipeline flags", PipelineConfig, EpochWindow)

    p_eval = sub.add_parser("evaluate", help="run the two-phase closed-loop evaluation")
    p_eval.set_defaults(handler=cmd_evaluate)
    p_eval.add_argument("--report", required=True, help="report file to write")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--reps-per-object", type=int, default=session.DEFAULT_REPS_PER_OBJECT)
    p_eval.add_argument("--trials", type=int, default=session.DEFAULT_TRIALS)
    p_eval.add_argument("--mismatch", type=float, default=session.DEFAULT_MISMATCH_S)
    _add_field_flags(p_eval, "timing overrides", TimingConfig)
    _add_field_flags(p_eval, "subject overrides", SubjectParams)
    _add_field_flags(p_eval, "pipeline flags", PipelineConfig, EpochWindow)

    roles = sub.add_parser("stream", help="serve or consume a live record stream"
                           ).add_subparsers(dest="role", required=True)
    p_prod = roles.add_parser("producer", help="serve a record file")
    p_cons = roles.add_parser("consumer", help="score a served record")
    for role, handler in ((p_prod, _stream_produce), (p_cons, _stream_consume)):
        role.set_defaults(handler=handler)
        role.add_argument("--host", default="127.0.0.1")
        role.add_argument("--port", type=int, required=True)
    p_prod.add_argument("--record", required=True, help="record file to serve")
    p_prod.add_argument("--time-scale", type=float, default=0.0,
                        help="1.0 = real time, 0 = as fast as possible")
    p_cons.add_argument("--model", required=True, help="model file to serve")
    p_cons.add_argument("--trials", type=int, default=session.DEFAULT_TRIALS)

    p_ins = sub.add_parser("inspect", help="summarize a record or model file")
    p_ins.set_defaults(handler=cmd_inspect)
    p_ins.add_argument("--record")
    p_ins.add_argument("--model")

    parser.command_parsers = [p_sim, p_train, p_eval, p_prod, p_cons, p_ins]
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    timing = _overridden(TimingConfig, vars(args))
    params = _overridden(SubjectParams, vars(args), seed=args.seed)
    d_run, d_session, d_scenario = durations(timing)
    print(f"d_run = {d_run:g} s, d_session = {d_session:g} s, "
          f"d_scenario = {d_scenario:g} s")
    rng = np.random.default_rng(args.seed)
    schedule = build_scenario_schedule(timing, None, rng)
    record = simulate_subject(schedule, params)
    save_record(record, args.out)
    print(f"wrote {args.out}: {record.n_channels} channels x "
          f"{record.n_samples} samples, {len(record.markers)} markers "
          f"({(record.markers.target == 1).sum()} targets), seed {args.seed}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    pipeline = _pipeline_from(args)
    record = load_record(args.record)
    dataset = dataset_from_scenario(record, pipeline=pipeline)
    model = session.train_on_dataset(dataset, pipeline)
    scores = session.score_vectors(model, dataset.vectors, dataset.channels)
    auc = session.cross_validated_auc(dataset, pipeline)
    save_model(model, args.model)  # last: a failed train writes no file
    print(f"trained on {dataset.n_epochs} epochs "
          f"({dataset.n_targets} targets), {dataset.feature_size} features")
    print(f"cross-validated AUC = {auc:.4f}")
    print(f"score range on training data: [{scores.min():.4f}, {scores.max():.4f}]")
    print(f"wrote {args.model}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    if min(args.trials, args.reps_per_object) < 1:
        raise UsageError("evaluate needs --trials and --reps-per-object of "
                         "at least 1")
    if not np.isfinite(args.mismatch):
        raise UsageError("evaluate needs a finite --mismatch")
    if args.constant_offset is not None:  # a flag of simulate's, not its own
        raise UsageError("evaluate takes no --constant-offset: it offsets "
                         "training by 0 and both phases by --mismatch")
    timing = _overridden(TimingConfig, vars(args))
    params = _overridden(SubjectParams, vars(args), seed=args.seed)
    pipeline = _pipeline_from(args)
    report = run_full_evaluation(
        params, seed=args.seed, timing=timing, pipeline=pipeline,
        n_trials=args.trials, reps_per_object=args.reps_per_object,
        mismatch=args.mismatch)
    write_whole(args.report, (json.dumps(report, indent=1, allow_nan=False)
                              + "\n").encode("utf-8"))
    p1, p2 = report["phase1"], report["phase2"]
    print(f"phase 1 (mismatch, training orders): {p1['correct']}/{p1['total']} "
          f"correct ({100 * p1['accuracy']:.2f}%)")
    print(f"phase 2 (retrained, fresh orders):   {p2['correct']}/{p2['total']} "
          f"correct ({100 * p2['accuracy']:.2f}%)")
    print(f"per-selection latency: {report['latency']['per_selection_s']:.1f} s")
    print(f"wrote {args.report}")
    return EXIT_OK


def _stream_produce(args) -> int:
    record = load_record(args.record)
    with socket.create_server((args.host, args.port)) as server:
        # flushed: a script waits for this line before it starts a consumer
        print(f"serving {args.record} on {args.host}:{args.port}", flush=True)
        conn, peer = server.accept()
        with conn:
            print(f"consumer connected from {peer[0]}:{peer[1]}")
            for frame in stream_record(record):
                conn.sendall(encode_frame(frame))
                if args.time_scale > 0 and isinstance(frame, acquisition.SamplesFrame):
                    time.sleep(len(frame.samples) / record.rate * args.time_scale)
    print(f"streamed {record.n_samples} samples, {len(record.markers)} markers")
    return EXIT_OK


def _stream_consume(args) -> int:
    if args.trials < 1:
        raise UsageError("consumer needs --trials of at least 1")
    model = load_model(args.model)
    catalog = ObjectCatalog()
    with socket.create_connection((args.host, args.port)) as conn:
        record = decode_record(iter(lambda: conn.recv(RECV_BYTES), b""))
    print(f"received {record.n_samples} samples, {len(record.markers)} markers")
    selections, n_left = votes(score_table(model, record), args.trials)
    for i, (_, chosen) in enumerate(selections, 1):
        print(f"selection {i}: image {chosen} "
              f"({catalog.label(chosen)}) -> {catalog.message(chosen)}")
    if n_left:
        print(f"ignored {n_left} trailing trial(s) short of a vote")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    if not args.record and not args.model:
        raise UsageError("inspect needs --record and/or --model")
    if args.record:
        record = load_record(args.record)
        nan_counts = {lab: count for lab, count in zip(
            record.channels, np.isnan(record.samples).sum(axis=1).tolist())
            if count}
        print(f"record {args.record}: {record.n_channels} channels @ "
              f"{record.rate:g} Hz, {record.n_samples} samples "
              f"({record.duration_s:.1f} s)")
        print(f"  markers: {len(record.markers)} "
              f"({(record.markers.target == 1).sum()} targets)")
        print(f"  channels: {', '.join(record.channels)}")
        if nan_counts:
            print(f"  NaN samples: {nan_counts}")
    if args.model:
        model = load_model(args.model)
        print(f"model {args.model}: {len(model.weights)} weights = "
              f"{len(model.channels)} channels x {model.window.length} samples")
        print(f"  bias {model.bias:.6g}, format version {model.format_version}")
        print(f"  {model.pipeline}")
    return EXIT_OK


def _apply_config_file(parser, argv) -> list:
    """Seed parser defaults from the --config JSON found anywhere in `argv`,
    and return `argv` less --config; explicit flags still win.  Each key
    must be a flag's dest, its value of that flag's JSON type."""
    probe = _Parser(add_help=False)
    probe.add_argument("--config", type=str, default=None)
    known, rest = probe.parse_known_args(argv)
    if not known.config:
        return rest
    try:
        with open(known.config, encoding="utf-8") as fh:
            defaults = json.load(fh)
    except ValueError as exc:  # bytes that are not UTF-8, or not JSON
        raise FormatError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(defaults, dict):
        raise FormatError("config file must hold a JSON object")
    kinds = {action.dest: bool if action.nargs == 0 else action.type or str
             for sub in parser.command_parsers
             for action in sub._actions
             if action.option_strings and action.dest != "help"}
    for key, value in defaults.items():
        kind = kinds.get(key)
        if kind is None:
            raise FormatError(f"config key {key!r} is the dest of no flag")
        if (isinstance(value, bool) != (kind is bool) or not isinstance(
                value, (int, float) if kind is float else kind)):
            raise FormatError(f"config key {key!r} needs a JSON "
                              f"{kind.__name__}, not {value!r}")
        defaults[key] = kind(value)
    for sub in parser.command_parsers:
        sub.set_defaults(**defaults)
    return rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(parser, argv))
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (ica.RankError, np.linalg.LinAlgError, RuntimeWarning) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, ValueError, OSError, KeyError, IndexError,
            OverflowError, UserWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
