"""Fuzz tests: mutated, truncated and spliced input fails only as documented.

A mutated online stream is refused with ProtocolError or decodes to a record
with no infinite sample; a mutated model file or `--config` file loads or is
refused with FormatError, and never with another exception.  No checksum
guards the wire, so a mutated sample value may still decode silently.  A
command line of edge values ends in a documented exit code, and one that
fails writes no file.
"""
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from p300loop import acquisition, cli, dsp, features, scheduler, subject

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def _online_stream(seed):
    """Wire bytes of one simulated 3-trial online selection."""
    schedule = scheduler.build_online_trial_schedule(
        scheduler.TimingConfig(), 3, np.random.default_rng(seed),
        target=seed)
    record = subject.simulate_subject(schedule,
                                      subject.SubjectParams(seed=seed))
    return acquisition.encode_record(record, acquisition.DEFAULT_CHUNK)


@pytest.fixture(scope="module")
def streams():
    """Two online streams and the offset of each frame of the first."""
    wire = _online_stream(0)
    starts, offset = [], 0
    while offset < len(wire):
        starts.append(offset)
        offset += acquisition.decode_frame(wire, offset)[1]
    return wire, _online_stream(1), starts


def _mutated_bytes(data, draw, hot=()):
    """`data` with 1-3 bytes replaced, half of them, given `hot`, within
    20 bytes after a hot offset; or with a span deleted; or cut short."""
    data = bytearray(data)
    kind = draw(st.sampled_from(["replace", "delete", "truncate"]))
    if kind == "replace":
        anywhere = st.integers(0, len(data) - 1)
        near_hot = st.sampled_from(hot or [0]).flatmap(
            lambda start: st.integers(start, min(start + 20, len(data) - 1)))
        for _ in range(draw(st.integers(1, 3))):
            data[draw(anywhere | near_hot)] = draw(st.integers(0, 255))
    elif kind == "delete":
        start = draw(st.integers(0, len(data) - 1))
        del data[start:start + draw(st.integers(1, 64))]
    else:
        del data[draw(st.integers(0, len(data) - 1)):]
    return bytes(data)


class TestStreamFuzz:
    # a mutated float32 may be a signaling NaN: it decodes as a dropped
    # sample, and no numeric warning escapes the decoder
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_refused_or_finite(self, streams, data):
        wire, other, starts = streams
        kind = data.draw(st.sampled_from(["mutate", "splice"]))
        if kind == "mutate":
            mutant = _mutated_bytes(wire, data.draw, starts)
        else:  # the head of one stream, then the tail of another
            mutant = (wire[:data.draw(st.integers(0, len(wire)))]
                      + other[data.draw(st.integers(0, len(other))):])
        cut = data.draw(st.integers(0, len(mutant)))
        try:
            record = acquisition.decode_record([mutant[:cut], mutant[cut:]])
        except acquisition.ProtocolError:
            return
        assert not np.isinf(record.samples).any()
        # a stream cut short has lost its end frame
        assert not wire.startswith(mutant) or mutant == wire


def _json_mutant(doc, draw):
    """`doc` with one key dropped, added or given another JSON value, or
    one item of a list value replaced; or another JSON value whole."""
    doc = json.loads(json.dumps(doc))
    kind = draw(st.sampled_from(["drop", "add", "set", "item", "whole"]))
    if kind == "whole":
        return draw(_JSON)
    if kind == "add":
        doc[draw(st.text(max_size=12))] = draw(_JSON)
        return doc
    key = draw(st.sampled_from(sorted(doc)))
    if kind == "drop":
        del doc[key]
    elif kind == "item" and isinstance(doc[key], list) and doc[key]:
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(_JSON)
    elif kind == "item" and isinstance(doc[key], dict):
        doc[key][draw(st.sampled_from(sorted(doc[key])))] = draw(_JSON)
    else:
        doc[key] = draw(_JSON)
    return doc


def _mutant_file(path, text, draw):
    """Write a byte-level or a JSON-level mutant of `text` to `path`."""
    if draw(st.booleans()):
        path.write_bytes(_mutated_bytes(text.encode("utf-8"), draw))
    else:
        path.write_text(json.dumps(_json_mutant(json.loads(text), draw)),
                        encoding="utf-8")


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A valid model file of 2 channels x 65 samples, and a scratch path."""
    rng = np.random.default_rng(3)
    n = 2 * features.EpochWindow().length
    model = acquisition.ModelFile(
        weights=rng.normal(size=n), bias=0.25,
        scaling=dsp.ScalingParams(mins=-rng.random(n), maxes=rng.random(n)),
        channels=("Cz", "Pz"), pipeline=features.PipelineConfig())
    root = tmp_path_factory.mktemp("fuzz-model")
    acquisition.save_model(model, root / "model.json")
    return (root / "model.json").read_text(encoding="utf-8"), root / "m.json"


class TestModelFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_loads_or_is_a_format_error(self, model_file, data):
        text, path = model_file
        _mutant_file(path, text, data.draw)
        try:
            model = acquisition.load_model(path)
        except acquisition.FormatError:
            return
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias)


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    """A valid config text of keys of several flag types, and a path."""
    text = json.dumps({"seed": 5, "sessions_per_scenario": 2,
                       "p300_amp": 3.5, "ica": True, "model": "m.json",
                       "time_scale": 0.5})
    return text, tmp_path_factory.mktemp("fuzz-config") / "cfg.json"


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_applies_or_is_a_format_error(self, config_file, data):
        text, path = config_file
        _mutant_file(path, text, data.draw)
        parser = cli.build_parser()
        try:
            rest = cli._apply_config_file(
                parser, ["simulate", "--config", str(path), "--out", "x"])
        except acquisition.FormatError:
            return
        assert rest == ["simulate", "--out", "x"]
        parser.parse_args(rest)  # an accepted default parses


# Typed edge values of a drawn flag: a str flag gets a missing path or "".
_EDGE_VALUES = {
    float: ["0", "-1", "1e9", "1e300", "nan", "inf", "-inf"],
    int: ["0", "-1", str(10**9), str(2**63)],
}

# Every leaf parser but the stream roles, which open sockets, by its argv
# prefix (its prog less the program name).
_LEAVES = {tuple(leaf.prog.split()[1:]): leaf
           for leaf in cli.build_parser().command_parsers
           if "stream" not in leaf.prog}


@st.composite
def _command_lines(draw):
    """(argv prefix, up to 4 of its leaf's flags with edge values); "{out}"
    in a value stands for the example's output directory."""
    prefix = draw(st.sampled_from(sorted(_LEAVES)))
    actions = [action for action in _LEAVES[prefix]._actions
               if action.option_strings and action.dest != "help"]
    flags = []
    for action in draw(st.lists(st.sampled_from(actions), max_size=4,
                                unique_by=lambda action: action.dest)):
        flags.append(action.option_strings[0])
        if action.nargs != 0:
            flags.append(draw(st.sampled_from(_EDGE_VALUES.get(
                action.type, ["{out}/missing", ""]))))
    return prefix, flags


@pytest.fixture(scope="module")
def fuzz_record(tmp_path_factory):
    """A 2-session record for `train` and `inspect` to read."""
    path = tmp_path_factory.mktemp("fuzz-cli") / "two.eeg"
    assert cli.main(["simulate", "--sessions-per-scenario", "2",
                     "--out", str(path)]) == 0
    return str(path)


def _fixed_argv(prefix, record, out):
    """(flags before the drawn ones, which a drawn flag may override; flags
    after them, which keep each run cheap)."""
    return {("simulate",): (["--out", f"{out}/r.eeg"], []),
            ("train",): (["--record", record, "--model", f"{out}/m.json"], []),
            ("evaluate",): (["--report", f"{out}/r.json"],
                            ["--reps-per-object", "1"]),
            ("inspect",): (["--record", record], [])}[prefix]


class TestCliFuzz:
    # each example below once asked for gigabytes or ended in a traceback
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.filterwarnings("error::UserWarning")
    @settings(max_examples=100, deadline=None)
    @example(command=(("simulate",), ["--blink-rate", "1e9"]))
    @example(command=(("evaluate",), ["--trials", str(10**9)]))
    @example(command=(("simulate",), ["--d-inf", "1e300"]))
    @given(command=_command_lines())
    def test_exits_with_a_documented_code(self, fuzz_record, command):
        prefix, flags = command
        with tempfile.TemporaryDirectory() as out:
            head, tail = _fixed_argv(prefix, fuzz_record, out)
            argv = [*prefix, *head, *(f.format(out=out) for f in flags),
                    *tail]
            code = cli.main(argv)
            assert code in {0, 1, 2, 3, 4}, argv
            assert code == 0 or not os.listdir(out), argv
