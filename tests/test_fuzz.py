"""Fuzz tests: mutated, truncated and spliced input fails only as documented.

A mutated online stream is refused with ProtocolError or decodes to a record
with no infinite sample; a mutated model file or `--config` file loads or is
refused with FormatError, and never with another exception.  No checksum
guards the wire, so a mutated sample value may still decode silently.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
