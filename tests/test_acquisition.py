"""Wire protocol framing, incremental decoding, and file round trips."""
import errno
import json
import os
import stat
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from p300loop import acquisition as acq
from p300loop import core, dsp, features


def _sample_record(n=300, with_nan=True):
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(3, n))
    if with_nan:
        samples[1, 7] = np.nan
    events = (
        core.StimulusEvent(image_id=2, onset_sample=10, run_index=0,
                           session_index=0, is_target=True),
        core.StimulusEvent(image_id=5, onset_sample=150, run_index=1,
                           session_index=0, is_target=False),
        core.StimulusEvent(image_id=7, onset_sample=260, run_index=1,
                           session_index=2),
    )
    return core.EegRecord(core.ChannelSet(("AF3", "P8", "O1")), 128.0,
                          samples, events)


def _all_frame_kinds():
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(4, 3)).astype(np.float32)
    samples[2, 1] = np.nan
    return [
        acq.HeaderFrame(channel_count=3, rate=128.0, labels=("A", "B", "C")),
        acq.SamplesFrame(first_sample_index=12, samples=samples),
        acq.MarkerFrame(sample_index=40, image_id=11, run=2, session=9,
                        is_target=True),
        acq.MarkerFrame(sample_index=41, image_id=0, run=0, session=0,
                        is_target=None),
        acq.EndFrame(),
    ]


class TestFrameRoundTrip:
    @pytest.mark.parametrize("frame", _all_frame_kinds(),
                             ids=lambda f: type(f).__name__)
    def test_codec_round_trip(self, frame):
        wire = acq.encode_frame(frame)
        decoded, used = acq.decode_frame(wire)
        assert used == len(wire)
        assert decoded == frame
        # re-encoding reproduces the exact same bytes
        assert acq.encode_frame(decoded) == wire

    def test_encode_refuses_payload_over_the_cap(self):
        rows = (acq.MAX_PAYLOAD - 12) // 16 + 1
        frame = acq.SamplesFrame(first_sample_index=0,
                                 samples=np.zeros((rows, 4), np.float32))
        with pytest.raises(ValueError):
            acq.encode_frame(frame)
        fits = acq.SamplesFrame(first_sample_index=0,
                                samples=np.zeros((rows - 1, 4), np.float32))
        assert len(acq.encode_frame(fits)) == 9 + 12 + 16 * (rows - 1)

    def test_decode_reports_consumption_with_trailing_data(self):
        frame = acq.EndFrame()
        wire = acq.encode_frame(frame) + b"extra"
        decoded, used = acq.decode_frame(wire)
        assert decoded == frame
        assert used == len(wire) - 5

    def test_wire_prefix_layout(self):
        wire = acq.encode_frame(acq.EndFrame())
        assert wire[:4] == b"EEGS"
        assert wire[4] == acq.KIND_END
        assert wire == b"EEGS" + bytes([acq.KIND_END]) + (0).to_bytes(4, "little")

    def test_samples_store_float32(self):
        block = np.array([[0.1, 0.2]], dtype=np.float64)
        frame = acq.SamplesFrame(first_sample_index=0, samples=block)
        assert frame.samples.dtype == np.float32
        decoded, _ = acq.decode_frame(acq.encode_frame(frame))
        np.testing.assert_array_equal(decoded.samples,
                                      block.astype(np.float32))

    def test_header_label_count_enforced(self):
        frame = acq.HeaderFrame(channel_count=2, rate=128.0, labels=("A",))
        with pytest.raises(ValueError):
            acq.encode_frame(frame)

    def test_unencodable_object_rejected(self):
        with pytest.raises(TypeError):
            acq.encode_frame("not a frame")


class TestDecodeErrors:
    def test_incomplete_prefix(self):
        with pytest.raises(acq.IncompleteFrame):
            acq.decode_frame(b"EEG")

    def test_incomplete_payload(self):
        wire = acq.encode_frame(_all_frame_kinds()[0])
        with pytest.raises(acq.IncompleteFrame):
            acq.decode_frame(wire[:-1])

    def test_bad_magic(self):
        wire = bytearray(acq.encode_frame(acq.EndFrame()))
        wire[0] = ord("X")
        with pytest.raises(acq.ProtocolError):
            acq.decode_frame(bytes(wire))

    def test_unknown_kind(self):
        wire = bytearray(acq.encode_frame(acq.EndFrame()))
        wire[4] = 9
        with pytest.raises(acq.ProtocolError):
            acq.decode_frame(bytes(wire))

    def test_newer_major_version_rejected(self):
        frame = acq.HeaderFrame(channel_count=1, rate=128.0, labels=("A",),
                                version=(2, 0))
        with pytest.raises(acq.VersionError):
            acq.decode_frame(acq.encode_frame(frame))

    def test_newer_minor_version_accepted(self):
        frame = acq.HeaderFrame(channel_count=1, rate=128.0, labels=("A",),
                                version=(1, 7))
        decoded, _ = acq.decode_frame(acq.encode_frame(frame))
        assert decoded.version == (1, 7)

    def test_header_label_table_truncated(self):
        wire = bytearray(acq.encode_frame(
            acq.HeaderFrame(channel_count=1, rate=128.0, labels=("AB",))))
        # shorten the declared frame length so the label bytes fall outside
        wire[5:9] = (13).to_bytes(4, "little")
        with pytest.raises(acq.ProtocolError):
            acq.decode_frame(bytes(wire[:9 + 13]))

    def test_samples_size_inconsistencies(self):
        good = acq.encode_frame(acq.SamplesFrame(
            first_sample_index=0, samples=np.zeros((2, 3), dtype=np.float32)))
        # strip one byte from the float payload
        bad = bytearray(good[:-1])
        bad[5:9] = (len(bad) - 9).to_bytes(4, "little")
        with pytest.raises(acq.ProtocolError):
            acq.decode_frame(bytes(bad))
        # k = 0 blocks are meaningless
        empty = acq.MAGIC + bytes([acq.KIND_SAMPLES]) + (12).to_bytes(4, "little")
        empty += (0).to_bytes(8, "little") + (0).to_bytes(4, "little")
        with pytest.raises(acq.ProtocolError):
            acq.decode_frame(empty)

    def test_marker_payload_size_checked(self):
        wire = bytearray(acq.encode_frame(acq.MarkerFrame(
            sample_index=1, image_id=2, run=3, session=4, is_target=False)))
        wire.append(0)
        wire[5:9] = (len(wire) - 9).to_bytes(4, "little")
        with pytest.raises(acq.ProtocolError):
            acq.decode_frame(bytes(wire))

    def test_marker_target_byte_checked(self):
        wire = bytearray(acq.encode_frame(acq.MarkerFrame(
            sample_index=1, image_id=2, run=3, session=4, is_target=True)))
        wire[-1] = 7
        with pytest.raises(acq.ProtocolError):
            acq.decode_frame(bytes(wire))

    def test_end_frame_must_be_empty(self):
        wire = acq.MAGIC + bytes([acq.KIND_END]) + (1).to_bytes(4, "little") + b"x"
        with pytest.raises(acq.ProtocolError):
            acq.decode_frame(wire)


def _with_sample_bytes(record, channel, index, value) -> bytes:
    """The wire bytes of `record` with one sample's float32 bytes replaced
    by those of `value`, which the encoder itself refuses to write."""
    samples = record.samples.copy()
    samples[channel, index] = 12345.5  # exact in float32
    wire = acq.encode_record(record.with_samples(samples), 64)
    marker = np.float32(12345.5).tobytes()
    assert wire.count(marker) == 1
    return wire.replace(marker, np.array(value, "<f4").tobytes())


class TestHostileBytes:
    """Bytes that decode to values no record may hold are protocol errors."""

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                      float("-inf"), 0.0, -128.0])
    def test_header_rate_must_be_finite_and_positive(self, rate):
        frame = acq.HeaderFrame(channel_count=1, rate=rate, labels=("A",))
        with pytest.raises(acq.ProtocolError, match="rate"):
            acq.decode_frame(acq.encode_frame(frame))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_sample_rejected(self, value):
        rec = _sample_record()  # its NaN sample still decodes
        wire = _with_sample_bytes(rec, 2, 100, value)
        with pytest.raises(acq.ProtocolError, match="infinite"):
            acq.decode_record([wire])

    def test_reader_refuses_the_infinite_frame_as_it_arrives(self):
        # a live producer that sends +inf and keeps its socket open: the
        # frame fails as it is fed, not the stream once it ends
        reader = acq.FrameReader()
        header = acq.HeaderFrame(channel_count=1, rate=128.0, labels=("Fz",))
        assert reader.feed(acq.encode_frame(header)) == [header]
        block = acq.encode_frame(acq.SamplesFrame(
            first_sample_index=0, samples=np.full((1, 1), 12345.5)))
        marker = np.float32(12345.5).tobytes()
        assert block.count(marker) == 1
        with pytest.raises(acq.ProtocolError, match="infinite sample"):
            reader.feed(block.replace(marker, np.float32(np.inf).tobytes()))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, 1e308, -3.5e38])
    def test_encoder_refuses_what_the_decoder_rejects(self, value, tmp_path):
        # a value past float32's range is infinite on the wire; it once
        # encoded, and save_record wrote a file that load_record refused
        samples = _sample_record().samples.copy()
        samples[2, 100] = value
        rec = _sample_record().with_samples(samples)
        with np.errstate(over="ignore"):  # the frames' float32 cast
            with pytest.raises(ValueError, match="infinite as float32"):
                acq.encode_record(rec, 64)
            with pytest.raises(ValueError, match="infinite as float32"):
                acq.save_record(rec, tmp_path / "rec.eegs")
        assert not (tmp_path / "rec.eegs").exists()

    def test_undecodable_label_rejected(self):
        wire = bytearray(acq.encode_record(_sample_record(), 64))
        # prefix, the fixed header fields, the first label's length byte
        wire[9 + 12 + 1] = 0xFF
        with pytest.raises(acq.ProtocolError, match="label"):
            acq.decode_record([bytes(wire)])

    @pytest.mark.parametrize("marker, change, message", [
        (1, {"sample_index": 5}, "strictly increasing"),
        (2, {"sample_index": 300}, "beyond end"),
        (0, {"image_id": 12}, "image_id"),
    ])
    def test_marker_out_of_order_or_range_rejected(self, marker, change,
                                                   message):
        frames = acq.stream_record(_sample_record(), chunk=64)
        at = [i for i, f in enumerate(frames)
              if isinstance(f, acq.MarkerFrame)][marker]
        frames[at] = replace(frames[at], **change)
        wire = b"".join(acq.encode_frame(f) for f in frames)
        with pytest.raises(acq.ProtocolError, match=message):
            acq.decode_record([wire])


class TestFrameReader:
    def test_byte_at_a_time(self):
        frames = _all_frame_kinds()
        wire = b"".join(acq.encode_frame(f) for f in frames)
        reader = acq.FrameReader()
        got = []
        for i in range(len(wire)):
            got.extend(reader.feed(wire[i:i + 1]))
        assert got == frames
        assert reader.pending_bytes == 0

    def test_chunked_feed_matches_single_feed(self):
        frames = _all_frame_kinds()
        wire = b"".join(acq.encode_frame(f) for f in frames)
        rng = np.random.default_rng(2)
        reader = acq.FrameReader()
        got = []
        pos = 0
        while pos < len(wire):
            step = int(rng.integers(1, 17))
            got.extend(reader.feed(wire[pos:pos + step]))
            pos += step
        assert got == frames

    def test_pending_bytes_visible(self):
        reader = acq.FrameReader()
        assert reader.feed(b"EEGS") == []
        assert reader.pending_bytes == 4

    def test_oversized_payload_rejected_at_the_prefix(self):
        reader = acq.FrameReader()
        prefix = (b"EEGS" + bytes([acq.KIND_SAMPLES])
                  + (0xFFFFFFF0).to_bytes(4, "little"))
        with pytest.raises(acq.ProtocolError):
            reader.feed(prefix)
        assert reader.pending_bytes <= len(prefix)
        with pytest.raises(acq.ProtocolError):
            acq.decode_frame(prefix)

    def test_largest_allowed_payload_still_pending(self):
        reader = acq.FrameReader()
        prefix = (b"EEGS" + bytes([acq.KIND_SAMPLES])
                  + acq.MAX_PAYLOAD.to_bytes(4, "little"))
        assert reader.feed(prefix + bytes(100)) == []
        assert reader.pending_bytes == len(prefix) + 100

    def test_whole_record_in_one_feed_matches_random_chunks(self):
        wire = b"".join(acq.encode_frame(f) for f in
                        acq.stream_record(_sample_record(n=3000), chunk=7))
        wire += acq.encode_frame(acq.HeaderFrame(
            channel_count=1, rate=128.0, labels=("Cz",)))[:-2]
        whole = acq.FrameReader()
        want = whole.feed(wire)
        rng = np.random.default_rng(5)
        chunked = acq.FrameReader()
        got = []
        pos = 0
        while pos < len(wire):
            step = int(rng.integers(1, 4097))
            got.extend(chunked.feed(wire[pos:pos + step]))
            pos += step
        assert len(want) > 400
        assert got == want
        assert chunked.pending_bytes == whole.pending_bytes > 0
        # decode_record on the same chunks: mid-frame at the cut header,
        # the record of one whole chunk without it
        steps = np.random.default_rng(6).integers(1, 4097, size=len(wire))
        bounds = np.concatenate([[0], np.cumsum(steps)])

        def chunks(data):
            return (data[a:b] for a, b in zip(bounds[:-1], bounds[1:])
                    if a < len(data))

        with pytest.raises(acq.ProtocolError, match="ended mid-frame"):
            acq.decode_record(chunks(wire))
        complete = wire[:len(wire) - whole.pending_bytes]
        decoded = acq.decode_record(chunks(complete))
        rebuilt = acq.decode_record([complete])
        assert decoded.samples.tobytes() == rebuilt.samples.tobytes()
        assert decoded.markers == rebuilt.markers
        assert decoded.channels == rebuilt.channels

    def test_bad_magic_after_a_complete_frame_in_one_feed(self):
        reader = acq.FrameReader()
        end = acq.encode_frame(acq.EndFrame())
        with pytest.raises(acq.ProtocolError):
            reader.feed(end + b"XXXX" + bytes(16))
        assert reader.pending_bytes == 20

    def test_decode_at_an_offset(self):
        frames = _all_frame_kinds()
        wire = b"".join(acq.encode_frame(f) for f in frames)
        got, pos = [], 0
        while pos < len(wire):
            frame, used = acq.decode_frame(wire, pos)
            got.append(frame)
            pos += used
        assert got == frames
        with pytest.raises(acq.IncompleteFrame):
            acq.decode_frame(wire, pos - 1)


class TestStreamRecord:
    def test_grammar_and_counts(self):
        rec = _sample_record()
        frames = acq.stream_record(rec, chunk=64)
        assert isinstance(frames[0], acq.HeaderFrame)
        assert isinstance(frames[-1], acq.EndFrame)
        blocks = [f for f in frames if isinstance(f, acq.SamplesFrame)]
        markers = [f for f in frames if isinstance(f, acq.MarkerFrame)]
        assert sum(b.samples.shape[0] for b in blocks) == rec.n_samples
        assert len(markers) == len(rec.markers)

    def test_marker_precedes_its_block(self):
        rec = _sample_record()
        frames = acq.stream_record(rec, chunk=32)
        seen_until = 0  # samples streamed so far
        for frame in frames[1:-1]:
            if isinstance(frame, acq.MarkerFrame):
                assert frame.sample_index >= seen_until
            else:
                seen_until = frame.first_sample_index + frame.samples.shape[0]
        for frame in frames:
            if isinstance(frame, acq.MarkerFrame):
                idx = frames.index(frame)
                nxt = next(f for f in frames[idx + 1:]
                           if isinstance(f, acq.SamplesFrame))
                assert (nxt.first_sample_index <= frame.sample_index
                        < nxt.first_sample_index + nxt.samples.shape[0])

    def test_chunk_validated(self):
        with pytest.raises(ValueError):
            acq.stream_record(_sample_record(), chunk=0)

    def test_single_sample_chunks(self):
        rng = np.random.default_rng(4)
        rec = core.EegRecord(core.ChannelSet(("A", "B")), 128.0,
                             rng.normal(size=(2, 10)))
        rebuilt = acq.decode_record([acq.encode_record(rec, 1)])
        np.testing.assert_array_equal(
            rebuilt.samples, rec.samples.astype(np.float32).astype(np.float64))


def _decoded(frames) -> core.EegRecord:
    """decode_record on `frames` encoded, one chunk per frame."""
    return acq.decode_record(acq.encode_frame(f) for f in frames)


class TestReassemble:
    """decode_record folds the frames into a record, checking the grammar."""

    def test_round_trip_up_to_float32(self):
        rec = _sample_record()
        rebuilt = _decoded(acq.stream_record(rec, chunk=50))
        assert tuple(rebuilt.channels) == tuple(rec.channels)
        assert rebuilt.rate == rec.rate
        assert rebuilt.markers == rec.markers  # includes the unknown flag
        want = rec.samples.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(
            np.nan_to_num(rebuilt.samples, nan=-1.0),
            np.nan_to_num(want, nan=-1.0))

    _MESSAGES = {"empty": "not terminated", "no header": "start with a header",
                 "no end": "not terminated",
                 "duplicate header": "duplicate header",
                 "frames after end": "frames after end",
                 "no samples": "no samples"}

    @pytest.mark.parametrize("mutate, kind", [
        (lambda f: [], "empty"),
        (lambda f: f[1:], "no header"),
        (lambda f: f[:-1], "no end"),
        (lambda f: [f[0], f[0]] + f[1:], "duplicate header"),
        (lambda f: f + [acq.EndFrame()], "frames after end"),
        (lambda f: [f[0], f[-1]], "no samples"),
    ])
    def test_grammar_violations(self, mutate, kind):
        frames = acq.stream_record(_sample_record(), chunk=64)
        with pytest.raises(acq.ProtocolError, match=self._MESSAGES[kind]):
            _decoded(mutate(frames))

    def test_gap_in_sample_indices(self):
        frames = acq.stream_record(_sample_record(), chunk=64)
        dropped = [f for f in frames
                   if not (isinstance(f, acq.SamplesFrame)
                           and f.first_sample_index == 64)]
        with pytest.raises(acq.ProtocolError, match="index 128, expected 64"):
            _decoded(dropped)

    def test_channel_count_mismatch(self):
        frames = acq.stream_record(_sample_record(), chunk=64)
        bad = acq.SamplesFrame(first_sample_index=0,
                               samples=np.zeros((64, 2), dtype=np.float32))
        frames[frames.index(next(f for f in frames
                                 if isinstance(f, acq.SamplesFrame)))] = bad
        with pytest.raises(acq.ProtocolError, match="channel count"):
            _decoded(frames)

    @pytest.mark.parametrize("misplaced, match", [
        (lambda f: [f[0], f[3]], "index 64, expected 0"),
        (lambda f: [f[1]], "start with a header"),
        (lambda f: [f[0], f[0]], "duplicate header"),
        (lambda f: [f[0], f[2], f[-1], f[1]], "frames after end"),
        (lambda f: [acq.HeaderFrame(channel_count=2, rate=128.0,
                                    labels=("A", ""))], "non-empty"),
        (lambda f: [acq.HeaderFrame(channel_count=2, rate=128.0,
                                    labels=("A", "A"))], "unique"),
        (lambda f: [acq.HeaderFrame(channel_count=0, rate=128.0,
                                    labels=())], "channel labels"),
        (lambda f: [f[0], replace(f[1], image_id=200)],
         r"image_id 200 outside \[0, 12\)"),
    ], ids=["index_gap", "no_header", "second_header", "after_end",
            "empty_label", "repeated_label", "no_channels", "image_id"])
    def test_misplaced_frame_fails_before_the_next_chunk(self, misplaced,
                                                         match):
        # a live producer that sends a misplaced frame and holds its socket
        # open: the frame fails as it arrives, before another chunk is read
        frames = acq.stream_record(_sample_record(), chunk=64)
        assert isinstance(frames[3], acq.SamplesFrame)
        assert frames[3].first_sample_index == 64

        def chunks():
            yield from (acq.encode_frame(f) for f in misplaced(frames))
            pytest.fail("read past the misplaced frame")

        with pytest.raises(acq.ProtocolError, match=match):
            acq.decode_record(chunks())

    @staticmethod
    def _with_markers(*indices):
        """Header, samples 0-3, markers at `indices`, samples 4-7, end."""
        def block(start):
            return acq.SamplesFrame(first_sample_index=start,
                                    samples=np.zeros((4, 1), np.float32))
        return [acq.HeaderFrame(channel_count=1, rate=128.0, labels=("Fz",)),
                block(0),
                *(acq.MarkerFrame(sample_index=index, image_id=0, run=0,
                                  session=0, is_target=None)
                  for index in indices),
                block(4), acq.EndFrame()]

    @pytest.mark.parametrize("indices, match", [
        ((1,), r"marker at sample 1 follows the sample frame holding it "
               r"\(4 received\)"),
        ((6, 5), "strictly increasing: 5 follows 6"),
        ((6, 6), "strictly increasing: 6 follows 6"),
    ], ids=["after_its_samples", "out_of_order", "repeated"])
    def test_misplaced_marker_fails_at_its_frame(self, indices, match):
        # a marker after the block holding its index once decoded silently,
        # and markers out of order were refused only at the end frame
        frames = self._with_markers(*indices)
        pulled = []

        def chunks():
            for frame in frames:
                pulled.append(frame)
                yield acq.encode_frame(frame)

        with pytest.raises(acq.ProtocolError, match=match):
            acq.decode_record(chunks())
        assert len(pulled) == 2 + len(indices)  # the marker was the last

    def test_marker_at_the_next_block_start_is_in_place(self):
        record = acq.decode_record(
            acq.encode_frame(f) for f in self._with_markers(4, 5))
        assert record.n_samples == 8
        assert record.markers.onset.tolist() == [4, 5]


class TestRecordFiles:
    def test_save_load_round_trip(self, tmp_path):
        rec = _sample_record()
        path = tmp_path / "run.eegs"
        acq.save_record(rec, path)
        loaded = acq.load_record(path)
        assert loaded.markers == rec.markers
        want = rec.samples.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(
            np.nan_to_num(loaded.samples, nan=-1.0),
            np.nan_to_num(want, nan=-1.0))

    def test_identical_records_produce_identical_files(self, tmp_path):
        rec = _sample_record()
        a, b = tmp_path / "a.eegs", tmp_path / "b.eegs"
        acq.save_record(rec, a)
        acq.save_record(rec, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.eegs"
        path.write_bytes(b"")
        with pytest.raises(acq.ProtocolError):
            acq.load_record(path)

    def test_truncated_file_rejected(self, tmp_path):
        rec = _sample_record()
        path = tmp_path / "run.eegs"
        acq.save_record(rec, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(acq.ProtocolError):
            acq.load_record(path)

    def test_load_peaks_below_twice_the_record(self, tmp_path):
        # 1,200 s of 14 channels: the file's bytes are never held whole, and
        # the float32 blocks go once concatenated, so the record is built
        # beside one float32 copy of its samples
        rec = core.EegRecord(core.ChannelSet(), 128.0,
                             np.random.default_rng(0).normal(size=(14, 153600)))
        path = tmp_path / "long.eegs"
        acq.save_record(rec, path)
        del rec
        tracemalloc.start()
        try:
            loaded = acq.load_record(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.n_samples == 153600
        assert peak <= 2 * loaded.samples.nbytes

    def test_trailing_garbage_rejected(self, tmp_path):
        rec = _sample_record()
        path = tmp_path / "run.eegs"
        acq.save_record(rec, path)
        path.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(acq.ProtocolError):
            acq.load_record(path)


_WINDOW = features.EpochWindow(start_offset=1, length=3)


def _model(pipeline=features.PipelineConfig(window=_WINDOW),
           format_version=acq.MODEL_FORMAT_VERSION):
    n = 2 * 3
    rng = np.random.default_rng(3)
    return acq.ModelFile(
        weights=rng.normal(size=n), bias=-0.3125,
        scaling=dsp.ScalingParams(mins=np.zeros(n), maxes=np.ones(n)),
        channels=("AF3", "P8"), pipeline=pipeline,
        format_version=format_version)


class TestWholeFileWrites:
    """A record or model write that fails partway leaves the old file
    byte-identical, or no file at all, and no partial file beside it."""

    WRITERS = {"record": lambda path: acq.save_record(_sample_record(), path),
               "model": lambda path: acq.save_model(_model(), path)}

    @staticmethod
    def _fail_partway(monkeypatch):
        """Files opened for writing in `acquisition` store half of what
        they are given, then raise as a full disk does."""
        real_open = open

        class HalfWritten:
            def __init__(self, path, mode):
                self.fh = real_open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(acq, "open", HalfWritten, raising=False)

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch,
                                             kind):
        path = tmp_path / "out"
        path.write_bytes(b"old contents\n")
        self._fail_partway(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            self.WRITERS[kind](path)
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, kind):
        self._fail_partway(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            self.WRITERS[kind](tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_write_replaces_the_old_file(self, tmp_path, kind):
        path = tmp_path / "out"
        path.write_bytes(b"old contents\n")
        self.WRITERS[kind](path)
        self.WRITERS[kind](tmp_path / "fresh")
        assert path.read_bytes() == (tmp_path / "fresh").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]

    def test_write_through_a_symlink_keeps_the_link(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"old")
        link.symlink_to(target)
        acq.write_whole(link, b"new")
        assert link.is_symlink() and target.read_bytes() == b"new"

    def test_write_keeps_the_old_file_permissions(self, tmp_path):
        path = tmp_path / "private"
        path.write_bytes(b"old")
        path.chmod(0o600)
        acq.write_whole(path, b"new")
        assert path.read_bytes() == b"new"
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_write_to_a_device_writes_in_place(self):
        # no file can be made beside /dev/null, nor renamed over it
        acq.write_whole(os.devnull, b"discarded")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


_UNIT5 = dsp.ScalingParams(mins=np.zeros(5), maxes=np.ones(5))


class TestModelFile:
    def test_weight_geometry_enforced(self):
        with pytest.raises(acq.FormatError):
            acq.ModelFile(weights=np.zeros(5), bias=0.0, scaling=_UNIT5,
                          channels=("A", "B"),
                          pipeline=features.PipelineConfig(window=_WINDOW))
        with pytest.raises(acq.FormatError):
            acq.ModelFile(weights=np.zeros(6), bias=0.0, scaling=_UNIT5,
                          channels=("A", "B"),
                          pipeline=features.PipelineConfig(window=_WINDOW))

    def test_save_load_is_exact(self, tmp_path):
        path = tmp_path / "model.json"
        trained = features.PipelineConfig(window=_WINDOW, nan_threshold=0.3,
                                          shrinkage=0.01, use_ica=True)
        for model in (_model(), _model(pipeline=trained)):
            acq.save_model(model, path)
            assert acq.load_model(path) == model
        # a format-1 file holds no pipeline keys: it was trained with the
        # default pipeline, over its own epoch window
        v1 = _model(format_version=1)
        path.write_text(json.dumps({
            "format_version": 1, "weights": v1.weights.tolist(),
            "bias": -0.3125, "mins": [0.0] * 6, "maxes": [1.0] * 6,
            "channels": ["AF3", "P8"],
            "epoch_window": {"start_offset": 1, "length": 3}, "ica": None}))
        assert acq.load_model(path) == v1

    def test_saved_in_the_format_it_writes(self, tmp_path):
        # a model read from a format-1 file is saved with its pipeline keys:
        # labelled format 1, they would be dropped when the file is read
        path = tmp_path / "model.json"
        trained = features.PipelineConfig(window=_WINDOW, nan_threshold=0.3,
                                          use_ica=True)
        old = replace(_model(pipeline=trained), format_version=1)
        acq.save_model(old, path)
        assert json.loads(path.read_text())["format_version"] == 2
        loaded = acq.load_model(path)
        assert loaded.pipeline == trained
        assert loaded == replace(old, format_version=2)

    def test_ica_section_rejected(self, tmp_path):
        # serving never reads an ICA section, so a file holding one would be
        # served other than it claims: a malformed file, not an ignored key
        path = tmp_path / "model.json"
        acq.save_model(_model(), path)
        doc = json.loads(path.read_text())
        assert doc["ica"] is None
        doc["ica"] = {"mean": [0.5, -0.5],
                      "whitening": [[1.25, 0.0], [0.0, 1.25]],
                      "unmixing": [[1.0, 0.0], [0.0, 1.0]],
                      "mask": [True, False]}
        path.write_text(json.dumps(doc))
        with pytest.raises(acq.FormatError, match="ica"):
            acq.load_model(path)

    def test_floats_survive_text_round_trip_bitwise(self, tmp_path):
        # irrational-looking values exercise repr round-tripping
        n = 6
        weights = np.sqrt(np.arange(1, n + 1)) * np.pi / 7.0
        model = acq.ModelFile(weights=weights, bias=1.0 / 3.0,
                              scaling=dsp.ScalingParams(mins=np.zeros(n),
                                                        maxes=np.ones(n)),
                              channels=("AF3", "P8"),
                              pipeline=features.PipelineConfig(window=_WINDOW))
        path = tmp_path / "model.json"
        acq.save_model(model, path)
        loaded = acq.load_model(path)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.bias == model.bias

    def test_newer_format_version_rejected(self, tmp_path):
        model = _model()
        path = tmp_path / "model.json"
        acq.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = acq.MODEL_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(acq.FormatError):
            acq.load_model(path)

    def test_missing_field_rejected(self, tmp_path):
        model = _model()
        path = tmp_path / "model.json"
        for field in ("bias", "use_ica", "nan_threshold", "shrinkage"):
            acq.save_model(model, path)
            doc = json.loads(path.read_text())
            del doc[field]
            path.write_text(json.dumps(doc))
            with pytest.raises(acq.FormatError, match=field):
                acq.load_model(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(acq.FormatError):
            acq.load_model(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(acq.FormatError):
            acq.load_model(path)

    @pytest.mark.parametrize("field", ["weights", "bias", "mins", "maxes",
                                       "nan_threshold", "shrinkage"])
    def test_non_finite_model_rejected_on_load(self, tmp_path, field):
        path = tmp_path / "model.json"
        acq.save_model(_model(), path)
        doc = json.loads(path.read_text())
        if field in ("bias", "nan_threshold", "shrinkage"):
            doc[field] = float("nan")
        else:
            doc[field][1] = float("inf")
        path.write_text(json.dumps(doc))
        with pytest.raises(acq.FormatError):
            acq.load_model(path)

    @pytest.mark.parametrize("field,value", [
        ("use_ica", "false"), ("use_ica", 0),
        ("epoch_window", {"start_offset": 1, "length": None}), ("ica", 5),
        ("format_version", 0), ("format_version", True)])
    def test_mistyped_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        acq.save_model(_model(), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(acq.FormatError):
            acq.load_model(path)

    @pytest.mark.parametrize("field,value,match", [
        ("shrinkage", 5.0, "shrinkage"), ("shrinkage", -0.5, "shrinkage"),
        ("shrinkage", "0.5", "shrinkage"), ("nan_threshold", True, "nan"),
        ("bias", "1", "bias"),
        ("epoch_window", {"start_offset": 1, "length": 3.9}, "length"),
        ("epoch_window", {"start_offset": 1, "length": "3"}, "length"),
        ("epoch_window", {"start_offset": True, "length": 3}, "start_offset"),
        ("channels", ["AF3", "AF3"], "channels"),
        ("channels", [1, 2], "channels"), ("channels", ["AF3", ""], "channels"),
        ("weights", ["0.5"] * 6, "weights"), ("weights", [True] * 6, "weights"),
        ("weights", "0.5", "weights"), ("mins", [[0.0]] * 6, "mins"),
        ("weights", [10 ** 400] * 6, "float"), ("maxes", [-1.0] * 6, "max"),
        ("channels", "AB", "channels")],
        ids=["shrinkage_above_1", "shrinkage_below_0", "string_shrinkage",
             "bool_nan_threshold", "string_bias", "float_length",
             "string_length", "bool_start", "repeated_channel",
             "integer_channels", "empty_channel_label", "string_weights",
             "bool_weights", "string_for_weights", "nested_mins",
             "integer_past_float", "max_below_min", "string_for_channels"])
    def test_what_train_never_writes_rejected(self, tmp_path, field, value,
                                              match):
        # each value once loaded: float() and int() converted strings and
        # bools and truncated floats, np.asarray the items of the vectors,
        # tuple() split a string of channels into labels, and neither the
        # shrinkage range, the channel labels nor the order of each min and
        # max were checked
        path = tmp_path / "model.json"
        acq.save_model(_model(), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(acq.FormatError, match=match):
            acq.load_model(path)

    def test_nan_weights_cannot_be_saved(self, tmp_path):
        model = _model()
        object.__setattr__(model, "bias", float("nan"))
        with pytest.raises(ValueError):
            acq.save_model(model, tmp_path / "model.json")


class TestStreamPrefixRobustness:
    def test_every_prefix_decodes_cleanly(self):
        # a truncated stream yields frames then IncompleteFrame, never a crash
        rec = _sample_record()
        wire = b"".join(acq.encode_frame(f)
                        for f in acq.stream_record(rec, chunk=16))
        for cut in range(0, len(wire), 37):
            reader = acq.FrameReader()
            frames = reader.feed(wire[:cut])
            assert reader.pending_bytes == cut - sum(
                len(acq.encode_frame(f)) for f in frames)
