"""Wire protocol and persistence for records and trained models.

Frames are laid out as: 4-byte magic "EEGS", 1-byte kind, 4-byte little-endian
payload length, payload.  A payload holds at most MAX_PAYLOAD bytes (16 MiB,
enough for a header with the largest channel table the 16-bit channel count
allows); a longer frame is never written, and a prefix declaring one is a
ProtocolError as soon as it is read, so a corrupt length cannot make a reader
buffer without bound.  A stream is header, then markers and sample blocks in
sample order, then end; each marker precedes the sample frame holding its
index.  Samples travel as 32-bit little-endian floats; markers and indices are
exact integers, so a round trip loses nothing but float precision.

Model files are versioned JSON with repr-exact floats.  Format 2 adds the
pipeline configuration the model was trained with, which is what serving
runs; a format-1 file was trained with the default configuration and its own
epoch window.
"""
from __future__ import annotations

import json
import os
import stat
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .core import (N_IMAGES, ChannelSet, EegRecord, Markers, fields_equal,
                   scalar_fields, set_readonly)
from .dsp import ScalingParams
from .features import EpochWindow, PipelineConfig

MAGIC = b"EEGS"
VERSION = (1, 0)  # (major, minor); readers reject larger majors

KIND_HEADER = 1
KIND_SAMPLES = 2
KIND_MARKER = 3
KIND_END = 4

_PREFIX = struct.Struct("<4sBI")
_HEADER = struct.Struct("<BBHd")  # version major, minor, channel count, rate
_SAMPLES = struct.Struct("<QI")  # first sample index, samples in the block
_MARKER = struct.Struct("<QBIIB")
_TARGET_UNKNOWN = 255

MAX_PAYLOAD = 1 << 24

MODEL_FORMAT_VERSION = 2
_NUMBER = (int, float)  # the JSON number types of a model file's scalars
_JSON_TYPES = {bool: (bool,), int: (int,), float: _NUMBER}  # by default's type
DEFAULT_CHUNK = 128
RECV_BYTES = 1 << 16  # the largest read the stream consumer asks `recv` for


class ProtocolError(ValueError):
    """Malformed bytes or a violated stream contract."""


class VersionError(ProtocolError):
    """Stream or file written by an incompatible (newer) major version."""


class FormatError(ValueError):
    """Structurally invalid model file."""


@dataclass(frozen=True)
class HeaderFrame:
    channel_count: int
    rate: float
    labels: tuple[str, ...]
    version: tuple[int, int] = VERSION


@dataclass(frozen=True)
class SamplesFrame:
    first_sample_index: int
    samples: np.ndarray  # [k x channel_count] float32

    def __post_init__(self) -> None:
        samples = set_readonly(self, "samples", self.samples, np.float32)
        if samples.ndim != 2 or not len(samples):  # as the decoder refuses
            raise ValueError("samples block must be [k x channels], k >= 1")
        if np.isinf(samples).any():  # NaN is a dropped sample, inf corruption
            raise ValueError("samples block holds a value infinite as float32")

    __eq__ = fields_equal


@dataclass(frozen=True)
class MarkerFrame:
    sample_index: int
    image_id: int
    run: int
    session: int
    is_target: bool | None


@dataclass(frozen=True)
class EndFrame:
    pass


WireFrame = HeaderFrame | SamplesFrame | MarkerFrame | EndFrame


def encode_frame(frame: WireFrame) -> bytes:
    """Serialize one frame to its exact byte layout."""
    if isinstance(frame, HeaderFrame):
        payload = _HEADER.pack(frame.version[0], frame.version[1],
                               frame.channel_count, frame.rate)
        if len(frame.labels) != frame.channel_count:
            raise ValueError("one label per channel required")
        for label in frame.labels:
            raw = label.encode("utf-8")
            if len(raw) > 255:
                raise ValueError("channel label too long")
            payload += struct.pack("<B", len(raw)) + raw
        kind = KIND_HEADER
    elif isinstance(frame, SamplesFrame):
        block = frame.samples
        payload = _SAMPLES.pack(frame.first_sample_index, block.shape[0])
        payload += block.astype("<f4", copy=False).tobytes(order="C")
        kind = KIND_SAMPLES
    elif isinstance(frame, MarkerFrame):
        target_byte = (_TARGET_UNKNOWN if frame.is_target is None
                       else int(bool(frame.is_target)))
        payload = _MARKER.pack(frame.sample_index, frame.image_id,
                               frame.run, frame.session, target_byte)
        kind = KIND_MARKER
    elif isinstance(frame, EndFrame):
        payload = b""
        kind = KIND_END
    else:
        raise TypeError(f"not a wire frame: {type(frame).__name__}")
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds "
                         f"MAX_PAYLOAD ({MAX_PAYLOAD})")
    return _PREFIX.pack(MAGIC, kind, len(payload)) + payload


def decode_frame(buffer, offset: int = 0) -> tuple[WireFrame, int] | None:
    """Decode the frame at buffer[offset:]; returns (frame, bytes used).

    The prefix is read in place and only the frame's payload is copied, so
    decoding the frames of a buffer one after another, at increasing offsets,
    costs time linear in its length.  Returns None when the buffer holds only
    part of a frame (nothing is consumed); raises ProtocolError on bad magic,
    a declared payload over MAX_PAYLOAD (as soon as the prefix is complete),
    unknown kind, or a malformed payload.
    """
    if len(buffer) - offset < _PREFIX.size:
        return None
    magic, kind, length = _PREFIX.unpack_from(buffer, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"declared payload of {length} bytes exceeds "
                            f"MAX_PAYLOAD ({MAX_PAYLOAD})")
    total = _PREFIX.size + length
    if len(buffer) - offset < total:
        return None
    payload = bytes(buffer[offset + _PREFIX.size:offset + total])

    if kind == KIND_HEADER:
        if len(payload) < _HEADER.size:
            raise ProtocolError("header payload too short")
        major, minor, channel_count, rate = _HEADER.unpack_from(payload)
        if major > VERSION[0]:
            raise VersionError(f"stream version {major}.{minor} is newer than "
                               f"{VERSION[0]}.{VERSION[1]}")
        if not 0 < rate < np.inf:  # NaN too
            raise ProtocolError(f"header rate {rate} is not finite and positive")
        labels, pos = [], _HEADER.size
        for _ in range(channel_count):
            end = pos + 1 + (payload[pos] if pos < len(payload) else len(payload))
            if end > len(payload):
                raise ProtocolError("header label table truncated")
            try:
                labels.append(payload[pos + 1:end].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"header label: {exc}") from None
            pos = end
        if pos != len(payload):
            raise ProtocolError("trailing bytes in header payload")
        frame = HeaderFrame(channel_count=channel_count, rate=rate,
                            labels=tuple(labels), version=(major, minor))
    elif kind == KIND_SAMPLES:
        if len(payload) < _SAMPLES.size:
            raise ProtocolError("samples payload too short")
        first_index, k = _SAMPLES.unpack_from(payload)
        body = payload[_SAMPLES.size:]
        if k == 0 or len(body) % 4 or (len(body) // 4) % k:
            raise ProtocolError("samples payload has inconsistent size")
        values = np.frombuffer(body, dtype="<f4").reshape(k, -1)
        try:
            frame = SamplesFrame(first_sample_index=first_index, samples=values)
        except ValueError:
            raise ProtocolError("stream carries an infinite sample") from None
    elif kind == KIND_MARKER:
        if len(payload) != _MARKER.size:
            raise ProtocolError("marker payload has wrong size")
        sample_index, image_id, run, session, target_byte = _MARKER.unpack(payload)
        if target_byte not in (0, 1, _TARGET_UNKNOWN):
            raise ProtocolError(f"bad target byte {target_byte}")
        if image_id >= N_IMAGES:  # as Markers words it
            raise ProtocolError(f"image_id {image_id} outside [0, {N_IMAGES})")
        is_target = None if target_byte == _TARGET_UNKNOWN else bool(target_byte)
        frame = MarkerFrame(sample_index=sample_index, image_id=image_id,
                            run=run, session=session, is_target=is_target)
    elif kind == KIND_END:
        if payload:
            raise ProtocolError("end frame carries no payload")
        frame = EndFrame()
    else:
        raise ProtocolError(f"unknown frame kind {kind}")
    return frame, total


class FrameReader:
    """Incremental decoder tolerant of arbitrary chunk boundaries.

    Each feed decodes the pending bytes in place, frame after frame at
    increasing offsets until `decode_frame` finds only part of one, and drops
    the consumed prefix once at the end, so a feed costs time linear in the
    bytes it holds however many frames they carry.  What stays pending is at
    most one incomplete frame; once its prefix is complete it has passed the
    magic and MAX_PAYLOAD checks, so the pending bytes stay below MAX_PAYLOAD
    plus one prefix.  A ProtocolError propagates from feed: the frames
    decoded before it in that call are dropped with their bytes, and
    pending_bytes then counts from the offending frame.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[WireFrame]:
        """Absorb bytes, return every frame completed by them."""
        self._buffer.extend(data)
        frames = []
        pos = 0
        try:
            while (decoded := decode_frame(self._buffer, pos)) is not None:
                frame, used = decoded
                frames.append(frame)
                pos += used
        finally:
            del self._buffer[:pos]
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def stream_record(record: EegRecord, chunk: int = DEFAULT_CHUNK) -> list[WireFrame]:
    """Header, then markers and sample blocks in order, then end.

    Each marker is emitted before the sample frame that contains its index.
    ValueError refuses a record without samples and a sample past float32's
    range, infinite in its frame; numpy's warning of the overflow is silenced.
    """
    if chunk < 1 or not record.n_samples:
        raise ValueError("chunk and record must hold at least 1 sample each")
    frames: list[WireFrame] = [HeaderFrame(
        channel_count=record.n_channels, rate=record.rate,
        labels=tuple(record.channels))]
    m = record.markers
    markers = [MarkerFrame(sample_index=onset, image_id=image, run=run,
                           session=sess,
                           is_target=None if target < 0 else bool(target))
               for onset, image, run, sess, target in zip(*(
                   column.tolist() for column in (m.onset, m.image, m.run,
                                                  m.session, m.target)))]
    starts = range(0, record.n_samples, chunk)
    ends = np.searchsorted(m.onset, [start + chunk for start in starts])
    with np.errstate(over="ignore"):
        for start, first, end in zip(starts, [0, *ends.tolist()],
                                     ends.tolist()):
            frames += markers[first:end]  # the onsets in this block
            frames.append(SamplesFrame(
                first_sample_index=start,
                samples=record.samples[:, start:start + chunk].T))
    frames.append(EndFrame())
    return frames


def encode_record(record: EegRecord, chunk: int) -> bytes:
    """The wire bytes of a record: its `stream_record` frames, encoded."""
    return b"".join(encode_frame(f) for f in stream_record(record, chunk))


def decode_record(chunks) -> EegRecord:
    """Rebuild a record from its wire bytes, given as byte chunks of any sizes.

    Each frame is checked against the stream grammar as the reader completes
    it, so a misplaced frame, a marker too, raises ProtocolError before the
    next chunk is read.  Raises ProtocolError too on malformed bytes, when the
    chunks end mid-frame or before the end frame, and on a marker past the end.
    """
    reader = FrameReader()
    channels, blocks, markers, n_samples, ended = None, [], [], 0, False
    for data in chunks:
        for frame in reader.feed(data):
            if ended:
                raise ProtocolError("frames after end")
            if isinstance(frame, HeaderFrame):
                if channels is not None:
                    raise ProtocolError("duplicate header frame")
                try:
                    channels = ChannelSet(frame.labels)
                except ValueError as exc:
                    raise ProtocolError(f"header: {exc}") from None
                rate = frame.rate
            elif channels is None:
                raise ProtocolError("stream must start with a header frame")
            elif isinstance(frame, SamplesFrame):
                if frame.first_sample_index != n_samples:
                    raise ProtocolError(
                        f"sample frame at index {frame.first_sample_index}, "
                        f"expected {n_samples}")
                if frame.samples.shape[1] != len(channels):
                    raise ProtocolError("sample frame channel count mismatch")
                n_samples += frame.samples.shape[0]
                blocks.append(frame.samples)
            elif isinstance(frame, MarkerFrame):
                if markers and frame.sample_index <= markers[-1][0]:
                    raise ProtocolError(
                        f"marker onsets must be strictly increasing: "
                        f"{frame.sample_index} follows {markers[-1][0]}")
                if frame.sample_index < n_samples:
                    raise ProtocolError(
                        f"marker at sample {frame.sample_index} follows the "
                        f"sample frame holding it ({n_samples} received)")
                markers.append((frame.sample_index, frame.image_id, frame.run,
                                frame.session, -1 if frame.is_target is None
                                else int(frame.is_target)))
            else:
                ended = True
    if reader.pending_bytes:
        raise ProtocolError("stream ended mid-frame")
    if not ended:
        raise ProtocolError("stream not terminated by an end frame")
    if not blocks:
        raise ProtocolError("stream carries no samples")
    samples = np.concatenate(blocks, axis=0)
    blocks.clear()  # so the record is built beside one copy of its samples
    try:  # a signaling NaN widens to float64 as the dropped sample it is
        with np.errstate(invalid="ignore"):
            return EegRecord(channels, rate, samples.T, Markers(*zip(*markers)))
    except (ValueError, OverflowError) as exc:
        raise ProtocolError(f"stream breaks the record contract: {exc}") from None


def write_whole(path, data: bytes) -> None:
    """Write `data` to `path` whole or not at all: into a new file beside it,
    then renamed over it with the old file's permissions.  A failure removes
    the new file and leaves any old one at `path` as it was."""
    path = Path(path).resolve()  # through a symlink, to the file it names
    old = path.stat() if path.exists() else None
    if old is not None and not stat.S_ISREG(old.st_mode):  # a device or pipe
        path.write_bytes(data)
        return
    partial = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(partial, "xb") as fh:
            fh.write(data)
        if old is not None:
            os.chmod(partial, stat.S_IMODE(old.st_mode))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def save_record(record: EegRecord, path) -> None:
    """Write the wire format, in `DEFAULT_CHUNK` sample blocks, to a file."""
    write_whole(path, encode_record(record, DEFAULT_CHUNK))


def load_record(path) -> EegRecord:
    """Read a record file `RECV_BYTES` at a time, as the stream consumer reads
    its socket; raises ProtocolError on malformed content."""
    with open(path, "rb") as fh:
        return decode_record(iter(lambda: fh.read(RECV_BYTES), b""))


@dataclass(frozen=True)
class ModelFile:
    """Persistable trained model: weights, bias, scaling, channels, and the
    pipeline configuration it was trained with and is served with."""

    weights: np.ndarray
    bias: float
    scaling: ScalingParams
    channels: tuple[str, ...]
    pipeline: PipelineConfig
    format_version: int = MODEL_FORMAT_VERSION

    @property
    def window(self) -> EpochWindow:
        return self.pipeline.window

    def __post_init__(self) -> None:
        weights = set_readonly(self, "weights", self.weights)
        try:
            object.__setattr__(self, "channels", ChannelSet(self.channels).labels)
        except ValueError as exc:
            raise FormatError(f"model channels: {exc}") from None
        expected = len(self.channels) * self.window.length
        if weights.shape != (expected,):
            raise FormatError(
                f"weights length {weights.shape[0]} != "
                f"{len(self.channels)} channels x {self.window.length} samples")
        if self.scaling.mins.shape != weights.shape:
            raise FormatError("scaling vectors must match the weight length")
        if not (np.isfinite(weights).all() and np.isfinite(self.bias)):
            raise FormatError("model weights and bias must be finite")

    __eq__ = fields_equal


def _require(mapping: dict, key: str, kinds: tuple = ()):
    if key not in mapping:
        raise FormatError(f"model file missing field {key!r}")
    if kinds and type(mapping[key]) not in kinds:  # a bool is no JSON number
        names = " or ".join(kind.__name__ for kind in kinds)
        raise FormatError(f"model {key} must be a JSON {names}")
    return mapping[key]


def _field(mapping: dict, f):
    """Config field `f` read from its key, of its default's JSON type."""
    kind = type(f.default)
    return kind(_require(mapping, f.name, _JSON_TYPES[kind]))


def _numbers(doc: dict, key: str) -> list:
    values = _require(doc, key, (list,))
    if not all(type(value) in _NUMBER for value in values):
        raise FormatError(f"model {key} must be a JSON array of numbers")
    return values


def save_model(model: ModelFile, path) -> None:
    """Write the model as JSON of the current format, whatever format it was
    read from; floats round-trip exactly."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "weights": [float(v) for v in model.weights],
        "bias": float(model.bias),
        "mins": [float(v) for v in model.scaling.mins],
        "maxes": [float(v) for v in model.scaling.maxes],
        "channels": list(model.channels),
        "epoch_window": asdict(model.window),
        **{f.name: type(f.default)(getattr(model.pipeline, f.name))
           for f in scalar_fields(PipelineConfig)},
        "ica": None,
    }
    write_whole(path, (json.dumps(doc, allow_nan=False, indent=1)
                       + "\n").encode("utf-8"))


def load_model(path) -> ModelFile:
    """Read a model file; raises FormatError when structurally invalid."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bytes that are not UTF-8, or not JSON
        raise FormatError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("model file must hold a JSON object")
    version = _require(doc, "format_version")
    if type(version) is not int or not 1 <= version <= MODEL_FORMAT_VERSION:
        raise FormatError(f"unsupported model format version {version!r}")
    try:
        window = {f.name: _field(_require(doc, "epoch_window"), f)
                  for f in fields(EpochWindow)}
        pipeline = PipelineConfig(window=EpochWindow(**window), **{
            f.name: _field(doc, f) for f in scalar_fields(PipelineConfig)
            if version >= 2})
        if _require(doc, "ica") is not None:
            raise FormatError("model ica must be null: no format stores a "
                              "fitted ICA")
        return ModelFile(
            weights=_numbers(doc, "weights"),
            bias=float(_require(doc, "bias", _NUMBER)),
            scaling=ScalingParams(mins=_numbers(doc, "mins"),
                                  maxes=_numbers(doc, "maxes")),
            channels=tuple(_require(doc, "channels", (list,))),
            pipeline=pipeline,
            format_version=version,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"model file is malformed: {exc}") from None
