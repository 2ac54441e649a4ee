"""Tour the framed wire protocol used between producer and consumer.

Streams a short recording into frames, dumps each frame's wire layout,
then decodes the byte stream from deliberately awkward fragment sizes to
show that frame boundaries never matter.
"""
import argparse

import numpy as np

from p300loop import acquisition, core


KIND_NAMES = {1: "header", 2: "samples", 3: "marker", 4: "end"}


def build_record(n_samples: int) -> core.EegRecord:
    channels = core.ChannelSet(("AF3", "P8", "O1"))
    rng = np.random.default_rng(3)
    samples = rng.normal(scale=20.0, size=(3, n_samples))
    markers = (
        core.StimulusEvent(onset_sample=8, image_id=4, run_index=0,
                           session_index=0, is_target=True),
        core.StimulusEvent(onset_sample=40, image_id=9, run_index=0,
                           session_index=0, is_target=False),
    )
    return core.EegRecord(samples=samples, rate=128, channels=channels,
                          markers=markers)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=64)
    ap.add_argument("--chunk", type=int, default=25,
                    help="samples per frame when streaming")
    args = ap.parse_args()

    record = build_record(args.samples)
    frames = acquisition.stream_record(record, chunk=args.chunk)
    print(f"{record.n_channels} channels x {record.n_samples} samples, "
          f"{len(record.markers)} markers -> {len(frames)} frames\n")

    wire = b""
    for frame in frames:
        blob = acquisition.encode_frame(frame)
        wire += blob
        kind = KIND_NAMES[blob[4]]
        head = blob[:16].hex(" ")
        print(f"  {kind:>7}  {len(blob):4d} B  {head}{' ...' if len(blob) > 16 else ''}")
    print(f"\ntotal wire size {len(wire)} B "
          f"(magic 'EEGS', kind byte, u32 length, payload)")

    # replay through the one-pass decoder in awkward fragment sizes
    rng = np.random.default_rng(0)
    fragments = []
    pos = 0
    while pos < len(wire):
        size = int(rng.integers(1, 23))
        fragments.append(wire[pos:pos + size])
        pos += size
    rebuilt = acquisition.decode_record(fragments)
    print(f"\ndecoded the stream from {len(fragments)} fragments "
          f"of 1-22 bytes")

    quantized = record.samples.astype(np.float32).astype(np.float64)
    exact = np.array_equal(rebuilt.samples, quantized)
    print(f"decoded record matches the original "
          f"(after float32 quantization): {exact}")
    print(f"markers survived with flags intact: "
          f"{rebuilt.markers == record.markers}")


if __name__ == "__main__":
    main()
