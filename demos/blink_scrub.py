"""Remove eye-blink components from a synthetic recording with ICA.

Generates two minutes of background activity, injects an exaggerated blink
train, extracts the one most non-Gaussian component, flags it when it is
spiky and frontal, and subtracts it from the recording.  Prints per-channel
RMS before and after so the frontal cleanup (and posterior preservation) is
visible channel by channel.
"""
import argparse

import numpy as np

from p300loop import core, ica, subject


def rms_by_channel(samples: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(samples ** 2, axis=1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--duration", type=float, default=120.0)
    ap.add_argument("--blink-rate", type=float, default=20.0,
                    help="blinks per minute")
    ap.add_argument("--blink-amp", type=float, default=140.0)
    ap.add_argument("--kurtosis-threshold", type=float, default=5.0)
    args = ap.parse_args()

    params = subject.SubjectParams(seed=args.seed, blink_rate=args.blink_rate,
                                   blink_amp=args.blink_amp, nan_fraction=0.0)
    channels = core.ChannelSet()
    bg_rng, _, blink_rng, _ = subject.stage_generators(params.seed)
    clean = subject.generate_background(args.duration, channels, params, bg_rng)
    dirty = subject.inject_blinks(clean, params, blink_rng)

    model, sources = ica.fit(dirty.samples)
    mask = ica.classify_components(model, sources, channels,
                                   kurtosis_threshold=args.kurtosis_threshold)
    flagged = [int(i) for i in np.flatnonzero(mask)]
    print(f"extracted {model.k} component; flagged {flagged} as "
          f"blink-like (spiky and frontally mixed)")

    scrubbed = ica.reconstruct(model, dirty.samples, mask)
    before = rms_by_channel(dirty.samples)
    after = rms_by_channel(scrubbed)
    print("\n  channel   RMS before   RMS after   change")
    for i, label in enumerate(channels):
        tag = ""
        if label in core.FRONTAL_LABELS:
            tag = "  (frontal)"
        elif label in core.POSTERIOR_LABELS:
            tag = "  (posterior)"
        print(f"  {label:>7}   {before[i]:10.2f}   {after[i]:9.2f}   "
              f"{(after[i] - before[i]) / before[i]:+7.1%}{tag}")

    def group_rms(samples, labels):
        rows = channels.indices(labels)
        return float(np.sqrt(np.mean(samples[rows] ** 2)))

    f_drop = 1 - group_rms(scrubbed, core.FRONTAL_LABELS) / group_rms(
        dirty.samples, core.FRONTAL_LABELS)
    p_shift = (group_rms(scrubbed, core.POSTERIOR_LABELS)
               / group_rms(dirty.samples, core.POSTERIOR_LABELS) - 1)
    print(f"\nfrontal RMS drop {f_drop:.1%}, posterior RMS shift {p_shift:+.1%}")


if __name__ == "__main__":
    main()
