"""Simulate an attended session and recover the evoked bump by averaging.

Builds a one-session schedule, synthesizes the recording (pink background,
10 Hz rhythm, evoked bumps on attended flashes, eye blinks, one dropout
channel), then walks the offline stages by hand: prune the dropout channel,
band-pass filter, segment into epochs, and contrast target vs non-target
averages on a posterior channel.
"""
import argparse

import numpy as np

from p300loop import dsp, features, scheduler, subject


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--channel", default="P8", help="channel to average")
    args = ap.parse_args()

    timing = scheduler.TimingConfig(sessions_per_scenario=1)
    schedule = scheduler.build_scenario_schedule(
        timing, rng=np.random.default_rng(args.seed))
    params = subject.SubjectParams(seed=args.seed)
    record = subject.simulate_subject(schedule, params)

    nan_counts = np.isnan(record.samples).sum(axis=1)
    print(f"recording: {record.n_channels} channels x {record.n_samples} "
          f"samples @ {record.rate:g} Hz")
    for label, count in zip(record.channels, nan_counts):
        if count:
            print(f"  {label}: {count} NaN samples "
                  f"({count / record.n_samples:.0%})")

    pruned, dropped = features.prune_channels(record)
    print(f"pruned channels: {dropped}")

    coeffs = dsp.design_bandpass(dsp.FilterSpec(rate=pruned.rate))
    filtered = dsp.filter_apply(coeffs, pruned)

    window = features.EpochWindow()
    row = filtered.channels.index(args.channel)
    epochs = features.segment(filtered, window)[:, row]
    is_target = filtered.markers.target == 1
    target = epochs[is_target].mean(axis=0)
    nontarget = epochs[~is_target].mean(axis=0)

    peak = int(np.argmax(target))
    print(f"\n{args.channel} epoch averages over {window.length} samples "
          f"({window.length / filtered.rate * 1000:.0f} ms):")
    print(f"  target peak    {target[peak]:6.2f} uV at sample {peak} "
          f"({peak / filtered.rate * 1000:.0f} ms after flash)")
    print(f"  non-target     {nontarget[peak]:6.2f} uV at the same latency")
    print(f"  peak contrast  {target[peak] - nontarget[peak]:6.2f} uV")

    # coarse text rendering of the averaged target epoch
    lo, hi = target.min(), target.max()
    cols = 48
    print("\naveraged target epoch:")
    for i in range(0, window.length, 4):
        bar = int((target[i] - lo) / (hi - lo) * cols) if hi > lo else 0
        print(f"  {i / filtered.rate * 1000:5.0f} ms |{'#' * bar}")


if __name__ == "__main__":
    main()
