"""Train a selection model offline, then run live selections over the wire.

Simulates a full training scenario, fits the scaling + discriminant bundle,
and then asks the simulated subject to pick each of the twelve objects in
turn.  Every selection streams its recording through the framed wire
protocol before classification, exactly as a networked acquisition would.
"""
import argparse
from dataclasses import replace

import numpy as np

from p300loop import scheduler, session, subject
from p300loop.core import N_IMAGES


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=3,
                    help="flash rounds pooled into one selection")
    ap.add_argument("--offset", type=float, default=0.0,
                    help="evoked-latency shift in seconds during selection")
    args = ap.parse_args()

    timing = scheduler.TimingConfig()
    catalog = session.ObjectCatalog()
    params = subject.SubjectParams(seed=args.seed)

    print("phase 1: offline training on one full scenario")
    model, record, _schedule = session.run_offline_training(
        params, timing, rng=np.random.default_rng(args.seed))
    print(f"  trained on {record.n_samples} samples "
          f"({record.n_samples / record.rate:.1f} s), "
          f"{len(model.weights)} feature weights")

    print(f"\nphase 2: one live selection per object "
          f"({args.trials} trials each, offset {args.offset:g} s)")
    selection_roots = np.random.SeedSequence(args.seed + 1).spawn(N_IMAGES)
    correct = 0
    for target, root in enumerate(selection_roots):
        subject_seed, stream_seed = root.spawn(2)
        live = replace(params, seed=subject_seed, constant_offset=args.offset)
        result, _logged = session.run_online_selection(
            model, live, catalog, target, n_trials=args.trials,
            rng=np.random.default_rng(stream_seed), timing=timing)
        hit = "ok " if result.selected == target else "MISS"
        correct += result.selected == target
        print(f"  attend {catalog.label(target):>7} -> picked "
              f"{catalog.label(result.selected):>7}  [{hit}]  "
              f"trial winners {result.trial_winners}")
    print(f"\n{correct}/{N_IMAGES} correct, "
          f"{result.latency_s:g} s of flashing per selection")
    print(f"last spoken message: {result.message!r}")


if __name__ == "__main__":
    main()
