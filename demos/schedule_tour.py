"""Walk through the stimulus scheduler: timing arithmetic and flash orders.

Prints the run/session/scenario durations implied by a timing configuration,
generates a full seeded scenario, and shows how block randomization keeps a
run from opening with the image that closed the previous run.
"""
import argparse

import numpy as np

from p300loop import scheduler
from p300loop.core import N_IMAGES


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--runs-per-session", type=int, default=6)
    args = ap.parse_args()

    timing = scheduler.TimingConfig(runs_per_session=args.runs_per_session)
    isi = timing.d_flash + timing.d_no_flash
    d_run, d_session, d_scenario = scheduler.durations(timing)
    print(f"flash {timing.d_flash:g} s + gap {timing.d_no_flash:g} s "
          f"-> one image every {isi:g} s")
    print(f"d_run      = {d_run:7.1f} s  ({N_IMAGES} flashes)")
    print(f"d_session  = {d_session:7.1f} s  (cue + {timing.runs_per_session} "
          f"runs + {timing.runs_per_session - 1} intervals)")
    print(f"d_scenario = {d_scenario:7.1f} s  (adaptation + "
          f"{timing.sessions_per_scenario} sessions)")

    rng = np.random.default_rng(args.seed)
    schedule = scheduler.build_scenario_schedule(timing, rng=rng)
    print(f"\nscenario: {schedule.n_events} flashes, "
          f"{schedule.n_targets} on attended images")

    # each run flashes every image exactly once, and a run never opens with
    # the image that closed the one before it
    first = [ev.image_id for ev in schedule.events[:N_IMAGES]]
    second = [ev.image_id
              for ev in schedule.events[N_IMAGES:2 * N_IMAGES]]
    print(f"run 0 order: {first}")
    print(f"run 1 order: {second}  (cannot open with {first[-1]})")

    print("\nfirst scheduled events:")
    for line in scheduler.event_table(schedule).splitlines()[:6]:
        print("  " + line)


if __name__ == "__main__":
    main()
