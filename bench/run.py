#!/usr/bin/env python3
"""Benchmark of the p300loop closed loop: select, calibrate and ica.

    python3 bench/run.py --workload select --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from `src/` of
that checkout.  Each workload runs in this one process: set-up, then whole
rounds until `--seconds` have passed, then output checks.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`).  Details of each run go to `bench/results/`.
"""
import os
import time

_STARTED = time.perf_counter()

# One BLAS thread: the main thread plus the stream's producer thread then use
# no more threads than the two cores, and lda.train times repeat.  This must
# be set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / "work"

SETUP_ROUNDS = 3
MISMATCH_S = 0.1


def _import_program():
    """Import the program from this checkout's src/, or exit 2."""
    package = ROOT / "src" / "p300loop"
    if not (package / "__init__.py").is_file():
        print(f"bench: no program at {package}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import p300loop
    if Path(p300loop.__file__).resolve().parent != package.resolve():
        print(f"bench: imported p300loop from {p300loop.__file__}, "
              f"not from {package}", file=sys.stderr)
        sys.exit(2)


_import_program()

import numpy as np  # noqa: E402
from p300loop import (  # noqa: E402
    acquisition,
    cli,
    scheduler,
    session,
    subject,
)

import checks  # noqa: E402
import spans  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED


@dataclass
class Op:
    """One timed op, its output for the checks, and what the checks found."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    output: object = None
    problems: list = field(default_factory=list)


@dataclass
class Round:
    """Ops of one round and the wall time of its timed call."""

    attempted: int
    ops: list
    timed_s: float
    output: object = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - sum(1 for op in self.ops if not op.problems)


@contextlib.contextmanager
def patched(owner, name, make_wrapper):
    """Replace owner.name by make_wrapper(current) for the block."""
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


class Timer:
    """Wall and process CPU time of each op; tells the tracer which op runs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.count = 0

    @contextlib.contextmanager
    def op(self):
        if self.tracer is not None:
            self.tracer.op = self.count
        self.count += 1
        record = Op()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield record
        finally:
            record.wall_s = time.perf_counter() - wall
            record.cpu_s = time.process_time() - cpu
            if self.tracer is not None:
                self.tracer.op = None


class SelectWorkload:
    """`session.run_full_evaluation` per round; an op is one selection."""

    ops_per_phase = session.DEFAULT_REPS_PER_OBJECT * 12
    ops_per_round = 2 * ops_per_phase

    def __init__(self, seed: int):
        self.seed = seed

    def setup_round(self, k: int) -> list:
        """Train a model on a fresh scenario, then one warm-up selection."""
        base = self.seed * 1000 + 900 + k
        model, _, _ = session.run_offline_training(
            subject.SubjectParams(seed=base), scheduler.TimingConfig(),
            rng=np.random.default_rng(base))
        params = subject.SubjectParams(seed=base + 50,
                                       constant_offset=MISMATCH_S)
        result, _ = session.run_online_selection(
            model, params, session.ObjectCatalog(), target=k % 12,
            rng=np.random.default_rng(base + 60))
        return self._check_op(Op(output=(k % 12, result)))

    def run_round(self, index: int, timer: Timer) -> Round:
        ops: list = []

        def wrap(original):
            def run_online_selection(model, params, catalog, target, *args,
                                     **kwargs):
                with timer.op() as op:
                    result, logged = original(model, params, catalog, target,
                                              *args, **kwargs)
                op.output = (target, result)
                ops.append(op)
                return result, logged
            return run_online_selection

        report = None
        problems = []
        started = time.perf_counter()
        try:
            with patched(session, "run_online_selection", wrap):
                report = session.run_full_evaluation(
                    subject.SubjectParams(), seed=self.seed * 1000 + index,
                    n_trials=checks.N_TRIALS, mismatch=MISMATCH_S)
        except Exception:  # an op or the evaluation raised: count, go on
            problems.append(traceback.format_exc())
        # An op that raised never reaches `ops`, so `failed` counts it.
        return Round(self.ops_per_round, ops, time.perf_counter() - started,
                     report, problems)

    @staticmethod
    def _check_op(op: Op) -> list:
        _, result = op.output
        op.problems = checks.check_selection(
            result.per_image_scores, result.trial_winners, result.selected,
            result.latency_s)
        return op.problems

    def check_round(self, outcome: Round) -> None:
        phase2_correct = 0
        for i, op in enumerate(outcome.ops):
            target, result = op.output
            if not self._check_op(op) and i >= self.ops_per_phase:
                phase2_correct += result.selected == target
            op.output = None
        report = outcome.output
        if report is None:
            return
        outcome.problems += checks.check_phase2(phase2_correct,
                                                self.ops_per_phase)
        if report["phase2"]["correct"] != phase2_correct:
            outcome.problems.append(
                f"report says phase 2 {report['phase2']['correct']}, "
                f"recomputed {phase2_correct}")

    def describe(self) -> dict:
        return {"op": "session.run_online_selection",
                "round": "session.run_full_evaluation",
                "ops_per_round": self.ops_per_round,
                "eeg_s_per_op": float(checks.SELECTION_LATENCY)}

    def close(self) -> None:
        pass


class TrainWorkload:
    """`p300loop train` through `cli.main` on record files made in set-up."""

    def __init__(self, seed: int, runs_per_session: int, flags=()):
        self.seed = seed
        self.flags = list(flags)
        self.timing = scheduler.TimingConfig(runs_per_session=runs_per_session)
        self.work = WORK / f"train-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.records = []  # (path, samples, markers)

    def setup_round(self, k: int) -> list:
        """Simulate and save record k, then one warm-up train on it."""
        file_seed = self.seed * 1000 + k
        schedule = scheduler.build_scenario_schedule(
            self.timing, None, np.random.default_rng(file_seed))
        record = subject.simulate_subject(
            schedule, subject.SubjectParams(seed=file_seed))
        path = self.work / f"record-{k}.eeg"
        acquisition.save_record(record, path)
        self.records.append((path, record.samples, record.markers))
        self.record_s = record.duration_s
        return self._check_op(self._train(k, Timer()))

    def _train(self, k: int, timer: Timer) -> Op:
        path = self.records[k % len(self.records)][0]
        model_path = self.work / "model.json"
        seen = {}

        def capture(key):
            def wrap(original):
                def captured(*args, **kwargs):
                    seen[key] = original(*args, **kwargs)
                    return seen[key]
                return captured
            return wrap

        argv = ["train", "--record", str(path), "--model", str(model_path),
                "--seed", str(self.seed * 1000 + k), *self.flags]
        out = io.StringIO()
        with patched(cli, "load_record", capture("record")), \
                patched(cli, "dataset_from_scenario", capture("dataset")), \
                contextlib.redirect_stdout(out), timer.op() as op:
            code = cli.main(argv)
        op.output = (k, code, out.getvalue(), seen, model_path)
        return op

    def run_round(self, index: int, timer: Timer) -> Round:
        started = time.perf_counter()
        try:
            op = self._train(index, timer)
        except Exception:  # the op raised: count it, go on
            return Round(1, [], time.perf_counter() - started, None,
                         [traceback.format_exc()])
        return Round(1, [op], op.wall_s)

    def _check_op(self, op: Op) -> list:
        k, code, stdout, seen, model_path = op.output
        op.output = None
        if code != 0:
            op.problems = [f"p300loop train exited {code}: {stdout}"]
            return op.problems
        _, samples, markers = self.records[k % len(self.records)]
        loaded, dataset = seen["record"], seen["dataset"]
        problems = checks.check_loaded_record(samples, markers,
                                              loaded.samples, loaded.markers)
        if list(dataset.labels) != [bool(ev.is_target) for ev in markers]:
            problems.append("dataset labels differ from the record's target "
                            "markers")
        model = acquisition.load_model(model_path)
        problems += checks.check_model(
            model.weights, len(model.channels), model.window.length,
            dataset.vectors, dataset.labels)
        op.problems = problems
        return problems

    def check_round(self, outcome: Round) -> None:
        for op in outcome.ops:
            self._check_op(op)

    def describe(self) -> dict:
        path, samples, markers = self.records[0]
        return {"op": "cli.main(['train', ...])", "flags": self.flags,
                "files": len(self.records),
                "record_s": self.record_s,
                "samples": samples.shape[1],
                "record_bytes": path.stat().st_size,
                "runs_per_session": self.timing.runs_per_session,
                "markers": len(markers)}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK.rmdir()


WORKLOADS = {
    "select": SelectWorkload,
    # 12 runs per session: 591.6 s records, so decode and cross-validation
    # are each a large share of one train.
    "calibrate": lambda seed: TrainWorkload(seed, runs_per_session=12),
    # The paper's 317.2 s scenario; ICA is about half of one train.
    "ica": lambda seed: TrainWorkload(seed, runs_per_session=6,
                                      flags=["--ica"]),
}


def _blas_threads() -> dict:
    """Thread count reported by each bundled OpenBLAS, where one is found."""
    import ctypes
    import scipy
    found = {}
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / (
            package.__name__ + ".libs")
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    found[lib.name] = getter()
                    break
    return found


def _environment() -> dict:
    import platform
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_set": BLAS_THREADS,
            "blas_threads_seen": _blas_threads()}


def _percentiles(walls) -> dict:
    if len(walls) < 2:
        return {"p50": 1000 * walls[0]}
    cuts = statistics.quantiles(walls, n=20, method="inclusive")
    return {"p50": 1000 * statistics.median(walls), "p90": 1000 * cuts[17],
            "p95": 1000 * cuts[18], "max": 1000 * max(walls)}


def measure(workload, seconds: float, trace: bool):
    """Whole rounds until `seconds` have passed; with trace, every other
    round runs traced, so both kinds of round see the same conditions."""
    tracer = spans.Tracer() if trace else None
    timer = Timer()
    rounds = {False: [], True: []}
    started = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        timer.tracer = tracer if traced else None
        if traced:
            tracer.install()
        try:
            outcome = workload.run_round(index, timer)
        finally:
            if traced:
                tracer.uninstall()
        workload.check_round(outcome)
        rounds[traced].append(outcome)
        index += 1
        if (time.perf_counter() - started >= seconds
                and (not trace or index % 2 == 0)):
            break
    return rounds, tracer, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)  # ICA non-convergence

    workload = WORKLOADS[args.workload](args.seed)
    try:
        setup_rounds = []
        setup_problems = []
        for k in range(SETUP_ROUNDS):
            started = time.perf_counter()
            setup_problems += workload.setup_round(k)
            setup_rounds.append(time.perf_counter() - started)
        setup_s = IMPORT_S + statistics.median(setup_rounds)
        rounds, tracer, elapsed = measure(workload, args.seconds,
                                          bool(args.trace))
        described = workload.describe()
    finally:
        workload.close()

    every = rounds[False] + rounds[True]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    problems = setup_problems + [p for r in every for p in r.problems]
    for problem in problems + [p for r in every for op in r.ops
                               for p in op.problems]:
        print(f"bench: {problem}", file=sys.stderr)

    plain = [op for r in rounds[False] for op in r.ops]
    walls = [op.wall_s for op in plain]
    if not walls:
        print("bench: no untraced op completed", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": elapsed,
        "import_s": IMPORT_S, "setup_rounds_s": setup_rounds,
        "rounds": len(every), "workload_detail": described,
        "untraced_ops": len(plain),
        "round_op_ms": [(1000 * statistics.fmean(op.wall_s for op in r.ops),
                         1000 * statistics.median(op.wall_s for op in r.ops))
                        for r in rounds[False] if r.ops],
        "op_ms": _percentiles(walls),
        "environment": _environment(),
    }
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        traced = [op for r in rounds[True] for op in r.ops]
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(op.wall_s for op in traced)
            / statistics.median(walls) - 1.0)
        units = {}
        for name in metrics:
            units[name] = ("%" if name.endswith("_pct") else
                           "ms" if name.endswith("_ms") else
                           "MB/s" if name.endswith("_per_s") else
                           "MB" if name.endswith("_mb") else "count")
        detail["self_ms_per_op"] = {
            name: 1000 * total / len(traced)
            for name, total in sorted(tracer.self_time_by_name().items())}
        detail["calls_per_op"] = {
            name: count / len(traced)
            for name, count in sorted(tracer.calls_by_name().items())}
        detail["traced_ops"] = len(traced)
        tracer.write(
            RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz",
            {"workload": args.workload, "seed": args.seed,
             "traced_ops": len(traced)})
    else:
        timed_s = sum(r.timed_s for r in rounds[False])
        metrics = {
            "setup_s": setup_s,
            "op_ms": 1000 * statistics.median(walls),
            "op_cpu_ms": 1000 * statistics.median(op.cpu_s for op in plain),
            "ops_per_s": len(plain) / timed_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_ms": "ms", "op_cpu_ms": "ms",
                 "ops_per_s": "1/s", "peak_rss_mb": "MB"}
    detail["metrics"] = metrics
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
