"""maskdg benchmark: one command, one fresh process per workload.

    python3 perfbench/run.py --workload dg_2x2 --seed 1 --seconds 30 --trace 0

Run from the repository root (it imports maskdg from ./src). BLAS is pinned
to one thread before numpy is imported. `--workload all`
(the default) runs every workload, each in its own child process so that
`peak_rss_mb` belongs to one workload. Every iteration's outputs are
checked; a failed check is printed by name and counted. One untimed warm-up
iteration comes first. Each timed iteration and each timed batch of set-ups
follows a timing of a fixed reference kernel, and its wall time is reported
at nominal speed, scaled by the kernel's time (see reference.py), because
the host's own speed drifts by up to a factor of two.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics (setup_s, run_s, peak_rss_mb). With `--trace 1` untraced
iterations alternate with traced ones, in which every wrapped maskdg
function records spans, and the JSON carries the per-layer metrics. A traced
iteration whose top-level spans do not cover its wall time to within 10%
fails its check. The spans are written to
.perfbench/trace_<workload>_seed<seed>.jsonl.
`--tiny` shrinks every workload to a seconds-long size for tests.

Exit codes: 0 when every check passed, 1 when one failed, 2 when the
checkout has no maskdg sources to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dg_2x2", "citation_eval", "duality_grid")
# Set-up is timed in SETUP_SAMPLES samples before the first iteration, each
# a fixed batch of set-ups (workloads.SETUP_BATCH) long enough to time, and
# the median seconds per set-up at nominal speed is reported.
SETUP_SAMPLES = 7
COVERAGE_TOLERANCE = 0.10
# The end-to-end metrics, as printed with --trace 0.
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Fix the BLAS pool at one thread; must run before numpy is imported.

    One thread keeps runs steady on a small shared machine, and with two
    OpenBLAS threads a 120 x 120 eigh takes about 100 times longer than with
    one, which would bury dg_2x2's training time under enrichment.
    """
    threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_program() -> None:
    """Put ./src first on the path and make sure maskdg comes from there."""
    src = ROOT / "src"
    if not (src / "maskdg" / "__init__.py").is_file():
        print(f"error: no maskdg sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import maskdg
    if src.resolve() not in Path(maskdg.__file__).resolve().parents:
        print(f"error: maskdg imported from {maskdg.__file__}, not from "
              f"{src}", file=sys.stderr)
        raise SystemExit(2)


def environment(threads: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "nproc": nproc()}


def time_setup(setup, batch: int, args, workdir: Path, reference):
    """Returns (wall seconds per set-up, reference kernel seconds just
    before) for each of SETUP_SAMPLES batches, and the case the last set-up
    built."""
    times = []
    for _ in range(SETUP_SAMPLES):
        ref_seconds = reference.seconds()
        start = perf_counter()
        for _ in range(batch):
            case = setup(args.seed, args.tiny, workdir)
        times.append(((perf_counter() - start) / batch, ref_seconds))
    return times, case


def coverage_misses(tracer, it: int, seconds: float) -> List[str]:
    """The trace_coverage check of one traced iteration: the top-level
    spans must cover its wall time to within COVERAGE_TOLERANCE."""
    coverage = tracer.root_seconds(it) / seconds
    if abs(coverage - 1) <= COVERAGE_TOLERANCE:
        return []
    return [f"trace_coverage={coverage:.4f}"]


class Runner:
    """Runs timed iterations of one case and keeps the check results."""

    def __init__(self, name: str, case, reference):
        self.name = name
        self.case = case
        self.reference = reference
        self.first = None
        self.last = None
        self.attempted = 0
        self.failed = 0
        # (iteration id, wall seconds, reference kernel seconds just before)
        self.samples = []  # untraced iterations
        self.traced = []   # traced iterations

    def iterate(self, seconds: float, tracer=None) -> None:
        """One warm-up iteration, checked but not timed, then timed ones for
        as long as the next is expected to end within `seconds`, at least
        one, each after a timing of the reference kernel. With a tracer,
        traced and untraced iterations alternate, so that host drift touches
        both alike, and at least one of each runs."""
        window_start = None
        while True:
            it = self.attempted
            self.attempted += 1
            traced = tracer is not None and it % 2 == 1
            ref_seconds = self.reference.seconds() if it > 0 else None
            if traced:
                tracer.iteration = it
            with tracer if traced else contextlib.nullcontext():
                start = perf_counter()
                try:
                    out, error = self.case.run(), None
                except Exception as exc:
                    out, error = None, exc
                seconds_taken = perf_counter() - start
            if error is not None:
                traceback.print_exception(error)
                self._fail(it, [f"raised:{type(error).__name__}"])
            else:
                if it > 0:
                    (self.traced if traced else self.samples).append(
                        (it, seconds_taken, ref_seconds))
                bad = self.case.check(out, self.first)
                if traced:
                    bad += coverage_misses(tracer, it, seconds_taken)
                if self.first is None:
                    self.first = out
                self.last = out
                self._fail(it, bad)
            if window_start is None:
                window_start = perf_counter()
                continue
            timed = self.attempted - 1
            if timed >= (1 if tracer is None else 2) and \
                    perf_counter() + seconds_taken - window_start > seconds:
                return

    def _fail(self, it: int, checks) -> None:
        if checks:
            self.failed += 1
            for check in checks:
                print(f"FAIL {self.name} iteration {it}: {check}", flush=True)


def run_workload(args) -> int:
    threads = pin_blas_threads()
    import_program()
    import workloads
    from reference import Reference, at_nominal_speed
    from tracing import Tracer, per_layer_spec

    env = environment(threads)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    reference = Reference()
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        setup_times, case = time_setup(workloads.SETUPS[args.workload],
                                       workloads.SETUP_BATCH[args.workload],
                                       args, Path(tmp), reference)
        runner = Runner(args.workload, case, reference)
        runner.iterate(args.seconds, tracer)
        if tracer is not None:
            tracer.measure_spectral_peak()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    samples = runner.samples
    if not samples or (tracer is not None and not runner.traced):
        print(f"FAIL {args.workload}: no iteration completed", flush=True)
        return 1
    setup_s = statistics.median(at_nominal_speed(dt, ref)
                                for dt, ref in setup_times)
    run_s = nominal_median(samples)
    print(f"workload {args.workload} seed {args.seed}"
          f"{' (tiny)' if args.tiny else ''}: {runner.attempted} iterations, "
          f"{runner.failed} failed")
    figures = {
        "setup_s": (setup_s, "s", f"at nominal speed, median of "
                                  f"{len(setup_times)} batches of "
                                  f"{workloads.SETUP_BATCH[args.workload]}"
                                  f" set-ups"),
        "run_s": (run_s, "s", f"at nominal speed, median of {len(samples)} "
                              f"untraced iterations"),
        "setup_wall_s": (statistics.median(dt for dt, _ in setup_times), "s",
                         "median wall time, which follows the host's speed"),
        "run_wall_s": (statistics.median(dt for _, dt, _ in samples), "s",
                       "median wall time, which follows the host's speed"),
        "reference_s": (statistics.median(ref for _, _, ref in samples), "s",
                        "median reference kernel time"),
    }
    for name, (value, unit) in case.report(runner.last, run_s).items():
        figures[name] = (value, unit, "from run_s")
    figures["peak_rss_mb"] = (rss_mb, "MB", "ru_maxrss of this process")
    figures["error_share"] = (runner.failed / runner.attempted, "ratio",
                              f"{runner.failed} of {runner.attempted}")
    for name, (value, unit, note) in figures.items():
        print(f"  {name:18s} {value:14.6g} {unit:6s} {note}")
    print("  iteration seconds: "
          + " ".join(f"{dt:.4g}" for _, dt, _ in samples))
    print("  iteration seconds at nominal speed: "
          + " ".join(f"{at_nominal_speed(dt, ref):.4g}"
                     for _, dt, ref in samples))

    if not args.trace:
        metrics = {name: {"value": figures[name][0], "unit": figures[name][1]}
                   for name in END_TO_END}
    else:
        metrics = trace_metrics(args, env, tracer, runner.traced, samples,
                                per_layer_spec())
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


def nominal_median(samples) -> float:
    """Median seconds at nominal speed of (iteration id, wall seconds,
    reference kernel seconds) samples."""
    from reference import at_nominal_speed

    return statistics.median(at_nominal_speed(dt, ref)
                             for _, dt, ref in samples)


def trace_metrics(args, env, tracer, traced, untraced, spec) -> dict:
    ids = [it for it, _, _ in traced]
    values = tracer.layer_metrics(ids)
    traced_run_s = nominal_median(traced)
    values["trace.coverage"] = statistics.median(
        tracer.root_seconds(it) / dt for it, dt, _ in traced)
    values["trace.overhead_ratio"] = traced_run_s / nominal_median(untraced)
    print(f"trace: {len(traced)} traced iterations, interleaved with "
          f"untraced ones; traced run_s {traced_run_s:.6g} s, overhead "
          f"x{values['trace.overhead_ratio']:.4f} (a ratio of the run_s "
          f"medians of {len(traced)} and {len(untraced)} iterations); layer "
          f"self times cover "
          f"{values['trace.coverage']:.2%} of the iteration (checked on "
          f"each traced iteration, tolerance {COVERAGE_TOLERANCE:.0%})")
    busiest = sorted((k for k in values if k.endswith(".self_s")),
                     key=values.get, reverse=True)
    for name in busiest:
        if values[name] > 0:
            prefix = name[:-len(".self_s")]
            print(f"  {prefix:32s} self {values[name]:10.4f} s  incl "
                  f"{values[prefix + '.s']:10.4f} s  calls "
                  f"{values[prefix + '.calls']:g}")
    path = ROOT / ".perfbench" / f"trace_{args.workload}_seed{args.seed}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "tiny": args.tiny, "env": env})
    print(f"spans -> {path.relative_to(ROOT)}", flush=True)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in spec}


def run_all(args) -> int:
    """Each workload in its own child process; metrics keyed workload.name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print("\n".join(lines))
            print(f"error: workload {name} printed no result "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="seconds-long sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
