"""Benchmark of scatterspline: one workload per process, timed end to end.

    python3 bench/run.py --workload voids2d --seed 1 --seconds 40 --trace 0

Run from the root of a source tree; the package is imported from ./src.
The run sets up (the import timed in a fresh interpreter, inputs from the
seed, a warm-up on a small instance), then repeats whole rounds of the
workload, the first three each followed by another set-up, until --seconds
have passed, then checks every operation. After each operation it times a
fixed calibration kernel (calibration.py), and it reports every timing at
the reference speed of the host measured that way. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
See bench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

SETUP_REPEATS = 4  # set-up is short, so its median is reported
# Set before numpy loads: every BLAS and OpenMP pool gets one thread, and
# numpy asks for no transparent huge pages, whose availability changes from
# run to run and with it the resident memory.
FIXED_ENVIRONMENT = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
WORKLOAD_NAMES = ("voids2d", "grid3d", "pipeline2d")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_import(src):
    """Seconds a fresh interpreter takes to import numpy and the package."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); "
            "import numpy, scatterspline, scatterspline.cli; "
            "print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-B", "-c", code, src], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "scatterspline", "__init__.py")):
        print(f"error: no src/scatterspline under {root}; run from a source tree",
              file=sys.stderr)
        return 2
    os.environ.update(FIXED_ENVIRONMENT)
    sys.dont_write_bytecode = True  # leave the source tree as it was
    sys.path.insert(0, src)

    import numpy  # noqa: F401
    import scatterspline
    import scatterspline.cli  # noqa: F401
    if os.path.dirname(scatterspline.__file__) != os.path.join(src, "scatterspline"):
        print(f"error: imported {scatterspline.__file__}, not the tree's own",
              file=sys.stderr)
        return 2

    import calibration
    import tracing
    import workloads

    out_dir = os.path.join(root, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](workdir=workdir)
    host = calibration.Calibration()
    host.work()  # warm, untimed
    tracer = tracing.Tracer(enabled=bool(args.trace))
    tracer.install()
    imports, setups = [], []

    def set_up():
        # the import above filled the file cache, as it is for a user who
        # runs the program again
        imports.append(time_import(src))
        began = time.perf_counter()
        with tracer.recording(("setup", len(setups))):
            generated = workload.generate(args.seed)
        workload.warm_up(args.seed, tracer)
        setups.append(time.perf_counter() - began)
        return generated

    try:
        inputs = set_up()
        # Whole rounds only. The first rounds are each followed by a set-up,
        # so that set-ups are timed over the same stretch of the host's load
        # as the rounds. Another round starts while it, and the set-up after
        # it if one is due, should end in time.
        rounds = []
        began = time.perf_counter()

        def next_cost():
            cost = median(r.wall for r in rounds) * (1 + calibration.SHARE)
            if len(setups) < SETUP_REPEATS:
                cost += median(setups) + median(imports)
            return cost

        while not rounds or time.perf_counter() - began + next_cost() <= args.seconds:
            with tracer.recording(("round", len(rounds))):
                rounds.append(workload.run_round(inputs, tracer, str(len(rounds)), host))
            if len(rounds) == 1:
                # set-up and one round: the same work in every run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if len(setups) < SETUP_REPEATS:
                set_up()
        while len(setups) < SETUP_REPEATS:
            set_up()
    finally:
        tracer.uninstall()

    began = time.perf_counter()
    try:
        failures = workload.check(inputs, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_seconds = time.perf_counter() - began
    for (index, key), message in sorted(failures.items()):
        print(f"FAILED round {index} {key}: {message}", file=sys.stderr)
    ops = [op for rnd in rounds for op in rnd.ops]
    # correct speaks of the operations that ran: one that raised unexpectedly
    # counts as failed but returned nothing wrong
    crashed = {(i, op.key) for i, rnd in enumerate(rounds) for op in rnd.ops
               if op.error is not None and workload.expected_error(op.key) is None}

    print(f"{args.workload}: {len(rounds)} rounds, {len(ops)} operations, "
          f"round walls {[round(r.wall, 3) for r in rounds]}, "
          f"imports {[round(s, 3) for s in imports]}, set-ups {[round(s, 3) for s in setups]}, "
          f"checks {check_seconds:.1f} s",
          file=sys.stderr)
    # Each round at the host speed measured during it; set-ups, which lie
    # between rounds, at the speed measured over the whole run.
    factors = [calibration.factor(r.calibration) for r in rounds]
    wall = median(r.wall * f for r, f in zip(rounds, factors))
    print(f"reported seconds per measured second, by round: "
          f"{[round(f, 4) for f in factors]}; measured medians: "
          f"wall {median(r.wall for r in rounds):.4f} s, "
          f"fit {median(r.fit_seconds for r in rounds):.4f} s, "
          f"eval {median(r.eval_mpts_per_s for r in rounds):.4f} Mpts/s, "
          f"setup {median(imports) + median(setups):.4f} s",
          file=sys.stderr)
    if args.trace:
        metrics = tracer.layer_metrics()
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "wall_s": wall})
        print(f"traced wall_s {wall:.4f}; spans in {trace_path}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "fit_s": (median(r.fit_seconds * f for r, f in zip(rounds, factors)), "s"),
            "eval_mpts_per_s": (
                median(r.eval_mpts_per_s / f for r, f in zip(rounds, factors)), "Mpts/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": ((median(imports) + median(setups)) * calibration.factor(host.times),
                        "s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "correct": not set(failures) - crashed,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # a fixed hash seed fixes set and dict order, and with it the order
        # of allocations that decides the peak resident memory
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
