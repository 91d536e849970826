"""alignlab benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload {simulate,verdicts,oracle} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Each iteration is a fresh child process (perfbench/child.py) with a fresh
output directory under .bench_build/, ALIGNLAB_THREADS set to the usable CPU
count and BLAS pinned to one thread. One untimed warm-up iteration comes first;
timed iterations then repeat until --seconds is up (at least two, so every run
checks that one seed gives one output digest).

--trace 0 prints every end-to-end metric of BENCHMARK.json: medians over the
iterations, plus the median of several set-up children. --trace 1 adds one
traced iteration (and, for simulate, one ALIGNLAB_THREADS=1 iteration) and
prints every per-layer metric. The line before the last holds the details:
machine, the median wall_s and work_per_s, per-iteration values, digests, and
why a per-layer metric is absent.
The last line is the result object. Exit code 1 means the benchmark could not
run; a failed check is counted in "failed" and does not stop the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import child as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env(threads: int) -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), ALIGNLAB_THREADS=str(threads), **PINNED)


def run_child(spec: dict, threads: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        env=child_env(threads), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(argv: list[str], threads: int) -> float:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=child_env(threads), cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up child exited with {proc.returncode}:\n{proc.stderr.decode()[-3000:]}")
    return elapsed


def machine(threads: int) -> dict:
    import numpy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": threads,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas,
        "pinned": PINNED,
        "ALIGNLAB_THREADS": threads,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def measure(args, work_root: Path, threads: int) -> tuple[dict, dict, dict]:
    size = wl.SIZES[args.size]
    runs = 0

    def spec(trace: bool) -> dict:
        nonlocal runs
        runs += 1
        return {"workload": args.workload, "seed": args.seed, "size": args.size,
                "out": str(work_root / f"it{runs}"), "trace": trace}

    # An untimed warm-up iteration first, so that the page cache and the
    # machine settle before timing; its outputs are checked like the rest.
    # Set-up children are spread over the run, so they see the same machine
    # speed as the iterations. No pass starts that would, at the median pass
    # length so far, end after the deadline, so a run lasts about --seconds.
    deadline = perf_counter() + args.seconds
    warmup = run_child(spec(False), threads)
    setup_argv = wl.setup_argv(args.workload, args.seed, size, work_root / "setup")
    setup, its, passes = [], [], []
    while len(its) < MIN_ITERATIONS or perf_counter() + statistics.median(passes) < deadline:
        t0 = perf_counter()
        if not args.trace:
            setup.append(time_setup(setup_argv, threads))
        its.append(run_child(spec(False), threads))
        passes.append(perf_counter() - t0)
    while not args.trace and len(setup) < SETUP_REPEATS:
        setup.append(time_setup(setup_argv, threads))
    serial = traced = None
    if args.trace:
        if args.workload == "simulate":
            serial = run_child(spec(False), 1)
        traced = run_child(spec(True), threads)

    everything = [warmup, *its] + [r for r in (serial, traced) if r]
    digests = sorted({r["digest"] for r in everything})
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    wall = statistics.median(r["wall_s"] for r in its)
    # wall_s and work_per_s go with the details, not among the end-to-end
    # metrics: on a shared host the processor's own speed moves by up to a
    # quarter over tens of seconds (CPU time with it), so x_floor, which
    # divides that out, stands for them.
    times = {
        "wall_s": {"value": wall, "unit": "s"},
        "work_per_s": {"value": statistics.median(r["work"] / r["wall_s"] for r in its), "unit": "1/s"},
    }
    if args.trace:
        metrics = dict(traced["trace"]["metrics"])
        absent = dict(traced["trace"]["absent"])
        if serial:
            metrics["harness.pool.scaling"] = serial["wall_s"] / wall
        else:
            metrics["harness.pool.scaling"] = 0.0
            absent["harness.pool.scaling"] = "the workload runs serially, without the job pool"
        metrics["trace.overhead_s"] = traced["wall_s"] - wall
    else:
        absent = {}
        metrics = {
            "x_floor": statistics.median(r["wall_s"] / r["floor_s"] for r in its),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in its),
            "pass_share": 1.0 - failed / attempted,
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "times": times,
        "digests": digests,
        "setup_s": setup,
        "floor_block": [wl.FLOOR_BLOCK],
        "warmup": warmup,
        "iterations": [{k: v for k, v in r.items() if k != "trace"} for r in its],
        "serial": serial and {k: v for k, v in serial.items() if k != "trace"},
        "traced": traced and {k: v for k, v in traced.items() if k != "trace"},
        "layer_self_s": traced and traced["trace"]["layer_self_s"],
        "counted_normals": traced and traced["trace"]["counted_normals"],
        "absent": absent,
    }
    result = {"correct": len(digests) == 1, "attempted": attempted, "failed": failed}
    return result, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("simulate", "verdicts", "oracle"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(wl.SIZES), help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alignlab" / "__init__.py").is_file():
        print(f"perfbench: no alignlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    threads = len(os.sched_getaffinity(0))
    work_root = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    info = machine(threads)
    try:
        result, metrics, details = measure(args, work_root, threads)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    info["loadavg_1m_end"] = os.getloadavg()[0]
    details["machine"] = info
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
