"""Benchmark of contradapt training: one workload per process, BLAS on one thread.

    python3 bench/run.py --workload moons-cdd --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed and at
least 100 outer loops have been timed, checks every round's outputs, and
prints as its last stdout line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` each round runs twice,
untraced and then traced with the same seed, and the metrics are the
per-layer ones.  See bench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("moons-cdd", "blobs-ce", "blobs-large-cli")
P90_MIN_LOOPS = 100  # a p90 needs ten samples beyond it
IMPORT_REPEATS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def package_import_s() -> float:
    """Median time to execute the package's modules afresh.  The modules in
    use are put back afterwards, so the run keeps working with one copy.
    Measured once per run, before the first round, so the memory the extra
    copies leave behind does not grow with the round count."""

    def ours():
        return {k: v for k, v in sys.modules.items()
                if k == "contradapt" or k.startswith("contradapt.")}

    saved = ours()
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in ours():
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("contradapt.cli")
        times.append(time.perf_counter() - t0)
    for name in ours():
        del sys.modules[name]
    sys.modules.update(saved)
    gc.collect()
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "contradapt" / "__init__.py").is_file():
        print(f"error: no contradapt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import contradapt.cli

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    clock = workloads.TrainClock()
    contradapt.cli.train = clock.train  # timestamps the CLI's training loops
    tracer = tracing.Tracer() if args.trace else None
    ops = workloads.Ops()
    import_s = package_import_s()
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)

    def one_round(r: int, traced: bool, expected):
        workdir = os.path.join(scratch, f"round{r}{'-traced' if traced else ''}")
        os.makedirs(workdir)
        rnd = workloads.Round(seed=1000 * args.seed + r, workdir=workdir, clock=clock, ops=ops)
        clock.begin()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            outputs = workload.execute(rnd)
        finally:
            t1 = time.perf_counter()
            if traced:
                tracer.uninstall()
        clock.recording = False
        workload.check(rnd, outputs, expected)
        shutil.rmtree(workdir)
        timing = {"setup_s": import_s + clock.first_entry - t0, "run_s": t1 - clock.first_entry,
                  "wall_s": t1 - t0, "loop_s": clock.loop_s, "train_s": clock.train_s,
                  "steps": clock.steps}
        return timing, [out.digest() for out in outputs]

    rounds, traced_rounds, digests = [], [], []
    try:
        t_begin = time.perf_counter()
        while (time.perf_counter() - t_begin < args.seconds
               or sum(len(t["loop_s"]) for t in rounds) < P90_MIN_LOOPS):
            r = len(rounds)
            timing, round_digests = one_round(r, False, None)
            rounds.append(timing)
            digests.append(round_digests)
            if tracer is not None:
                timing, _ = one_round(r, True, round_digests)
                traced_rounds.append(timing)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer is None:
        loop_ms = [1000.0 * s for t in rounds for s in t["loop_s"]]
        values = {
            "setup_s": (statistics.median(t["setup_s"] for t in rounds), "s"),
            "run_s": (statistics.median(t["run_s"] for t in rounds), "s"),
            "steps_per_s": (statistics.median(t["steps"] / t["train_s"] for t in rounds), "1/s"),
            "loop_ms_p50": (float(np.percentile(loop_ms, 50)), "ms"),
            "loop_ms_p90": (float(np.percentile(loop_ms, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced_wall = sum(t["wall_s"] for t in traced_rounds)
        per_layer = tracer.summary(len(traced_rounds), traced_wall)
        per_layer["trace.overhead_s"] = statistics.mean(
            t["wall_s"] - u["wall_s"] for t, u in zip(traced_rounds, rounds))
        values = {name: (value, _unit(name)) for name, value in sorted(per_layer.items())}
        tracer.write(OUT / f"spans-{args.workload}.npz")

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "loops": sum(len(t["loop_s"]) for t in rounds),
        "machine": machine(), "output_digests": digests,
    }
    print("# " + json.dumps(info, sort_keys=True))
    for problem in ops.problems:
        print(f"failed operation: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
