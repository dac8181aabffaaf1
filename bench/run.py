"""Benchmark runner: real `eaqec` CLI jobs, run in-process, checked by an oracle.

    python3 bench/run.py --workload erasure_scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, one table

One client in a closed loop: each job is `eaqec.cli.main(argv + ["--format",
"json"])`, started when the previous one has returned.  With --trace 0 the
runner starts worker processes one after another; each sets up, times one
pass over the workload's job list and checks it, until --seconds have gone
by and at least MIN_SAMPLES jobs have run.  It prints the end-to-end
metrics.  With --trace 1 it runs, in one process, one untraced pass, one
pass with timing spans around each layer and one pass with tracemalloc, and
prints the per-layer metrics.  Every job's output is checked by oracle.py
outside the timed region.  The last line of stdout is the result as one
JSON object; run details go to .bench_out/ at the checkout root.

The package is imported from the checkout's src/ directory; without it the
runner exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np   # imported before any set-up, so set-up times eaqec alone

from layertrace import LAYERS, AllocTracer, SpanTracer, installed, per_layer_units
from oracle import Oracle
from workloads import WARMUP, WORKLOADS, job_list

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_SAMPLES = 100        # job_p90_ms needs ten samples beyond it
MAX_MEASURE_S = 90.0     # start no worker after this, even short of MIN_SAMPLES
WORKER_TIMEOUT_S = 60.0
SETUP_REPEATS = 3        # per worker process

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                    "job_p90_ms": "ms", "peak_rss_mb": "MB"}

# ------------------------------------------------------------------ set-up

def import_package() -> SimpleNamespace:
    """Import eaqec afresh from the checkout's src/ (any earlier import is dropped)."""
    for name in [m for m in sys.modules if m == "eaqec" or m.startswith("eaqec.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"eaqec.{m}") for m in LAYERS})
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"eaqec was imported from {mods.cli.__file__}, not {SRC}")
    return mods


def set_up(workload: str, seed: int):
    """Import, build the seeded job list and run one warm-up job per command kind."""
    mods = import_package()
    groups = {}

    def is_correctable(generators, subset):
        if generators not in groups:
            groups[generators] = mods.stab.StabilizerGroup.from_strings(generators)
        return mods.stab.is_correctable_stab(groups[generators], subset)

    jobs = job_list(workload, seed, is_correctable)
    argvs = [job.argv() + ["--format", "json"] for job in jobs]
    for job in WARMUP[workload]:
        run_job(mods, job.argv() + ["--format", "json"])
    return SimpleNamespace(mods=mods, jobs=jobs, argvs=argvs)


# --------------------------------------------------------------- measuring

def run_job(mods, argv):
    """(exit code or None, stdout, exception text or None) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mods.cli.main(argv)
        return rc, out.getvalue(), None
    except Exception as exc:   # a crash is a failed job, not a failed benchmark
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"


def run_pass(env, tracer=None):
    """One pass over the job list: (wall seconds, per-job seconds, per-job results)."""
    latencies, results = [], []
    clock = time.perf_counter
    start = clock()
    for job_id, argv in enumerate(env.argvs):
        t0 = clock()
        if tracer is None:
            res = run_job(env.mods, argv)
        else:
            res = tracer.job_span(job_id, lambda: run_job(env.mods, argv))
        latencies.append(clock() - t0)
        results.append(res)
    return clock() - start, latencies, results


def check_results(env, oracle, results) -> list[str]:
    """Reasons for every job run that disagrees with the oracle."""
    failures = []
    for job, (rc, out, exc) in zip(env.jobs * (len(results) // len(env.jobs)), results):
        why = exc if exc is not None else oracle.check(job, rc, out)
        if why is not None:
            failures.append(f"{job.label()}: {why}")
    return failures


def percentile(values, q: int) -> float:
    """q-th percentile, linear between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def worker(workload: str, seed: int) -> dict:
    """Set up, run one timed pass and check it, all in this process."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        env = set_up(workload, seed)
        setups.append(time.perf_counter() - t0)
    wall, latencies, results = run_pass(env)
    return {"setups_s": setups, "wall_s": wall, "latencies_s": latencies,
            "attempted": len(results),
            "failures": check_results(env, Oracle(env.mods), results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "record": process_record()}


def measure(workload: str, seed: int, seconds: float):
    """Worker processes one after another, one pass each, until --seconds
    have gone by and MIN_SAMPLES jobs have run.

    On a small shared machine a whole process can run ~10% faster or slower
    than the next; medians over several processes keep that out of the
    result.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--worker"]
    workers = []
    start = time.perf_counter()
    while True:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
        workers.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        elapsed = time.perf_counter() - start
        samples = sum(len(w["latencies_s"]) for w in workers)
        if (elapsed >= seconds and samples >= MIN_SAMPLES) or elapsed >= MAX_MEASURE_S:
            break

    setups = [t for w in workers for t in w["setups_s"]]
    walls = [w["wall_s"] for w in workers]
    latencies = [t for w in workers for t in w["latencies_s"]]
    rss = [w["peak_rss_mb"] for w in workers]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": statistics.median(rss),
    }
    details = dict(workers[0]["record"], workers=len(workers),
                   jobs_per_pass=len(workers[0]["latencies_s"]), samples=len(latencies),
                   measured_s=elapsed, pass_walls_s=walls, setups_s=setups,
                   peak_rss_mb=rss)
    failures = [f for w in workers for f in w["failures"]]
    return metrics, sum(w["attempted"] for w in workers), failures, details, None


def measure_traced(workload: str, seed: int):
    env = set_up(workload, seed)
    untraced_wall, _, results = run_pass(env)

    spans = SpanTracer()
    with installed(spans, env.mods):
        traced_wall, _, res = run_pass(env, spans)
    results += res

    alloc = AllocTracer()
    tracemalloc.start()
    try:
        with installed(alloc, env.mods):
            _, _, res = run_pass(env, alloc)
    finally:
        tracemalloc.stop()
    results += res

    failures = check_results(env, Oracle(env.mods), results)
    metrics = spans.metrics(len(env.jobs))
    metrics.update(alloc.metrics())
    metrics["trace_overhead"] = traced_wall / untraced_wall
    details = dict(process_record(), jobs_per_pass=len(env.jobs),
                   untraced_wall_s=untraced_wall, traced_wall_s=traced_wall,
                   spans=len(spans.spans))
    return metrics, len(results), failures, details, spans


# -------------------------------------------------------------- run record

def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas():
    """(BLAS library, its thread count) for the numpy in use, None where unknown."""
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg['name']} {cfg.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = None
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = int(fn())
                break
        if threads is not None:
            break
    return name, threads


def process_record() -> dict:
    """The interpreter, numpy and BLAS this process measured with."""
    blas, blas_threads = _blas()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": blas_threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform()}


# -------------------------------------------------------------------- main

def run_one(args) -> int:
    if not (SRC / "eaqec" / "__init__.py").is_file():
        print(f"error: no eaqec package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker:
        print(json.dumps(worker(args.workload, args.seed)))
        return 0

    if args.trace:
        metrics, attempted, failures, details, spans = measure_traced(args.workload, args.seed)
        units = per_layer_units()
    else:
        metrics, attempted, failures, details, spans = measure(
            args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_sha": _git_sha(), **details}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        spans.write(OUT_DIR / f"{stem}-spans.jsonl")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"record": record, "failures": failures, **result}, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed}: {attempted} jobs, {len(failures)} failed")
    for reason in failures[:10]:
        print(f"  FAIL {reason}")
    for name, m in result["metrics"].items():
        note = f"  ({details['samples']} samples)" if name == "job_p90_ms" else ""
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_frac':42s} {len(failures) / attempted:.6g} ratio"
          f"  ({len(failures)} failed of {attempted} attempted)")
    print("run_record " + json.dumps(record))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload through its own runner process, then one table of all metrics."""
    rows, ok = {}, True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows[workload] = result
    names = list(rows[WORKLOADS[0]]["metrics"])
    print()
    print(f"{'metric':44s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name in names:
        unit = rows[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':44s}"
              + "".join(f"{rows[w]['metrics'][name]['value']:16.6g}" for w in WORKLOADS))
    print(f"{'fail_frac [ratio]':44s}"
          + "".join(f"{rows[w]['failed'] / rows[w]['attempted']:16.6g}" for w in WORKLOADS))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
