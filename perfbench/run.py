"""Pipeline benchmark: graph -> prepare() -> walks (-> Word2Vec -> F1).

Run from the root of a checkout:

    python3 perfbench/run.py --workload n2v-mh-corpus --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the corpus pipeline for ``--seconds`` and reports
the medians of the end-to-end metrics; ``--trace 1`` makes one traced
pass, which also learns embeddings from the corpus, and reports the
per-layer metrics (``perfbench/workloads.py`` maps each
to the end-to-end metric it should move). The last stdout line is the
JSON result; the lines before it print every measured value by name and
unit, the run's metadata and the corpus digests.

Set-up (``setup_s``) is graph generation plus the CSR freeze, repeated
and reported as a median. Spark start, the first walk job's Python-worker
start-up and JVM compilation are paid once per Spark application, not per
pipeline pass, so they run in an untimed warm-up pass, printed as
``warmup_s``. ``driver_peak_rss_mb`` is the driver's peak RSS over a
pass's prepare and walk (Linux ``VmHWM``, restarted before each pass); the
corpus is checked after the reading, on the executors. A pass that raises (a failed output check, or
``MemoryBudgetExceeded`` when the sampler's ledger would pass the
paper-scaled budget) counts as failed, the warm-up too.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()


def build(wl, seed: int, blocks: int = 7, block_s: float = 0.25):
    """``(g, labels, setup times)``: one time per build, each the mean over
    a block of back-to-back builds lasting at least ``block_s``, so that
    builds of a few milliseconds still give a steady median."""
    from perfbench.workloads import build_graph

    t0 = time.perf_counter()
    g, labels = build_graph(wl, seed)
    per_block = max(1, math.ceil(block_s / (time.perf_counter() - t0)))
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(per_block):
            g, labels = build_graph(wl, seed)
        times.append((time.perf_counter() - t0) / per_block)
    return g, labels, times


def one_pass(spark, wl, g, labels, model, n_starts: int, seed: int):
    """One pipeline pass: ``(metrics, digest)``; raises on a failed check."""
    from perfbench import pipeline

    reset_driver_peak()
    # The ledger is checked by the program: MemoryBudget.charge raises
    # MemoryBudgetExceeded before ``used`` passes the paper-scaled budget.
    sampler, _, prepare_s = pipeline.prepare(wl, g, model, seed)
    df, tokens, walk_s = pipeline.walk(spark, wl, g, model, sampler, seed)
    peak_mb = driver_peak_mb()  # before the check, which is not the program's
    try:
        digest = pipeline.check_corpus(df, g, wl, n_starts)
    finally:
        df.unpersist(blocking=True)
    m = {"prepare_s": prepare_s, "walk_s": walk_s, "total_s": prepare_s + walk_s,
         "walk_steps_per_s": (tokens - wl.num_walks * n_starts) / walk_s,
         "driver_peak_rss_mb": peak_mb}
    return m, digest


def reset_driver_peak() -> None:
    """Restart the driver's peak-RSS count (``VmHWM``) from its current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def driver_peak_mb() -> float:
    """The driver's peak RSS since :func:`reset_driver_peak`, in MiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def quiesce(spark) -> None:
    """Collect garbage in the driver and the JVM, so the clean-up of the
    previous pass (its broadcast and cache) does not land in the next, and
    hand freed heap back to the OS, so each pass's peak RSS starts from
    the same base (glibc's ``malloc_trim``)."""
    import pyarrow

    gc.collect()
    pyarrow.default_memory_pool().release_unused()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    spark._jvm.System.gc()


def run_workload(spark, wl, seed: int, seconds: float, trace: bool, built):
    """``(result, info)``: the JSON result and what is printed before it.
    ``built`` is :func:`build`'s result."""
    from perfbench import pipeline, tracing
    from perfbench.workloads import END_TO_END, PASS_UNITS, PER_LAYER

    g, labels, setup = built
    model = pipeline.model_for(wl)
    n_starts = model.start_nodes(g).shape[0]
    # Warm-up, untimed: a full pass starts the Python workers and compiles
    # the JVM's hot paths. Both are paid once per Spark application.
    attempted = failed = 0
    t0 = time.perf_counter()
    try:
        one_pass(spark, wl, g, labels, model, n_starts, seed)
    except Exception:
        traceback.print_exc()
        attempted = failed = 1
    info = {"warmup_s": time.perf_counter() - t0}
    if trace:
        attempted += 1
        try:
            metrics, extra = tracing.traced_run(
                spark, wl, seed, g, labels, statistics.median(setup))
            info.update(extra)
        except Exception:
            traceback.print_exc()
            failed, metrics = failed + 1, {}
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        passes, digests = [], []
        t_end = time.perf_counter() + seconds
        while True:
            attempted += 1
            quiesce(spark)
            try:
                m, digest = one_pass(spark, wl, g, labels, model, n_starts, seed)
                passes.append(m)
                digests.append(digest)
            except Exception:
                traceback.print_exc()
                failed += 1
            if time.perf_counter() >= t_end:
                break
        metrics = {k: statistics.median(p[k] for p in passes)
                   for k in (passes[0] if passes else {})}
        metrics["setup_s"] = statistics.median(setup)
        info.update(passes={k: [p[k] for p in passes] for k in (passes[0] if passes else {})},
                    digests_distinct=len(set(digests)), digests=digests)
        units = PASS_UNITS
    info["failed_runs"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if trace or k in END_TO_END},
    }
    info["reported"] = {k: (v, units[k]) for k, v in metrics.items()}
    return result, info


def metadata(spark, wl, seed: int) -> dict:
    import numpy
    import pyarrow
    import pyspark

    sha = "unknown"  # a checkout without .git has no sha
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    sc = spark.sparkContext
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "master": sc.master,
        "defaultParallelism": sc.defaultParallelism,
        "arrow.maxRecordsPerBatch": spark.conf.get("spark.sql.execution.arrow.maxRecordsPerBatch"),
        "python": platform.python_version(), "pyspark": pyspark.__version__,
        "numpy": numpy.__version__, "pyarrow": pyarrow.__version__,
        "workload": wl.name, "seed": seed, "params": wl.params(),
    }


def start_spark(work: Path):
    """A ``local[2]`` session whose scratch stays in ``work``. On a shared
    4-core VM, two cores spread less from run to run than four did."""
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    os.environ["SPARK_MASTER"] = f"local[{min(2, os.cpu_count() or 1)}]"
    os.environ["SPARK_DRIVER_MEM"] = "2g"
    os.environ["SPARK_LOCAL_DIRS"] = str(work)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work}"
    from repro.bench_utils import get_or_create_spark

    spark = get_or_create_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for it to end."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    paths = [str(ROOT / "src"), str(ROOT)]
    sys.path[:0] = paths
    # Spark's Python workers import repro and perfbench too.
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])
    work = ROOT / ".perfbench-tmp"
    work.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None

    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    built = build(wl, args.seed)  # before the JVM starts, which would compete
    spark = start_spark(work)
    try:
        print("meta", json.dumps(metadata(spark, wl, args.seed)), flush=True)
        result, info = run_workload(spark, wl, args.seed, args.seconds, bool(args.trace), built)
    finally:
        stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in info.pop("reported").items():
        print(f"{name} {value:.6g} {unit}")
    print("info", json.dumps(info))
    print(json.dumps(result))
    return 0 if result["attempted"] > result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
