#!/usr/bin/env python3
"""KG-TOSA benchmark: one command, two closed-loop single-client workloads.

    python3 perfbench/run.py --workload extract-train --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run starts Spark on ``local[N]`` (N = min(2, nproc)) with the
pinned configuration of :data:`SPARK_CONF`, sets the workload up
``SETUP_REPS`` times, computes the expected outputs of its ops once, runs
every code path of its ops once untimed (so that Spark's generated-code
cache and the JIT are warm for every op), then runs whole cycles of the
workload's ops: one, and more while they fit in ``--seconds``.
Every op's output is checked outside the timed region; an op that raises
or fails its check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` enables the
Spark event log and job groups and prints the per-layer metrics instead.
The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Every run also writes a
record (host, versions, Spark configuration, sizes, seed, git sha, op
samples and, when traced, spans and the per-layer ledger) to
``perfbench/out/records/``; ``perfbench/ledger.py`` compares records.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans as S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Pinned and recorded. Two task threads and two shuffle partitions leave
# cores of a 4-core host to the Python driver and the JVM's compiler and GC
# threads, whose contention with the tasks otherwise shows as run-to-run
# noise; the workloads' graphs are small enough that more task threads
# only add scheduling. AQE and Arrow are Spark's and the repo's defaults;
# broadcast joins stay off as in the repo's sessions so joins exercise the
# shuffle path.
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "2",
    "spark.sql.adaptive.enabled": "true",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
}
DRIVER_MEMORY = "2g"
# Fewer JIT compiler and GC threads, for the same reason.
JVM_OPTIONS = "-XX:CICompilerCount=2 -XX:+UseParallelGC -XX:ParallelGCThreads=2"
MAX_CORES = 2
SETUP_REPS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="half-size graphs, one set-up, one cycle (for the benchmark's tests)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------

def start_session(cores: int, traced: bool, scratch: Path):
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp} {JVM_OPTIONS}"),
        "--conf spark.driver.host=127.0.0.1",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in SPARK_CONF.items():
        builder = builder.config(k, v)
    if traced:
        log_dir = scratch / "eventlog"
        log_dir.mkdir(parents=True, exist_ok=True)
        builder = (
            builder.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", log_dir.as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# Record
# ---------------------------------------------------------------------------

def _git(*args) -> str | None:
    try:
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def host_record(cores: int, scale: float, wl) -> dict:
    import duckdb
    import numpy
    import pandas
    import pyspark

    mem_kb = None
    try:
        with open("/proc/meminfo") as f:
            mem_kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration):
        pass
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "host": {"nproc": os.cpu_count(), "mem_total_kb": mem_kb, "machine": platform.machine()},
        "versions": {
            "spark": pyspark.__version__, "python": platform.python_version(),
            "numpy": numpy.__version__, "pandas": pandas.__version__, "duckdb": duckdb.__version__,
        },
        "spark": {"master": f"local[{cores}]", "driver_memory": DRIVER_MEMORY,
                  "jvm_options": JVM_OPTIONS, **SPARK_CONF},
        "sf": wl.sf,
        "scale": scale,
        "git": {"sha": sha, "dirty": None if status is None else bool(status)},
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def end_to_end(setup_s: float, samples: list[dict]) -> dict:
    ok = [s for s in samples if s["ok"]]
    times = [s["seconds"] for s in ok]
    kgp = [s["seconds"] for s in ok if s["kind"] == "kgp"]
    if not times or not kgp:
        return {}
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_min": {"value": 60.0 * len(times) / sum(times), "unit": "1/min"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "kgp_pipeline_s": {"value": statistics.fmean(kgp), "unit": "s"},
    }


def workload_metrics(samples: list[dict]) -> dict:
    """Metrics printed and recorded for the workloads that have them; not
    gated, because the benchmark gates only metrics every workload has."""
    ok = [s for s in samples if s["ok"]]
    out = {"failed_ops_pct": (100.0 * (len(samples) - len(ok)) / len(samples), "%")}
    fg = [s["seconds"] for s in ok if s["kind"] == "fg"]
    if fg:
        out["fg_pipeline_s"] = (statistics.fmean(fg), "s")
    peaks = [s["peak_mb"] for s in ok if s["kind"] == "kgp" and "peak_mb" in s]
    if peaks:
        out["kgp_train_peak_mb"] = (max(peaks), "MB")
    acc = [s["acc"] for s in ok if s["kind"] == "kgp" and "acc" in s]
    if acc:
        out["kgp_test_acc"] = (statistics.fmean(acc), "ratio")
    hits = [s["hits"] for s in ok if s["kind"] == "kgp" and "hits" in s]
    if hits:
        out["kgp_hits_at_10"] = (statistics.fmean(hits), "ratio")
    return out


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run_ops(tr, ops, seconds: float) -> tuple[list[dict], list[dict]]:
    """Whole cycles of the workload's ops: the first always, each further
    one while the time it is expected to take still fits in ``seconds``."""
    samples, failures = [], []
    loop0 = time.perf_counter()
    while True:
        cycle0 = time.perf_counter()
        for op in ops:
            tr.op = len(samples)
            out = {}
            sample = {"op": op.name, "kind": op.kind, "ok": False}
            try:
                with tr.span("op", op_name=op.name) as sp:
                    out = op.run(tr)
                sample["seconds"] = S.dur(sp)
                with tr.span("check"):
                    op.check(out)
                sample["ok"] = True
            except Exception as e:  # a failed op is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                failures.append({"op": op.name, "error": f"{type(e).__name__}: {e}"})
            finally:
                tr.op = None
                if out.get("kgp") is not None:
                    out["kgp"].unpersist()
            sample.update({k: out[k] for k in ("acc", "hits", "chance", "peak_mb") if k in out})
            samples.append(sample)
        now = time.perf_counter()
        if now - loop0 + (now - cycle0) > seconds:
            return samples, failures


def run(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    cores = max(1, min(MAX_CORES, os.cpu_count() or 1))
    scale = 0.5 if args.smoke else 1.0
    reps = 1 if args.smoke else SETUP_REPS
    seconds = 0.0 if args.smoke else args.seconds
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    run_id = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch = OUT / "scratch" / run_id
    wl = WORKLOADS[args.workload](scale)
    record = {"run_id": run_id, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              **host_record(cores, scale, wl)}

    t0 = time.perf_counter()
    spark = start_session(cores, traced, scratch)
    session_s = time.perf_counter() - t0
    tr = S.Tracer(spark.sparkContext, traced=traced)
    try:
        data_s = []
        for rep in range(reps):
            if rep:
                wl.teardown()
            with tr.span("setup", rep=rep) as sp:
                wl.setup(spark, tr, args.seed)
            data_s.append(S.dur(sp))
        with tr.span("oracle") as sp:
            wl.prepare_checks()
        oracle_s = S.dur(sp)
        with tr.span("warmup") as sp:
            wl.warmup(tr)
        record["setup"] = {"session_s": session_s, "data_s": data_s, "oracle_s": oracle_s,
                           "warmup_s": S.dur(sp)}
        setup_s = session_s + statistics.median(data_s) + oracle_s + S.dur(sp)
        loop0 = time.perf_counter()
        samples, failures = run_ops(tr, wl.ops(), seconds)
        record["loop_s"] = time.perf_counter() - loop0
        wl.teardown()
    finally:
        tr.close()
        stop_session(spark)

    record.update(samples=samples, failures=failures)
    metrics = end_to_end(setup_s, samples)
    extra = workload_metrics(samples)
    record.update(end_to_end=metrics, workload_metrics=extra)
    if metrics:
        print(f"{args.workload} seed={args.seed}: {len(samples)} ops in {record['loop_s']:.1f} s, "
              f"{len(failures)} failed")
        for name, m in metrics.items():
            print(f"  {name:<22} {m['value']:12.4f} {m['unit']}")
        for name, (value, unit) in extra.items():
            print(f"  {name:<22} {value:12.4f} {unit}   (recorded, not gated)")
        ok_times = [s["seconds"] for s in samples if s["ok"]]
        tail = tail_percentile(ok_times)
        print(f"  op_tail_s              " + (
            f"{tail[1]:12.4f} s   (p{tail[0]}, n={len(ok_times)})" if tail else
            f"         n/a   (n={len(ok_times)}: no percentile >= p50 has 10 samples beyond it)"))
        record["op_tail"] = tail and {"percentile": tail[0], "value": tail[1], "n": len(ok_times)}

    if traced:
        logs = sorted((scratch / "eventlog").iterdir())
        record["untracked_jobs"] = S.apply_event_log(tr.spans, logs[-1])
        metrics = S.layer_metrics(tr.spans, cores)
        record.update(per_layer=metrics, layers=S.layer_summary(tr.spans),
                      span_coverage=S.op_coverage(tr.spans), spans=tr.spans)
        print_ledger(record)
    write_record(record)
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def print_ledger(record: dict) -> None:
    print(f"  {'layer':<32} {'calls':>5} {'total_s':>9} {'self_s':>9} {'jobs':>6} {'stages':>6}")
    for name, row in sorted(record["layers"].items(), key=lambda kv: -kv[1]["total_s"]):
        print(f"  {name:<32} {row['calls']:>5} {row['total_s']:9.3f} {row['self_s']:9.3f} "
              f"{row['jobs']:>6} {row['stages']:>6}")
    cov = record["span_coverage"]
    print(f"  child spans cover {100 * cov['min']:.1f}% (min) / {100 * cov['mean']:.1f}% (mean) "
          f"of each op's wall time; the tracer's own spans take {100 * cov['trace']:.1f}% of it; "
          f"{record['untracked_jobs']} jobs ran outside spans")


def write_record(record: dict) -> Path:
    path = OUT / "records" / f"{record['run_id']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=float))
    print(f"  record: {path.relative_to(ROOT)}")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
