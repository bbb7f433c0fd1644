"""fermigraph benchmark.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; fermigraph is imported from its ``src/``.
One process runs the workload's jobs in a closed loop with one client: each
job starts when the previous one has returned.  A run makes
``seconds / nominal pass time`` passes over the job list, rounded and at
least one, so every commit does the same work for the same ``--seconds``; the
seed sets the job order within each pass, never the inputs.  Every job's
output is checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
passes untraced and then traced, and reports the per-layer metrics plus the
tracing overhead; spans go to ``.bench_build/traces/``.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "traces"
SETUP_SAMPLES = 5        # set-up is timed in this many fresh processes
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10         # samples that must lie beyond the tail percentile
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metric -> unit; failed_frac is printed, the JSON carries failed/attempted
END_TO_END = {"setup_s": "s", "run_s": "s", "job_p50_s": "s", "job_tail_s": "s",
              "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    pass


def pin_blas_threads() -> int:
    """Pin BLAS to the CPUs this process may use; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_workloads():
    """Import fermigraph from the checkout's ``src/``, then the job lists."""
    sys.path.insert(0, str(SRC))
    try:
        import fermigraph
    except ImportError as exc:
        raise SetupError(f"cannot import fermigraph from {SRC}: {exc}") from exc
    if Path(fermigraph.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"fermigraph imported from {fermigraph.__file__}, not {SRC}")
    import workloads
    return workloads


def setup(workload_name: str):
    """Import fermigraph and run the workload's warm-up jobs."""
    workloads = import_workloads()
    if workload_name not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload_name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name]
    state: dict = {}
    for job in workload.warmup:
        out = job.run(state)
        if isinstance(out, dict) and out.get("exit", 0) != 0:
            raise SetupError(f"warm-up job {job.name!r} exited {out['exit']}")
    return workloads, workload


def time_setup(workload_name: str) -> tuple[float, float]:
    """(wall, reference) seconds from starting a fresh interpreter until its
    set-up has finished; see speed.py for reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload_name]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    words = line.split()
    if code != 0 or len(words) != 3 or words[0] != "ready":
        raise SetupError(f"set-up probe failed (exit {code})")
    kernel_s, overhead_s = float(words[1]), float(words[2])
    return elapsed, to_reference(elapsed - overhead_s, kernel_s)


def run_pass(workloads, workload, reference: dict, seed: int, index: int,
             tracer=None) -> dict:
    """One closed-loop pass over the job list, with the machine's speed
    sampled throughout, so that every latency is also given in reference
    seconds (see speed.py)."""
    order = list(workload.shuffled)
    random.Random(f"{seed}/{index}").shuffle(order)
    state: dict = {}
    job_ids, intervals, failures = [], [], []
    t_pass = perf_counter()
    with SpeedSampler() as sampler:
        for job in (*workload.first, *order):
            job_id = f"pass{index}/{job.name}"
            job_ids.append(job_id)
            if tracer is not None:
                tracer.job = job_id
            overhead, t0 = sampler.overhead_s, perf_counter()
            try:
                out = job.run(state)
            except Exception:  # a job that raises is counted as failed, not fatal
                out = None
                failures.append(f"{job_id}: raised\n{traceback.format_exc()}")
            intervals.append((t0, perf_counter(), sampler.overhead_s - overhead))
            if tracer is not None:
                tracer.job = None
            if out is not None:
                try:
                    job.compare(out, reference[job.name])
                except (workloads.CheckFailure, KeyError, ValueError) as exc:
                    failures.append(f"{job_id}: wrong output: {exc!r}")
    walls = [t1 - t0 - overhead for t0, t1, overhead in intervals]
    latencies = [to_reference(wall, sampler.kernel_s(t0, t1))
                 for wall, (t0, t1, _) in zip(walls, intervals)]
    return {"job_ids": job_ids, "walls": walls, "latencies": latencies,
            "job_time_s": sum(t1 - t0 for t0, t1, _ in intervals),
            "run_s": sum(latencies), "wall_s": perf_counter() - t_pass,
            "failures": failures, "output_bytes": state.get("output_bytes", 0)}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when that percentile would not exceed the median."""
    lat = sorted(latencies)
    n = len(lat)
    if n < 2 * TAIL_BEYOND + 1:
        return lat[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return lat[k], 100.0 * (k + 1) / n


def environment(blas_threads: int) -> str:
    import numpy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"machine={platform.machine()} nproc={os.cpu_count()} "
            f"blas_threads={blas_threads} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas.get('name')}-{blas.get('version')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    blas_threads = pin_blas_threads()

    if args.probe:
        with SpeedSampler() as sampler:
            setup(args.workload)
        print(f"ready {sampler.kernel_s(0.0, perf_counter())} {sampler.overhead_s}",
              flush=True)
        return 0

    setups = ([] if args.trace else
              [time_setup(args.workload) for _ in range(SETUP_SAMPLES)])
    workloads, workload = setup(args.workload)
    reference = workloads.load_reference()[workload.name]
    passes = max(1, int(args.seconds / workload.nominal_pass_s + 0.5))
    print(f"fermigraph benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={passes} "
          f"jobs_per_pass={len(workload.first) + len(workload.shuffled)}")
    print(f"environment: {environment(blas_threads)}")

    plain = [run_pass(workloads, workload, reference, args.seed, i)
             for i in range(passes)]
    results = list(plain)
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_pass(workloads, workload, reference, args.seed, passes + i,
                               tracer) for i in range(passes)]
        finally:
            tracer.uninstall()
        results += traced
        metrics = traced_metrics(tracer, plain, traced)
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"{workload.name}-seed{args.seed}.json"
        tracer.write(path, [{"id": job_id, "wall_s": wall, "latency_ref_s": lat}
                            for r in traced
                            for job_id, wall, lat in zip(r["job_ids"], r["walls"],
                                                         r["latencies"])])
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        metrics = plain_metrics(setups, plain)

    attempted = sum(len(r["job_ids"]) for r in results)
    failures = [f for r in results for f in r["failures"]]
    for failure in failures:
        print(failure, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':42s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} jobs)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def plain_metrics(setups: list[tuple[float, float]], plain: list[dict]) -> dict:
    latencies = [lat for r in plain for lat in r["latencies"]]
    tail_s, tail_pct = tail(latencies)
    print(f"job_tail_s is the p{tail_pct:.4g} latency of {len(latencies)} jobs; "
          f"setup_s is the median of {len(setups)} set-ups")
    print("wall seconds, before rescaling (see perfbench/speed.py):")
    print("  set-ups: " + " ".join(f"{wall:.3f}" for wall, _ in setups))
    print("  passes:  " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    # a job's latency is its median over the passes, and job_p50_s is the
    # upper median over jobs: the job lists mix fast and slow jobs in about
    # equal numbers, and a midpoint between the two groups moved with the
    # noise of both
    by_job: dict[str, list[float]] = {}
    for r in plain:
        for job_id, lat in zip(r["job_ids"], r["latencies"]):
            by_job.setdefault(job_id.split("/", 1)[1], []).append(lat)
    per_job = [statistics.median(lats) for lats in by_job.values()]
    print("job latencies, median over passes, reference seconds:")
    for name, lat in zip(by_job, per_job):
        print(f"  {name}: {lat:.4f}")
    values = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "run_s": statistics.median(r["run_s"] for r in plain),
        "job_p50_s": statistics.median_high(per_job),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}


def traced_metrics(tracer, plain: list[dict], traced: list[dict]) -> dict:
    from tracing import layer_metrics
    per_pass = [layer_metrics(tracer, dict(zip(r["job_ids"], _scales(r))), r["job_time_s"])
                for r in traced]
    per_pass = [{**p, "cli.output_bytes": r["output_bytes"]}
                for p, r in zip(per_pass, traced)]
    # counts repeat exactly from pass to pass; median_low keeps them integers
    values = {name: (statistics.median_low if isinstance(per_pass[0][name], int)
                     else statistics.median)([p[name] for p in per_pass])
              for name in per_pass[0]}
    values["trace.overhead_frac"] = (statistics.median(r["run_s"] for r in traced)
                                     / statistics.median(r["run_s"] for r in plain) - 1)
    return {name: {"value": v, "unit": _layer_unit(name)}
            for name, v in sorted(values.items())}


def _scales(result: dict) -> list[float]:
    """Per job, the factor from wall to reference seconds."""
    return [lat / wall for lat, wall in zip(result["latencies"], result["walls"])]


def _layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"s": "s", "calls": "count", "max_bits": "bits", "max_dim": "rows",
            "output_bytes": "bytes"}.get(stat, "ratio")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        sys.exit(2)
