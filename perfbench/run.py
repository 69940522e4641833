"""Benchmark of heatinfer twin experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from src/. The
run seed derives every operation's config seed, so one seed always gives
the same inputs. Operations run one after another (a closed loop, one
client) until S seconds have passed, at least two of them. Set-up is
timed in SETUP_PROBES fresh interpreters, spread evenly between the
operations; their time is not counted in S.

--trace 0 times plain operations, each on its own seed except the
second, which repeats the first: the two must give byte-identical
samples.csv and report.json. The result line carries the end-to-end
metrics.

--trace 1 runs each seed once untraced and once with every layer
wrapped (see tracing.py), alternating which comes first. The result
line carries the per-layer numbers of the traced runs, the tracing
overhead (traced over untraced wall time, minus one) and the recovery
numbers.

Every operation's outputs are checked (workloads.Operation.check). The
last line of standard output is the JSON result; lines before it say the
same in words, with the environment.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
SETUP_PROBES = 24
# allowed gap between the traced operations' own wall time and the sum of
# the layers' self times (the benchmark's loop around cli.main)
CLOSURE_TOLERANCE = 0.01
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = ("op_s", "setup_s", "peak_rss_mb")
QUALITY_UNITS = {"ess_per_s": "1/s", "cold_ess": "count", "center_err": "length"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def probe_setup(root, config_path, times, count):
    """Time fresh interpreters (setup_probe.py) until `times` holds `count`."""
    while len(times) < count:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), root, config_path],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))


def run_operations(root, work, workload, seed, seconds, traced, between):
    """Run and check operations until the time is up.

    between(share) runs before each operation, with the share of the
    time gone; its own time does not count. Returns (records, tracer,
    counts); each record holds the operation's seed, wall seconds,
    whether it was traced, its problems and facts.
    """
    import workloads

    seeds = workloads.experiment_seeds(seed, workload)
    tracer, counts = Tracer(), workloads.LayerCounts()
    records, digests = [], {}
    start = time.perf_counter()
    i = 0
    while (len(records) < 2 or time.perf_counter() - start < seconds
           or (traced and i % 2 == 1)):
        paused = time.perf_counter()
        between((paused - start) / seconds)
        start += time.perf_counter() - paused
        if traced:
            exp_seed = seeds[i // 2]
        else:
            exp_seed = seeds[0] if i == 1 else seeds[i]
        op_dir = os.path.join(work, f"op{i}")
        op = workloads.Operation(root, workload, exp_seed, op_dir)
        # alternate which run of a pair is traced, so the first
        # operation's warm-up does not bias the overhead one way
        with_trace = traced and i % 2 != (i // 2) % 2
        if with_trace:
            workloads.install(tracer, counts)
            try:
                elapsed, error = op.execute()
            finally:
                tracer.restore()
        else:
            elapsed, error = op.execute()
        record = {"seed": exp_seed, "seconds": elapsed, "traced": with_trace,
                  "problems": [error] if error else [], "facts": {}}
        if not error:
            try:
                record["bytes"] = op.bytes_written()
                record["problems"], record["facts"] = op.check()
            except (OSError, ValueError, KeyError, TypeError) as e:
                record["problems"].append(f"check raised {type(e).__name__}: {e}")
            digest = record["facts"].get("digest")
            if digest and digests.setdefault(exp_seed, digest) != digest:
                record["problems"].append("outputs differ from the earlier run of this seed")
        shutil.rmtree(op_dir, ignore_errors=True)
        records.append(record)
        facts = record["facts"]
        shown = "".join(f" {k}={facts[k]:.4g}" for k in ("cold_ess", "center_err") if k in facts)
        status = "ok" if not record["problems"] else "FAILED: " + "; ".join(record["problems"])
        print(f"op {i} seed={exp_seed} traced={int(with_trace)} {elapsed:.3f} s{shown} {status}",
              flush=True)
        i += 1
    return records, tracer, counts


def quality(records):
    """Recovery numbers of the untraced sampling operations (empty for refits)."""
    runs = [r for r in records if not r["traced"] and "cold_ess" in r["facts"]]
    if not runs:
        return {}
    return {
        "ess_per_s": statistics.fmean(r["facts"]["cold_ess"] / r["seconds"] for r in runs),
        "cold_ess": statistics.fmean(r["facts"]["cold_ess"] for r in runs),
        "center_err": statistics.fmean(r["facts"]["center_err"] for r in runs),
    }


def traced_metrics(records, tracer, counts):
    """Per-layer metrics, the tracing overhead and the self-time closure.

    Returns (metrics, problem or None). Operation.execute times each
    operation on its own clock, around the traced cli.main calls, so the
    layers' self times must add up to the traced operations' wall time
    within CLOSURE_TOLERANCE; the residual is trace.unattributed_frac.
    """
    import workloads

    traced = [r for r in records if r["traced"]]
    traced_s = sum(r["seconds"] for r in traced)
    metrics = workloads.layer_metrics(tracer, counts, len(traced), traced_s,
                                      sum(r.get("bytes", 0) for r in traced))
    facts = [r["facts"] for r in traced]
    for key in ("accept_cold", "swap_min"):
        values = [f[key] for f in facts if key in f]
        metrics[f"sampler.{key}"] = (statistics.fmean(values) if values else 0.0, "ratio")
    overheads = []
    for a, b in zip(records[::2], records[1::2]):
        plain, with_trace = (b, a) if a["traced"] else (a, b)
        overheads.append(with_trace["seconds"] / plain["seconds"] - 1.0)
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    self_sum = sum(stats[2] for stats in tracer.layers.values())
    residual = traced_s - self_sum
    metrics["trace.unattributed_frac"] = (residual / traced_s, "ratio")
    q = quality(records)
    for key, unit in QUALITY_UNITS.items():
        metrics[f"quality.{key}"] = (q.get(key, 0.0), unit)
    problem = None
    if abs(residual) > CLOSURE_TOLERANCE * traced_s:
        problem = (f"layer self times add up to {self_sum!r} s, "
                   f"traced operations took {traced_s!r} s")
    return metrics, problem


def write_spans(root, workload, seed, tracer):
    """Spans of the low-rate layers, relative to the first one, as JSON."""
    if not tracer.spans:
        return None
    t0 = min(s[1] for s in tracer.spans)
    path = os.path.join(root, WORK_DIR, f"{workload}-seed{seed}.spans.json")
    with open(path, "w") as fh:
        json.dump([{"name": n, "start_s": a - t0, "end_s": b - t0, "parent": p}
                   for n, a, b, p in tracer.spans], fh)
    return path


def main(argv=None):
    # one BLAS/OpenMP thread; numpy is first imported below this line
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "heatinfer", "__init__.py")):
        print(f"error: {root} holds no src/heatinfer; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    config_path = os.path.join(root, workloads.WORKLOADS[args.workload][0])
    if not os.path.isfile(config_path):
        print(f"error: missing {config_path}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()), flush=True)
    work = os.path.join(root, WORK_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        # the host's speed drifts over seconds, so the set-up probes are
        # spread evenly over the run, between operations
        setup_times = []

        def probe(share):
            probe_setup(root, config_path, setup_times, math.ceil(min(share, 1.0) * SETUP_PROBES))

        records, tracer, counts = run_operations(root, work, args.workload, args.seed,
                                                 args.seconds, bool(args.trace), probe)
        probe(1.0)
        print("setup probes " + " ".join(f"{t:.4f}" for t in setup_times), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    correct = failed == 0
    plain = [r["seconds"] for r in records if not r["traced"]]
    op_s = statistics.median(plain)
    printed = {
        "op_s": (op_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for key, value in quality(records).items():
        printed[key] = (value, QUALITY_UNITS[key])
    printed["failed_frac"] = (failed / len(records), "ratio")
    if args.trace:
        metrics, problem = traced_metrics(records, tracer, counts)
        if problem:
            print(f"trace check FAILED: {problem}")
            correct = False
        spans = write_spans(root, args.workload, args.seed, tracer)
        if spans:
            print(f"spans written to {os.path.relpath(spans, root)}")
        printed["traced_op_s"] = (statistics.median(r["seconds"] for r in records
                                                    if r["traced"]), "s")
        printed.update(metrics)
        result = metrics
    else:
        result = {k: printed[k] for k in END_TO_END}
    print(f"{args.workload} seed={args.seed}: {len(records)} operations, {failed} failed")
    for name, (value, unit) in printed.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
