"""Benchmark runner for singvol.

    python3 perfbench/run.py --workload surface-mix --seed 1 --seconds 20 --trace 0

Run from a checkout.  It imports singvol from the checkout's ``src``, makes
the workload's inputs from the seed, runs queries in a closed loop (one
client, one query at a time) for the given seconds, then checks every
answer.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed prefix of
the query pool (so its counts repeat exactly for a seed; --seconds is not
used), each query once untraced and once with spans around the calls into
each layer, and reports per-layer calls, computed work counts and the
tracing overhead; spans go to .perfbench/trace-<workload>-<seed>.json.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import calibrate  # noqa: E402

SETUP_REPEATS = 5      # fresh-process set-ups per run; setup_s is their median
SETUP_CALIBRATIONS = 5 # host calibration samples each set-up process takes
PROBE_REPEATS = 5      # interpreter and import probes per traced run
WARMUP_QUERIES = 2     # untimed CLI calls that fill byte-code and file caches
# Queries in a traced run: a fixed prefix of the pool, whole rounds, so that
# the computed counts repeat exactly for a seed.
TRACE_QUERIES = {"surface-mix": 120, "toric-multiplicity": 150, "toric-sections": 240, "cli-batch": 300}

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-queries", type=int, help="override the traced prefix length")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_queries(queries, seconds=None, count=None, speed=None):
    """Closed loop over the pool, wrapping when it runs out: for ``seconds``
    of wall time, or for exactly ``count`` queries.  Exceptions count as
    answers (failed ones); nothing is checked here.  With ``speed``, host
    calibration samples are taken between queries (see calibrate.py)."""
    starts, times, results = [], [], []
    start = perf_counter()
    deadline = None if seconds is None else start + seconds
    i = 0
    while True:
        query = queries[i % len(queries)]
        t0 = perf_counter()
        try:
            outcome = (True, query.run())
        except Exception as exc:  # a query that raises is a failed query
            outcome = (False, exc)
        t1 = perf_counter()
        starts.append(t0)
        times.append(t1 - t0)
        results.append((query, outcome))
        i += 1
        if (deadline is not None and t1 >= deadline) or (count is not None and i >= count):
            break
        if speed is not None:
            speed.maybe_take()
    wall = perf_counter() - start
    if speed is not None:
        speed.take()
    return starts, times, results, wall


def check_all(results):
    """Check each answer after the timed region; return the failure reasons."""
    failures = []
    for query, (ok, value) in results:
        if not ok:
            failures.append(f"{query.kind}: raised {type(value).__name__}: {value}")
            continue
        try:
            reason = query.check(value)
        except Exception as exc:  # a malformed answer the check cannot read
            reason = f"unreadable answer: {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"{query.kind}: {reason}")
    return failures


def build_pool(workloads, name, seed, workdir, in_process):
    make_runner = None
    if name == "cli-batch":
        workdir.mkdir(parents=True, exist_ok=True)
        make_runner = (workloads.in_process_runner if in_process
                       else workloads.subprocess_runner(workloads.cli_env(str(SRC)), str(ROOT)))
    return workloads.build(name, seed, workdir=str(workdir), make_runner=make_runner)


def measure_setups(name, seed):
    """setup_s: median over fresh processes, each timing its own start,
    import of singvol, input generation and (cli-batch) file writing, and
    scaling it by its own host calibration."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, cwd=str(ROOT), timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        seconds, kernel = (float(x) for x in proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * calibrate.REFERENCE_MS / 1000.0 / kernel)
    return statistics.median(scaled), statistics.median(raw)


def median_child_ms(argv, env):
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, env=env, cwd=str(ROOT), check=True, capture_output=True, timeout=60)
        samples.append((perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def report_failures(failures):
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures")


def end_to_end(workloads, args, workdir):
    queries = build_pool(workloads, args.workload, args.seed, workdir, in_process=False)
    if args.workload == "cli-batch":
        for query in queries[:WARMUP_QUERIES]:
            query.run()
    speed = calibrate.HostSpeed()
    starts, times, results, wall = run_queries(queries, seconds=args.seconds, speed=speed)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    failures = check_all(results)
    setup_s, setup_raw = measure_setups(args.workload, args.seed)

    factors = [speed.scale(t0 + dt / 2) for t0, dt in zip(starts, times)]
    scaled = [dt * f for dt, f in zip(times, factors)]
    p90 = percentile(scaled, 90)
    metrics = {
        "setup_s": setup_s,
        "query_p50_ms": statistics.median(scaled) * 1000.0,
        "query_p90_ms": p90 * 1000.0,
        "queries_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted, failed = len(times), len(failures)
    report_failures(failures)
    print(f"{args.workload} seed {args.seed}: {attempted} queries in {wall:.3f} s, {failed} failed; "
          f"host speed factor {statistics.median(factors):.3f} "
          f"from {len(speed.values)} calibration samples")
    print("  times are scaled to the reference host; raw wall-clock figures in brackets")
    print(f"  setup_s        {setup_s:.4f} s    [{setup_raw:.4f}]  median of {SETUP_REPEATS} fresh-process set-ups")
    print(f"  query_p50_ms   {metrics['query_p50_ms']:.3f} ms   [{statistics.median(times) * 1000.0:.3f}]")
    print(f"  query_p90_ms   {metrics['query_p90_ms']:.3f} ms   [{percentile(times, 90) * 1000.0:.3f}]  "
          f"n={attempted}, {sum(t > p90 for t in scaled)} beyond")
    print(f"  queries_per_s  {metrics['queries_per_s']:.3f} 1/s  [{attempted / wall:.3f}]")
    print(f"  failed_frac    {failed / attempted:.4f} ratio  (the JSON carries it as failed/attempted)")
    print(f"  peak_rss_mb    {peak_rss_mb:.1f} MB" + ("     largest CLI process" if usage != resource.RUSAGE_SELF else ""))
    emit(failed == 0, attempted, failed, metrics, END_TO_END_UNITS)


def per_layer(workloads, tracing, args, workdir):
    count = args.trace_queries or TRACE_QUERIES[args.workload]
    tracer = tracing.Tracer()

    t0 = perf_counter()
    plain = build_pool(workloads, args.workload, args.seed, workdir, in_process=True)
    plain_setup = perf_counter() - t0
    tracer.install()
    try:
        t0 = perf_counter()
        traced = build_pool(workloads, args.workload, args.seed, workdir, in_process=True)
        traced_setup = perf_counter() - t0
    finally:
        tracer.uninstall()
    # Each query runs untraced and then traced, back to back, so that slow
    # drifts in host speed fall on both sides of the overhead alike.
    plain_pass = traced_pass = 0.0
    results = []
    for i in range(count):
        _, times, _, _ = run_queries([plain[i % len(plain)]], count=1)
        plain_pass += times[0]
        tracer.install()
        try:
            tracer.query = i
            _, times, done, _ = run_queries([traced[i % len(traced)]], count=1)
        finally:
            tracer.uninstall()
        traced_pass += times[0]
        results.extend(done)
    plain_wall = plain_setup + plain_pass
    traced_wall = traced_setup + traced_pass
    failures = check_all(results)

    env = workloads.cli_env(str(SRC))
    interpreter_ms = median_child_ms([sys.executable, "-c", "pass"], env)
    import_ms = median_child_ms([sys.executable, "-c", "import singvol.cli"], env) - interpreter_ms

    per_name, layers, computed = tracing.summarize(tracer.spans)
    layer_self_ms = sum(layers.values())
    metrics, units = {}, {}
    for name, row in per_name.items():
        metrics[f"{name}.calls"], units[f"{name}.calls"] = row["calls"], "count"
    for name, unit in tracing.COMPUTED.items():
        metrics[name], units[name] = computed[name], unit
    timing = {
        "exactmath.self_ms": (layers.get("exactmath", 0.0), "ms"),
        "bench.self_ms": (traced_wall * 1000.0 - layer_self_ms, "ms"),
        "traced.wall_ms": (traced_wall * 1000.0, "ms"),
        "untraced.wall_ms": (plain_wall * 1000.0, "ms"),
        "trace.overhead_pct": ((traced_pass / plain_pass - 1.0) * 100.0, "%"),
        "traced.queries_per_s": (count / traced_pass, "1/s"),
        "untraced.queries_per_s": (count / plain_pass, "1/s"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
    }
    for name, (value, unit) in timing.items():
        metrics[name], units[name] = value, unit

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "queries": count,
            "span_fields": ["name", "start", "end", "parent", "query"],
            "spans": [s[:5] for s in tracer.spans],
            "per_name": per_name, "layers_self_ms": layers, "computed": computed,
        }, handle)

    report_failures(failures)
    print(f"{args.workload} seed {args.seed}: traced {count} queries, {len(failures)} failed; "
          f"spans in {trace_file.relative_to(ROOT)}")
    print(f"  untraced {count / plain_pass:.3f} queries/s, traced {count / traced_pass:.3f} queries/s, "
          f"tracing overhead {timing['trace.overhead_pct'][0]:+.1f}%")
    print(f"  layer self times sum to {layer_self_ms:.1f} ms of {traced_wall * 1000.0:.1f} ms traced wall")
    for layer, ms in sorted(layers.items()):
        print(f"    {layer:<10} self {ms:10.1f} ms")
    print(f"  {'span':<40} {'calls':>8} {'self_ms':>11} {'total_ms':>11}")
    for name, row in per_name.items():
        if row["calls"]:
            total = f"{row['total_ms']:11.1f}" if name in tracing.ENTRY_POINTS else ""
            print(f"  {name:<40} {row['calls']:8d} {row['self_ms']:11.1f} {total}")
    for name, value in computed.items():
        print(f"  {name:<48} {value}")
    print(f"  cli.interpreter_ms {interpreter_ms:.1f}, cli.import_ms {import_ms:.1f}")
    emit(not failures, count, len(failures), metrics, units)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "singvol" / "__init__.py").is_file():
        sys.stderr.write(f"error: no singvol sources under {SRC}; run from a checkout\n")
        return 2
    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(workloads.WORKLOAD_NAMES)}\n")
        return 2
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        if args.setup_only:
            build_pool(workloads, args.workload, args.seed, workdir, in_process=False)
            elapsed = perf_counter() - _STARTED
            print(elapsed, statistics.median(calibrate.sample() for _ in range(SETUP_CALIBRATIONS)))
        elif args.trace:
            per_layer(workloads, tracing, args, workdir)
        else:
            end_to_end(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
