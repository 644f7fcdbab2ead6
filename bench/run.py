"""Run one workload of the artinpal benchmark and print its metrics.

    python3 bench/run.py --workload word_problem --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it imports the package from `src/`
next to this directory, never an installed copy, and exits with code 2
when there is none.

With --trace 0 the run is untraced and reports the end-to-end metrics:
ops_per_s, latency_p50_ms, latency_p90_ms, setup_s and peak_rss_mb; its
times are CPU times scaled to a reference machine speed (see YARDSTICK_*
below).  With --trace 1 it reports per-layer metrics from a traced run of
the same operations, plus the tracing overhead (in scaled CPU time of the
operations) against an untraced run of them in a fresh process.
Per-layer times are wall times, and a layer the workload never calls
reads 0; modules of the package outside LAYERS are summed under
other_layers.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Run metadata
(Python, nproc, commit, src/ line count, sample counts, failures) goes to
standard error and, with the spans of a traced run, to bench/out/.

Every run is one closed-loop client in one fresh process.  --seconds sets
the amount of work: the workload's ops_per_second times it, at least
MIN_OPS operations, which at the commit that defined the benchmark
measured about that long on a shared 2-core machine.  The same seed
always gives the same operations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_OPS = 100  # at least ten samples beyond p90
SETUP_REPEATS = 5
LAYERS = ("coxeter", "monoid", "group", "weyl", "orderings", "palindromes", "oracle")
# A traced module outside LAYERS (one added to the package later) is
# reported under this name, so its time never drops out of the metrics.
OTHER_LAYERS = "other_layers"
FAILURES_SHOWN = 5
# End-to-end times are CPU seconds of the one benchmark thread, so time
# stolen by the hypervisor or by other processes is left out, scaled by
# YARDSTICK_REFERENCE_S / y, where y is the geometric mean of the CPU times
# of a fixed pure-Python loop run just before and just after the
# operation.  The speed of the shared 2-core machine the benchmark was
# defined on swings within a run, not only between runs: samples taken
# between operations of one run spread by 1.8x from their 10th to their
# 90th percentile, and their correlation decays within about ten
# operations.  In four runs of the same 200 operations of orderings the
# total CPU time ranged over 0.29 of its median unscaled, 0.13 scaled by
# (reference / the run's median sample) ** 0.5, 0.05 with exponent 1, and
# 0.015 with each operation scaled by the samples around it; p90 latency
# ranged over 0.29, 0.13, 0.03 and 0.04.  Per-operation scaling also
# follows swings within a run, which a run's median cannot.  A sample is
# taken before an operation once YARDSTICK_GAP_S of operation time has
# passed since the last one, so cheap operations share a bracketing pair.
# Raw CPU figures and the scales go to the metadata.
YARDSTICK_LOOP = 6_000
YARDSTICK_GAP_S = 0.02
YARDSTICK_REFERENCE_S = 3.8e-3  # a fixed unit, near the loop's CPU time


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-process set-up, or the untraced reference pass
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_package(args):
    """Import the package from this checkout's src/ and the workloads."""
    if not (SRC / "artinpal" / "__init__.py").is_file():
        die(f"no package at {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import artinpal
    if Path(artinpal.__file__).resolve().parent != SRC / "artinpal":
        die(f"imported artinpal from {artinpal.__file__}, not from {SRC}")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}")
    return workloads


def child(args, *flags) -> str:
    """Run this script in a fresh process and return its last output line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                              check=False)
    except subprocess.TimeoutExpired:
        die(f"{' '.join(flags)} run did not finish in 170 s")
    if proc.returncode != 0:
        die(f"{' '.join(flags)} run failed:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def setup_probe(args) -> float:
    """Import the package and build the workload's per-type tables in this
    fresh process; CPU time in reference seconds."""
    yardstick()  # warm-up: the first loop of a process runs slow
    before = yardstick()
    start = time.thread_time()
    workloads = load_package(args)
    workloads.setup_tables(workloads.WORKLOADS[args.workload].forms)
    cpu = time.thread_time() - start
    return cpu * speed_scale(before, yardstick())


def speed_scale(before: float, after: float) -> float:
    """Factor from CPU seconds to reference seconds for work done between
    two yardstick samples."""
    return YARDSTICK_REFERENCE_S / (before * after) ** 0.5


def yardstick() -> float:
    """CPU seconds of fixed pure-Python work of the package's kind (small
    tuples, slicing, dict stores and lookups) that never calls it.  The
    garbage collector is off meanwhile: its allocations would otherwise
    start collections whose cost grows with the package's caches."""
    gc.disable()
    try:
        start = time.thread_time()
        table = {}
        for i in range(YARDSTICK_LOOP):
            key = (i % 97, i % 89, i)
            table[key] = key[::-1]
            table.get((i - 1, 0, 0))
        return time.thread_time() - start
    finally:
        gc.enable()


def run_ops(workload, ops, tracer=None):
    """The closed loop.  Returns per-operation CPU times, failures, and
    per-operation factors to reference seconds from the yardstick samples
    around each operation.  A failure (wrong answer or any exception) is
    counted, never raised."""
    latencies = []
    failures = []
    samples = [yardstick()]
    before = []  # per operation, the index of the last sample before it
    since = 0.0  # operation time since that sample
    for i, op in enumerate(ops):
        if since >= YARDSTICK_GAP_S:
            samples.append(yardstick())
            since = 0.0
        before.append(len(samples) - 1)
        if tracer is not None:
            tracer.op_id = i
            tracer.recording = True
        error = None
        start = time.thread_time()
        try:
            out = workload.run(op)
        except Exception as exc:  # counted against the operation
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.thread_time() - start)
        since += latencies[-1]
        if tracer is not None:
            tracer.recording = False
        if error is None:
            try:
                error = workload.check(op, out)
            except Exception as exc:  # a checker crash is a failed answer too
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((i, op.kind, error))
    samples.append(yardstick())
    scales = [speed_scale(samples[b], samples[b + 1]) for b in before]
    return latencies, failures, scales


def operation_count(workload, seconds: float) -> int:
    return max(MIN_OPS, round(workload.ops_per_second * seconds))


def one_pass(workload, seed: int, seconds: float, tracer=None):
    """Generate the seeded operations and run them.  Returns the operations'
    CPU times and their factors to reference seconds, the failures, and the
    wall time of the generator, operations and checks together."""
    start = time.perf_counter()
    rng = random.Random(f"{workload.name}:{seed}")
    ops = workload.generate(rng, operation_count(workload, seconds))
    latencies, failures, scales = run_ops(workload, ops, tracer)
    return latencies, failures, scales, time.perf_counter() - start


def reference_seconds(latencies, scales) -> list[float]:
    return [t * s for t, s in zip(latencies, scales)]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args, latencies, failures) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_lines": src_lines(),
        "machine": "shared 2-core box; timings are not isolated",
        "samples": len(latencies),
        "fail_ratio": len(failures) / len(latencies),
        "failures": [list(f) for f in failures[:FAILURES_SHOWN]],
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workloads):
    setups = [float(child(args, "--setup-probe")) for _ in range(SETUP_REPEATS)]
    workload = workloads.WORKLOADS[args.workload]
    workloads.setup_tables(workload.forms)
    latencies, failures, scales, wall = one_pass(workload, args.seed, args.seconds)
    times = reference_seconds(latencies, scales)
    deciles = statistics.quantiles(times, n=10)
    metrics = {
        "ops_per_s": metric((len(times) - len(failures)) / sum(times), "1/s"),
        "latency_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "latency_p90_ms": metric(deciles[8] * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = statistics.quantiles(latencies, n=10)
    return latencies, failures, metrics, {
        "setup_runs_s": setups, "speed_scale_median": statistics.median(scales),
        "speed_scale_range": [min(scales), max(scales)], "wall_s": wall,
        "cpu_ops_per_s": len(latencies) / sum(latencies),
        "cpu_latency_p50_ms": raw[4] * 1e3, "cpu_latency_p90_ms": raw[8] * 1e3}


def layer_metrics(layers) -> dict:
    """Self time and calls of each layer in LAYERS, and of every other
    traced layer together under OTHER_LAYERS."""
    grouped = {name: {"self_s": 0.0, "calls": 0} for name in (*LAYERS, OTHER_LAYERS)}
    for layer, stats in layers.items():
        into = grouped[layer if layer in LAYERS else OTHER_LAYERS]
        into["self_s"] += stats["self_s"]
        into["calls"] += stats["calls"]
    metrics = {}
    for name, stats in grouped.items():
        metrics[f"{name}.self_s"] = metric(stats["self_s"], "s")
        metrics[f"{name}.calls"] = metric(stats["calls"], "count")
    return metrics


def per_layer(args, workloads):
    from tracer import Tracer

    reference_s = float(child(args, "--reference"))
    workload = workloads.WORKLOADS[args.workload]
    workloads.setup_tables(workload.forms)
    cache = sys.modules["artinpal.oracle"].class_of
    before = cache.cache_info()
    tracer = Tracer()
    tracer.install()
    try:
        latencies, failures, scales, wall = one_pass(
            workload, args.seed, args.seconds, tracer)
    finally:
        tracer.uninstall()
    after = cache.cache_info()
    summary = tracer.summary()
    layers, funcs, counts = summary["layers"], summary["functions"], summary["counts"]

    def fn(name, field):
        return funcs.get(name, {}).get(field, 0)

    metrics = layer_metrics(layers)
    for name in ("monoid.divides_left", "monoid.starting_set", "monoid.normal_form"):
        metrics[f"{name}.self_s"] = metric(fn(name, "self_s"), "s")
    for name in ("group.from_word", "group.inv", "group.key",
                 "palindromes.involution_lift", "palindromes.decompose",
                 "palindromes.core_decompositions", "orderings.dehornoy_sign",
                 "orderings.magnus_sign", "oracle.divides_left_oracle"):
        metrics[f"{name}.total_s"] = metric(fn(name, "total_s"), "s")
    metrics["weyl.image.calls"] = metric(fn("weyl.image", "calls"), "count")
    for name in ("monoid.letters_in", "group.delta2_strips",
                 "weyl.enumerate_group.elements", "palindromes.candidates",
                 "orderings.handle_steps", "orderings.magnus_terms",
                 "orderings.magnus_degree_max", "oracle.class_members"):
        metrics[name] = metric(counts.get(name, 0), "count")
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    metrics["oracle.class_of.calls"] = metric(hits + misses, "count")
    metrics["oracle.class_of.misses"] = metric(misses, "count")
    metrics["oracle.class_of.hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    attributed = sum(v["self_s"] for v in layers.values())
    traced_s = sum(reference_seconds(latencies, scales))
    metrics["trace.overhead_ratio"] = metric(traced_s / reference_s - 1, "ratio")
    metrics["trace.unattributed_s"] = metric(wall - summary["root_s"], "s")

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json.gz")
    extra = {"traced_wall_s": wall, "traced_ops_s": traced_s, "untraced_ops_s": reference_s,
             "spans": summary["spans"], "spans_dropped": summary["spans_dropped"],
             "layers": layers,
             "other_layers": sorted(set(layers) - set(LAYERS)),
             "layer_share": {k: v["self_s"] / attributed for k, v in layers.items()}
             if attributed else {}}
    return latencies, failures, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args))
        return 0
    workloads = load_package(args)
    if args.reference:
        workload = workloads.WORKLOADS[args.workload]
        workloads.setup_tables(workload.forms)
        latencies, _, scales, _ = one_pass(workload, args.seed, args.seconds)
        print(sum(reference_seconds(latencies, scales)))
        return 0
    measure = per_layer if args.trace else end_to_end
    latencies, failures, metrics, extra = measure(args, workloads)
    meta = {**metadata(args, latencies, failures), **extra}
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metadata": meta, "metrics": metrics}, indent=1))
    print(json.dumps(meta), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
