#!/usr/bin/env python3
"""Wall-clock benchmark of the hybridNDP reproduction.

    python3 perfbench/run.py --workload job-inl --seed 1 --seconds 20 \\
        --trace 0

Runs one workload (``job-inl``, ``sqlgen-sched`` or ``htap-mix``; see
``perfbench/NOTES.md``) single-process from the root of a source
checkout, and prints one ``metric <workload> <name> <value> <unit>``
line per metric, then, as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` repeats whole passes (fresh environment, warm-up, timed
phase, checks) for about ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced pass, then one pass with the
layer spans of ``perfbench/layers.py`` installed, and reports the
per-layer split plus ``trace.overhead_ratio``.

Outputs are checked in both modes: rows against a host-only reference,
every pass's output digest and deterministic counts against every other
pass of the run, and, for the default seed, the digest recorded in
``perfbench/expected.json`` (``--record`` rewrites that record from a
traced run).  A failed check exits with status 1 after printing the
result.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "perfbench", "expected.json")

#: The seed whose digests and counts ``expected.json`` records.
DEFAULT_SEED = 1
#: Set-up is timed at least this many times per run.
MIN_SETUPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="wall-clock benchmark of the hybridNDP reproduction")
    parser.add_argument("--workload", required=True,
                        choices=("job-inl", "sqlgen-sched", "htap-mix"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (sqlgen corpus, htap op "
                             "stream, closed-loop arrivals)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead")
    parser.add_argument("--record", action="store_true",
                        help="with --trace 1 and the default seed: store "
                             "the digest and counts in expected.json")
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_expected():
    try:
        with open(EXPECTED) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def emit(workload, metrics):
    """Print one human-readable line per metric."""
    for name, (value, unit) in metrics.items():
        print(f"metric {workload} {name} {value:.6g} {unit}")


def write_metrics(passes):
    """htap-mix's write throughput and latency over ``passes``."""
    write_us = [seconds * 1e6 for result in passes
                for seconds in result.write_s]
    if not write_us:
        return {}
    return {
        "writes_per_s": (median([len(result.write_s) / sum(result.write_s)
                                 for result in passes]), "1/s"),
        "write_us.p50": (statistics.median(write_us), "us"),
        "write_us.p99": (statistics.quantiles(write_us, n=100)[-1], "us"),
        "write_us.samples": (len(write_us), "count"),
    }


def compare_passes(passes, failures):
    """Every pass of one seed must agree exactly with the first."""
    first = passes[0]
    for index, other in enumerate(passes[1:], start=2):
        if other.digest != first.digest:
            failures.append(f"pass {index}: output digest differs from "
                            f"pass 1")
        drift = sorted(key for key in set(first.counts) | set(other.counts)
                       if first.counts[key] != other.counts[key])
        for key in drift:
            failures.append(f"pass {index}: {key} {other.counts[key]} != "
                            f"{first.counts[key]} in pass 1")


def check_expected(args, digest, failures):
    """The default seed's digest must match the recorded one."""
    if args.seed != DEFAULT_SEED or args.record:
        return
    recorded = load_expected().get(args.workload)
    if recorded is None:
        print(f"note: no recorded digest for {args.workload}")
        return
    if recorded["digest"] != digest:
        failures.append(f"output digest {digest[:16]} != recorded "
                        f"{recorded['digest'][:16]} (seed {args.seed})")


def end_to_end(args, workload):
    """Whole passes for about ``--seconds``; end-to-end metrics."""
    from perfbench.workloads import build_env
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        result = workload.run_pass(check=not passes)
        passes.append(result)
        durations.append(time.perf_counter() - began - result.untimed_s)
        elapsed = time.perf_counter() - start
        if elapsed + median(durations) > args.seconds:
            break
    setups = [result.setup_s for result in passes]
    raw_setups = [result.raw_setup_s for result in passes]
    while len(setups) < MIN_SETUPS:
        env, seconds, raw_seconds = build_env(workload.probe)
        del env
        setups.append(seconds)
        raw_setups.append(raw_seconds)

    failures = [message for result in passes for message in result.failures]
    compare_passes(passes, failures)
    check_expected(args, passes[0].digest, failures)

    op_ms = [seconds * 1e3 for result in passes for seconds in result.op_s]
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([result.wall_s for result in passes]), "s"),
        "ops_per_s": (median([result.ops / result.wall_s
                              for result in passes]), "1/s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.p90": (statistics.quantiles(op_ms, n=10)[-1], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    attempted = sum(result.attempted for result in passes)
    failed = min(attempted, len(failures))
    # Printed for every workload but left out of the gated JSON: they
    # exist on htap-mix only, or are zero whenever the run is correct.
    extra = {"raw.setup_s": (median(raw_setups), "s"),
             "raw.wall_s": (median([result.raw_wall_s
                                    for result in passes]), "s"),
             "failed_frac": (failed / attempted, "1"),
             "op_ms.samples": (len(op_ms), "count"),
             "passes": (len(passes), "count")}
    extra.update(write_metrics(passes))
    for index, result in enumerate(passes, start=1):
        print(f"pass {args.workload} {index} setup_s {result.setup_s:.4f} "
              f"wall_s {result.wall_s:.4f} raw.wall_s "
              f"{result.raw_wall_s:.4f} ops {result.ops}")
    emit(args.workload, {**metrics, **extra})
    return metrics, attempted, failures, passes[0].digest


def per_layer(args, workload):
    """One untraced and one traced pass; the per-layer split."""
    from perfbench.layers import LAYER_SPANS, LayerTracer
    from perfbench.workloads import WORK_FIELDS
    plain = workload.run_pass(check=True)
    tracer = LayerTracer()
    traced = workload.run_pass(tracer=tracer, check=False)

    failures = list(plain.failures) + list(traced.failures)
    compare_passes([plain, traced], failures)
    check_expected(args, plain.digest, failures)

    # Span seconds get the speed normalisation of the pass they ran in,
    # so the self times of a pass add up to at most its wall_s.
    timed = traced.wall_s / traced.raw_wall_s
    setup = traced.setup_s / traced.raw_setup_s
    metrics = {}
    for name in LAYER_SPANS:
        calls, _total, self_s = traced.layers.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s * timed, "s")
    for name in ("workloads.generate", "relational.load",
                 "lsm.bulk_flush", "core.hw_profile"):
        _calls, total, _self = traced.setup_layers.get(name, (0, 0.0, 0.0))
        metrics[f"{name}_s"] = (total * setup, "s")
    counts = traced.counts
    for name in WORK_FIELDS:
        unit = "bytes" if name.startswith("bytes") else "count"
        metrics[f"work.{name}"] = (counts[f"work.{name}"], unit)
    reads = (counts["work.block_cache_hits"]
             + counts["work.data_block_reads"]
             + counts["work.index_block_reads"])
    metrics["lsm.block_cache.hit_ratio"] = (
        counts["work.block_cache_hits"] / reads if reads else 0.0, "1")
    for name in ("engine.plan_cache.hits", "engine.plan_cache.misses",
                 "engine.plan_cache.invalidations", "engine.batches",
                 "engine.intermediate_rows", "engine.replans",
                 "engine.infeasible", "sim.events", "lsm.flushes",
                 "lsm.compactions"):
        metrics[name] = (counts[name], "count")
    metrics["sched.queue_wait_sim.p50"] = (
        counts["sched.queue_wait_sim.p50"], "sim_s")
    metrics["lsm.bytes_flushed"] = (counts["lsm.bytes_flushed"], "bytes")
    metrics["lsm.compaction_bytes_written"] = (
        counts["lsm.compaction_bytes_written"], "bytes")
    flushed = counts["lsm.bytes_flushed"]
    metrics["lsm.write_amp"] = (
        (flushed + counts["lsm.compaction_bytes_written"]) / flushed
        if flushed else 0.0, "1")
    writes = write_metrics([plain])
    for name in ("writes_per_s", "write_us.p50", "write_us.p99"):
        metrics[f"relational.{name}"] = writes.get(
            name, (0.0, "1/s" if name == "writes_per_s" else "us"))
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, "1")

    call_counts = {name: value for name, (value, unit) in metrics.items()
                   if name.endswith(".calls")}
    recorded = load_expected().get(args.workload, {}).get("counts", {})
    drift = 0
    if args.seed == DEFAULT_SEED and not args.record:
        for name, value in sorted({**dict(counts), **call_counts}.items()):
            if name in recorded and recorded[name] != value:
                drift += 1
                print(f"drift {args.workload} {name}: {value} "
                      f"(recorded {recorded[name]})")
    metrics["trace.count_drift"] = (drift, "count")
    emit(args.workload, metrics)
    if args.record:
        record(args.workload, plain.digest,
               {**dict(sorted(counts.items())), **call_counts})
    return metrics, plain.attempted + traced.attempted, failures, plain.digest


def record(workload, digest, counts):
    expected = load_expected()
    expected[workload] = {"seed": DEFAULT_SEED, "digest": digest,
                          "counts": counts}
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {workload} seed {DEFAULT_SEED} in {EXPECTED}")


def main(argv=None):
    args = parse_args(argv)
    if args.record and (args.trace != 1 or args.seed != DEFAULT_SEED):
        print("--record needs --trace 1 and the default seed",
              file=sys.stderr)
        return 2
    source = os.path.join(ROOT, "src", "repro")
    if not os.path.isdir(source):
        print(f"perfbench: no repro sources at {source}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}", flush=True)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failures, digest = measure(args, workload)
    for message in failures:
        print(f"FAILED {args.workload}: {message}")
    print(f"digest {args.workload} seed {args.seed} {digest}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
