#!/usr/bin/env python3
"""Substrate perf regression gate.

Reads one or more google-benchmark JSON reports written by

    bench_micro_substrate --benchmark_filter=Substrate \
        --benchmark_out=BENCH_substrate.json --benchmark_out_format=json
    bench_plan --benchmark_filter=Substrate \
        --benchmark_out=BENCH_plan.json --benchmark_out_format=json

merges their timings (a bench run with repetitions contributes its median
aggregate), pairs each new-substrate bench with its baseline by name suffix, and fails (exit 1) if any new implementation is slower than its
baseline beyond a noise tolerance — or, for pairs with a required minimum
speedup, not faster by at least that factor. Run via the `substrate_gate`
CMake target.
"""
import json
import sys

# new-implementation suffix -> baseline suffix
PAIRINGS = {
    "_BucketQueue": "_StdMapReference",
    "_FlatHash": "_StdUnordered",
    # Rank-join substrate (PR 2): compiled slot bindings + packed-integer
    # keys vs the seed string-keyed join; packed flat-hash head dedup vs the
    # seed std::set of NodeId vectors.
    "_CompiledSlots": "_StringKeyReference",
    "_FlatPacked": "_StdSetReference",
    # Cost-based planner (PR 3): greedy bushy join order vs the seed's
    # textual left-deep order on bench_plan's skewed-selectivity workload.
    "_PlannedOrder": "_TextualOrder",
    # Query service (PR 4): cache-hit vs cache-miss latency on a repeated
    # mixed workload, and 8-worker vs 1-worker cache-cold throughput.
    # bench_service only registers the Parallel/Serial pair on hosts with
    # >= 4 hardware threads (on fewer, the pair would measure the scheduler,
    # not the service); the gate skips pairs that are entirely absent.
    "_CacheHit": "_CacheMiss",
    "_ServiceParallel": "_ServiceSerial",
    # Snapshot storage engine (PR 5): opening the binary mmap snapshot vs
    # re-parsing the text format and rebuilding the CSR store.
    "_SnapshotLoad": "_TextLoad",
    # Reachability & distance index (PR 8): merged-interval probes vs the
    # label-BFS the closure walk degenerates to, and sketch-floored
    # distance-aware rounds vs the plain psi ratchet.
    "_ReachProbe": "_ReachBfs",
    "_DistanceSketch": "_DistanceRounds",
    # Observability layer (PR 9): the serving mix while a poller renders the
    # registry and reads stats() every millisecond vs the same mix unpolled.
    # No MIN_SPEEDUP — the claim is that reading the instruments is
    # near-free for the workers writing them, i.e. within the tolerance.
    "_MetricsOn": "_MetricsOff",
    # Ops plane (PR 10): the same mix with the always-on flight recorder
    # appending a flat completion summary per request vs no recorder wired.
    # Same near-free claim as _MetricsOn.
    "_RecorderOn": "_RecorderOff",
    # Dependent join: the probe x RELAX shape evaluated once per probe row
    # vs HRJN draining the variable-to-variable RELAX conjunct.
    "_BoundJoin": "_HashRankJoin",
    # Exact variable-to-variable drain: the per-source frontier scan vs the
    # ranked walk on (?X, next+, ?Y) over an L4All graph.
    "_FrontierScan": "_RankedExact",
    # Flexible first page: lazy Succ (positive-cost moves pushed when their
    # deferred tuple pops) vs eager Succ on APPROX (?X, job.type, ?Y) top-100.
    "_LazySucc": "_EagerSucc",
}

# Pairs that must not merely avoid regressing but beat their baseline by a
# factor: the planner exists to dodge intermediate-result blow-ups, so a
# planned order that is not clearly faster on the skewed workload means the
# cost model or the greedy construction broke.
MIN_SPEEDUP = {
    "_PlannedOrder": 1.5,
    # A top-k hit is a lock + hash probe + vector copy; anything under 20x
    # means the cache path grew real work.
    "_CacheHit": 20.0,
    # 8 workers on >= 4 cores must hold >= 3x over 1 worker on the
    # cache-cold mix, or the serving layer serialises somewhere.
    "_ServiceParallel": 3.0,
    # The snapshot engine's reason to exist: mmap-opening a dataset must
    # beat the text re-parse + CSR rebuild by an order of magnitude (it
    # measures >> 100x at default scale; 10x leaves room for tiny graphs
    # where constant costs dominate).
    "_SnapshotLoad": 10.0,
    # An interval probe is a component lookup + prefix-sum count; the BFS it
    # replaces walks the whole chain suffix. O(1) vs O(N) leaves orders of
    # magnitude of headroom over 10x.
    "_ReachProbe": 10.0,
    # The sketch floor skips ~224 of ~225 psi rounds on the far-apart
    # workload; 3x tolerates the shared final round dominating on small
    # graphs.
    "_DistanceSketch": 3.0,
    # A handful of per-binding instances against a whole-graph drain: the
    # L1 graph alone gives ~2 orders of magnitude; under 10x means the
    # instances started doing whole-graph work.
    "_BoundJoin": 10.0,
    # Every exact answer is at distance 0; the scan drops the bucket queue,
    # the (v, n, s) hash and the answer map for bitmaps it clears per
    # source. It measures ~4.5x on L4All L2 (4-vCPU VM); under 3x means
    # per-source work stopped being proportional to what the source
    # reaches.
    "_FrontierScan": 3.0,
    # All 100 answers are at distance 0: lazy Succ pushes 543 tuples where
    # eager Succ pushes ~244k. It measures ~30-45x on L4All L2 (4-vCPU VM);
    # under 15x means the deferred moves are being pushed before the page
    # needs them.
    "_LazySucc": 15.0,
}

# Pairs whose work accrues on service worker threads while the driving
# thread blocks: compared on wall-clock (real_time) instead of cpu_time,
# which would only see the driver.
REAL_TIME_PAIRS = {"_CacheHit", "_ServiceParallel", "_MetricsOn",
                   "_RecorderOn"}

# google-benchmark time_unit -> nanoseconds.
UNIT_NS = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

# Generous noise floor so the gate trips on real regressions, not scheduler
# jitter; the structures win by integer factors when healthy.
TOLERANCE = 1.10


def show_time(time: float, unit: str) -> str:
    """A bench time in its own unit, with three digits when it is small."""
    return f"{time:.0f} {unit}" if time >= 100 else f"{time:.3g} {unit}"


def main() -> int:
    if len(sys.argv) < 2:
        print(f"usage: {sys.argv[0]} BENCH_JSON [BENCH_JSON ...]",
              file=sys.stderr)
        return 2

    times = {}
    from_median = set()
    for path in sys.argv[1:]:
        with open(path) as f:
            report = json.load(f)
        for b in report.get("benchmarks", []):
            run_type = b.get("run_type", "iteration")
            # A bench run with --benchmark_repetitions reports aggregates;
            # its median stands for it, so one noisy repetition cannot flip
            # the verdict. Other aggregates (mean, stddev, cv) are skipped.
            is_median = (run_type == "aggregate"
                         and b.get("aggregate_name") == "median")
            if run_type != "iteration" and not is_median:
                continue
            # UseRealTime() benches report as "<name>/real_time".
            name = b.get("run_name", b["name"]).removesuffix("/real_time")
            if name in from_median and not is_median:
                continue
            if is_median:
                from_median.add(name)
            times[name] = {"cpu": b["cpu_time"], "real": b["real_time"],
                           "unit": b.get("time_unit", "ns")}

    checked = 0
    failures = []
    missing = []
    for name, timing in sorted(times.items()):
        for new_suffix, base_suffix in PAIRINGS.items():
            if not name.endswith(new_suffix):
                continue
            base_name = name[: -len(new_suffix)] + base_suffix
            if base_name not in times:
                # A vanished baseline would otherwise silently disable the
                # pair's regression check.
                print(f"ERROR: no baseline {base_name} for {name}",
                      file=sys.stderr)
                missing.append(name)
                continue
            checked += 1
            metric = "real" if new_suffix in REAL_TIME_PAIRS else "cpu"
            cpu_time = timing[metric]
            base_time = times[base_name][metric]
            # Each bench reports in its own time_unit; the ratio compares
            # them as nanoseconds.
            ratio = (cpu_time * UNIT_NS[timing["unit"]]
                     / (base_time * UNIT_NS[times[base_name]["unit"]])
                     if base_time > 0 else float("inf"))
            max_ratio = TOLERANCE
            if new_suffix in MIN_SPEEDUP:
                max_ratio = 1.0 / MIN_SPEEDUP[new_suffix]
            if ratio <= max_ratio:
                verdict = "OK"
            elif new_suffix in MIN_SPEEDUP and ratio <= TOLERANCE:
                # Not slower than its baseline, just short of the required
                # factor — a different failure than a regression.
                verdict = "TOO SLOW"
            else:
                verdict = "REGRESSION"
            required = (f", requires >= {MIN_SPEEDUP[new_suffix]:.1f}x"
                        if new_suffix in MIN_SPEEDUP else "")
            print(
                f"{verdict:>10}  {name}: {show_time(cpu_time, timing['unit'])}  vs  "
                f"{base_name}: {show_time(base_time, times[base_name]['unit'])}  "
                f"(ratio {ratio:.3f}, speedup {1 / ratio:.2f}x{required})"
            )
            if ratio > max_ratio:
                failures.append(name)

    if missing:
        print(f"\nFAIL: {len(missing)} bench(es) without a baseline: "
              + ", ".join(missing), file=sys.stderr)
        return 2
    if checked == 0:
        print("ERROR: no substrate pairs found in the report", file=sys.stderr)
        return 2
    if failures:
        print(f"\nFAIL: {len(failures)} pair(s) below required speed: "
              + ", ".join(failures), file=sys.stderr)
        return 1
    print(f"\nPASS: {checked} substrate pair(s) at or above required speed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
