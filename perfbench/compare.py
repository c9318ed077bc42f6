#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares two of them.

Collect one set (ten seeds of every workload, one JSON line per run):

    python3 perfbench/compare.py collect --out .bench_build/results/a.jsonl \
        --seeds 1-10 [--workloads paper join served] [--trace 0]

Compare two sets against the bounds in BENCHMARK.json:

    python3 perfbench/compare.py compare A.jsonl B.jsonl

For each workload and metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and the change
of B's median against A's in the metric's worse direction. A pair agrees
when each set's spread is within the bound (setup_s excepted), B's median
is not worse than A's by more than the bound, and both sets fail the same
share of operations. The exit code is 0 when every pair agrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    bench = load_benchmark()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [*bench["command"], "--workload", workload,
                       "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]),
                       "--trace", str(args.trace)]
                run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
                lines = run.stdout.strip().splitlines()
                if run.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {run.returncode}",
                          file=sys.stderr)
                    continue
                result = json.loads(lines[-1])
                record = {"workload": workload, "seed": seed,
                          "trace": args.trace, "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr)


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                if r.get("trace", 0) == 0:
                    runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def compare(args):
    bench = load_benchmark()
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    all_ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        print(f"\n## {workload} ({len(a)} vs {len(b)} runs)")
        if len(a) < 2 or len(b) < 2:
            print("not enough runs")
            all_ok = False
            continue
        share = [sorted({r["failed"] / r["attempted"] for r in s})
                 for s in (a, b)]
        correct = all(r["correct"] for r in a + b)
        print(f"correct={correct} failed share A={share[0]} B={share[1]}")
        all_ok = all_ok and correct and share[0] == share[1] and \
            len(share[0]) == 1
        print(f"{'metric':22} {'A q1':>10} {'A med':>10} {'A q3':>10} "
              f"{'A spr':>6} {'B med':>10} {'B spr':>6} {'worse':>7} "
              f"{'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            av = [r["metrics"][name]["value"] for r in a]
            bv = [r["metrics"][name]["value"] for r in b]
            aq1, amed, aq3, aspr = summary(av)
            _, bmed, _, bspr = summary(bv)
            worse = (bmed - amed) / amed
            if m["better"] == "higher":
                worse = -worse
            ok = worse <= bound and (name == "setup_s" or
                                     (aspr <= bound and bspr <= bound))
            all_ok = all_ok and ok
            print(f"{name:22} {aq1:10.4g} {amed:10.4g} {aq3:10.4g} "
                  f"{aspr:6.3f} {bmed:10.4g} {bspr:6.3f} {worse:+7.3f} "
                  f"{bound:6.2f}  {'agree' if ok else 'DIFFER'}")
    print("\nverdict:", "the two sets agree" if all_ok else "the sets differ")
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
