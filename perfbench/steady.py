#!/usr/bin/env python3
"""Steadiness check and baseline for the repository benchmark.

Runs the command in BENCHMARK.json `--runs` times on every workload,
each time with another seed (from 1000 up), for `--sets` sets,
interleaving the workloads so host drift hits all of them alike. Every
run measures `run_seconds`. For every end-to-end metric it
reports the median and quartiles of each set, the spread (quartile
distance over the median) against the metric's bound, and how far the
last set's median moved from the first set's in the worse direction.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2 --out perfbench/baseline.json

Exits 1 if a spread or a median shift exceeds its bound, or if any run
failed or reported an incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SEED_BASE = 1000


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"] if len(lines) > 1 else {}
    return result, context


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def worse_shift(first, last, better):
    """Share by which `last` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    change = (last - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out", default="", help="write the summary as JSON here")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = []
    contexts = {}
    failures = []
    for s in range(opts.sets):
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        seeds = []
        for i in range(opts.runs):
            seed = SEED_BASE + s * opts.runs + i
            seeds.append(seed)
            for w in workloads:
                t0 = time.time()
                try:
                    result, context = run_once(command, w, seed, seconds, False)
                except RuntimeError as e:
                    failures.append(str(e))
                    print(f"FAILED {e}", flush=True)
                    continue
                if not result["correct"] or result["failed"]:
                    failures.append(f"{w} seed {seed}: correct={result['correct']} "
                                    f"failed={result['failed']}")
                contexts.setdefault(w, context)
                for m in metrics:
                    values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {s} run {i} {w:<9} seed {seed} {time.time() - t0:5.1f}s "
                      + " ".join(f"{k}={result['metrics'][k]['value']:.4g}"
                                 for k in ("throughput_per_s", "latency_p50_ms", "setup_s")),
                      flush=True)
        sets.append({
            "seeds": seeds,
            "workloads": {w: {m: summary(v) for m, v in values[w].items() if len(v) >= 2}
                          for w in workloads},
        })

    ok = not failures
    verdict = {}
    print(f"\n{'workload':<10}{'metric':<22}" + "".join(
        f"{'spread' + str(s):>10}" for s in range(len(sets))) + f"{'shift':>9}{'bound':>8}")
    for w in workloads:
        verdict[w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [st["workloads"][w].get(name) for st in sets]
            if any(x is None for x in stats):
                ok = False
                continue
            spreads = [x["spread"] for x in stats]
            shift = worse_shift(stats[0]["median"], stats[-1]["median"], m["better"])
            steady = all(sp <= bound for sp in spreads)
            agrees = shift <= bound
            ok = ok and steady and agrees
            verdict[w][name] = {"spreads": spreads, "median_shift": shift, "bound": bound,
                                "steady": steady, "agrees": agrees}
            flag = "" if steady and agrees else "  <-- over bound"
            print(f"{w:<10}{name:<22}" + "".join(f"{sp:>10.4f}" for sp in spreads)
                  + f"{shift:>9.4f}{bound:>8}{flag}")
    for f in failures:
        print("failure:", f)

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({
                "command": command,
                "run_seconds": seconds,
                "runs_per_set": opts.runs,
                "context": contexts,
                "sets": sets,
                "verdict": verdict,
                "failures": failures,
            }, f, indent=1)
            f.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
