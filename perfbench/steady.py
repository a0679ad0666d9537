#!/usr/bin/env python3
"""Steadiness check: repeated benchmark runs, one seed each.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0|1]
                                [--out FILE] [--against FILE]

Run from the repository root after one build (`perfbench/run.py` builds).
One discarded warm-up run, then `--runs` runs of BENCHMARK.json's
`run_seconds` on each of its workloads, with seeds
`first-seed, first-seed+1, ...`. For every metric it prints the median,
the quartiles and the spread — the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median —
against a third of the metric's bound in BENCHMARK.json. Metrics listed in
DETERMINISTIC must read exactly the same in every run. `--out` writes the
raw values and the summary as JSON. `--against` names an earlier `--out`
file and reports each metric's median change from it. Exits 1 if any run
fails, any deterministic metric varies, any bounded spread reaches a third
of its bound, or any bounded median moved from `--against`'s by more than
its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Metrics that are virtual time, counts or byte ratios: they repeat exactly
# across runs and seeds of one workload.
DETERMINISTIC = {
    "storage_ratio",
    "model_write_mbps",
    "core.server.requests_per_op",
    "core.server.parked_per_op",
    "core.locks.contended_ratio",
    "core.locks.wait_us",
    "core.overflow.bytes_per_user_byte",
    "cluster.retries",
}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = json.load(open(args.against))["workloads"] if args.against else None

    run_once(workloads[0], args.first_seed, seconds, args.trace)  # warm-up, discarded
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(w, args.first_seed + i, seconds, args.trace))
            print(f"  {w} seed {args.first_seed + i} done", file=sys.stderr, flush=True)
        summary = {}
        print(f"{w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for name in runs[0]:
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if name in DETERMINISTIC:
                exact = len(set(vals)) == 1
                verdict = "exact" if exact else "VARIES"
                ok &= exact
            elif bound is not None:
                steady = spread < bound / 3
                verdict = "ok" if steady else "TOO NOISY"
                ok &= steady
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "values": vals}
            bound_txt = f"{bound:.3f}" if bound is not None else "-"
            moved = ""
            if earlier is not None:
                before = earlier[w][name]["median"]
                change = (med - before) / before if before else 0.0
                summary[name]["change"] = change
                moved = f"  vs earlier {change:+7.2%}"
                if bound is not None and abs(change) > bound:
                    moved += " MOVED"
                    ok = False
            print(f"  {name:<36} median {med:>14.4f}  q1 {q1:>14.4f}  q3 {q3:>14.4f}"
                  f"  spread {spread:6.3f}  bound {bound_txt:>5}  {verdict}{moved}")
        report["workloads"][w] = summary
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
