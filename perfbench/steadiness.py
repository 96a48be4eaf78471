#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

Runs each workload --runs times (seeds 1, 2, ..., --runs)
through perfbench/run.py and prints, per end-to-end metric, the median,
the first and third quartiles (statistics.quantiles(n=4)) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. With
--passes 2 the same seeds run twice and the table also shows the second
pass's spread and how far its median moved from the first's, in the
worse direction.

    python3 perfbench/steadiness.py [--runs 10] [--passes 1]
                                    [--workloads a,b]

A spread must stay within the bound (the target is a third of it) for
every metric but setup_s; the median shift must stay within the bound
for every metric. Exits 1 when either fails or a run fails. The raw
values are also written to .bench_out/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--passes", type=int, choices=(1, 2), default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    ok = True
    raw = {}
    for workload in args.workloads.split(","):
        passes = []
        for p in range(args.passes):
            values = {m["name"]: [] for m in metrics}
            for seed in range(1, args.runs + 1):
                got = run_once(workload, seed, spec["run_seconds"])
                if got is None:
                    print(f"{workload} seed {seed}: run failed")
                    ok = False
                    continue
                for m in metrics:
                    values[m["name"]].append(got[m["name"]])
                print(f"  {workload} pass {p + 1} seed {seed}: " + ", ".join(
                    f"{k}={got[k]:.4g}" for k in values), flush=True)
            passes.append(values)
        raw[workload] = passes
        print(f"\n{workload}")
        print(f"  {'metric':18} {'median':>11} {'q1':>11} {'q3':>11}"
              f" {'spread':>7} {'spread2':>7} {'bound':>6} {'shift':>7}"
              "  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            if any(len(p[name]) < 2 for p in passes):
                ok = False
                continue
            med, q1, q3, sp = spread(passes[0][name])
            sp2, shift = float("nan"), 0.0
            if len(passes) == 2:
                med2, _, _, sp2 = spread(passes[1][name])
                sign = 1 if m["better"] == "lower" else -1
                shift = sign * (med2 - med) / med
            widest = max(sp, sp2) if len(passes) == 2 else sp
            spread_ok = name == "setup_s" or widest <= bound
            shift_ok = shift <= bound
            verdict = "ok" if spread_ok and shift_ok else "FAIL"
            if verdict == "ok" and name != "setup_s" and widest > bound / 3:
                verdict = "ok (above a third of the bound)"
            ok = ok and spread_ok and shift_ok
            print(f"  {name:18} {med:11.5g} {q1:11.5g} {q3:11.5g}"
                  f" {sp:7.3f} {sp2:7.3f} {bound:6.2f} {shift:7.3f}"
                  f"  {verdict}")
    out = REPO / ".bench_out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
