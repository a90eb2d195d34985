#!/usr/bin/env python3
"""Steadiness mode of the benchmark.

Runs each workload K times, each run a fresh process with its own seed,
and prints every metric's median, quartiles and (Q3 - Q1) / median:
the run-to-run spread the bounds in BENCHMARK.json are judged against.
With --save and --against, two sets of runs are compared median to
median against the same bounds.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs K] [--workloads a,b] [--seconds S]
                                [--trace 0|1] [--first-seed N]
                                [--save FILE] [--against FILE]
"""

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, seconds, trace):
    command = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", trace,
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # The run's own noise record: request count and CPU steal.
    noise = re.search(r"(\d+) timed requests.*CPU steal ([0-9.]+)%", done.stderr)
    result["noise"] = f"{noise[1]} requests, steal {noise[2]}%" if noise else "?"
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: INCORRECT, {result['failed']} of "
              f"{result['attempted']} failed")
    return result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the per-run values as JSON")
    parser.add_argument("--against", help="compare medians with a --save file")
    args = parser.parse_args()

    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    baseline = json.loads(pathlib.Path(args.against).read_text()) if args.against else {}
    saved = {}
    for workload in args.workloads.split(","):
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(bench, workload, seed, args.seconds, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"  {workload} seed {seed} ({result['noise']}): " + " ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in result["metrics"].items()
                if name in bounds or args.trace == "1" and not name.endswith("_us")))
        saved[workload] = values
        print(f"{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<26} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound, better = bounds.get(name, (None, None))
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO NOISY")
                if name == "setup_s":
                    verdict = "(spread not judged)"
                old = baseline.get(workload, {}).get(name)
                if old:
                    old_med = statistics.median(old)
                    worse = (med - old_med) / old_med
                    if better == "higher":
                        worse = -worse
                    verdict += f"; {worse:+.1%} vs saved median" + (
                        " REGRESSED" if worse > bound else "")
            print(f"  {name:<26} {med:>12.4g} {q1:>12.4g} {q3:>12.4g} "
                  f"{spread:>8.2%} {bound if bound is not None else '':>6}  {verdict}")
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(saved, indent=1))


if __name__ == "__main__":
    main()
