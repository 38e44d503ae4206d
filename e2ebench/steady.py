#!/usr/bin/env python3
"""Repeats one or more workloads with distinct seeds and reports how steady
each end-to-end metric is.

    python3 e2ebench/steady.py --workload retail-rw --runs 5
    python3 e2ebench/steady.py --runs 10            # every workload

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), and the relative spread
(q3 - q1) / median, next to the bound BENCHMARK.json sets for it; a spread
of a third of the bound or more is flagged. It also prints the share of
failed operations per run, which has to be the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace",
                                   str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), done.returncode))
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        values, shares = {}, []
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(spec, workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                steady = False
                print("%s seed %d: correct=false" % (workload, seed))
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
        print("== %s: %d runs, failed share %s" %
              (workload, args.runs, sorted(set(shares))))
        if len(set(shares)) != 1:
            steady = False
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print("  %-16s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f%s%s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else "  bound %.2f" % bound, flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
