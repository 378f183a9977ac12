#!/usr/bin/env python3
"""Runs the benchmark repeatedly and judges steadiness and changes.

Subcommands (run from anywhere; paths are plain arguments):

  run      Runs every workload once per seed and appends one JSON record
           per run to --out. With --against DIR it runs alternating pairs
           of two checkouts (the order flips on every pair).
             compare.py run --out a.jsonl --seeds 1-10
             compare.py run --out ab.jsonl --checkout PARENT --against CHANGE

  steady   Per workload x end-to-end metric of one set of runs: median,
           quartiles and the interquartile spread as a share of the
           median, against the metric's bound. With a second set it also
           checks that the second median is not worse than the first by
           more than the bound, and that the failed-op shares are equal.
             compare.py steady a.jsonl [b.jsonl]

  compare  A parent set against a change set (choosing-metrics section 8):
           medians, quartiles, change, the change's win share over pairs
           of equal seed, and a verdict per workload x metric: "gain"
           (wins at least 9 of 10 pairs and the medians differ by more
           than the parent's interquartile distance), "regression"
           (median worse by more than the bound), "unresolved" (spread
           wider than the bound and not every change run better), or
           "no regression". Refuses runs whose input fingerprints differ.
             compare.py compare parent.jsonl change.jsonl

  layers   Per-layer medians of a set of traced runs, per workload; with
           an untraced set it also prints the tracing overhead on each
           end-to-end metric (traced median against untraced median).
             compare.py layers traced.jsonl [untraced.jsonl]

  bounds   Derives a bound per end-to-end metric from one or more sets:
           three times the widest spread seen, rounded up to a percent,
           clamped to [0.01, 0.25]; setup_s gets the largest bound.
             compare.py bounds a.jsonl b.jsonl

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_CHECKOUT = os.path.dirname(HERE)


def load_spec(checkout=DEFAULT_CHECKOUT):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(checkout, spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed in %s (exit %d)" %
                           (workload, seed, checkout, proc.returncode))
    result = json.loads(lines[-1])
    fingerprint = next((l.split(":", 1)[1].strip() for l in lines
                        if l.startswith("fingerprint:")), None)
    # A traced run's own end-to-end values (the tracing overhead) and an
    # untraced run's per-layer extras are on the "other metrics:" line.
    other = next((json.loads(l.split(":", 1)[1]) for l in lines
                  if l.startswith("other metrics:")), {})
    return {
        "checkout": os.path.abspath(checkout),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "fingerprint": fingerprint,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "other": {k: v["value"] for k, v in other.items()},
    }


def cmd_run(args):
    spec = load_spec(args.checkout)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = [args.checkout] + ([args.against] if args.against else [])
    with open(args.out, "a") as out:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for workload in workloads:
                order = sides if i % 2 == 0 else list(reversed(sides))
                for checkout in order:
                    record = run_once(checkout, spec, workload, seed,
                                      args.trace)
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print("%s seed %d %s: correct=%s" %
                          (workload, seed, checkout, record["correct"]))
    return 0


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def by_workload(runs):
    out = {}
    for r in runs:
        if r.get("trace", 0):
            continue
        out.setdefault(r["workload"], []).append(r)
    return out


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def cmd_steady(args):
    spec = load_spec()
    sets = [by_workload(load_runs(p)) for p in args.sets]
    ok = True
    header = "%-20s %-18s %5s %14s %14s %14s %8s %6s  %s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound",
        "verdict")
    for set_index, runs_by_w in enumerate(sets):
        print("set %d: %s" % (set_index + 1, args.sets[set_index]))
        print(header)
        for workload, runs in sorted(runs_by_w.items()):
            if not all(r["correct"] for r in runs):
                print("%-20s some runs were not correct" % workload)
                ok = False
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]] for r in runs]
                q1, q2, q3 = quartiles(values)
                s = spread(values)
                steady = s <= metric["bound"] or metric["name"] == "setup_s"
                verdict = "ok" if steady else "unresolved"
                if s > metric["bound"] / 3 and steady:
                    verdict = "ok (over a third of the bound)"
                ok = ok and steady
                print("%-20s %-18s %5d %14.6g %14.6g %14.6g %7.2f%% %5.0f%%  %s"
                      % (workload, metric["name"], len(values), q1, q2, q3,
                         100 * s, 100 * metric["bound"], verdict))
            print("%-20s %-18s %.9g" % (workload, "failed share",
                                        failed_share(runs)))
    if len(sets) == 2:
        print("second set against the first:")
        for workload in sorted(sets[0]):
            first, second = sets[0][workload], sets[1].get(workload, [])
            if not second:
                continue
            if failed_share(first) != failed_share(second):
                print("%-20s failed shares differ" % workload)
                ok = False
            for metric in spec["end_to_end"]:
                m1 = statistics.median(r["metrics"][metric["name"]]
                                       for r in first)
                m2 = statistics.median(r["metrics"][metric["name"]]
                                       for r in second)
                w = worse_by(metric, m1, m2)
                within = w <= metric["bound"]
                ok = ok and within
                print("%-20s %-18s %14.6g -> %14.6g  worse by %7.2f%% "
                      "(bound %3.0f%%) %s" % (
                          workload, metric["name"], m1, m2, 100 * w,
                          100 * metric["bound"], "ok" if within else "FAIL"))
    return 0 if ok else 1


def cmd_compare(args):
    spec = load_spec()
    parent = by_workload(load_runs(args.parent))
    change = by_workload(load_runs(args.change))
    prints = {}
    for r in load_runs(args.parent) + load_runs(args.change):
        key = (r["workload"], r["seed"])
        if prints.setdefault(key, r["fingerprint"]) != r["fingerprint"]:
            print("refusing: %s seed %d has differing input fingerprints" %
                  key)
            return 2
    print("%-20s %-18s %14s %14s %8s %6s %8s  %s" % (
        "workload", "metric", "parent", "change", "change", "wins", "bound",
        "verdict"))
    for workload in sorted(parent):
        p_runs, c_runs = parent[workload], change.get(workload, [])
        if not c_runs:
            continue
        p_by_seed = {r["seed"]: r for r in p_runs}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name] for r in p_runs]
            cv = [r["metrics"][name] for r in c_runs]
            pm, cm = statistics.median(pv), statistics.median(cv)
            wins = ties = pairs = 0
            for r in c_runs:
                p = p_by_seed.get(r["seed"])
                if p is None:
                    continue
                pairs += 1
                w = worse_by(metric, p["metrics"][name], r["metrics"][name])
                if w < 0:
                    wins += 1
                elif w == 0:
                    ties += 1
            q1, _, q3 = quartiles(pv)
            worse = worse_by(metric, pm, cm)
            s = max(spread(pv), spread(cv))
            better = (min(cv) > max(pv) if metric["better"] == "higher"
                      else max(cv) < min(pv))
            if pairs and wins >= 0.9 * pairs and abs(cm - pm) > (q3 - q1):
                verdict = "gain"
            elif worse > metric["bound"]:
                verdict = "regression"
            elif s > metric["bound"] and not better:
                verdict = "unresolved"
            else:
                verdict = "no regression"
            print("%-20s %-18s %14.6g %14.6g %7.2f%% %3d/%-2d %7.0f%%  %s" % (
                workload, name, pm, cm, -100 * worse, wins, pairs,
                100 * metric["bound"], verdict))
    return 0


def cmd_layers(args):
    spec = load_spec()
    traced = {}
    for r in load_runs(args.traced):
        if r.get("trace", 0):
            traced.setdefault(r["workload"], []).append(r)
    plain = by_workload(load_runs(args.untraced)) if args.untraced else {}
    for workload, runs in sorted(traced.items()):
        print("%s (%d traced runs)" % (workload, len(runs)))
        for metric in spec["per_layer"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            print("  %-32s %14.6g %s" % (metric["name"],
                                         statistics.median(values),
                                         metric["unit"]))
        if workload not in plain:
            continue
        print("  tracing overhead (traced median against untraced median):")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            t = statistics.median(r["other"][name] for r in runs)
            u = statistics.median(r["metrics"][name] for r in plain[workload])
            print("  %-32s %14.6g -> %14.6g  %+7.2f%%" % (
                name, u, t, 100 * (t - u) / u if u else 0))
    return 0


def cmd_bounds(args):
    spec = load_spec()
    widest = {}
    for path in args.sets:
        for workload, runs in by_workload(load_runs(path)).items():
            for metric in spec["end_to_end"]:
                s = spread([r["metrics"][metric["name"]] for r in runs])
                widest[metric["name"]] = max(widest.get(metric["name"], 0), s)
    bounds = {}
    for name, s in widest.items():
        bounds[name] = min(0.25, max(0.01, math.ceil(300 * s) / 100))
    if "setup_s" in bounds:
        bounds["setup_s"] = max(bounds.values())
    for name in sorted(bounds):
        print("%-18s widest spread %6.2f%%  bound %.2f" % (
            name, 100 * widest[name], bounds[name]))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--out", required=True)
    run.add_argument("--checkout", default=DEFAULT_CHECKOUT)
    run.add_argument("--against")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--trace", type=int, default=0, choices=[0, 1])
    steady = sub.add_parser("steady")
    steady.add_argument("sets", nargs="+")
    compare = sub.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    layers = sub.add_parser("layers")
    layers.add_argument("traced")
    layers.add_argument("untraced", nargs="?")
    bounds = sub.add_parser("bounds")
    bounds.add_argument("sets", nargs="+")
    args = parser.parse_args()
    return {"run": cmd_run, "steady": cmd_steady, "compare": cmd_compare,
            "layers": cmd_layers, "bounds": cmd_bounds}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
