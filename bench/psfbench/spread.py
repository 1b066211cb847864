#!/usr/bin/env python3
"""Run psfbench repeatedly and judge its numbers (standard library only).

  spread.py spread [--runs N] [--workloads a,b] [--seconds S] [--trace 0|1]
                   [--out FILE]
      Run every workload N times, round-robin across workloads, each run on
      its own seed. Print each metric's median, quartiles and relative
      spread (IQR / median) next to its BENCHMARK.json bound.

  spread.py drift FIRST.json SECOND.json
      Compare the medians of two saved `spread --out` files: each metric's
      second median may be worse than the first by at most its bound.

  spread.py compare --parent DIR --change DIR [--pairs N] [--workloads a,b]
      Run N parent/change pairs per workload, alternating which side goes
      first, on the same seed within a pair. A metric counts as improved
      only when the change wins at least 9 in 10 pairs and the medians
      differ by more than the parent's own IQR; it counts as a regression
      when the change's median is worse than the parent's by more than the
      bound.

Quartiles are statistics.quantiles(values, n=4). Every run's result line is
also checked against BENCHMARK.json: each listed metric must be present
with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    metrics = spec["per_layer" if trace else "end_to_end"]
    for m in metrics:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"{workload}: metric {m['name']} missing or "
                               f"not in {m['unit']}")
    if not result["correct"] or result["failed"]:
        print(f"  WARNING {workload} seed {seed}: correct={result['correct']}"
              f" failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)
    return {name: v["value"] for name, v in result["metrics"].items()}


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def workloads_of(spec, arg):
    names = [w["name"] for w in spec["workloads"]]
    return arg.split(",") if arg else names


def cmd_spread(args):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = workloads_of(spec, args.workloads)
    seconds = args.seconds or spec["run_seconds"]
    values = {w: {} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.seed_base + i
            got = run_once(ROOT, spec, w, seed, seconds, args.trace)
            for name, v in got.items():
                values[w].setdefault(name, []).append(v)
            print(f"  run {i + 1}/{args.runs} {w} seed {seed}", file=sys.stderr)
    ok = True
    print(f"{'workload':<14} {'metric':<40} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            median, q1, q3, spread = summarize(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag, ok = "  OVER BOUND", False
                elif spread > bound / 3:
                    flag = "  over bound/3"
            print(f"{w:<14} {name:<40} {median:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "runs": args.runs,
                       "trace": args.trace, "values": values}, f, indent=1)
    return 0 if ok else 1


def worse_by(metric, first, second):
    """Relative amount by which `second` is worse than `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return -change if metric["better"] == "higher" else change


def cmd_drift(args):
    spec = load_spec()
    with open(args.first) as f:
        first = json.load(f)["values"]
    with open(args.second) as f:
        second = json.load(f)["values"]
    ok = True
    for w in first:
        for m in spec["end_to_end"]:
            a = statistics.median(first[w][m["name"]])
            b = statistics.median(second[w][m["name"]])
            worse = worse_by(m, a, b)
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok = ok and worse <= m["bound"]
            print(f"{w:<14} {m['name']:<16} {a:>12.5g} -> {b:>12.5g} "
                  f"({100 * worse:+.2f}% worse, bound "
                  f"{100 * m['bound']:.0f}%) {verdict}")
    return 0 if ok else 1


def cmd_compare(args):
    parent_root = os.path.abspath(args.parent)
    change_root = os.path.abspath(args.change)
    spec = load_spec(change_root)
    workloads = workloads_of(spec, args.workloads)
    seconds = args.seconds or spec["run_seconds"]
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                root = parent_root if side == "parent" else change_root
                runs[side].append(run_once(root, spec, w, seed, seconds, 0))
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r[name] for r in runs["parent"]]
            c = [r[name] for r in runs["change"]]
            higher = m["better"] == "higher"
            wins = sum(1 for a, b in zip(p, c)
                       if (b > a if higher else b < a))
            pm, pq1, pq3, _ = summarize(p)
            cm, cq1, cq3, _ = summarize(c)
            gap = cm - pm if higher else pm - cm
            if wins >= 0.9 * len(p) and gap > pq3 - pq1:
                verdict = "improved"
            elif worse_by(m, pm, cm) > m["bound"]:
                verdict = ("unresolved" if (pq3 - pq1) / pm > m["bound"]
                           else "REGRESSED")
            else:
                verdict = "no change beyond bound"
            print(f"{w:<14} {name:<16} parent {pm:>10.5g} [{pq1:.5g}, "
                  f"{pq3:.5g}]  change {cm:>10.5g} [{cq1:.5g}, {cq3:.5g}]  "
                  f"wins {wins}/{len(p)}  {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--workloads", default="")
    s.add_argument("--seconds", type=int, default=0)
    s.add_argument("--trace", type=int, default=0, choices=[0, 1])
    s.add_argument("--seed-base", type=int, default=1)
    s.add_argument("--out", default="")
    d = sub.add_parser("drift")
    d.add_argument("first")
    d.add_argument("second")
    c = sub.add_parser("compare")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()
    return {"spread": cmd_spread, "drift": cmd_drift,
            "compare": cmd_compare}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
