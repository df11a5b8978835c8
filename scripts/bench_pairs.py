"""Run the benchmark on a parent revision and a change in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_REV --workload W --pairs N \
        --out BENCH_<pr>.json [--change REV] [--seed S]

Both revisions are exported with `git archive` into a temporary directory,
and each runs its own, unchanged `perfbench/run.py --trace 0` from the root
of its tree, one run at a time.  Pair i runs both trees at seed S + i, the
parent first in even pairs and the change first in odd ones, each run as
long as the `run_seconds` of BENCHMARK.json.  The change defaults to HEAD:
commit what is to be measured.

The out file holds, per workload, every run's final JSON line, the
environment line of the first run, both revisions and, per metric, each
side's median and quartiles, the pairs the change won (ties count for
neither side) and the verdict.  A gain is claimed only when the change wins
at least 9 in 10 of the pairs run and the medians differ by more than the
spread between the parent's quartiles; `within_bound` says whether the
change's median is worse than the parent's by no more than the metric's
bound in BENCHMARK.json.  Running another workload into an existing out
file adds it, provided the revisions are the same.  perfbench/run.py
records scipy's version, so the script stops at once without scipy.
"""

import argparse
import importlib.util
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9         # the share of pairs a claimed gain must win


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, into):
    """The tree of `rev`, written below `into` by `git archive`."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run: (final JSON line, environment
    line); the JSON line says correct false where the run itself failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    try:
        return json.loads(lines[-1]), env
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:]
        return {"correct": False, "attempted": 0, "failed": 1,
                "metrics": {}, "error": f"exit {proc.returncode} {tail}"}, env


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def summary(metric, parent, change):
    """Both sides of one metric over the pairs, and the verdict."""
    lower = metric["better"] == "lower"
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ps, cs = quartiles(parent), quartiles(change)
    gap = cs["median"] - ps["median"]
    spread = ps["q3"] - ps["q1"]
    better = gap < 0 if lower else gap > 0
    worse = gap if lower else -gap
    return {
        "unit": metric["unit"], "better": metric["better"],
        "parent": ps, "change": cs, "pairs_won": won, "pairs": len(parent),
        "median_gap": gap, "relative_gap": gap / ps["median"],
        "parent_spread": spread,
        "gain": (won >= math.ceil(WIN_SHARE * len(parent)) and better
                 and abs(gap) > spread),
        "within_bound": worse <= metric["bound"] * abs(ps["median"]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if importlib.util.find_spec("scipy") is None:
        print("bench_pairs: scipy is not installed, and perfbench/run.py "
              "records its version; install the test extra first",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    seconds = bench["run_seconds"]
    revs = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change)}
    doc = {**revs, "workloads": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
        if {k: doc.get(k) for k in revs} != revs:
            parser.error(f"{args.out} holds other revisions")

    runs, env = [], None
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: export(rev, scratch / side)
                 for side, rev in revs.items()}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                result, run_env = run_once(trees[side], args.workload, seed,
                                           seconds)
                env = env or run_env
                runs.append({"pair": i, "side": side, "seed": seed,
                             "first": side == order[0], "result": result})
                print(f"pair {i} {side}: correct {result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in
                                 result["metrics"].items()), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        sides = {side: [r["result"]["metrics"].get(name, {}).get("value")
                        for r in sorted(runs, key=lambda r: r["pair"])
                        if r["side"] == side] for side in revs}
        if all(v is not None for vs in sides.values() for v in vs):
            metrics[name] = summary(metric, sides["parent"], sides["change"])
    doc["workloads"][args.workload] = {
        "pairs": args.pairs, "seeds": [args.seed, args.seed + args.pairs - 1],
        "seconds": seconds,
        "environment": dict(env or {}, machine=platform.machine(),
                            system=platform.system()),
        "failed_runs": sum(not r["result"]["correct"] for r in runs),
        "metrics": metrics, "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name}: parent {m['parent']['median']:.4g} "
              f"change {m['change']['median']:.4g} "
              f"({100 * m['relative_gap']:+.1f}%), won {m['pairs_won']}/"
              f"{m['pairs']}, gain {m['gain']}, within bound "
              f"{m['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
