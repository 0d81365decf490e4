"""Paired benchmark runs: a parent revision against the working tree.

Usage, from the root of a checkout:

    python3 scripts/bench.py --parent HEAD --workload exact_identities \\
        --seed 71 --seconds 24 --pairs 10 --out BENCH_<n>.json

The parent revision is extracted with `git archive` into a temporary
directory, so the repository's own git state is left as it was.  Each pair
runs `perfbench/run.py` once on the parent and once on the working tree,
each side with its own `perfbench/` and sources; which side runs first
alternates from pair to pair.  `--trace 1` records the per-layer metrics of
traced runs instead of the end-to-end ones.

The output holds, per workload and metric, each side's per-run values (in
pair order), median and quartiles (inclusive method), the number of pairs
the change won (ties count for neither side), the median change in percent
and the parent's quartile spread, and for each end-to-end metric a `verdict`
(`gain`, `regression`, `unresolved` or `level`, see `verdict`) against its
bound in BENCHMARK.json, plus failed and attempted operations and
both git revisions (the change is HEAD, flagged when the working tree has
uncommitted edits), the Python, numpy and CPU in use, and whether the child
interpreters write bytecode: with PYTHONDONTWRITEBYTECODE set and no
`__pycache__` under `src/`, every run compiles bclab anew, which shows in
`setup_s` (all of bclab imported in about 80 ms so, against 20 ms from a
bytecode cache, Python 3.11 on a 2-vCPU Xeon).  An existing output file is
updated: its runs under other keys are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: str) -> None:
    """Write the tree of `rev` into the directory `dest`."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"cannot extract revision {rev!r}")


def run_once(root: str, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    """One `perfbench/run.py` run in the checkout at `root`."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench run in {root} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def directions() -> dict[str, str]:
    """'lower' or 'higher' per metric name, from BENCHMARK.json."""
    spec = benchmark_spec()
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def bounds() -> dict[str, float]:
    """The relative bound per end-to-end metric name, from BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}


def change_wins(parent: list[float], change: list[float], better: str
                ) -> int:
    """Pairs in which the change did better; ties count for neither side."""
    sign = -1 if better == "higher" else 1
    return sum(sign * c < sign * p for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """One end-to-end metric's paired runs, judged in this order:

    - 'gain': the change won at least 9/10 of the pairs, and its median is
      better than the parent's by more than the parent's quartile spread;
    - 'regression': its median is worse than the parent's by more than
      `bound` times the parent's median;
    - 'unresolved': the parent's quartile spread exceeds `bound` times its
      median, and not every change run beats every parent run;
    - 'level': anything else.
    """
    sign = -1 if better == "higher" else 1
    q1, base, q3 = quartiles(parent)
    gap = sign * (base - quartiles(change)[1])  # > 0: the change is better
    if (10 * change_wins(parent, change, better) >= 9 * len(parent)
            and gap > q3 - q1):
        return "gain"
    if -gap > bound * abs(base):
        return "regression"
    if q3 - q1 > bound * abs(base) and not all(
            sign * c < sign * p for c in change for p in parent):
        return "unresolved"
    return "level"


def summarize(results: dict[str, list[dict]], better: dict[str, str],
              bound: dict[str, float]) -> dict:
    """Per-metric statistics of paired results, in pair order, with a
    `verdict` on each metric that has a bound."""
    pairs = len(results["parent"])
    out = {"pairs": pairs,
           "failed": {s: sum(r["failed"] for r in results[s]) for s in SIDES},
           "attempted": {s: sum(r["attempted"] for r in results[s])
                         for s in SIDES},
           "metrics": {}}
    for name, first in results["parent"][0]["metrics"].items():
        runs = {s: [r["metrics"][name]["value"] for r in results[s]]
                for s in SIDES}
        direction = better.get(name, "lower")
        wins = change_wins(runs["parent"], runs["change"], direction)
        entry = {"unit": first["unit"], "better": direction}
        for side in SIDES:
            q1, median, q3 = quartiles(runs[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3,
                           "runs": runs[side]}
        base = entry["parent"]["median"]
        entry["change_wins"] = f"{wins}/{pairs}"
        entry["median_change_pct"] = (
            round(100 * (entry["change"]["median"] - base) / base, 2)
            if base else None)
        entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        if name in bound:
            entry["verdict"] = verdict(runs["parent"], runs["change"],
                                       direction, bound[name])
        out["metrics"][name] = entry
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh
                     if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "child_writes_bytecode": not os.environ.get(
                "PYTHONDONTWRITEBYTECODE")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision to compare the working tree against")
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    parent_rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record["machine"] = machine()
    record["method"] = ("python3 perfbench/run.py --workload W --seed S "
                        "--seconds T --trace X on each side; parent and "
                        "change alternate which runs first")
    revisions = {"parent": parent_rev, "change": git("rev-parse", "HEAD"),
                 "change_uncommitted": bool(git("status", "--porcelain",
                                                "--untracked-files=no"))}
    better, bound = directions(), bounds()
    key = f"seed_{args.seed}" + ("_traced" if args.trace else "")
    runs = record.setdefault("runs", {}).setdefault(key, {})
    with tempfile.TemporaryDirectory(prefix="bclab-parent-") as parent_root:
        extract(parent_rev, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for workload in args.workload:
            results = {s: [] for s in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    res = run_once(roots[side], workload, args.seed,
                                   args.seconds, args.trace)
                    results[side].append(res)
                    wall = res["metrics"].get("wall_s", {}).get("value")
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"failed {res['failed']}/{res['attempted']}"
                          + (f", wall_s {wall:.3f}" if wall is not None
                             else ""), file=sys.stderr, flush=True)
            runs[workload] = dict(summarize(results, better, bound),
                                  seconds=args.seconds, revisions=revisions)
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
