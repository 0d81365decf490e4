"""bclab benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pnt_batch --seed 1 --seconds 20 --trace 0

Each repetition of the workload runs in a fresh interpreter (so the
library's process-wide caches start cold, as for a CLI user), one after the
other: a closed loop with one client, and only psi_sum's own worker threads
in parallel.  Inputs come from --seed; the expected outputs are computed
here before any repetition starts, and every repetition's outputs are
checked against them.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the repetitions),
--trace 1 alternates plain and traced repetitions and reports the per-layer
metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
PROBES = 5        # set-up only repetitions, for the setup_s median
MIN_REPS = 3      # plain repetitions, even when they outlast --seconds
DEADLINE = 170.0  # seconds; a run must end well within 180

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def spawn(spec: dict, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its output."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, SRC], input=json.dumps(spec), text=True,
        capture_output=True, cwd=ROOT, timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    return out


def measure(spec: dict, seconds: int, trace: bool, deadline: float):
    """Repetitions until the next one would end after `seconds`, and at
    least MIN_REPS of them; a traced run alternates plain and traced ones
    and needs only one of each.  Then the set-up probes."""
    start = time.monotonic()
    plain, traced = [], []
    longest = 0.0
    while True:
        on = trace and len(traced) < len(plain)
        began = time.monotonic()
        out = spawn(dict(spec, trace=on), deadline)
        longest = max(longest, time.monotonic() - began)
        (traced if on else plain).append(out)
        enough = traced if trace else len(plain) >= MIN_REPS
        if enough and time.monotonic() - start + longest > seconds:
            break
    setups = [out["setup_s"] for out in plain + traced]
    setups += [spawn({"workload": "probe"}, deadline)["setup_s"]
               for _ in range(PROBES)]
    return setups, plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("coeff", "count"),
                    help="perturb the first PNT pair's source, to show that "
                         "the gate fails (self-test)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE

    if not os.path.isfile(os.path.join(SRC, "bclab", "__init__.py")):
        print(f"bclab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS  # imports bclab from SRC

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    draw, check = WORKLOADS[args.workload]
    spec, expected = draw(args.seed, ROOT)
    spec = dict(spec, workload=args.workload, inject=args.inject)

    setups, plain, traced = measure(spec, args.seconds, bool(args.trace),
                                    deadline)
    attempted = failed = 0
    for out in plain + traced:
        a, f = check(expected, out)
        attempted += a
        failed += f
        errors = out["errors"] + [r["error"] for r in out["results"]
                                  if "error" in r]
        for err in errors:
            print(f"error: {err}", file=sys.stderr)

    if args.trace:
        names = traced[0]["layers"]
        metrics = {name: statistics.median(o["layers"][name] for o in traced)
                   for name in names}
        metrics["trace.overhead_s"] = (
            statistics.median(o["wall_s"] for o in traced)
            - statistics.median(o["wall_s"] for o in plain))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in metrics.items()}
    else:
        values = {"setup_s": statistics.median(setups)}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[name] = statistics.median(o[name] for o in plain)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    walls = " ".join(f"{o['wall_s']:.3f}" for o in plain)
    print(f"{args.workload} seed {args.seed}: {len(plain)} plain and "
          f"{len(traced)} traced repetitions, {len(setups)} set-ups; "
          f"plain wall_s {walls}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
